"""Recipe-level metrics.

Substantial difference score (SDS) and SDS-0 grouping, popularity,
quantity-weighted environmental impact, the 13-component healthy eating
index, dietary energy requirements, and a personalized nutrition score.
All operations are pure functions over immutable tables.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from .corpus import IngredientVocabulary
from .errors import ANY, DataError, number, read_json, read_text


# ---------------------------------------------------------------------------
# substantial difference score

def sds(a, b) -> int | np.ndarray:
    """Count of ingredients differing in presence or by a >= 2x weight ratio.

    a and b are grams arrays that broadcast over their leading axes, so
    sds(grams_matrix, reference) scores every row at once.
    """
    wa, wb = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    if wa.shape[-1] != wb.shape[-1]:
        raise DataError("recipes use different vocabularies")
    d = _sds_rows(wa, wb)
    return int(d) if d.ndim == 0 else d


def _sds_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """SDS between grams arrays a and b (..., K), broadcast over leading axes.

    An ingredient counts when it is present (grams > 0) in exactly one of
    the two, or in both with the larger amount at least twice the smaller.
    """
    pa, pb = a > 0, b > 0
    hit = np.maximum(a, b) >= np.minimum(a, b) * 2.0
    hit &= pa & pb
    hit |= pa ^ pb
    return hit.sum(axis=-1)


@dataclass
class SDSGroup:
    count: int
    founder_index: int  # row of the group's first member, its representative


def _pattern_keys(masks: np.ndarray) -> np.ndarray:
    """One key per row of an (n, K) mask set: its presence bits packed into one bytes value."""
    packed = np.packbits(masks > 0, axis=1)
    return packed.view(np.dtype((np.void, packed.shape[1]))).ravel()


def group_recipes(samples: np.ndarray) -> list[SDSGroup]:
    """Greedy leader clustering at SDS = 0 of the rows of an (n, K) grams
    matrix, in row order.

    Each row joins the first existing group whose founder row is at
    SDS = 0, else founds a new group. SDS = 0 requires identical presence
    (grams > 0), so rows are bucketed by presence pattern in one np.unique
    pass. A bucket of one row is a group of one; in a larger one the
    earliest remaining row founds a group that every remaining row at
    SDS = 0 to it joins, and the rest repeat. Output is sorted by count
    descending, ties broken by earliest founder.
    """
    if len(samples) == 0:
        raise DataError("cannot group an empty sample list")
    _, first, bucket, sizes = np.unique(_pattern_keys(samples), return_index=True,
                                        return_inverse=True, return_counts=True)
    founders = first[sizes == 1].tolist()
    counts = [1] * len(founders)
    by_bucket, ends = np.argsort(bucket, kind="stable"), np.cumsum(sizes)
    for b in np.flatnonzero(sizes > 1):
        rest = by_bucket[ends[b] - sizes[b]:ends[b]]
        while rest.size:
            same = _sds_rows(samples[rest], samples[rest[0]]) == 0
            same[0] = True  # its founder, though a row with an infinite gram is at SDS 1 to itself
            counts.append(int(same.sum()))
            founders.append(int(rest[0]))
            rest = rest[~same]
    counts, founders = np.array(counts), np.array(founders)
    order = np.lexsort((founders, -counts))
    return list(map(SDSGroup, counts[order].tolist(), founders[order].tolist()))


# ---------------------------------------------------------------------------
# environmental impact

IMPACT_METRICS = ("land_m2_per_kg", "eutro_gPO4eq_per_kg", "water_L_per_kg", "ghg_kgCO2eq_per_kg")


@dataclass
class ImpactTable:
    """Per-ingredient life-cycle metrics per kg, aligned to a vocabulary,
    plus one normalization constant per metric."""

    vocabulary: IngredientVocabulary
    values: np.ndarray  # (K, 4) in IMPACT_METRICS order
    norms: np.ndarray   # (4,)


def load_impact_table(path: str | Path, vocabulary: IngredientVocabulary,
                      norms_path: str | Path | None = None) -> ImpactTable:
    """Read the impact CSV; every vocabulary ingredient must be present.

    Normalization constants come from a sidecar JSON object when given
    (number keys land, eutrophication, water, ghg), else default to the
    median per-kg impact of each metric across the table.
    """
    values = _read_table(path, "impact", IMPACT_METRICS, vocabulary)
    if norms_path is not None:
        doc = read_json(norms_path)
        keys = ("land", "eutrophication", "water", "ghg")
        if not isinstance(doc, dict):
            raise DataError(f"{norms_path}: expected a JSON object with keys {', '.join(keys)}")
        for k in keys:
            if k not in doc:
                raise DataError(f"{norms_path}: missing key {k}")
        norms = np.array([number(doc[k], f"{norms_path}: key {k}", "(0, inf)") for k in keys])
    else:
        norms = np.median(values, axis=0)
        norms = np.where(norms <= 0, 1.0, norms)
    return ImpactTable(vocabulary=vocabulary, values=values, norms=norms)


def _records(path, kind: str, key: str, columns):
    """("<path>: line <n>", record) for each row of the CSV table at path,
    in file order. DataError names the file of text that is not UTF-8 or
    that lacks the key column or one of columns, and the file, line and
    key of a key that repeats an earlier row's."""
    reader = csv.DictReader(io.StringIO(read_text(path), newline=""))
    missing = {key, *columns} - set(reader.fieldnames or [])
    if missing:
        raise DataError(f"{path}: {kind} table missing columns: {sorted(missing)}")
    seen = set()
    for rec in reader:
        where = f"{path}: line {reader.line_num}"
        if rec[key] in seen:
            raise DataError(f"{where}: {key} {rec[key]!r} is repeated")
        seen.add(rec[key])
        yield where, rec


def _read_table(path, kind: str, fields, vocabulary: IngredientVocabulary) -> np.ndarray:
    """The (K, len(fields)) values of a per-ingredient CSV table read by
    _records, rows in vocabulary order. DataError also names the file of a
    missing ingredient, and of a cell that is not a finite number >= 0,
    with that cell's ingredient and column."""
    rows = {rec["ingredient_id"]: [_cell(path, rec, "ingredient_id", f, "[0, inf)") for f in fields]
            for _, rec in _records(path, kind, "ingredient_id", fields)}
    missing = [i for i in vocabulary.ids if i not in rows]
    if missing:
        raise DataError(f"{path}: {kind} table missing ingredients: {missing[:5]}")
    return np.array([rows[i] for i in vocabulary.ids])


def _cell(path, rec: dict, key: str, column: str, interval: str = ANY) -> float:
    """The number in a CSV record's column, as errors.number reads it."""
    cell = rec[column]
    try:
        value = float(cell)
    except (TypeError, ValueError):  # TypeError: a short row's missing cell is None
        value = cell
    return number(value, f"{path}: column {column} of {rec[key]}", interval)


def env_impact_scores(weights: np.ndarray, table: ImpactTable) -> np.ndarray:
    """Quantity-weighted mean of the four normalized life-cycle metrics,
    per row of a grams matrix (or of one (K,) row)."""
    weights = np.atleast_2d(np.asarray(weights, dtype=float))
    if weights.shape[1] != table.vocabulary.K:
        raise DataError("recipe does not match impact table vocabulary")
    if (weights.sum(axis=1) <= 0).any():
        raise DataError("environmental score undefined for a zero-mass recipe")
    per_metric = (weights / 1000.0) @ table.values  # (n, 4)
    return (per_metric / table.norms).mean(axis=1)


# ---------------------------------------------------------------------------
# nutrient table and healthy eating index

NUTRIENT_FIELDS = (
    "kcal_per_100g",
    "total_fruits_cup_per_100g",
    "whole_fruits_cup_per_100g",
    "total_vegetables_cup_per_100g",
    "greens_and_beans_cup_per_100g",
    "whole_grains_oz_per_100g",
    "dairy_cup_per_100g",
    "total_protein_foods_oz_per_100g",
    "seafood_plant_proteins_oz_per_100g",
    "refined_grains_oz_per_100g",
    "sodium_mg_per_100g",
    "added_sugars_g_per_100g",
    "saturated_fat_g_per_100g",
    "unsaturated_fat_g_per_100g",
    "protein_g_per_100g",
    "carbohydrate_g_per_100g",
    "fat_g_per_100g",
)


@dataclass
class NutrientTable:
    """Per-100 g nutrient and food-pattern-equivalent data per ingredient."""

    vocabulary: IngredientVocabulary
    values: np.ndarray  # (K, 17) in NUTRIENT_FIELDS order

    def amounts(self, weights: np.ndarray, fields: list[str]) -> np.ndarray:
        """(n, len(fields)) totals for each weight-matrix row."""
        return self._hectograms(weights) @ self._columns(fields)

    def _hectograms(self, weights: np.ndarray) -> np.ndarray:
        """The (n, K) matrix of weights / 100 of a weight matrix or (K,) row."""
        weights = np.atleast_2d(np.asarray(weights, dtype=float))
        if weights.shape[1] != self.vocabulary.K:
            raise DataError("recipe does not match nutrient table vocabulary")
        return weights / 100.0

    def _columns(self, fields: list[str]) -> np.ndarray:
        # take copies C-ordered; values[:, idx] is F-ordered, and BLAS rounds it otherwise
        return self.values.take([NUTRIENT_FIELDS.index(f) for f in fields], axis=1)


def load_nutrient_table(path: str | Path, vocabulary: IngredientVocabulary) -> NutrientTable:
    values = _read_table(path, "nutrient", NUTRIENT_FIELDS, vocabulary)
    return NutrientTable(vocabulary=vocabulary, values=values)


@dataclass
class HEIComponentStandard:
    component: str
    curve: str          # "increasing" or "decreasing"
    max_points: float
    max_at: float       # density scoring max_points
    zero_at: float      # density scoring 0


def load_hei_standards(path: str | Path | None = None) -> list[HEIComponentStandard]:
    """Component curves in file order; defaults to the bundled HEI-2015 standards file.

    The file is read by _records. Each of the 13 HEI_COMPONENTS must appear once.
    DataError names the file, and the line of a bad row: an unknown or repeated
    component, a bad cell or curve, max_at == zero_at.
    """
    src = resources.files("recipeforge").joinpath("data/hei2015_standards.csv") \
        if path is None else Path(path)
    out: dict[str, HEIComponentStandard] = {}
    for where, rec in _records(src, "HEI standards", "component",
                               ("curve", "max_points", "max_at", "zero_at")):
        name = rec["component"]
        if name not in HEI_COMPONENTS:
            raise DataError(f"{where}: component {name!r} is not an HEI component")
        std = HEIComponentStandard(component=name, curve=rec["curve"], **{
            col: _cell(where, rec, "component", col) for col in ("max_points", "max_at", "zero_at")})
        if std.curve not in ("increasing", "decreasing"):
            raise DataError(f"{where}: column curve of {name} is {std.curve!r}, "
                            "expected increasing or decreasing")
        if std.max_at == std.zero_at:
            raise DataError(f"{where}: columns max_at and zero_at of {name} are equal")
        out[name] = std
    missing = [c for c in HEI_COMPONENTS if c not in out]
    if missing:
        raise DataError(f"{src}: HEI components {missing} are missing")
    return list(out.values())


def _component_score(std: HEIComponentStandard, value: np.ndarray) -> np.ndarray:
    if std.curve == "increasing":
        frac = (value - std.zero_at) / (std.max_at - std.zero_at)
    else:  # decreasing, the one other curve load_hei_standards admits
        frac = (std.zero_at - value) / (std.zero_at - std.max_at)
    return std.max_points * np.clip(frac, 0.0, 1.0)


_HEI_DENSITY_FIELDS = {
    "total_fruits": "total_fruits_cup_per_100g",
    "whole_fruits": "whole_fruits_cup_per_100g",
    "total_vegetables": "total_vegetables_cup_per_100g",
    "greens_and_beans": "greens_and_beans_cup_per_100g",
    "whole_grains": "whole_grains_oz_per_100g",
    "dairy": "dairy_cup_per_100g",
    "total_protein_foods": "total_protein_foods_oz_per_100g",
    "seafood_plant_proteins": "seafood_plant_proteins_oz_per_100g",
    "refined_grains": "refined_grains_oz_per_100g",
}

HEI_COMPONENTS = (*_HEI_DENSITY_FIELDS, "fatty_acids", "sodium", "added_sugars", "saturated_fats")


def hei_components_matrix(weights: np.ndarray, table: NutrientTable,
                          standards: list[HEIComponentStandard]) -> np.ndarray:
    """Component scores (n, 13) for each weight-matrix row, in the order of standards.

    Scoring normalizes each recipe to a 500 kcal serving; the component
    inputs are per-1000-kcal densities (or percent of energy, or the
    unsaturated/saturated fat ratio), which that scaling leaves
    invariant.
    """
    hectograms = table._hectograms(weights)  # once for the 15 one-column products

    def total(field: str) -> np.ndarray:
        return (hectograms @ table._columns([field]))[:, 0]

    energy = total("kcal_per_100g")
    if (energy <= 0).any():
        raise DataError("healthy eating index undefined for a zero-energy recipe")
    scores = np.zeros((len(hectograms), len(standards)))
    for c, std in enumerate(standards):
        if std.component in _HEI_DENSITY_FIELDS:
            value = total(_HEI_DENSITY_FIELDS[std.component]) * 1000.0 / energy
        elif std.component == "fatty_acids":
            unsat = total("unsaturated_fat_g_per_100g")
            sat = total("saturated_fat_g_per_100g")
            # zero saturated fat: max ratio credit if any unsaturated fat, else none
            with np.errstate(divide="ignore", invalid="ignore"):
                value = np.where(sat > 0, unsat / np.where(sat > 0, sat, 1.0),
                                 np.where(unsat > 0, std.max_at, std.zero_at))
        elif std.component == "sodium":
            value = total("sodium_mg_per_100g") / 1000.0 * 1000.0 / energy  # grams per 1000 kcal
        elif std.component == "added_sugars":
            value = total("added_sugars_g_per_100g") * 4.0 / energy * 100.0  # percent of energy
        else:  # saturated_fats, the last of the 13 load_hei_standards admits
            value = total("saturated_fat_g_per_100g") * 9.0 / energy * 100.0
        scores[:, c] = _component_score(std, value)
    return scores


def hei_totals(weights: np.ndarray, table: NutrientTable,
               standards: list[HEIComponentStandard] | None = None) -> np.ndarray:
    """13-component healthy eating index in [0, 100] per grams-matrix row."""
    standards = standards or load_hei_standards()
    return hei_components_matrix(weights, table, standards).sum(axis=1)


# ---------------------------------------------------------------------------
# personalization

ACTIVITY_LEVELS = ("sedentary", "moderate", "active")

# dietary-reference-intake physical activity coefficients by (sex, age group)
_PA = {
    ("male", "child"): {"sedentary": 1.00, "moderate": 1.13, "active": 1.26},
    ("female", "child"): {"sedentary": 1.00, "moderate": 1.16, "active": 1.31},
    ("male", "adult"): {"sedentary": 1.00, "moderate": 1.11, "active": 1.25},
    ("female", "adult"): {"sedentary": 1.00, "moderate": 1.12, "active": 1.27},
}


@dataclass
class PersonProfile:
    age: float
    sex: str
    height_cm: float
    weight_kg: float
    activity: str

    def __post_init__(self):
        if self.age <= 0 or self.height_cm <= 0 or self.weight_kg <= 0:
            raise DataError("age, height, and weight must be positive")
        if self.sex not in ("male", "female"):
            raise DataError(f"profile.sex is {self.sex!r}, expected male or female")
        if self.activity not in ACTIVITY_LEVELS:
            raise DataError(f"profile.activity is {self.activity!r}, expected one of "
                            f"{', '.join(ACTIVITY_LEVELS)}")


def energy_requirement(profile: PersonProfile) -> float:
    """Estimated energy requirement in kcal/day from the DRI equations."""
    if profile.age < 1:
        raise DataError(f"profile.age is {profile.age!r}, expected at least 1 for an energy "
                        "requirement")
    a, w = profile.age, profile.weight_kg
    h = profile.height_cm / 100.0
    if a < 3:
        return 89.0 * w - 100.0 + 20.0
    group = "adult" if a >= 19 else "child"
    pa = _PA[(profile.sex, group)][profile.activity]
    if a < 19:
        growth = 20.0 if a < 9 else 25.0
        if profile.sex == "male":
            return 88.5 - 61.9 * a + pa * (26.7 * w + 903.0 * h) + growth
        return 135.3 - 30.8 * a + pa * (10.0 * w + 934.0 * h) + growth
    if profile.sex == "male":
        return 662.0 - 9.53 * a + pa * (15.91 * w + 539.6 * h)
    return 354.0 - 6.91 * a + pa * (9.36 * w + 726.0 * h)


def _amdr_ranges(age: float) -> dict[str, tuple[float, float]]:
    # acceptable macronutrient distribution ranges, percent of energy
    if age < 4:
        return {"protein": (5.0, 20.0), "carbohydrate": (45.0, 65.0), "fat": (30.0, 40.0)}
    if age < 19:
        return {"protein": (10.0, 30.0), "carbohydrate": (45.0, 65.0), "fat": (25.0, 35.0)}
    return {"protein": (10.0, 35.0), "carbohydrate": (45.0, 65.0), "fat": (20.0, 35.0)}


# WHO guideline upper limits: sodium 2 g/day; free sugars and saturated
# fats each below 10 percent of energy intake
_WHO_SODIUM_MG_PER_DAY = 2000.0
_WHO_SUGAR_PCT = 10.0
_WHO_SATFAT_PCT = 10.0


def _range_subscore(value: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """100 inside [lo, hi], linear to 0 at twice the bound distance.

    Above hi the score hits 0 at 2*hi; below lo it hits 0 at lo/2.
    """
    value = np.asarray(value, dtype=float)
    out = np.full(value.shape, 100.0)
    over = value > hi
    out = np.where(over, 100.0 * np.clip((2.0 * hi - value) / hi, 0.0, 1.0), out)
    if lo > 0:
        under = value < lo
        out = np.where(under, 100.0 * np.clip(2.0 * value / lo - 1.0, 0.0, 1.0), out)
    return out


def personalized_scores(weights: np.ndarray, profile: PersonProfile,
                        table: NutrientTable, meal_fraction: float = 1.0 / 3.0) -> np.ndarray:
    """Vectorized personalized nutrition score per weight-matrix row.

    Each recipe is scaled to meal_fraction of the profile's daily energy
    requirement; macronutrients are judged against the age-specific
    acceptable distribution ranges and sodium, free sugars, and saturated
    fat against the WHO upper limits, pro-rated to the meal.
    """
    weights = np.atleast_2d(np.asarray(weights, dtype=float))
    fields = ["kcal_per_100g", "protein_g_per_100g", "carbohydrate_g_per_100g",
              "fat_g_per_100g", "sodium_mg_per_100g", "added_sugars_g_per_100g",
              "saturated_fat_g_per_100g"]
    amt = table.amounts(weights, fields)
    energy = amt[:, 0]
    if (energy <= 0).any():
        raise DataError("personalized score undefined for a zero-energy recipe")
    eer = energy_requirement(profile)
    scale = (eer * meal_fraction) / energy

    amdr = _amdr_ranges(profile.age)
    protein_pct = amt[:, 1] * 4.0 / energy * 100.0
    carb_pct = amt[:, 2] * 4.0 / energy * 100.0
    fat_pct = amt[:, 3] * 9.0 / energy * 100.0
    sodium_mg = amt[:, 4] * scale
    sugar_pct = amt[:, 5] * 4.0 / energy * 100.0
    satfat_pct = amt[:, 6] * 9.0 / energy * 100.0

    subs = np.stack([
        _range_subscore(protein_pct, *amdr["protein"]),
        _range_subscore(carb_pct, *amdr["carbohydrate"]),
        _range_subscore(fat_pct, *amdr["fat"]),
        _range_subscore(sodium_mg, 0.0, _WHO_SODIUM_MG_PER_DAY * meal_fraction),
        _range_subscore(sugar_pct, 0.0, _WHO_SUGAR_PCT),
        _range_subscore(satfat_pct, 0.0, _WHO_SATFAT_PCT),
    ], axis=1)
    return subs.mean(axis=1)
