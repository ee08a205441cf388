import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from recipeforge import discovery, scoring
from recipeforge.corpus import Corpus, IngredientVocabulary
from recipeforge.errors import DataError
from helpers import group_recipes_loop


def recipe(weights) -> np.ndarray:
    return np.asarray(weights, dtype=float)


def personalized(r: np.ndarray, profile, table) -> float:
    return float(scoring.personalized_scores(r, profile, table)[0])


def env_score(r: np.ndarray, table) -> float:
    return float(scoring.env_impact_scores(r, table)[0])


def hei_total(r: np.ndarray, table) -> float:
    return float(scoring.hei_totals(r, table)[0])


def hei_components(r: np.ndarray, table) -> dict[str, float]:
    standards = scoring.load_hei_standards()
    scores = scoring.hei_components_matrix(r, table, standards)
    return dict(zip([s.component for s in standards], scores[0]))


# ---------------------------------------------------------------------------
# substantial difference score

def test_sds_identity():
    r = recipe([200.0, 0.0, 30.0])
    assert scoring.sds(r, r) == 0


def test_sds_presence_mismatch():
    r1 = recipe([200.0, 0.0])
    r2 = recipe([200.0, 100.0])
    assert scoring.sds(r1, r2) == 1


def test_sds_ratio_boundary():
    assert scoring.sds(recipe([100.0]), recipe([200.0])) == 1  # ratio exactly 2 triggers
    assert scoring.sds(recipe([100.0]), recipe([150.0])) == 0
    assert scoring.sds(recipe([100.0]), recipe([199.0])) == 0
    assert scoring.sds(recipe([100.0]), recipe([201.0])) == 1


def test_sds_vocabulary_mismatch():
    with pytest.raises(DataError):
        scoring.sds(recipe([1.0]), recipe([1.0, 2.0]))


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), min_size=1, max_size=8))
def test_sds_symmetric_and_bounded(pairs):
    scale = [0.0, 50.0, 120.0, 500.0]
    w1 = np.array([scale[a] for a, _ in pairs])
    w2 = np.array([scale[b] for _, b in pairs])
    r1, r2 = recipe(w1), recipe(w2)
    d = scoring.sds(r1, r2)
    assert d == scoring.sds(r2, r1)
    assert 0 <= d <= len(pairs)
    assert scoring.sds(r1, r1) == 0


def test_sds_scale_jump_property():
    # doubling the currently larger side of an in-ratio shared ingredient
    # adds exactly one point
    rng = np.random.default_rng(0)
    for _ in range(50):
        w1 = rng.uniform(10, 100, size=6)
        w2 = w1 * rng.uniform(0.55, 1.8, size=6)  # all within ratio < 2
        r1, r2 = recipe(w1), recipe(w2)
        base = scoring.sds(r1, r2)
        i = int(rng.integers(0, 6))
        w2b = w2.copy()
        if w2b[i] >= w1[i]:
            w2b[i] *= 2.0
        else:
            w1 = w1.copy()
            w1[i] *= 2.0
        assert scoring.sds(recipe(w1), recipe(w2b)) == base + 1


def brute_force_sds(r1: np.ndarray, r2: np.ndarray) -> int:
    # independent reimplementation, straight from the piecewise definition
    total = 0
    for i in range(len(r1)):
        a, b = float(r1[i]), float(r2[i])
        if a + b != 0 and a * b == 0:
            total += 1
        elif a > 0 and b > 0 and max(a, b) / min(a, b) >= 2:
            total += 1
    return total


def test_sds_against_brute_force():
    rng = np.random.default_rng(1)
    for _ in range(1000):
        w1 = np.where(rng.random(10) < 0.6, rng.uniform(1, 300, 10), 0.0)
        w2 = np.where(rng.random(10) < 0.6, rng.uniform(1, 300, 10), 0.0)
        r1, r2 = recipe(w1), recipe(w2)
        assert scoring.sds(r1, r2) == brute_force_sds(r1, r2)


grams_rows = st.lists(st.sampled_from([0.0, 1.0, 50.0, 99.0, 100.0, 150.0, 200.0, 201.0]),
                      min_size=3, max_size=3)


@settings(max_examples=100, deadline=None)
@given(st.lists(grams_rows, min_size=1, max_size=6), st.lists(grams_rows, min_size=1, max_size=6))
def test_sds_kernel_broadcast_matches_pair_loop(rows_a, rows_b):
    A, B = np.array(rows_a), np.array(rows_b)
    D = scoring._sds_rows(A[:, None, :], B[None, :, :])
    assert D.shape == (len(A), len(B))
    for i, a in enumerate(A):
        assert scoring._sds_rows(a, a) == 0
        for j, b in enumerate(B):
            assert D[i, j] == scoring._sds_rows(a, b) == scoring._sds_rows(b, a)
            assert D[i, j] == brute_force_sds(recipe(a), recipe(b))
    np.testing.assert_array_equal(scoring.sds(A, B[0]), D[:, 0])


@settings(max_examples=100, deadline=None)
@given(st.lists(grams_rows, min_size=1, max_size=40))
def test_group_counts_sum_to_n_property(rows):
    grams = np.array(rows)
    groups = scoring.group_recipes(grams)
    assert sum(g.count for g in groups) == len(grams)
    founders = grams[[g.founder_index for g in groups]]
    # founders are pairwise distinct at SDS = 0 and every row matches one
    assert (scoring._sds_rows(founders[:, None, :], founders[None]) == 0).sum() == len(groups)
    assert (scoring._sds_rows(grams[:, None, :], founders[None]) == 0).any(axis=1).all()


# ---------------------------------------------------------------------------
# grouping and popularity

def test_group_identical_recipes():
    groups = scoring.group_recipes(np.array([[100.0, 50.0]] * 3))
    assert len(groups) == 1
    assert groups[0].count == 3 and groups[0].founder_index == 0


def test_group_in_ratio_weights_merge():
    assert len(scoring.group_recipes(np.array([[100.0], [150.0]]))) == 1


def test_group_ratio_two_splits():
    assert len(scoring.group_recipes(np.array([[100.0], [200.0]]))) == 2


def test_group_counts_sum_and_membership():
    rng = np.random.default_rng(2)
    rs = []
    for _ in range(200):
        w = np.where(rng.random(4) < 0.7, rng.choice([50.0, 90.0, 200.0], 4), 0.0)
        if w.sum() == 0:
            w[0] = 50.0
        rs.append(w)
    rs = np.array(rs)
    groups = scoring.group_recipes(rs)
    assert sum(g.count for g in groups) == len(rs)
    counts = [g.count for g in groups]
    assert counts == sorted(counts, reverse=True)
    # greedy membership: every sample is SDS-0 to the first founder that absorbed it
    for r in rs:
        assert any(scoring.sds(r, rs[g.founder_index]) == 0 for g in groups)


# x, 2x and just under 2x; 100 ~ 150 ~ 225 is a chain with 100 !~ 225
_GROUP_GRAMS = [0.0, 100.0, 150.0, 225.0, float(np.nextafter(200.0, 0.0)), 200.0, 300.0]


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 4).flatmap(lambda K: st.lists(
           st.lists(st.sampled_from(_GROUP_GRAMS), min_size=K, max_size=K), min_size=1, max_size=8)),
       st.lists(st.integers(0, 7), min_size=1, max_size=40))
@example([[100.0]], [0])  # n = 1, K = 1
@example([[0.0, 0.0], [100.0, 0.0]], [0, 1, 0, 0, 1])  # all-absent rows
@example([[225.0], [100.0], [150.0]], [0, 1, 2, 1, 0, 2])  # the chain, in both orders
@example([[np.inf], [100.0]], [0, 1, 0])  # an infinite gram is at SDS 1 to itself
def test_group_recipes_matches_the_row_loop(pool, picks):
    # rows repeat: each is a pick from a pool of at most 8
    samples = np.array([pool[i % len(pool)] for i in picks])
    groups = scoring.group_recipes(samples)
    assert groups == group_recipes_loop(samples)
    assert all(type(g.count) is int and type(g.founder_index) is int for g in groups)


def test_group_first_match_wins():
    # second sample is SDS-0 to the first founder, so no new group
    groups = scoring.group_recipes(np.array([[100.0], [199.0], [150.0]]))
    assert groups[0].count == 3 or sum(g.count for g in groups) == 3


def test_popularity_values():
    # popularity is the selected SDS-0 group's share of the batch
    corpus = Corpus(vocabulary=IngredientVocabulary.from_ids(["beef"]),
                    grams=[[1000.0]], splits=["train"])
    for grams, share in (([100.0] * 5 + [400.0] * 3, 5 / 8), ([100.0] * 7, 1.0)):
        batch = np.array(grams)[:, None]
        nov = discovery.novelty_many(batch, corpus)
        assert discovery.discover_novel(batch, nov, min_sds=0).popularity == share
    with pytest.raises(DataError):
        discovery.discover_novel(np.zeros((0, 1)), np.zeros(0, dtype=int), min_sds=0)


# ---------------------------------------------------------------------------
# environmental impact

VOCAB3 = IngredientVocabulary.from_ids(["bean_patty", "lettuce", "white_bun"])


def impact_table(tmp_path, norms=None):
    f = tmp_path / "impact.csv"
    f.write_text(
        "ingredient_id,land_m2_per_kg,eutro_gPO4eq_per_kg,water_L_per_kg,ghg_kgCO2eq_per_kg\n"
        "bean_patty,4.0,10.0,400.0,2.0\n"
        "lettuce,1.0,2.0,100.0,0.5\n"
        "white_bun,2.0,6.0,200.0,1.0\n")
    norms_path = None
    if norms is not None:
        norms_path = tmp_path / "norms.json"
        import json
        norms_path.write_text(json.dumps(norms))
    return scoring.load_impact_table(f, VOCAB3, norms_path)


def test_env_normalization_identity(tmp_path):
    table = impact_table(tmp_path, norms={"land": 4.0, "eutrophication": 10.0,
                                          "water": 400.0, "ghg": 2.0})
    r = recipe([1000.0, 0.0, 0.0])  # 1 kg of bean_patty, impacts equal to norms
    assert abs(env_score(r, table) - 1.0) < 1e-12


def test_env_linearity(tmp_path):
    table = impact_table(tmp_path)
    r1 = recipe([200.0, 40.0, 80.0])
    r2 = recipe([100.0, 20.0, 40.0])
    s1 = env_score(r1, table)
    s2 = env_score(r2, table)
    assert abs(s1 - 2.0 * s2) < 1e-12


def test_env_additive_over_concatenation(tmp_path):
    table = impact_table(tmp_path)
    w1 = np.array([150.0, 0.0, 70.0])
    w2 = np.array([50.0, 30.0, 0.0])
    total = env_score(recipe(w1 + w2), table)
    parts = env_score(recipe(w1), table) + env_score(recipe(w2), table)
    assert abs(total - parts) < 1e-12


def test_env_default_norms_are_medians(tmp_path):
    table = impact_table(tmp_path)
    np.testing.assert_allclose(table.norms, [2.0, 6.0, 200.0, 1.0])


def test_impact_table_rejects_nan_value(tmp_path):
    f = tmp_path / "impact.csv"
    f.write_text(
        "ingredient_id,land_m2_per_kg,eutro_gPO4eq_per_kg,water_L_per_kg,ghg_kgCO2eq_per_kg\n"
        "bean_patty,4.0,10.0,400.0,2.0\n"
        "lettuce,1.0,nan,100.0,0.5\n"
        "white_bun,2.0,6.0,200.0,1.0\n")
    with pytest.raises(DataError, match=r"impact\.csv.*eutro_gPO4eq_per_kg"):
        scoring.load_impact_table(f, VOCAB3)


def test_impact_norms_reject_non_finite_value(tmp_path):
    with pytest.raises(DataError, match=r"norms\.json.*water"):
        impact_table(tmp_path, norms={"land": 4.0, "eutrophication": 10.0,
                                      "water": float("inf"), "ghg": 2.0})


IMPACT_HEADER = ("ingredient_id,land_m2_per_kg,eutro_gPO4eq_per_kg,water_L_per_kg,"
                 "ghg_kgCO2eq_per_kg\n")


@pytest.mark.parametrize("row, message", [
    ("lettuce,1.0,abc,100.0,0.5", "column eutro_gPO4eq_per_kg of lettuce is 'abc', "
                                  "expected a finite number in [0, inf)"),
    ("lettuce,1.0,2.0,100.0", "column ghg_kgCO2eq_per_kg of lettuce is None, "
                              "expected a finite number in [0, inf)"),
    ("lettuce,-1,2.0,100.0,0.5", "column land_m2_per_kg of lettuce is -1.0, "
                                 "expected a finite number in [0, inf)"),
], ids=["not_a_number", "short_row", "negative"])
def test_impact_table_names_file_ingredient_and_column_of_a_bad_cell(tmp_path, row, message):
    f = tmp_path / "impact.csv"
    f.write_text(IMPACT_HEADER + "bean_patty,4.0,10.0,400.0,2.0\n" + row
                 + "\nwhite_bun,2.0,6.0,200.0,1.0\n")
    with pytest.raises(DataError) as e:
        scoring.load_impact_table(f, VOCAB3)
    assert str(e.value) == f"{f}: {message}"


def test_impact_table_missing_column_names_the_file(tmp_path):
    f = tmp_path / "impact.csv"
    f.write_text(IMPACT_HEADER.replace(",water_L_per_kg", "") + "bean_patty,4.0,10.0,2.0\n")
    with pytest.raises(DataError) as e:
        scoring.load_impact_table(f, VOCAB3)
    assert str(e.value) == f"{f}: impact table missing columns: ['water_L_per_kg']"


@pytest.mark.parametrize("norms, message", [
    ([4.0, 10.0, 400.0, 2.0], "expected a JSON object with keys land, eutrophication, water, ghg"),
    ({"land": "x", "eutrophication": 10.0, "water": 400.0, "ghg": 2.0},
     "key land is 'x', expected a finite number in (0, inf)"),
    ({"land": 4.0, "eutrophication": True, "water": 400.0, "ghg": 2.0},
     "key eutrophication is True, expected a finite number in (0, inf)"),
    ({"land": 4.0, "eutrophication": 10.0, "water": 400.0}, "missing key ghg"),
    ({"land": 0, "eutrophication": 10.0, "water": 400.0, "ghg": 2.0},
     "key land is 0, expected a finite number in (0, inf)"),
], ids=["array", "string_value", "boolean_value", "missing_key", "zero_value"])
def test_impact_norms_must_be_an_object_of_numbers(tmp_path, norms, message):
    with pytest.raises(DataError) as e:
        impact_table(tmp_path, norms=norms)
    assert str(e.value) == f"{tmp_path / 'norms.json'}: {message}"


def test_env_missing_ingredient(tmp_path):
    f = tmp_path / "impact.csv"
    f.write_text(
        "ingredient_id,land_m2_per_kg,eutro_gPO4eq_per_kg,water_L_per_kg,ghg_kgCO2eq_per_kg\n"
        "bean_patty,4.0,10.0,400.0,2.0\n")
    with pytest.raises(DataError) as e:
        scoring.load_impact_table(f, VOCAB3)
    assert str(e.value) == f"{f}: impact table missing ingredients: ['lettuce', 'white_bun']"


def test_scorers_reject_vocabulary_mismatch(tmp_path, worksheet_table):
    wide = recipe([100.0, 20.0, 50.0, 10.0])  # four columns over a three-id vocabulary
    with pytest.raises(DataError, match="impact table vocabulary"):
        scoring.env_impact_scores(wide, impact_table(tmp_path))
    with pytest.raises(DataError, match="nutrient table vocabulary"):
        scoring.hei_totals(wide, worksheet_table)
    with pytest.raises(DataError, match="nutrient table vocabulary"):
        scoring.personalized_scores(wide, ADULT, worksheet_table)


def test_env_zero_mass_rejected(tmp_path):
    table = impact_table(tmp_path)
    with pytest.raises(DataError):
        env_score(recipe([0.0, 0.0, 0.0]), table)


# ---------------------------------------------------------------------------
# healthy eating index

def nutrient_csv_row(ingredient, **kw):
    defaults = {f: 0.0 for f in scoring.NUTRIENT_FIELDS}
    defaults.update(kw)
    return ingredient + "," + ",".join(str(defaults[f]) for f in scoring.NUTRIENT_FIELDS)


def write_nutrient_table(tmp_path, rows, vocab):
    f = tmp_path / "nutrients.csv"
    f.write_text("ingredient_id," + ",".join(scoring.NUTRIENT_FIELDS) + "\n"
                 + "\n".join(rows) + "\n")
    return scoring.load_nutrient_table(f, vocab)


@pytest.fixture
def worksheet_table(tmp_path):
    rows = [
        nutrient_csv_row("bean_patty", kcal_per_100g=150.0,
                         total_vegetables_cup_per_100g=0.5, greens_and_beans_cup_per_100g=0.5,
                         total_protein_foods_oz_per_100g=1.5, seafood_plant_proteins_oz_per_100g=1.5,
                         sodium_mg_per_100g=200.0, added_sugars_g_per_100g=0.5,
                         saturated_fat_g_per_100g=0.5, unsaturated_fat_g_per_100g=3.0,
                         protein_g_per_100g=8.0, carbohydrate_g_per_100g=20.0, fat_g_per_100g=4.0),
        nutrient_csv_row("lettuce", kcal_per_100g=15.0,
                         total_vegetables_cup_per_100g=0.6, greens_and_beans_cup_per_100g=0.6,
                         sodium_mg_per_100g=10.0, unsaturated_fat_g_per_100g=0.1,
                         protein_g_per_100g=1.2, carbohydrate_g_per_100g=2.9, fat_g_per_100g=0.2),
        nutrient_csv_row("white_bun", kcal_per_100g=280.0,
                         refined_grains_oz_per_100g=3.0, sodium_mg_per_100g=500.0,
                         added_sugars_g_per_100g=5.0, saturated_fat_g_per_100g=1.0,
                         unsaturated_fat_g_per_100g=2.0,
                         protein_g_per_100g=9.0, carbohydrate_g_per_100g=50.0, fat_g_per_100g=4.0),
    ]
    return write_nutrient_table(tmp_path, rows, VOCAB3)


def test_hei_worksheet_fixture(worksheet_table):
    # Hand-worked from the HEI-2015 worksheet for 120 g bean_patty,
    # 40 g lettuce, 70 g white_bun (382 kcal total):
    #   adequacy at max: total_veg 2.199 cup/1000kcal -> 5, greens 5,
    #     protein foods 4.712 oz -> 5, seafood/plant 5, fatty acid ratio
    #     5.04/1.3 = 3.877 -> 10
    #   adequacy at zero: fruits, whole fruits, whole grains, dairy -> 0
    #   moderation: refined grains 5.497 oz -> 0, added sugars 4.29% -> 10,
    #     sat fat 3.06% -> 10,
    #     sodium 594 mg / 382 kcal = 1.55497 g/1000 kcal
    #       -> 10 * (2.0 - 1.55497) / 0.9 = 4.944735
    r = recipe([120.0, 40.0, 70.0])
    total = hei_total(r, worksheet_table)
    components = hei_components(r, worksheet_table)
    assert abs(total - 54.944735311227458) < 0.01
    assert components["total_vegetables"] == 5.0
    assert components["refined_grains"] == 0.0
    assert components["fatty_acids"] == 10.0
    assert abs(components["sodium"] - 4.944735311227458) < 1e-9
    assert abs(sum(components.values()) - total) < 1e-12


def test_hei_saturated_profile_scores_100(tmp_path):
    vocab = IngredientVocabulary.from_ids(["superfood"])
    rows = [nutrient_csv_row("superfood", kcal_per_100g=100.0,
                             total_fruits_cup_per_100g=0.2, whole_fruits_cup_per_100g=0.1,
                             total_vegetables_cup_per_100g=0.3, greens_and_beans_cup_per_100g=0.1,
                             whole_grains_oz_per_100g=0.4, dairy_cup_per_100g=0.4,
                             total_protein_foods_oz_per_100g=0.8, seafood_plant_proteins_oz_per_100g=0.3,
                             sodium_mg_per_100g=50.0, saturated_fat_g_per_100g=0.5,
                             unsaturated_fat_g_per_100g=2.0)]
    table = write_nutrient_table(tmp_path, rows, vocab)
    assert hei_total(recipe([500.0]), table) == 100.0


def test_hei_pure_refined_grain_zero_adequacy(tmp_path):
    vocab = IngredientVocabulary.from_ids(["white_flour"])
    rows = [nutrient_csv_row("white_flour", kcal_per_100g=350.0,
                             refined_grains_oz_per_100g=4.0, sodium_mg_per_100g=800.0,
                             added_sugars_g_per_100g=10.0, saturated_fat_g_per_100g=5.0,
                             unsaturated_fat_g_per_100g=1.0)]
    table = write_nutrient_table(tmp_path, rows, vocab)
    components = hei_components(recipe([300.0]), table)
    adequacy = ["total_fruits", "whole_fruits", "total_vegetables", "greens_and_beans",
                "whole_grains", "dairy", "total_protein_foods", "seafood_plant_proteins"]
    for comp in adequacy:
        assert components[comp] == 0.0


def test_hei_scale_invariance(worksheet_table):
    r1 = recipe([120.0, 40.0, 70.0])
    for c in (0.25, 3.0, 17.0):
        r2 = recipe([120.0 * c, 40.0 * c, 70.0 * c])
        a = hei_total(r1, worksheet_table)
        b = hei_total(r2, worksheet_table)
        assert abs(a - b) < 1e-9


def test_hei_zero_energy_rejected(tmp_path):
    vocab = IngredientVocabulary.from_ids(["water"])
    table = write_nutrient_table(tmp_path, [nutrient_csv_row("water")], vocab)
    with pytest.raises(DataError):
        hei_total(recipe([100.0]), table)


def test_hei_total_bounded(worksheet_table):
    rng = np.random.default_rng(3)
    for _ in range(20):
        w = rng.uniform(0, 300, 3)
        if (w * [150, 15, 280]).sum() == 0:
            continue
        w[w < 1] = 0.0
        if w.sum() == 0:
            continue
        total = hei_total(recipe(w), worksheet_table)
        assert 0.0 <= total <= 100.0


def test_nutrient_table_rejects_inf_kcal(tmp_path):
    vocab = IngredientVocabulary.from_ids(["patty"])
    with pytest.raises(DataError, match=r"nutrients\.csv.*kcal_per_100g"):
        write_nutrient_table(tmp_path, [nutrient_csv_row("patty", kcal_per_100g="inf")], vocab)


def test_nutrient_table_names_file_ingredient_and_column_of_a_bad_cell(tmp_path):
    vocab = IngredientVocabulary.from_ids(["patty"])
    f = tmp_path / "nutrients.csv"
    with pytest.raises(DataError) as e:
        write_nutrient_table(tmp_path, [nutrient_csv_row("patty", sodium_mg_per_100g="abc")], vocab)
    assert str(e.value) == (f"{f}: column sodium_mg_per_100g of patty is 'abc', "
                            "expected a finite number in [0, inf)")


def test_nutrient_table_names_file_ingredient_and_column_of_a_negative_cell(tmp_path):
    vocab = IngredientVocabulary.from_ids(["bun", "patty"])
    f = tmp_path / "nutrients.csv"
    with pytest.raises(DataError) as e:
        write_nutrient_table(tmp_path, [nutrient_csv_row("bun"),
                                        nutrient_csv_row("patty", dairy_cup_per_100g=-0.5)], vocab)
    assert str(e.value) == (f"{f}: column dairy_cup_per_100g of patty is -0.5, "
                            "expected a finite number in [0, inf)")


def test_nutrient_table_missing_column_and_ingredient_name_the_file(tmp_path):
    with pytest.raises(DataError) as e:
        write_nutrient_table(tmp_path, [nutrient_csv_row("patty")],
                             IngredientVocabulary.from_ids(["bun", "patty"]))
    assert str(e.value) == f"{tmp_path / 'nutrients.csv'}: nutrient table missing ingredients: ['bun']"
    f = tmp_path / "short.csv"
    f.write_text("ingredient_id,kcal_per_100g\npatty,200\n")
    with pytest.raises(DataError, match=rf"short\.csv: nutrient table missing columns: \['added_sugars"):
        scoring.load_nutrient_table(f, IngredientVocabulary.from_ids(["patty"]))


def write_standards(tmp_path, edit):
    bundled = scoring.load_hei_standards()
    lines = ["component,curve,max_points,max_at,zero_at"]
    for std in bundled:
        row = {"component": std.component, "curve": std.curve, "max_points": std.max_points,
               "max_at": std.max_at, "zero_at": std.zero_at}
        if std.component == "sodium":
            row.update(edit)
        lines.append(",".join(str(row[k]) for k in lines[0].split(",")))
    f = tmp_path / "hei.csv"
    f.write_text("\n".join(lines) + "\n")
    return f


@pytest.mark.parametrize("edit, message", [
    ({"curve": "sideways"}, "column curve of sodium is 'sideways', expected increasing or decreasing"),
    ({"max_at": 2.0, "zero_at": 2.0}, "columns max_at and zero_at of sodium are equal"),
    ({"max_points": "nan"}, "column max_points of sodium is nan, expected a finite number"),
    ({"max_at": "abc"}, "column max_at of sodium is 'abc', expected a finite number"),
], ids=["unknown_curve", "flat_curve", "nan_points", "text_max_at"])
def test_hei_standards_reject_bad_rows(tmp_path, edit, message):
    f = write_standards(tmp_path, edit)
    with pytest.raises(DataError) as e:
        scoring.load_hei_standards(f)
    assert str(e.value) == f"{f}: line 12: {message}"
    assert len(scoring.load_hei_standards(write_standards(tmp_path, {}))) == 13


def test_hei_standards_reject_missing_column(tmp_path):
    f = write_standards(tmp_path, {})
    f.write_text(f.read_text().replace("component,curve,", "component,shape,", 1))
    with pytest.raises(DataError, match=r"hei\.csv: HEI standards table missing columns: \['curve'\]"):
        scoring.load_hei_standards(f)


@pytest.mark.parametrize("rename, message", [
    ("total_fruits", "line 7: component 'total_fruits' is repeated"),
    ("dairy_products", "line 7: component 'dairy_products' is not an HEI component"),
], ids=["repeated", "misspelt"])
def test_hei_standards_require_each_component_once(tmp_path, rename, message):
    f = write_standards(tmp_path, {})
    f.write_text(f.read_text().replace("\ndairy,", f"\n{rename},"))
    with pytest.raises(DataError) as e:
        scoring.load_hei_standards(f)
    assert str(e.value) == f"{f}: {message}"


def test_hei_standards_name_a_missing_component(tmp_path):
    f = write_standards(tmp_path, {})
    f.write_text("".join(line for line in f.read_text().splitlines(keepends=True)
                         if not line.startswith("dairy,")))
    with pytest.raises(DataError) as e:
        scoring.load_hei_standards(f)
    assert str(e.value) == f"{f}: HEI components ['dairy'] are missing"


def test_hei_standards_bundled_file():
    standards = scoring.load_hei_standards()
    assert len(standards) == 13
    assert sum(s.max_points for s in standards) == 100.0


# ---------------------------------------------------------------------------
# energy requirement

def test_energy_requirement_active_teen_male():
    # EER = 88.5 - 61.9*15 + 1.26*(26.7*80 + 903*1.80) + 25 = 3924.364
    profile = scoring.PersonProfile(age=15, sex="male", height_cm=180, weight_kg=80,
                                    activity="active")
    assert abs(scoring.energy_requirement(profile) - 3924.364) < 1e-9


def test_energy_requirement_moderate_senior_female():
    # EER = 354 - 6.91*70 + 1.12*(9.36*70 + 726*1.70) = 1986.428
    profile = scoring.PersonProfile(age=70, sex="female", height_cm=170, weight_kg=70,
                                    activity="moderate")
    assert abs(scoring.energy_requirement(profile) - 1986.428) < 1e-9


def test_energy_requirement_monotone_in_activity():
    for sex in ("male", "female"):
        for age in (10, 16, 30, 70):
            vals = [scoring.energy_requirement(
                scoring.PersonProfile(age=age, sex=sex, height_cm=170, weight_kg=70,
                                      activity=a)) for a in scoring.ACTIVITY_LEVELS]
            assert vals[0] <= vals[1] <= vals[2]


def test_energy_requirement_rejects_infants():
    profile = scoring.PersonProfile(age=0.5, sex="male", height_cm=70, weight_kg=8,
                                    activity="sedentary")
    with pytest.raises(DataError):
        scoring.energy_requirement(profile)


# ---------------------------------------------------------------------------
# personalized nutrition score

ADULT = scoring.PersonProfile(age=30, sex="male", height_cm=175, weight_kg=75,
                              activity="moderate")
TEEN = scoring.PersonProfile(age=15, sex="male", height_cm=180, weight_kg=80,
                             activity="active")


def test_personalized_all_in_range_scores_100(tmp_path):
    vocab = IngredientVocabulary.from_ids(["balanced"])
    # protein 22.5% (AMDR midpoint), carb 55%, fat 27.5%, sugars 5%,
    # sat fat 5%, sodium well under the pro-rated WHO limit
    rows = [nutrient_csv_row("balanced", kcal_per_100g=100.0,
                             protein_g_per_100g=5.625, carbohydrate_g_per_100g=13.75,
                             fat_g_per_100g=27.5 / 9.0, sodium_mg_per_100g=30.0,
                             added_sugars_g_per_100g=1.25, saturated_fat_g_per_100g=5.0 / 9.0)]
    table = write_nutrient_table(tmp_path, rows, vocab)
    assert personalized(recipe([200.0]), ADULT, table) == 100.0


def test_personalized_all_double_violations_score_0(tmp_path):
    vocab = IngredientVocabulary.from_ids(["awful"])
    # protein 2.5% (< lo/2), carb 140% (> 2*65), fat 70% (> 2*35),
    # sugars 20%, sat fat 20%, sodium far over twice the limit
    rows = [nutrient_csv_row("awful", kcal_per_100g=100.0,
                             protein_g_per_100g=0.625, carbohydrate_g_per_100g=35.0,
                             fat_g_per_100g=70.0 / 9.0, sodium_mg_per_100g=4000.0,
                             added_sugars_g_per_100g=5.0, saturated_fat_g_per_100g=20.0 / 9.0)]
    table = write_nutrient_table(tmp_path, rows, vocab)
    assert personalized(recipe([200.0]), ADULT, table) == 0.0


def test_personalized_matches_independent_calculation(worksheet_table):
    # independent straight-line evaluation of the same rule for the teen
    r = recipe([120.0, 40.0, 70.0])
    got = personalized(r, TEEN, worksheet_table)

    energy = 150 * 1.2 + 15 * 0.4 + 280 * 0.7            # 382 kcal
    protein = 8 * 1.2 + 1.2 * 0.4 + 9 * 0.7              # g
    carb = 20 * 1.2 + 2.9 * 0.4 + 50 * 0.7
    fat = 4 * 1.2 + 0.2 * 0.4 + 4 * 0.7
    sodium = 200 * 1.2 + 10 * 0.4 + 500 * 0.7            # mg
    sugars = 0.5 * 1.2 + 5.0 * 0.7
    satfat = 0.5 * 1.2 + 1.0 * 0.7
    eer = 88.5 - 61.9 * 15 + 1.26 * (26.7 * 80 + 903 * 1.80) + 25
    scale = (eer / 3) / energy

    def sub(value, lo, hi):
        if value > hi:
            return 100.0 * max(0.0, (2 * hi - value) / hi)
        if lo > 0 and value < lo:
            return 100.0 * max(0.0, 2 * value / lo - 1)
        return 100.0

    # teen AMDR: protein 10-30, carb 45-65, fat 25-35 (percent of energy)
    expected = np.mean([
        sub(protein * 4 / energy * 100, 10, 30),
        sub(carb * 4 / energy * 100, 45, 65),
        sub(fat * 9 / energy * 100, 25, 35),
        sub(sodium * scale, 0, 2000 / 3),
        sub(sugars * 4 / energy * 100, 0, 10),
        sub(satfat * 9 / energy * 100, 0, 10),
    ])
    assert abs(got - expected) < 1e-9


def test_personalized_monotone_beyond_limit(tmp_path):
    vocab = IngredientVocabulary.from_ids(["salty"])
    scores = []
    for sodium in (500.0, 1000.0, 2000.0, 4000.0):
        rows = [nutrient_csv_row("salty", kcal_per_100g=100.0,
                                 protein_g_per_100g=5.625, carbohydrate_g_per_100g=13.75,
                                 fat_g_per_100g=27.5 / 9.0, sodium_mg_per_100g=sodium,
                                 added_sugars_g_per_100g=1.25,
                                 saturated_fat_g_per_100g=5.0 / 9.0)]
        table = write_nutrient_table(tmp_path, rows, vocab)
        scores.append(personalized(recipe([200.0]), ADULT, table))
    assert all(a >= b for a, b in zip(scores, scores[1:]))
    assert 0.0 <= min(scores) and max(scores) <= 100.0


def test_personalized_zero_energy_rejected(tmp_path):
    vocab = IngredientVocabulary.from_ids(["water"])
    table = write_nutrient_table(tmp_path, [nutrient_csv_row("water")], vocab)
    with pytest.raises(DataError):
        personalized(recipe([100.0]), ADULT, table)
