import os

import pytest


@pytest.fixture(autouse=True)
def no_child_process_is_left():
    """Each test reaps every process it starts: map_windows' sampling
    workers, fit's training producer and any subprocess."""
    yield
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    pytest.fail(f"the test left a child process ({f'pid {pid}, now reaped' if pid else 'running'})")
