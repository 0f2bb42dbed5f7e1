import os

import pytest


@pytest.fixture(autouse=True)
def no_child_process_left():
    """Every test reaps the processes it starts (bellman_gap forks its outer search)."""
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
