import multiprocessing

import pytest


@pytest.fixture(autouse=True)
def no_child_outlives_its_test():
    """Every client shard a test forks is joined before the test ends."""
    yield
    assert multiprocessing.active_children() == []
