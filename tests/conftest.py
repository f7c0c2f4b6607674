import pytest

from symfusion import tensorop


@pytest.fixture
def fresh_units():
    """An empty cache of named unit operators, emptied again afterwards, so
    a perturbed or counted build reaches this test's comparisons and no
    other test's."""
    tensorop.unit_move.cache_clear()
    yield
    tensorop.unit_move.cache_clear()
