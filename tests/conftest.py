import pytest

from selfaffine import validate_pair


@pytest.fixture
def doubling_pair():
    """(2, {0,1}): the unit-interval tile."""
    return validate_pair([[2.0]], [[0.0], [1.0]])


@pytest.fixture
def negative_doubling_pair():
    """(-2, {0,1}): tiles [-2/3, 1/3], origin interior."""
    return validate_pair([[-2.0]], [[0.0], [1.0]])


@pytest.fixture
def collision_pair():
    """(4, {0,1,2,8}): 8 = 8 + 4*0 = 0 + 4*2 collides at level 2."""
    return validate_pair([[4.0]], [[0.0], [1.0], [2.0], [8.0]])


@pytest.fixture
def cantor_pair_32():
    """(3, {0,2}): attractor is the middle-thirds Cantor set on [0,1]."""
    return validate_pair([[3.0]], [[0.0], [2.0]])


@pytest.fixture
def overfull_pair():
    """(3/2, {0,1}): two digits against determinant 1.5."""
    return validate_pair([[1.5]], [[0.0], [1.0]])


@pytest.fixture
def twin_dragon_pair():
    """Planar similarity with ratio sqrt(2) and two digits."""
    return validate_pair([[1.0, -1.0], [1.0, 1.0]], [[0.0, 0.0], [1.0, 0.0]])


@pytest.fixture
def tile_work(monkeypatch):
    """``watch(module)`` records each tile search that ``module`` runs.

    Each record is [work, cap, finished]: the tile bounds and leaf cells
    the search evaluated, the cap it was given, and whether it finished
    rather than raising ``BudgetExceeded``.
    """
    def watch(module):
        runs = []
        search = module._tile_search

        def recording(n, drop, leaves, cap, kernel):
            run = [0, cap, False]
            runs.append(run)

            def counted_drop(a0, a1, b0, b1):
                run[0] += len(a0)
                return drop(a0, a1, b0, b1)

            def counted_leaves(a0, a1, b0, b1):
                run[0] += int(((a1 - a0) * (b1 - b0)).sum())
                return leaves(a0, a1, b0, b1)

            search(n, counted_drop, counted_leaves, cap, kernel)
            run[2] = True

        monkeypatch.setattr(module, "_tile_search", recording)
        return runs

    return watch
