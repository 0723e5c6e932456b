import numpy as np
import pytest

from scalekit.metric import ball_cover, lebesgue_number, mesh, sup_diameter
from scalekit.model import InstanceError, Space, builder_grid, builder_line
from scalekit.scales import Cover, refines, star_family
from test_matrix_oracles import distance_candidates

LINE20 = builder_line(20, 1.0)


def interval(space, lo, hi):
    vals = space.values()
    return frozenset(np.flatnonzero((vals >= lo) & (vals <= hi)).tolist())


def three_cover():
    return Cover(LINE20, (interval(LINE20, 0, 10), interval(LINE20, 5, 15),
                          interval(LINE20, 10, 20)))


# slow reference versions: scan every candidate instead of early-exiting

def oracle_lebesgue(cover):
    space = cover.space
    cands = distance_candidates(space)

    def passes(lam):
        b = ball_cover(space, lam)
        return refines(star_family(b, b), cover)

    if not cands or passes(cands[-1] * 2.0 + 1.0):
        return float("inf")
    passing = [lam for lam in cands if passes(lam)]
    return max(passing) if passing else 0.0


def oracle_mesh(cover):
    space = cover.space
    stars = star_family(cover, cover)
    cands = distance_candidates(space)

    def passes(m):
        return refines(stars, ball_cover(space, m))

    if not cands:
        return 0.0
    if not passes(cands[-1] * 2.0 + 1.0):
        return float("inf")
    failing = [m for m in cands if not passes(m)]
    return max(failing) if failing else 0.0


def test_distance_candidates_contains_midpoints():
    cands = distance_candidates(builder_line(3, 1.0))
    assert 1.0 in cands and 2.0 in cands and 3.0 in cands
    assert 1.5 in cands and 2.5 in cands
    assert cands == sorted(cands)


def test_lebesgue_frozen():
    assert lebesgue_number(three_cover()) == 2.0


def test_mesh_frozen():
    assert mesh(three_cover()) == 10.0


def test_mesh_whole_space():
    whole = Cover(LINE20, (interval(LINE20, 0, 20),))
    assert mesh(whole) == 10.0


def test_singleton_cover_frozen():
    singles = Cover(LINE20, tuple(frozenset({i}) for i in range(21)))
    assert lebesgue_number(singles) == 1.0
    assert mesh(singles) == 0.0


def test_lebesgue_matches_oracle():
    space = builder_line(8, 1.0)
    covers = [
        Cover(space, (interval(space, 0, 4), interval(space, 3, 8))),
        Cover(space, (interval(space, 0, 2), interval(space, 2, 5),
                      interval(space, 4, 8))),
        Cover(space, tuple(frozenset({i}) for i in range(9))),
        Cover(space, (interval(space, 0, 8),)),
    ]
    for u in covers:
        assert lebesgue_number(u) == oracle_lebesgue(u)
        assert mesh(u) == oracle_mesh(u)


def test_lebesgue_mesh_oracle_on_grid():
    g = builder_grid(4)
    vals = np.array(g.coords, dtype=float)
    left = frozenset(np.flatnonzero(vals[:, 0] <= 2).tolist())
    right = frozenset(np.flatnonzero(vals[:, 0] >= 1).tolist())
    u = Cover(g, (left, right))
    assert lebesgue_number(u) == oracle_lebesgue(u)
    assert mesh(u) == oracle_mesh(u)


def test_lebesgue_needs_full_cover():
    with pytest.raises(InstanceError):
        lebesgue_number(Cover(LINE20, (interval(LINE20, 0, 5),)))


def test_lebesgue_at_most_mesh_on_catalogue():
    space = builder_line(12, 1.0)
    catalogue = [
        Cover(space, (interval(space, 0, 6), interval(space, 4, 12))),
        Cover(space, (interval(space, 0, 3), interval(space, 3, 6),
                      interval(space, 6, 9), interval(space, 9, 12))),
        Cover(space, tuple(frozenset({i}) for i in range(13))),
        ball_cover(space, 2.0),
    ]
    for u in catalogue:
        assert lebesgue_number(u) <= mesh(u) or mesh(u) == 0.0


def test_mesh_bracketed_by_sup_diameter():
    # absorbing stars costs at least half and at most triple the widest element
    space = builder_line(16, 1.0)
    covers = [
        Cover(space, (interval(space, 0, 8), interval(space, 6, 16))),
        ball_cover(space, 3.0),
        Cover(space, (interval(space, 0, 4), interval(space, 4, 8),
                      interval(space, 8, 12), interval(space, 12, 16))),
    ]
    for u in covers:
        d = sup_diameter(u)
        m = mesh(u)
        assert d / 2.0 <= m <= 3.0 * d


def test_ball_cover_one_element_per_point():
    u = ball_cover(LINE20, 2.5)
    assert len(u) <= LINE20.n
    assert u.is_scale()


def test_lebesgue_monotone_under_coarsening():
    # a coarser cover absorbs at least the same ball scale
    space = builder_line(10, 1.0)
    fine = Cover(space, (interval(space, 0, 5), interval(space, 4, 10)))
    coarse = Cover(space, (interval(space, 0, 7), interval(space, 3, 10)))
    assert refines(fine, coarse)
    assert lebesgue_number(fine) <= lebesgue_number(coarse)


def test_mesh_without_positive_finite_distances_is_zero():
    inf = float("inf")
    for d in ([[0.0, 0.0], [0.0, 0.0]], [[0.0, inf], [inf, 0.0]]):
        space = Space(["a", "b"], metric=d)
        assert mesh(Cover(space, [[0], [1]])) == 0.0
    with pytest.raises(InstanceError, match="no metric"):
        mesh(Cover(Space(["a", "b"]), [[0, 1]]))


def test_lebesgue_scan_memory_stays_below_the_distance_table():
    import tracemalloc
    space = builder_line(2000, 1.0)
    blocks = Cover(space, [range(k, min(k + 5, space.n)) for k in range(0, space.n, 5)])
    tracemalloc.start()
    try:
        got = lebesgue_number(blocks)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == 1.0
    # the candidate list, an np.unique over the 30.5 MB table, peaked at
    # 38 MB here; the scan holds a few n x n masks
    assert peak < 24 * 2 ** 20
