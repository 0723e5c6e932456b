"""Stars, refinement and entourage calculus on a whole product grid, from
box ends.

A grid that holds each tuple of its axes' distinct coordinates once is the
product of its axes, each a line of those coordinates.  Ball covers,
metric entourages, covers read from point lists that are boxes, and what
the run calculus makes of them have rows that are boxes (a run of each
axis line), and ``scales``, ``entourages`` and ``metric`` decide from the
boxes' ends, axis by axis.  The relation kernel stays the oracle: every
box path must give the relation, or the verdict, that the kernel gives on
the same point lists, and a family that is not a product, a v that does
not cover the space, a right factor that is not a band, a grid missing a
point and a grid holding a point twice must take the kernel.  The grids
have unequal axes, one-point axes, negative and non-integer coordinates,
and are loaded in no order.
"""
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scalekit import model
from scalekit.entourages import (Entourage, check_coarse_axioms, check_uniform_axioms, compose,
                                 invert, metric_entourage)
from scalekit.metric import (_coordinate_mesh, ball_cover, lebesgue_number, mesh,
                             metric_ls_base, metric_ss_base, sup_diameter)
from scalekit.model import (BoolRows, RunRows, Space, bool_covered, bool_product, builder_grid,
                            product_words)
from scalekit.scales import Cover, check_ls_base, check_ss_base, refines, star_family

SEEDED = settings(deadline=None, derandomize=True, max_examples=60)


def grid_of(coords) -> Space:
    return Space(["p%d" % k for k in range(len(coords))], metric_kind="grid",
                 coords=[tuple(c) for c in coords])


@st.composite
def grids(draw):
    """A whole product grid: per axis 1 to 7 distinct values, negative and
    at times not integers, loaded in a random order; and each axis's
    values, ascending."""
    axes = []
    for _ in range(2):
        size = draw(st.integers(1, 7))
        ints = draw(st.lists(st.integers(-8, 8), min_size=size, max_size=size, unique=True))
        h = draw(st.sampled_from([1.0, 0.5, 0.1, 3.0]))
        axes.append(sorted(v * h for v in ints))
    tuples = draw(st.permutations(list(itertools.product(*axes))))
    return grid_of(tuples), axes


def positions(space, axes):
    """Each point's index among its axis's sorted values, per axis."""
    coords = np.asarray(space.coords, dtype=float)
    return [np.searchsorted(values, coords[:, a]) for a, values in enumerate(axes)]


def box(space, axes, runs) -> list:
    """The points of a box given as one (lo, hi) run per axis."""
    at = positions(space, axes)
    inside = np.ones(space.n, dtype=bool)
    for place, (lo, hi) in zip(at, runs):
        inside &= (place >= lo) & (place < hi)
    return np.flatnonzero(inside).tolist()


def table_twin(space) -> Space:
    """The same points with the grid's distances as a table, where every
    check takes the relation kernel."""
    return Space(space.points, metric=space.d.table())


def kernel_star(u: Cover, v: Cover) -> BoolRows:
    return BoolRows.of_words(product_words(u.rows, v.neighbours) | u.rows.words, u.space.n)


def same_forms(rows: BoolRows) -> bool:
    """Whether a relation's packed words are those of its point lists."""
    return np.array_equal(rows.words, BoolRows(rows.columns, rows.starts, rows.n).words)


@st.composite
def grid_covers(draw):
    """A grid and covers on it, read from point lists: the product of
    random run families per axis (at times spanning both axes, and at times
    with every singleton); an L of three blocks, which is boxes but no
    product; random boxes, at times not covering the space; a cover with an
    element that may not be a box; and a ball cover."""
    space, axes = draw(grids())
    sizes = [len(values) for values in axes]

    def runs(size):
        a = draw(st.integers(0, size - 1))
        return a, draw(st.integers(a + 1, size))

    def family(size, spanning):
        out = [runs(size) for _ in range(draw(st.integers(1, 3)))]
        if spanning:
            out += [(k, k + 1) for k in range(size)]
        return out

    def product(spanning):
        return Cover(space, [box(space, axes, pair) for pair in itertools.product(
            *(family(size, spanning) for size in sizes))])

    covers = [product(True), product(draw(st.booleans())),
              Cover(space, [box(space, axes, [runs(size) for size in sizes])
                            for _ in range(draw(st.integers(1, 4)))])]
    if min(sizes) > 1:
        cut = [draw(st.integers(1, size - 1)) for size in sizes]
        low, high = [(0, c) for c in cut], [(c, size) for c, size in zip(cut, sizes)]
        covers.append(Cover(space, [box(space, axes, (low[0], low[1])),
                                    box(space, axes, (low[0], high[1])),
                                    box(space, axes, (high[0], low[1]))]))
    covers.append(Cover(space, [box(space, axes, [runs(size) for size in sizes]),
                                draw(st.lists(st.integers(0, space.n - 1), min_size=1,
                                              max_size=space.n))]))
    covers.append(ball_cover(space, draw(st.sampled_from([0.05, 0.5, 1.0, 1.5, 3.0, 7.0]))))
    return space, covers


@SEEDED
@given(grid_covers())
def test_stars_refinements_and_spans_match_the_kernel(case):
    space, covers = case
    assert space.d.product is not None
    for u in covers:
        assert u.is_scale() == bool(np.bincount(u.rows.columns, minlength=space.n).all())
        assert same_forms(u.rows)
        for v in covers:
            star = star_family(u, v)
            assert star.rows == kernel_star(u, v) and same_forms(star.rows)
            boxes = (u.runs is not None and v.product_runs is not None and v.is_scale())
            assert isinstance(star.rows, RunRows) == boxes
            assert refines(u, v) == bool_covered(u.rows, v.holders)
            for w in covers:
                assert refines(star, w) == bool_covered(star.rows, w.holders)


@SEEDED
@given(grid_covers())
def test_grid_checks_match_the_table_twin(case):
    space, covers = case
    twin = table_twin(space)
    twins = [Cover(twin, u.elements) for u in covers]
    for check in (check_ls_base, check_ss_base):
        assert check(covers).to_payload() == check(twins).to_payload()
    for u, t in zip(covers, twins):
        assert sup_diameter(u) == sup_diameter(t)
        if u.is_scale():
            assert mesh(u) == mesh(t)
            assert lebesgue_number(u) == lebesgue_number(t)


def test_an_l_of_blocks_is_boxes_but_no_product():
    space = builder_grid(4)
    # points are (i, j) at 4 i + j: blocks [0, 2) x [0, 2), [0, 2) x [2, 4)
    # and [2, 4) x [0, 2), without [2, 4) x [2, 4)
    ell = Cover(space, [[0, 1, 4, 5], [2, 3, 6, 7], [8, 9, 12, 13]])
    assert ell.runs is not None and ell.product_runs is None
    assert not ell.is_scale()
    whole = Cover(space, [range(16)])
    assert refines(ell, whole)
    star = star_family(whole, ell)
    assert not isinstance(star.rows, RunRows) and star.rows == kernel_star(whole, ell)
    # the three blocks are a product of their runs on no axis, and st(U, v)
    # for U = [1, 3) x [1, 3) is U with the three blocks, which is no box
    middle = Cover(space, [[5, 6, 9, 10]])
    assert sorted(star_family(middle, ell).elements[0]) == [
        0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 13]


def test_stars_against_a_v_that_misses_points_take_the_kernel():
    space = builder_grid(4)
    # a product of runs [0, 2) x [0, 2) and [0, 2) x [3, 4): no point (i, 2)
    v = Cover(space, [[0, 1, 4, 5], [3, 7]])
    u = Cover(space, [[5, 6]])
    assert v.product_runs is not None and not v.is_scale()
    star = star_family(u, v)
    assert not isinstance(star.rows, RunRows)
    assert sorted(star.elements[0]) == [0, 1, 4, 5, 6]


# -- entourages ----------------------------------------------------------------

@st.composite
def grid_entourages(draw):
    """A grid with metric entourages, open and closed, at radii that often
    equal one of its distances and at other radii (open at 0 gives empty
    rows), with their compositions and inverses; and relations of random
    boxes, which may be empty, move left or miss their own point."""
    space, axes = draw(grids())
    gaps = sorted({abs(a - b) for values in axes for a in values for b in values})
    radius = st.sampled_from(gaps + [0.0]) | st.floats(0.0, 20.0)
    ents = [metric_entourage(space, draw(radius), draw(st.booleans()))
            for _ in range(draw(st.integers(1, 3)))]
    if draw(st.booleans()):
        ents.append(metric_entourage(space, 0.0, closed=False))
    offsets = space.d.product[1]
    for _ in range(draw(st.integers(0, 2))):
        ends = []
        for a, values in enumerate(axes):
            size = len(values)
            lo = np.array(draw(st.lists(st.integers(0, size), min_size=space.n,
                                        max_size=space.n)))
            width = np.array(draw(st.lists(st.integers(0, size), min_size=space.n,
                                           max_size=space.n)))
            ends.append((lo + offsets[a], np.minimum(lo + width, size) + offsets[a]))
        ents.append(Entourage(space, RunRows(space.d, *map(np.array, zip(*ends)))))
    ents += [compose(e, f) for e in ents[:2] for f in ents[:2]] + [invert(e) for e in ents[:2]]
    return space, ents


def diagonal_count(e: Entourage) -> int:
    return int(np.count_nonzero(e.rows.columns == e.rows.owners()))


@SEEDED
@given(grid_entourages())
def test_entourage_calculus_matches_the_kernel(case):
    space, ents = case
    for e in ents:
        assert e.contains_diagonal() == (diagonal_count(e) == space.n)
        assert e.is_symmetric() == (e.rows == e.rows.transpose())
        assert same_forms(e.rows)
        inverse = invert(e)
        assert inverse.rows == e.rows.transpose()
        assert isinstance(inverse.rows, RunRows) == (e._ordered is not None)
        for f in ents:
            assert e.issubset(f) == e.rows.issubset(f.rows)
            composed = compose(e, f)
            assert composed.rows == bool_product(e.rows, f.rows)
            band = f.runs is not None and f._ordered is not None and f.contains_diagonal()
            assert isinstance(composed.rows, RunRows) == (e.runs is not None and band)


@SEEDED
@given(grid_entourages())
def test_entourage_axioms_match_the_table_twin(case):
    space, ents = case
    twin = table_twin(space)
    twins = [Entourage(twin, e.rows.take(np.arange(space.n))) for e in ents]
    for check in (check_coarse_axioms, check_uniform_axioms):
        assert check(ents).to_payload() == check(twins).to_payload()


def test_metric_entourages_and_balls_are_boxes():
    # 3 x 7, loaded in product order of unsorted values
    space = grid_of(list(itertools.product([0.5, -1.0, 2.0],
                                           [3.0, 0.0, 1.0, 7.0, -2.0, 4.0, 5.0])))
    e = metric_entourage(space, 1.5)
    assert isinstance(e.rows, RunRows) and e._band is not None and e.is_symmetric()
    assert compose(e, e).rows == bool_product(e.rows, e.rows)
    assert isinstance(compose(e, e).rows, RunRows)
    empty = metric_entourage(space, 0.0, closed=False)
    assert empty.rows.nnz == 0 and empty._band is None
    assert isinstance(compose(empty, e).rows, RunRows) and compose(empty, e).rows.nnz == 0
    assert not isinstance(compose(e, empty).rows, RunRows)
    assert isinstance(ball_cover(space, 2.0).rows, RunRows)


# -- spaces that are no product take the kernel -------------------------------

def test_rows_that_hang_on_another_axis_are_no_band():
    space = builder_grid(2)
    # points (0, 0), (0, 1), (1, 0), (1, 1); on axis 0 (positions 0 and 1)
    # the row of (0, 0) holds [0, 1) and that of (0, 1), at the same
    # position, [0, 2): no end moves left once they are listed by position
    lo = np.array([[0, 0, 1, 1], [2, 2, 2, 2]])
    hi = np.array([[1, 2, 2, 2], [4, 4, 4, 4]])
    f = Entourage(space, RunRows(space.d, lo, hi))
    assert f.runs is not None and f._ordered is None and f._band is None
    assert invert(f).rows == f.rows.transpose()
    assert not isinstance(invert(f).rows, RunRows)
    e = metric_entourage(space, 1.0)
    assert compose(e, f).rows == bool_product(e.rows, f.rows)
    assert not isinstance(compose(e, f).rows, RunRows)
    assert f.is_symmetric() == (f.rows == f.rows.transpose())


def test_partial_and_repeated_grids_take_the_kernel():
    full = list(itertools.product(range(3), range(4)))
    # one point missing, one held twice, and one held twice in place of
    # another, where the axis sizes still multiply to the point count
    for coords in (full[:5] + full[6:], full + [(1, 1)], full[:11] + [(1, 1)]):
        space = Space(["p%d" % k for k in range(len(coords))], metric_kind="grid",
                      coords=coords)
        assert space.d.product is None
        twin = table_twin(space)
        covers = [ball_cover(space, r) for r in (0.5, 1.5, 2.5)]
        assert not any(isinstance(c.rows, RunRows) for c in covers)
        assert all(c.runs is None for c in covers)
        blocks = Cover(space, [range(4), range(4, space.n)])
        assert blocks.runs is None and blocks.rows.line is None
        e = metric_entourage(space, 1.0)
        assert not isinstance(e.rows, RunRows) and e.runs is None
        assert not isinstance(compose(e, e).rows, RunRows)
        twins = [Cover(twin, c.elements) for c in covers]
        assert check_ls_base(covers).to_payload() == check_ls_base(twins).to_payload()
        for cover in covers + [blocks]:
            t = Cover(twin, cover.elements)
            assert (mesh(cover), lebesgue_number(cover)) == (mesh(t), lebesgue_number(t))


@SEEDED
@given(grids(), st.integers(0, 20))
def test_distances_above_come_from_the_axes(case, k):
    space, _ = case
    table = space.d.table()
    for lam in (0.0, k * 0.25, k * 0.1):
        want = table[(table > lam) & np.isfinite(table)].min(initial=np.inf)
        assert space.d.above(lam) == want


def test_a_one_point_axis_is_a_line():
    values = (3.0, -1.0, 0.5, 2.0)
    space = grid_of([(2.5, v) for v in values])
    line = Space(space.points, metric_kind="line", coords=values)
    assert space.d.product is not None and len(space.d.product[0]) == 2
    for radius in (0.5, 1.5, 3.75):
        cover, on_line = ball_cover(space, radius), ball_cover(line, radius)
        assert isinstance(cover.rows, RunRows) and cover.rows == on_line.rows
        assert (lebesgue_number(cover), mesh(cover)) == (lebesgue_number(on_line),
                                                         mesh(on_line))


# -- the mesh's per-axis search -------------------------------------------------

@SEEDED
@given(st.lists(st.sampled_from([-1e308, -3e307, -1.5, -0.1, 0.0, 1e-300, 0.1, 0.3, 0.7,
                                 1.0, 2.0 ** 52, 2.0 ** 53 + 2, 9e307]),
                min_size=1, max_size=12),
       st.lists(st.tuples(st.integers(0, 11), st.integers(0, 11)), min_size=1, max_size=6))
def test_the_mesh_search_matches_the_scan(values, pairs):
    # the best center of each extent, found by a search along the sorted
    # coordinates, against the scan over every center; coordinates crowd
    # and gaps overflow
    space = Space(["p%d" % k for k in range(len(values))], metric_kind="line", coords=values)
    n = space.n
    cover = Cover(space, [sorted({a % n, b % n}) for a, b in pairs] + [[k] for k in range(n)])
    with np.errstate(over="ignore"):
        got = mesh(cover)
        assert got == mesh(Cover(table_twin(space), cover.elements))
        if space.d.positive:
            assert got == _coordinate_mesh(space.d, star_family(cover, cover))


def test_grid_meshes_match_the_scan(monkeypatch):
    coords = list(itertools.product([0.1, 0.3, 0.7, 2.0], [-1.0, 0.25, 5.0]))
    elements = [[0, 1, 3], [2, 5, 11], [6], [7, 8], [9, 10], [4]]
    got = mesh(Cover(grid_of(coords), elements))
    # the same grid taken as no product: every center against every star
    monkeypatch.setattr(model.Distances, "product", None)
    space = grid_of(coords)
    assert got == mesh(Cover(space, elements)) == mesh(Cover(table_twin(space), elements))


# -- the sweep battery on a grid takes no kernel product -------------------------

def test_grid_relation_checks_take_no_kernel_product(monkeypatch):
    space = builder_grid(12)
    blocks: dict = {}
    for i, (a, b) in enumerate(space.coords):
        blocks.setdefault((a // 5, b // 5), []).append(i)
    cover = Cover(space, [blocks[k] for k in sorted(blocks)])

    def refuse(*args):
        raise AssertionError("the relation kernel took a product")

    monkeypatch.setattr(model, "_chunks", refuse)
    assert check_ls_base(metric_ls_base(space, (1.0, 3.0, 9.0, 27.0))).status
    assert check_ss_base(metric_ss_base(space, (3.0, 1.0, 1.0 / 3))).status
    assert mesh(cover) == 2.0 and lebesgue_number(cover) == 1.0
    assert check_coarse_axioms([metric_entourage(space, r) for r in (1.0, 3.0, 9.0, 27.0)]).status
    with pytest.raises(AssertionError, match="kernel"):
        refines(Cover(space, [[0, 13]]), cover)
