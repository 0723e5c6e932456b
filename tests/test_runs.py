"""Stars, refinement and entourage calculus on a line, from run ends.

On a line, ball covers, metric entourages, translates of an interval and
what the run calculus makes of them have rows that are runs of the sorted
coordinates, and ``scales``, ``entourages``, ``metric`` and ``translation``
decide from the runs' ends.  The relation kernel stays the oracle: every
run path must give the relation, or the verdict, that the kernel gives on
the same point lists, and an operand that is not a run, or a right factor
that is not a band, must take the kernel.  The lines tie, go negative and
are loaded in no order.
"""
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from scalekit.entourages import (Entourage, check_coarse_axioms, check_uniform_axioms, compose,
                                 invert, metric_entourage)
from scalekit.metric import ball_cover, lebesgue_number, mesh, sup_diameter
from scalekit.model import (BoolRows, RunRows, Space, bool_covered, bool_product,
                            product_words)
from scalekit.scales import Cover, check_ls_base, check_ss_base, refines, star_family
from scalekit.translation import check_translation_ls, translation_scale, window_group

SEEDED = settings(deadline=None, derandomize=True, max_examples=60)


@st.composite
def lines(draw, max_points=24):
    """A line of tied, negative and unsorted coordinates."""
    n = draw(st.integers(1, max_points))
    ints = draw(st.lists(st.integers(-6, 6), min_size=n, max_size=n))
    h = draw(st.sampled_from([1.0, 0.5, 0.1, 3.0]))
    return Space(["p%d" % k for k in range(n)], metric_kind="line",
                 coords=[v * h for v in ints])


def sorted_order(space) -> list:
    return np.argsort(space.values(), kind="stable").tolist()


def is_run(space, element) -> bool:
    rank = np.argsort(sorted_order(space))
    at = np.sort(rank[sorted(element)])
    return bool(at[-1] - at[0] + 1 == len(at))


def table_twin(space) -> Space:
    """The same points with the line's distances as a table, where every
    check takes the relation kernel."""
    return Space(space.points, metric=space.d.table())


@st.composite
def line_covers(draw):
    """A line and four covers on it: runs read from point lists (with
    repeats, and at times every singleton), a ball cover, and covers with an
    element that may not be a run."""
    space = draw(lines())
    order, n = sorted_order(space), space.n

    def run():
        a = draw(st.integers(0, n - 1))
        return order[a:draw(st.integers(a + 1, n))]

    def cover(runs_only: bool) -> Cover:
        elements = [run() for _ in range(draw(st.integers(1, 5)))]
        if draw(st.booleans()):
            elements.append(elements[0])
        if not runs_only:
            elements.append(draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n)))
        if draw(st.booleans()):
            elements += [[p] for p in range(n)]
        return Cover(space, elements)

    radius = draw(st.sampled_from([0.05, 0.5, 1.0, 1.5, 3.0, 7.0]))
    return space, [cover(True), cover(draw(st.booleans())), ball_cover(space, radius),
                   cover(False)]


def same_forms(rows: BoolRows) -> bool:
    """Whether a relation's packed words are those of its point lists."""
    return np.array_equal(rows.words, BoolRows(rows.columns, rows.starts, rows.n).words)


def kernel_star(u: Cover, v: Cover) -> BoolRows:
    return BoolRows.of_words(product_words(u.rows, v.neighbours) | u.rows.words, u.space.n)


@SEEDED
@given(line_covers())
def test_stars_refinements_and_spans_match_the_kernel(case):
    space, covers = case
    for u in covers:
        assert (u.runs is not None) == all(is_run(space, e) for e in u.elements)
        assert u.is_scale() == bool(np.bincount(u.rows.columns, minlength=space.n).all())
        for v in covers:
            star = star_family(u, v)
            assert star.rows == kernel_star(u, v) and same_forms(star.rows)
            assert isinstance(star.rows, RunRows) == (u.runs is not None
                                                      and v.runs is not None)
            assert refines(u, v) == bool_covered(u.rows, v.holders)
            for w in covers:
                assert refines(star, w) == bool_covered(star.rows, w.holders)


@SEEDED
@given(line_covers())
def test_line_checks_match_the_table_twin(case):
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


def test_a_cover_from_point_lists_finds_its_runs_once():
    space = Space(list("abcde"), metric_kind="line", coords=[2.0, 0.0, 2.0, 1.0, -1.0])
    # sorted order e, b, d, a, c: {b, d} and {a, c} are runs, {b, a} is not
    runs = Cover(space, [[1, 3], [0, 2], [4]])
    assert runs.rows.line is None
    lo, hi = runs.runs  # one row of ends per axis, and a line has one
    assert lo.tolist() == [[1, 3, 0]] and hi.tolist() == [[3, 5, 1]]
    assert runs.rows.line is space.d and runs.runs.lo is lo
    assert Cover(space, [[1, 0], [2, 3, 4]]).runs is None
    # packed words alone are not scanned
    words = Cover(space, BoolRows.of_words(runs.rows.words.copy(), space.n))
    assert words.runs is None and words.rows.line is None


# -- entourages ----------------------------------------------------------------

@st.composite
def line_entourages(draw):
    """A line with metric entourages, open and closed, at radii that often
    equal one of its distances (in units of the coordinates' step) and at
    other radii, with their compositions and inverses; and relations of
    random runs, which may be empty, move left or miss their own point."""
    space = draw(lines(16))
    n = space.n
    h = float(np.min(np.abs(np.diff(np.unique(space.values()))), initial=1.0))
    radius = st.integers(0, 6).map(lambda k: k * h) | st.floats(0.0, 20.0)
    ents = [metric_entourage(space, draw(radius), draw(st.booleans()))
            for _ in range(draw(st.integers(1, 3)))]
    for _ in range(draw(st.integers(0, 2))):
        lo = np.array(draw(st.lists(st.integers(0, n), min_size=n, max_size=n)))
        size = np.array(draw(st.lists(st.integers(0, n), min_size=n, max_size=n)))
        ents.append(Entourage(space, RunRows(space.d, lo, np.minimum(lo + size, n))))
    ents += [compose(e, f) for e in ents[:2] for f in ents[:2]] + [invert(e) for e in ents[:2]]
    return space, ents


def diagonal_count(e: Entourage) -> int:
    return int(np.count_nonzero(e.rows.columns == e.rows.owners()))


@SEEDED
@given(line_entourages())
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
@given(line_entourages())
def test_entourage_axioms_match_the_table_twin(case):
    space, ents = case
    twin = table_twin(space)
    twins = [Entourage(twin, e.rows.take(np.arange(space.n))) for e in ents]
    for check in (check_coarse_axioms, check_uniform_axioms):
        assert check(ents).to_payload() == check(twins).to_payload()


def test_right_factors_that_are_not_bands_take_the_kernel():
    space = Space(list("abcd"), metric_kind="line", coords=[3.0, 0.0, 1.0, 2.0])
    e = metric_entourage(space, 1.0)
    # sorted order b, c, d, a: in ``left`` the run of c ends before that of
    # b; in ``apart`` no end moves left, but the run of b misses b
    left = Entourage(space, RunRows(space.d, np.array([3, 0, 0, 1]), np.array([4, 4, 2, 3])))
    apart = Entourage(space, RunRows(space.d, np.array([3, 1, 1, 2]), np.array([4, 2, 3, 4])))
    empty = metric_entourage(space, 0.0, closed=False)
    assert left._ordered is None and apart._ordered is not None and apart._band is None
    assert empty.rows.nnz == 0 and empty._band is None
    for f in (left, apart, empty):
        got = compose(e, f)
        assert not isinstance(got.rows, RunRows)
        assert got.rows == bool_product(e.rows, f.rows)
    assert isinstance(compose(empty, e).rows, RunRows) and compose(empty, e).rows.nnz == 0
    assert not isinstance(invert(left).rows, RunRows)
    assert invert(left).rows == left.rows.transpose()


# -- translates ----------------------------------------------------------------

@st.composite
def windows(draw):
    """Windows of the integers loaded in any order, on lines that rank their
    values in order or against it, and at times with a gap in the values;
    and subsets F of each."""
    k = draw(st.integers(1, 10))
    low = draw(st.integers(-k, 0))
    values = list(range(low, low + k + 1))
    if draw(st.booleans()) and len(values) > 2:
        values.remove(draw(st.sampled_from([v for v in values if v])))
    values = draw(st.permutations(values))
    h = draw(st.sampled_from([1.0, 0.5, -1.0]))
    space = Space([str(v) for v in values], metric_kind="line",
                  coords=[v * h for v in values])
    subsets = draw(st.lists(st.sets(st.integers(0, len(values) - 1), max_size=4),
                            min_size=1, max_size=3))
    return space, subsets


@SEEDED
@given(windows())
def test_translates_match_the_group_table(case):
    space, subsets = case
    g = window_group(space)
    plain = window_group(Space(space.points))
    values = g.values.tolist()
    index = {v: i for i, v in enumerate(values)}
    for f in subsets:
        cover, clipped = translation_scale(g, f)
        f = sorted(set(f) | {g.identity})
        prods = [[index.get(a + values[b], -1) for b in f] for a in values]
        assert cover.elements == tuple(frozenset(p for p in row if p >= 0) for row in prods)
        assert clipped == sum(p < 0 for row in prods for p in row)
        interval = np.ptp(g.values[f]) == len(f) - 1
        assert isinstance(cover.rows, RunRows) == bool(g.positions is not None and interval)
        assert cover.rows.line is space.d
    assert (check_translation_ls(g, subsets).to_payload()
            == check_translation_ls(plain, subsets).to_payload())
