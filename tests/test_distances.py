"""Line and grid spaces keep only their coordinates.  Every distance they
serve, and every check that reads them through a band of the sorted
coordinates or through the extents of a set, is pitted here against the
dense table built from the coordinates by ``gap_table`` (a line) or
``max_gap_table`` (a grid): ascending, shuffled, repeated and negative
coordinates, spacings 1/8 and 0.1, radii on rounding boundaries (0.3 on a
0.1 grid, and every distance the carrier realizes), and coordinates whose
gaps overflow to inf."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scalekit import model
from scalekit.bounded import _finite_distance_classes
from scalekit.cli import _default_radii
from scalekit.entourages import metric_entourage
from scalekit.metric import ball_cover, lebesgue_number, mesh, sup_diameter
from scalekit.model import (Space, builder_grid, builder_line, distinct_rows, rows_of_blocks,
                            table_blocks)
from scalekit.scales import Cover

from test_matrix_oracles import (dense_table, oracle_components, oracle_lebesgue, oracle_mesh,
                                 oracle_sup_diameter)

SEEDED = settings(deadline=None, derandomize=True, max_examples=40)


def line(coords) -> Space:
    coords = tuple(float(c) for c in coords)
    return Space(["p%d" % k for k in range(len(coords))], metric_kind="line", coords=coords)


def grid(coords) -> Space:
    return Space(["p%d" % k for k in range(len(coords))], metric_kind="grid",
                 coords=tuple((int(a), int(b)) for a, b in coords))


RNG = np.random.default_rng(16)
SPACES = {
    "ascending": builder_line(40, 1.0),
    "eighths": builder_line(40, 0.125),
    "tenths": line(k * 0.1 for k in range(41)),
    "shuffled tenths": line(RNG.permutation([k * 0.1 for k in range(41)])),
    "repeated": line([0.3, 0.0, 0.3, 0.1, 0.2, 0.2, 0.2, 0.6, 0.9, 0.9, 0.0, 0.7]),
    "negative": line(RNG.permutation([k * 0.1 for k in range(-20, 21)])),
    "one point": line([2.5]),
    "grid": builder_grid(6),
    "shuffled grid": grid(RNG.permutation([(a, b) for a in range(-3, 3) for b in range(-2, 3)])),
    "repeated grid": grid([(0, 0), (2, -1), (0, 0), (-3, 1), (2, -1), (1, 1), (4, 4)]),
}
# gaps past the largest float: p0 and p1 are finitely far apart, p2 is
# infinitely far from both, and p3 only from p0
OVERFLOW = {
    "overflow": line([-1e308, -9e307, 1e308]),
    "overflow chain": line([-1e308, 0.0, 1e308, 5e307]),
}
RADII = (0.1, 0.125, 0.2, 0.25, 0.3, 0.7, 1.0, 1.5, 2.0, 3.0, 1e9)
all_ids = pytest.mark.parametrize("name", sorted(SPACES) + sorted(OVERFLOW))


def space_of(name) -> Space:
    return SPACES[name] if name in SPACES else OVERFLOW[name]


def radii(space):
    """The fixed radii and about 25 of the distances the space realizes."""
    realized = np.unique(dense_table(space))
    realized = realized[np.isfinite(realized) & (realized > 0)]
    return RADII + tuple(float(r) for r in realized[::max(1, realized.size // 25)])


def covers(space):
    """Ball covers, blocks of 4 points in load order, the whole space and
    the singletons."""
    n = space.n
    out = [ball_cover(space, r) for r in (0.15, 0.3, 1.0, 2.5)]
    out.append(Cover(space, [range(k, min(k + 4, n)) for k in range(0, n, 4)]))
    out.append(Cover(space, [range(n)]))
    out.append(Cover(space, [[k] for k in range(n)]))
    return out


@pytest.fixture(autouse=True)
def quiet_overflow():
    with np.errstate(over="ignore"):
        yield


@all_ids
def test_accessor_is_bit_identical_to_the_dense_table(name):
    space = space_of(name)
    d, dense, n = space.d, dense_table(space), space.n
    assert d.table().dtype == dense.dtype and d.table().tobytes() == dense.tobytes()
    a, b = np.array([n - 1, 0, n // 2]), np.array([0, n // 3, n - 1])
    for got, want in ((d[0, n - 1], dense[0, n - 1]), (d[a, b], dense[a, b]),
                      (d[np.ix_(a, b)], dense[np.ix_(a, b)]), (d[n // 2], dense[n // 2]),
                      (d[1:n], dense[1:n]), (d[a], dense[a]), (d[a[:, None]], dense[a[:, None]])):
        assert np.shape(got) == np.shape(want)
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
    assert isinstance(space.distance(0, n - 1), float)
    for subset in ([0], list(range(n)), list(range(0, n, 3)), [n - 1, 0]):
        want = float(dense[np.ix_(subset, subset)].max())
        assert space.diam(subset) == want


@all_ids
def test_block_readers_match_the_dense_table(name):
    # the widest pair of a set and a ball's bump, read a few rows at a time
    from scalekit.duality import _extreme_pairs
    from scalekit.oscillation import _ball_bump
    from test_matrix_oracles import oracle_extreme_pairs
    space = space_of(name)
    dense = dense_table(space)
    cover = Cover(space, [range(space.n), range(0, space.n, 2)])
    for chunk in (model.CHUNK_BYTES, 64):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(model, "CHUNK_BYTES", chunk)
            assert _extreme_pairs(cover, space) == oracle_extreme_pairs(cover, space)
            assert space.diam(range(space.n)) == float(dense.max())
            for radius in (0.25, 1.0):
                inside = dense[0] < radius
                if inside.all():
                    continue
                want = np.zeros(space.n)
                want[inside] = dense[np.ix_(inside, ~inside)].min(axis=1)
                assert _ball_bump(space, 0, radius).tobytes() == want.tobytes()


@all_ids
def test_ball_covers_match_the_dense_table(name):
    space = space_of(name)
    dense = dense_table(space)
    for chunk in (model.CHUNK_BYTES, 64):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(model, "CHUNK_BYTES", chunk)
            for r in radii(space):
                want = distinct_rows(table_blocks(dense, lambda block: block < r), space.n)
                assert ball_cover(space, r).rows == want, r


@all_ids
def test_metric_entourages_match_the_dense_table(name):
    space = space_of(name)
    dense = dense_table(space)
    for r in (0.0,) + radii(space):
        for closed in (True, False):
            test = (lambda block: block <= r) if closed else (lambda block: block < r)
            want = rows_of_blocks(table_blocks(dense, test), space.n)
            assert metric_entourage(space, r, closed).rows == want, (r, closed)


@all_ids
def test_scans_match_the_candidate_scans_on_the_dense_table(name):
    space = space_of(name)
    # the same distances as a table, read by the table paths
    twin = Space(space.points, metric=dense_table(space))
    assert twin == space
    for cover in covers(space):
        twin_cover = Cover(twin, cover.rows)
        got = (lebesgue_number(cover), mesh(cover), sup_diameter(cover))
        assert got == (oracle_lebesgue(cover), oracle_mesh(cover), oracle_sup_diameter(cover))
        assert got == (lebesgue_number(twin_cover), mesh(twin_cover), sup_diameter(twin_cover))


@all_ids
def test_finite_distance_classes_match_the_dense_table(name):
    space = space_of(name)
    rows = [np.flatnonzero(np.isfinite(row)).tolist() for row in dense_table(space)]
    assert tuple(_finite_distance_classes(space).ids) == oracle_components(space.n, rows)[1]
    assert space.d.finite == bool(np.isfinite(dense_table(space)).all())


def test_overflowing_gaps_split_the_finite_distance_classes():
    assert _finite_distance_classes(OVERFLOW["overflow"]).ids.tolist() == [0, 0, 1]
    assert _finite_distance_classes(OVERFLOW["overflow chain"]).ids.tolist() == [0, 0, 0, 0]


@all_ids
def test_report_all_radii_match_the_dense_table(name):
    space = space_of(name)
    dense = dense_table(space)
    pos = dense[np.isfinite(dense) & (dense > 0)]
    rmin = 0.5 * float(pos.min()) if pos.size else 0.5
    top = float(pos.max()) if pos.size else 1.0
    down = tuple(r for r in (3.0, 1.0, 1.0 / 3) if r > rmin) + (rmin,)
    up = tuple(r for r in (1.0, 3.0, 9.0, 27.0) if r < top) + (max(top, 1.0),)
    assert _default_radii(space) == (down, up)


def test_equal_tables_make_equal_spaces():
    a, b = line([0.0, 1.0, 3.0]), line([5.0, 6.0, 8.0])
    assert a == b and a.d.same(b.d)
    assert line([0.0, 1.0, 3.0]) != line([0.0, 1.0, 2.0])
    flat = grid([(0, 0), (1, 0), (3, 0)])
    assert flat == a
    assert Space(a.points, metric=dense_table(a)) == a


def test_lebesgue_number_is_infinite_when_an_element_holds_every_point(monkeypatch):
    # every distance finite: the whole-space element decides, no ball cover
    # past the largest distance is built
    space = builder_line(30, 0.1)
    calls = []
    real = model.Distances.balls
    monkeypatch.setattr(model.Distances, "balls",
                        lambda self, r: calls.append(r) or real(self, r))
    assert lebesgue_number(Cover(space, [range(31), range(5)])) == np.inf
    assert calls == []
    # a table holding inf keeps the ball test past the largest finite
    # distance, where the star of an infinitely far point stays apart
    d = np.array([[0, 1, np.inf], [1, 0, np.inf], [np.inf, np.inf, 0]])
    far = Space(["a", "b", "c"], metric=d)
    assert lebesgue_number(Cover(far, [[0, 1], [2]])) == np.inf
    assert calls == [3.0]
    singletons = Cover(far, [[0], [1], [2]])
    assert lebesgue_number(singletons) == oracle_lebesgue(singletons) == 1.0


@st.composite
def coordinate_spaces(draw):
    n = draw(st.integers(1, 24))
    if draw(st.booleans()):
        h = draw(st.sampled_from([1.0, 0.125, 0.1]))
        ks = draw(st.lists(st.integers(-30, 30), min_size=n, max_size=n))
        return line([k * h for k in ks]), h
    pts = draw(st.lists(st.tuples(st.integers(-4, 4), st.integers(-4, 4)),
                        min_size=n, max_size=n))
    return grid(pts), 1.0


@SEEDED
@given(coordinate_spaces(), st.integers(0, 12), st.sampled_from([model.CHUNK_BYTES, 64]))
def test_random_coordinates_match_the_dense_table(case, k, chunk):
    space, h = case
    dense = dense_table(space)
    r = k * h / 2  # on the spacing, and halfway between
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(model, "CHUNK_BYTES", chunk)
        for closed in (True, False):
            test = (lambda block: block <= r) if closed else (lambda block: block < r)
            want = rows_of_blocks(table_blocks(dense, test), space.n)
            assert metric_entourage(space, r, closed).rows == want
        if r > 0:
            cover = ball_cover(space, r)
            assert cover.rows == distinct_rows(table_blocks(dense, lambda b: b < r), space.n)
            twin = Space(space.points, metric=dense)
            twin_cover = Cover(twin, cover.rows)
            assert (lebesgue_number(cover), mesh(cover), sup_diameter(cover)) == (
                lebesgue_number(twin_cover), mesh(twin_cover), sup_diameter(twin_cover))
