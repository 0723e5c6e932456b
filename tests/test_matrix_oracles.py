"""Covers and entourages are stored as bool matrices, heavy pairs as
structured arrays, operators as coordinate arrays, a filtration as one depth
vector, components as one id vector and the witness catalogue as one bool
matrix, and every spread (the widest value or metric gap inside an element)
comes from one kernel; these properties pit every matrix, array or kernel
operation against the set-, dict- or loop-based version it replaced, on
seeded random carriers of 1 to 12 points (a few to 150 for operators), with
duplicate cover elements allowed, and the window checks also on the bundled
truncated carriers.  The relation kernel, which reduces packed words, is
pitted against int64 and float32 (BLAS) count products on wider random bool
matrices."""
import re
from functools import lru_cache, reduce

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from scalekit.algebra_comm import (FunctionFamily, family_ball_cover,
                                   is_ss_continuous, separation_blocks,
                                   ss_base_from_family, stone_weierstrass_desk_test)
from scalekit.algebra_noncomm import (OperatorMatrix, StarFamily, _monomials, _step_relation,
                                      column_pseudometric, f_bounded, operator_norm,
                                      roe_comparison_tests, ss_from_algebra,
                                      ssp_witness_check, support_entourage)
from scalekit.bounded import (BoundedStructure, _bounded_image, check_proper,
                              desk_weakly_bounded, from_filtration, lemma_wb_test,
                              proper_hss_test, st_weakly_bounded_test, uniformly_bounded,
                              witness_space)
from scalekit.duality import (LSQuery, _extreme_pairs, continuously_controlled_check,
                              ls_membership, maximal_structure_check, reflectivity_oracle,
                              s0_classify, theorem75_agreement, wright_c0_check)
from scalekit.instances import bundled
from scalekit.entourages import (Entourage, check_coarse_axioms, check_uniform_axioms,
                                 compose, diagonal, entourage_of_scale, invert,
                                 metric_entourage, scale_of_entourage, slice_at)
from scalekit.metric import (ball_cover, lebesgue_number, mesh, metric_ls_base,
                             metric_ss_base, sup_diameter)
from scalekit import model
from scalekit.model import (BoolRows, Filtration, InstanceError, Space, bool_covered,
                            bool_product, builder_group_window, builder_line, distinct_first,
                            distinct_sorted, fmt_value)
from scalekit.oscillation import (SOQuery, _ball_bump, build_bump_refuter,
                                  build_scaled_refuter, element_diameters, equivalence_test,
                                  heavy_pairs, is_slowly_oscillating)
from scalekit.reports import CheckReport, truncation_label
from scalekit.scales import (Cover, PartitionOfUnity, ScaleBase, check_ls_base,
                             check_ss_base, is_hausdorff, pou_support, refines,
                             smaller_or_equal, star_family, star_set)
from scalekit.translation import (GroupWindow, _closure_candidates, check_translation_ls,
                                  translation_scale, window_group, z_window)

SEEDED = settings(deadline=None, derandomize=True, max_examples=60)


# -- the dense distance table: the form line and grid spaces once stored -------

def max_gap_table(coords: np.ndarray) -> np.ndarray:
    """The largest coordinate gap for every pair of points, one axis at a
    time: the grid metric as a whole table."""
    out = model.gap_table(coords[:, 0])
    for axis in coords.T[1:]:
        np.maximum(out, model.gap_table(axis), out=out)
    return out


def dense_table(space) -> np.ndarray:
    """The whole distance table of a space: built from the coordinates by
    ``gap_table`` (a line) or ``max_gap_table`` (a grid), else the table the
    space holds."""
    if space.metric_kind == "line":
        return model.gap_table(np.array(space.coords, dtype=float))
    if space.metric_kind == "grid":
        return max_gap_table(np.array(space.coords, dtype=float))
    return space.d.table()


# -- set-based oracles: the representations the matrices replaced -------------

def oracle_cover(n, elements):
    """Point-by-point validation of the old tuple-of-frozensets cover."""
    elts = []
    for k, e in enumerate(elements):
        e = frozenset(int(i) for i in e)
        if not e:
            raise InstanceError("cover element %d is empty" % k)
        if not all(0 <= i < n for i in e):
            raise InstanceError("cover element %d has out-of-range points" % k)
        elts.append(e)
    if not elts:
        raise InstanceError("a cover needs at least one element")
    return tuple(elts)


def oracle_compose(e, f):
    by_first = {}
    for (y, z) in f:
        by_first.setdefault(y, []).append(z)
    return {(x, z) for (x, y) in e for z in by_first.get(y, ())}


def oracle_slice(pairs, x):
    return frozenset(y for (y, x2) in pairs if x2 == x)


def distance_candidates(space):
    """Sorted distinct positive finite distances, plus consecutive midpoints:
    the radii the mesh and Lebesgue scans once stepped through.  Outcomes
    are constant between neighbouring distances, so the midpoints never
    shift a scan value."""
    vals = np.unique(dense_table(space))
    vals = vals[np.isfinite(vals) & (vals > 0)]
    out = []
    for i, v in enumerate(vals):
        if i > 0:
            out.append(float(vals[i - 1] + v) / 2.0)
        out.append(float(v))
    return out


def oracle_entourage_of_scale(elements):
    return {(a, b) for el in elements for a in el for b in el}


def oracle_scale_of_entourage(n, pairs):
    return tuple(oracle_slice(pairs, x) for x in range(n))


def oracle_star(subset, elements):
    out = set(subset)
    for e in elements:
        if e & subset:
            out |= e
    return frozenset(out)


def oracle_refines(u, v):
    return all(any(a <= b for b in v) for a in u)


def oracle_balls(d, r):
    seen, elements = set(), []
    for x in range(d.shape[0]):
        ball = frozenset(np.flatnonzero(d[x] < r).tolist())
        if ball not in seen:
            seen.add(ball)
            elements.append(ball)
    return tuple(elements)


# -- strategies ----------------------------------------------------------------

sizes = st.integers(min_value=1, max_value=8)


@st.composite
def relations(draw):
    n = draw(sizes)
    pairs = st.frozensets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                          max_size=n * n)
    return builder_line(n - 1, 1.0), draw(pairs), draw(pairs)


def element_lists(n, lo=0, hi=None, min_points=1):
    hi = n - 1 if hi is None else hi
    els = st.lists(st.frozensets(st.integers(lo, hi), min_size=min_points,
                                 max_size=n), min_size=1, max_size=6)
    # repeat a drawn element now and then, as star families do
    return els.flatmap(lambda xs: st.sampled_from([xs, xs + xs[:1]]))


@st.composite
def cover_pairs(draw):
    n = draw(sizes)
    space = builder_line(n - 1, 1.0)
    return space, draw(element_lists(n)), draw(element_lists(n))


# -- covers --------------------------------------------------------------------

@SEEDED
@given(sizes.flatmap(lambda n: st.tuples(
    st.just(n), element_lists(n, lo=-1, hi=n, min_points=0))))
def test_cover_validation_matches_oracle(case):
    n, elements = case
    space = builder_line(n - 1, 1.0)
    try:
        want = oracle_cover(n, elements)
    except InstanceError as exc:
        with pytest.raises(InstanceError) as got:
            Cover(space, elements)
        assert str(got.value) == str(exc)
        return
    cov = Cover(space, elements)
    assert cov.elements == want
    assert len(cov) == len(want)
    assert Cover(space, cov.matrix).elements == want


def test_cover_rejects_no_elements():
    with pytest.raises(InstanceError, match="at least one element"):
        Cover(builder_line(0, 1.0), [])


@SEEDED
@given(cover_pairs())
def test_star_family_and_refines_match_oracle(case):
    space, a, b = case
    u, v = Cover(space, a), Cover(space, b)
    eu, ev = oracle_cover(space.n, a), oracle_cover(space.n, b)
    assert star_family(u, v).elements == tuple(oracle_star(e, ev) for e in eu)
    assert refines(u, v) == oracle_refines(eu, ev)
    assert refines(v, u) == oracle_refines(ev, eu)


@SEEDED
@given(st.lists(st.integers(0, 6), min_size=1, max_size=8),
       st.sampled_from([0.5, 1.0, 1.5, 2.0, 3.5, 10.0]))
def test_ball_cover_dedupe_matches_oracle(coords, r):
    # repeated coordinates give zero distances and so repeated balls
    x = np.asarray(coords, dtype=float)
    d = np.abs(np.subtract.outer(x, x))
    space = Space(["p%d" % i for i in range(len(coords))], metric=d)
    assert ball_cover(space, r).elements == oracle_balls(d, r)
    fam = FunctionFamily(space, ("x",), x.reshape(1, -1))
    assert family_ball_cover(fam, r).elements == oracle_balls(d, r)


# -- entourages ------------------------------------------------------------------

@SEEDED
@given(relations())
def test_relation_calculus_matches_oracle(case):
    space, a, b = case
    e, f = Entourage(space, a), Entourage(space, b)
    assert e.pairs == a and len(e) == len(a)
    assert all(isinstance(x, int) and isinstance(y, int) for x, y in e.pairs)
    assert compose(e, f).pairs == oracle_compose(a, b)
    assert invert(e).pairs == {(y, x) for (x, y) in a}
    assert e.issubset(f) == (a <= b)
    assert e.intersection(f).pairs == a & b
    assert e.is_symmetric() == all((y, x) in a for (x, y) in a)
    assert e.sorted_pairs() == sorted(a)
    for x in range(space.n):
        assert slice_at(e, x) == oracle_slice(a, x)


@SEEDED
@given(relations())
def test_scale_of_entourage_matches_oracle(case):
    space, a, _ = case
    e = Entourage(space, a)
    if not e.contains_diagonal():
        with pytest.raises(InstanceError):
            scale_of_entourage(e)
        e = Entourage(space, a | {(x, x) for x in range(space.n)})
    assert scale_of_entourage(e).elements == \
        oracle_scale_of_entourage(space.n, e.pairs)


@SEEDED
@given(cover_pairs())
def test_entourage_of_scale_matches_oracle(case):
    space, a, _ = case
    u = Cover(space, a)
    assert entourage_of_scale(u).pairs == oracle_entourage_of_scale(u.elements)


# -- the relation kernel: packed words against an int64 product ----------------

@st.composite
def bool_operands(draw):
    """a (m x k) and b (k x n), sparse or dense, with an empty row, an
    all-true row and a repeated row planted in each; a is sometimes a
    transposed view, as a cover's holders are."""
    m, k = draw(st.integers(1, 12)), draw(st.sampled_from([1, 5, 64, 65, 130]))
    n = draw(st.sampled_from([1, 63, 64, 65, 130]))
    density = draw(st.sampled_from([0.05, 0.7]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
    a, b = rng.random((m, k)) < density, rng.random((k, n)) < density
    for x in (a, b):
        empty, full, copy, source = rng.integers(0, len(x), size=4)
        x[empty], x[full], x[copy] = False, True, x[source]
    if draw(st.booleans()):
        a = np.ascontiguousarray(a.T).T
    return a, b


def oracle_relation(a, b, every):
    if every:
        return (a.astype(np.int64) @ (~b).astype(np.int64)) == 0
    return (a.astype(np.int64) @ b.astype(np.int64)) > 0


@SEEDED
@given(bool_operands(), st.sampled_from([model.CHUNK_BYTES, 1]))
def test_packed_kernel_matches_int64_oracle(case, chunk):
    # a one-byte chunk bound gathers one entry at a time, so that a packed
    # row is reduced across chunks
    a, b = case
    ra, rb = BoolRows.of_matrix(a), BoolRows.of_matrix(b)
    n = b.shape[1]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(model, "CHUNK_BYTES", chunk)
        for every, ufunc in ((False, np.bitwise_or), (True, np.bitwise_and)):
            want = oracle_relation(a, b, every)
            got = model._final(model._chunks(ra, rb, ufunc))
            assert got.dtype == model.WORD
            assert got.tobytes() == model._pack(want).tobytes()
            assert model.unpack_rows(got, n).tobytes() == want.tobytes()
    assert bool_product(ra, rb).matrix.tobytes() == oracle_relation(a, b, False).tobytes()
    assert bool_covered(ra, rb) == bool(oracle_relation(a, b, True).any(axis=1).all())


# each kernel case is checked twice over: "packed" holds the kernel's words
# to the packed words of an exact int64 count product, and "blas" holds the
# unpacked result to a float32 BLAS count product, the arithmetic of the dense
# path the kernel replaced
FORMS = ["packed", "blas"]


def reference_covered(form, a, b):
    """Every row of a inside some column of b, from the reference of ``form``."""
    if form == "packed":
        return bool(model._pack(oracle_relation(a, b, True)).any(axis=1).all())
    return bool(((a.astype(np.float32) @ (~b).astype(np.float32)) == 0).any(axis=1).all())


def staircase(n, width, miss):
    """Covers u (width-point windows) and v (windows one point wider) on n
    points, with u's row at ``miss`` as large as the elements of v but in
    none of them: width + 1 points spread over width + 2 by a one-point
    hole, so that the size bound of ``refines`` leaves it to the kernel.
    The points carry no metric: on a line, windows are runs, which
    ``refines`` decides from their ends without the kernel."""
    space = Space([str(k) for k in range(n)])
    u = [frozenset(range(k, k + width)) for k in range(n - width + 1)]
    lo = min(miss, n - width - 2)
    u[miss] = frozenset(range(lo, lo + width + 2)) - {lo + 1}
    v = [frozenset(range(k, k + width + 1)) for k in range(n - width)]
    return Cover(space, u), Cover(space, v)


@pytest.mark.parametrize("form", FORMS)
@pytest.mark.parametrize("chunk", [1, 24, model.CHUNK_BYTES])
@pytest.mark.parametrize("where", ["first", "middle", "last", "none"])
def test_refines_stops_at_first_uncontained_row(form, chunk, where):
    # a one-byte bound takes one entry per chunk and three words take three,
    # so u's rows of 70 points are reduced across many chunks
    n, width = 90, 70
    rows = n - width + 1
    miss = {"first": 0, "middle": rows // 2, "last": rows - 1, "none": None}[where]
    u, v = staircase(n, width, 0 if miss is None else miss)
    if miss is None:
        u = Cover(u.space, [frozenset(range(k, k + width)) for k in range(rows)])
    yields = []

    def counted(a, b, ufunc):
        for step in chunks(a, b, ufunc):
            yields.append(step[1])
            yield step

    chunks = model._chunks
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(model, "CHUNK_BYTES", chunk)
        mp.setattr(model, "_chunks", counted)
        got = refines(u, v)
    assert got == oracle_refines(u.elements, v.elements) == (miss is None)
    assert got == reference_covered(form, u.rows.matrix, v.holders.matrix)
    # the scan reaches the uncontained row, and with small chunks it ends
    # before the rows after it are reduced
    assert yields[-1] >= (rows if miss is None else miss + 1)
    if miss is not None and miss < rows - 1 and chunk < model.CHUNK_BYTES:
        assert yields[-1] < rows


@pytest.mark.parametrize("where", [0, 10, 18])
def test_refines_rejects_an_element_larger_than_every_target_without_the_kernel(where):
    n, width = 90, 70
    _, v = staircase(n, width, 0)
    rows = [frozenset(range(k, k + width)) for k in range(n - width + 1)]
    rows[where] = frozenset(range(where, where + width + 2))
    u = Cover(v.space, rows)
    calls = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(model, "_chunks", lambda *args: calls.append(args) or iter(()))
        got = refines(u, v)
    assert got is False and not oracle_refines(u.elements, v.elements)
    assert calls == []


@pytest.mark.parametrize("n", [1, 63, 64, 65, 130])
def test_packed_rows_pad_with_zero_bits(n):
    words = BoolRows.of_matrix(np.ones((3, n), dtype=bool)).words
    bits = np.unpackbits(words.view(np.uint8), axis=1, bitorder="little")
    assert bits.shape[1] % 64 == 0 and bits[:, :n].all() and not bits[:, n:].any()


def band(n, width):
    m = np.zeros((n, n), dtype=bool)
    i = np.arange(n)
    for step in range(-width, width + 1):
        keep = i[(i + step >= 0) & (i + step < n)]
        m[keep, keep + step] = True
    return m


def test_compose_of_bands_memory_stays_flat():
    import tracemalloc
    space = Space([str(i) for i in range(3000)])
    e = Entourage(space, band(3000, 3))
    tracemalloc.start()
    try:
        got = compose(e, e)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(got.matrix, band(3000, 6))
    # the packed result is 3000 rows of 47 words (1.1 MB) and a chunk of
    # gathered words at most CHUNK_BYTES, where one dense n x n bool matrix
    # would take 9 MB at this size
    assert peak < 8 * 2 ** 20


# -- point lists: each list-form operation against the dense matrix code it
# replaced, when covers and entourages were stored as bool matrices --------

def dense_product(a, b):
    return (a.astype(np.float32) @ b.astype(np.float32)) > 0


def dense_covered(a, b):
    """Every row of a inside some column of b."""
    return bool(((a.astype(np.int64) @ (~b).astype(np.int64)) == 0).any(axis=1).all())


def dense_neighbours(m):
    """Cover.neighbours of an incidence matrix: its transpose times itself."""
    return dense_product(m.T, m)


def dense_star_family(u, v):
    return u | dense_product(u, dense_neighbours(v))


def dense_star_set(idx, m):
    star = m[m[:, idx].any(axis=1)].any(axis=0)
    star[idx] = True
    return star


def dense_hausdorff(matrices):
    n = matrices[0].shape[1]
    together = np.ones((n, n), dtype=bool)
    for m in matrices:
        together &= dense_neighbours(m)
    np.fill_diagonal(together, False)
    return not together.any()


def dense_distinct_rows(m):
    """The dict dedupe that ball covers used: rows keyed by their packed
    bytes, each kept at its first occurrence."""
    packed = np.packbits(m, axis=1)
    kept = b"".join(dict.fromkeys(map(bytes, packed)))
    rows = np.frombuffer(kept, dtype=np.uint8).reshape(-1, packed.shape[1])
    return np.unpackbits(rows, axis=1, count=m.shape[1]).astype(bool)


def random_relation(draw, rng, rows, cols):
    """A band of drawn half-width or a random relation of drawn density,
    with an empty row and a repeated row planted."""
    if draw(st.booleans()):
        width = draw(st.integers(0, max(rows, cols)))
        x = np.abs(np.arange(rows)[:, None] * cols // rows - np.arange(cols)) <= width
    else:
        x = rng.random((rows, cols)) < draw(st.sampled_from([0.02, 0.2, 0.7]))
    empty, copy, source = rng.integers(0, rows, size=3)
    x[copy] = x[source]
    x[empty] = False
    return x


@st.composite
def list_operands(draw):
    """a (m x k) and b (k x n), with m, k and n drawn apart."""
    m, k, n = (draw(st.integers(1, 70)) for _ in range(3))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
    return random_relation(draw, rng, m, k), random_relation(draw, rng, k, n)


@st.composite
def cover_matrices(draw):
    """Two incidence matrices on one carrier of n points; each empty row
    gets one random point, so that repeated elements stay."""
    n, m, k = (draw(st.integers(1, 50)) for _ in range(3))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
    out = []
    for rows in (m, k):
        x = random_relation(draw, rng, rows, n)
        empty = np.flatnonzero(~x.any(axis=1))
        x[empty, rng.integers(0, n, size=empty.size)] = True
        out.append(x)
    return builder_line(n - 1, 1.0), out[0], out[1], rng


@st.composite
def entourage_matrices(draw):
    n = draw(st.integers(1, 50))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
    return (builder_line(n - 1, 1.0), random_relation(draw, rng, n, n),
            random_relation(draw, rng, n, n))


# the chunk bound, and one that splits every operand into many blocks
CHUNKS = st.sampled_from([model.CHUNK_BYTES, 64])


@SEEDED
@given(list_operands(), CHUNKS)
def test_list_kernel_matches_dense_oracles(case, chunk):
    a, b = case
    ra, rb = BoolRows.of_matrix(a), BoolRows.of_matrix(b)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(model, "CHUNK_BYTES", chunk)
        product, covered = bool_product(ra, rb), bool_covered(ra, rb)
        holders = ra.transpose()
        words = BoolRows(ra.columns, ra.starts, ra.n).words
        # a relation made of packed words lists the same entries
        listed = BoolRows.of_words(model._pack(a), a.shape[1])
        assert (listed.columns.tobytes(), listed.starts.tobytes()) == \
            (ra.columns.tobytes(), ra.starts.tobytes())
    assert product.matrix.tobytes() == dense_product(a, b).tobytes()
    assert product == BoolRows.of_matrix(dense_product(a, b))
    assert covered == dense_covered(a, b)
    assert holders == BoolRows.of_matrix(np.ascontiguousarray(a.T))
    assert words.tobytes() == model._pack(a).tobytes()
    assert ra.matrix.tobytes() == a.tobytes()


@SEEDED
@given(cover_matrices(), CHUNKS)
def test_list_covers_match_dense_oracles(case, chunk):
    space, a, b, rng = case
    u, v = Cover(space, a), Cover(space, b)
    idx = np.flatnonzero(rng.random(space.n) < 0.3)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(model, "CHUNK_BYTES", chunk)
        star = star_family(u, v)
        assert v.neighbours.matrix.tobytes() == dense_neighbours(b).tobytes()
        assert refines(u, v) == dense_covered(a, np.ascontiguousarray(b.T))
        assert is_hausdorff([u, v]).status == dense_hausdorff([a, b])
    assert star.matrix.tobytes() == dense_star_family(a, b).tobytes()
    assert u.holders == BoolRows.of_matrix(np.ascontiguousarray(a.T))
    assert star_set(idx.tolist(), u) == frozenset(np.flatnonzero(dense_star_set(idx, a)).tolist())
    assert u.matrix.tobytes() == a.tobytes()


@SEEDED
@given(entourage_matrices(), CHUNKS)
def test_list_entourages_match_dense_oracles(case, chunk):
    space, a, b = case
    e, f = Entourage(space, a), Entourage(space, b)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(model, "CHUNK_BYTES", chunk)
        composed = compose(e, f)
    assert composed.matrix.tobytes() == dense_product(a, b).tobytes()
    assert invert(e).matrix.tobytes() == np.ascontiguousarray(a.T).tobytes()
    assert e.intersection(f).matrix.tobytes() == (a & b).tobytes()
    assert e.issubset(f) == (not (a & ~b).any())
    assert e.is_symmetric() == np.array_equal(a, a.T)
    assert e.contains_diagonal() == bool(a.diagonal().all())
    assert len(e) == int(a.sum())
    for x in range(space.n):
        assert slice_at(e, x) == frozenset(np.flatnonzero(a[:, x]).tolist())
        assert ((x, space.n - 1 - x) in e) == bool(a[x, space.n - 1 - x])


@SEEDED
@given(st.lists(st.integers(0, 12), min_size=1, max_size=60),
       st.sampled_from([0.5, 1.0, 2.5, 7.0, 100.0]), CHUNKS)
def test_list_ball_covers_match_dense_oracles(coords, r, chunk):
    # repeated coordinates give zero distances and so repeated balls
    x = np.asarray(coords, dtype=float)
    d = np.abs(np.subtract.outer(x, x))
    space = Space(["p%d" % i for i in range(len(coords))], metric=d)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(model, "CHUNK_BYTES", chunk)
        balls = ball_cover(space, r)
        closed, open_ = metric_entourage(space, r), metric_entourage(space, r, closed=False)
    assert balls.matrix.tobytes() == dense_distinct_rows(d < r).tobytes()
    assert closed.matrix.tobytes() == (d <= r).tobytes()
    assert open_.matrix.tobytes() == (d < r).tobytes()


# the tracemalloc readings of these calls on builder_line(1000, 1.0) when
# covers and entourages, and their derived forms, were dense bool matrices
DENSE_HELD_MB = {"ls": 9.1, "ss": 6.9, "coarse": 4.3}


@pytest.mark.parametrize("name", sorted(DENSE_HELD_MB))
def test_checked_bases_hold_a_third_of_the_dense_memory(name):
    import gc
    import tracemalloc
    space = builder_line(1000, 1.0)
    build, check = {
        "ls": (lambda: metric_ls_base(space, (1, 3, 9, 27)), check_ls_base),
        "ss": (lambda: metric_ss_base(space, (3, 1, 1 / 3)), check_ss_base),
        "coarse": (lambda: [metric_entourage(space, r) for r in (1, 3, 9, 27)],
                   check_coarse_axioms),
    }[name]
    tracemalloc.start()
    try:
        gc.collect()
        before = tracemalloc.get_traced_memory()[0]
        base = build()
        check(base)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    # the base and every form its check cached stay held
    assert held <= DENSE_HELD_MB[name] / 3 * 2 ** 20


# -- the kernel's fixed cost per call: rows deduplicated by a sort, packed rows
# listed through a bool view, the AND identity written directly, and one-chunk
# reductions that skip the per-chunk bookkeeping -----------------------------

WIDTHS = st.sampled_from([1, 2, 7, 63, 64, 65, 128])


@st.composite
def repeated_rows(draw):
    """A bool matrix whose rows are drawn from a few distinct rows (one of
    them empty, all of them equal, or a single row), cut into blocks."""
    n = draw(WIDTHS)
    m = draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
    pool = rng.random((draw(st.integers(1, 6)), n)) < draw(st.sampled_from([0.05, 0.5, 0.95]))
    pool[0] = draw(st.booleans())
    x = pool[rng.integers(0, len(pool), size=m)]
    cuts = sorted(draw(st.lists(st.integers(1, m), max_size=4)))
    return x, [x[lo:hi] for lo, hi in zip([0] + cuts, cuts + [m]) if hi > lo]


@SEEDED
@given(repeated_rows(), CHUNKS)
def test_distinct_rows_match_the_dict_dedupe(case, chunk):
    x, blocks = case
    n = x.shape[1]
    want = dense_distinct_rows(x)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(model, "CHUNK_BYTES", chunk)
        drawn = model.distinct_rows(blocks, n)
        # table_blocks cuts by the chunk bound: one row a block at 64 bytes
        cut = model.distinct_rows(model.table_blocks(x, np.copy), n)
        whole = model.distinct_rows([x], n)
    for got in (drawn, cut, whole):
        assert got.words.tobytes() == model._pack(want).tobytes()
        assert got.matrix.tobytes() == want.tobytes()
        assert got.sizes.tolist() == want.sum(axis=1).tolist()


@pytest.mark.parametrize("n", [1, 63, 64, 65, 128])
@pytest.mark.parametrize("rows", ["equal", "one", "blocks"])
def test_distinct_rows_edge_shapes(n, rows):
    rng = np.random.default_rng(n)
    x = {"equal": np.tile(rng.random(n) < 0.5, (9, 1)),
         "one": rng.random((1, n)) < 0.5,
         "blocks": rng.random((30, n)) < 0.5}[rows]
    if rows == "blocks":
        x[10:20] = x[:10]  # every row of the second block repeats one of the first
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(model, "CHUNK_BYTES", 64)
        got = model.distinct_rows(model.table_blocks(x, np.copy), n)
    assert got.matrix.tobytes() == dense_distinct_rows(x).tobytes()


@pytest.mark.parametrize("r", [1.0, 1e9], ids=["unit", "whole"])
def test_ball_cover_dedupe_memory(r):
    # the dict dedupe peaked at 1.6 MB (r = 1) and 1.0 MB (a radius that
    # holds the whole space) on these calls
    import tracemalloc
    space = builder_line(2000, 1.0)
    tracemalloc.start()
    try:
        cover = ball_cover(space, r)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(cover) == (space.n if r == 1.0 else 1)
    assert peak <= 1.7 * 2 ** 20


@SEEDED
@given(st.integers(0, 40), WIDTHS, st.sampled_from([0.0, 0.05, 0.5, 1.0]),
       st.integers(0, 2 ** 16), CHUNKS)
def test_word_listing_matches_point_lists(m, n, density, seed, chunk):
    rng = np.random.default_rng(seed)
    x = rng.random((m, n)) < density
    x[rng.integers(0, m, size=min(m, 3))] = False  # empty rows
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(model, "CHUNK_BYTES", chunk)
        rows = BoolRows.of_words(model._pack(x), n)
        columns, starts = rows.columns, rows.starts
    want_columns, want_starts = model._point_lists(x)
    assert columns.dtype == want_columns.dtype and starts.dtype == want_starts.dtype
    assert columns.tobytes() == want_columns.tobytes()
    assert starts.tobytes() == want_starts.tobytes()


@pytest.mark.parametrize("form", FORMS)
@pytest.mark.parametrize("n", [64, 65])
@pytest.mark.parametrize("empty", [0, 3, 5])
def test_empty_row_is_covered_with_a_zero_tail(form, n, empty):
    rng = np.random.default_rng(n + empty)
    a = rng.random((6, 20)) < 0.2
    b = np.ones((20, n), dtype=bool)
    b[:, ::3] = rng.random((20, len(range(0, n, 3)))) < 0.5
    a[empty] = False
    ra, rb = BoolRows.of_matrix(a), BoolRows.of_matrix(b)
    want = oracle_relation(a, b, True)
    got = model._final(model._reduce_rows(ra.columns, ra.starts, rb.words, np.bitwise_and, n))
    # the empty row holds every column and no bit past the last
    assert got.tobytes() == model._pack(want).tobytes()
    assert got[empty].tobytes() == model._pack(np.ones((1, n), dtype=bool)).tobytes()
    if form == "blas":
        counts = a.astype(np.float32) @ (~b).astype(np.float32)
        assert model.unpack_rows(got, n).tobytes() == (counts == 0).tobytes()
    assert bool_covered(ra, rb) == dense_covered(a, b) == bool(want.any(axis=1).all())
    assert bool_covered(ra, rb) == reference_covered(form, a, b)


@SEEDED
@given(bool_operands(), st.sampled_from([1, 8, 64]), st.booleans())
def test_one_chunk_and_many_chunk_reductions_are_byte_equal(case, chunk, lead):
    a, b = case
    if lead:  # empty rows at both ends, which no chunk reaches
        a = np.vstack([np.zeros((2, a.shape[1]), dtype=bool), a,
                       np.zeros((1, a.shape[1]), dtype=bool)])
    ra, rb = BoolRows.of_matrix(a), BoolRows.of_matrix(b)
    n = b.shape[1]
    for ufunc in (np.bitwise_or, np.bitwise_and):
        one = model._final(model._reduce_rows(ra.columns, ra.starts, rb.words, ufunc, n))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(model, "CHUNK_BYTES", chunk)
            many = model._final(model._reduce_rows(ra.columns, ra.starts, rb.words, ufunc, n))
        want = model._pack(oracle_relation(a, b, ufunc is np.bitwise_and))
        assert one.tobytes() == many.tobytes() == want.tobytes()


def test_first_chunk_reaching_every_row_is_reduced_further():
    # rows of 1, 1, 1 and 60 points: with 8 entries a chunk the first chunk
    # holds an entry of every row, and the long row goes on over 8 chunks
    a = np.zeros((4, 64), dtype=bool)
    a[0, 0] = a[1, 1] = a[2, 2] = True
    a[3, 4:] = True
    b = np.random.default_rng(0).random((64, 100)) < 0.9
    ra, rb = BoolRows.of_matrix(a), BoolRows.of_matrix(b)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(model, "CHUNK_BYTES", 8 * 8 * rb.words.shape[1])
        for every, ufunc in ((False, np.bitwise_or), (True, np.bitwise_and)):
            finals = []
            for out, final in model._reduce_rows(ra.columns, ra.starts, rb.words, ufunc, 100):
                finals.append(final)
            assert out.tobytes() == model._pack(oracle_relation(a, b, every)).tobytes()
            assert finals[0] == 3 and len(finals) > 2


# -- slow oscillation: the tuple-based scans the arrays replaced ---------------

def oracle_gaps(vals):
    """The gap table of some points' values; vectors (one row per point) in
    the sum norm."""
    gaps = np.abs(vals[:, None] - vals[None, :])
    return gaps.sum(axis=2) if gaps.ndim == 3 else gaps


def oracle_diameters(f, elements):
    out = np.zeros(len(elements))
    for k, el in enumerate(elements):
        if len(el) >= 2:
            vals = f[np.fromiter(el, dtype=np.int64)]
            out[k] = float(oracle_gaps(vals).max())
    return out


def oracle_heavy_pairs(f, elements, eps):
    pairs = []
    for k, el in enumerate(elements):
        idx = np.fromiter(sorted(el), dtype=np.int64)
        if idx.size < 2:
            continue
        vals = f[idx]
        gaps = oracle_gaps(vals)
        ii, jj = np.nonzero(np.triu(gaps > eps, k=1))
        for a, b in zip(ii, jj):
            pairs.append((k, int(idx[a]), int(idx[b]), float(gaps[a, b])))
    return pairs


# the truncation layer's frozenset code: components as sets, windows as levels

def oracle_components(n, groups):
    """Union-find classes of the points once each group is joined, listed by
    minimal point, and each point's class id."""
    parent = list(range(n))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for g in groups:
        it = iter(g)
        first = find(next(it))
        for x in it:
            parent[find(x)] = first
    buckets = {}
    for x in range(n):
        buckets.setdefault(find(x), set()).add(x)
    comps = tuple(sorted((frozenset(c) for c in buckets.values()), key=min))
    ids = [0] * n
    for cid, comp in enumerate(comps):
        for x in comp:
            ids[x] = cid
    return comps, tuple(ids)


@lru_cache(maxsize=4)
def oracle_partitions(b):
    """The generated and the ideal partition of a structure, each as
    (components, ids); the ideal one joins each row of finite distances."""
    space = b.space
    generated = oracle_components(space.n, b.generators)
    if space.d is None:
        return generated, generated
    rows = {np.isfinite(r).tobytes(): r for r in dense_table(space)}.values()
    return generated, oracle_components(space.n, [np.flatnonzero(np.isfinite(r)).tolist()
                                                  for r in rows])


def oracle_traces(partition, subset):
    out = {}
    for x in subset:
        out.setdefault(partition[1][x], set()).add(x)
    return [(cid, frozenset(t)) for cid, t in sorted(out.items())]


def oracle_is_member(partition, subset):
    return len(subset) <= 1 or len({partition[1][x] for x in subset}) == 1


def oracle_desk(subset, b):
    space = b.space
    subset = frozenset(int(x) for x in subset)
    generated, ideal = oracle_partitions(b)
    if space.filtration is None:
        ok = all(oracle_is_member(generated, t) for _, t in oracle_traces(generated, subset))
        return ok, {"mode": "literal", "verdict": ok}
    levels = space.filtration.levels
    bad = [cid for cid, t in oracle_traces(ideal, subset)
           if len(t) > 1 and not any(t <= k for k in levels)]
    return not bad, {"mode": "truncation", "bad_ideal_components": bad}


def oracle_star_probes(b):
    space = b.space
    if space.filtration is None:
        return [("comp@%s" % space.points[min(c)], c) for c in oracle_partitions(b)[0][0]]
    return [("K%d" % (i + 1), k) for i, k in enumerate(space.filtration.levels[:-1])]


def oracle_witness_space(b):
    space = b.space
    generated, ideal = oracle_partitions(b)
    out = [("empty", frozenset())]
    if space.filtration is None:
        return out + [("comp@%s" % space.points[min(c)], c) for c in generated[0]]
    levels = space.filtration.levels
    out += [("K%d" % (i + 1), k) for i, k in enumerate(levels)]
    compatible = [c for c in ideal[0] if len(c) <= 1 or any(c <= k for k in levels)]
    for i, k in enumerate(levels):
        for comp in compatible:
            if not comp <= k:
                out.append(("K%d+comp@%s" % (i + 1, space.points[min(comp)]), k | comp))
    return out


def oracle_star_condition(cover, b):
    hits = []
    for name, probe in oracle_star_probes(b):
        st_ = oracle_star(probe, cover.elements)
        ok, detail = oracle_desk(st_, b)
        if not ok:
            return None, {"condition": 1, "probe": name, "detail": detail}
        hits.append({"probe": name, "star_size": len(st_)})
    return hits, None


def oracle_masks(space, witnesses):
    out = []
    for name, s in witnesses:
        m = np.zeros(space.n, dtype=bool)
        m[sorted(s)] = True
        out.append((name, s, m))
    return out


def oracle_pair_entry(space, cov, k, x, y, gap):
    return {"element": cov.labels()[k], "pair": [space.points[x], space.points[y]],
            "gap": fmt_value(gap)}


def oracle_refutation(q, cov, eps, form, pairs, bad, cells):
    space = q.structure.space
    base = {"cover": cov.name, "eps": eps, "form": form}
    if form == "strict":
        common = next((k for k in bad
                       if all(not mask[cov.matrix[k]].all() for _, _, mask in cells)),
                      None)
        if common is not None:
            best = max((p for p in pairs if p[0] == common), key=lambda p: p[3])
            base.update(oracle_pair_entry(space, cov, *best))
            base["mode"] = "element survives every witness"
            return base
        per = []
        for name, _, mask in cells:
            for k in bad:
                if not mask[cov.matrix[k]].all():
                    per.append({"witness": name, "element": cov.labels()[k]})
                    break
        base.update({"mode": "no single witness", "refutations": per})
        return base
    common = next((p for p in pairs
                   if all(not (mask[p[1]] or mask[p[2]]) for _, _, mask in cells)),
                  None)
    if common is not None:
        base.update(oracle_pair_entry(space, cov, *common))
        base["mode"] = "pair survives every witness"
        return base
    per = []
    for name, _, mask in cells:
        for k, x, y, gap in pairs:
            if not (mask[x] or mask[y]):
                per.append({"witness": name,
                            **oracle_pair_entry(space, cov, k, x, y, gap)})
                break
    base.update({"mode": "no single witness", "refutations": per})
    return base


def oracle_slowly_oscillating(q, form):
    space = q.structure.space
    cells = oracle_masks(space, oracle_witness_space(q.structure))
    found = []
    name = "slowly_oscillating[%s,%s]" % (q.name, form)
    for cov in q.base:
        for eps in q.eps_grid:
            pairs = oracle_heavy_pairs(q.f, cov.elements, eps)
            diams = oracle_diameters(q.f, cov.elements)
            bad = [k for k in range(len(cov.elements)) if diams[k] > eps]
            bad_union = np.fromiter(
                sorted(set().union(*(cov.elements[k] for k in bad))), dtype=np.int64)
            xs = np.fromiter((p[1] for p in pairs), dtype=np.int64)
            ys = np.fromiter((p[2] for p in pairs), dtype=np.int64)
            if form == "strict":
                test = lambda m: bool(m[bad_union].all())
            else:
                test = lambda m: bool((m[xs] | m[ys]).all())
            hit = next((w for w, _, mask in cells if test(mask)), None)
            if hit is None:
                cx = oracle_refutation(q, cov, eps, form, pairs, bad, cells)
                return CheckReport(name, False, witnesses=tuple(found),
                                   counterexample=cx,
                                   truncation=truncation_label(space))
            found.append({"cover": cov.name, "eps": eps, "witness": hit})
    return CheckReport(name, True, witnesses=tuple(found),
                       truncation=truncation_label(space))


def oracle_equivalence_checks(q, relaxed):
    by_name = dict(oracle_witness_space(q.structure))
    checks = []
    for cell in relaxed.witnesses:
        cov = next(c for c in q.base if c.name == cell["cover"])
        starred = star_set(by_name[cell["witness"]], cov)
        diams = oracle_diameters(q.f, cov.elements)
        bad_union = set()
        for k, el in enumerate(cov.elements):
            if diams[k] > cell["eps"]:
                bad_union |= el
        wb, _ = oracle_desk(starred, q.structure)
        checks.append({"cover": cell["cover"], "eps": cell["eps"],
                       "relaxed_witness": cell["witness"],
                       "strict_at_star": bad_union <= starred, "star_desk_wb": wb})
    return tuple(checks)


def oracle_ls_membership(q):
    space = q.structure.space
    hits, fail = oracle_star_condition(q.cover, q.structure)
    if fail is not None:
        return CheckReport("ls_membership", False, counterexample=fail,
                           truncation=truncation_label(space))
    masks = oracle_masks(space, oracle_witness_space(q.structure))
    if space.filtration is not None:
        bases = [("K%d" % (i + 1), k) for i, k in enumerate(space.filtration.levels)]
    else:
        bases = [("empty", frozenset())]
    witnesses = [{"condition": 1, "stars": hits}]
    for fname, fvals in zip(q.catalogue.names, q.catalogue.values):
        for eps in q.eps_grid:
            pairs = oracle_heavy_pairs(fvals, q.cover.elements, eps)
            xs = np.fromiter((p[1] for p in pairs), dtype=np.int64)
            ys = np.fromiter((p[2] for p in pairs), dtype=np.int64)
            for bname, base in bases:
                hit = next((wname for wname, s, mask in masks
                            if base <= s and (not xs.size
                                              or bool((mask[xs] | mask[ys]).all()))),
                           None)
                if hit is None:
                    surv = next((oracle_pair_entry(space, q.cover, k, x, y, gap)
                                 for k, x, y, gap in pairs
                                 if all(not (m[x] or m[y]) for _, s, m in masks
                                        if base <= s)), None)
                    return CheckReport(
                        "ls_membership", False, witnesses=tuple(witnesses),
                        counterexample={"condition": 2, "function": fname,
                                        "eps": eps, "window": bname,
                                        "surviving": surv},
                        truncation=truncation_label(space))
                witnesses.append({"condition": 2, "function": fname,
                                  "eps": eps, "window": bname, "witness": hit})
    return CheckReport("ls_membership", True, witnesses=tuple(witnesses),
                       truncation=truncation_label(space))


def payload_bytes(report):
    return report.to_json().encode()


@st.composite
def carriers(draw):
    """Points p0.. with, half the time, a chain of windows, and a bounded
    structure from a few random generators."""
    n = draw(st.integers(2, 7))
    filtration = None
    if draw(st.booleans()):
        order = draw(st.permutations(range(n)))
        cuts = sorted(draw(st.sets(st.integers(1, n), min_size=1, max_size=3)))
        filtration = Filtration(tuple(frozenset(order[:c]) for c in cuts))
    space = Space(["p%d" % i for i in range(n)], filtration=filtration)
    gens = draw(st.lists(st.frozensets(st.integers(0, n - 1), min_size=1),
                         max_size=3))
    return space, BoundedStructure(space, gens)


def values(draw, n):
    """Small integers, now and then plus i, so that gaps tie and sit exactly
    on the eps grid."""
    re = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    im = draw(st.lists(st.sampled_from([0, 0, 0, 1]), min_size=n, max_size=n))
    return np.array(re, dtype=float) + 1j * np.array(im, dtype=float)


eps_grids = st.sets(st.sampled_from([2.5, 2.0, 1.0, 0.5]), min_size=1,
                    max_size=3).map(lambda xs: tuple(sorted(xs, reverse=True)))


@st.composite
def so_queries(draw):
    space, structure = draw(carriers())
    covers = draw(st.lists(element_lists(space.n), min_size=1, max_size=2))
    base = tuple(Cover(space, els, name="u%d" % i) for i, els in enumerate(covers))
    return SOQuery(values(draw, space.n), base, draw(eps_grids), structure)


@st.composite
def ls_queries(draw):
    space, structure = draw(carriers())
    cover = Cover(space, draw(element_lists(space.n)), name="u")
    k = draw(st.integers(1, 2))
    fam = FunctionFamily(space, ["g%d" % i for i in range(k)],
                         [values(draw, space.n) for _ in range(k)])
    return LSQuery(cover, structure, fam, draw(eps_grids))


def assert_so_matches_oracle(q):
    for cov in q.base:
        assert np.array_equal(element_diameters(q.f, cov),
                              oracle_diameters(q.f, cov.elements))
        for eps in q.eps_grid:
            pairs = heavy_pairs(q.f, cov, eps)
            assert pairs.tolist() == oracle_heavy_pairs(q.f, cov.elements, eps)
    modes = []
    for form in ("strict", "relaxed"):
        got = is_slowly_oscillating(q, form)
        assert payload_bytes(got) == payload_bytes(oracle_slowly_oscillating(q, form))
        modes.append(got.counterexample and got.counterexample["mode"])
    rr = is_slowly_oscillating(q, "relaxed")
    assert equivalence_test(q).witnesses == oracle_equivalence_checks(q, rr)
    return modes


@SEEDED
@given(so_queries())
def test_slow_oscillation_matches_oracle(q):
    assert_so_matches_oracle(q)


@SEEDED
@given(ls_queries())
def test_ls_membership_matches_oracle(q):
    assert payload_bytes(ls_membership(q)) == payload_bytes(oracle_ls_membership(q))


# -- the pair stream: heavy pairs and value diameters from one generator ------

@st.composite
def pair_stream_cases(draw):
    """A cover of singletons, of one element holding every point, or of
    random elements of mixed sizes, with real, complex or vector values.  Up
    to 12 points, so that a chunk of 7 pairs splits an element."""
    n = draw(st.integers(1, 12))
    shape = draw(st.sampled_from(["singletons", "whole", "mixed"]))
    if shape == "singletons":
        elements = [[i] for i in draw(st.permutations(range(n)))]
    elif shape == "whole":
        elements = [range(n)]
    else:
        elements = draw(element_lists(n))
    kind = draw(st.sampled_from(["real", "complex", "vector"]))
    if kind == "vector":
        f = np.array(draw(st.lists(st.sampled_from(WEIGHT_ROWS), min_size=n,
                                   max_size=n)))
    else:
        f = values(draw, n)
        f = f.real.copy() if kind == "real" else f
    return Cover(builder_line(n - 1, 1.0), elements, name="u"), f


STREAM_EPS = (2.5, 2.0, 1.0, 0.5, 0.25)


@SEEDED
@given(pair_stream_cases(), st.sampled_from([model.PAIR_CHUNK, 1, 7]))
def test_pair_stream_matches_oracle(case, chunk):
    cover, f = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(model, "PAIR_CHUNK", chunk)
        assert np.array_equal(element_diameters(f, cover),
                              oracle_diameters(f, cover.elements))
        pool = heavy_pairs(f, cover, STREAM_EPS[-1])
        for eps in STREAM_EPS:
            pairs = heavy_pairs(f, cover, eps)
            assert pairs.tolist() == oracle_heavy_pairs(f, cover.elements, eps)
            assert pool[pool["gap"] > eps].tobytes() == pairs.tobytes()


def test_pair_stream_memory_stays_flat():
    import tracemalloc
    cover = Cover(builder_line(2000, 1.0), [range(2001)], name="whole")
    f = np.zeros(2001)
    cover.rows  # the point lists are the cover's, built with it
    for run in (lambda: heavy_pairs(f, cover, 0.5),
                lambda: element_diameters(f, cover)):
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one 2001 x 2001 complex gap table alone takes 61 MB
        assert peak < 16 * 2 ** 20


def so_case(n, gens, elements, f, levels=None):
    filtration = Filtration(tuple(map(frozenset, levels))) if levels else None
    space = Space(["p%d" % i for i in range(n)], filtration=filtration)
    return SOQuery(np.asarray(f, dtype=float), (Cover(space, elements, name="u"),),
                   (0.5,), BoundedStructure(space, gens))


# each refutation mode of each form, built by hand: (strict mode, relaxed mode)
REFUTATIONS = {
    # one element spans every witness; the lone heavy point kills both pairs
    "strict-element": (so_case(3, [], [[0, 1, 2]], [0, 0, 1]),
                       ("element survives every witness", None)),
    # each component swallows one heavy element and misses the other
    "no-single-witness": (so_case(4, [[0, 1], [2, 3]], [[0, 1], [2, 3]],
                                  [0, 1, 0, 1]),
                          ("no single witness", "no single witness")),
    # points 3 and 4 form a component past every window, so no witness
    # reaches the heavy pair (3, 4)
    "relaxed-pair": (so_case(5, [[3, 4]], [[3, 4]], [0, 0, 0, 0, 1],
                             levels=[[0], [0, 1, 2]]),
                     ("element survives every witness",
                      "pair survives every witness")),
}


@pytest.mark.parametrize("name", sorted(REFUTATIONS))
def test_each_refutation_mode_matches_oracle(name):
    q, want = REFUTATIONS[name]
    assert tuple(assert_so_matches_oracle(q)) == want


# -- spreads: the per-site loops the kernel replaced ------------------------------

def oracle_diam(d, el):
    idx = sorted(el)
    if len(idx) <= 1:
        return 0.0
    return float(np.max(d[np.ix_(idx, idx)]))


def oracle_sup_diameter(cover):
    d = dense_table(cover.space)
    return max(oracle_diam(d, el) for el in cover.elements)


def oracle_extreme_pairs(cover, space):
    out = []
    for k, el in enumerate(cover.elements):
        idx = np.fromiter(sorted(el), dtype=np.int64)
        if idx.size < 2:
            continue
        sub = dense_table(space)[np.ix_(idx, idx)]
        i, j = np.unravel_index(int(sub.argmax()), sub.shape)
        if sub[i, j] > 0:
            x, y = int(idx[i]), int(idx[j])
            out.append((k, min(x, y), max(x, y), float(sub[i, j])))
    return out


def oracle_spread(f, el):
    vals = f[np.fromiter(el, dtype=np.int64)]
    return float(np.abs(vals[:, None] - vals[None, :]).max())


def oracle_row_jump(weights, el):
    rows = weights[np.fromiter(el, dtype=np.int64)]
    return float(np.abs(rows[:, None, :] - rows[None, :, :]).sum(axis=2).max())


def oracle_first_scales(jump, base, eps_grid, name, reason, space):
    witnesses = []
    for e in eps_grid:
        hit = next((cov.name for cov in base.covers
                    if all(jump(el) <= e for el in cov.elements)), None)
        if hit is None:
            return CheckReport(name, False, witnesses=tuple(witnesses),
                               counterexample={"eps": e, "reason": reason},
                               truncation=truncation_label(space)), None
        witnesses.append({"eps": e, "cover": hit})
    return None, witnesses


def oracle_is_ss_continuous(f, base, eps_grid):
    fail, witnesses = oracle_first_scales(
        lambda el: oracle_spread(f, el), base, eps_grid, "ss_continuous",
        "no base scale keeps the spread inside eps", base.space)
    if fail is not None:
        return fail
    return CheckReport("ss_continuous", True, witnesses=tuple(witnesses),
                       truncation=truncation_label(base.space))


def oracle_ssp_witness_check(phi, base, u, eps_grid):
    fail, witnesses = oracle_first_scales(
        lambda el: oracle_row_jump(phi.weights, el), base, eps_grid, "ssp_witness",
        "weight rows jump past eps on every scale", phi.space)
    if fail is not None:
        return fail
    sub = smaller_or_equal(pou_support(phi), u)
    notes = () if sub else ("support cover is not smaller than the target",)
    return CheckReport("ssp_witness", sub,
                       witnesses=tuple(witnesses) + ({"supports_smaller": sub},),
                       notes=notes, truncation=truncation_label(phi.space))


def oracle_small_scale_pair(f, space, fine, eps):
    for el in fine.elements:
        idx = np.fromiter(sorted(el), dtype=np.int64)
        if idx.size < 2:
            continue
        vals = f[idx]
        gaps = np.abs(vals[:, None] - vals[None, :])
        if gaps.max() > eps:
            i, j = np.unravel_index(int(gaps.argmax()), gaps.shape)
            return {"small_scale_pair": [space.points[idx[i]], space.points[idx[j]]],
                    "small_scale_gap": fmt_value(float(gaps[i, j]))}
    return {}


def oracle_s0_classify(f, name, b, ss_base, ls_base, eps_grid):
    space = b.space
    rss = oracle_is_ss_continuous(f, ss_base, eps_grid)
    rso = oracle_slowly_oscillating(SOQuery(f, ls_base.covers, eps_grid, b, name=name),
                                    "strict")
    cases = {(True, True): "both regimes: doubly controlled",
             (False, True): "slowly oscillating but jumps at small scale",
             (True, False): "small-scale continuous but oscillates at infinity",
             (False, False): "controlled at neither scale"}
    cx = {}
    if not rss.status:
        cx.update(oracle_small_scale_pair(f, space, ss_base.covers[-1],
                                          rss.counterexample["eps"]))
    if not rso.status:
        cx["large_scale"] = rso.counterexample
    return CheckReport("s0_classify[%s]" % name, rss.status and rso.status,
                       witnesses=({"ss_continuous": rss.status,
                                   "slowly_oscillating": rso.status,
                                   "case": cases[(rss.status, rso.status)]},),
                       counterexample=cx or None, truncation=truncation_label(space))


def oracle_pseudometric(values):
    return np.abs(values[:, :, None] - values[:, None, :]).max(axis=0)


def oracle_stone_weierstrass(fam, probe, name):
    probe = np.asarray(probe, dtype=complex)
    blocks = separation_blocks(fam)
    sep_pair = None
    for blk in blocks:
        idx = sorted(blk)
        vals = probe[np.fromiter(idx, dtype=np.int64)]
        gaps = np.abs(vals[:, None] - vals[None, :])
        if gaps.max() > 0:
            i, j = np.unravel_index(int(gaps.argmax()), gaps.shape)
            sep_pair = (idx[i], idx[j], float(gaps[i, j]))
            break
    block_constant = sep_pair is None
    d = oracle_pseudometric(fam.values)
    pos = d[d > 0]
    delta = 0.5 * float(pos.min()) if pos.size else 1.0
    ball_route = all(oracle_spread(probe, el) == 0 for el in oracle_balls(d, delta))
    notes = []
    if not fam.is_unital:
        notes.append("family is not unital")
    if not fam.conjugation_closed:
        notes.append("family is not conjugation closed")
    if block_constant != ball_route:
        notes.append("block route and ball route disagree")
    witnesses = ({"blocks": [sorted(fam.space.points[i] for i in blk) for blk in blocks],
                  "delta": fmt_value(delta), "block_constant": block_constant,
                  "ball_route": ball_route},)
    cx = None
    if sep_pair is not None:
        x, y, gap = sep_pair
        cx = {"pair": [fam.space.points[x], fam.space.points[y]],
              "d_F": 0.0, "probe_gap": fmt_value(gap)}
    return CheckReport("stone_weierstrass[%s]" % name,
                       block_constant and ball_route == block_constant,
                       witnesses=witnesses, counterexample=cx, notes=tuple(notes))


def oracle_sub_diam(space, el, removed):
    keep = sorted(el - removed)
    if len(keep) < 2:
        return 0.0
    idx = np.fromiter(keep, dtype=np.int64)
    return float(dense_table(space)[np.ix_(idx, idx)].max())


def oracle_wright_c0(cover, space):
    levels = space.filtration.levels
    top = levels[-1]
    notes = []
    over = [k for k, el in enumerate(cover.elements) if not el <= top]
    if over:
        notes.append("%d elements reach past the top window; smallness out "
                     "there is taken on trust" % len(over))
    witnesses = []
    for eps in (1.0, 0.5, 0.25):
        hit = next((j for j, k in enumerate(levels)
                    if all(oracle_sub_diam(space, el, k) < eps
                           for el in cover.elements)), None)
        if hit is None:
            k = levels[-1]
            viol = next(kk for kk, el in enumerate(cover.elements)
                        if oracle_sub_diam(space, el, k) >= eps)
            return CheckReport(
                "wright_c0", False, witnesses=tuple(witnesses),
                counterexample={"eps": eps, "element": cover.labels()[viol],
                                "diam_past_top": fmt_value(
                                    oracle_sub_diam(space, cover.elements[viol], k)),
                                "reason": "no window thins the family below eps"},
                notes=tuple(notes), truncation=truncation_label(space))
        witnesses.append({"eps": eps, "window": "K%d" % (hit + 1)})
    return CheckReport("wright_c0", True, witnesses=tuple(witnesses),
                       notes=tuple(notes), truncation=truncation_label(space))


def oracle_mesh(cover):
    """The candidate scan, on sets: the first candidate radius whose balls
    absorb every star of the cover, stepped back by one candidate."""
    space = cover.space
    cands = distance_candidates(space)
    elements = oracle_cover(space.n, cover.elements)
    stars = tuple(oracle_star(e, elements) for e in elements)

    def passes(m):
        return oracle_refines(stars, oracle_balls(dense_table(space), m))

    if not cands:
        return 0.0
    if not passes(cands[-1] * 2.0 + 1.0):
        return np.inf
    prev = 0.0
    for m in cands:
        if passes(m):
            return prev
        prev = m
    return prev


def oracle_ladder(d, radii, label):
    return [("%s(%s)" % (label, fmt_value(r)), oracle_balls(d, r)) for r in radii]


def ladder_of(base):
    return [(c.name, c.elements) for c in base.covers]


# small integer distances tie and sit on the eps grid; inf splits the carrier
DISTANCES = st.sampled_from([0.0, 1.0, 1.0, 2.0, 3.0, np.inf])


@st.composite
def metric_carriers(draw, windows=None):
    """Points p0.. with a random pseudometric table (triangle inequality not
    required), and windows half the time (always when ``windows``)."""
    n = draw(st.integers(2, 8))
    d = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            d[i, j] = d[j, i] = draw(DISTANCES)
    filtration = None
    if windows or (windows is None and draw(st.booleans())):
        order = draw(st.permutations(range(n)))
        cuts = sorted(draw(st.sets(st.integers(1, n), min_size=1, max_size=3)))
        filtration = Filtration(tuple(frozenset(order[:c]) for c in cuts))
    return Space(["p%d" % i for i in range(n)], metric=d, filtration=filtration)


@st.composite
def metric_covers(draw, windows=None):
    space = draw(metric_carriers(windows))
    return Cover(space, draw(element_lists(space.n)), name="u")


@st.composite
def scale_bases(draw, space, k=2):
    covers = draw(st.lists(element_lists(space.n), min_size=1, max_size=k))
    return ScaleBase(space, tuple(Cover(space, els, name="s%d" % i)
                                  for i, els in enumerate(covers)))


any_eps = st.lists(st.sampled_from([2.0, 1.0, 0.5, 0.25]), min_size=1, max_size=3)


@SEEDED
@given(metric_covers())
def test_metric_spreads_match_oracle(cover):
    space = cover.space
    assert sup_diameter(cover) == oracle_sup_diameter(cover)
    assert _extreme_pairs(cover, space) == oracle_extreme_pairs(cover, space)
    for el in cover.elements:
        assert space.diam(el) == oracle_diam(dense_table(space), el)


@SEEDED
@given(metric_covers())
def test_mesh_matches_candidate_scan(cover):
    assert mesh(cover) == oracle_mesh(cover)


def oracle_mesh_stars(cover):
    """The per-star generator the blocked scan replaced: one ``d[:, s]``
    gather per distinct star."""
    d = dense_table(cover.space)
    if not ((d > 0) & np.isfinite(d)).any():
        return 0.0
    stars = {s.tobytes(): s for s in star_family(cover, cover).rows.lists()}
    return float(max(d[:, s].max(axis=1).min() for s in stars.values()))


@SEEDED
@given(metric_covers(), st.sampled_from([model.CHUNK_BYTES, 64, 200]))
def test_mesh_matches_the_star_generator(cover, chunk):
    # DISTANCES holds inf, element_lists repeats elements (so stars repeat);
    # a chunk of 64 bytes takes one star and one point per step, 200 a few
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(model, "CHUNK_BYTES", chunk)
        assert mesh(cover) == oracle_mesh_stars(cover)


@pytest.mark.parametrize("chunk", [64, 200, model.CHUNK_BYTES])
def test_mesh_of_mixed_star_widths(chunk):
    # stars of 1 to 60 points in one block, some repeated, on a line with an
    # infinitely far point
    space = builder_line(59, 1.0)
    d = dense_table(space)
    d[-1, :-1] = d[:-1, -1] = np.inf
    space = Space(space.points, metric=d)
    els = [frozenset(range(k, min(59, k + w))) for k, w in
           ((0, 1), (3, 40), (3, 40), (10, 2), (20, 59), (50, 9))] + [frozenset({59})]
    cover = Cover(space, els + [frozenset({k}) for k in range(59)])
    # a star that holds the far point and a near one is infinitely wide
    bridged = Cover(space, els + [frozenset({58, 59})] + [frozenset({k}) for k in range(59)])
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(model, "CHUNK_BYTES", chunk)
        assert mesh(cover) == oracle_mesh_stars(cover) == 28.0
        assert mesh(bridged) == oracle_mesh_stars(bridged) == np.inf


def test_mesh_memory_stays_within_a_few_chunks(monkeypatch):
    import tracemalloc
    monkeypatch.setattr(model, "CHUNK_BYTES", 1 << 16)
    cover = ball_cover(builder_line(499, 1.0), 50.0)
    stars = star_family(cover, cover).rows
    lists = stars.columns.nbytes + stars.starts.nbytes
    assert mesh(cover) == oracle_mesh_stars(cover)
    tracemalloc.start()
    try:
        mesh(cover)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the star lists, their unpacking and a gather; one 199-point star
    # gathered whole takes 0.8 MB
    assert peak < lists + 12 * model.CHUNK_BYTES


def oracle_lebesgue(cover):
    """The candidate scan, on sets: distances and their midpoints upward
    until the first radius whose balls' stars miss the cover."""
    space = cover.space
    cands = distance_candidates(space)
    elements = oracle_cover(space.n, cover.elements)

    def passes(lam):
        balls = oracle_balls(dense_table(space), lam)
        return oracle_refines(tuple(oracle_star(b, balls) for b in balls), elements)

    if not cands or passes(cands[-1] * 2.0 + 1.0):
        return np.inf
    best = 0.0
    for lam in cands:
        if not passes(lam):
            break
        best = lam
    return best


@SEEDED
@given(metric_covers())
def test_lebesgue_matches_candidate_scan(cover):
    space = cover.space
    loose = np.flatnonzero(~cover.matrix.any(axis=0))
    if loose.size:  # a scale is needed: the uncovered points join as one element
        cover = Cover(space, cover.elements + (frozenset(loose.tolist()),))
    got = lebesgue_number(cover)
    assert got == oracle_lebesgue(cover)
    assert isinstance(got, float)


@SEEDED
@given(metric_covers(windows=True))
def test_wright_c0_matches_oracle(cover):
    got = wright_c0_check(cover, cover.space)
    assert payload_bytes(got) == payload_bytes(oracle_wright_c0(cover, cover.space))


# -- window checks: the depth vector against the level scans it replaced -------

def oracle_maximal_structure(cover, b):
    space = b.space
    levels = space.filtration.levels
    top = levels[-1]
    notes = []
    over = sum(1 for el in cover.elements if not el <= top)
    if over:
        notes.append("%d elements reach past the top window" % over)
    witnesses = []
    for name, probe in oracle_star_probes(b):
        st_ = oracle_star(probe, cover.elements)
        home = next((j for j, k in enumerate(levels) if st_ <= k), None)
        if home is None:
            spill = sorted(st_ - top)
            return CheckReport(
                "maximal_structure", False, witnesses=tuple(witnesses),
                counterexample={"probe": name,
                                "spill": [space.points[i] for i in spill[:4]],
                                "reason": "star fits no window"},
                notes=tuple(notes), truncation=truncation_label(space))
        witnesses.append({"probe": name, "home": "K%d" % (home + 1)})
    return CheckReport("maximal_structure", True, witnesses=tuple(witnesses),
                       notes=tuple(notes), truncation=truncation_label(space))


def oracle_continuously_controlled(cover, b):
    space = b.space
    hits, fail = oracle_star_condition(cover, b)
    if fail is not None:
        return CheckReport("continuously_controlled", False, counterexample=fail,
                           truncation=truncation_label(space))
    levels = space.filtration.levels
    outside = [frozenset(range(space.n)) - k for k in levels]
    witnesses = [{"condition": 1, "stars": hits}]
    for i in range(len(levels) - 1):
        inner = levels[i]
        hit = next((j for j in range(i, len(levels))
                    if all(not (el & outside[j] and el & inner)
                           for el in cover.elements)), None)
        if hit is None:
            viol = next(k for k, el in enumerate(cover.elements)
                        if el & outside[-1] and el & inner)
            return CheckReport(
                "continuously_controlled", False, witnesses=tuple(witnesses),
                counterexample={"condition": 2, "window": "K%d" % (i + 1),
                                "element": cover.labels()[viol],
                                "reason": "element bridges the window and the "
                                          "far region at every depth"},
                truncation=truncation_label(space))
        witnesses.append({"condition": 2, "window": "K%d" % (i + 1),
                          "depth": "K%d" % (hit + 1)})
    return CheckReport("continuously_controlled", True, witnesses=tuple(witnesses),
                       truncation=truncation_label(space))


def oracle_st_weakly_bounded(subset, cover, b, ls_base):
    space = b.space
    if not uniformly_bounded(cover, ls_base):
        raise InstanceError("cover is not uniformly bounded in the given base")
    s = frozenset(subset)
    st_ = oracle_star(s, cover.elements)
    generated = oracle_partitions(b)[0]
    literal = all(oracle_is_member(generated, t) for _, t in oracle_traces(generated, st_))
    desk, detail = oracle_desk(st_, b)
    ids = generated[1]
    straddler = next((k for k, el in enumerate(cover.elements)
                      if len({ids[x] for x in el}) > 1), None)
    identity = None
    if straddler is None:
        identity = all(st_ & comp == (oracle_star(s & comp, cover.elements)
                                      if s & comp else frozenset())
                       for comp in generated[0])
    notes = []
    if straddler is not None:
        notes.append("component identity skipped: element %d straddles" % straddler)
    levels = space.filtration.levels if space.filtration is not None else ()
    level_home = next(("K%d" % (i + 1) for i, k in enumerate(levels) if st_ <= k), None)
    status = literal and desk and (identity is not False)
    return CheckReport(
        "st_weakly_bounded_test", status,
        witnesses=({"star_size": len(st_), "star_inside": level_home,
                    "componentwise_identity": identity,
                    "desk_detail": detail},),
        counterexample=None if status else {"desk_detail": detail,
                                            "componentwise_identity": identity},
        notes=tuple(notes), truncation=truncation_label(space))


def oracle_proper_hss(b, covers):
    probes = oracle_star_probes(b)
    generated = oracle_partitions(b)[0]
    last_fail = None
    for ci, u in enumerate(covers):
        ok = True
        for pname, p in probes:
            st_ = oracle_star(p, u.elements)
            if not oracle_is_member(generated, st_):
                ok = False
                last_fail = {"cover": ci, "probe": pname, "star_size": len(st_)}
                break
        if ok:
            return CheckReport("proper_hss_test", True,
                               witnesses=({"cover": ci, "probes": len(probes)},),
                               truncation=truncation_label(b.space))
    return CheckReport("proper_hss_test", False, counterexample=last_fail,
                       truncation=truncation_label(b.space))


def oracle_lemma_wb(f, b_x, b_y):
    f = np.asarray(f, dtype=np.int64)
    proper = check_proper(f, b_x, b_y)
    img_ok, img_bad = _bounded_image(f, b_x, b_y)
    notes = ["literal weak boundedness is automatic on finite generated "
             "families; the desk certificate carries the content"]
    label = truncation_label(b_x.space)
    if proper.status and img_ok:
        generated = oracle_partitions(b_x)[0]
        checked = 0
        for wname, w in oracle_witness_space(b_y):
            if not oracle_desk(w, b_y)[0]:
                continue
            pre = frozenset(np.flatnonzero(np.isin(f, sorted(w))).tolist())
            if not all(oracle_is_member(generated, t) for _, t in oracle_traces(generated, pre)):
                return CheckReport("lemma_wb_test", False,
                                   counterexample={"witness": wname,
                                                   "reason": "literal conclusion fails"},
                                   truncation=label)
            ok_x, detail = oracle_desk(pre, b_x)
            if not ok_x:
                return CheckReport("lemma_wb_test", False,
                                   counterexample={"witness": wname, "desk_detail": detail},
                                   truncation=label)
            checked += 1
        return CheckReport("lemma_wb_test", True,
                           witnesses=({"hypotheses": "proper+bounded-image",
                                       "witnesses_checked": checked},),
                           notes=tuple(notes), truncation=label)
    wb_y, _ = oracle_desk(range(b_y.space.n), b_y)
    wb_x, detail_x = oracle_desk(range(b_x.space.n), b_x)
    notes.append("hypothesis failed: %s" % (
        "image of a bounded set escapes" if proper.status else "map not proper"))
    return CheckReport(
        "lemma_wb_test", True,
        witnesses=({"hypothesis_proper": proper.status,
                    "hypothesis_bounded_image": img_ok,
                    "image_failure": img_bad,
                    "carrier_desk_wb_in_codomain": wb_y,
                    "carrier_preimage_desk_wb_in_domain": wb_x,
                    "domain_desk_detail": detail_x},),
        notes=tuple(notes), truncation=label)


def oracle_reflectivity(cover, b, ls_base, catalogue, eps_grid):
    space = b.space
    if uniformly_bounded(cover, ls_base):
        return CheckReport("reflectivity_oracle", True,
                           witnesses=({"verdict": "MEMBER-CONSISTENT",
                                       "route": "uniform boundedness precheck"},),
                           notes=("membership consistent without a witness search",),
                           truncation=truncation_label(space))
    hits, fail = oracle_star_condition(cover, b)
    if fail is not None:
        confirm = oracle_ls_membership(LSQuery(cover, b, catalogue, eps_grid))
        return CheckReport("reflectivity_oracle", False,
                           witnesses=({"verdict": "NOT-MEMBER", "route": "unbounded star"},),
                           counterexample={**fail, "membership_confirms": not confirm.status},
                           truncation=truncation_label(space))
    picks = []
    k = 1
    for _, x, y, dist in oracle_extreme_pairs(cover, space):
        if dist >= 2 * k and all(space.d[x, px] > pr + k and space.d[y, px] >= pr
                                 and space.d[py, x] >= k for px, py, pr in picks):
            picks.append((x, y, k))
            k += 1
    if not picks:
        return CheckReport("reflectivity_oracle", True,
                           witnesses=({"verdict": "INCONCLUSIVE",
                                       "route": "no separated wide pairs"},),
                           truncation=truncation_label(space))
    refuter = build_scaled_refuter(space, [p[0] for p in picks], [p[2] for p in picks])
    refuted = all(any(x not in s and y not in s for x, y, _ in picks)
                  for _, s in oracle_witness_space(b))
    pick_view = [{"pair": [space.points[x], space.points[y]], "radius": r}
                 for x, y, r in picks]
    if not refuted:
        return CheckReport("reflectivity_oracle", True,
                           witnesses=({"verdict": "INCONCLUSIVE",
                                       "route": "tents absorbed by the window ladder",
                                       "picks": pick_view},),
                           truncation=truncation_label(space))
    cat2 = FunctionFamily(space, tuple(catalogue.names) + ("tent_refuter",),
                          np.vstack([catalogue.values, refuter.reshape(1, -1)]))
    confirm = oracle_ls_membership(LSQuery(cover, b, cat2, eps_grid))
    notes = ["eps grid never drops below the tent height"] if min(eps_grid) >= 1 else []
    return CheckReport("reflectivity_oracle", False,
                       witnesses=({"verdict": "NOT-MEMBER",
                                   "route": "tent refuter", "picks": pick_view},),
                       counterexample={"membership_confirms": not confirm.status,
                                       "detail": confirm.counterexample},
                       notes=tuple(notes), truncation=truncation_label(space))


def oracle_theorem75_notes(b, fam):
    space = b.space
    levels = space.filtration.levels
    far = (sorted(frozenset(range(space.n)) - levels[-2]) if len(levels) > 1
           else list(range(space.n)))
    tail = max(float(oracle_gaps(row[far]).max()) for row in fam.values)
    return ("catalogue tail variation %s past K%d" % (fmt_value(tail), len(levels) - 1),)


def oracle_bump_refuter(space, centers, eps):
    if space.d is None:
        raise InstanceError("refuters need a metric")
    if eps <= 0:
        raise InstanceError("eps must be positive")
    centers = [int(c) for c in centers]
    if not centers or len(set(centers)) != len(centers):
        raise InstanceError("centers must be distinct and nonempty")
    for i, a in enumerate(centers):
        for b in centers[i + 1:]:
            if space.d[a, b] <= 2 * eps:
                raise InstanceError("centers %s and %s are within 2*eps"
                                    % (space.points[a], space.points[b]))
    if space.filtration is not None and len(space.filtration.levels) > 1:
        for j, k in enumerate(space.filtration.levels[:-1]):
            if all(c in k for c in centers):
                raise InstanceError("centers do not escape window K%d" % (j + 1))
    return reduce(np.maximum, (_ball_bump(space, c, eps) for c in centers), np.zeros(space.n))


def same_report(got, want):
    assert payload_bytes(got) == payload_bytes(want)


def same_outcome(call, oracle, same=same_report):
    """Both raise an InstanceError with the same message, or both give
    results that are ``same``: reports of the same bytes by default."""
    try:
        want = oracle()
    except InstanceError as exc:
        with pytest.raises(InstanceError, match="^%s$" % re.escape(str(exc))):
            call()
        return
    same(call(), want)


def assert_window_checks_match(cover, b, fam, eps_grid, subsets):
    """Every rewritten window scan against its frozenset oracle on one
    cover of one structure; ``subsets`` feed the desk and star tests."""
    space = b.space
    generated, ideal = oracle_partitions(b)
    for got, want in ((b.components(), generated), (b.ideal_components(), ideal)):
        assert got.components == want[0] and got.ids.tolist() == list(want[1])
    names, rows = witness_space(b)
    want = oracle_witness_space(b)
    assert names == tuple(nm for nm, _ in want)
    assert [frozenset(np.flatnonzero(r).tolist()) for r in rows] == [w for _, w in want]
    probes = [oracle_star(p, cover.elements) for _, p in oracle_star_probes(b)]
    for s in list(subsets) + probes + [w for _, w in want]:
        assert desk_weakly_bounded(s, b) == oracle_desk(s, b)
    filtered = space.filtration is not None
    if space.d is not None:
        ls_base = metric_ls_base(space, (1.0, 3.0, 9.0))
        ss_base = metric_ss_base(space, (3.0, 1.0, 1.0 / 3))
    else:
        ls_base = ScaleBase(space, (Cover(space, [range(space.n)]),))
        ss_base = ScaleBase(space, (Cover(space, np.eye(space.n, dtype=bool)),))
    for s in subsets:
        same_outcome(lambda: st_weakly_bounded_test(s, cover, b, ls_base),
                     lambda: oracle_st_weakly_bounded(s, cover, b, ls_base))
    checks = [(maximal_structure_check, oracle_maximal_structure),
              (continuously_controlled_check, oracle_continuously_controlled)]
    for check, oracle in checks:
        if filtered:
            same_report(check(cover, b), oracle(cover, b))
        else:
            with pytest.raises(InstanceError):
                check(cover, b)
    if filtered and space.d is not None:
        same_report(wright_c0_check(cover, space), oracle_wright_c0(cover, space))
    q = LSQuery(cover, b, fam, eps_grid)
    same_report(ls_membership(q), oracle_ls_membership(q))
    same_report(proper_hss_test(b, ss_base), oracle_proper_hss(b, ss_base.covers))
    pairs = [(b, b)] + ([(b, from_filtration(space)), (from_filtration(space), b)]
                        if filtered else [])
    for f in (np.arange(space.n), np.minimum(np.arange(space.n) * 2, space.n - 1)):
        for b_x, b_y in pairs:
            same_report(lemma_wb_test(f, b_x, b_y), oracle_lemma_wb(f, b_x, b_y))
    # radius-1 balls hold no wide element, so the refuting branches run
    if space.d is not None:
        points = metric_ls_base(space, (1.0,))
        same_report(reflectivity_oracle(cover, b, points, fam, eps_grid),
                    oracle_reflectivity(cover, b, points, fam, eps_grid))
    if filtered and fam.constant_at_infinity and space.d is not None:
        rep = theorem75_agreement([("u", cover)], b, fam, eps_grid)
        assert rep.notes == oracle_theorem75_notes(b, fam)
        assert rep.witnesses == ({"cover": "u",
                                  "induced": oracle_ls_membership(q).status,
                                  "controlled": oracle_continuously_controlled(cover, b).status},)
    for centers in ([0], [space.n - 1], [0, space.n - 1]) if space.d is not None else ():
        same_outcome(lambda: build_bump_refuter(space, centers, 0.25),
                     lambda: oracle_bump_refuter(space, centers, 0.25),
                     lambda got, want: np.testing.assert_array_equal(got, want))


WINDOWED = [(name, cover) for name in ("truncnat", "halfline")
            for cover in sorted(bundled(name)[1].covers)]


@pytest.mark.parametrize("name,cover", WINDOWED, ids=["-".join(c) for c in WINDOWED])
def test_window_checks_match_oracle_on_bundled(name, cover):
    space, cat = bundled(name)
    b = from_filtration(space)
    tagged = cat.tags["constant_at_infinity"]
    fam = cat.family(space, tagged if name == "truncnat" else tuple(cat.functions)[:2])
    windows = space.filtration.levels
    subsets = [frozenset(), windows[0], windows[1], frozenset({space.n - 1}),
               frozenset({0, space.n - 1}), frozenset(range(space.n))]
    assert_window_checks_match(cat.covers[cover], b, fam, (1.0, 0.5, 0.25), subsets)


@st.composite
def windowed_cases(draw):
    """Points p0.. with a random pseudometric (inf splits the ideal
    components; now and then no metric, when the generated components are
    the ideal ones), 1 to 4 windows (none now and then), a structure from
    the windows or from random generators, a cover whose elements may reach
    past the top window, a catalogue and a few subsets."""
    n = draw(st.integers(1, 12))
    d = None
    if draw(st.integers(0, 3)):
        d = np.zeros((n, n))
        for i in range(n):
            for j in range(i + 1, n):
                d[i, j] = d[j, i] = draw(DISTANCES)
    filtration = None
    if draw(st.integers(0, 4)):
        order = draw(st.permutations(range(n)))
        count = draw(st.integers(1, min(n, 4)))
        cuts = sorted(draw(st.sets(st.integers(1, n), min_size=count, max_size=count)))
        filtration = Filtration(tuple(frozenset(order[:c]) for c in cuts))
    space = Space(["p%d" % i for i in range(n)], metric=d, filtration=filtration)
    if filtration is not None and draw(st.booleans()):
        b = from_filtration(space)
    else:
        b = BoundedStructure(space, draw(st.lists(
            st.frozensets(st.integers(0, n - 1), min_size=1), max_size=3)))
    cover = Cover(space, draw(element_lists(n)), name="u")
    k = draw(st.integers(1, 2))
    fam = FunctionFamily(space, ["g%d" % i for i in range(k)],
                         [values(draw, n) for _ in range(k)],
                         constant_at_infinity=draw(st.booleans()))
    subsets = [frozenset()] + draw(st.lists(st.frozensets(st.integers(0, n - 1)),
                                            max_size=3))
    return cover, b, fam, draw(eps_grids), subsets


@settings(SEEDED, max_examples=150)
@given(windowed_cases())
def test_window_checks_match_oracle(case):
    assert_window_checks_match(*case)


def test_empty_star_lands_in_the_first_window():
    space, cat = bundled("truncnat")
    b = from_filtration(space)
    cover = cat.covers["tens"]
    base = metric_ls_base(space, (1.0, 3.0, 9.0))
    rep = st_weakly_bounded_test(frozenset(), cover, b, base)
    same_report(rep, oracle_st_weakly_bounded(frozenset(), cover, b, base))
    assert rep.witnesses[0]["star_size"] == 0
    assert rep.witnesses[0]["star_inside"] == "K1"


def test_lemma_wb_pulls_witnesses_back_to_other_windows():
    # one component on both sides, so the identity is proper with bounded
    # images; the codomain's single window holds every witness, the
    # domain's windows stop at point 1, so the first pulled-back witness
    # with a point past them fails there
    points = ["a", "b", "c", "d"]
    b_x = BoundedStructure(Space(points, filtration=[[0], [0, 1]]), [range(4)])
    b_y = BoundedStructure(Space(points, filtration=[range(4)]), [range(4)])
    f = np.arange(4)
    rep = lemma_wb_test(f, b_x, b_y)
    same_report(rep, oracle_lemma_wb(f, b_x, b_y))
    assert rep.counterexample["witness"] == "K1"
    same_report(lemma_wb_test(f, b_y, b_x), oracle_lemma_wb(f, b_y, b_x))


def test_desk_on_an_unfiltered_space_is_the_literal_notion():
    space = builder_line(6, 1.0)
    b = BoundedStructure(space, [frozenset({0, 1}), frozenset({4, 5})])
    for s in (frozenset(), frozenset({0, 5}), frozenset(range(7))):
        assert desk_weakly_bounded(s, b) == oracle_desk(s, b) == (
            True, {"mode": "literal", "verdict": True})


@SEEDED
@given(st.data())
def test_value_spreads_match_oracle(data):
    space, _ = data.draw(carriers())
    f = values(data.draw, space.n)
    base = data.draw(scale_bases(space))
    eps = data.draw(any_eps)
    for cov in base.covers:
        assert np.array_equal(element_diameters(f, cov), oracle_diameters(f, cov.elements))
    assert payload_bytes(is_ss_continuous(f, base, eps)) == \
        payload_bytes(oracle_is_ss_continuous(f, base, eps))


# weight rows in quarters, so that sum-norm jumps are exact and tie
WEIGHT_ROWS = [(1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.5, 0.5, 0.0),
               (0.25, 0.25, 0.5), (0.0, 0.25, 0.75)]


@SEEDED
@given(st.data())
def test_ssp_witness_check_matches_oracle(data):
    space, _ = data.draw(carriers())
    rows = data.draw(st.lists(st.sampled_from(WEIGHT_ROWS), min_size=space.n,
                              max_size=space.n))
    phi = PartitionOfUnity(space, np.array(rows))
    base = data.draw(scale_bases(space))
    u = Cover(space, data.draw(element_lists(space.n)), name="u")
    eps = data.draw(any_eps)
    for cov in base.covers:
        want = [oracle_row_jump(phi.weights, el) for el in cov.elements]
        assert element_diameters(phi.weights, cov).tolist() == want
    assert payload_bytes(ssp_witness_check(phi, base, u, eps)) == \
        payload_bytes(oracle_ssp_witness_check(phi, base, u, eps))


@SEEDED
@given(st.data())
def test_s0_classify_matches_oracle(data):
    space, structure = data.draw(carriers())
    f = values(data.draw, space.n)
    ss_base = data.draw(scale_bases(space))
    ls_base = data.draw(scale_bases(space))
    eps = data.draw(eps_grids)
    got = s0_classify(f, "f", structure, ss_base, ls_base, eps)
    want = oracle_s0_classify(f, "f", structure, ss_base, ls_base, eps)
    assert payload_bytes(got) == payload_bytes(want)


def test_s0_small_scale_pair_is_the_first_wider_element():
    # the first element spreads exactly eps, the second past it
    space = Space(["p0", "p1", "p2"])
    f = np.array([0.0, 1.0, 3.0])
    ss_base = ScaleBase(space, (Cover(space, [[0, 1], [1, 2]], name="fine"),))
    ls_base = ScaleBase(space, (Cover(space, [[0], [1], [2]], name="points"),))
    b = BoundedStructure(space, [])
    got = s0_classify(f, "f", b, ss_base, ls_base, (1.0,))
    assert got.counterexample["small_scale_pair"] == ["p1", "p2"]
    assert payload_bytes(got) == \
        payload_bytes(oracle_s0_classify(f, "f", b, ss_base, ls_base, (1.0,)))


@SEEDED
@given(metric_covers())
def test_roe_comparison_diameters_match_oracle(cover):
    top = oracle_sup_diameter(cover)
    assume(np.isfinite(top))
    rep = roe_comparison_tests(cover, top)
    assert rep.witnesses[0]["max_diam"] == fmt_value(top)
    if top > 0:
        with pytest.raises(InstanceError, match="outgrows"):
            roe_comparison_tests(cover, top - 0.5)


@SEEDED
@given(st.data())
def test_stone_weierstrass_matches_oracle(data):
    n = data.draw(st.integers(2, 8))
    space = Space(["p%d" % i for i in range(n)])
    k = data.draw(st.integers(1, 2))
    fam = FunctionFamily(space, ["g%d" % i for i in range(k)],
                         [values(data.draw, n) for _ in range(k)])
    probe = values(data.draw, n)
    assert np.array_equal(fam.pseudometric(), oracle_pseudometric(fam.values))
    assert payload_bytes(stone_weierstrass_desk_test(fam, probe)) == \
        payload_bytes(oracle_stone_weierstrass(fam, probe, "probe"))


# radii ladders with repeats; the metric builders always allowed them
ladders = st.lists(st.sampled_from([0.5, 1.0, 1.5, 2.0, 3.0, 10.0]), min_size=1,
                   max_size=4)


@SEEDED
@given(metric_carriers(), ladders)
def test_ball_ladders_match_oracle(space, radii):
    down, up = sorted(radii, reverse=True), sorted(radii)
    fam = FunctionFamily(space, ("g",), np.arange(space.n, dtype=float).reshape(1, -1))
    op = OperatorMatrix(space, {(x, (x + 1) % space.n): 1.0 for x in range(space.n)},
                        name="t")
    cases = [(metric_ss_base(space, down), dense_table(space), down, "balls"),
             (metric_ls_base(space, up), dense_table(space), up, "balls"),
             (ss_base_from_family(fam, down), oracle_pseudometric(fam.values), down,
              "dF-balls"),
             (ss_from_algebra(op, down), column_pseudometric(op), down, "d_t-balls")]
    for (base, d, rs, label), kind in zip(cases, ("small", "large", "small", "small")):
        assert ladder_of(base) == oracle_ladder(d, rs, label)
        assert base.kind == kind
    old_small = ["spacing %s -> %s above one third: star containment not generic"
                 % (fmt_value(a), fmt_value(b)) for a, b in zip(down, down[1:]) if b > a / 3.0]
    old_large = ["spacing %s -> %s below threefold: star absorption not generic"
                 % (fmt_value(a), fmt_value(b)) for a, b in zip(up, up[1:]) if b < 3.0 * a]
    if len(radii) == 1:
        old_small = old_large = ["single radius: the base condition is only self-referential"]
    assert list(cases[0][0].warnings) == old_small
    assert list(cases[1][0].warnings) == old_large
    if down != up:
        for build in (lambda: metric_ss_base(space, up), lambda: metric_ls_base(space, down),
                      lambda: ss_base_from_family(fam, up), lambda: ss_from_algebra(op, up)):
            with pytest.raises(InstanceError, match="radii must be"):
                build()


# -- translation: the dict-based oracle the partial product table replaced -------

class OracleGroupWindow:
    """A table for finite groups, a value -> index dict for integer windows."""

    def __init__(self, table=None, values=None):
        self.table = table
        if table is not None:
            n = len(table)
            self.identity = next(e for e in range(n) if all(
                table[e][x] == x and table[x][e] == x for x in range(n)))
        else:
            self.values = [int(v) for v in values]
            self._index = {v: i for i, v in enumerate(self.values)}
            self.identity = self._index[0]

    def mul(self, a, b):
        if self.table is not None:
            return self.table[a][b]
        return self._index.get(self.values[a] + self.values[b])

    def inv(self, a):
        if self.table is not None:
            return list(self.table[a]).index(self.identity)
        return self._index.get(-self.values[a])


def oracle_translate_set(g, a, fset):
    out, clipped = set(), 0
    for f in sorted(fset):
        p = g.mul(a, f)
        if p is None:
            clipped += 1
        else:
            out.add(p)
    return frozenset(out), clipped


def oracle_product_set(g, a_set, b_set):
    out, clipped = set(), 0
    for a in sorted(a_set):
        for b in sorted(b_set):
            p = g.mul(a, b)
            if p is None:
                clipped += 1
            else:
                out.add(p)
    return frozenset(out), clipped


def oracle_inverse_set(g, a_set):
    out, clipped = set(), 0
    for a in sorted(a_set):
        p = g.inv(a)
        if p is None:
            clipped += 1
        else:
            out.add(p)
    return frozenset(out), clipped


def oracle_translation_scale(g, space, f_subset):
    f = frozenset(int(x) for x in f_subset) | {g.identity}
    elements, clipped = [], 0
    for a in range(space.n):
        el, c = oracle_translate_set(g, a, f)
        clipped += c
        elements.append(el)
    name = "translates[%s]" % ",".join(space.points[i] for i in sorted(f))
    return Cover(space, elements, name=name), clipped


def oracle_closure_candidates(g, subsets):
    e = g.identity
    seen = set()

    def push(name, s, clips, bucket):
        if s and s not in seen:
            seen.add(s)
            bucket.append((name, s, clips))

    depth1 = []
    for i, f in enumerate(subsets):
        fs = frozenset(f) | {e}
        push("F%d" % (i + 1), fs, 0, depth1)
        inv, c = oracle_inverse_set(g, fs)
        push("inv(F%d)" % (i + 1), inv | {e}, c, depth1)
    level, out = list(depth1), list(depth1)
    for _ in range(2):
        nxt = []
        for name_a, sa, ca in level:
            for name_b, sb, cb in depth1:
                prod, c = oracle_product_set(g, sa, sb)
                push("%s*%s" % (name_a, name_b), prod | {e}, ca + cb + c, nxt)
        out.extend(nxt)
        level = nxt
    unions = []
    for i, (na, sa, ca) in enumerate(out):
        for nb, sb, cb in out[i + 1:]:
            push("%s|%s" % (na, nb), sa | sb, ca + cb, unions)
    return out + unions


def oracle_check_translation_ls(g, space, f_list):
    covers, clipped_total = [], 0
    for f in f_list:
        cov, c = oracle_translation_scale(g, space, f)
        covers.append(cov)
        clipped_total += c
    cand_covers = []
    for name, s, c in oracle_closure_candidates(g, f_list):
        cov, c2 = oracle_translation_scale(g, space, s)
        cand_covers.append((name, cov))
        clipped_total += c + c2
    notes = (("%d clipped products: claims relative to the window" % clipped_total,)
             if clipped_total else ())
    witnesses = []
    for i, u in enumerate(covers):
        for j, v in enumerate(covers):
            st_ = star_family(u, v)
            found = next((name for name, w in cand_covers if refines(st_, w)), None)
            if found is None:
                return CheckReport(
                    "check_translation_ls", False,
                    counterexample={"pair": [i, j],
                                    "reason": "no absorbing translate cover in the closure"},
                    notes=notes, truncation=truncation_label(space))
            witnesses.append({"pair": [i, j], "absorber": found})
    return CheckReport("check_translation_ls", True, witnesses=tuple(witnesses),
                       notes=notes, truncation=truncation_label(space))


S3_TABLE = [[0, 1, 2, 3, 4, 5], [1, 0, 4, 5, 2, 3], [2, 5, 0, 4, 3, 1],
            [3, 4, 5, 0, 1, 2], [4, 3, 1, 2, 5, 0], [5, 2, 3, 1, 0, 4]]


@st.composite
def group_windows(draw):
    """(space, GroupWindow, oracle): a window of distinct, gappy integers
    holding 0 in shuffled load order, or a cyclic or S3 table with its
    elements relabelled so that the identity sits anywhere."""
    if draw(st.booleans()):
        vals = draw(st.permutations(sorted(draw(st.sets(st.integers(-6, 6),
                                                        max_size=6)) | {0})))
        space = Space([str(v) for v in vals])
        return space, window_group(space), OracleGroupWindow(values=vals)
    k = draw(st.integers(1, 7))
    base = S3_TABLE if k == 7 else [[(a + b) % k for b in range(k)] for a in range(k)]
    n = len(base)
    perm = draw(st.permutations(range(n)))
    table = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            table[perm[a]][perm[b]] = perm[base[a][b]]
    space = builder_group_window(table)
    return space, GroupWindow(space), OracleGroupWindow(table=table)


def subset_lists(n, max_size=3):
    return st.lists(st.frozensets(st.integers(0, n - 1), max_size=max_size),
                    min_size=1, max_size=2)


def cover_state(cov):
    return cov.name, cov.elements, cov.matrix.tobytes()


@SEEDED
@given(group_windows())
def test_group_window_products_match_oracle(case):
    space, g, og = case
    assert g.identity == og.identity
    prods = g.products(range(space.n), range(space.n))
    assert prods.dtype == np.int64 and prods.shape == (space.n, space.n)
    for a in range(space.n):
        assert g.inv(a) == og.inv(a)
        for b in range(space.n):
            assert g.mul(a, b) == og.mul(a, b)
            assert prods[a, b] == (-1 if og.mul(a, b) is None else og.mul(a, b))


@SEEDED
@given(group_windows().flatmap(lambda c: st.tuples(st.just(c), subset_lists(c[0].n))))
def test_translation_scale_and_closure_match_oracle(case):
    (space, g, og), subsets = case
    for f in subsets:
        cov, clipped = translation_scale(g, f)
        old, old_clipped = oracle_translation_scale(og, space, f)
        assert (cover_state(cov), clipped) == (cover_state(old), old_clipped)
    assert _closure_candidates(g, subsets) == oracle_closure_candidates(og, subsets)


@SEEDED
@given(group_windows().flatmap(lambda c: st.tuples(st.just(c), subset_lists(c[0].n))))
def test_check_translation_ls_matches_oracle(case):
    (space, g, og), subsets = case
    assert payload_bytes(check_translation_ls(g, subsets)) == \
        payload_bytes(oracle_check_translation_ls(og, space, subsets))


def test_z_window_translation_report_matches_oracle():
    space = z_window(10)
    g = window_group(space)
    og = OracleGroupWindow(values=[int(p) for p in space.points])
    fs = [space.subset(["-1", "0", "1"]), space.subset(["-2", "2"])]
    assert payload_bytes(check_translation_ls(g, fs)) == \
        payload_bytes(oracle_check_translation_ls(og, space, fs))


def test_empty_translate_list_passes_with_no_witnesses():
    space = z_window(3)
    rep = check_translation_ls(window_group(space), [])
    assert rep.status and rep.witnesses == () and rep.notes == ()
    og = OracleGroupWindow(values=[int(p) for p in space.points])
    assert payload_bytes(rep) == payload_bytes(oracle_check_translation_ls(og, space, []))


# -- base checks: the hand-written scans the one base scan replaced --------------

def oracle_check_ss_base(covers):
    covers = tuple(covers)
    space = covers[0].space
    for k, u in enumerate(covers):
        if not u.is_scale():
            return CheckReport("check_ss_base", False,
                               counterexample={"non_scale": k},
                               truncation=truncation_label(space))
    stars = [star_family(w, w) for w in covers]
    star_refines = [[refines(st_, u) for u in covers] for st_ in stars]
    witnesses = []
    for i in range(len(covers)):
        for j in range(i, len(covers)):
            found = next((k for k, row in enumerate(star_refines)
                          if row[i] and row[j]), None)
            if found is None:
                return CheckReport(
                    "check_ss_base", False,
                    counterexample={"pair": [i, j], "reason": "no common star refiner"},
                    truncation=truncation_label(space))
            witnesses.append({"pair": [i, j], "star_refiner": found})
    return CheckReport("check_ss_base", True, witnesses=tuple(witnesses),
                       truncation=truncation_label(space))


def oracle_check_ls_base(covers):
    covers = tuple(covers)
    space = covers[0].space
    for k, u in enumerate(covers):
        if not u.is_scale():
            return CheckReport("check_ls_base", False,
                               counterexample={"non_scale": k},
                               truncation=truncation_label(space))
    witnesses = []
    for i, u in enumerate(covers):
        for j, v in enumerate(covers):
            st_ = star_family(u, v)
            found = next((k for k, w in enumerate(covers) if refines(st_, w)), None)
            if found is None:
                return CheckReport(
                    "check_ls_base", False,
                    counterexample={"pair": [i, j],
                                    "reason": "no base cover coarsens st(u, v)"},
                    truncation=truncation_label(space))
            witnesses.append({"pair": [i, j], "coarsening": found})
    return CheckReport("check_ls_base", True, witnesses=tuple(witnesses),
                       truncation=truncation_label(space))


def oracle_check_uniform_axioms(members):
    members = list(members)
    space = members[0].space
    for k, e in enumerate(members):
        if not e.contains_diagonal():
            return CheckReport("check_uniform_axioms", False,
                               counterexample={"member": k, "reason": "missing diagonal"},
                               truncation=truncation_label(space))
        if not e.is_symmetric():
            return CheckReport("check_uniform_axioms", False,
                               counterexample={"member": k, "reason": "not symmetric"},
                               truncation=truncation_label(space))
    witnesses = []
    for i, e in enumerate(members):
        for j in range(i, len(members)):
            f = members[j]
            target = e.intersection(f)
            found = next((k for k, g in enumerate(members)
                          if compose(g, g).issubset(target)), None)
            if found is None:
                return CheckReport(
                    "check_uniform_axioms", False,
                    counterexample={"pair": [i, j],
                                    "reason": "no member with G o G inside the intersection"},
                    truncation=truncation_label(space))
            witnesses.append({"pair": [i, j], "half_step": found})
    return CheckReport("check_uniform_axioms", True, witnesses=tuple(witnesses),
                       truncation=truncation_label(space))


def oracle_check_coarse_axioms(members):
    members = list(members)
    space = members[0].space
    for k, e in enumerate(members):
        if not e.contains_diagonal():
            return CheckReport("check_coarse_axioms", False,
                               counterexample={"member": k, "reason": "missing diagonal"},
                               truncation=truncation_label(space))
    witnesses = []
    for i, e in enumerate(members):
        inv = invert(e)
        found = next((k for k, g in enumerate(members) if inv.issubset(g)), None)
        if found is None:
            return CheckReport("check_coarse_axioms", False,
                               counterexample={"member": i, "reason": "inverse not absorbed"},
                               truncation=truncation_label(space))
        witnesses.append({"inverse_of": i, "inside": found})
    for i, e in enumerate(members):
        for j, f in enumerate(members):
            comp = compose(e, f)
            found = next((k for k, g in enumerate(members) if comp.issubset(g)), None)
            if found is None:
                return CheckReport(
                    "check_coarse_axioms", False,
                    counterexample={"pair": [i, j],
                                    "reason": "composition not absorbed"},
                    truncation=truncation_label(space))
            witnesses.append({"pair": [i, j], "absorbed_by": found})
    return CheckReport("check_coarse_axioms", True, witnesses=tuple(witnesses),
                       truncation=truncation_label(space))


@st.composite
def cover_bases(draw):
    """1-4 covers of a line of 1-6 points, in a tuple or a ScaleBase: random
    families (a scale or not), random families completed to a scale by the
    singletons they miss, the singletons, and the whole space."""
    n = draw(st.integers(1, 6))
    space = builder_line(n - 1, 1.0)
    covers = []
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(["random", "scale", "scale", "singletons", "whole"]))
        els = ([frozenset({x}) for x in range(n)] if kind == "singletons"
               else [frozenset(range(n))] if kind == "whole"
               else draw(element_lists(n)))
        if kind == "scale":
            els += [frozenset({x}) for x in sorted(set(range(n)).difference(*els))]
        covers.append(Cover(space, els))
    return draw(st.sampled_from([tuple(covers), ScaleBase(space, tuple(covers))]))


@st.composite
def relation_bases(draw):
    """1-4 relations on a line of 1-5 points: random, random with the
    diagonal, random with the diagonal and symmetric, and equivalence
    relations (the diagonal and the full relation among them)."""
    n = draw(st.integers(1, 5))
    space = builder_line(n - 1, 1.0)
    members = []
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(["random", "reflexive", "symmetric", "partition"]))
        if kind == "partition":
            labels = np.array(draw(st.lists(st.integers(0, 2), min_size=n, max_size=n)))
            m = labels[:, None] == labels[None, :]
        else:
            m = np.array(draw(st.lists(st.booleans(), min_size=n * n,
                                       max_size=n * n))).reshape(n, n)
            if kind != "random":
                m |= np.eye(n, dtype=bool)
            if kind == "symmetric":
                m |= m.T
        members.append(Entourage(space, m))
    return tuple(members)


BASE_SCANS = settings(SEEDED, max_examples=300)


@BASE_SCANS
@given(cover_bases())
def test_scale_base_checks_match_oracle(base):
    assert payload_bytes(check_ss_base(base)) == payload_bytes(oracle_check_ss_base(base))
    assert payload_bytes(check_ls_base(base)) == payload_bytes(oracle_check_ls_base(base))


@BASE_SCANS
@given(relation_bases())
def test_entourage_base_checks_match_oracle(base):
    assert payload_bytes(check_uniform_axioms(base)) == \
        payload_bytes(oracle_check_uniform_axioms(base))
    assert payload_bytes(check_coarse_axioms(base)) == \
        payload_bytes(oracle_check_coarse_axioms(base))


THREE = builder_line(2, 1.0)
STEP = np.eye(3, dtype=bool) | np.eye(3, k=1, dtype=bool)  # reflexive, not symmetric
CHAIN = [frozenset({0, 1}), frozenset({1, 2})]
GAPPY = Space(["0", "3", "2", "-3", "1", "-4"])
BASE_REASONS = {
    "non_scale": (check_ss_base, oracle_check_ss_base,
                  [Cover(THREE, CHAIN), Cover(THREE, [{0}])]),
    "no common star refiner": (check_ss_base, oracle_check_ss_base, [Cover(THREE, CHAIN)]),
    "no base cover coarsens st(u, v)": (check_ls_base, oracle_check_ls_base,
                                        [Cover(THREE, CHAIN)]),
    "missing diagonal": (check_uniform_axioms, oracle_check_uniform_axioms,
                         [Entourage(THREE, np.eye(3, k=1, dtype=bool))]),
    "not symmetric": (check_uniform_axioms, oracle_check_uniform_axioms,
                      [diagonal(THREE), Entourage(THREE, STEP)]),
    "no member with G o G inside the intersection": (
        check_uniform_axioms, oracle_check_uniform_axioms,
        [entourage_of_scale(Cover(THREE, CHAIN))]),
    "inverse not absorbed": (check_coarse_axioms, oracle_check_coarse_axioms,
                             [Entourage(THREE, STEP)]),
    "composition not absorbed": (check_coarse_axioms, oracle_check_coarse_axioms,
                                 [entourage_of_scale(Cover(THREE, CHAIN))]),
    # clipped products leave the star of the translates of {-3, 1, -4} unabsorbed
    "no absorbing translate cover in the closure": (
        lambda f_list: check_translation_ls(window_group(GAPPY), f_list),
        lambda f_list: oracle_check_translation_ls(
            OracleGroupWindow(values=[int(p) for p in GAPPY.points]), GAPPY, f_list),
        [frozenset({1, 3, 4})]),
}


@pytest.mark.parametrize("reason", sorted(BASE_REASONS))
def test_each_base_reason_matches_oracle(reason):
    check, oracle, base = BASE_REASONS[reason]
    rep = check(base)
    assert not rep.status and rep.witnesses == ()
    assert reason in (rep.counterexample.get("reason"), *rep.counterexample)
    assert payload_bytes(rep) == payload_bytes(oracle(base))


# -- column pseudometric: the n x n x n difference array it replaced -------------

def oracle_column_pseudometric(a):
    m = a.dense()
    diff = m[:, :, None] - m[:, None, :]
    return np.sqrt((np.abs(diff) ** 2).sum(axis=0))


def random_operator(n, seed, density=0.3):
    rng = np.random.default_rng(seed)
    space = builder_line(n - 1, 1.0)
    mask = rng.random((n, n)) < density
    vals = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return OperatorMatrix(space, {(x, y): vals[x, y] for x, y in zip(*np.nonzero(mask))})


@SEEDED
@given(st.integers(1, 40), st.integers(0, 2 ** 16), st.sampled_from([0.1, 0.5, 1.0]))
def test_column_pseudometric_is_bit_identical_to_oracle(n, seed, density):
    op = random_operator(n, seed, density)
    assert column_pseudometric(op).tobytes() == oracle_column_pseudometric(op).tobytes()


def oracle_column_rows(a):
    """The row loop the coordinate walk replaced: every row of the dense
    matrix adds its n x n squares, ascending."""
    m = a.dense()
    sq = np.zeros((m.shape[1],) * 2)
    for row in m:
        sq += np.abs(row[:, None] - row[None, :]) ** 2
    return np.sqrt(sq)


@SEEDED
@given(st.integers(1, 40), st.integers(0, 2 ** 16),
       st.sampled_from([0.0, 0.02, 0.1, 0.5, 1.0]))
def test_column_pseudometric_is_bit_identical_to_the_row_loop(n, seed, density):
    op = random_operator(n, seed, density)
    assert column_pseudometric(op).tobytes() == oracle_column_rows(op).tobytes()


def test_column_pseudometric_reads_the_coordinates_only(monkeypatch):
    space = builder_line(500, 1.0)
    op = OperatorMatrix(space, {(x, x + 1): 1.0 for x in range(500)}, name="shift")
    expect = oracle_column_rows(op)
    monkeypatch.setattr(OperatorMatrix, "dense", None)
    assert column_pseudometric(op).tobytes() == expect.tobytes()


def test_column_pseudometric_memory_stays_quadratic():
    import tracemalloc
    op = random_operator(100, 7, 1.0)
    assert column_pseudometric(op).tobytes() == oracle_column_pseudometric(op).tobytes()
    tracemalloc.start()
    try:
        column_pseudometric(op)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the n x n x n complex difference array alone took 16 MB here
    assert peak < 4 * 2 ** 20


# -- the operator layer: the dict implementation the coordinate arrays replaced --

class OracleOperator:
    """An operator as a dict {(x, y): value}, zeros dropped, in sorted order,
    with the loops that the coordinate arrays replaced."""

    def __init__(self, n, entries, name="a"):
        self.n, self.name = n, name
        self.entries = {(int(x), int(y)): complex(v)
                        for (x, y), v in sorted(entries.items()) if complex(v) != 0}

    @classmethod
    def from_triplets(cls, n, triplets, name="a"):
        acc = {}
        for row, col, re, im in triplets:
            key = (int(col), int(row))
            acc[key] = acc.get(key, 0j) + complex(float(re), float(im))
        return cls(n, acc, name)

    def adjoint(self):
        return OracleOperator(self.n, {(y, x): v.conjugate()
                                       for (x, y), v in self.entries.items()},
                              "%s*" % self.name)

    def __matmul__(self, other):
        by_col = {}
        for (z, y), val in self.entries.items():
            by_col.setdefault(z, []).append((y, val))
        prod = {}
        for (x, z), bval in other.entries.items():
            for y, aval in by_col.get(z, ()):
                prod[(x, y)] = prod.get((x, y), 0j) + bval * aval
        return OracleOperator(self.n, prod, "%s%s" % (self.name, other.name))

    def dense(self):
        m = np.zeros((self.n, self.n), dtype=complex)
        for (x, y), val in self.entries.items():
            m[y, x] = val
        return m

    def apply(self, vec):
        vec = np.asarray(vec, dtype=complex)
        out = np.zeros(self.n, dtype=complex)
        for (x, y), val in self.entries.items():
            out[y] += val * vec[x]
        return out

    def support(self, tau):
        return ({(x, y) for (x, y), val in self.entries.items() if abs(val) > tau}
                | {(x, x) for x in range(self.n)})


def entry_bits(entries):
    """Positions and the bytes of the values of an entry mapping, in order."""
    return list(entries), np.array(list(entries.values()), dtype=complex).tobytes()


def oracle_operator_norm(a, tol=1e-6, max_iter=500):
    """The power iteration on the dense Gram matrix."""
    m = a.dense()
    rng = np.random.default_rng(20240117)
    v = rng.standard_normal(a.space.n) + 1j * rng.standard_normal(a.space.n)
    v /= np.linalg.norm(v)
    gram = m.conj().T @ m
    last = 0.0
    for _ in range(max_iter):
        w = gram @ v
        norm = float(np.linalg.norm(w))
        if norm == 0:
            return 0.0
        v = w / norm
        if abs(norm - last) <= tol * max(1.0, norm):
            last = norm
            break
        last = norm
    return float(np.sqrt(last))


def oracle_with_adjoints(names, ops):
    names, ops = list(names), list(ops)
    for nm, op in zip(list(names), list(ops)):
        adj = op.adjoint()
        if not any(adj.entries == q.entries for q in ops):
            names.append("%s*" % nm)
            ops.append(adj)
    return names, ops


def oracle_monomials(names, ops, degree):
    base_names, base_ops = oracle_with_adjoints(names, ops)
    out, out_names = list(base_ops), list(base_names)
    level = list(zip(base_names, base_ops))
    for _ in range(degree - 1):
        nxt = []
        for nm_a, a in level:
            for nm_b, b in zip(base_names, base_ops):
                p = a @ b
                if not p.entries or any(p.entries == q.entries for q in out):
                    continue
                out.append(p)
                out_names.append(nm_a + nm_b)
                nxt.append((nm_a + nm_b, p))
        level = nxt
    return out_names, out


def oracle_f_bounded(cover, ops, n_max, closed):
    """The breadth-first search from every point of every element, on dicts."""
    space = cover.space
    notes = () if closed else ("family is not adjoint closed: chains are one-way",)
    nbr = {}
    for op in ops:
        for (x, y), val in op.entries.items():
            if abs(val) >= 1.0:
                nbr.setdefault(x, set()).add(y)
    worst = 1
    for k, el in enumerate(cover.elements):
        pts = sorted(el)
        if len(pts) < 2:
            continue
        for src in pts:
            seen = {src: 1}
            frontier = [src]
            while frontier:
                nxt = []
                for u in frontier:
                    for v in nbr.get(u, ()):
                        if v in el and v not in seen:
                            seen[v] = seen[u] + 1
                            nxt.append(v)
                frontier = nxt
            for dst in pts:
                if dst == src:
                    continue
                if dst not in seen:
                    return CheckReport(
                        "f_bounded", False,
                        counterexample={"element": cover.labels()[k],
                                        "pair": [space.points[src], space.points[dst]],
                                        "reason": "no chain inside the element"},
                        notes=notes, truncation=truncation_label(space))
                worst = max(worst, seen[dst])
    status = worst <= n_max
    cx = None if status else {"n": worst, "budget": n_max,
                              "reason": "chains need more points than allowed"}
    return CheckReport("f_bounded", status, witnesses=({"n": worst, "budget": n_max},),
                       counterexample=cx, notes=notes, truncation=truncation_label(space))


OPERATOR_KINDS = ("complex", "integer", "empty", "diagonal")


def operator_entries(n, kind, seed, count=None):
    """Entries of one kind in a seeded random insertion order; integer
    values include zeros, which are dropped."""
    rng = np.random.default_rng(seed)
    if kind == "empty":
        return {}
    if kind == "diagonal":
        keys = [(x, x) for x in range(n)]
    else:
        count = rng.integers(1, 3 * n + 1) if count is None else count
        keys = sorted(set(map(tuple, rng.integers(0, n, size=(count, 2)).tolist())))
    if kind == "integer":
        vals = rng.integers(-2, 3, size=len(keys)).tolist()
    else:
        vals = (rng.standard_normal(len(keys))
                + 1j * rng.standard_normal(len(keys))).tolist()
    order = rng.permutation(len(keys))
    return {keys[k]: vals[k] for k in order}


operator_cases = st.tuples(st.integers(1, 9), st.sampled_from(OPERATOR_KINDS),
                           st.integers(0, 2 ** 16))


@SEEDED
@given(operator_cases, operator_cases)
def test_operator_arithmetic_is_bit_identical_to_oracle(case_a, case_b):
    n = case_a[0]
    space = builder_line(n - 1, 1.0)
    ea, eb = operator_entries(*case_a), operator_entries(n, *case_b[1:])
    a, b = OperatorMatrix(space, ea, "a"), OperatorMatrix(space, eb, "b")
    oa, ob = OracleOperator(n, ea, "a"), OracleOperator(n, eb, "b")
    re, im = np.random.default_rng(case_b[2]).standard_normal((2, n))
    vec = re + 1j * im
    for got, want in ((a, oa), (a.adjoint(), oa.adjoint()), (a @ b, oa @ ob),
                      (b @ a, ob @ oa), (a @ a.adjoint(), oa @ oa.adjoint())):
        assert entry_bits(got.entries) == entry_bits(want.entries)
        assert got.name == want.name
        assert got.dense().tobytes() == want.dense().tobytes()
        assert got.apply(vec).tobytes() == want.apply(vec).tobytes()
        for x, y in [(0, 0), (n - 1, 0), (0, n - 1), (n, 0)]:
            assert got.entry(x, y) == want.entries.get((x, y), 0j)
    assert a.same_entries(a.adjoint().adjoint())
    assert a.same_entries(b) == (oa.entries == ob.entries)
    for tau in (0.0, 0.5, 1.0):
        assert support_entourage(a, tau).pairs == oa.support(tau)


@SEEDED
@given(st.integers(1, 6), st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5),
                                             st.sampled_from([1.0, -0.5, 0.25, 1e300]),
                                             st.sampled_from([0.0, 1.0, -1e300])),
                                   max_size=12))
def test_triplets_accumulate_as_the_oracle(n, rows):
    space = builder_line(n - 1, 1.0)
    want = None
    try:
        want = OracleOperator.from_triplets(n, rows)
        if any(not (0 <= x < n and 0 <= y < n) for x, y in want.entries):
            want = "outside"
        elif not all(np.isfinite(v.real) and np.isfinite(v.imag)
                     for v in want.entries.values()):
            want = "non-finite"
    except (TypeError, ValueError):
        want = "malformed"
    try:
        got = OperatorMatrix.from_triplets(space, [list(r) for r in rows])
    except InstanceError as exc:
        assert isinstance(want, str) and want.split("-")[-1] in str(exc)
        return
    assert entry_bits(got.entries) == entry_bits(want.entries)


@SEEDED
@given(st.integers(1, 5), st.lists(st.tuples(st.sampled_from(OPERATOR_KINDS),
                                             st.integers(0, 2 ** 16)),
                                   min_size=1, max_size=2), st.integers(1, 3))
def test_monomials_match_oracle(n, members, degree):
    space = builder_line(n - 1, 1.0)
    entries = [operator_entries(n, kind, seed, count=n) for kind, seed in members]
    names = ["g%d" % i for i in range(len(entries))]
    fam = StarFamily(space, names, [OperatorMatrix(space, e, nm)
                                    for nm, e in zip(names, entries)])
    got = _monomials(fam, degree)
    want_names, want = oracle_monomials(names, [OracleOperator(n, e, nm) for nm, e in
                                                zip(names, entries)], degree)
    assert list(got.names) == want_names
    for g, w in zip(got.ops, want):
        assert entry_bits(g.entries) == entry_bits(w.entries)


def step_family(space, seed, density, one_way):
    """Random operators whose entries are strong (modulus one or more) or
    weak (below one), so that some elements fall apart into pieces; with
    their adjoints unless ``one_way``."""
    rng = np.random.default_rng(seed)
    ops = []
    for k in range(int(rng.integers(1, 3))):
        xs, ys = np.nonzero(rng.random((space.n, space.n)) < density)
        vals = rng.choice([1.0, -1.0, 1j, 2.0, 0.5, 0.9j], size=xs.size)
        ops.append(OperatorMatrix(space, dict(zip(zip(xs.tolist(), ys.tolist()),
                                                  vals.tolist())), "g%d" % k))
    fam = StarFamily(space, tuple(op.name for op in ops), tuple(ops))
    return fam if one_way else fam.with_adjoints()


@SEEDED
@given(st.integers(1, 9).flatmap(lambda n: st.tuples(
    st.just(n), element_lists(n), st.integers(0, 2 ** 16),
    st.sampled_from([0.1, 0.3, 0.6]), st.booleans(), st.integers(1, 6))))
def test_f_bounded_matches_oracle(case):
    n, elements, seed, density, one_way, n_max = case
    space = builder_line(n - 1, 1.0)
    cover = Cover(space, elements, name="u")
    fam = step_family(space, seed, density, one_way)
    want = oracle_f_bounded(cover, [OracleOperator(n, dict(op.entries)) for op in fam.ops],
                            n_max, fam.adjoint_closed)
    assert payload_bytes(f_bounded(cover, fam, n_max)) == payload_bytes(want)


@SEEDED
@given(st.integers(1, 30), st.integers(0, 2 ** 16), st.sampled_from([0.0, 0.05, 0.3, 0.9]),
       st.booleans())
def test_step_relation_keys_match_unique(n, seed, density, one_way):
    fam = step_family(builder_line(n - 1, 1.0), seed, density, one_way)
    keys = np.concatenate([op.x[np.abs(op.val) >= 1.0] * n + op.y[np.abs(op.val) >= 1.0]
                           for op in fam.ops])
    want = np.unique(keys)
    assert distinct_sorted(keys).tobytes() == want.tobytes()
    sx, sy = _step_relation(fam)
    assert (sx.tobytes(), sy.tobytes()) == ((want // n).tobytes(), (want % n).tobytes())


@SEEDED
@given(st.lists(st.integers(-5, 40), max_size=300))
def test_distinct_first_matches_unique(values):
    keys = np.array(values, dtype=np.int64)
    want = np.unique(keys, return_index=True, return_inverse=True)
    got = distinct_first(keys)
    assert [a.tobytes() for a in got] == [a.tobytes() for a in want]
    assert [a.dtype for a in got] == [a.dtype for a in want]


@pytest.mark.parametrize("seed", range(6))
def test_f_bounded_on_elements_wider_than_a_word(seed):
    # elements of 65 to 150 points take two or three words a row; a few
    # missing unit steps split some of them, which must fail at the first
    # unreachable (element, source, destination)
    rng = np.random.default_rng(seed)
    n = 150
    space = builder_line(n - 1, 1.0)
    cuts = set(rng.choice(n - 1, size=seed % 3, replace=False).tolist())
    steps = {(x, x + 1): 1.0 for x in range(n - 1) if x not in cuts}
    steps.update({(int(x), int(y)): 1.0 for x, y in rng.integers(0, n, size=(10, 2))})
    fam = StarFamily(space, ("s",), (OperatorMatrix(space, steps, "s"),))
    if seed % 2:
        fam = fam.with_adjoints()
    lo = rng.integers(0, 60, size=4)
    elements = [frozenset(range(int(a), int(a) + 65 + int(b)))
                for a, b in zip(lo, rng.integers(0, 25, size=4))]
    elements += [frozenset({int(p)}) for p in rng.integers(0, n, size=3)]
    elements.append(frozenset(range(n)))
    cover = Cover(space, elements, name="wide")
    want = oracle_f_bounded(cover, [OracleOperator(n, dict(op.entries)) for op in fam.ops],
                            200, fam.adjoint_closed)
    assert payload_bytes(f_bounded(cover, fam, 200)) == payload_bytes(want)


@SEEDED
@given(st.integers(1, 12), st.sampled_from(["complex", "integer", "diagonal"]),
       st.integers(0, 2 ** 16))
def test_operator_norm_matches_svd(n, kind, seed):
    a = OperatorMatrix(builder_line(n - 1, 1.0), operator_entries(n, kind, seed))
    want = np.linalg.svd(a.dense(), compute_uv=False)[0]
    assert abs(operator_norm(a) - want) <= 1e-3 * max(1.0, want)


def test_operator_norm_on_the_bundled_shift_is_the_dense_iteration():
    from scalekit.instances import bundled
    shift = bundled("line20")[1].operators["shift"]
    assert operator_norm(shift) == oracle_operator_norm(shift)
    line = builder_line(2000, 1.0)
    wide = OperatorMatrix(line, {(x, x + 1): 1.0 for x in range(line.n - 1)})
    import tracemalloc
    tracemalloc.start()
    try:
        got = operator_norm(wide)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert abs(got - 1.0) < 1e-3
    # the dense Gram matrix alone is 64 MB here
    assert peak < 2 ** 20
