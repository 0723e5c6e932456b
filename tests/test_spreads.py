"""Value spreads decided without listing pairs.

Real values spread over a set by their greatest less their least value, so
``element_diameters`` and the relaxed witness test (``oscillation.Spread``)
read each element's extremes in place of its point pairs.  The pair path
stays for complex and vector values and is the oracle here: diameters must
match it bit for bit, and the relaxed form and ``ls_membership`` must give
the bytes of the scans that filtered the heavy pairs at the finest eps.
"""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scalekit import bounded, scales
from scalekit.algebra_comm import FunctionFamily
from scalekit.bounded import BoundedStructure, witness_space
from scalekit.catalogues import (EPS_DEFAULT, constant_at_infinity_family, halfline,
                                 line20, membership_catalogue, oscillation_family,
                                 shrink_cover, smooth_catalogue, t75_catalogue, trunc_nat,
                                 unit_cover, wide_pairs_cover)
from scalekit.duality import LSQuery, _star_condition, ls_membership
from scalekit.metric import ball_cover
from scalekit.model import Space, builder_line
from scalekit.oscillation import (SOQuery, Spread, _pair_entry, _relaxed_refutation,
                                  heavy_pairs, is_slowly_oscillating)
from scalekit.reports import CheckReport, truncation_label
from scalekit.scales import Cover, base_report, element_diameters, first, real_line

SEEDED = settings(deadline=None, derandomize=True, max_examples=80)


def pair_path(f, cover):
    """``element_diameters`` through the pair stream, whatever the values."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(scales, "real_line", lambda values: None)
        return element_diameters(f, cover)


def real_path(f, cover):
    """``element_diameters`` on real values, with the pair stream refused."""
    def refuse(*args):
        raise AssertionError("real values listed their pairs")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(scales, "pair_stream", refuse)
        return element_diameters(f, cover)


# -- the pool oracles: relaxed scans over the heavy pairs at the finest eps ----

def pool_relaxed(q):
    """``is_slowly_oscillating(q, "relaxed")`` as the heavy-pair pool decided
    it: a witness passes at eps when every pair wider than eps loses an
    endpoint to it."""
    space = q.structure.space
    cells = witness_space(q.structure)
    name = "slowly_oscillating[%s,relaxed]" % q.name
    found = []
    for cov in q.base:
        pool = heavy_pairs(q.f, cov, q.eps_grid[-1])
        for eps in q.eps_grid:
            pairs = pool[pool["gap"] > eps]
            xs, ys = pairs["x"], pairs["y"]
            hit = first(zip(*cells), lambda m: (m[xs] | m[ys]).all())
            if hit is None:
                return CheckReport(name, False, witnesses=tuple(found),
                                   counterexample=_relaxed_refutation(q, cov, eps, pairs,
                                                                      cells),
                                   truncation=truncation_label(space))
            found.append({"cover": cov.name, "eps": eps, "witness": hit})
    return CheckReport(name, True, witnesses=tuple(found),
                       truncation=truncation_label(space))


def pool_ls_membership(q):
    """``ls_membership`` as the heavy-pair pool decided it."""
    space = q.structure.space
    hits, fail = _star_condition(q.cover, q.structure)

    def cells():
        yield {"condition": 1}, "stars", hits, None
        names, w = witness_space(q.structure)
        if space.filtration is not None:
            holds = [("K%d" % (i + 1), w[:, space.depth <= i].all(axis=1))
                     for i in range(len(space.filtration))]
        else:
            holds = [("empty", np.ones(len(names), dtype=bool))]
        bases = [(bname, [nm for nm, h in zip(names, held) if h], w[held])
                 for bname, held in holds]
        for fname, fvals in zip(q.catalogue.names, q.catalogue.values):
            pool = heavy_pairs(fvals, q.cover, q.eps_grid[-1])
            for eps in q.eps_grid:
                pairs = pool[pool["gap"] > eps]
                xs, ys = pairs["x"], pairs["y"]
                for bname, held_names, held in bases:
                    cell = {"condition": 2, "function": fname, "eps": eps,
                            "window": bname}
                    hit = first(zip(held_names, held), lambda m: (m[xs] | m[ys]).all())
                    surv = None
                    if hit is None:
                        alive = ~(held[:, xs] | held[:, ys]).any(axis=0)
                        if alive.any():
                            surv = _pair_entry(space, q.cover, pairs[int(alive.argmax())])
                    yield cell, "witness", hit, {**cell, "surviving": surv}

    return base_report("ls_membership", space, () if fail is None else (fail,),
                       cells(), partial=True)


def brute_widest(f, cover, mask):
    """The widest gap between two points of one element outside mask, from
    every such pair; 0 when there is none."""
    out = 0.0
    for el in cover.elements:
        rest = f[sorted(p for p in el if not mask[p])]
        if rest.size > 1:
            out = max(out, float(np.abs(rest[:, None] - rest[None, :]).max()))
    return out


def assert_relaxed_matches_pool(q):
    got = is_slowly_oscillating(q, "relaxed")
    assert got.to_json() == pool_relaxed(q).to_json()
    return got


def assert_membership_matches_pool(q):
    got = ls_membership(q)
    assert got.to_json() == pool_ls_membership(q).to_json()
    return got


# -- element diameters ---------------------------------------------------------

LINE = builder_line(7, 1.0)
MIXED = Cover(LINE, [[0], [1, 2], [0, 3, 5, 7], [2, 4, 6], list(range(8)), [6, 7]])

REAL_CASES = {
    "negative": [-3.5, -1.0, -7.25, 2.0, -0.5, -9.0, 4.0, -2.0],
    "signed-zeros": [0.0, -0.0, 0.0, -0.0, -0.0, 0.0, -0.0, -0.0],
    "constant": [2.5] * 8,
    "overflow": [1e308, -1e308, 1.7e308, -1.7e308, 0.0, 1e308, -1e308, 5.0],
    "tiny": [5e-324, -5e-324, 0.0, 1e-300, -1e-300, 2.2e-308, 3.0, -3.0],
    "fractions": [0.1, 0.2, 0.3, 1 / 3, 2 / 3, 0.7, 1e16, 1e16 + 2],
}


@pytest.mark.parametrize("name", sorted(REAL_CASES))
@pytest.mark.parametrize("dtype", [float, complex])
def test_real_diameters_are_the_pair_path_bit_for_bit(name, dtype):
    f = np.array(REAL_CASES[name], dtype=dtype)
    assert real_line(f) is not None
    got, want = real_path(f, MIXED), pair_path(f, MIXED)
    assert got.dtype == want.dtype == np.float64
    assert got.tobytes() == want.tobytes()


def test_signed_zeros_spread_by_positive_zero():
    # hi - lo is -0.0 only when the greatest is -0.0 and the least +0.0,
    # which numpy's reductions, taking one element among equals, never give
    f = np.array([-0.0, 0.0, -0.0, 0.0, 0.0, -0.0, 0.0, -0.0])
    got = real_path(f, MIXED)
    assert not np.signbit(got).any() and not got.any()


def test_gaps_that_overflow_read_inf_on_both_paths():
    f = np.array([1.7e308, -1.7e308, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0])
    cover = Cover(LINE, [[0, 1], [2, 3], list(range(8))])
    assert real_path(f, cover).tolist() == pair_path(f, cover).tolist() == [np.inf, 0.0, np.inf]


def test_singletons_spread_by_zero():
    f = np.array(REAL_CASES["negative"])
    cover = Cover(LINE, [[p] for p in range(8)])
    assert real_path(f, cover).tobytes() == np.zeros(8).tobytes()


@pytest.mark.parametrize("f", [
    np.array([0.0, 1e-300j, 0, 0, 0, 0, 0, 0]),
    np.array([1.0, 1.0, 1.0, 1.0 + 1e-300j, 1.0, 1.0, 1.0, 1.0]),
    np.array([0.0, np.inf, 0, 0, 0, 0, 0, 0]),
    np.array([0.0, np.nan, 0, 0, 0, 0, 0, 0]),
    np.ones((8, 2)),
], ids=["tiny-imaginary", "tiny-imaginary-on-a-constant", "inf", "nan", "vectors"])
def test_values_that_are_not_finite_reals_take_the_pair_path(f):
    assert real_line(f) is None
    cover = Cover(LINE, [[0, 1], [2, 3], [3, 4], list(range(8))])
    got = element_diameters(f, cover)
    assert got.tobytes() == pair_path(f, cover).tobytes()


def test_a_tiny_imaginary_part_is_a_real_gap():
    # the real parts are equal, so only the pair path sees the gap
    f = np.array([0.0, 1e-300j, 0, 0, 0, 0, 0, 0])
    assert element_diameters(f, Cover(LINE, [[0, 1]])).tolist() == [1e-300]


# -- relaxed slow oscillation against the pool ---------------------------------

HL = halfline()
HL_B = bounded.from_filtration(HL)
HL_BASE = (ball_cover(HL, 1.0), ball_cover(HL, 3.0))
WAVES = oscillation_family()
GRIDS = [EPS_DEFAULT, (2.0, 0.75, 0.1), (0.05,)]


@pytest.mark.parametrize("grid", GRIDS, ids=["default", "wide", "fine"])
@pytest.mark.parametrize("name", WAVES.names)
def test_relaxed_halfline_matches_the_pool(name, grid):
    q = SOQuery(WAVES.member(name), HL_BASE, grid, HL_B, name=name)
    assert_relaxed_matches_pool(q)


def test_failing_cells_after_passing_ones_match_the_pool():
    q = SOQuery(WAVES.member("wave"), HL_BASE, (3.0, 2.5, 2.0, 1.5), HL_B, name="wave")
    rep = assert_relaxed_matches_pool(q)
    assert not rep.status and len(rep.witnesses) == 3
    rep = assert_membership_matches_pool(LSQuery(unit_cover(), HL_B, membership_catalogue(),
                                                 EPS_DEFAULT))
    assert not rep.status and len(rep.witnesses) == 101
    assert rep.counterexample["condition"] == 2 and rep.counterexample["surviving"]


def test_no_single_witness_matches_the_pool():
    # each block kills one heavy pair and leaves the other
    b = line20_structures()[0]
    f = np.zeros(b.space.n)
    f[[1, 11]] = 1.0
    q = SOQuery(f, (Cover(b.space, [[0, 1], [10, 11]] + [[p] for p in range(21)], name="u"),),
                EPS_DEFAULT, b)
    rep = assert_relaxed_matches_pool(q)
    assert rep.counterexample["mode"] == "no single witness"


@pytest.mark.parametrize("name", WAVES.names)
def test_relaxed_complex_values_match_the_pool(name):
    f = WAVES.member(name) * np.exp(0.3j) + 0.5j
    assert real_line(f) is None
    assert_relaxed_matches_pool(SOQuery(f, HL_BASE, EPS_DEFAULT, HL_B, name=name))


def line20_structures():
    """line20 unfiltered with two bounded blocks, and with three windows."""
    sp = line20()
    plain = BoundedStructure(sp, [range(0, 5), range(10, 15)])
    windowed = Space(sp.points, metric_kind="line", coords=sp.coords,
                     filtration=[range(0, 5), range(0, 10), range(0, 15)])
    return [plain, bounded.from_filtration(windowed)]


def line20_functions(space):
    x = space.values()
    return FunctionFamily(space, ("one", "parity", "ramp", "step", "signed"),
                          [np.ones_like(x), x % 2, x / 20.0, (x >= 10) * 1.0,
                           np.where(x % 3 == 0, -0.0, 0.0) - np.where(x > 15, x, 0)])


@pytest.mark.parametrize("which", [0, 1], ids=["blocks", "windows"])
def test_relaxed_line20_matches_the_pool(which):
    b = line20_structures()[which]
    space = b.space
    base = (Cover(space, [range(5 * k, min(5 * k + 5, space.n)) for k in range(5)],
                  name="fives"), ball_cover(space, 2.0), ball_cover(space, 6.0))
    fam = line20_functions(space)
    verdicts = set()
    for name, f in zip(fam.names, fam.values):
        for grid in ([1.0, 0.5, 0.25], [0.9, 0.04]):
            verdicts.add(assert_relaxed_matches_pool(SOQuery(f, base, grid, b, name=name)).status)
    assert verdicts == {True, False}


# -- induced membership against the pool ---------------------------------------

@pytest.mark.parametrize("cover", ["shrink", "unit"])
@pytest.mark.parametrize("family", ["membership", "smooth"])
def test_membership_halfline_matches_the_pool(cover, family):
    cov = {"shrink": shrink_cover, "unit": unit_cover}[cover]()
    fam = {"membership": membership_catalogue, "smooth": smooth_catalogue}[family]()
    for grid in GRIDS:
        assert_membership_matches_pool(LSQuery(cov, HL_B, fam, grid))


@pytest.mark.parametrize("name", [nm for nm, _, _ in t75_catalogue()] + ["wide-pairs"])
def test_membership_truncnat_matches_the_pool(name):
    covers = {nm: cov for nm, cov, _ in t75_catalogue()}
    covers["wide-pairs"] = wide_pairs_cover()
    b = bounded.from_filtration(trunc_nat())
    fam = constant_at_infinity_family()
    turned = FunctionFamily(fam.space, fam.names, fam.values * 1j + 0.25)
    for cat in (fam, turned):
        for grid in GRIDS:
            assert_membership_matches_pool(LSQuery(covers[name], b, cat, grid))


@pytest.mark.parametrize("which", [0, 1], ids=["blocks", "windows"])
def test_membership_line20_matches_the_pool(which):
    b = line20_structures()[which]
    space = b.space
    fam = line20_functions(space)
    for cov in (Cover(space, [range(5 * k, min(5 * k + 5, space.n)) for k in range(5)],
                      name="fives"), ball_cover(space, 1.0), ball_cover(space, 4.0)):
        for grid in ([1.0, 0.5, 0.25], [0.9, 0.04]):
            assert_membership_matches_pool(LSQuery(cov, b, fam, grid))


# -- the widest gap a witness leaves -------------------------------------------

def test_spread_reads_each_witness_once():
    cov = ball_cover(HL, 3.0)
    names, w = witness_space(HL_B)
    spread = Spread(WAVES.member("wave"), cov, 0.25, w)
    reads = []
    original = spread._outside
    spread._outside = lambda mask: reads.append(1) or original(mask)
    for _ in range(3):
        for i in range(len(names)):
            spread.widest(i)
    assert len(reads) == len(names)


@pytest.mark.parametrize("name", ["wave", "step50", "slow_wave"])
def test_spread_is_the_widest_pair_left_outside(name):
    f = WAVES.member(name)
    cov = ball_cover(HL, 1.0)
    names, w = witness_space(HL_B)
    real, turned = Spread(f, cov, 0.25, w), Spread(f * 1j, cov, 0.25, w)
    assert real.line is not None and turned.line is None
    for i in range(len(names)):
        want = brute_widest(f, cov, w[i])
        # gaps of at most the finest eps read as 0 on both paths
        assert real.widest(i) == turned.widest(i) == (want if want > 0.25 else 0.0)


# -- a seeded property over random covers and functions -------------------------

@st.composite
def spread_cases(draw):
    n = draw(st.integers(1, 9))
    space = builder_line(n - 1, 1.0)
    elements = draw(st.lists(st.frozensets(st.integers(0, n - 1), min_size=1),
                             min_size=1, max_size=6))
    values = draw(st.lists(st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 3.0]),
                                     st.floats(-4, 4, allow_nan=False, width=32)),
                           min_size=n, max_size=n))
    gens = draw(st.lists(st.frozensets(st.integers(0, n - 1), min_size=1), max_size=3))
    grid = draw(st.sets(st.sampled_from([4.0, 2.0, 1.0, 0.5, 0.125]), min_size=1,
                        max_size=3).map(lambda xs: tuple(sorted(xs, reverse=True))))
    if draw(st.booleans()):
        cut = draw(st.integers(1, n))
        space = Space(space.points, metric_kind="line", coords=space.coords,
                      filtration=[range(cut)])
    return (Cover(space, elements, name="u"), np.array(values),
            BoundedStructure(space, gens), grid)


@SEEDED
@given(spread_cases())
def test_spreads_match_the_pair_path(case):
    cover, f, b, grid = case
    assert real_path(f, cover).tobytes() == pair_path(f, cover).tobytes()
    names, w = witness_space(b)
    spread = Spread(f, cover, grid[-1], w)
    for i in range(len(names)):
        want = brute_widest(f, cover, w[i])
        assert spread.widest(i) == (want if want > grid[-1] else 0.0)
    q = SOQuery(f, (cover,), grid, b)
    assert_relaxed_matches_pool(q)
    fam = FunctionFamily(b.space, ("f", "g"), [f, -2.0 * f[::-1]])
    assert_membership_matches_pool(LSQuery(cover, b, fam, grid))
