import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scalekit.algebra_comm import is_ss_continuous
from scalekit.algebra_noncomm import ssp_witness_check
from scalekit.bounded import (from_filtration, from_metric, proper_hls_test,
                              proper_hss_test, st_weakly_bounded_test,
                              uniformly_bounded)
from scalekit.catalogues import trunc_nat
from scalekit.duality import s0_classify
from scalekit.entourages import check_coarse_axioms, check_uniform_axioms, metric_entourage
from scalekit.model import InstanceError, builder_line
from scalekit.scales import (Cover, PartitionOfUnity, ScaleBase, check_ls_base,
                             check_ss_base, is_hausdorff, is_smaller,
                             pou_support, refines, smaller_or_equal,
                             star_family, star_set, subordinated,
                             trivial_extension)
from scalekit.metric import ball_cover, metric_ls_base, metric_ss_base

LINE20 = builder_line(20, 1.0)
LINE10 = builder_line(10, 1.0)
TRUNC = trunc_nat()


def interval(space, lo, hi):
    vals = space.values()
    return frozenset(np.flatnonzero((vals >= lo) & (vals <= hi)).tolist())


def three_cover(space=LINE20):
    return Cover(space, (interval(space, 0, 10), interval(space, 5, 15),
                         interval(space, 10, 20)), name="three")


# independent set-algebra oracles

def oracle_star(subset, cover):
    out = set(subset)
    for el in cover.elements:
        if set(el) & set(subset):
            out |= set(el)
    return frozenset(out)


def oracle_refines(u, v):
    return all(any(set(a) <= set(b) for b in v.elements) for a in u.elements)


def test_star_set_frozen():
    u = three_cover()
    assert star_set(frozenset({5}), u) == interval(LINE20, 0, 15)
    assert star_set(frozenset({5}), u) == oracle_star({5}, u)


def test_star_set_disjoint_point():
    u = Cover(LINE20, (interval(LINE20, 0, 3),))
    assert star_set(frozenset({10}), u) == frozenset({10})


def test_star_family_matches_oracle():
    u = three_cover()
    sf = star_family(u, u)
    assert [set(e) for e in sf.elements] == \
        [set(oracle_star(e, u)) for e in u.elements]


def test_refines_examples():
    u = three_cover()
    singles = Cover(LINE20, tuple(frozenset({i}) for i in range(21)))
    assert refines(singles, u)
    assert not refines(u, singles)
    assert oracle_refines(singles, u)


def test_smaller_or_equal_needs_star_refinement():
    u = three_cover()
    singles = Cover(LINE20, tuple(frozenset({i}) for i in range(21)))
    # singletons star into themselves, so they sit below everything
    assert smaller_or_equal(singles, u)
    # u stars blow up to width 15+, no element of u contains that
    assert not smaller_or_equal(u, u)
    assert smaller_or_equal(singles, singles)


def test_is_smaller_strict():
    singles = Cover(LINE20, tuple(frozenset({i}) for i in range(21)))
    u = three_cover()
    assert is_smaller(singles, u)
    assert not is_smaller(singles, singles)


def test_trivial_extension_frozen():
    fam = Cover(LINE10, (interval(LINE10, 0, 5),))
    ext = trivial_extension(fam)
    assert len(ext) == 12  # the block plus one singleton per point
    assert ext.is_scale()


def test_trivial_extension_keeps_family():
    fam = Cover(LINE10, (interval(LINE10, 2, 4),))
    ext = trivial_extension(fam)
    assert interval(LINE10, 2, 4) in ext.element_set()


def test_cover_rejects_foreign_indices():
    with pytest.raises(InstanceError):
        Cover(LINE10, (frozenset({99}),))


def test_cover_rejects_empty_element():
    with pytest.raises(InstanceError):
        Cover(LINE10, (frozenset(),))


@pytest.mark.parametrize("point", [0.5, 1.0, True, np.bool_(True), np.float64(1), "1"],
                         ids=["half", "float", "bool", "numpy-bool", "numpy-float", "str"])
def test_cover_rejects_points_that_are_not_integers(point):
    with pytest.raises(InstanceError, match="element 1 has a point that is not an integer"):
        Cover(LINE10, [[1, 2], [point], [3]])


def test_cover_takes_integer_points_of_any_width():
    cov = Cover(LINE10, [[np.int8(1), np.uint64(2)], np.array([3, 4]), range(5, 7)])
    assert cov.elements == (frozenset({1, 2}), frozenset({3, 4}), frozenset({5, 6}))


def test_cover_points_past_int64_are_out_of_range():
    with pytest.raises(InstanceError, match="element 0 has out-of-range points"):
        Cover(LINE10, [[2 ** 64], [1]])


@pytest.mark.parametrize("check", [
    check_ss_base, check_ls_base, is_hausdorff,
    lambda base: proper_hss_test(from_metric(LINE10), base),
    lambda base: uniformly_bounded(ball_cover(LINE10, 1.0), base),
    lambda base: proper_hls_test(from_filtration(TRUNC), base,
                                 [ball_cover(TRUNC, 3.0)]),
    lambda base: st_weakly_bounded_test({0}, ball_cover(TRUNC, 1.0),
                                        from_filtration(TRUNC), base),
], ids=["check_ss_base", "check_ls_base", "is_hausdorff", "proper_hss_test",
        "uniformly_bounded", "proper_hls_test", "st_weakly_bounded_test"])
def test_empty_scale_base_is_an_instance_error(check):
    with pytest.raises(InstanceError, match="a scale base needs at least one cover"):
        check([])


# two spaces of the same size, and one of another size
SAME_A, SAME_B, OTHER = builder_line(5, 1.0), builder_line(5, 2.0), builder_line(7, 1.0)


@pytest.mark.parametrize("other", [SAME_B, OTHER], ids=["same-size", "other-size"])
@pytest.mark.parametrize("check, member", [
    (check_ss_base, ball_cover), (check_ls_base, ball_cover), (is_hausdorff, ball_cover),
    (check_uniform_axioms, metric_entourage), (check_coarse_axioms, metric_entourage),
], ids=["ss", "ls", "hausdorff", "uniform", "coarse"])
def test_base_members_on_different_spaces_are_an_instance_error(check, member, other):
    with pytest.raises(InstanceError, match="^base members live on different spaces$"):
        check([member(SAME_A, 1.0), member(other, 1.0)])


def test_an_empty_small_scale_base_is_an_instance_error():
    empty = ScaleBase(SAME_A, ())
    f = np.arange(SAME_A.n, dtype=float)
    with pytest.raises(InstanceError, match="a scale base needs at least one cover"):
        is_ss_continuous(f, empty, [1.0])
    with pytest.raises(InstanceError, match="a scale base needs at least one cover"):
        s0_classify(f, "f", from_metric(SAME_A), empty, metric_ls_base(SAME_A, [1.0]),
                    [1.0])
    phi = PartitionOfUnity(SAME_A, np.ones((SAME_A.n, 1)))
    with pytest.raises(InstanceError, match="a scale base needs at least one cover"):
        ssp_witness_check(phi, empty, ball_cover(SAME_A, 1.0), [1.0])


@pytest.mark.parametrize("other", [SAME_B, OTHER], ids=["same-size", "other-size"])
@pytest.mark.parametrize("check", [
    check_ss_base, check_ls_base, is_hausdorff,
    lambda base: is_ss_continuous(np.zeros(SAME_A.n), base, [1.0]),
    lambda base: proper_hss_test(from_metric(SAME_A), base),
], ids=["check_ss_base", "check_ls_base", "is_hausdorff", "is_ss_continuous",
        "proper_hss_test"])
def test_a_scale_base_with_members_on_another_space_is_an_instance_error(check, other):
    base = ScaleBase(SAME_A, metric_ss_base(other, [1.0]).covers)
    with pytest.raises(InstanceError, match="^base members do not live on the base's space$"):
        check(base)


@pytest.mark.parametrize("other", [SAME_B, OTHER], ids=["same-size", "other-size"])
def test_a_base_off_the_carrier_is_an_instance_error(other):
    with pytest.raises(InstanceError, match="does not live on the structure's carrier"):
        proper_hss_test(from_metric(SAME_A), metric_ss_base(other, [1.0]))
    with pytest.raises(InstanceError, match="covers live on different spaces"):
        uniformly_bounded(ball_cover(SAME_A, 1.0), metric_ls_base(other, [9.0]))


def test_ss_base_witnesses_verify():
    base = metric_ss_base(LINE20, (3.0, 1.0, 1.0 / 3))
    rep = check_ss_base(base)
    assert rep.status
    covers = base.covers
    for w in rep.witnesses:
        i, j = w["pair"]
        k = w["star_refiner"]
        sf = star_family(covers[k], covers[k])
        assert refines(sf, covers[i]) and refines(sf, covers[j])


def test_ls_base_witnesses_verify():
    base = metric_ls_base(LINE20, (1.0, 3.0, 9.0, 27.0))
    rep = check_ls_base(base)
    assert rep.status
    covers = base.covers
    for w in rep.witnesses:
        i, j = w["pair"]
        k = w["coarsening"]
        assert refines(star_family(covers[i], covers[j]), covers[k])


def test_ls_base_fails_without_absorbing_top():
    # stars of radius-9 balls escape every member on a 40-wide carrier
    space = builder_line(40, 1.0)
    rep = check_ls_base(metric_ls_base(space, (1.0, 3.0, 9.0)))
    assert not rep.status
    assert rep.counterexample["reason"] == "no base cover coarsens st(u, v)"


def test_hausdorff_small_scale():
    base = metric_ss_base(LINE20, (3.0, 1.0, 1.0 / 3))
    assert is_hausdorff(base).status


def test_base_radii_validation():
    with pytest.raises(InstanceError):
        metric_ss_base(LINE20, (1.0, 3.0))
    with pytest.raises(InstanceError):
        metric_ls_base(LINE20, (3.0, 1.0))
    with pytest.raises(InstanceError):
        metric_ss_base(LINE20, ())
    with pytest.raises(InstanceError):
        metric_ls_base(LINE20, (-1.0,))


intervals = st.lists(
    st.tuples(st.integers(min_value=0, max_value=11),
              st.integers(min_value=0, max_value=11)),
    min_size=1, max_size=5)


def build_cover(space, pairs):
    els = []
    for a, b in pairs:
        lo, hi = min(a, b), max(a, b)
        els.append(frozenset(range(lo, hi + 1)))
    return trivial_extension(Cover(space, tuple(els)))


@settings(deadline=None)
@given(intervals)
def test_refines_reflexive_and_oracle(pairs):
    space = builder_line(11, 1.0)
    u = build_cover(space, pairs)
    assert refines(u, u)
    assert refines(u, star_family(u, u))


@settings(deadline=None)
@given(intervals, intervals)
def test_refines_agrees_with_oracle(pa, pb):
    space = builder_line(11, 1.0)
    u = build_cover(space, pa)
    v = build_cover(space, pb)
    assert refines(u, v) == oracle_refines(u, v)
    sf = star_family(u, v)
    for el, base in zip(sf.elements, u.elements):
        assert set(el) == set(oracle_star(base, v))


@settings(deadline=None)
@given(intervals, intervals)
def test_smaller_or_equal_implies_refines(pa, pb):
    space = builder_line(11, 1.0)
    u = build_cover(space, pa)
    v = build_cover(space, pb)
    if smaller_or_equal(u, v):
        assert refines(u, v)


def test_pou_row_sums_checked():
    w = np.array([[0.6, 0.5], [0.5, 0.5]])
    with pytest.raises(InstanceError):
        PartitionOfUnity(builder_line(1, 1.0), w)


def test_pou_supports_and_value():
    space = builder_line(3, 1.0)
    w = np.array([[1.0, 0.0], [0.5, 0.5], [0.0, 1.0], [0.0, 1.0]])
    phi = PartitionOfUnity(space, w)
    assert phi.supports() == (frozenset({0, 1}), frozenset({1, 2, 3}))
    assert np.allclose(phi.value(1), [0.5, 0.5])


def test_pou_prune_drops_zero_columns():
    space = builder_line(2, 1.0)
    w = np.array([[1.0, 0.0, 0.0], [1.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    phi = PartitionOfUnity(space, w, index=(0, 1, 2)).prune()
    assert phi.weights.shape[1] == 1
    assert phi.index == (0,)


def test_pou_support_cover_subordinated():
    space = builder_line(3, 1.0)
    w = np.array([[1.0, 0.0], [0.5, 0.5], [0.0, 1.0], [0.0, 1.0]])
    phi = PartitionOfUnity(space, w)
    u = Cover(space, (frozenset({0, 1}), frozenset({1, 2, 3})))
    assert subordinated(phi, u)
    tight = Cover(space, (frozenset({0}), frozenset({1, 2, 3})))
    assert not subordinated(phi, tight)
    assert pou_support(phi).element_set() == u.element_set()


def test_ball_cover_open_vs_closed_radius():
    # open balls at the minimum gap are singletons
    u = ball_cover(LINE10, 1.0)
    assert all(len(e) == 1 for e in u.elements)
    v = ball_cover(LINE10, 1.5)
    assert max(len(e) for e in v.elements) == 3
