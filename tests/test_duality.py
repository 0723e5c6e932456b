import numpy as np
import pytest

from scalekit import bounded
from scalekit.algebra_comm import FunctionFamily
from scalekit.catalogues import (EPS_DEFAULT, constant_at_infinity_family,
                                 halfline, membership_catalogue,
                                 shrink_cover, t75_catalogue, trunc_nat,
                                 unit_cover, wide_pairs_cover)
from scalekit.duality import (LSQuery, continuously_controlled_check,
                              ls_membership, ls_structure_axiom_test,
                              maximal_structure_check, reflectivity_oracle,
                              s0_classify, theorem75_agreement,
                              wright_c0_check)
from scalekit.metric import ball_cover, metric_ls_base, metric_ss_base
from scalekit.model import Filtration, InstanceError, Space
from scalekit.scales import Cover

TN = trunc_nat()
TN_B = bounded.from_filtration(TN)
TN_FAM = constant_at_infinity_family()
HL = halfline()
HL_B = bounded.from_filtration(HL)
HL_FAM = membership_catalogue()
T75 = {name: (cov, expect) for name, cov, expect in t75_catalogue()}


def test_t75_catalogue_membership_frozen():
    for name, (cov, expect) in T75.items():
        rep = ls_membership(LSQuery(cov, TN_B, TN_FAM, EPS_DEFAULT))
        assert rep.status == expect, name


def test_t75_catalogue_controlled_matches_membership():
    for name, (cov, _) in T75.items():
        m = ls_membership(LSQuery(cov, TN_B, TN_FAM, EPS_DEFAULT)).status
        c = continuously_controlled_check(cov, TN_B).status
        assert m == c, name


def test_theorem75_agreement_report():
    named = [(name, cov) for name, (cov, _) in sorted(T75.items())]
    rep = theorem75_agreement(named, TN_B, TN_FAM, EPS_DEFAULT)
    assert rep.status
    assert all(r["induced"] == r["controlled"] for r in rep.witnesses)
    assert any("tail variation" in n for n in rep.notes)


def test_theorem75_refuses_unfit_catalogues():
    rows = TN_FAM.values
    loose = FunctionFamily(TN, TN_FAM.names, rows, constant_at_infinity=False)
    with pytest.raises(InstanceError):
        theorem75_agreement([("tens", T75["tens"][0])], TN_B, loose, EPS_DEFAULT)


def test_ls_membership_witnesses_verify():
    rep = ls_membership(LSQuery(T75["tens"][0], TN_B, TN_FAM, EPS_DEFAULT))
    assert rep.status
    from scalekit.bounded import witness_space
    from scalekit.oscillation import heavy_pairs
    names, rows = witness_space(TN_B)
    for w in rep.witnesses:
        if w.get("condition") != 2:
            continue
        s = frozenset(np.flatnonzero(rows[names.index(w["witness"])]).tolist())
        f = TN_FAM.member(w["function"])
        for _, x, y, _ in heavy_pairs(f, T75["tens"][0], w["eps"]):
            assert x in s or y in s


def test_ls_membership_shrink_and_unit_frozen():
    ok = ls_membership(LSQuery(shrink_cover(), HL_B, HL_FAM, EPS_DEFAULT))
    assert ok.status
    bad = ls_membership(LSQuery(unit_cover(), HL_B, HL_FAM, EPS_DEFAULT))
    assert not bad.status
    cx = bad.counterexample
    assert cx["condition"] == 2
    assert cx["function"] == "bump"
    assert cx["eps"] == 0.5
    assert cx["window"] == "K1"
    assert cx["surviving"]["pair"] == ["100.125", "100.75"]
    assert cx["surviving"]["gap"] == "0.625"


def test_ls_membership_condition1_failure():
    rep = ls_membership(LSQuery(T75["escaper"][0], TN_B, TN_FAM, EPS_DEFAULT))
    assert not rep.status
    assert rep.counterexample["condition"] == 1


def test_lsquery_validation():
    with pytest.raises(InstanceError):
        LSQuery(T75["tens"][0], TN_B, HL_FAM, EPS_DEFAULT)
    with pytest.raises(InstanceError):
        LSQuery(T75["tens"][0], TN_B, TN_FAM, (0.25, 0.5))
    with pytest.raises(InstanceError):
        LSQuery(T75["tens"][0], TN_B, TN_FAM, ())


def test_axiom_closure_non_vacuous():
    q = LSQuery(T75["tens"][0], TN_B, TN_FAM, EPS_DEFAULT)
    rep = ls_structure_axiom_test(T75["tens"][0], T75["fives"][0], q)
    assert rep.status
    assert rep.witnesses[0] == {"u": True, "v": True, "star": True}
    assert not rep.notes


def test_axiom_vacuous_case_is_flagged():
    q = LSQuery(unit_cover(), HL_B, HL_FAM, EPS_DEFAULT)
    rep = ls_structure_axiom_test(unit_cover(), unit_cover(), q)
    assert rep.status
    assert any("hypothesis fails" in n for n in rep.notes)


def test_wright_c0_shrink_frozen():
    rep = wright_c0_check(shrink_cover(), HL)
    assert rep.status
    assert [w["window"] for w in rep.witnesses] == ["K1", "K1", "K1"]
    assert any("taken on trust" in n for n in rep.notes)


def test_wright_c0_unit_fails_immediately():
    rep = wright_c0_check(unit_cover(), HL)
    assert not rep.status
    assert rep.counterexample["eps"] == 1.0
    assert rep.counterexample["diam_past_top"] == "1"


def test_wright_c0_needs_windows_and_metric():
    from scalekit.model import builder_line
    with pytest.raises(InstanceError):
        wright_c0_check(Cover(builder_line(4, 1.0),
                              (frozenset({0, 1, 2, 3, 4}),)),
                        builder_line(4, 1.0))


def test_maximal_structure_shrink_and_unit():
    assert maximal_structure_check(shrink_cover(), HL_B).status
    assert maximal_structure_check(unit_cover(), HL_B).status


def test_maximal_structure_spill():
    rep = maximal_structure_check(T75["tail-bridger"][0], TN_B)
    assert not rep.status
    assert rep.counterexample["reason"] == "star fits no window"
    assert rep.counterexample["spill"]


def test_ccs_tens_witness_depths():
    rep = continuously_controlled_check(T75["tens"][0], TN_B)
    assert rep.status
    depths = [w for w in rep.witnesses if w.get("condition") == 2]
    assert len(depths) == 9


def test_ccs_tail_bridger_fails_star_condition():
    rep = continuously_controlled_check(T75["tail-bridger"][0], TN_B)
    assert not rep.status
    assert rep.counterexample["condition"] == 1


def test_ccs_condition2_on_metricless_carrier():
    # without a metric the deep-bridging element passes the star test but
    # cannot satisfy the depth condition
    points = [str(k) for k in range(31)]
    levels = (frozenset(range(11)), frozenset(range(21)))
    sp = Space(points, filtration=Filtration(levels))
    b = bounded.from_filtration(sp)
    els = tuple(frozenset({i}) for i in range(31)) + (frozenset({5, 25}),)
    rep = continuously_controlled_check(Cover(sp, els), b)
    assert not rep.status
    cx = rep.counterexample
    assert cx["condition"] == 2
    assert cx["window"] == "K1"
    assert sorted(cx["element"]) == ["25", "5"]


S0_CASES = {
    "sat": "both regimes: doubly controlled",
    "wave": "small-scale continuous but oscillates at infinity",
    "step50": "slowly oscillating but jumps at small scale",
}


@pytest.mark.parametrize("name", sorted(S0_CASES))
def test_s0_classification(name):
    from scalekit.catalogues import oscillation_family
    fam = oscillation_family()
    ss = metric_ss_base(HL, (3.0, 1.0, 1.0 / 3))
    ls = metric_ls_base(HL, (1.0, 3.0))
    rep = s0_classify(fam.member(name), name, HL_B, ss, ls, (1.0, 0.5))
    assert rep.witnesses[0]["case"] == S0_CASES[name]


def test_s0_controlled_at_neither():
    ss = metric_ss_base(HL, (3.0, 1.0, 1.0 / 3))
    ls = metric_ls_base(HL, (1.0, 3.0))
    saw = (np.arange(HL.n) % 2).astype(complex)
    rep = s0_classify(saw, "index_saw", HL_B, ss, ls, (1.0, 0.5))
    assert rep.witnesses[0]["case"] == "controlled at neither scale"
    assert "small_scale_pair" in rep.counterexample
    assert "large_scale" in rep.counterexample


def test_reflectivity_wide_pairs_frozen():
    base = metric_ls_base(TN, (1.0, 3.0))
    rep = reflectivity_oracle(wide_pairs_cover(), TN_B, base, TN_FAM,
                              (1.0, 0.5, 0.25))
    assert not rep.status
    w = rep.witnesses[0]
    assert w["verdict"] == "NOT-MEMBER"
    assert w["route"] == "tent refuter"
    picks = [(tuple(p["pair"]), p["radius"]) for p in w["picks"]]
    assert picks == [(("1", "3"), 1), (("9", "15"), 2), (("25", "35"), 3),
                     (("49", "63"), 4), (("81", "99"), 5),
                     (("121", "143"), 6), (("169", "195"), 7)]
    assert rep.counterexample["membership_confirms"]


def test_reflectivity_tents_are_separated():
    # replay the pick rule: tents never overlap, so the refuter is honest
    base = metric_ls_base(TN, (1.0, 3.0))
    rep = reflectivity_oracle(wide_pairs_cover(), TN_B, base, TN_FAM,
                              (1.0, 0.5, 0.25))
    picks = [(tuple(p["pair"]), p["radius"])
             for p in rep.witnesses[0]["picks"]]
    centers = [int(p[0][0]) for p in picks]
    radii = [p[1] for p in picks]
    for i in range(len(picks)):
        for j in range(i + 1, len(picks)):
            assert abs(centers[i] - centers[j]) > radii[i] + radii[j]


def test_reflectivity_uniformly_bounded_waved_through():
    base = metric_ls_base(TN, (1.0, 3.0))
    rep = reflectivity_oracle(ball_cover(TN, 2.0), TN_B, base, TN_FAM,
                              (1.0, 0.5, 0.25))
    assert rep.status
    assert rep.witnesses[0]["verdict"] == "MEMBER-CONSISTENT"


def test_reflectivity_unbounded_star_route():
    base = metric_ls_base(TN, (1.0, 3.0))
    rep = reflectivity_oracle(T75["escaper"][0], TN_B, base, TN_FAM,
                              (1.0, 0.5, 0.25))
    assert not rep.status
    assert rep.witnesses[0]["route"] == "unbounded star"
    assert rep.counterexample["membership_confirms"]


def test_ls_membership_builds_heavy_pairs_once_per_function(monkeypatch):
    from scalekit import oscillation
    calls = []
    real = oscillation.heavy_pairs

    def counted(f, cover, eps):
        calls.append(eps)
        return real(f, cover, eps)

    monkeypatch.setattr(oscillation, "heavy_pairs", counted)
    # real values that pass are read from each element's extremes: no pairs
    rep = ls_membership(LSQuery(shrink_cover(), HL_B, HL_FAM, EPS_DEFAULT))
    assert rep.status
    assert calls == []
    # a constant imaginary part leaves every gap as it is but needs the pairs,
    # built at the finest eps once per function
    turned = FunctionFamily(HL, HL_FAM.names, HL_FAM.values + 1j)
    rep = ls_membership(LSQuery(shrink_cover(), HL_B, turned, EPS_DEFAULT))
    assert rep.status
    assert calls == [min(EPS_DEFAULT)] * len(HL_FAM.names)
