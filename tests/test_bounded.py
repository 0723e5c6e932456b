import itertools

import numpy as np
import pytest

from scalekit import bounded
from scalekit.bounded import (BoundedStructure, check_axioms, check_proper,
                              desk_weakly_bounded, lemma_wb_test, proper_hls_test,
                              proper_hss_test, st_weakly_bounded_test, star_probes,
                              uniformly_bounded, witness_space)
from scalekit.metric import ball_cover, metric_ls_base, metric_ss_base
from scalekit.model import Filtration, InstanceError, Space, builder_line
from scalekit.scales import Cover
from scalekit.translation import z_window
from test_matrix_oracles import oracle_traces


def line(n):
    return builder_line(n, 1.0)


def interval(space, lo, hi):
    vals = space.values()
    return frozenset(np.flatnonzero((vals >= lo) & (vals <= hi)).tolist())


def trunc_nat():
    from scalekit.catalogues import trunc_nat as tn
    return tn()


def oracle_generated_family(space, generators):
    # literal fixpoint: generators, all singletons, unions of overlapping
    # members, and all subsets of members
    fam = {frozenset({i}) for i in range(space.n)}
    fam.add(frozenset())
    fam |= {frozenset(g) for g in generators}
    changed = True
    while changed:
        changed = False
        pairs = [(a, b) for a, b in itertools.combinations(fam, 2) if a & b]
        for a, b in pairs:
            u = a | b
            if u not in fam:
                fam.add(u)
                changed = True
    # close downward
    closed = set(fam)
    for m in fam:
        for r in range(len(m)):
            for sub in itertools.combinations(sorted(m), r):
                closed.add(frozenset(sub))
    return closed


def test_is_member_matches_fixpoint_oracle():
    space = line(9)
    gens = (interval(space, 0, 2), interval(space, 2, 4), interval(space, 6, 7))
    b = BoundedStructure(space, gens)
    fam = oracle_generated_family(space, gens)
    for r in range(space.n + 1):
        for sub in itertools.combinations(range(space.n), r):
            s = frozenset(sub)
            assert b.is_member(s) == (s in fam), sorted(s)


def test_components_transitive_closure():
    space = line(9)
    gens = (interval(space, 0, 2), interval(space, 2, 4), interval(space, 6, 7))
    b = BoundedStructure(space, gens)
    comps = {frozenset(c) for c in b.components().components}
    assert frozenset(interval(space, 0, 4)) in comps
    assert frozenset(interval(space, 6, 7)) in comps
    assert frozenset({5}) in comps
    assert frozenset({8}) in comps


def test_components_are_numbered_by_minimal_point():
    # the third generator re-roots the class of 0 at 3, past the root of {1, 2}
    b = BoundedStructure(line(5), ({0, 5}, {1, 2}, {3, 5}))
    part = b.components()
    assert part.ids.tolist() == [0, 1, 1, 0, 2, 0]
    assert part.components == (frozenset({0, 3, 5}), frozenset({1, 2}), frozenset({4}))
    assert oracle_traces((part.components, part.ids), {5, 2, 4}) == [
        (0, frozenset({5})), (1, frozenset({2})), (2, frozenset({4}))]


def test_check_axioms_reports_counts():
    space = line(9)
    b = BoundedStructure(space, (interval(space, 0, 3), interval(space, 2, 6)))
    rep = check_axioms(b)
    assert rep.status
    assert rep.witnesses[0]["components"] >= 1


def test_empty_generator_rejected():
    with pytest.raises(InstanceError):
        BoundedStructure(line(4), (frozenset(),))


def test_from_filtration_and_from_metric():
    tn = trunc_nat()
    bf = bounded.from_filtration(tn)
    assert set(bf.generators) == set(tn.filtration.levels)
    bm = bounded.from_metric(line(5))
    # one finite-distance class on a connected line
    assert len(bm.components().components) == 1


def test_weakly_bounded_literal_is_cheap_true():
    # every trace lies in one component, so each is a member: the literal
    # notion decides nothing, which is why only the desk notion is computed
    tn = trunc_nat()
    b = bounded.from_filtration(tn)
    traces = oracle_traces((None, b.components().ids), range(tn.n))
    assert [cid for cid, _ in traces] == list(range(len(b.components().components)))
    assert all(b.is_member(t) for _, t in traces)
    assert frozenset().union(*(t for _, t in traces)) == frozenset(range(tn.n))


def test_desk_weakly_bounded_frozen_cases():
    tn = trunc_nat()
    b = bounded.from_filtration(tn)
    k3 = interval(tn, 0, 30)
    ok, detail = desk_weakly_bounded(k3, b)
    assert ok and detail["mode"] == "truncation"
    ok, _ = desk_weakly_bounded(frozenset({150}), b)
    assert ok  # singleton traces always certify
    ok, _ = desk_weakly_bounded(interval(tn, 0, 50) | frozenset({150}), b)
    assert not ok  # a stray point past the top window is refused
    ok, _ = desk_weakly_bounded(tn.subset(["0", "5", "199"]), b)
    assert not ok


def test_desk_weakly_bounded_literal_mode():
    space = line(6)
    b = BoundedStructure(space, (interval(space, 0, 3),))
    ok, detail = desk_weakly_bounded(interval(space, 0, 2), b)
    assert ok and detail["mode"] == "literal"


def test_star_probes_exclude_top_window():
    tn = trunc_nat()
    b = bounded.from_filtration(tn)
    probes = star_probes(b)
    assert [name for name, _ in probes] == ["K%d" % k for k in range(1, 10)]


def test_witness_space_layout():
    tn = trunc_nat()
    b = bounded.from_filtration(tn)
    names, rows = witness_space(b)
    assert rows.shape == (len(names), tn.n) and not rows.flags.writeable
    assert names[0] == "empty" and not rows[0].any()
    assert names[1:11] == tuple("K%d" % k for k in range(1, 11))
    assert all(np.array_equal(rows[k + 1], tn.depth <= k) for k in range(10))
    sizes = rows[1:11].sum(axis=1).tolist()
    assert sizes == sorted(sizes)
    # tail entries are window-plus-component patches
    assert all("+comp@" in nm for nm in names[11:])


def test_witness_space_unfiltered():
    space = line(6)
    b = BoundedStructure(space, (interval(space, 0, 2), interval(space, 4, 6)))
    names, rows = witness_space(b)
    assert names[0] == "empty" and not rows[0].any()
    tails = {frozenset(np.flatnonzero(r).tolist()) for r in rows[1:]}
    assert interval(space, 0, 2) in tails
    assert interval(space, 4, 6) in tails


def test_uniformly_bounded():
    tn = trunc_nat()
    base = metric_ls_base(tn, (1.0, 3.0, 9.0))
    tens = Cover(tn, tuple(interval(tn, 10 * k, 10 * k + 9) for k in range(20))
                 + (frozenset({tn.n - 1}),), name="tens")
    halves = Cover(tn, (interval(tn, 0, 100), interval(tn, 100, 200)))
    assert uniformly_bounded(tens, base)
    assert not uniformly_bounded(halves, base)


def test_st_weakly_bounded_star_lands_in_second_window():
    tn = trunc_nat()
    b = bounded.from_filtration(tn)
    base = metric_ls_base(tn, (1.0, 3.0, 9.0))
    tens = Cover(tn, tuple(interval(tn, 10 * k, 10 * k + 9) for k in range(20))
                 + (frozenset({tn.n - 1}),), name="tens")
    rep = st_weakly_bounded_test(interval(tn, 5, 12), tens, b, base)
    assert rep.status
    w = rep.witnesses[0]
    assert w["star_inside"] == "K2"
    # elements past the top window straddle singleton components
    assert any("straddles" in note for note in rep.notes)
    assert w["componentwise_identity"] is None


def test_st_weakly_bounded_componentwise_identity_runs():
    space = line(10)
    b = BoundedStructure(space, (interval(space, 0, 4), interval(space, 6, 10)))
    u = Cover(space, (interval(space, 0, 2), interval(space, 2, 4),
                      frozenset({5}), interval(space, 6, 8),
                      interval(space, 8, 10)))
    base = metric_ls_base(space, (1.0, 3.0, 9.0, 27.0))
    rep = st_weakly_bounded_test(interval(space, 0, 1), u, b, base)
    assert rep.status
    assert rep.witnesses[0]["componentwise_identity"] is True
    assert not rep.notes


def test_st_weakly_bounded_requires_uniform_cover():
    tn = trunc_nat()
    b = bounded.from_filtration(tn)
    base = metric_ls_base(tn, (1.0, 3.0))
    halves = Cover(tn, (interval(tn, 0, 100), interval(tn, 100, 200)))
    with pytest.raises(InstanceError):
        st_weakly_bounded_test(interval(tn, 0, 5), halves, b, base)


def test_check_proper_identity_passes():
    tn = trunc_nat()
    b = bounded.from_filtration(tn)
    rep = check_proper(np.arange(tn.n), b, b)
    assert rep.status


def test_check_proper_collapse_fails():
    # pushing the far tail onto one point makes some preimage unbounded
    tn = trunc_nat()
    b = bounded.from_filtration(tn)
    f = np.minimum(np.arange(tn.n) * 2, tn.n - 1)
    rep = check_proper(f, b, b)
    assert not rep.status
    assert rep.counterexample["preimage_size"] > 1


def test_lemma_wb_identity_on_windowed_integers():
    zw = z_window(10, level_step=3)
    b = bounded.from_filtration(zw)
    rep = lemma_wb_test(np.arange(zw.n), b, b)
    assert rep.status
    assert rep.witnesses[0]["witnesses_checked"] > 0
    assert any("desk certificate" in note for note in rep.notes)


def test_lemma_wb_documents_hypothesis_failure():
    tn = trunc_nat()
    b = bounded.from_filtration(tn)
    f = np.minimum(np.arange(tn.n) * 2, tn.n - 1)
    rep = lemma_wb_test(f, b, b)
    assert rep.status  # the lemma is not contradicted, a hypothesis fails
    w = rep.witnesses[0]
    assert not (w["hypothesis_proper"] and w["hypothesis_bounded_image"])
    assert any("hypothesis failed" in note for note in rep.notes)


def test_proper_hss():
    tn = trunc_nat()
    b = bounded.from_filtration(tn)
    base = metric_ss_base(tn, (3.0, 1.0, 1.0 / 3))
    rep = proper_hss_test(b, base)
    assert rep.status


def test_proper_hls():
    tn = trunc_nat()
    b = bounded.from_filtration(tn)
    base = metric_ls_base(tn, (1.0, 3.0, 9.0))
    covers = [ball_cover(tn, 3.0)]
    rep = proper_hls_test(b, base, covers)
    assert rep.status
    bad = proper_hls_test(b, base, [Cover(tn, (interval(tn, 0, 200),))])
    assert not bad.status
