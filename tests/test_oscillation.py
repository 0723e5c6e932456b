import numpy as np
import pytest

from scalekit import bounded
from scalekit.catalogues import halfline, oscillation_family
from scalekit.metric import ball_cover
from scalekit.model import InstanceError, Space, builder_line
from scalekit.oscillation import (SOQuery, build_bump_refuter,
                                  build_scaled_refuter, element_diameters,
                                  equivalence_test, heavy_pairs,
                                  is_slowly_oscillating)

EPS = (1.0, 0.5, 0.25)

SPACE = halfline()
STRUCT = bounded.from_filtration(SPACE)
BASE = (ball_cover(SPACE, 1.0), ball_cover(SPACE, 3.0))


def base_covers(space):
    if space is SPACE:
        return BASE
    return (ball_cover(space, 1.0), ball_cover(space, 3.0))


def query(name, form_eps=EPS):
    f = oscillation_family().member(name)
    return SOQuery(f, BASE, form_eps, STRUCT, name=name)


# frozen catalogue verdicts: function -> (verdict, witness at the binding
# combination, the coarsest cover with the smallest eps)
CATALOGUE = {
    "one": (True, "empty"),
    "inv1p": (True, "K1"),
    "sat": (True, "K1"),
    "slow_wave": (True, "K3"),
    "wave": (False, None),
    "step50": (True, "K6"),
}


def test_element_diameters_oracle():
    space = SPACE
    f = oscillation_family().member("sat")
    u = ball_cover(space, 3.0)
    diams = element_diameters(f, u)
    # brute force on a few elements
    for k in (0, 40, 200):
        el = sorted(u.elements[k])
        vals = f[el]
        want = max(abs(a - b) for a in vals for b in vals)
        assert np.isclose(diams[k], want)


def test_heavy_pairs_ordered_and_heavy():
    space = SPACE
    f = oscillation_family().member("wave")
    u = ball_cover(space, 3.0)
    pairs = heavy_pairs(f, u, 0.5)
    assert len(pairs)
    k, x, y, gap = pairs["k"], pairs["x"], pairs["y"], pairs["gap"]
    assert (np.diff(k) >= 0).all()
    assert u.matrix[k, x].all() and u.matrix[k, y].all()
    assert (gap > 0.5).all()
    assert np.isclose(gap, np.abs(f[x] - f[y])).all()


@pytest.mark.parametrize("name", sorted(CATALOGUE))
def test_catalogue_strict_verdicts(name):
    verdict, first = CATALOGUE[name]
    rep = is_slowly_oscillating(query(name), form="strict")
    assert rep.status == verdict
    if verdict:
        assert rep.witnesses[-1]["witness"] == first
    else:
        assert rep.counterexample["mode"] == "element survives every witness"


@pytest.mark.parametrize("name", sorted(CATALOGUE))
def test_catalogue_relaxed_agrees(name):
    verdict, _ = CATALOGUE[name]
    rep = is_slowly_oscillating(query(name), form="relaxed")
    assert rep.status == verdict


@pytest.mark.parametrize("name", ["one", "sat", "wave", "step50"])
def test_equivalence_certificates(name):
    rep = equivalence_test(query(name))
    assert rep.status


def test_equivalence_computes_diameters_once_per_cover(monkeypatch):
    from scalekit import oscillation
    covers = []

    def counted(f, cover):
        covers.append(cover)
        return element_diameters(f, cover)

    monkeypatch.setattr(oscillation, "element_diameters", counted)
    rep = equivalence_test(query("one"))
    # two covers, three eps: six relaxed witness cells share the strict form's
    # two diameter passes
    assert rep.status and len(rep.witnesses) == 6
    assert covers == list(BASE)


def test_witness_certificate_is_constructive():
    # replay the emitted witness: outside it no element stays heavy
    q = query("step50")
    rep = is_slowly_oscillating(q, form="strict")
    assert rep.status
    from scalekit.bounded import witness_space
    names, rows = witness_space(q.structure)
    for w in rep.witnesses:
        witness = frozenset(np.flatnonzero(rows[names.index(w["witness"])]).tolist())
        cover = next(c for c in q.base if c.name == w["cover"])
        diams = element_diameters(q.f, cover)
        for k, el in enumerate(cover.elements):
            if diams[k] > w["eps"]:
                assert el <= witness


def test_monotone_in_eps():
    # passing at a fine grid implies passing at any coarser positive grid
    fine = is_slowly_oscillating(query("sat", (1.0, 0.5, 0.25)))
    coarse = is_slowly_oscillating(query("sat", (1.0,)))
    assert fine.status and coarse.status


def test_monotone_in_base():
    # dropping the coarser cover can only help
    space = SPACE
    fam = oscillation_family()
    b = STRUCT
    full = SOQuery(fam.member("slow_wave"), base_covers(space), EPS, b)
    thin = SOQuery(fam.member("slow_wave"), (ball_cover(space, 1.0),), EPS, b)
    assert is_slowly_oscillating(full).status
    assert is_slowly_oscillating(thin).status


def test_query_validation():
    space = SPACE
    f = oscillation_family().member("one")
    b = bounded.from_filtration(space)
    with pytest.raises(InstanceError):
        SOQuery(f, base_covers(space), (0.5, 1.0), b)  # eps must descend
    with pytest.raises(InstanceError):
        SOQuery(f, base_covers(space), (), b)
    with pytest.raises(InstanceError):
        SOQuery(f[:-1], base_covers(space), EPS, b)  # wrong shape


def test_bump_refuter_shape():
    space = SPACE
    # the last center escapes every window below the top one
    centers = [next(iter(space.subset([lbl]))) for lbl in ("10", "30", "105")]
    f = build_bump_refuter(space, centers, 1.0)
    vals = space.values()
    assert np.isclose(f.real.max(), 1.0)
    for c in centers:
        assert np.isclose(f[c].real, 1.0)
    # 1-Lipschitz against the line metric, checked on adjacent points
    steps = np.abs(np.diff(f.real))
    gaps = np.abs(np.diff(vals))
    assert np.all(steps <= gaps + 1e-12)


def test_bump_refuter_defeats_every_witness():
    # tents of height 1 keep oscillating past the top window, so the claim
    # fails at any threshold below the tent height
    space = SPACE
    b = STRUCT
    centers = [next(iter(space.subset([str(v)]))) for v in (10, 30, 60, 105)]
    f = build_bump_refuter(space, centers, 1.0)
    q = SOQuery(f, base_covers(space), (0.5,), b, name="bumps")
    rep = is_slowly_oscillating(q, form="strict")
    assert not rep.status
    assert rep.counterexample["mode"] == "element survives every witness"


@pytest.mark.parametrize("center", [-1, SPACE.n], ids=["negative", "past-the-end"])
def test_bump_refuter_rejects_centers_off_the_carrier(center):
    with pytest.raises(InstanceError, match="centers must be point indices"):
        build_bump_refuter(SPACE, [center], 1.0)


@pytest.mark.parametrize("eps", ["x", None, float("nan")], ids=["text", "none", "nan"])
def test_bump_refuter_parses_eps(eps):
    # a NaN eps used to give an all-zero function
    c10 = next(iter(SPACE.subset(["10"])))
    with pytest.raises(InstanceError, match="eps"):
        build_bump_refuter(SPACE, [c10], eps)


def test_bump_refuter_error_paths():
    space = SPACE
    c10 = next(iter(space.subset(["10"])))
    c11 = next(iter(space.subset(["11"])))
    with pytest.raises(InstanceError):
        build_bump_refuter(space, [c10], 0.0)
    with pytest.raises(InstanceError):
        build_bump_refuter(space, [c10, c10], 1.0)
    with pytest.raises(InstanceError):
        build_bump_refuter(space, [c10, c11], 1.0)  # centers too close
    with pytest.raises(InstanceError):
        # all centers trapped inside one window below the top
        build_bump_refuter(space, [c10], 1.0)


def test_scaled_refuter_peaks_are_unit():
    space = SPACE
    centers = [next(iter(space.subset([str(v)]))) for v in (10, 40, 90)]
    f = build_scaled_refuter(space, centers, (2.0, 4.0, 8.0))
    for c in centers:
        assert np.isclose(f[c].real, 1.0)
    assert f.real.max() <= 1.0 + 1e-12


@pytest.mark.parametrize("radius", [0.5, 1.0, 1.5])
def test_scaled_refuter_height_is_one_at_any_spacing(radius):
    # on a unit-spaced line a bump's height, the distance from its center
    # to the ball's complement, is 1, 1 and 2, not the radius
    f = build_scaled_refuter(builder_line(4, 1.0), [0], [radius])
    assert f[0] == 1.0 and f.max() == 1.0


def test_scaled_refuter_peaks_are_one_on_every_ball():
    space = builder_line(40, 0.5)
    centers = [0, 20, 40]
    f = build_scaled_refuter(space, centers, (0.7, 3.3, 2.1))
    assert f[centers].tolist() == [1.0, 1.0, 1.0]
    assert f.max() == 1.0


def test_scaled_refuter_is_one_on_a_ball_infinitely_far_from_the_rest():
    inf = float("inf")
    space = Space(["a", "b", "c"], metric=[[0, 1, inf], [1, 0, inf], [inf, inf, 0]])
    with np.errstate(all="raise"):
        assert build_scaled_refuter(space, [0], [2.0]).tolist() == [1.0, 1.0, 0.0]
        assert build_scaled_refuter(space, [2], [0.5]).tolist() == [0.0, 0.0, 1.0]


def test_scaled_refuter_rejects_overlap():
    space = SPACE
    centers = [next(iter(space.subset([str(v)]))) for v in (10, 12)]
    with pytest.raises(InstanceError):
        build_scaled_refuter(space, centers, (2.0, 2.0))


def test_relaxed_form_builds_heavy_pairs_once_per_cover(monkeypatch):
    from scalekit import oscillation
    calls = []
    real = oscillation.heavy_pairs

    def counted(f, cover, eps):
        calls.append((cover.name, eps))
        return real(f, cover, eps)

    monkeypatch.setattr(oscillation, "heavy_pairs", counted)
    # "one" passes every cell, so each cover is reached; real values are read
    # from each element's extremes and list no pairs
    rep = is_slowly_oscillating(query("one"), "relaxed")
    assert rep.status and len(rep.witnesses) == len(BASE) * len(EPS)
    assert calls == []
    # complex values build the heavy pairs at the finest eps once per cover
    turned = SOQuery(query("one").f * 1j, BASE, EPS, STRUCT)
    rep = is_slowly_oscillating(turned, "relaxed")
    assert rep.status and len(rep.witnesses) == len(BASE) * len(EPS)
    assert calls == [(cov.name, EPS[-1]) for cov in BASE]
