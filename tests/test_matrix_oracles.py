"""Covers and entourages are stored as bool matrices and heavy pairs as
structured arrays; these properties pit every matrix or array operation
against the set- or tuple-based version it replaced, on seeded random
carriers of 1 to 8 points, with duplicate cover elements allowed."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scalekit.algebra_comm import FunctionFamily, family_ball_cover
from scalekit.bounded import (BoundedStructure, desk_weakly_bounded,
                              witness_space)
from scalekit.duality import LSQuery, _star_condition, ls_membership
from scalekit.entourages import (Entourage, compose, entourage_of_scale,
                                 invert, scale_of_entourage, slice_at)
from scalekit.metric import ball_cover
from scalekit.model import Filtration, InstanceError, Space, builder_line, fmt_value
from scalekit.oscillation import (SOQuery, element_diameters, equivalence_test,
                                  heavy_pairs, is_slowly_oscillating)
from scalekit.reports import CheckReport, truncation_label
from scalekit.scales import Cover, refines, star_family, star_set

SEEDED = settings(deadline=None, derandomize=True, max_examples=60)


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


# -- slow oscillation: the tuple-based scans the arrays replaced ---------------

def oracle_diameters(f, elements):
    out = np.zeros(len(elements))
    for k, el in enumerate(elements):
        if len(el) >= 2:
            vals = f[np.fromiter(el, dtype=np.int64)]
            out[k] = float(np.abs(vals[:, None] - vals[None, :]).max())
    return out


def oracle_heavy_pairs(f, elements, eps):
    pairs = []
    for k, el in enumerate(elements):
        idx = np.fromiter(sorted(el), dtype=np.int64)
        if idx.size < 2:
            continue
        vals = f[idx]
        gaps = np.abs(vals[:, None] - vals[None, :])
        ii, jj = np.nonzero(np.triu(gaps > eps, k=1))
        for a, b in zip(ii, jj):
            pairs.append((k, int(idx[a]), int(idx[b]), float(gaps[a, b])))
    return pairs


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
    cells = oracle_masks(space, witness_space(q.structure))
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
    by_name = dict(witness_space(q.structure))
    checks = []
    for cell in relaxed.witnesses:
        cov = next(c for c in q.base if c.name == cell["cover"])
        starred = star_set(by_name[cell["witness"]], cov)
        diams = oracle_diameters(q.f, cov.elements)
        bad_union = set()
        for k, el in enumerate(cov.elements):
            if diams[k] > cell["eps"]:
                bad_union |= el
        wb, _ = desk_weakly_bounded(starred, q.structure)
        checks.append({"cover": cell["cover"], "eps": cell["eps"],
                       "relaxed_witness": cell["witness"],
                       "strict_at_star": bad_union <= starred, "star_desk_wb": wb})
    return tuple(checks)


def oracle_ls_membership(q):
    space = q.structure.space
    hits, fail = _star_condition(q.cover, q.structure)
    if fail is not None:
        return CheckReport("ls_membership", False, counterexample=fail,
                           truncation=truncation_label(space))
    masks = oracle_masks(space, witness_space(q.structure))
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
