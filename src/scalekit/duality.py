"""Membership of scales in the large-scale structure a function catalogue
induces, and the classical structures it is compared against.

The induced membership test has two halves: stars of declared windows must
stay weakly bounded, and every catalogue function must settle below each eps
once a large enough witness is subtracted.  The same carrier supports the
vanishing-family check, the maximal compatible structure, and the
continuously controlled structure, so their agreement can be measured
instead of assumed.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra_comm import FunctionFamily, is_ss_continuous
from .bounded import (BoundedStructure, desk_weakly_bounded, star_probes,
                      uniformly_bounded, witness_space)
from .model import InstanceError, fmt_value, positive_grid
from .oscillation import SOQuery, build_scaled_refuter, heavy_pairs, is_slowly_oscillating
from .reports import CheckReport, truncation_label
from .scales import Cover, ScaleBase, star_family, star_set


@dataclass(eq=False)
class LSQuery:
    """One cover against a bounded structure, a function catalogue, and a
    descending eps grid."""

    cover: Cover
    structure: BoundedStructure
    catalogue: FunctionFamily
    eps_grid: tuple

    def __post_init__(self):
        space = self.structure.space
        if self.cover.space is not space or self.catalogue.space is not space:
            raise InstanceError("cover, structure and catalogue must share a space")
        eps = positive_grid(self.eps_grid, "eps grid")
        if any(a <= b for a, b in zip(eps, eps[1:])):
            raise InstanceError("eps grid must be strictly descending")
        self.eps_grid = eps


def _star_condition(cover: Cover, b: BoundedStructure):
    """Stars of the certified probes must stay weakly bounded."""
    hits = []
    for name, probe in star_probes(b):
        st = star_set(probe, cover)
        ok, detail = desk_weakly_bounded(st, b)
        if not ok:
            return None, {"condition": 1, "probe": name, "detail": detail}
        hits.append({"probe": name, "star_size": len(st)})
    return hits, None


def _mask_of(space, subset) -> np.ndarray:
    m = np.zeros(space.n, dtype=bool)
    if subset:
        m[np.fromiter(subset, dtype=np.int64)] = True
    return m


def ls_membership(q: LSQuery) -> CheckReport:
    """Does the cover belong to the structure the catalogue induces.

    Condition 1 stars each window below the top; condition 2 hunts, per
    function, eps and window, for an enlarging witness that kills every
    oversized value gap.  Witnesses are scanned in the canonical order.
    """
    space = q.structure.space
    hits, fail = _star_condition(q.cover, q.structure)
    if fail is not None:
        return CheckReport("ls_membership", False, counterexample=fail,
                           truncation=truncation_label(space))
    ws = witness_space(q.structure)
    masks = [(name, s, _mask_of(space, s)) for name, s in ws]
    if space.filtration is not None:
        bases = [("K%d" % (i + 1), k)
                 for i, k in enumerate(space.filtration.levels)]
    else:
        bases = [("empty", frozenset())]
    witnesses = [{"condition": 1, "stars": hits}]
    for fname, fvals in zip(q.catalogue.names, q.catalogue.values):
        for eps in q.eps_grid:
            pairs = heavy_pairs(fvals, q.cover, eps)
            xs = np.fromiter((p[1] for p in pairs), dtype=np.int64)
            ys = np.fromiter((p[2] for p in pairs), dtype=np.int64)
            for bname, base in bases:
                hit = next((wname for wname, s, mask in masks
                            if base <= s and (not xs.size
                                              or bool((mask[xs] | mask[ys]).all()))),
                           None)
                if hit is None:
                    surv = next(({"element": q.cover.labels()[k],
                                  "pair": [space.points[x], space.points[y]],
                                  "gap": fmt_value(gap)}
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


def ls_structure_axiom_test(u: Cover, v: Cover, q_template: LSQuery) -> CheckReport:
    """Closure under stars with the third-of-eps chaining.

    If both covers pass membership on the grid divided by three, the star
    family must pass on the original grid.
    """
    fine = tuple(e / 3 for e in q_template.eps_grid)
    b, cat = q_template.structure, q_template.catalogue
    ru = ls_membership(LSQuery(u, b, cat, fine))
    rv = ls_membership(LSQuery(v, b, cat, fine))
    st = star_family(u, v)
    rs = ls_membership(LSQuery(st, b, cat, q_template.eps_grid))
    hypothesis = ru.status and rv.status
    ok = (not hypothesis) or rs.status
    notes = () if hypothesis else ("hypothesis fails at eps/3: nothing to check",)
    return CheckReport("ls_structure_axiom", ok,
                       witnesses=({"u": ru.status, "v": rv.status,
                                   "star": rs.status},),
                       counterexample=None if ok else rs.counterexample,
                       notes=notes, truncation=truncation_label(b.space))


def _element_sub_diam(space, el, removed: frozenset) -> float:
    keep = sorted(el - removed)
    if len(keep) < 2:
        return 0.0
    idx = np.fromiter(keep, dtype=np.int64)
    return float(space.d[np.ix_(idx, idx)].max())


def wright_c0_check(cover: Cover, space) -> CheckReport:
    """Vanishing family: past some window every element is thinner than eps.

    Strict inequality, metric diameters.  Elements poking past the top
    window are noted; their smallness at infinity is taken on trust.
    """
    if space.filtration is None:
        raise InstanceError("the vanishing family needs declared windows")
    if space.d is None:
        raise InstanceError("the vanishing family needs a metric")
    levels = space.filtration.levels
    top = levels[-1]
    notes = []
    over = [k for k, el in enumerate(cover.elements) if not el <= top]
    if over:
        notes.append("%d elements reach past the top window; smallness out "
                     "there is taken on trust" % len(over))
    eps_grid = (1.0, 0.5, 0.25)
    witnesses = []
    for eps in eps_grid:
        hit = next((j for j, k in enumerate(levels)
                    if all(_element_sub_diam(space, el, k) < eps
                           for el in cover.elements)), None)
        if hit is None:
            j = len(levels) - 1
            k = levels[j]
            viol = next(kk for kk, el in enumerate(cover.elements)
                        if _element_sub_diam(space, el, k) >= eps)
            return CheckReport(
                "wright_c0", False, witnesses=tuple(witnesses),
                counterexample={"eps": eps, "element": cover.labels()[viol],
                                "diam_past_top": fmt_value(
                                    _element_sub_diam(space, cover.elements[viol], k)),
                                "reason": "no window thins the family below eps"},
                notes=tuple(notes), truncation=truncation_label(space))
        witnesses.append({"eps": eps, "window": "K%d" % (hit + 1)})
    return CheckReport("wright_c0", True, witnesses=tuple(witnesses),
                       notes=tuple(notes), truncation=truncation_label(space))


def maximal_structure_check(cover: Cover, b: BoundedStructure) -> CheckReport:
    """Stars of windows below the top must land inside some window."""
    space = b.space
    if space.filtration is None:
        raise InstanceError("the maximal compatible structure needs windows")
    levels = space.filtration.levels
    top = levels[-1]
    notes = []
    over = sum(1 for el in cover.elements if not el <= top)
    if over:
        notes.append("%d elements reach past the top window" % over)
    witnesses = []
    for name, probe in star_probes(b):
        st = star_set(probe, cover)
        home = next((j for j, k in enumerate(levels) if st <= k), None)
        if home is None:
            spill = sorted(st - top)
            return CheckReport(
                "maximal_structure", False, witnesses=tuple(witnesses),
                counterexample={"probe": name,
                                "spill": [space.points[i] for i in spill[:4]],
                                "reason": "star fits no window"},
                notes=tuple(notes), truncation=truncation_label(space))
        witnesses.append({"probe": name, "home": "K%d" % (home + 1)})
    return CheckReport("maximal_structure", True, witnesses=tuple(witnesses),
                       notes=tuple(notes), truncation=truncation_label(space))


def continuously_controlled_check(cover: Cover, b: BoundedStructure) -> CheckReport:
    """Windows below the top have stars weakly bounded, and elements leaving
    a late window must avoid the early one entirely."""
    space = b.space
    if space.filtration is None:
        raise InstanceError("the continuously controlled structure needs windows")
    hits, fail = _star_condition(cover, b)
    if fail is not None:
        return CheckReport("continuously_controlled", False, counterexample=fail,
                           truncation=truncation_label(space))
    levels = space.filtration.levels
    all_pts = frozenset(range(space.n))
    outside = [all_pts - k for k in levels]
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


def theorem75_agreement(named_covers, b: BoundedStructure, fam: FunctionFamily,
                        eps_grid) -> CheckReport:
    """Induced membership versus continuous control, cover by cover.

    Only meaningful for catalogues that settle to constants far out, so
    other families are refused.  Tail variation of the catalogue over the
    outermost region is reported alongside.
    """
    space = b.space
    if space.filtration is None:
        raise InstanceError("agreement needs declared windows")
    if not fam.constant_at_infinity:
        raise InstanceError("catalogue is not declared constant at infinity")
    levels = space.filtration.levels
    far = sorted(frozenset(range(space.n)) - levels[-2]) if len(levels) > 1 \
        else list(range(space.n))
    idx = np.fromiter(far, dtype=np.int64)
    tail = 0.0
    for row in fam.values:
        vals = row[idx]
        tail = max(tail, float(np.abs(vals[:, None] - vals[None, :]).max()))
    notes = ("catalogue tail variation %s past K%d" % (fmt_value(tail),
                                                       len(levels) - 1),)
    rows = []
    agree = True
    for name, cov in named_covers:
        m = ls_membership(LSQuery(cov, b, fam, eps_grid))
        c = continuously_controlled_check(cov, b)
        rows.append({"cover": name, "induced": m.status, "controlled": c.status})
        agree = agree and (m.status == c.status)
    cx = None
    if not agree:
        cx = next(r for r in rows if r["induced"] != r["controlled"])
    return CheckReport("theorem75_agreement", agree, witnesses=tuple(rows),
                       counterexample=cx, notes=notes,
                       truncation=truncation_label(space))


def s0_classify(f, name: str, b: BoundedStructure, ss_base: ScaleBase,
                ls_base: ScaleBase, eps_grid) -> CheckReport:
    """Place a function relative to both regimes.

    Passing both the small-scale continuity check and the slow oscillation
    check admits it to the doubly controlled class; otherwise the report
    names the failing side and a value-jump pair from each failure.
    """
    space = b.space
    f = np.asarray(f, dtype=complex)
    rss = is_ss_continuous(f, ss_base, eps_grid)
    rso = is_slowly_oscillating(SOQuery(f, ls_base.covers, eps_grid, b, name=name),
                                form="strict")
    cases = {(True, True): "both regimes: doubly controlled",
             (False, True): "slowly oscillating but jumps at small scale",
             (True, False): "small-scale continuous but oscillates at infinity",
             (False, False): "controlled at neither scale"}
    case = cases[(rss.status, rso.status)]
    cx = {}
    if not rss.status:
        eps = rss.counterexample["eps"]
        fine = ss_base.covers[-1]
        for k, el in enumerate(fine.elements):
            idx = np.fromiter(sorted(el), dtype=np.int64)
            if idx.size < 2:
                continue
            vals = f[idx]
            gaps = np.abs(vals[:, None] - vals[None, :])
            if gaps.max() > eps:
                i, j = np.unravel_index(int(gaps.argmax()), gaps.shape)
                cx["small_scale_pair"] = [space.points[idx[i]], space.points[idx[j]]]
                cx["small_scale_gap"] = fmt_value(float(gaps[i, j]))
                break
    if not rso.status:
        cx["large_scale"] = rso.counterexample
    return CheckReport("s0_classify[%s]" % name, rss.status and rso.status,
                       witnesses=({"ss_continuous": rss.status,
                                   "slowly_oscillating": rso.status,
                                   "case": case},),
                       counterexample=cx or None,
                       truncation=truncation_label(space))


def _extreme_pairs(cover: Cover, space):
    """Per element, the lexicographically first pair realizing its diameter."""
    out = []
    for k, el in enumerate(cover.elements):
        idx = np.fromiter(sorted(el), dtype=np.int64)
        if idx.size < 2:
            continue
        sub = space.d[np.ix_(idx, idx)]
        i, j = np.unravel_index(int(sub.argmax()), sub.shape)
        if sub[i, j] > 0:
            x, y = int(idx[i]), int(idx[j])
            out.append((k, min(x, y), max(x, y), float(sub[i, j])))
    return out


def reflectivity_oracle(cover: Cover, b: BoundedStructure, ls_base: ScaleBase,
                        catalogue: FunctionFamily, eps_grid) -> CheckReport:
    """Can the cover sit inside the structure the oscillating algebra induces.

    Uniformly bounded covers are waved through.  Otherwise the oracle tries
    to refute: an unbounded star already decides, else it grows unit-height
    tents on a greedily separated subsequence of the widest in-element pairs
    and asks membership with the tent function adjoined.
    """
    space = b.space
    if space.d is None:
        raise InstanceError("the oracle needs a metric")
    if uniformly_bounded(cover, ls_base):
        return CheckReport("reflectivity_oracle", True,
                           witnesses=({"verdict": "MEMBER-CONSISTENT",
                                       "route": "uniform boundedness precheck"},),
                           notes=("membership consistent without a witness search",),
                           truncation=truncation_label(space))
    hits, fail = _star_condition(cover, b)
    if fail is not None:
        confirm = ls_membership(LSQuery(cover, b, catalogue, eps_grid))
        return CheckReport("reflectivity_oracle", False,
                           witnesses=({"verdict": "NOT-MEMBER",
                                       "route": "unbounded star"},),
                           counterexample={**fail,
                                           "membership_confirms": not confirm.status},
                           truncation=truncation_label(space))
    picks = []
    k = 1
    for _, x, y, dist in _extreme_pairs(cover, space):
        if dist < 2 * k:
            continue
        ok = all(space.d[x, px] > pr + k and space.d[y, px] >= pr
                 and space.d[py, x] >= k
                 for px, py, pr in picks)
        if ok:
            picks.append((x, y, k))
            k += 1
    if not picks:
        return CheckReport("reflectivity_oracle", True,
                           witnesses=({"verdict": "INCONCLUSIVE",
                                       "route": "no separated wide pairs"},),
                           truncation=truncation_label(space))
    refuter = build_scaled_refuter(space, [p[0] for p in picks],
                                   [p[2] for p in picks])
    ws = witness_space(b)
    refuted = True
    for _, s in ws:
        if not any(x not in s and y not in s for x, y, _ in picks):
            refuted = False
            break
    pick_view = [{"pair": [space.points[x], space.points[y]], "radius": r}
                 for x, y, r in picks]
    if not refuted:
        return CheckReport("reflectivity_oracle", True,
                           witnesses=({"verdict": "INCONCLUSIVE",
                                       "route": "tents absorbed by the window ladder",
                                       "picks": pick_view},),
                           truncation=truncation_label(space))
    cat2 = FunctionFamily(space, tuple(catalogue.names) + ("tent_refuter",),
                          np.vstack([catalogue.values, refuter.reshape(1, -1)]),
                          constant_at_infinity=False)
    confirm = ls_membership(LSQuery(cover, b, cat2, eps_grid))
    notes = []
    if min(eps_grid) >= 1:
        notes.append("eps grid never drops below the tent height")
    return CheckReport("reflectivity_oracle", False,
                       witnesses=({"verdict": "NOT-MEMBER",
                                   "route": "tent refuter", "picks": pick_view},),
                       counterexample={"membership_confirms": not confirm.status,
                                       "detail": confirm.counterexample},
                       notes=tuple(notes), truncation=truncation_label(space))
