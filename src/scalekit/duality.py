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
from .model import (InstanceError, entry_pairs, fmt_value, gap_table, ordered_grid,
                    widest_pair)
from .oscillation import (SOQuery, _first, _pair_entry, _widest_in, build_scaled_refuter,
                          heavy_pairs, is_slowly_oscillating)
from .reports import CheckReport, truncation_label
from .scales import (Cover, ScaleBase, base_report, element_diameters, first, star_family,
                     star_set)


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
        self.eps_grid = ordered_grid(self.eps_grid, "eps grid", "strictly descending")


def _star_condition(cover: Cover, b: BoundedStructure):
    """Stars of the certified probes must stay weakly bounded: the record of
    every star, or else the counterexample of the first that does not."""
    stars = [(name, star_set(probe, cover)) for name, probe in star_probes(b)]
    bad = first(stars, lambda st: not desk_weakly_bounded(st, b)[0])
    if bad is not None:
        detail = desk_weakly_bounded(dict(stars)[bad], b)[1]
        return None, {"condition": 1, "probe": bad, "detail": detail}
    return [{"probe": name, "star_size": len(st)} for name, st in stars], None


def ls_membership(q: LSQuery) -> CheckReport:
    """Does the cover belong to the structure the catalogue induces.

    Condition 1 stars each window below the top; condition 2 hunts, per
    function, eps and window, for an enlarging witness that kills every
    oversized value gap.  Witnesses are scanned in the canonical order.
    """
    space = q.structure.space
    hits, fail = _star_condition(q.cover, q.structure)

    def cells():
        yield {"condition": 1}, "stars", hits, None
        names, w = witness_space(q.structure)
        # per window, the names and rows of the witnesses that hold it
        if space.filtration is not None:
            holds = [("K%d" % (i + 1), w[:, space.depth <= i].all(axis=1))
                     for i in range(len(space.filtration))]
        else:
            holds = [("empty", np.ones(len(names), dtype=bool))]
        bases = [(bname, [nm for nm, h in zip(names, held) if h], w[held])
                 for bname, held in holds]
        for fname, fvals in zip(q.catalogue.names, q.catalogue.values):
            # the heavy pairs at the finest eps hold those at every eps
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
                        k = _first(~(held[:, xs] | held[:, ys]).any(axis=0))
                        surv = None if k is None else _pair_entry(space, q.cover, pairs[k])
                    yield cell, "witness", hit, {**cell, "surviving": surv}

    return base_report("ls_membership", space, () if fail is None else (fail,),
                       cells(), partial=True)


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


def wright_c0_check(cover: Cover, space) -> CheckReport:
    """Vanishing family: past some window every element is thinner than eps.

    Strict inequality, metric diameters.  Elements poking past the top
    window are noted; their smallness at infinity is taken on trust.
    """
    if space.filtration is None:
        raise InstanceError("the vanishing family needs declared windows")
    if space.d is None:
        raise InstanceError("the vanishing family needs a metric")
    top, depth = len(space.filtration), space.depth
    notes = []
    over = int((cover.value_range(depth)[1] == top).sum())
    if over:
        notes.append("%d elements reach past the top window; smallness out "
                     "there is taken on trust" % over)

    columns, starts = cover.rows.columns, cover.rows.starts
    # per depth m, the widest pair inside an element whose nearer point has
    # depth m; per element, its widest pair past the top window
    widest, far = np.zeros(top + 1), np.zeros(len(cover))
    for t, u in entry_pairs(cover.rows):
        x, y = columns[t], columns[u]
        near, dist = np.minimum(depth[x], depth[y]), space.d[x, y]
        np.maximum.at(widest, near, dist)
        out = near == top
        np.maximum.at(far, np.searchsorted(starts, t[out], "right") - 1, dist[out])
    # past[j]: the widest element once the window of index j is removed
    past = np.maximum.accumulate(widest[::-1])[::-1][1:]

    def cells():
        for eps in (1.0, 0.5, 0.25):
            hit = first((("K%d" % (j + 1), w) for j, w in enumerate(past)),
                        lambda w: w < eps)
            cx = None
            if hit is None:
                viol = int(np.argmax(far >= eps))
                cx = {"eps": eps, "element": cover.labels()[viol],
                      "diam_past_top": fmt_value(far[viol]),
                      "reason": "no window thins the family below eps"}
            yield {"eps": eps}, "window", hit, cx

    return base_report("wright_c0", space, (), cells(), notes, partial=True)


def maximal_structure_check(cover: Cover, b: BoundedStructure) -> CheckReport:
    """Stars of windows below the top must land inside some window."""
    space = b.space
    if space.filtration is None:
        raise InstanceError("the maximal compatible structure needs windows")
    top, depth = len(space.filtration), space.depth
    notes = []
    over = int((cover.value_range(depth)[1] == top).sum())
    if over:
        notes.append("%d elements reach past the top window" % over)

    def cells():
        for name, probe in star_probes(b):
            st = star_set(probe, cover)
            idx = np.sort(np.fromiter(st, dtype=np.int64, count=len(st)))
            home = int(depth[idx].max())
            cx = None
            if home == top:
                cx = {"probe": name,
                      "spill": [space.points[i] for i in idx[depth[idx] == top][:4]],
                      "reason": "star fits no window"}
            yield {"probe": name}, "home", None if cx else "K%d" % (home + 1), cx

    return base_report("maximal_structure", space, (), cells(), notes, partial=True)


def continuously_controlled_check(cover: Cover, b: BoundedStructure) -> CheckReport:
    """Windows below the top have stars weakly bounded, and elements leaving
    a late window must avoid the early one entirely."""
    space = b.space
    if space.filtration is None:
        raise InstanceError("the continuously controlled structure needs windows")
    hits, fail = _star_condition(cover, b)
    top = len(space.filtration)
    # an element meets window i iff lo <= i and leaves window j iff hi > j
    lo, hi = cover.value_range(space.depth)

    def cells():
        yield {"condition": 1}, "stars", hits, None
        for i in range(top - 1):
            # the first window that holds every element meeting window i
            reach = int(hi[lo <= i].max(initial=i))
            cell = {"condition": 2, "window": "K%d" % (i + 1)}
            cx = None
            if reach == top:
                viol = int(np.argmax((lo <= i) & (hi == top)))
                cx = {**cell, "element": cover.labels()[viol],
                      "reason": "element bridges the window and the "
                                "far region at every depth"}
            yield cell, "depth", None if cx else "K%d" % (reach + 1), cx

    return base_report("continuously_controlled", space,
                       () if fail is None else (fail,), cells(), partial=True)


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
    top = len(space.filtration)
    # past the window below the top; the whole carrier when there is one window
    far = np.flatnonzero(space.depth >= top - 1)
    tail = max(widest_pair(gap_table(row[far]))[0] for row in fam.values)
    notes = ("catalogue tail variation %s past K%d" % (fmt_value(tail), top - 1),)
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
        fine = ss_base.covers[-1]
        # the finest scale has an element wider than the failing eps
        k = _first(element_diameters(f, fine) > rss.counterexample["eps"])
        gap, x, y = _widest_in(f, fine.rows.row(k))
        cx["small_scale_pair"] = [space.points[x], space.points[y]]
        cx["small_scale_gap"] = fmt_value(gap)
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
    for k, idx in enumerate(cover.rows.lists()):
        gap, i, j = space.d.widest_pair(idx)
        if gap > 0:
            out.append((k, int(idx[i]), int(idx[j]), gap))
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
    _, w = witness_space(b)
    xs, ys = [p[0] for p in picks], [p[1] for p in picks]
    # every witness misses both ends of some pick
    refuted = bool((~w[:, xs] & ~w[:, ys]).any(axis=1).all())
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
