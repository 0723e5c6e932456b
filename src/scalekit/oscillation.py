"""Slowly oscillating functions against a bounded structure.

Two forms of the defining condition appear in practice.  The strict form
asks for a weakly bounded set swallowing every element on which f still
varies more than eps; the relaxed form only removes the witness pointwise,
so an element may keep its far part.  On finite instances both collapse to
containment tests over precomputed data: strict needs the union of the
oversized elements inside the witness, relaxed needs every heavy pair to
lose an endpoint.  Witnesses are scanned in the canonical order and the
first success is reported, which keeps runs reproducible.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .bounded import BoundedStructure, desk_weakly_bounded, witness_space
from .model import InstanceError, fmt_value, positive_grid
from .reports import CheckReport, truncation_label
from .scales import Cover, star_set

FORMS = ("strict", "relaxed")


@dataclass(eq=False)
class SOQuery:
    """A function, a base of scales, a descending eps grid, and the bounded
    structure supplying witnesses."""

    f: np.ndarray
    base: tuple
    eps_grid: tuple
    structure: BoundedStructure
    name: str = "f"

    def __post_init__(self):
        self.f = np.asarray(self.f, dtype=complex)
        n = self.structure.space.n
        if self.f.shape != (n,):
            raise InstanceError("function has %d values for %d points"
                                % (self.f.size, n))
        if not np.isfinite(self.f).all():
            raise InstanceError("function values must be finite")
        self.base = tuple(self.base)
        if not self.base:
            raise InstanceError("empty scale base")
        for cov in self.base:
            if cov.space is not self.structure.space:
                raise InstanceError("cover %s lives on a different space" % cov.name)
        eps = positive_grid(self.eps_grid, "eps grid")
        if any(a <= b for a, b in zip(eps, eps[1:])):
            raise InstanceError("eps grid must be strictly descending")
        self.eps_grid = eps


def element_diameters(f: np.ndarray, cover: Cover) -> np.ndarray:
    """Greatest value gap inside each element."""
    f = np.asarray(f, dtype=complex)
    out = np.zeros(len(cover.elements))
    for k, el in enumerate(cover.elements):
        if len(el) < 2:
            continue
        vals = f[np.fromiter(el, dtype=np.int64)]
        out[k] = float(np.abs(vals[:, None] - vals[None, :]).max())
    return out


def heavy_pairs(f: np.ndarray, cover: Cover, eps: float):
    """Within-element point pairs whose value gap exceeds eps, ordered by
    (element, first point, second point)."""
    f = np.asarray(f, dtype=complex)
    pairs = []
    for k, el in enumerate(cover.elements):
        idx = np.fromiter(sorted(el), dtype=np.int64)
        if idx.size < 2:
            continue
        vals = f[idx]
        gaps = np.abs(vals[:, None] - vals[None, :])
        ii, jj = np.nonzero(np.triu(gaps > eps, k=1))
        for a, b in zip(ii, jj):
            pairs.append((k, int(idx[a]), int(idx[b]), float(gaps[a, b])))
    return pairs


def _masks(space, witnesses):
    out = []
    for name, s in witnesses:
        m = np.zeros(space.n, dtype=bool)
        if s:
            m[np.fromiter(s, dtype=np.int64)] = True
        out.append((name, s, m))
    return out


def _strict_pass(mask, bad_union):
    return bool(mask[bad_union].all()) if bad_union.size else True


def _relaxed_pass(mask, xs, ys):
    return bool((mask[xs] | mask[ys]).all()) if xs.size else True


def is_slowly_oscillating(q: SOQuery, form: str = "strict") -> CheckReport:
    """Search the canonical witness family for every (cover, eps) cell.

    Passing cells record the first witness; a failing cell reports either a
    single refutation surviving every witness or one refutation per witness
    when no common one exists.
    """
    if form not in FORMS:
        raise InstanceError("unknown form %r" % form)
    space = q.structure.space
    cells = _masks(space, witness_space(q.structure))
    found = []
    for cov in q.base:
        diams = None
        for eps in q.eps_grid:
            pairs = heavy_pairs(q.f, cov, eps)
            if form == "strict":
                if diams is None:
                    diams = element_diameters(q.f, cov)
                bad = [k for k in range(len(cov.elements)) if diams[k] > eps]
                bad_union = np.fromiter(
                    sorted(set().union(*(cov.elements[k] for k in bad))) if bad else (),
                    dtype=np.int64)
                test = lambda m: _strict_pass(m, bad_union)
            else:
                xs = np.fromiter((p[1] for p in pairs), dtype=np.int64)
                ys = np.fromiter((p[2] for p in pairs), dtype=np.int64)
                test = lambda m: _relaxed_pass(m, xs, ys)
            hit = next((name for name, _, mask in cells if test(mask)), None)
            if hit is None:
                cx = _refutation(q, cov, eps, form, pairs, bad if form == "strict" else None,
                                 diams, cells)
                return CheckReport("slowly_oscillating[%s,%s]" % (q.name, form), False,
                                   witnesses=tuple(found), counterexample=cx,
                                   truncation=truncation_label(space))
            found.append({"cover": cov.name, "eps": eps, "witness": hit})
    return CheckReport("slowly_oscillating[%s,%s]" % (q.name, form), True,
                       witnesses=tuple(found), truncation=truncation_label(space))


def _pair_entry(space, cov, k, x, y, gap):
    return {"element": cov.labels()[k], "pair": [space.points[x], space.points[y]],
            "gap": fmt_value(gap)}


def _refutation(q, cov, eps, form, pairs, bad, diams, cells):
    """Deterministic failure record for one (cover, eps) cell."""
    space = q.structure.space
    base = {"cover": cov.name, "eps": eps, "form": form}
    if form == "strict":
        common = next((k for k in bad
                       if all(not mask[cov.matrix[k]].all() for _, _, mask in cells)),
                      None)
        if common is not None:
            k = common
            best = max((p for p in pairs if p[0] == k), key=lambda p: p[3])
            base.update(_pair_entry(space, cov, k, best[1], best[2], best[3]))
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
        base.update(_pair_entry(space, cov, *common))
        base["mode"] = "pair survives every witness"
        return base
    per = []
    for name, _, mask in cells:
        for k, x, y, gap in pairs:
            if not (mask[x] or mask[y]):
                per.append({"witness": name,
                            **_pair_entry(space, cov, k, x, y, gap)})
                break
    base.update({"mode": "no single witness", "refutations": per})
    return base


def equivalence_test(q: SOQuery) -> CheckReport:
    """Both forms must agree, and each relaxed witness must turn strict once
    starred along its cover.

    The starred set can leave the certified witness family; that is reported
    but only verdict disagreement or a failed containment flips the status.
    """
    rs = is_slowly_oscillating(q, "strict")
    rr = is_slowly_oscillating(q, "relaxed")
    agree = rs.status == rr.status
    by_name = dict(witness_space(q.structure))
    space = q.structure.space
    checks = []
    ok = True
    for cell in rr.witnesses:
        cov = next(c for c in q.base if c.name == cell["cover"])
        b = by_name[cell["witness"]]
        starred = star_set(b, cov)
        diams = element_diameters(q.f, cov)
        bad_union = set()
        for k, el in enumerate(cov.elements):
            if diams[k] > cell["eps"]:
                bad_union |= el
        contained = bad_union <= starred
        ok = ok and contained
        wb, _ = desk_weakly_bounded(starred, q.structure)
        checks.append({"cover": cell["cover"], "eps": cell["eps"],
                       "relaxed_witness": cell["witness"],
                       "strict_at_star": contained, "star_desk_wb": wb})
    notes = []
    if not agree:
        notes.append("strict=%s relaxed=%s" % (rs.status, rr.status))
    if any(not c["star_desk_wb"] for c in checks):
        notes.append("some starred witness leaves the certified family")
    return CheckReport("so_equivalence[%s]" % q.name, agree and ok,
                       witnesses=tuple(checks), notes=tuple(notes),
                       counterexample=None if agree else {"strict": rs.status,
                                                          "relaxed": rr.status},
                       truncation=truncation_label(space))


def _ball_bump(space, center: int, radius: float) -> np.ndarray:
    d = space.d
    inside = d[:, center] < radius
    outside = ~inside
    if not outside.any():
        raise InstanceError("ball at %s swallows the space" % space.points[center])
    f = np.zeros(space.n)
    f[inside] = d[np.ix_(inside, outside)].min(axis=1)
    return f


def build_bump_refuter(space, centers, eps: float) -> np.ndarray:
    """Tent functions of height about eps on disjoint eps-balls.

    Centers must sit farther than 2*eps apart and, on filtered spaces, must
    escape every window below the top one.
    """
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
    f = np.zeros(space.n)
    for c in centers:
        f = np.maximum(f, _ball_bump(space, c, eps))
    return f


def build_scaled_refuter(space, centers, radii) -> np.ndarray:
    """Unit-height tents on disjoint balls of prescribed radii.

    The height stays 1 while the supports widen, which is what defeats a
    slowly oscillating claim along growing scales.
    """
    if space.d is None:
        raise InstanceError("refuters need a metric")
    centers = [int(c) for c in centers]
    radii = [float(r) for r in radii]
    if len(centers) != len(radii) or not centers:
        raise InstanceError("need matching nonempty centers and radii")
    if any(r <= 0 for r in radii):
        raise InstanceError("radii must be positive")
    for i, (a, ra) in enumerate(zip(centers, radii)):
        for b, rb in zip(centers[i + 1:], radii[i + 1:]):
            if space.d[a, b] <= ra + rb:
                raise InstanceError("balls at %s and %s overlap"
                                    % (space.points[a], space.points[b]))
    f = np.zeros(space.n)
    for c, r in zip(centers, radii):
        f = np.maximum(f, _ball_bump(space, c, r) / r)
    return f
