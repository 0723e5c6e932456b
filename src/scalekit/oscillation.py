"""Slowly oscillating functions against a bounded structure.

Two forms of the defining condition appear in practice.  The strict form
asks for a weakly bounded set swallowing every element on which f still
varies more than eps; the relaxed form only removes the witness pointwise,
so an element may keep its far part.  On finite instances both collapse to
containment tests over precomputed data: strict needs the union of the
oversized elements inside the witness, relaxed needs the values left
outside the witness to spread at most eps inside each element.  Real
values spread by their greatest less their least value, read in one pass
over each element's points; complex ones through their heavy pairs, every
one of which must lose an endpoint.  Witnesses are scanned in the
canonical order and the first success is reported, which keeps runs
reproducible.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import model
from .bounded import BoundedStructure, desk_weakly_bounded, witness_space
from .model import (InstanceError, fmt_value, gap_table, ordered_grid, pair_stream,
                    parse_points, real_value, widest_pair)
from .reports import CheckReport, truncation_label
from .scales import Cover, element_diameters, first, real_line, star_set

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
        self.eps_grid = ordered_grid(self.eps_grid, "eps grid", "strictly descending")


def _widest_in(f: np.ndarray, idx: np.ndarray) -> tuple[float, int, int]:
    """(gap, x, y): the widest value gap inside one element, given as its
    ascending point list, and the first pair x < y attaining it."""
    gap, i, j = widest_pair(gap_table(f[idx]))
    return gap, int(idx[i]), int(idx[j])


# one heavy pair: element index, first point, second point, value gap
PAIR = np.dtype([("k", np.int64), ("x", np.int64), ("y", np.int64),
                 ("gap", np.float64)])


def heavy_pairs(f: np.ndarray, cover: Cover, eps: float) -> np.ndarray:
    """Within-element point pairs whose value gap exceeds eps, as a ``PAIR``
    structured array ordered by (element, first point, second point).  The
    pairs at a coarser eps are ``pairs[pairs["gap"] > eps]``, in the same
    order."""
    f = np.asarray(f, dtype=complex)
    columns, starts = cover.rows.columns, cover.rows.starts
    parts = [np.empty(0, dtype=PAIR)]
    for t, u, gap in pair_stream(cover.rows, f):
        heavy = gap > eps
        t = t[heavy]
        part = np.empty(t.size, dtype=PAIR)
        part["k"] = np.searchsorted(starts, t, "right") - 1
        part["x"] = columns[t]
        part["y"] = columns[u[heavy]]
        part["gap"] = gap[heavy]
        parts.append(part)
    return np.concatenate(parts)


class Spread:
    """How far f spreads inside the elements of a cover once a witness is
    removed: ``widest(i)`` is the widest value gap between two points of one
    element that both lie outside row i of the witness matrix ``w``, so that
    witness i passes at eps iff ``widest(i) <= eps``.  A gap of at most
    ``finest``, the finest eps asked, reads as 0, as does an element left
    with fewer than two points.  Real values (``real_line``) give it as the
    greatest less the least remaining value of each element wider than
    ``finest``; other values read the heavy pairs at ``finest``, built
    once."""

    def __init__(self, f: np.ndarray, cover: Cover, finest: float, w: np.ndarray):
        self.f, self.cover, self.finest, self.w = f, cover, finest, w
        self.line = real_line(f)
        self._widest: dict[int, float] = {}
        if self.line is not None:
            lo, hi = cover.value_range(self.line)
            with np.errstate(over="ignore"):  # a gap past the largest float is inf
                wide = cover.rows.take(np.flatnonzero(hi - lo > finest))
            self._wide = wide.columns, wide.starts[:-1], self.line[wide.columns]

    @cached_property
    def pool(self) -> np.ndarray:
        return heavy_pairs(self.f, self.cover, self.finest)

    def widest(self, i: int) -> float:
        if i not in self._widest:
            self._widest[i] = self._outside(self.w[i])
        return self._widest[i]

    def _outside(self, mask: np.ndarray) -> float:
        if self.line is None:
            pool = self.pool
            alive = ~(mask[pool["x"]] | mask[pool["y"]])
            return float(pool["gap"][alive].max(initial=0.0))
        columns, starts, values = self._wide
        if not columns.size:
            return 0.0
        keep = ~mask[columns]
        hi = np.maximum.reduceat(np.where(keep, values, -np.inf), starts)
        lo = np.minimum.reduceat(np.where(keep, values, np.inf), starts)
        # an element with no point left reads -inf, below the initial 0
        with np.errstate(over="ignore"):
            gap = float((hi - lo).max(initial=0.0))
        return gap if gap > self.finest else 0.0

    def heavy(self, eps: float) -> np.ndarray:
        """``heavy_pairs`` at eps, for the refutation of a failing cell."""
        if self.line is None:
            return self.pool[self.pool["gap"] > eps]
        return heavy_pairs(self.f, self.cover, eps)


def _first(flags) -> int | None:
    """Index of the first true entry of a bool vector, or None."""
    return int(np.argmax(flags)) if flags.any() else None


def _every(rows, size: int) -> np.ndarray:
    """Entrywise AND of equal-length bool vectors; all true when none."""
    out = np.ones(size, dtype=bool)
    for r in rows:
        out &= r
    return out


def is_slowly_oscillating(q: SOQuery, form: str = "strict") -> CheckReport:
    """Search the canonical witness family for every (cover, eps) cell.

    Passing cells record the first witness; a failing cell reports either a
    single refutation surviving every witness or one refutation per witness
    when no common one exists.  The strict form needs only the elements
    wider than eps, and the relaxed form on real values only each element's
    least and greatest value outside the witness; both list pairs only to
    refute a failing cell.
    """
    return _search(q, form, {})


def _diameters(q: SOQuery, k: int, diams: dict) -> np.ndarray:
    """The element diameters of base cover k, kept in ``diams`` so that
    they are computed once."""
    if k not in diams:
        diams[k] = element_diameters(q.f, q.base[k])
    return diams[k]


def _search(q: SOQuery, form: str, diams: dict) -> CheckReport:
    """``is_slowly_oscillating``, taking the strict form's diameters from
    ``diams`` (by base position) and leaving them there."""
    if form not in FORMS:
        raise InstanceError("unknown form %r" % form)
    space = q.structure.space
    cells = witness_space(q.structure)
    names, w = cells
    found = []
    for k, cov in enumerate(q.base):
        if form == "strict":
            diams_k = _diameters(q, k, diams)
        else:
            spread = Spread(q.f, cov, q.eps_grid[-1], w)
        for eps in q.eps_grid:
            if form == "strict":
                bad = np.flatnonzero(diams_k > eps)
                bad_union = np.flatnonzero(cov.rows.union(bad))
                test = lambda i: w[i, bad_union].all()
                refute = lambda: _strict_refutation(q, cov, eps, bad, cells)
            else:
                test = lambda i: spread.widest(i) <= eps
                refute = lambda: _relaxed_refutation(q, cov, eps, spread.heavy(eps), cells)
            hit = first(zip(names, range(len(names))), test)
            if hit is None:
                return CheckReport("slowly_oscillating[%s,%s]" % (q.name, form), False,
                                   witnesses=tuple(found), counterexample=refute(),
                                   truncation=truncation_label(space))
            found.append({"cover": cov.name, "eps": eps, "witness": hit})
    return CheckReport("slowly_oscillating[%s,%s]" % (q.name, form), True,
                       witnesses=tuple(found), truncation=truncation_label(space))


def _pair_entry(space, cov, pair):
    return {"element": cov.labels()[pair["k"]],
            "pair": [space.points[pair["x"]], space.points[pair["y"]]],
            "gap": fmt_value(pair["gap"])}


def _strict_refutation(q, cov, eps, bad, cells):
    """Deterministic failure record for one strict (cover, eps) cell: the
    first oversized element that no witness swallows, with its widest pair
    (the first of equals), or else the first element each witness misses;
    ``cells`` is ``witness_space``'s (names, matrix)."""
    space = q.structure.space
    names, w = cells
    base = {"cover": cov.name, "eps": eps, "form": "strict"}
    # bad elements are nonempty, so reduceat meets no empty segment
    bad_rows = cov.rows.take(bad)
    outside = [np.logical_or.reduceat(~mask[bad_rows.columns], bad_rows.starts[:-1])
               for mask in w]
    common = _first(_every(outside, bad.size))
    if common is not None:
        k = int(bad[common])
        gap, x, y = _widest_in(q.f, cov.rows.row(k))
        base.update(_pair_entry(space, cov, {"k": k, "x": x, "y": y, "gap": gap}))
        base["mode"] = "element survives every witness"
        return base
    per = [{"witness": name, "element": cov.labels()[bad[_first(miss)]]}
           for name, miss in zip(names, outside)]
    base.update({"mode": "no single witness", "refutations": per})
    return base


def _relaxed_refutation(q, cov, eps, pairs, cells):
    """Deterministic failure record for one relaxed (cover, eps) cell: the
    first heavy pair that keeps both endpoints outside every witness, or else
    the first such pair per witness."""
    space = q.structure.space
    names, w = cells
    base = {"cover": cov.name, "eps": eps, "form": "relaxed"}
    xs, ys = pairs["x"], pairs["y"]
    alive = [~(mask[xs] | mask[ys]) for mask in w]
    common = _first(_every(alive, len(pairs)))
    if common is not None:
        base.update(_pair_entry(space, cov, pairs[common]))
        base["mode"] = "pair survives every witness"
        return base
    per = [{"witness": name, **_pair_entry(space, cov, pairs[_first(live)])}
           for name, live in zip(names, alive)]
    base.update({"mode": "no single witness", "refutations": per})
    return base


def equivalence_test(q: SOQuery) -> CheckReport:
    """Both forms must agree, and each relaxed witness must turn strict once
    starred along its cover.

    The starred set can leave the certified witness family; that is reported
    but only verdict disagreement or a failed containment flips the status.
    """
    diams: dict = {}
    rs = _search(q, "strict", diams)
    rr = is_slowly_oscillating(q, "relaxed")
    agree = rs.status == rr.status
    names, w = witness_space(q.structure)
    space = q.structure.space
    checks = []
    ok = True
    for cell in rr.witnesses:
        k = next(k for k, c in enumerate(q.base) if c.name == cell["cover"])
        cov = q.base[k]
        starred = star_set(np.flatnonzero(w[names.index(cell["witness"])]).tolist(), cov)
        bad = np.flatnonzero(_diameters(q, k, diams) > cell["eps"])
        contained = frozenset(np.flatnonzero(cov.rows.union(bad)).tolist()) <= starred
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
    inside = d[center] < radius  # the table is symmetric
    outside = np.flatnonzero(~inside)
    if not outside.size:
        raise InstanceError("ball at %s swallows the space" % space.points[center])
    f = np.zeros(space.n)
    # each point's distance to the complement, a block of rows at a time
    inside = np.flatnonzero(inside)
    step = max(1, model.CHUNK_BYTES // outside.size)
    for lo in range(0, inside.size, step):
        rows = inside[lo:lo + step]
        f[rows] = d[np.ix_(rows, outside)].min(axis=1)
    return f


def build_bump_refuter(space, centers, eps: float) -> np.ndarray:
    """Tent functions of height about eps on disjoint eps-balls.

    Centers must sit farther than 2*eps apart and, on filtered spaces, must
    escape every window below the top one.
    """
    if space.d is None:
        raise InstanceError("refuters need a metric")
    eps = real_value(eps, "eps")
    if not 0 < eps < np.inf:
        raise InstanceError("eps must be positive and finite")
    centers = parse_points(centers, space.n, "centers must be point indices").tolist()
    if not centers or len(set(centers)) != len(centers):
        raise InstanceError("centers must be distinct and nonempty")
    for i, a in enumerate(centers):
        for b in centers[i + 1:]:
            if space.d[a, b] <= 2 * eps:
                raise InstanceError("centers %s and %s are within 2*eps"
                                    % (space.points[a], space.points[b]))
    if space.filtration is not None:
        # the first window holding every center, which must be the top one
        j = int(space.depth[centers].max())
        if j < len(space.filtration) - 1:
            raise InstanceError("centers do not escape window K%d" % (j + 1))
    f = np.zeros(space.n)
    for c in centers:
        f = np.maximum(f, _ball_bump(space, c, eps))
    return f


def build_scaled_refuter(space, centers, radii) -> np.ndarray:
    """Unit-height tents on disjoint balls of prescribed radii.

    Each tent is the ball's bump (the distance to the ball's complement)
    divided by its value at the ball's center, so that it is exactly 1
    there whatever the carrier's spacing; when the center is infinitely
    far from the complement, the tent is 1 on the points that are.  The
    height stays 1 while the supports widen, which is what defeats a
    slowly oscillating claim along growing scales.
    """
    if space.d is None:
        raise InstanceError("refuters need a metric")
    centers = parse_points(centers, space.n, "centers must be point indices").tolist()
    radii = [real_value(r, "each radius") for r in radii]
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
        bump = _ball_bump(space, c, r)
        # a ball infinitely far from the rest of the space is one plateau
        tent = bump / bump[c] if np.isfinite(bump[c]) else np.isinf(bump).astype(float)
        f = np.maximum(f, tent)
    return f
