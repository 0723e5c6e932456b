"""Metric-flavoured scale machinery: ball covers, Lebesgue number, mesh.

Ball covers on a finite space are piecewise constant in the radius, jumping
exactly at realized distances.  Both scan quantities below therefore change
pass/fail only at distance values, which the scans exploit: no tolerance
knobs, the answers are exact values of the input metric.
"""
from __future__ import annotations

import numpy as np

from .model import (InstanceError, Space, distinct_rows, entry_pairs, fmt_value,
                    ordered_grid, real_value, table_blocks)
from .scales import Cover, ScaleBase, refines, star_family


def _ball_cover(space: Space, d: np.ndarray, r: float, kind: str) -> Cover:
    """Open balls d(x, .) < r of a pseudometric table, one per point,
    duplicates dropped; the first center of each distinct ball decides
    element order."""
    r = real_value(r, "ball radius")
    if not r > 0:
        raise InstanceError("ball radius must be positive")
    return Cover(space, distinct_rows(table_blocks(d, lambda block: block < r), space.n),
                 name="%s(%s)" % (kind, fmt_value(r)), open_flag=True)


def ball_cover(space: Space, r: float) -> Cover:
    """Cover by open balls of radius r, one per point, duplicates dropped.

    The first center of each distinct ball decides element order.
    """
    if space.d is None:
        raise InstanceError("space carries no metric")
    return _ball_cover(space, space.d, r, "balls")


def lebesgue_number(cover: Cover) -> float:
    """sup of radii λ with st(B_λ, B_λ) refining the cover (non-strict).

    Exact: the sup is attained at a realized distance; +inf when the cover
    holds the whole space as an element, 0 when nothing passes.  The scan
    climbs the distinct finite distances one masked minimum at a time, so
    that it never holds their list; the open balls at a midpoint between
    two neighbouring distances are those at the upper one, so midpoints
    decide nothing here.
    """
    space = cover.space
    if not cover.is_scale():
        raise InstanceError("lebesgue number needs a cover of the whole space")
    d = space.d
    if d is None:
        raise InstanceError("space carries no metric")

    def passes(lam: float) -> bool:
        b = ball_cover(space, lam)
        return refines(star_family(b, b), cover)

    def above(lam: float) -> float:
        return float(d.min(where=(d > lam) & (d < np.inf), initial=np.inf))

    lam = above(0.0)
    if lam == np.inf:
        return np.inf
    if passes(float(d.max(where=d < np.inf, initial=0.0)) * 2.0 + 1.0):
        return np.inf
    best = 0.0
    while lam < np.inf and passes(lam):
        best, lam = lam, above(lam)
    return best


def mesh(cover: Cover) -> float:
    """inf of radii M with st(U, U) refining the ball cover B_M.

    A star S fits the open ball B(x, M) iff max over y in S of d(x, y) < M,
    so the inf is the largest, over the stars, of the least such max over
    the centers x: 0 when stars sit inside zero-balls, +inf when some star
    is infinitely far from every center.
    """
    d = cover.space.d
    if d is None:
        raise InstanceError("space carries no metric")
    if not ((d > 0) & np.isfinite(d)).any():
        return 0.0
    # repeated stars would only repeat a term of the max
    stars = {s.tobytes(): s for s in star_family(cover, cover).rows.lists()}
    return float(max(d[:, s].max(axis=1).min() for s in stars.values()))


def sup_diameter(cover: Cover) -> float:
    """The widest distance between two points of one element."""
    d, columns = cover.space.d, cover.rows.columns
    return max((float(d[columns[t], columns[u]].max()) for t, u in entry_pairs(cover.rows)),
               default=0.0)


# per kind of base: the order of its radii, and which steps are flagged
_LADDERS = {
    "small": ("descending", lambda a, b: b > a / 3.0,
              "spacing %s -> %s above one third: star containment not generic"),
    "large": ("ascending", lambda a, b: b < 3.0 * a,
              "spacing %s -> %s below threefold: star absorption not generic"),
}


def ball_ladder(space: Space, d, radii, kind: str, label: str) -> ScaleBase:
    """Ball covers of the pseudometric table ``d`` along a ladder of radii,
    named ``label(r)``, as a base of ``kind`` "small" (radii descending) or
    "large" (radii ascending); repeated radii are allowed.

    Structural warnings only; the verdict belongs to the base check.
    """
    order, off, text = _LADDERS[kind]
    rs = ordered_grid(radii, "radii", order)
    if d is None:
        raise InstanceError("space carries no metric")
    warnings = tuple(text % (fmt_value(a), fmt_value(b))
                     for a, b in zip(rs, rs[1:]) if off(a, b))
    if len(rs) == 1:
        warnings = ("single radius: the base condition is only self-referential",)
    covers = tuple(_ball_cover(space, d, r, label) for r in rs)
    return ScaleBase(space=space, covers=covers, kind=kind, warnings=warnings)


def metric_ss_base(space: Space, radii) -> ScaleBase:
    """Ball covers at decreasing radii, packaged as a small-scale base."""
    return ball_ladder(space, space.d, radii, "small", "balls")


def metric_ls_base(space: Space, radii) -> ScaleBase:
    """Ball covers at increasing radii, packaged as a large-scale base."""
    return ball_ladder(space, space.d, radii, "large", "balls")
