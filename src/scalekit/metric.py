"""Metric-flavoured scale machinery: ball covers, Lebesgue number, mesh.

Ball covers on a finite space are piecewise constant in the radius, jumping
exactly at realized distances.  Both scan quantities below therefore change
pass/fail only at distance values, which the candidate scan exploits: no
tolerance knobs, the answers are exact values of the input metric.
"""
from __future__ import annotations

import numpy as np

from .model import InstanceError, Space, fmt_value, positive_grid
from .scales import Cover, ScaleBase, _distinct_rows, refines, star_family


def distance_candidates(space: Space) -> list[float]:
    """Sorted distinct positive finite distances, plus consecutive midpoints.

    Midpoints certify boundary behavior; outcomes are constant between
    neighbouring distances, so they never shift a scan value.
    """
    if space.d is None:
        raise InstanceError("space carries no metric")
    vals = np.unique(space.d)
    vals = vals[np.isfinite(vals) & (vals > 0)]
    out: list[float] = []
    for i, v in enumerate(vals):
        if i > 0:
            out.append(float(vals[i - 1] + v) / 2.0)
        out.append(float(v))
    return out


def _ball_cover(space: Space, d: np.ndarray, r: float, kind: str) -> Cover:
    """Open balls d(x, .) < r of a pseudometric table, one per point,
    duplicates dropped; the first center of each distinct ball decides
    element order."""
    if not r > 0:
        raise InstanceError("ball radius must be positive")
    return Cover(space, _distinct_rows(d < r), name="%s(%s)" % (kind, fmt_value(r)),
                 open_flag=True)


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
    holds the whole space as an element, 0 when nothing passes.
    """
    space = cover.space
    if not cover.is_scale():
        raise InstanceError("lebesgue number needs a cover of the whole space")
    cands = distance_candidates(space)

    def passes(lam: float) -> bool:
        b = ball_cover(space, lam)
        return refines(star_family(b, b), cover)

    if not cands:
        return np.inf
    if passes(cands[-1] * 2.0 + 1.0):
        return np.inf
    best = 0.0
    for lam in cands:
        if passes(lam):
            best = lam
        else:
            break
    return best


def mesh(cover: Cover) -> float:
    """inf of radii M with st(U, U) refining the ball cover B_M.

    0 when stars already sit inside zero-balls, +inf when some star spans an
    infinite distance.
    """
    space = cover.space
    if space.d is None:
        raise InstanceError("space carries no metric")
    cands = distance_candidates(space)
    st = star_family(cover, cover)

    def passes(m: float) -> bool:
        return refines(st, ball_cover(space, m))

    if not cands:
        return 0.0
    if not passes(cands[-1] * 2.0 + 1.0):
        return np.inf
    prev = 0.0
    for m in cands:
        if passes(m):
            return prev
        prev = m
    return prev


def sup_diameter(cover: Cover) -> float:
    return max(cover.space.diam(el) for el in cover.elements)


def metric_ss_base(space: Space, radii) -> ScaleBase:
    """Ball covers at decreasing radii, packaged as a small-scale base.

    Structural warnings only; the verdict belongs to the base check.
    """
    rs = list(positive_grid(radii, "radii"))
    if sorted(rs, reverse=True) != rs:
        raise InstanceError("small-scale radii must decrease")
    warnings = []
    if len(rs) == 1:
        warnings.append("single radius: the base condition is only self-referential")
    for a, b in zip(rs, rs[1:]):
        if b > a / 3.0:
            warnings.append(
                "spacing %s -> %s above one third: star containment not generic"
                % (fmt_value(a), fmt_value(b)))
    covers = tuple(ball_cover(space, r) for r in rs)
    return ScaleBase(space=space, covers=covers, kind="small",
                     warnings=tuple(warnings))


def metric_ls_base(space: Space, radii) -> ScaleBase:
    """Ball covers at increasing radii, packaged as a large-scale base."""
    rs = list(positive_grid(radii, "radii"))
    if sorted(rs) != rs:
        raise InstanceError("large-scale radii must increase")
    warnings = []
    if len(rs) == 1:
        warnings.append("single radius: the base condition is only self-referential")
    for a, b in zip(rs, rs[1:]):
        if b < 3.0 * a:
            warnings.append(
                "spacing %s -> %s below threefold: star absorption not generic"
                % (fmt_value(a), fmt_value(b)))
    covers = tuple(ball_cover(space, r) for r in rs)
    return ScaleBase(space=space, covers=covers, kind="large",
                     warnings=tuple(warnings))
