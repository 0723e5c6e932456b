"""Metric-flavoured scale machinery: ball covers, Lebesgue number, mesh.

Ball covers on a finite space are piecewise constant in the radius, jumping
exactly at realized distances.  Both scan quantities below therefore change
pass/fail only at distance values, which the scans exploit: no tolerance
knobs, the answers are exact values of the input metric.
"""
from __future__ import annotations

import numpy as np

from . import model
from .model import (Distances, InstanceError, Space, _first_rows, entry_pairs, fmt_value,
                    ordered_grid, real_value)
from .scales import Cover, ScaleBase, refines, star_family


def _ball_cover(space: Space, d, r: float, kind: str) -> Cover:
    """Open balls d(x, .) < r of a pseudometric (a table or a space's
    ``Distances``), one per point, duplicates dropped; the first center of
    each distinct ball decides element order."""
    r = real_value(r, "ball radius")
    if not r > 0:
        raise InstanceError("ball radius must be positive")
    if not isinstance(d, Distances):
        d = Distances(d)
    return Cover(space, d.balls(r), name="%s(%s)" % (kind, fmt_value(r)), open_flag=True)


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
    climbs the distinct finite distances one at a time (``Distances.above``),
    so that it never holds their list; the open balls at a midpoint between
    two neighbouring distances are those at the upper one, so midpoints
    decide nothing here.  When every distance is finite, the balls past the
    largest one are the whole space, and so are their stars, so the answer
    is +inf iff some element holds every point; otherwise that radius is
    tested as any other.
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

    lam = d.above(0.0)
    if lam == np.inf:
        return np.inf
    if ((cover.rows.sizes == space.n).any() if d.finite
            else passes(d.widest() * 2.0 + 1.0)):
        return np.inf
    best = 0.0
    while lam < np.inf and passes(lam):
        best, lam = lam, d.above(lam)
    return best


def mesh(cover: Cover) -> float:
    """inf of radii M with st(U, U) refining the ball cover B_M.

    A star S fits the open ball B(x, M) iff max over y in S of d(x, y) < M,
    so the inf is the largest, over the stars, of the least such max over
    the centers x: 0 when stars sit inside zero-balls (or no distance is
    positive and finite), +inf when some star is infinitely far from every
    center.

    On coordinates, the widest distance from x to S is reached at an
    extreme coordinate of S on each axis, so each star's extent is measured
    against the centers: on a line or a whole product grid, axis by axis
    at the best center alone (``_axis_reach``), elsewhere against every
    center, in blocks of CHUNK_BYTES.  On a table,
    which is symmetric, a star's columns are its rows.  The stars are taken
    widest first, in blocks of as many as fit one gather of CHUNK_BYTES of
    rows at the width of the block's first (one star at least); a narrower
    star repeats its last point, which leaves its max as it is.  A star
    wider than one gather is taken a gather at a time.
    """
    d = cover.space.d
    if d is None:
        raise InstanceError("space carries no metric")
    if not d.positive:
        return 0.0
    stars = star_family(cover, cover)
    if d.axes is not None:
        return _coordinate_mesh(d, stars)
    stars = stars.rows
    # repeated stars would only repeat a term of the max
    first = _first_rows(stars.words)
    order = first[np.argsort(-stars.sizes[first], kind="stable")]
    heads, sizes = stars.starts[order], stars.sizes[order]
    step = max(1, model.CHUNK_BYTES // (8 * d.n))  # rows of d in one gather
    worst, lo = 0.0, 0
    while lo < len(order):
        width = int(sizes[lo])
        block = slice(lo, lo + max(1, step // width))
        size = sizes[block]
        at = stars.columns[heads[block, None] + np.minimum(np.arange(width), size[:, None] - 1)]
        cut = max(1, step // len(size))
        widest = d[at[:, :cut]].max(axis=1)
        for j in range(cut, width, cut):
            np.maximum(widest, d[at[:, j:j + cut]].max(axis=1), out=widest)
        worst = max(worst, float(widest.min(axis=1).max()))
        lo += len(size)
    return worst


def _extents(cover: Cover, d: Distances) -> np.ndarray:
    """Per element, the least and the greatest coordinate of its points on
    each axis (columns lo_0, hi_0, lo_1, ...): on a line, the sorted
    coordinates at the ends of an element that is a run; otherwise gathered
    a block of elements of about CHUNK_BYTES of coordinates at a time (one
    element at least)."""
    runs, axes, rows = cover.runs, d.axes, cover.rows
    if runs is not None:
        return d.run_extents(runs)
    starts, columns = rows.starts, rows.columns
    out = np.empty((rows.m, 2 * len(axes)))
    lo = 0
    while lo < rows.m:
        hi = max(lo + 1, int(starts.searchsorted(starts[lo] + model.CHUNK_BYTES // 8,
                                                 "right")) - 1)
        points, begin = columns[starts[lo]:starts[hi]], starts[lo:hi] - starts[lo]
        for a, axis in enumerate(axes):
            values = axis[points]
            # rows are nonempty, so reduceat meets no empty segment
            out[lo:hi, 2 * a] = np.minimum.reduceat(values, begin)
            out[lo:hi, 2 * a + 1] = np.maximum.reduceat(values, begin)
        lo = hi
    return out


def _axis_reach(line: Distances, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """For each extent [lo, hi] on one axis line, the least over its sorted
    coordinates s of max(|x - lo|, |x - hi|).  Along s, fl(x - lo) never
    falls and fl(hi - x) never rises, so the x with fl(x - lo) >= fl(hi - x)
    are the last ones: the first of them is found by a searchsorted at the
    midpoint, moved one distinct coordinate at a time while the float test
    disagrees (as in ``Distances._band``).  Before it the max is
    fl(hi - x), which never rises, and from it on fl(x - lo), which never
    falls, so the least is one of the two at it and just before it."""
    s, padded = line._sorted[0], line._probes[0]
    # in s between two NaNs, on which the test and its negation both fail,
    # the coordinates at ``at`` and after it are settled when the test
    # fails on the first and holds on the second
    at = s.searchsorted(lo / 2 + hi / 2)
    while True:
        x, y = padded[at], padded[at + 1]
        before, after = hi - x, y - lo
        back, on = x - lo >= before, after < hi - y
        if not (back | on).any():
            return np.fmin(before, after)
        at[back] = s.searchsorted(x[back], "left")
        at[on] = s.searchsorted(y[on], "right")


def _coordinate_mesh(d: Distances, stars: Cover) -> float:
    """The mesh from the stars' extents: the least, over the centers x, of
    the largest |x - lo| or |x - hi| over the axes, at its largest over the
    stars.  On a line or a whole product grid every tuple of axis
    coordinates is a center, so the least is taken on each axis alone and
    the mesh is the largest of those; elsewhere it is taken a block of
    CHUNK_BYTES of centers at a time."""
    extents = _extents(stars, d)
    if d.product is not None:
        return max(float(_axis_reach(line, extents[:, 2 * a], extents[:, 2 * a + 1]).max())
                   for a, line in enumerate(d.product[0]))
    step = max(1, model.CHUNK_BYTES // (8 * d.n))
    worst = 0.0
    for k in range(0, len(extents), step):
        block = extents[k:k + step]
        reach = None
        for a, axis in enumerate(d.axes):
            far = np.abs(axis - block[:, 2 * a, None])
            np.maximum(far, np.abs(axis - block[:, 2 * a + 1, None]), out=far)
            reach = far if reach is None else np.maximum(reach, far, out=reach)
        worst = max(worst, float(reach.min(axis=1).max()))
    return worst


def sup_diameter(cover: Cover) -> float:
    """The widest distance between two points of one element; on
    coordinates, the widest spread of an element over the axes."""
    d, columns = cover.space.d, cover.rows.columns
    if d is None:
        raise InstanceError("space carries no metric")
    if d.axes is not None:
        ends = _extents(cover, d)
        return float((ends[:, 1::2] - ends[:, 0::2]).max())
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
    """Ball covers of the pseudometric ``d`` (a table or a space's
    ``Distances``) along a ladder of radii, named ``label(r)``, as a base of
    ``kind`` "small" (radii descending) or "large" (radii ascending);
    repeated radii are allowed.

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
