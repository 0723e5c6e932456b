"""Bundled carriers, covers and function families used across checks,
demos and the command line.

Everything here is cached so that repeated calls hand back the identical
object: covers and structures compare their space by identity.
"""
from __future__ import annotations

from functools import lru_cache
from typing import TYPE_CHECKING

import numpy as np

from .model import Filtration, InstanceError, Space, builder_grid, builder_line, fmt_value
from .scales import Cover

if TYPE_CHECKING:
    from .algebra_comm import FunctionFamily
    from .bounded import BoundedStructure

EPS_DEFAULT = (1.0, 0.5, 0.25)


def _windowed_line(values, window_tops) -> Space:
    values = np.asarray(values, dtype=float)
    levels = tuple(frozenset(np.flatnonzero(values <= top).tolist())
                   for top in window_tops)
    return Space([fmt_value(v) for v in values], metric_kind="line",
                 coords=values, filtration=Filtration(levels))


@lru_cache(maxsize=None)
def halfline() -> Space:
    """Eighth-steps from 0 to 110 with windows [0, 10], ..., [0, 100].

    The carrier runs past the top window so stars and tails of the outermost
    region are represented instead of clipped.
    """
    return _windowed_line(np.arange(0, 881) / 8.0, [10.0 * k for k in range(1, 11)])


@lru_cache(maxsize=None)
def trunc_nat() -> Space:
    """Integers 0..200 with windows [0, 10], ..., [0, 100]."""
    return _windowed_line(np.arange(201.0), [10.0 * k for k in range(1, 11)])


@lru_cache(maxsize=None)
def line20() -> Space:
    return builder_line(20, 1.0)


@lru_cache(maxsize=None)
def grid5() -> Space:
    return builder_grid(5)


@lru_cache(maxsize=None)
def grid6() -> Space:
    return builder_grid(6)


def interval(space: Space, lo: float, hi: float) -> frozenset:
    """Points of a line-kind carrier with values in [lo, hi]."""
    vals = space.values()
    s = frozenset(np.flatnonzero((vals >= lo) & (vals <= hi)).tolist())
    if not s:
        raise InstanceError("interval [%s, %s] misses every point"
                            % (fmt_value(lo), fmt_value(hi)))
    return s


def value_index(space: Space, value: float) -> int:
    vals = space.values()
    hit = np.flatnonzero(vals == float(value))
    if not hit.size:
        raise InstanceError("no point at value %s" % fmt_value(value))
    return int(hit[0])


@lru_cache(maxsize=None)
def halfline_structure() -> BoundedStructure:
    from .bounded import from_filtration
    return from_filtration(halfline())


@lru_cache(maxsize=None)
def trunc_nat_structure() -> BoundedStructure:
    from .bounded import from_filtration
    return from_filtration(trunc_nat())


@lru_cache(maxsize=None)
def oscillation_family() -> FunctionFamily:
    """Six probes on the halfline covering the accept and reject regimes."""
    from .algebra_comm import FunctionFamily
    x = halfline().values()
    rows = np.vstack([
        np.ones_like(x),
        1.0 / (1.0 + x),
        x / (1.0 + x),
        np.sin(np.log1p(x)),
        np.sin(x),
        (x >= 50).astype(float),
    ])
    return FunctionFamily(halfline(), ("one", "inv1p", "sat", "slow_wave",
                                       "wave", "step50"), rows)


@lru_cache(maxsize=None)
def membership_catalogue() -> FunctionFamily:
    """Halfline catalogue with a tent refuter straddling the top window."""
    from .algebra_comm import FunctionFamily
    from .oscillation import build_bump_refuter
    sp = halfline()
    x = sp.values()
    bump = build_bump_refuter(sp, tuple(value_index(sp, 10.0 * k)
                                        for k in range(1, 11)), 1.0)
    rows = np.vstack([np.ones_like(x), 1.0 / (1.0 + x), x / (1.0 + x), bump])
    return FunctionFamily(sp, ("one", "inv1p", "sat", "bump"), rows)


@lru_cache(maxsize=None)
def smooth_catalogue() -> FunctionFamily:
    """Bump-free halfline catalogue; every member settles at infinity."""
    from .algebra_comm import FunctionFamily
    x = halfline().values()
    rows = np.vstack([np.ones_like(x), 1.0 / (1.0 + x), x / (1.0 + x)])
    return FunctionFamily(halfline(), ("one", "inv1p", "sat"), rows,
                          constant_at_infinity=True)


@lru_cache(maxsize=None)
def constant_at_infinity_family() -> FunctionFamily:
    """Catalogue on the truncated naturals whose members settle far out."""
    from .algebra_comm import FunctionFamily
    x = trunc_nat().values()
    rows = np.vstack([
        np.ones_like(x),
        1.0 / (1.0 + x),
        x / (1.0 + x),
        np.sin(x) * np.exp(-x / 20.0),
    ])
    return FunctionFamily(trunc_nat(), ("one", "inv1p", "sat", "damped_wave"),
                          rows, constant_at_infinity=True)


@lru_cache(maxsize=None)
def shrink_cover() -> Cover:
    """Intervals [n, n + 2^-n] on the halfline; thin far out."""
    sp = halfline()
    return Cover(sp, [interval(sp, float(n), float(n) + 2.0 ** -n)
                      for n in range(111)], name="shrink")


@lru_cache(maxsize=None)
def unit_cover() -> Cover:
    """Unit intervals [n, n + 1] on the halfline; never thin."""
    sp = halfline()
    return Cover(sp, [interval(sp, float(n), float(n) + 1.0)
                      for n in range(110)], name="unit")


@lru_cache(maxsize=None)
def t75_catalogue():
    """Ten covers of the truncated naturals with their settled verdicts.

    Seven belong to the induced and the controlled structure alike, three
    are thrown out by both; the pair of verdicts must never split.
    """
    sp = trunc_nat()
    sing = [frozenset({k}) for k in range(sp.n)]

    def iv(a, b):
        return interval(sp, a, min(b, 200))

    fading_blocks = [iv(0, 7), iv(8, 14), iv(15, 20), iv(21, 25), iv(26, 29),
                     iv(30, 32), iv(33, 34)]
    fading = fading_blocks + [frozenset({k}) for k in range(35, sp.n)]
    rows = (
        ("singletons", Cover(sp, sing, name="singletons"), True),
        ("unit", Cover(sp, [iv(k, k + 1) for k in range(200)], name="unit"), True),
        ("fives", Cover(sp, [iv(5 * k, 5 * k + 4) for k in range(41)], name="fives"), True),
        ("tens", Cover(sp, [iv(10 * k, 10 * k + 9) for k in range(21)], name="tens"), True),
        ("fading", Cover(sp, fading, name="fading"), True),
        ("outpost", Cover(sp, sing + [iv(95, 105)], name="outpost"), True),
        ("halves", Cover(sp, [iv(0, 50), iv(50, 100), iv(100, 150), iv(150, 200)],
                         name="halves"), True),
        ("doubling", Cover(sp, [frozenset({0})] + [iv(2 ** k, 2 ** (k + 1))
                                                   for k in range(8)],
                           name="doubling"), False),
        ("escaper", Cover(sp, sing + [frozenset({0} | set(range(110, 201, 10)))],
                          name="escaper"), False),
        ("tail-bridger", Cover(sp, sing + [iv(90, 110)], name="tail-bridger"), False),
    )
    return rows


@lru_cache(maxsize=None)
def wide_pairs_cover() -> Cover:
    """Two-point elements n^2 against n^2 + 2n, singletons elsewhere.

    The gaps grow linearly, so no fixed-radius scale absorbs the family.
    """
    sp = trunc_nat()
    pair_elems = [frozenset({n * n, n * n + 2 * n}) for n in range(1, 14)]
    covered = set().union(*pair_elems)
    rest = [frozenset({k}) for k in range(sp.n) if k not in covered]
    return Cover(sp, pair_elems + rest, name="wide-pairs")
