"""Translation scales on finite groups and integer windows.

A finite subset F containing the identity produces the cover of left
translates gF.  Finite groups give exact structural claims; windows of the
integers clip products at the boundary and every clip is counted, so callers
can tell a theorem from a boundary effect.
"""
from __future__ import annotations

from functools import cached_property, partial
from itertools import product

import numpy as np

from .model import (BoolRows, Filtration, InstanceError, RunRows, Space, parse_points,
                    whole_size)
from .reports import CheckReport
from .scales import Cover, base_report, first, refines, star_family


# the sum of two window values must not wrap around in int64
_WINDOW_BOUND = 2 ** 62
_SUBSETS = "translate subsets are lists of point indices"


class GroupWindow:
    """Multiplication oracle over a carrier: a whole finite group, or a
    symmetric integer window with clipped addition.  ``products`` is the one
    product rule.  A finite group reads the group table its space carries
    (checked when the space was built); a window looks up each sum among its
    values, sorted once.  A product that leaves the window is -1, and so is
    an inverse that leaves it in ``inverse``, each point's inverse."""

    def __init__(self, space: Space, values=None):
        self.space = space
        self.values = None
        if values is not None:
            exact = "window values must lie within +-2**62, where their sums stay exact"
            v = parse_points(values, None, lambda k, outside: (
                exact if outside else "window values must be integers"))
            if ((v < -_WINDOW_BOUND) | (v > _WINDOW_BOUND)).any():
                raise InstanceError(exact)
            if v.shape != (space.n,):
                raise InstanceError("window values shape mismatch")
            self._order = np.argsort(v, kind="stable")
            self._ranked = v[self._order]
            if (self._ranked[1:] == self._ranked[:-1]).any():
                raise InstanceError("window values must be distinct")
            if 0 not in self._ranked:
                raise InstanceError("window must contain 0")
            self.values = v
            self.identity = int(np.flatnonzero(v == 0)[0])
            self.inverse = self._lookup(-v)
        elif space.group_table is not None:
            self._table = np.array(space.group_table, dtype=np.int64)
            fixes = (self._table == np.arange(space.n)).all(axis=1)
            self.identity = int(np.flatnonzero(fixes)[0])
            self.inverse = (self._table == self.identity).argmax(axis=1)
        else:
            raise InstanceError("need a multiplication table or window values")

    def _lookup(self, sums: np.ndarray) -> np.ndarray:
        """The index of the point holding each sum, or -1 where no point does."""
        at = np.searchsorted(self._ranked, sums)
        return np.where(self._ranked.take(at, mode="clip") == sums,
                        self._order.take(at, mode="clip"), -1)

    def products(self, a, b) -> np.ndarray:
        """The |a| x |b| int64 array of the indices of a[i]*b[j], -1 where a
        product leaves the window; ``a`` and ``b`` are point indices."""
        a, b = (parse_points(x, self.space.n, "factors must be point indices") for x in (a, b))
        if self.values is None:
            return self._table[np.ix_(a, b)]
        return self._lookup(self.values[a][:, None] + self.values[b])

    @cached_property
    def positions(self) -> np.ndarray | None:
        """For a window on a line whose sorted order ranks its values as
        consecutive integers, each point's value less the least: its
        position in that order, so that translating by a value moves it by
        as many positions.  None for any other carrier."""
        d = self.space.d
        if self.values is None or d is None or not d.banded:
            return None
        positions = self.values - self.values.min()
        if not np.array_equal(d.by_position(positions), np.arange(self.space.n)):
            return None
        return positions

    def mul(self, a: int, b: int) -> int | None:
        """Product index, or None when it leaves the window."""
        p = int(self.products((a,), (b,))[0, 0])
        return None if p < 0 else p

    def inv(self, a: int) -> int | None:
        (a,) = parse_points((a,), self.space.n, "an inverse is taken of a point index")
        p = int(self.inverse[a])
        return None if p < 0 else p


def z_window(n_half: int, level_step: int | None = None) -> Space:
    """Integers [-n_half, n_half] with the usual metric; optional symmetric
    filtration windows [-k*step, k*step]."""
    n_half = whole_size(n_half, "window half-width")
    if n_half < 1:
        raise InstanceError("window half-width must be positive")
    vals = list(range(-n_half, n_half + 1))
    filt = None
    if level_step is not None:
        level_step = whole_size(level_step, "level step")
        tops = range(level_step, n_half, level_step) if level_step > 0 else ()
        levels = tuple(frozenset(i for i, v in enumerate(vals) if abs(v) <= k)
                       for k in tops)
        if not levels:
            raise InstanceError("level step leaves no interior window")
        filt = Filtration(levels)
    return Space([str(v) for v in vals], metric_kind="line",
                 coords=vals, filtration=filt)


def window_group(space: Space) -> GroupWindow:
    """Addition oracle for a space whose labels are integers; a space that
    carries a group table is refused, as its own product is
    ``GroupWindow(space)``."""
    if space.group_table is not None:
        raise InstanceError("the space carries a group table: use GroupWindow(space)")
    try:
        vals = [int(p) for p in space.points]
    except ValueError as exc:
        raise InstanceError("window labels must be integers") from exc
    return GroupWindow(space, values=vals)


def _image(prods) -> tuple[frozenset[int], int]:
    """The products of an index array that stay in the carrier, and how many
    left it (entries -1)."""
    prods = prods.ravel()
    kept = prods[prods >= 0]
    return frozenset(kept.tolist()), len(prods) - len(kept)


def translation_scale(g: GroupWindow, f_subset) -> tuple[Cover, int]:
    """Cover of left translates gF, identity adjoined to F.

    Returns the cover and the number of clipped products (0 on full groups).
    """
    f = sorted(set(parse_points(f_subset, g.space.n, _SUBSETS).tolist()) | {g.identity})
    n, at = g.space.n, g.positions
    name = "translates[%s]" % ",".join(g.space.points[i] for i in f)
    if at is not None:
        # how far the factors of F move a point, at the least and the most
        moves = at[f] - at[g.identity]
        low, high = moves.min(), moves.max()
        if high - low == len(f) - 1:
            # F is an interval of the window, and so is each gF, clipped at its ends
            lo, hi = np.maximum(at + low, 0), np.minimum(at + high + 1, n)
            return (Cover(g.space, RunRows(g.space.d, lo, hi), name=name),
                    int(n * len(f) - (hi - lo).sum()))
    prods = g.products(np.arange(n), f)
    kept = prods >= 0
    rows = BoolRows.of_pairs(np.nonzero(kept)[0], prods[kept], n, n)
    if g.space.d is not None and g.space.d.banded:
        rows.line = g.space.d  # stated to be no runs, so that stars do not scan them
    return Cover(g.space, rows, name=name), int(kept.size - kept.sum())


def _closure_candidates(g: GroupWindow, subsets):
    """Products of up to three factors from the subsets and their inverses,
    plus pairwise unions; deterministic order, clip counts carried."""
    e = g.identity
    seen: set[frozenset[int]] = set()

    def push(name, s, clips, bucket):
        if s and s not in seen:
            seen.add(s)
            bucket.append((name, s, clips))

    depth1: list[tuple[str, frozenset[int], int]] = []
    for i, f in enumerate(subsets):
        fs = frozenset(f) | {e}
        push("F%d" % (i + 1), fs, 0, depth1)
        inv, c = _image(g.inverse[sorted(fs)])
        push("inv(F%d)" % (i + 1), inv | {e}, c, depth1)
    level = list(depth1)
    out = list(depth1)
    for _ in range(2):
        nxt = []
        for name_a, sa, ca in level:
            for name_b, sb, cb in depth1:
                prod, c = _image(g.products(sorted(sa), sorted(sb)))
                push("%s*%s" % (name_a, name_b), prod | {e}, ca + cb + c, nxt)
        out.extend(nxt)
        level = nxt
    unions = []
    for i, (na, sa, ca) in enumerate(out):
        for nb, sb, cb in out[i + 1:]:
            push("%s|%s" % (na, nb), sa | sb, ca + cb, unions)
    return out + unions


def check_translation_ls(g: GroupWindow, f_list) -> CheckReport:
    """Large-scale base condition for translate covers: each starred pair is
    absorbed by a translate cover of some set in the depth-3 closure.
    ``f_list`` and each subset in it are read once."""
    space = g.space
    try:
        f_list = iter(f_list)
    except TypeError as exc:
        raise InstanceError(_SUBSETS) from exc
    f_list = tuple(parse_points(f, space.n, _SUBSETS).tolist() for f in f_list)
    covers = []
    clipped_total = 0
    for f in f_list:
        cov, c = translation_scale(g, f)
        covers.append(cov)
        clipped_total += c
    candidates = _closure_candidates(g, f_list)
    cand_covers = []
    for name, s, c in candidates:
        cov, c2 = translation_scale(g, s)
        cand_covers.append((name, cov))
        clipped_total += c + c2
    notes = []
    if clipped_total:
        notes.append("%d clipped products: claims relative to the window"
                     % clipped_total)
    cells = (({"pair": [i, j]}, "absorber",
              first(cand_covers, partial(refines, star_family(u, v))),
              {"pair": [i, j], "reason": "no absorbing translate cover in the closure"})
             for (i, u), (j, v) in product(enumerate(covers), repeat=2))
    return base_report("check_translation_ls", space, (), cells, notes)
