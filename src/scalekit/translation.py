"""Translation scales on finite groups and integer windows.

A finite subset F containing the identity produces the cover of left
translates gF.  Finite groups give exact structural claims; windows of the
integers clip products at the boundary and every clip is counted, so callers
can tell a theorem from a boundary effect.
"""
from __future__ import annotations

import numpy as np

from .model import Filtration, InstanceError, Space
from .reports import CheckReport, truncation_label
from .scales import Cover, refines, star_family


class GroupWindow:
    """Multiplication oracle over a carrier: a whole finite group, or a
    symmetric integer window with clipped addition."""

    def __init__(self, space: Space, table=None, values=None):
        self.space = space
        self.table = None
        self.values = None
        if table is not None:
            t = np.asarray(table, dtype=np.int64)
            if t.shape != (space.n, space.n):
                raise InstanceError("multiplication table shape mismatch")
            self.table = t
            self.identity = self._find_identity(t)
        elif values is not None:
            v = np.asarray(values, dtype=np.int64)
            if v.shape != (space.n,):
                raise InstanceError("window values shape mismatch")
            self.values = v
            self._index = {int(x): i for i, x in enumerate(v)}
            if 0 not in self._index:
                raise InstanceError("window must contain 0")
            self.identity = self._index[0]
        else:
            raise InstanceError("need a multiplication table or window values")

    @staticmethod
    def _find_identity(t: np.ndarray) -> int:
        n = t.shape[0]
        rng = np.arange(n)
        for e in range(n):
            if np.array_equal(t[e], rng) and np.array_equal(t[:, e], rng):
                return e
        raise InstanceError("no two-sided identity in the table")

    @property
    def is_window(self) -> bool:
        return self.values is not None

    def mul(self, a: int, b: int) -> int | None:
        """Product index, or None when it leaves the window."""
        if self.table is not None:
            return int(self.table[a, b])
        return self._index.get(int(self.values[a] + self.values[b]))

    def inv(self, a: int) -> int | None:
        if self.table is not None:
            col = np.flatnonzero(self.table[a] == self.identity)
            return int(col[0])
        return self._index.get(-int(self.values[a]))


def from_table_space(space: Space) -> GroupWindow:
    if space.group_table is None:
        raise InstanceError("space carries no multiplication table")
    return GroupWindow(space, table=space.group_table)


def z_window(n_half: int, level_step: int | None = None) -> Space:
    """Integers [-n_half, n_half] with the usual metric; optional symmetric
    filtration windows [-k*step, k*step]."""
    if n_half < 1:
        raise InstanceError("window half-width must be positive")
    vals = list(range(-n_half, n_half + 1))
    labels = [str(v) for v in vals]
    arr = np.array(vals, dtype=float)
    d = np.abs(np.subtract.outer(arr, arr))
    filt = None
    if level_step is not None:
        levels = []
        k = level_step
        while k < n_half:
            levels.append(frozenset(i for i, v in enumerate(vals) if abs(v) <= k))
            k += level_step
        if not levels:
            raise InstanceError("level step leaves no interior window")
        filt = Filtration(tuple(levels))
    return Space(labels, metric=d, metric_kind="line", coords=tuple(float(v) for v in vals),
                 filtration=filt, triangle_ok=True)


def window_group(space: Space) -> GroupWindow:
    """Addition oracle for a space whose labels are integers."""
    try:
        vals = [int(p) for p in space.points]
    except ValueError as exc:
        raise InstanceError("window labels must be integers") from exc
    return GroupWindow(space, values=vals)


def _translate_set(g: GroupWindow, a: int, fset) -> tuple[frozenset[int], int]:
    out = set()
    clipped = 0
    for f in sorted(fset):
        p = g.mul(a, f)
        if p is None:
            clipped += 1
        else:
            out.add(p)
    return frozenset(out), clipped


def translation_scale(g: GroupWindow, f_subset) -> tuple[Cover, int]:
    """Cover of left translates gF, identity adjoined to F.

    Returns the cover and the number of clipped products (0 on full groups).
    """
    f = frozenset(int(x) for x in f_subset) | {g.identity}
    for x in f:
        if not (0 <= x < g.space.n):
            raise InstanceError("subset index %d out of range" % x)
    elements = []
    clipped = 0
    for a in range(g.space.n):
        el, c = _translate_set(g, a, f)
        clipped += c
        elements.append(el)
    name = "translates[%s]" % ",".join(g.space.points[i] for i in sorted(f))
    return Cover(g.space, elements, name=name), clipped


def _product_set(g: GroupWindow, a_set, b_set) -> tuple[frozenset[int], int]:
    out = set()
    clipped = 0
    for a in sorted(a_set):
        for b in sorted(b_set):
            p = g.mul(a, b)
            if p is None:
                clipped += 1
            else:
                out.add(p)
    return frozenset(out), clipped


def _inverse_set(g: GroupWindow, a_set) -> tuple[frozenset[int], int]:
    out = set()
    clipped = 0
    for a in sorted(a_set):
        p = g.inv(a)
        if p is None:
            clipped += 1
        else:
            out.add(p)
    return frozenset(out), clipped


def _closure_candidates(g: GroupWindow, subsets):
    """Products of up to three factors from the subsets and their inverses,
    plus pairwise unions; deterministic order, clip counts carried."""
    e = g.identity
    base: list[tuple[str, frozenset[int], int]] = []
    seen: set[frozenset[int]] = set()

    def push(name, s, clips, bucket):
        if s and s not in seen:
            seen.add(s)
            bucket.append((name, s, clips))

    depth1: list[tuple[str, frozenset[int], int]] = []
    for i, f in enumerate(subsets):
        fs = frozenset(f) | {e}
        push("F%d" % (i + 1), fs, 0, depth1)
        inv, c = _inverse_set(g, fs)
        push("inv(F%d)" % (i + 1), inv | {e}, c, depth1)
    level = list(depth1)
    out = list(depth1)
    for _ in range(2):
        nxt = []
        for name_a, sa, ca in level:
            for name_b, sb, cb in depth1:
                prod, c = _product_set(g, sa, sb)
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
    absorbed by a translate cover of some set in the depth-3 closure."""
    space = g.space
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
    witnesses = []
    for i, u in enumerate(covers):
        for j, v in enumerate(covers):
            st = star_family(u, v)
            found = next((name for name, w in cand_covers if refines(st, w)), None)
            if found is None:
                return CheckReport(
                    "check_translation_ls", False,
                    counterexample={"pair": [i, j],
                                    "reason": "no absorbing translate cover in the closure"},
                    notes=tuple(notes), truncation=truncation_label(space))
            witnesses.append({"pair": [i, j], "absorber": found})
    return CheckReport("check_translation_ls", True, witnesses=tuple(witnesses),
                       notes=tuple(notes), truncation=truncation_label(space))
