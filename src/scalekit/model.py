"""Finite filtered spaces.

Every verifier in this package runs on a ``Space``: a finite list of named
points, optionally carrying a pseudometric table and a filtration (a strictly
increasing chain of point sets standing in for an exhaustion by bounded sets).
Spaces are immutable after construction; all derived objects reference points
by load-order index so results are deterministic.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class InstanceError(ValueError):
    """An instance document violates the schema or a structural invariant."""


def fmt_value(v: float) -> str:
    # canonical text for point labels built from numbers ("3" not "3.0")
    if math.isinf(v):
        return "inf"
    f = float(v)
    if f == int(f):
        return str(int(f))
    return repr(f)


def positive_grid(values, what: str) -> tuple[float, ...]:
    """Values as floats, checked nonempty, finite and positive; ``what``
    names the grid in the error.  Ordering rules stay with the caller."""
    vals = tuple(float(v) for v in values)
    if not vals:
        raise InstanceError("%s needs at least one value" % what)
    if not all(math.isfinite(v) and v > 0 for v in vals):
        raise InstanceError("%s must be finite and positive" % what)
    return vals


@dataclass(frozen=True)
class Filtration:
    """Strictly increasing chain K_1 c K_2 c ... of declared-bounded windows."""

    levels: tuple[frozenset[int], ...]

    def __post_init__(self):
        prev = None
        for i, lv in enumerate(self.levels):
            if prev is not None and not (prev < lv):
                raise InstanceError(
                    "filtration levels must strictly increase: level %d does not "
                    "properly contain level %d" % (i + 1, i)
                )
            prev = lv

    def __len__(self) -> int:
        return len(self.levels)

    def declared_bounded(self, subset: frozenset[int]) -> bool:
        """A set is declared bounded iff it is small (<= 1 point) or fits in a level."""
        if len(subset) <= 1:
            return True
        return any(subset <= lv for lv in self.levels)


class Space:
    """Finite point list with optional pseudometric and filtration."""

    def __init__(self, points, metric=None, metric_kind=None, coords=None,
                 filtration=None, group_table=None, triangle_ok=None):
        points = tuple(str(p) for p in points)
        if len(points) == 0:
            raise InstanceError("a space needs at least one point")
        if len(set(points)) != len(points):
            raise InstanceError("duplicate point labels")
        self.points = points
        self.index = {p: i for i, p in enumerate(points)}
        self.metric_kind = metric_kind
        self.coords = coords
        self.group_table = group_table
        if metric is not None:
            metric = np.asarray(metric, dtype=float)
            if metric.shape != (len(points), len(points)):
                raise InstanceError("metric table shape does not match point count")
            self._check_pseudometric(metric)
            metric = metric.copy()
            metric.setflags(write=False)
        self.d = metric
        if filtration is not None and not isinstance(filtration, Filtration):
            filtration = Filtration(tuple(frozenset(l) for l in filtration))
        self.filtration = filtration
        if triangle_ok is None and metric is not None:
            triangle_ok = self._triangle_holds(metric)
        self.triangle_ok = triangle_ok

    # -- structural checks -------------------------------------------------

    @staticmethod
    def _check_pseudometric(d: np.ndarray) -> None:
        n = d.shape[0]
        if np.any(np.diag(d) != 0.0):
            k = int(np.flatnonzero(np.diag(d) != 0.0)[0])
            raise InstanceError("nonzero self-distance at point %d" % k)
        if np.any(d < 0):
            raise InstanceError("negative distance in metric table")
        asym = d != d.T
        if np.any(asym):
            i, j = map(int, np.argwhere(asym)[0])
            raise InstanceError("asymmetric metric at (%d,%d)" % (i, j))
        del n

    @staticmethod
    def _triangle_holds(d: np.ndarray) -> bool:
        # exact check, one relaxation pass per intermediate point
        n = d.shape[0]
        for k in range(n):
            through = d[:, [k]] + d[[k], :]
            if np.any(d > through):
                return False
        return True

    # -- basic accessors ----------------------------------------------------

    @property
    def n(self) -> int:
        return len(self.points)

    def subset(self, labels) -> frozenset[int]:
        out = []
        for lb in labels:
            lb = str(lb)
            if lb not in self.index:
                raise InstanceError("unknown point label %r" % lb)
            out.append(self.index[lb])
        return frozenset(out)

    def labels(self, subset) -> tuple[str, ...]:
        return tuple(self.points[i] for i in sorted(subset))

    def distance(self, i: int, j: int) -> float:
        if self.d is None:
            raise InstanceError("space carries no metric")
        return float(self.d[i, j])

    def diam(self, subset) -> float:
        """Largest pairwise distance inside ``subset`` (0 for <= 1 point)."""
        idx = sorted(subset)
        if len(idx) <= 1:
            return 0.0
        sub = self.d[np.ix_(idx, idx)]
        return float(np.max(sub))

    def values(self) -> np.ndarray:
        """1-d coordinates for line-kind spaces (used by interval helpers)."""
        if self.metric_kind != "line":
            raise InstanceError("values() needs a line-kind space")
        return np.asarray(self.coords, dtype=float)

    # -- equality / serialization -------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Space):
            return NotImplemented
        if self.points != other.points:
            return False
        a, b = self.d, other.d
        if (a is None) != (b is None):
            return False
        if a is not None and not np.array_equal(a, b):
            return False
        fa = None if self.filtration is None else self.filtration.levels
        fb = None if other.filtration is None else other.filtration.levels
        return fa == fb and self.group_table == other.group_table

    __hash__ = object.__hash__

    def to_document(self) -> dict:
        doc: dict = {"points": list(self.points)}
        if self.metric_kind == "line":
            doc["metric"] = {"kind": "line", "coords": [float(c) for c in self.coords]}
        elif self.metric_kind == "grid":
            doc["metric"] = {"kind": "grid",
                             "coords": [[int(a), int(b)] for a, b in self.coords]}
        elif self.d is not None:
            rows = [["inf" if math.isinf(v) else float(v) for v in row]
                    for row in self.d]
            doc["metric"] = {"kind": "table", "distances": rows}
        if self.filtration is not None:
            doc["filtration"] = [list(self.labels(lv)) for lv in self.filtration.levels]
        if self.group_table is not None:
            doc["group"] = {"kind": "table",
                            "table": [list(r) for r in self.group_table]}
        return doc


# -- builders ----------------------------------------------------------------

def builder_line(n: int, h: float) -> Space:
    """Points 0, h, ..., n*h on a line with the absolute-difference metric."""
    if n < 0 or h <= 0:
        raise InstanceError("builder_line needs n >= 0 and h > 0")
    coords = tuple(i * h for i in range(n + 1))
    labels = [fmt_value(c) for c in coords]
    d = np.abs(np.subtract.outer(coords, coords)).astype(float)
    return Space(labels, metric=d, metric_kind="line", coords=coords,
                 triangle_ok=True)


def builder_grid(n: int) -> Space:
    """n x n integer grid under the max-coordinate-difference metric."""
    if n < 1:
        raise InstanceError("builder_grid needs n >= 1")
    coords = tuple((i, j) for i in range(n) for j in range(n))
    labels = ["%d,%d" % c for c in coords]
    arr = np.array(coords, dtype=float)
    d = np.max(np.abs(arr[:, None, :] - arr[None, :, :]), axis=2)
    return Space(labels, metric=d, metric_kind="grid", coords=coords,
                 triangle_ok=True)


def builder_group_window(table, names=None) -> Space:
    """Space carrying a finite multiplication table (no metric).

    ``table[g][h]`` is the index of g*h.  The table must be a Latin square
    with a two-sided identity; anything else is rejected.
    """
    table = tuple(tuple(int(v) for v in row) for row in table)
    n = len(table)
    rng = set(range(n))
    for g, row in enumerate(table):
        if len(row) != n or set(row) != rng:
            raise InstanceError("row %d of the multiplication table is not a permutation" % g)
    for h in range(n):
        col = {table[g][h] for g in range(n)}
        if col != rng:
            raise InstanceError("column %d of the multiplication table is not a permutation" % h)
    identity = None
    for e in range(n):
        if all(table[e][x] == x and table[x][e] == x for x in range(n)):
            identity = e
            break
    if identity is None:
        raise InstanceError("multiplication table has no two-sided identity")
    if names is None:
        names = ["g%d" % i for i in range(n)]
    return Space(names, group_table=table)


def load_space(document):
    """Parse an instance document; see ``instances.load_space``."""
    from . import instances
    return instances.load_space(document)
