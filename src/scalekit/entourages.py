"""Entourage calculus: relations over a space and the cover dictionary.

An entourage is a relation on the points, stored as an n x n bool matrix
with entry (x, y) set when the pair is in the relation; the pair set is
derived from it on demand.  Composition is a boolean matrix product and
inversion a transpose.  Small-scale bases ask for symmetric members with a
half-step (G o G inside E and F), large-scale bases ask for a member absorbing
each composition.  The dictionary with covers sends a scale to the union of
its squares and an entourage to its slice cover.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import InstanceError, Space
from .reports import CheckReport, truncation_label
from .scales import Cover


class Entourage:
    """Relation on a space.

    ``pairs`` is an iterable of ordered index pairs or the n x n bool
    relation matrix itself.
    """

    def __init__(self, space: Space, pairs, name: str | None = None):
        self.space = space
        n = space.n
        if isinstance(pairs, np.ndarray) and pairs.dtype == bool:
            if pairs.shape != (n, n):
                raise InstanceError("entourage matrix must be %d x %d" % (n, n))
            m = pairs.copy()
        else:
            xy = np.array(list(pairs), dtype=np.int64)
            if xy.size and (xy.ndim != 2 or xy.shape[1] != 2):
                raise InstanceError("entourage pairs must be (x, y) index pairs")
            xy = xy.reshape(-1, 2)
            bad = np.flatnonzero(((xy < 0) | (xy >= n)).any(axis=1))
            if bad.size:
                raise InstanceError("entourage pair out of range: %r"
                                    % (tuple(xy[bad[0]].tolist()),))
            m = np.zeros((n, n), dtype=bool)
            m[xy[:, 0], xy[:, 1]] = True
        m.setflags(write=False)
        self.matrix = m
        self.name = name
        self._pairs = None

    @property
    def pairs(self) -> frozenset[tuple[int, int]]:
        """The relation as a set of (x, y) index pairs, built on first use."""
        if self._pairs is None:
            xs, ys = np.nonzero(self.matrix)
            self._pairs = frozenset(zip(xs.tolist(), ys.tolist()))
        return self._pairs

    def __len__(self):
        return int(np.count_nonzero(self.matrix))

    def __contains__(self, pair):
        x, y = int(pair[0]), int(pair[1])
        n = self.space.n
        return 0 <= x < n and 0 <= y < n and bool(self.matrix[x, y])

    def __eq__(self, other):
        if not isinstance(other, Entourage):
            return NotImplemented
        return self.space is other.space and np.array_equal(self.matrix, other.matrix)

    __hash__ = object.__hash__

    def contains_diagonal(self) -> bool:
        return bool(self.matrix.diagonal().all())

    def is_symmetric(self) -> bool:
        return np.array_equal(self.matrix, self.matrix.T)

    def issubset(self, other: "Entourage") -> bool:
        return not (self.matrix & ~other.matrix).any()

    def intersection(self, other: "Entourage") -> "Entourage":
        return Entourage(self.space, self.matrix & other.matrix)

    def sorted_pairs(self) -> list[tuple[int, int]]:
        return [tuple(p) for p in np.argwhere(self.matrix).tolist()]

    def __repr__(self):
        nm = self.name or "entourage"
        return "<%s: %d pairs>" % (nm, len(self))


def diagonal(space: Space) -> Entourage:
    return Entourage(space, np.eye(space.n, dtype=bool), name="diagonal")


def invert(e: Entourage) -> Entourage:
    return Entourage(e.space, e.matrix.T)


def compose(e: Entourage, f: Entourage) -> Entourage:
    """e o f = {(x, z): (x, y) in e and (y, z) in f for some y}."""
    if e.space is not f.space:
        raise InstanceError("entourages live on different spaces")
    # float32 keeps the path counts exact and the product in BLAS
    paths = e.matrix.astype(np.float32) @ f.matrix.astype(np.float32)
    return Entourage(e.space, paths > 0)


def slice_at(e: Entourage, x: int) -> frozenset[int]:
    """E[x] = {y : (y, x) in E}: second coordinate fixed."""
    return frozenset(np.flatnonzero(e.matrix[:, x]).tolist())


def entourage_of_scale(u: Cover) -> Entourage:
    """Union of U x U over the cover elements."""
    m = u.matrix.astype(np.float32)
    return Entourage(u.space, (m.T @ m) > 0, name="of-scale")


def scale_of_entourage(e: Entourage) -> Cover:
    """Slice cover {E[x]}, one element per point in load order."""
    if not e.contains_diagonal():
        raise InstanceError("entourage misses the diagonal; slices would not cover")
    return Cover(e.space, e.matrix.T, name="of-entourage")


def metric_entourage(space: Space, r: float, closed: bool = True) -> Entourage:
    """{(x, y): d(x, y) <= r} (or strict < r)."""
    if space.d is None:
        raise InstanceError("space carries no metric")
    mask = (space.d <= r) if closed else (space.d < r)
    return Entourage(space, mask, name="E_%s%s" % (r, "" if closed else "<"))


# -- base checks -------------------------------------------------------------

def check_uniform_axioms(base) -> CheckReport:
    """Small-scale entourage base: symmetric members, diagonal inside each,
    and for every pair a member whose square sits inside the intersection."""
    members = list(base)
    space = members[0].space
    for k, e in enumerate(members):
        if not e.contains_diagonal():
            return CheckReport("check_uniform_axioms", False,
                               counterexample={"member": k, "reason": "missing diagonal"},
                               truncation=truncation_label(space))
        if not e.is_symmetric():
            return CheckReport("check_uniform_axioms", False,
                               counterexample={"member": k, "reason": "not symmetric"},
                               truncation=truncation_label(space))
    witnesses = []
    for i, e in enumerate(members):
        for j in range(i, len(members)):
            f = members[j]
            target = e.intersection(f)
            found = next((k for k, g in enumerate(members)
                          if compose(g, g).issubset(target)), None)
            if found is None:
                return CheckReport(
                    "check_uniform_axioms", False,
                    counterexample={"pair": [i, j],
                                    "reason": "no member with G o G inside the intersection"},
                    truncation=truncation_label(space))
            witnesses.append({"pair": [i, j], "half_step": found})
    return CheckReport("check_uniform_axioms", True, witnesses=tuple(witnesses),
                       truncation=truncation_label(space))


def check_coarse_axioms(base) -> CheckReport:
    """Large-scale entourage base: diagonal inside each member, inverses and
    compositions absorbed by some member."""
    members = list(base)
    space = members[0].space
    for k, e in enumerate(members):
        if not e.contains_diagonal():
            return CheckReport("check_coarse_axioms", False,
                               counterexample={"member": k, "reason": "missing diagonal"},
                               truncation=truncation_label(space))
    witnesses = []
    for i, e in enumerate(members):
        inv = invert(e)
        found = next((k for k, g in enumerate(members) if inv.issubset(g)), None)
        if found is None:
            return CheckReport("check_coarse_axioms", False,
                               counterexample={"member": i, "reason": "inverse not absorbed"},
                               truncation=truncation_label(space))
        witnesses.append({"inverse_of": i, "inside": found})
    for i, e in enumerate(members):
        for j, f in enumerate(members):
            comp = compose(e, f)
            found = next((k for k, g in enumerate(members) if comp.issubset(g)), None)
            if found is None:
                return CheckReport(
                    "check_coarse_axioms", False,
                    counterexample={"pair": [i, j],
                                    "reason": "composition not absorbed"},
                    truncation=truncation_label(space))
            witnesses.append({"pair": [i, j], "absorbed_by": found})
    return CheckReport("check_coarse_axioms", True, witnesses=tuple(witnesses),
                       truncation=truncation_label(space))
