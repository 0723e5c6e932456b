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

import math
from functools import cached_property
from itertools import chain, combinations_with_replacement, product

import numpy as np

from .model import BoolRows, InstanceError, Space, bool_product, parse_points
from .reports import CheckReport
from .scales import Cover, base_members, base_report, first


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
            shape = "entourage pairs must be (x, y) index pairs"
            try:
                pairs = [tuple(p) for p in pairs]
            except TypeError as exc:
                raise InstanceError(shape) from exc
            if not set(map(len, pairs)) <= {2}:
                raise InstanceError(shape)
            xy = parse_points(chain.from_iterable(pairs), n, lambda k, outside: (
                "entourage pair out of range: %r" % (pairs[k // 2],) if outside
                else shape))
            m = np.zeros((n, n), dtype=bool)
            m[xy[0::2], xy[1::2]] = True
        m.setflags(write=False)
        self.matrix = m
        self.name = name

    @cached_property
    def rows(self) -> BoolRows:
        """The relation matrix as the relation kernel reads it."""
        return BoolRows(self.matrix)

    @cached_property
    def pairs(self) -> frozenset[tuple[int, int]]:
        """The relation as a set of (x, y) index pairs, built on first use."""
        xs, ys = np.nonzero(self.matrix)
        return frozenset(zip(xs.tolist(), ys.tolist()))

    def __len__(self):
        return int(np.count_nonzero(self.matrix))

    def __contains__(self, pair):
        try:
            x, y = parse_points(pair, self.space.n, "")
        except ValueError:  # InstanceError is one, as is a pair of the wrong length
            return False
        return bool(self.matrix[x, y])

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
        if self.space is not other.space:
            raise InstanceError("entourages live on different spaces")
        return not (self.matrix & ~other.matrix).any()

    def intersection(self, other: "Entourage") -> "Entourage":
        if self.space is not other.space:
            raise InstanceError("entourages live on different spaces")
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
    return Entourage(e.space, bool_product(e.rows, f.rows))


def slice_at(e: Entourage, x: int) -> frozenset[int]:
    """E[x] = {y : (y, x) in E}: second coordinate fixed."""
    return frozenset(np.flatnonzero(e.matrix[:, x]).tolist())


def entourage_of_scale(u: Cover) -> Entourage:
    """Union of U x U over the cover elements."""
    return Entourage(u.space, u.neighbours.matrix, name="of-scale")


def scale_of_entourage(e: Entourage) -> Cover:
    """Slice cover {E[x]}, one element per point in load order."""
    if not e.contains_diagonal():
        raise InstanceError("entourage misses the diagonal; slices would not cover")
    return Cover(e.space, e.matrix.T, name="of-entourage")


def metric_entourage(space: Space, r: float, closed: bool = True) -> Entourage:
    """{(x, y): d(x, y) <= r} (or strict < r); r must be finite and >= 0."""
    if space.d is None:
        raise InstanceError("space carries no metric")
    if not (math.isfinite(r) and r >= 0):
        raise InstanceError("entourage radius %r must be finite and nonnegative" % float(r))
    mask = (space.d <= r) if closed else (space.d < r)
    return Entourage(space, mask, name="E_%s%s" % (r, "" if closed else "<"))


# -- base checks -------------------------------------------------------------

def check_uniform_axioms(base) -> CheckReport:
    """Small-scale entourage base: symmetric members, diagonal inside each,
    and for every pair a member whose square sits inside the intersection."""
    members = base_members(base, "an entourage base needs at least one member")
    flaws = ({"member": k, "reason": reason} for k, e in enumerate(members)
             for reason, holds in (("missing diagonal", e.contains_diagonal),
                                   ("not symmetric", e.is_symmetric))
             if not holds())

    def cells():
        # G o G lies inside E and F iff inside their intersection
        squares = [compose(g, g) for g in members]
        table = [[sq.issubset(e) for e in members] for sq in squares]
        for i, j in combinations_with_replacement(range(len(members)), 2):
            yield ({"pair": [i, j]}, "half_step",
                   first(enumerate(table), lambda row: row[i] and row[j]),
                   {"pair": [i, j],
                    "reason": "no member with G o G inside the intersection"})

    return base_report("check_uniform_axioms", members[0].space, flaws, cells())


def check_coarse_axioms(base) -> CheckReport:
    """Large-scale entourage base: diagonal inside each member, inverses and
    compositions absorbed by some member."""
    members = base_members(base, "an entourage base needs at least one member")
    flaws = ({"member": k, "reason": "missing diagonal"}
             for k, e in enumerate(members) if not e.contains_diagonal())
    inverses = (({"inverse_of": i}, "inside",
                 first(enumerate(members), invert(e).issubset),
                 {"member": i, "reason": "inverse not absorbed"})
                for i, e in enumerate(members))
    compositions = (({"pair": [i, j]}, "absorbed_by",
                     first(enumerate(members), compose(e, f).issubset),
                     {"pair": [i, j], "reason": "composition not absorbed"})
                    for (i, e), (j, f) in product(enumerate(members), repeat=2))
    return base_report("check_coarse_axioms", members[0].space, flaws,
                       chain(inverses, compositions))
