"""Entourage calculus: relations over a space and the cover dictionary.

An entourage is a relation on the points, stored as point lists: row x
lists, ascending, every y with (x, y) in the relation (``model.BoolRows``);
the pair set, the holder lists (the relation inverted) and the matrix are
derived from them.  One that the relation kernel writes (a composition)
keeps its packed words and reads its lists from them on first use.
Composition is a product in the relation kernel and inversion reads the
holder lists, except on a line or a whole product grid, where a metric
entourage and what they make of it are boxes of the sorted coordinates
(``Entourage.runs``), composed, inverted and compared by their ends, axis
by axis.  Small-scale bases ask for symmetric
members with a half-step (G o G inside E and F), large-scale bases ask for
a member absorbing each composition.  The dictionary with covers sends a scale to
the union of its squares and an entourage to its slice cover.
"""
from __future__ import annotations

import math
from functools import cached_property
from itertools import chain, combinations_with_replacement, product

import numpy as np

from .model import (BoolRows, InstanceError, RunRows, Space, bool_product, parse_points,
                    real_value, runs_composed, runs_subset)
from .reports import CheckReport
from .scales import Cover, base_members, base_report, first


class Entourage:
    """Relation on a space.

    ``pairs`` is an iterable of ordered index pairs, the n x n bool
    relation matrix or a ``BoolRows`` of point lists.
    """

    def __init__(self, space: Space, pairs, name: str | None = None):
        self.space = space
        n = space.n
        if isinstance(pairs, np.ndarray) and pairs.dtype == bool:
            if pairs.shape != (n, n):
                raise InstanceError("entourage matrix must be %d x %d" % (n, n))
            rows = BoolRows.of_matrix(pairs)
        elif isinstance(pairs, BoolRows) and pairs.shape == (n, n):
            rows = pairs
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
            rows = BoolRows.of_pairs(xy[0::2], xy[1::2], n, n)
        self.rows = rows
        self.name = name

    @property
    def matrix(self) -> np.ndarray:
        """The n x n bool relation matrix, built on every call."""
        return self.rows.matrix

    @property
    def runs(self):
        """On a line or a whole product grid, the rows as boxes of its
        sorted coordinates when the relation was built with them (a metric
        entourage, or what the run calculus makes of one); else None."""
        return self.rows.runs if self.rows.line is self.space.d else None

    @cached_property
    def _ordered(self):
        """The runs on each axis as functions of the position of their
        row's point there, when they depend on it alone and neither end
        decreases along the positions (``Distances.sorted_runs``); else
        None."""
        runs = self.runs
        return None if runs is None else self.space.d.sorted_runs(runs)

    @cached_property
    def _band(self):
        """``_ordered`` when each row's run also holds its own point, as a
        metric entourage's do; else None."""
        ordered = self._ordered
        if ordered is None or not self.space.d.holds_diagonal(self.runs):
            return None
        return ordered

    @cached_property
    def holders(self) -> BoolRows:
        """The relation inverted: row y lists every x with (x, y) in it."""
        return self.rows.transpose()

    @property
    def pairs(self) -> frozenset[tuple[int, int]]:
        """The relation as a set of (x, y) index pairs, built on every call."""
        return frozenset(self.sorted_pairs())

    def __len__(self):
        return self.rows.nnz

    def __contains__(self, pair):
        try:
            x, y = parse_points(pair, self.space.n, "")
        except ValueError:  # InstanceError is one, as is a pair of the wrong length
            return False
        return bool(self.rows.has([x], [y])[0])

    def __eq__(self, other):
        if not isinstance(other, Entourage):
            return NotImplemented
        return self.space is other.space and self.rows == other.rows

    __hash__ = object.__hash__

    def contains_diagonal(self) -> bool:
        runs = self.runs
        if runs is not None:
            return self.space.d.holds_diagonal(runs)
        # entries are distinct, so n of them on the diagonal are all of it
        return int(np.count_nonzero(self.rows.columns == self.rows.owners())) == self.space.n

    def is_symmetric(self) -> bool:
        if self._ordered is not None:
            # a relation inside its inverse is symmetric
            return runs_subset(self.runs, self.space.d.inverse_runs(self._ordered))
        return self.rows == self.holders

    def issubset(self, other: "Entourage") -> bool:
        if self.space is not other.space:
            raise InstanceError("entourages live on different spaces")
        if (runs := self.runs) is not None and (within := other.runs) is not None:
            return runs_subset(runs, within)
        return self.rows.issubset(other.rows)

    def intersection(self, other: "Entourage") -> "Entourage":
        if self.space is not other.space:
            raise InstanceError("entourages live on different spaces")
        return Entourage(self.space, BoolRows.of_words(self.rows.words & other.rows.words,
                                                       self.space.n))

    def sorted_pairs(self) -> list[tuple[int, int]]:
        return list(zip(self.rows.owners().tolist(), self.rows.columns.tolist()))

    def __repr__(self):
        nm = self.name or "entourage"
        return "<%s: %d pairs>" % (nm, len(self))


def diagonal(space: Space) -> Entourage:
    return Entourage(space, BoolRows.identity(space.n), name="diagonal")


def invert(e: Entourage) -> Entourage:
    """The inverse relation: from the ends of boxes whose runs never move
    left (``Distances.inverse_runs``), else over e's holder lists."""
    if e._ordered is not None:
        return Entourage(e.space, RunRows(e.space.d, *e.space.d.inverse_runs(e._ordered)))
    # a fresh relation over e's holder lists, so that what it caches (its
    # packed words, say) is not kept with e
    holders = e.holders
    return Entourage(e.space, BoolRows(holders.columns, holders.starts, holders.n))


def compose(e: Entourage, f: Entourage) -> Entourage:
    """e o f = {(x, z): (x, y) in e and (y, z) in f for some y}: from the
    ends of e's boxes when f is a band on each axis (``model.runs_composed``),
    else a product in the relation kernel."""
    if e.space is not f.space:
        raise InstanceError("entourages live on different spaces")
    if (runs := e.runs) is not None and (band := f._band) is not None:
        return Entourage(e.space, RunRows(e.space.d, *runs_composed(runs, band)))
    return Entourage(e.space, bool_product(e.rows, f.rows))


def slice_at(e: Entourage, x: int) -> frozenset[int]:
    """E[x] = {y : (y, x) in E}: second coordinate fixed, one holder list."""
    (x,) = parse_points((x,), e.space.n, "a slice is taken at a point index")
    return frozenset(e.holders.row(x).tolist())


def entourage_of_scale(u: Cover) -> Entourage:
    """Union of U x U over the cover elements."""
    return Entourage(u.space, u.neighbours, name="of-scale")


def scale_of_entourage(e: Entourage) -> Cover:
    """Slice cover {E[x]}, one element per point in load order."""
    if not e.contains_diagonal():
        raise InstanceError("entourage misses the diagonal; slices would not cover")
    return Cover(e.space, e.holders, name="of-entourage")


def metric_entourage(space: Space, r: float, closed: bool = True) -> Entourage:
    """{(x, y): d(x, y) <= r} (or strict < r); r must be finite and >= 0."""
    if space.d is None:
        raise InstanceError("space carries no metric")
    radius = real_value(r, "entourage radius")
    if not (math.isfinite(radius) and radius >= 0):
        raise InstanceError("entourage radius %r must be finite and nonnegative" % radius)
    return Entourage(space, space.d.within(radius, closed),
                     name="E_%s%s" % (r, "" if closed else "<"))


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
