"""Covers, stars and scale bases.

A scale is a cover of the whole space.  A cover is stored as its bool
incidence matrix, elements x points; the element sets are derived from it on
demand.  Covers are compared through star refinement: ``u`` is a smaller
scale than ``v`` when the family of stars st(U, u) refines ``v`` and the two
covers differ as element sets.  Small-scale bases are downward directed under
star refinement, large-scale bases are directed the opposite way (every star
of two members is coarsened by a third).
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .model import InstanceError, Space
from .reports import CheckReport, truncation_label


def _incidence(n: int, elements) -> np.ndarray:
    """Bool elements x points matrix of point-index iterables, or a copy of
    one given as such a matrix; raises on empty or out-of-range elements."""
    if isinstance(elements, np.ndarray) and elements.dtype == bool:
        if elements.ndim != 2 or elements.shape[1] != n:
            raise InstanceError("incidence matrix needs one column per point")
        m = elements.copy()
        stray = np.zeros(0, dtype=np.int64)
    else:
        rows = [np.fromiter(e, dtype=np.int64) for e in elements]
        owner = np.repeat(np.arange(len(rows)), [r.size for r in rows])
        pts = np.concatenate(rows) if rows else owner
        inside = (pts >= 0) & (pts < n)
        m = np.zeros((len(rows), n), dtype=bool)
        m[owner[inside], pts[inside]] = True
        stray = owner[~inside]
    empty = np.flatnonzero(~m.any(axis=1))
    if stray.size and (not empty.size or stray[0] <= empty[0]):
        raise InstanceError("cover element %d has out-of-range points" % stray[0])
    if empty.size:
        raise InstanceError("cover element %d is empty" % empty[0])
    if not len(m):
        raise InstanceError("a cover needs at least one element")
    m.setflags(write=False)
    return m


def _distinct_rows(m: np.ndarray) -> np.ndarray:
    """The distinct rows of a bool matrix, each at its first occurrence."""
    packed = np.packbits(m, axis=1)
    # bytes keys: np.unique(axis=0) would sort the rows, which is far slower
    kept = b"".join(dict.fromkeys(map(bytes, packed)))
    rows = np.frombuffer(kept, dtype=np.uint8).reshape(-1, packed.shape[1])
    return np.unpackbits(rows, axis=1, count=m.shape[1]).astype(bool)


class Cover:
    """Indexed family of nonempty point subsets of one space.

    ``elements`` is an iterable of point-index iterables or the bool
    incidence matrix itself.  Element order is preserved; duplicate element
    sets are allowed (they can arise from star families) and only collapse
    when callers dedupe.
    """

    def __init__(self, space: Space, elements, name: str | None = None,
                 open_flag: bool = False):
        self.space = space
        self.matrix = _incidence(space.n, elements)
        self.name = name
        self.open_flag = bool(open_flag)
        self._elements = None

    def __len__(self) -> int:
        return len(self.matrix)

    def __iter__(self):
        return iter(self.elements)

    @property
    def elements(self) -> tuple[frozenset[int], ...]:
        """The element sets in matrix row order, built on first use."""
        if self._elements is None:
            self._elements = tuple(frozenset(np.flatnonzero(row).tolist())
                                   for row in self.matrix)
        return self._elements

    def element_set(self) -> frozenset[frozenset[int]]:
        return frozenset(self.elements)

    def is_scale(self) -> bool:
        return bool(self.matrix.any(axis=0).all())

    def labels(self) -> list[list[str]]:
        return [list(self.space.labels(e)) for e in self.elements]

    def __repr__(self):
        nm = self.name or "cover"
        return "<%s: %d elements on %d points>" % (nm, len(self), self.space.n)


@dataclass
class ScaleBase:
    """Named list of covers submitted as a base for an ss- or ls-structure."""

    space: Space
    covers: tuple
    kind: str = "unspecified"  # "small" | "large" | "unspecified"
    warnings: tuple[str, ...] = ()

    def __iter__(self):
        return iter(self.covers)

    def __len__(self):
        return len(self.covers)


def _covers(base) -> tuple:
    if isinstance(base, ScaleBase):
        return tuple(base.covers)
    return tuple(base)


# -- stars ---------------------------------------------------------------------

def star_set(subset, cover: Cover) -> frozenset[int]:
    """st(A, u) = A together with every element of u meeting A."""
    subset = frozenset(subset)
    m = cover.matrix
    meets = m[:, np.fromiter(subset, dtype=np.int64)].any(axis=1)
    return subset | frozenset(np.flatnonzero(m[meets].any(axis=0)).tolist())


def star_family(u: Cover, v: Cover) -> Cover:
    """st(u, v): one element st(U, v) per element U of u, order preserved."""
    if u.space is not v.space:
        raise InstanceError("covers live on different spaces")
    mu = u.matrix
    # float32 keeps the overlap counts exact and the products in BLAS
    mv = v.matrix.astype(np.float32)
    meets = (mu.astype(np.float32) @ mv.T) > 0
    stars = mu | ((meets.astype(np.float32) @ mv) > 0)
    return Cover(u.space, stars)


def refines(u: Cover, v: Cover) -> bool:
    """Every element of u is contained in some element of v."""
    if u.space is not v.space:
        raise InstanceError("covers live on different spaces")
    mu = u.matrix.astype(np.float32)
    out = (1.0 - v.matrix.astype(np.float32)).T
    misses = mu @ out  # (i,j) = points of u_i outside v_j
    return bool((misses == 0).any(axis=1).all())


def smaller_or_equal(u: Cover, v: Cover) -> bool:
    """st(u, u) refines v; the strictness clause is dropped."""
    return refines(star_family(u, u), v)


def is_smaller(u: Cover, v: Cover) -> bool:
    """st(u, u) refines v and the covers differ as element sets."""
    return smaller_or_equal(u, v) and u.element_set() != v.element_set()


def trivial_extension(family: Cover, space: Space | None = None) -> Cover:
    """The family together with every singleton, the minimal scale above it."""
    space = space or family.space
    m = np.vstack([family.matrix, np.eye(family.space.n, dtype=bool)])
    return Cover(space, m, name=(family.name or "family") + "+singletons")


# -- base checks -----------------------------------------------------------------

def check_ss_base(base) -> CheckReport:
    """Downward directedness for a small-scale base.

    For each pair of base covers there must be a base cover whose star family
    refines both.  Scales must cover the space.
    """
    covers = _covers(base)
    space = covers[0].space
    for k, u in enumerate(covers):
        if not u.is_scale():
            return CheckReport("check_ss_base", False,
                               counterexample={"non_scale": k},
                               truncation=truncation_label(space))
    star_refines = [[smaller_or_equal(w, u) for u in covers] for w in covers]
    witnesses = []
    for i in range(len(covers)):
        for j in range(i, len(covers)):
            found = next((k for k, row in enumerate(star_refines)
                          if row[i] and row[j]), None)
            if found is None:
                return CheckReport(
                    "check_ss_base", False,
                    counterexample={"pair": [i, j], "reason": "no common star refiner"},
                    truncation=truncation_label(space))
            witnesses.append({"pair": [i, j], "star_refiner": found})
    return CheckReport("check_ss_base", True, witnesses=tuple(witnesses),
                       truncation=truncation_label(space))


def check_ls_base(base) -> CheckReport:
    """Directedness for a large-scale base.

    For each ordered pair (u, v) some base cover must coarsen st(u, v).
    """
    covers = _covers(base)
    space = covers[0].space
    for k, u in enumerate(covers):
        if not u.is_scale():
            return CheckReport("check_ls_base", False,
                               counterexample={"non_scale": k},
                               truncation=truncation_label(space))
    witnesses = []
    for i, u in enumerate(covers):
        for j, v in enumerate(covers):
            st = star_family(u, v)
            found = next((k for k, w in enumerate(covers) if refines(st, w)), None)
            if found is None:
                return CheckReport(
                    "check_ls_base", False,
                    counterexample={"pair": [i, j],
                                    "reason": "no base cover coarsens st(u, v)"},
                    truncation=truncation_label(space))
            witnesses.append({"pair": [i, j], "coarsening": found})
    return CheckReport("check_ls_base", True, witnesses=tuple(witnesses),
                       truncation=truncation_label(space))


def is_hausdorff(base) -> CheckReport:
    """Some base scale separates every pair: no element contains both points."""
    covers = _covers(base)
    space = covers[0].space
    together = np.ones((space.n, space.n), dtype=bool)
    for u in covers:
        m = u.matrix.astype(np.float32)
        both = (m.T @ m) > 0
        together &= both
    np.fill_diagonal(together, False)
    if together.any():
        x, y = map(int, np.argwhere(together)[0])
        return CheckReport(
            "is_hausdorff", False,
            counterexample={"pair": [space.points[x], space.points[y]],
                            "reason": "every base scale has an element containing both"},
            truncation=truncation_label(space))
    return CheckReport("is_hausdorff", True,
                       witnesses=({"separated_pairs": space.n * (space.n - 1) // 2},),
                       truncation=truncation_label(space))


# -- partitions of unity -----------------------------------------------------------

class PartitionOfUnity:
    """Nonnegative weight table with unit row sums.

    Rows are indexed by points of the space, columns by a finite index set
    (arbitrary labels).  The support of column v is the set of points giving
    it positive weight.
    """

    ROW_SUM_TOL = 1e-9

    def __init__(self, space: Space, weights, index=None):
        w = np.asarray(weights, dtype=float)
        if w.ndim != 2 or w.shape[0] != space.n:
            raise InstanceError("weight table must have one row per point")
        if np.any(w < 0):
            raise InstanceError("negative weight in partition of unity")
        sums = w.sum(axis=1)
        bad = np.abs(sums - 1.0) > self.ROW_SUM_TOL
        if np.any(bad):
            x = int(np.flatnonzero(bad)[0])
            raise InstanceError("row sum %r at point %s is not 1" %
                                (float(sums[x]), space.points[x]))
        self.space = space
        self.weights = w
        self.weights.setflags(write=False)
        if index is None:
            index = tuple(range(w.shape[1]))
        index = tuple(index)
        if len(index) != w.shape[1]:
            raise InstanceError("index labels do not match column count")
        self.index = index

    def supports(self) -> tuple[frozenset[int], ...]:
        return tuple(frozenset(np.flatnonzero(self.weights[:, k] > 0))
                     for k in range(self.weights.shape[1]))

    def prune(self) -> "PartitionOfUnity":
        """Drop columns with empty support."""
        keep = [k for k, s in enumerate(self.supports()) if s]
        return PartitionOfUnity(self.space, self.weights[:, keep],
                                tuple(self.index[k] for k in keep))

    def value(self, point: int) -> np.ndarray:
        return self.weights[point]


def pou_support(phi: PartitionOfUnity) -> Cover:
    """Support cover {S_v}; empty supports are dropped with their labels."""
    return Cover(phi.space, phi.prune().weights.T > 0, name="pou-support")


def subordinated(phi: PartitionOfUnity, u: Cover) -> bool:
    """S_v inside the matching element of u, column v against element v."""
    if len(phi.index) != len(u.elements):
        raise InstanceError("index set of the partition does not match the cover")
    return all(s <= e for s, e in zip(phi.supports(), u.elements))
