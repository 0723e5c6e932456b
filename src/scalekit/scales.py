"""Covers, stars and scale bases.

A scale is a cover of the whole space.  A cover is stored as point lists,
one ascending list of point indices per element (``model.BoolRows``); the
element sets, the holder lists of each point and the neighbourhood
relation are derived from them.  On a line, a cover whose elements are
runs of the sorted coordinates (``Cover.runs``) takes its stars,
refinements and span from the runs' ends.  Covers are compared through star
refinement: ``u`` is a smaller scale than ``v`` when the family of stars
st(U, u) refines ``v`` and the two covers differ as element sets.
Small-scale bases are downward directed under star refinement, large-scale
bases are directed the opposite way (every star of two members is
coarsened by a third).
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, partial, reduce
from itertools import chain, combinations_with_replacement, product

import numpy as np

from .model import (BoolRows, InstanceError, RunRows, Space, bool_covered, bool_product,
                    pair_stream, parse_points, positive_grid, product_words, run_stars,
                    runs_inside, runs_span)
from .reports import CheckReport, truncation_label


def _incidence(n: int, elements) -> BoolRows:
    """The point lists of point-index iterables, of a bool elements x
    points matrix or of point lists themselves; raises on empty or
    out-of-range elements and on points that are not integers."""
    if isinstance(elements, BoolRows):
        if elements.n != n:
            raise InstanceError("incidence matrix needs one column per point")
        rows = elements
    elif isinstance(elements, np.ndarray) and elements.dtype == bool:
        if elements.ndim != 2 or elements.shape[1] != n:
            raise InstanceError("incidence matrix needs one column per point")
        rows = BoolRows.of_matrix(elements)
    else:
        try:
            lists = [tuple(e) for e in elements]
        except TypeError as exc:
            raise InstanceError("cover elements must be lists of point indices") from exc
        owner = np.repeat(np.arange(len(lists)), [len(r) for r in lists])
        empty = next((k for k, r in enumerate(lists) if not r), len(lists))

        def error(k: int, outside: bool) -> str:
            # elements are reported in order, so an empty element before
            # the first out-of-range point is reported in its place
            if outside and owner[k] > empty:
                return "cover element %d is empty" % empty
            return ("cover element %d has out-of-range points" if outside else
                    "cover element %d has a point that is not an integer") % owner[k]

        pts = parse_points(chain.from_iterable(lists), n, error)
        rows = BoolRows.of_pairs(owner, pts, len(lists), n)
    sizes = rows.sizes
    if not sizes.all():
        raise InstanceError("cover element %d is empty" % sizes.argmin())
    if not rows.m:
        raise InstanceError("a cover needs at least one element")
    return rows


class Cover:
    """Indexed family of nonempty point subsets of one space.

    ``elements`` is an iterable of point-index iterables, the bool
    incidence matrix (elements x points) or a ``BoolRows`` of point lists.
    Element order is preserved; duplicate element sets are allowed (they
    can arise from star families) and only collapse when callers dedupe.
    """

    def __init__(self, space: Space, elements, name: str | None = None,
                 open_flag: bool = False):
        self.space = space
        self.rows = _incidence(space.n, elements)
        self.name = name
        self.open_flag = bool(open_flag)

    def __len__(self) -> int:
        return self.rows.m

    def __iter__(self):
        return iter(self.elements)

    @property
    def elements(self) -> tuple[frozenset[int], ...]:
        """The element sets in order, built on every call."""
        columns, bounds = self.rows.columns.tolist(), self.rows.starts.tolist()
        return tuple(frozenset(columns[lo:hi]) for lo, hi in zip(bounds, bounds[1:]))

    @property
    def matrix(self) -> np.ndarray:
        """The bool incidence matrix, elements x points, built on every call."""
        return self.rows.matrix

    @cached_property
    def holders(self) -> BoolRows:
        """Points x elements: row p lists the elements that hold p."""
        return self.rows.transpose()

    @cached_property
    def neighbours(self) -> BoolRows:
        """Points x points: row p is the union of the elements that hold p,
        so that st(A, u) = A | neighbours[A]."""
        return bool_product(self.holders, self.rows)

    def value_range(self, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The least and the greatest of a per-point vector over each element."""
        # elements are nonempty, so reduceat meets no empty segment
        per_entry, starts = values[self.rows.columns], self.rows.starts[:-1]
        return np.minimum.reduceat(per_entry, starts), np.maximum.reduceat(per_entry, starts)

    @property
    def runs(self):
        """On a line, the elements as runs of its sorted order
        (``Distances.runs_of``); None elsewhere, or when some element is
        not one run."""
        d = self.space.d
        return d.runs_of(self.rows) if d is not None and d.banded else None

    def element_set(self) -> frozenset[frozenset[int]]:
        return frozenset(self.elements)

    def is_scale(self) -> bool:
        runs = self.runs
        if runs is not None:
            return runs_span(runs, self.space.n)
        return bool(np.bincount(self.rows.columns, minlength=self.space.n).all())

    def labels(self) -> list[list[str]]:
        points = self.space.points
        columns, bounds = self.rows.columns.tolist(), self.rows.starts.tolist()
        return [[points[p] for p in columns[lo:hi]] for lo, hi in zip(bounds, bounds[1:])]

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


# -- stars ---------------------------------------------------------------------

def star_set(subset, cover: Cover) -> frozenset[int]:
    """st(A, u) = A together with every element of u meeting A: the elements
    are read from the holder lists of A's points."""
    idx = parse_points(subset, cover.space.n, "a star is taken of a set of point indices")
    star = cover.rows.union(np.flatnonzero(cover.holders.union(idx)))
    star[idx] = True
    return frozenset(np.flatnonzero(star).tolist())


def star_family(u: Cover, v: Cover) -> Cover:
    """st(u, v): one element st(U, v) per element U of u, order preserved.
    When the elements of both are runs of a line, so are the stars
    (``run_stars``); otherwise they come from the relation kernel."""
    if u.space is not v.space:
        raise InstanceError("covers live on different spaces")
    if (runs := u.runs) is not None and (within := v.runs) is not None:
        return Cover(u.space, RunRows(u.space.d, *run_stars(runs, within)))
    words = product_words(u.rows, v.neighbours) | u.rows.words
    return Cover(u.space, BoolRows.of_words(words, u.space.n))


def refines(u: Cover, v: Cover) -> bool:
    """Every element of u is contained in some element of v.  An element
    larger than every element of v fits in none, which decides without the
    relation product; so do the ends of elements that are runs of a line
    (``runs_inside``)."""
    if u.space is not v.space:
        raise InstanceError("covers live on different spaces")
    if u.rows.sizes.max() > v.rows.sizes.max():
        return False
    if (runs := u.runs) is not None and (within := v.runs) is not None:
        return runs_inside(runs, within)
    return bool_covered(u.rows, v.holders)


def smaller_or_equal(u: Cover, v: Cover) -> bool:
    """st(u, u) refines v; the strictness clause is dropped."""
    return refines(star_family(u, u), v)


def is_smaller(u: Cover, v: Cover) -> bool:
    """st(u, u) refines v and the covers differ as element sets."""
    return smaller_or_equal(u, v) and u.element_set() != v.element_set()


def trivial_extension(family: Cover, space: Space | None = None) -> Cover:
    """The family together with every singleton, the minimal scale above it."""
    space = space or family.space
    rows = BoolRows.stack([family.rows, BoolRows.identity(family.space.n)])
    return Cover(space, rows, name=(family.name or "family") + "+singletons")


# -- value spread over elements ------------------------------------------------

def real_line(values) -> np.ndarray | None:
    """The values as floats when each point carries one finite number with
    zero imaginary part, else None.  On such values the widest gap inside a
    set is its greatest value less its least, bit for bit: float
    subtraction is monotone in each operand, and the abs of a complex gap
    with zero imaginary part is that of its real part."""
    values = np.asarray(values, dtype=complex)
    if values.ndim != 1 or not np.isfinite(values).all() or values.imag.any():
        return None
    return values.real


def element_diameters(f: np.ndarray, cover: Cover) -> np.ndarray:
    """Greatest value gap inside each element; values that are vectors (one
    row per point) are compared in the sum norm.  Real values (``real_line``)
    take it from each element's least and greatest value, other values from
    the pairs inside each element."""
    line = real_line(f)
    if line is not None:
        lo, hi = cover.value_range(line)
        with np.errstate(over="ignore"):  # a gap past the largest float is inf
            return hi - lo
    f = np.asarray(f, dtype=complex)
    starts = cover.rows.starts
    # per entry, its widest gap to a later point of its element; a chunk
    # holds every pair of the entries it reaches
    widest = np.zeros(starts[-1])
    for t, _, gap in pair_stream(cover.rows, f):
        first = np.flatnonzero(np.r_[True, t[1:] != t[:-1]])
        widest[t[first]] = np.maximum.reduceat(gap, first)
    # cover elements are nonempty, so reduceat meets no empty segment
    return np.maximum.reduceat(widest, starts[:-1])


def fine_scales(values, base: ScaleBase, eps_grid) -> tuple[list, float | None]:
    """For each eps, the first base scale whose elements all spread at most
    eps (``element_diameters``), as {"eps", "cover"} records.  Stops at the
    first eps that no scale meets and returns it too; None when all are met.
    """
    covers = base_members(base, "a scale base needs at least one cover")
    grid = positive_grid(eps_grid, "eps grid")
    widest = [(cov.name, element_diameters(values, cov).max()) for cov in covers]
    found = []
    for e in grid:
        hit = first(widest, lambda w: w <= e)
        if hit is None:
            return found, e
        found.append({"eps": e, "cover": hit})
    return found, None


# -- base checks -----------------------------------------------------------------
#
# Every base check, on covers, on entourages or on translate covers, is one
# scan: the first flawed member fails the base; otherwise each cell (a pair of
# members, or one member) names its first passing candidate, and the first cell
# without one fails the base.

def base_members(base, empty_message: str) -> tuple:
    """The members of a base (a ``ScaleBase`` or any iterable of covers or
    entourages), checked to be nonempty and to share one space, which is a
    ``ScaleBase``'s own."""
    members = tuple(base)
    if not members:
        raise InstanceError(empty_message)
    if any(m.space is not members[0].space for m in members):
        raise InstanceError("base members live on different spaces")
    if isinstance(base, ScaleBase) and members[0].space is not base.space:
        raise InstanceError("base members do not live on the base's space")
    return members


def first(items, test):
    """The label of the first (label, candidate) pair whose candidate passes
    ``test``, or None; no candidate after it is tested."""
    return next((label for label, item in items if test(item)), None)


def base_report(name: str, space: Space, flaws, cells, notes=(),
                partial: bool = False) -> CheckReport:
    """The report of a base check.  ``flaws`` yields a counterexample per
    flawed member, ``cells`` yields (label, key, found, counterexample) with
    ``found`` the first passing candidate or None; both are read lazily and
    the first flaw, else the first cell found None, fails the check.  Each
    cell that passes gives one witness: its label with ``key`` set to the
    candidate.  A failing check keeps the witnesses of the cells before the
    failing one when ``partial``, else none; a flaw leaves none."""
    failure = next(iter(flaws), None)
    witnesses = []
    if failure is None:
        for label, key, found, counterexample in cells:
            if found is None:
                failure = counterexample
                if not partial:
                    witnesses = []
                break
            witnesses.append({**label, key: found})
    return CheckReport(name, failure is None, witnesses=tuple(witnesses),
                       counterexample=failure, notes=tuple(notes),
                       truncation=truncation_label(space))


def check_ss_base(base) -> CheckReport:
    """Downward directedness for a small-scale base.

    For each pair of base covers there must be a base cover whose star family
    refines both.  Scales must cover the space.
    """
    covers = base_members(base, "a scale base needs at least one cover")
    non_scale = ({"non_scale": k} for k, u in enumerate(covers) if not u.is_scale())

    def cells():
        stars = [star_family(w, w) for w in covers]
        table = [[refines(st, u) for u in covers] for st in stars]
        for i, j in combinations_with_replacement(range(len(covers)), 2):
            yield ({"pair": [i, j]}, "star_refiner",
                   first(enumerate(table), lambda row: row[i] and row[j]),
                   {"pair": [i, j], "reason": "no common star refiner"})

    return base_report("check_ss_base", covers[0].space, non_scale, cells())


def check_ls_base(base) -> CheckReport:
    """Directedness for a large-scale base.

    For each ordered pair (u, v) some base cover must coarsen st(u, v).
    """
    covers = base_members(base, "a scale base needs at least one cover")
    non_scale = ({"non_scale": k} for k, u in enumerate(covers) if not u.is_scale())
    cells = (({"pair": [i, j]}, "coarsening",
              first(enumerate(covers), partial(refines, star_family(u, v))),
              {"pair": [i, j], "reason": "no base cover coarsens st(u, v)"})
             for (i, u), (j, v) in product(enumerate(covers), repeat=2))
    return base_report("check_ls_base", covers[0].space, non_scale, cells)


def is_hausdorff(base) -> CheckReport:
    """Some base scale separates every pair: no element contains both points."""
    covers = base_members(base, "a scale base needs at least one cover")
    space = covers[0].space
    together = BoolRows.of_words(reduce(np.bitwise_and, (u.neighbours.words for u in covers)),
                                 space.n)
    owners = together.owners()
    apart = np.flatnonzero(together.columns != owners)
    if apart.size:
        x, y = int(owners[apart[0]]), int(together.columns[apart[0]])
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
    if len(phi.index) != len(u):
        raise InstanceError("index set of the partition does not match the cover")
    return all(s <= e for s, e in zip(phi.supports(), u.elements))
