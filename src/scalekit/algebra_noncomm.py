"""Sparse operators on a finite carrier and the structures they induce.

An operator is stored by columns: entry (x, y) is the amplitude of the basis
vector at y inside the image of the basis vector at x.  Support entourages,
chain-boundedness of covers against an operator family, and the ball scales
of the column pseudometric all live here, together with the partition of
unity constructions that feed operators back into scale language.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import cached_property, partial
from itertools import chain
from types import MappingProxyType

import numpy as np

from .entourages import Entourage, compose
from .metric import ball_ladder, sup_diameter
from .model import (WORD, BoolRows, InstanceError, Space, distinct_first, distinct_sorted,
                    fmt_value, packed_union, parse_points, real_value, unpack_rows,
                    whole_size)
from .reports import CheckReport, truncation_label
from .scales import (Cover, PartitionOfUnity, ScaleBase, fine_scales, first, pou_support,
                     refines, smaller_or_equal, star_family)


def _positions(error: str):
    """The error of an entry position: ``error``, or the carrier's own for
    an integer past int64."""
    return lambda k, outside: ("an entry position lies outside the carrier"
                               if outside else error)


def _numbers(values: list, error: str, dtype=complex) -> np.ndarray:
    """Numbers (real ones for a float dtype; not bools or strings) as an
    array of ``dtype``; raises ``error`` otherwise."""
    kind = numbers.Real if dtype is float else numbers.Number
    if any(t is bool or not issubclass(t, kind) for t in set(map(type, values))):
        raise InstanceError(error)
    try:
        return np.fromiter(values, dtype=dtype, count=len(values))
    except OverflowError as exc:
        raise InstanceError("an entry value is not finite") from exc


def _product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a * b entrywise with Python's complex arithmetic: numpy's vectorised
    complex multiply may fuse a multiply-add and round differently."""
    out = np.empty(a.shape, dtype=complex)
    out.real = a.real * b.real - a.imag * b.imag
    out.imag = a.real * b.imag + a.imag * b.real
    return out


def _sums(keys: np.ndarray, terms: np.ndarray):
    """The distinct keys in order, the sum of each key's terms added in the
    order given (as a dict that accumulates them would), and the index of
    each key's first term."""
    uniq, first, inv = distinct_first(keys)
    out = np.empty(uniq.size, dtype=complex)
    out.real = np.bincount(inv, weights=terms.real, minlength=uniq.size)
    out.imag = np.bincount(inv, weights=terms.imag, minlength=uniq.size)
    return uniq, out, first


class OperatorMatrix:
    """Sparse operator: entry (x, y) is the coefficient of delta_y in the
    image of delta_x.  Stored as coordinate arrays ``x``, ``y`` (int64) and
    ``val`` (complex128), sorted by (x, y), one per position, without zeros.

    ``entries`` is a dict {(x, y): value} of integer positions and numeric
    values; ``from_triplets`` takes [row, col, re, im] rows.
    """

    def __init__(self, space: Space, entries: dict, name: str = "a"):
        keys = list(entries)
        if (not all(issubclass(t, tuple) for t in set(map(type, keys)))
                or not set(map(len, keys)) <= {2}):
            raise InstanceError("operator entries are keyed by (x, y) pairs")
        flat = parse_points(chain.from_iterable(keys), None,
                             _positions("entry positions must be integers"))
        vals = _numbers(list(entries.values()), "entry values must be numbers")
        self._checked(space, flat[0::2], flat[1::2], vals, name, obj=self)

    @classmethod
    def from_triplets(cls, space: Space, triplets, name: str = "a") -> "OperatorMatrix":
        """Rows of [row, col, re, im]; repeated positions accumulate."""
        error = "triplet rows are [row, col, re, im] numbers"
        try:
            rows = list(map(tuple, triplets))
        except TypeError as exc:
            raise InstanceError(error) from exc
        if not set(map(len, rows)) <= {4}:
            raise InstanceError(error)
        ys, xs, res, ims = map(list, zip(*rows)) if rows else ([],) * 4
        y = parse_points(ys, None, _positions(error))
        x = parse_points(xs, None, _positions(error))
        val = np.empty(x.size, dtype=complex)
        val.real = _numbers(res, error, float)
        val.imag = _numbers(ims, error, float)
        n = space.n
        inside = (x >= 0) & (x < n) & (y >= 0) & (y < n)
        # a position outside the carrier keeps a key of its own
        keys = np.where(inside, x * n + y, -1 - np.arange(x.size))
        _, sums, first = _sums(keys, val)
        # checked in the order of their first rows, as a dict would hold them
        order = np.argsort(first)
        at = first[order]
        return cls._checked(space, x[at], y[at], sums[order], name)

    @classmethod
    def _checked(cls, space, x, y, val, name, obj=None):
        """Store distinct positions after checking them in the order given."""
        n = space.n
        outside = (x < 0) | (x >= n) | (y < 0) | (y >= n)
        bad = outside | ~np.isfinite(val)
        if bad.any():
            k = int(np.argmax(bad))
            text = ("entry (%d, %d) outside the carrier" if outside[k]
                    else "non-finite entry at (%d, %d)")
            raise InstanceError(text % (x[k], y[k]))
        return cls._stored(space, x, y, val, name, obj)

    @classmethod
    def _stored(cls, space, x, y, val, name, obj=None):
        """An operator of distinct, valid positions, sorted and without
        zeros; fills ``obj`` when given."""
        keep = val != 0
        order = np.argsort(x[keep] * space.n + y[keep], kind="stable")
        obj = object.__new__(cls) if obj is None else obj
        obj.space, obj.name = space, name
        obj.x, obj.y, obj.val = x[keep][order], y[keep][order], val[keep][order]
        return obj

    @cached_property
    def entries(self):
        """Read-only {(x, y): value} view of the stored entries, built on
        first use."""
        return MappingProxyType(dict(zip(zip(self.x.tolist(), self.y.tolist()),
                                         self.val.tolist())))

    @property
    def nnz(self) -> int:
        return int(self.val.size)

    def entry(self, x: int, y: int) -> complex:
        n = self.space.n
        if not (0 <= x < n and 0 <= y < n):
            return 0j
        key = x * n + y
        keys = self.x * n + self.y
        k = int(np.searchsorted(keys, key))
        return complex(self.val[k]) if k < keys.size and keys[k] == key else 0j

    def adjoint(self) -> "OperatorMatrix":
        return self._stored(self.space, self.y, self.x, self.val.conj(),
                            "%s*" % self.name)

    def __matmul__(self, other: "OperatorMatrix") -> "OperatorMatrix":
        """self @ other applies other first."""
        if other.space is not self.space:
            raise InstanceError("operators live on different spaces")
        n = self.space.n
        # self's entries (z, y) grouped by z, met by other's entries (x, z);
        # the terms of each (x, y) come in ascending z, as other's do
        starts = np.searchsorted(self.x, np.arange(n + 1))
        count = starts[other.y + 1] - starts[other.y]
        left = np.repeat(np.arange(other.nnz), count)
        right = (np.repeat(starts[other.y] - np.cumsum(count) + count, count)
                 + np.arange(left.size))
        keys, sums, _ = _sums(other.x[left] * n + self.y[right],
                           _product(other.val[left], self.val[right]))
        return self._stored(self.space, keys // n, keys % n, sums,
                            "%s%s" % (self.name, other.name))

    def dense(self) -> np.ndarray:
        m = np.zeros((self.space.n, self.space.n), dtype=complex)
        m[self.y, self.x] = self.val
        return m

    def apply(self, vec: np.ndarray) -> np.ndarray:
        vec = np.asarray(vec, dtype=complex)
        terms = _product(self.val, vec[self.x])
        n = self.space.n
        out = np.empty(n, dtype=complex)
        out.real = np.bincount(self.y, weights=terms.real, minlength=n)
        out.imag = np.bincount(self.y, weights=terms.imag, minlength=n)
        return out

    def same_entries(self, other: "OperatorMatrix") -> bool:
        return (np.array_equal(self.x, other.x) and np.array_equal(self.y, other.y)
                and np.array_equal(self.val, other.val))

    def __repr__(self):
        return "OperatorMatrix(%s, %d entries)" % (self.name, self.nnz)


def operator_norm(a: OperatorMatrix, tol: float = 1e-6, max_iter: int = 500) -> float:
    """Largest singular value by power iteration on a* a with a fixed start,
    applying a and then a* sparsely.

    Reported alongside structural verdicts; never used to decide one.
    """
    tol = real_value(tol, "tolerance")
    if math.isnan(tol):
        raise InstanceError("tolerance is not a number")
    if tol < 0:
        raise InstanceError("tolerance must be nonnegative")
    max_iter = whole_size(max_iter, "iteration cap")
    if max_iter < 1:
        raise InstanceError("iteration cap must be at least one")
    adj = a.adjoint()
    rng = np.random.default_rng(20240117)
    v = rng.standard_normal(a.space.n) + 1j * rng.standard_normal(a.space.n)
    v /= np.linalg.norm(v)
    last = 0.0
    for _ in range(max_iter):
        w = adj.apply(a.apply(v))
        norm = float(np.linalg.norm(w))
        if norm == 0:
            return 0.0
        v = w / norm
        if abs(norm - last) <= tol * max(1.0, norm):
            last = norm
            break
        last = norm
    return float(np.sqrt(last))


def support_entourage(a: OperatorMatrix, tau: float = 0.0) -> Entourage:
    """Pairs where the modulus of the entry clears tau, plus the diagonal."""
    tau = real_value(tau, "threshold")
    if math.isnan(tau):
        raise InstanceError("threshold is not a number")
    if tau < 0:
        raise InstanceError("threshold must be nonnegative")
    n = a.space.n
    keep = np.abs(a.val) > tau
    return Entourage(a.space, BoolRows.of_pairs(np.concatenate([np.arange(n), a.x[keep]]),
                                                np.concatenate([np.arange(n), a.y[keep]]), n, n))


def orientation_check(a: OperatorMatrix, b: OperatorMatrix) -> bool:
    """supp(a @ b) inside compose(supp(b), supp(a)); pins the conventions."""
    return support_entourage(a @ b).issubset(
        compose(support_entourage(b), support_entourage(a)))


@dataclass(eq=False)
class StarFamily:
    """Finite operator family meant to be closed under adjoints."""

    space: Space
    names: tuple
    ops: tuple

    def __post_init__(self):
        self.names = tuple(str(s) for s in self.names)
        self.ops = tuple(self.ops)
        if len(self.names) != len(self.ops) or not self.ops:
            raise InstanceError("names and operators must match and be nonempty")
        if len(set(self.names)) != len(self.names):
            raise InstanceError("duplicate operator names")
        for op in self.ops:
            if op.space is not self.space:
                raise InstanceError("family members live on different spaces")

    def __len__(self) -> int:
        return len(self.ops)

    @cached_property
    def adjoint_closed(self) -> bool:
        """Whether each member's adjoint has the entries of some member;
        worked out once, as the members never change."""
        return all(any(op.adjoint().same_entries(q) for q in self.ops)
                   for op in self.ops)

    def with_adjoints(self) -> "StarFamily":
        """The family with each member's adjoint appended when no member
        has its entries.  The result is adjoint closed, which it states:
        every member's adjoint is a member or appended, and an appended
        adjoint's adjoint is its member."""
        names = list(self.names)
        ops = list(self.ops)
        for nm, op in zip(self.names, self.ops):
            adj = op.adjoint()
            if not any(adj.same_entries(q) for q in ops):
                names.append("%s*" % nm)
                ops.append(adj)
        out = StarFamily(self.space, tuple(names), tuple(ops))
        out.adjoint_closed = True
        return out


def _step_relation(fam: StarFamily):
    """Directed one-step reachability, entries of modulus at least one in
    some member: the distinct steps (x, y), sorted."""
    n = fam.space.n
    strong = [np.abs(op.val) >= 1.0 for op in fam.ops]
    keys = distinct_sorted(np.concatenate([op.x[s] * n + op.y[s]
                                           for op, s in zip(fam.ops, strong)]))
    return keys // n, keys % n


def _chain_budget(n_max) -> int:
    """A chain budget as a plain int of at least one point."""
    n_max = whole_size(n_max, "chain budget")
    if n_max < 1:
        raise InstanceError("chain budget must be at least one point")
    return n_max


def _reach(step: np.ndarray, start: np.ndarray, stop: np.ndarray) -> np.ndarray:
    """For each start, the least k with step^k(start) >= stop, or -1 when
    there is none, where step(p) >= p and step never decreases.  Then
    step^k(start) never decreases in k and a stalled k stalls for good, so
    doubling finds k: step^(2^j) for each j up to the widest stop - start,
    then from the highest j down a jump is taken while it stays short of
    stop."""
    levels = int((stop - start).max(initial=0)).bit_length()
    jumps = [step]
    for _ in range(1, levels):
        jumps.append(jumps[-1][jumps[-1]])
    at, k = start, np.zeros(start.size, dtype=np.int64)
    for j in range(levels - 1, -1, -1):
        to = jumps[j][at]
        short = to < stop
        at = np.where(short, to, at)
        k += short.astype(np.int64) << j
    return np.where(at >= stop, 0, np.where(step[at] >= stop, k + 1, -1))


def _band_hops(cover: Cover, sx: np.ndarray, sy: np.ndarray):
    """The most hops that a chain between two points of one element needs,
    decided from run ends, or None where they do not settle it.

    They do when the space is a product (``Distances.product``) and every
    element a box (``Cover.runs``); when each step other than a self-step
    moves one line, and the steps are the product of a relation on each
    line with every tuple of the other lines' positions; and when on the
    lines each position and its targets make one run [a, b] whose ends
    never decrease along the positions.  Inside a box a chain then moves
    the lines independently, so the longest chain sums each line's longest;
    on a line the positions within k hops of p make a run, which grows
    right to b^k and left to a^k (clipped to the element's run), so its
    longest chain goes from one end of the run to the other.  An element
    whose ends stall holds two points that no chain joins."""
    runs = cover.runs
    if runs is None:
        return None
    _, offsets, places, _ = cover.space.d.product
    total = int(offsets[-1])
    move = sx != sy
    sx, sy = sx[move], sy[move]
    moved = places[:, sx] != places[:, sy]
    if len(places) > 1 and (moved.sum(axis=0) != 1).any():
        return None
    line = moved.argmax(axis=0)
    p, q = np.divmod(distinct_sorted(places[line, sx] * total + places[line, sy]), total)
    # each pair of positions stands for at most one step per tuple of the
    # other lines' positions, so the steps are all of those iff they count
    # as many
    per_pair = cover.space.n // np.diff(offsets)
    if per_pair[offsets.searchsorted(p, "right") - 1].sum() != sx.size:
        return None
    first = p.searchsorted(np.arange(total + 1))
    count = np.diff(first)
    held = np.flatnonzero(count)
    a, b = np.arange(total), np.arange(total)
    a[held] = np.minimum(held, q[first[held]])
    b[held] = np.maximum(held, q[first[held + 1] - 1])
    if ((b - a != count).any() or (a[1:] < a[:-1]).any()
            or (b[1:] < b[:-1]).any()):
        return None
    # rightwards from each run's start to its last position, and leftwards
    # in reversed positions laid after those, where a reads as a step that
    # never decreases: 2 total - 1 - a(p) at 2 total - 1 - p
    lo, hi = runs.lo.ravel(), runs.hi.ravel() - 1
    far = 2 * total - 1
    hops = _reach(np.concatenate((b, far - a[::-1])), np.concatenate((lo, far - hi)),
                  np.concatenate((hi, far - lo)))
    if (hops < 0).any():
        return None
    return int(np.maximum(*hops.reshape(2, *runs.lo.shape)).sum(axis=0).max())


def _chain_search(cover: Cover, sx: np.ndarray, sy: np.ndarray):
    """The most hops that a chain between two points of one element needs,
    by breadth-first search, and None; or None and the first (element,
    source, destination) in row-major order that no chain joins, as the
    element's index and two point indices.

    Every (element, source) pair gets one row of bits over the element's
    points, in packed words; all rows take their breadth-first hops
    together, each hop ORing the step rows of the frontier's points."""
    n = cover.space.n
    # one row per entry of the cover: element e, its point p, its place in e
    points, starts = cover.rows.columns, cover.rows.starts
    sizes = np.diff(starts)
    element = np.repeat(np.arange(sizes.size), sizes)
    place = np.arange(points.size) - starts[element]
    width = -(-int(sizes.max()) // 64)
    # the steps p -> q of each entry that stay inside its element, as bits
    out_from = np.searchsorted(sx, np.arange(n + 1))
    count = np.diff(out_from)[points]
    row = np.repeat(np.arange(points.size), count)
    q = sy[np.repeat(out_from[points] - np.cumsum(count) + count, count)
           + np.arange(row.size)]
    key = element.astype(np.int64) * n + points
    want = element[row] * n + q
    at = np.minimum(np.searchsorted(key, want), key.size - 1)
    inside = key[at] == want
    bit = np.left_shift(np.uint64(1), (place & 63).astype(np.uint64))
    steps = np.zeros((points.size, width), dtype=WORD)
    np.bitwise_or.at(steps, (row[inside], place[at[inside]] >> 6), bit[at[inside]])
    # breadth-first search from every entry at once; ``live`` holds the rows
    # whose frontier grew on the last hop
    seen = np.zeros_like(steps)
    seen[np.arange(points.size), place >> 6] = bit
    live, frontier = np.arange(points.size), seen.copy()
    base = starts[element]
    hops = 0
    while True:
        # the frontier's points: its nonzero words, then their set bits (flat
        # indices, which numpy finds far faster than 2-d ones)
        words = np.flatnonzero(frontier)
        bits = np.flatnonzero(np.unpackbits(frontier.ravel()[words].view(np.uint8),
                                            bitorder="little").view(bool))
        at, w = np.divmod(words[bits >> 6], width)
        frontier = packed_union(base[live[at]] + 64 * w + (bits & 63),
                                np.searchsorted(at, np.arange(live.size + 1)), steps)
        frontier &= ~seen[live]
        grew = frontier.any(axis=1)
        if not grew.any():
            break
        hops += 1
        live, frontier = live[grew], frontier[grew]
        seen[live] |= frontier
    short = np.flatnonzero(np.bitwise_count(seen).sum(axis=1) < sizes[element])
    if not short.size:
        return hops, None
    t = int(short[0])
    e = int(element[t])
    missing = int(np.argmin(unpack_rows(seen[t:t + 1], int(sizes[e]))[0]))
    return None, (e, int(points[t]), int(points[starts[e] + missing]))


def f_bounded(cover: Cover, fam: StarFamily, n_max: int) -> CheckReport:
    """Chain-boundedness of a cover against an operator family.

    Any two points of an element must be joined, inside the element, by a
    chain of at most n_max points whose consecutive pairs carry an entry of
    modulus at least one in some family member.  Reports the least such n.

    The chain length comes from the ends of the elements' runs where the
    cover and the steps allow it (``_band_hops``), and from a breadth-first
    search otherwise (``_chain_search``).
    """
    n_max = _chain_budget(n_max)
    space = cover.space
    notes = ()
    if not fam.adjoint_closed:
        notes = ("family is not adjoint closed: chains are one-way",)
    sx, sy = _step_relation(fam)
    hops = _band_hops(cover, sx, sy)
    missing = None
    if hops is None:
        hops, missing = _chain_search(cover, sx, sy)
    if missing is not None:
        e, p, q = missing
        return CheckReport(
            "f_bounded", False,
            counterexample={"element": cover.labels()[e],
                            "pair": [space.points[p], space.points[q]],
                            "reason": "no chain inside the element"},
            notes=notes, truncation=truncation_label(space))
    worst = hops + 1
    status = worst <= n_max
    cx = None if status else {"n": worst, "budget": n_max,
                              "reason": "chains need more points than allowed"}
    return CheckReport("f_bounded", status,
                       witnesses=({"n": worst, "budget": n_max},),
                       counterexample=cx, notes=notes,
                       truncation=truncation_label(space))


def _monomials(fam: StarFamily, degree: int):
    """All products of up to `degree` factors from the family and its
    adjoints, deduplicated by entries, deterministic order."""
    base = fam.with_adjoints()
    out = list(base.ops)
    names = list(base.names)
    level = list(zip(base.names, base.ops))
    for _ in range(degree - 1):
        nxt = []
        for nm_a, a in level:
            for nm_b, b in zip(base.names, base.ops):
                p = a @ b
                if not p.nnz:
                    continue
                if any(p.same_entries(q) for q in out):
                    continue
                nm = "%s%s" % (nm_a, nm_b)
                out.append(p)
                names.append(nm)
                nxt.append((nm, p))
        level = nxt
    return StarFamily(fam.space, tuple(names), tuple(out))


def ls_from_algebra(cover: Cover, gens: StarFamily, degree: int,
                    n_max: int) -> CheckReport:
    """Membership of a cover in the chain structure of the generated algebra,
    cut at a monomial degree.

    Chain-boundedness grows with the family, so the full monomial family at
    the cap decides everything the cap can see.
    """
    degree, n_max = whole_size(degree, "degree cap"), _chain_budget(n_max)
    if degree < 1:
        raise InstanceError("degree cap must be at least one")
    full = _monomials(gens, degree)
    rep = f_bounded(cover, full, n_max)
    wit = dict(rep.witnesses[0]) if rep.witnesses else {}
    wit.update({"degree_cap": degree, "monomials": len(full)})
    return CheckReport("ls_from_algebra", rep.status, witnesses=(wit,),
                       counterexample=rep.counterexample,
                       notes=rep.notes + ("verdict relative to the degree cap",),
                       truncation=truncation_label(cover.space))


def column_pseudometric(a: OperatorMatrix) -> np.ndarray:
    """d_a(x, y): euclidean distance between image columns.

    The squares are summed one row of the matrix at a time, ascending, as a
    sum over axis 0 adds them.  A row adds |m[r, x] - m[r, y]|^2 to every
    pair, but that is +0.0 unless x or y is a column of one of its entries,
    and adding +0.0 leaves a sum of squares as it is; so a row with entries
    in columns c only adds to the rows and columns c of the sum, in
    O(n * |c|) and without the dense matrix."""
    n = a.space.n
    sq = np.zeros((n, n))
    row = np.zeros(n, dtype=complex)
    order = np.lexsort((a.x, a.y))
    y, x, val = a.y[order], a.x[order], a.val[order]
    bounds = np.flatnonzero(np.diff(y)) + 1
    for c, v in zip(np.split(x, bounds), np.split(val, bounds)):
        row[c] = v
        terms = np.abs(v[:, None] - row[None, :]) ** 2
        sq[c] += terms
        # the pairs with y in c and x outside it; (x, y) with both in c was
        # added above
        terms[:, c] = 0.0
        sq[:, c] += terms.T
        row[c] = 0
    return np.sqrt(sq)


def ss_from_algebra(a: OperatorMatrix, eps_grid) -> ScaleBase:
    """Ball covers of the column pseudometric along a descending grid."""
    return ball_ladder(a.space, column_pseudometric(a), eps_grid, "small",
                       "d_%s-balls" % a.name)


def cstar_ss_membership(cover: Cover, fam: StarFamily, eps_grid) -> CheckReport:
    """Is the cover refined by some member's ball cover at some eps.

    A miss is only a miss for this family and grid; the report says so.
    """
    # the ball covers of each member are built only when the scan reaches it
    balls = (({"operator": nm, "balls": cov.name}, cov)
             for nm, op in zip(fam.names, fam.ops)
             for cov in ss_from_algebra(op, eps_grid).covers)
    hit = first(balls, partial(refines, cover))
    if hit is not None:
        return CheckReport("cstar_ss_membership", True, witnesses=(hit,),
                           truncation=truncation_label(cover.space))
    return CheckReport("cstar_ss_membership", False,
                       counterexample={"reason": "no member ball cover is "
                                                 "refined by the cover"},
                       notes=("relative to the family and the eps grid",),
                       truncation=truncation_label(cover.space))


def pou_to_operator(phi: PartitionOfUnity) -> OperatorMatrix:
    """Columns are the weight rows: the operator sends delta_x to phi(x).

    Needs the column labels to be point indices, as produced by the
    improvement step.
    """
    n = phi.space.n
    cols = parse_points(phi.index, n, lambda k, outside:
                         "column label %r is not a point index" % (phi.index[k],))
    # weights in row-major order, so each position adds its columns in order
    xs, js = np.nonzero(phi.weights > 0)
    keys, sums, _ = _sums(xs * n + cols[js],
                          phi.weights[xs, js].astype(complex))
    return OperatorMatrix._stored(phi.space, keys // n, keys % n, sums, "M_phi")


def pou_improve(phi: PartitionOfUnity, selection) -> tuple:
    """Merge columns onto selected points of their supports.

    selection[j] must be a point inside the support of column j.  The merged
    partition is indexed by the selected points; its supports are unions of
    old ones, and the union family provably refines the star family of the
    old supports.  Both facts are checked and reported.
    """
    pruned = phi.prune()
    sups = pruned.supports()
    sel = parse_points(selection, phi.space.n, "selection must be point indices").tolist()
    if len(sel) != len(pruned.index):
        raise InstanceError("one selected point per surviving column")
    for j, p in enumerate(sel):
        if p not in sups[j]:
            raise InstanceError("selected point %s outside support %d"
                                % (phi.space.points[p], j))
    targets = sorted(set(sel))
    w = np.zeros((phi.space.n, len(targets)))
    for j, p in enumerate(sel):
        w[:, targets.index(p)] += pruned.weights[:, j]
    psi = PartitionOfUnity(phi.space, w, tuple(targets))
    old_cover = Cover(phi.space, sups, name="pou-support")
    new_cover = pou_support(psi)
    elements = new_cover.elements
    coarsened = all(
        any(sups[j] <= t for t, p in zip(elements, psi.index)
            if p == sel[j])
        for j in range(len(sel)))
    starred = refines(new_cover, star_family(old_cover, old_cover))
    report = CheckReport("pou_improve", coarsened and starred,
                         witnesses=({"columns": len(sel),
                                     "merged": len(targets),
                                     "coarsens": coarsened,
                                     "refines_star": starred},),
                         truncation=truncation_label(phi.space))
    return psi, report


def chain_cover_operator(cover: Cover, centers=None) -> OperatorMatrix:
    """The tally operator of a cover: delta_y goes to one spike per element
    through y, placed at that element's center (least point by default)."""
    points, starts = cover.rows.columns, cover.rows.starts
    if centers is None:
        centers = points[starts[:-1]]
    centers = parse_points(centers, None, "centers must be point indices")
    if len(centers) != len(cover):
        raise InstanceError("one center per element")
    n = cover.space.n
    held = (centers >= 0) & (centers < n)
    held[held] = cover.rows.has(np.flatnonzero(held), centers[held])
    if not held.all():
        c = int(centers[np.argmin(held)])
        raise InstanceError("center %s outside its element"
                            % (cover.space.points[c] if 0 <= c < n else c))
    element = np.repeat(np.arange(len(cover)), np.diff(starts))
    keys, sums, _ = _sums(points.astype(np.int64) * n + centers[element],
                          np.ones(points.size, dtype=complex))
    return OperatorMatrix._stored(cover.space, keys // n, keys % n, sums, "T")


def roe_comparison_tests(cover: Cover, r: float, n_max: int = 3,
                         centers=None) -> CheckReport:
    """Metric smallness against chain smallness for one cover.

    Elements must fit the r-entourage; the tally operator and its adjoint
    then chain any element in few points, and the diameter is pinned under
    (n - 1) * r.  The operator norm and the covering multiplicity come along
    for the record.
    """
    space, n_max = cover.space, _chain_budget(n_max)
    if space.d is None:
        raise InstanceError("comparison needs a metric")
    top = sup_diameter(cover)
    if top > r:
        raise InstanceError("an element outgrows the r-entourage")
    t = chain_cover_operator(cover, centers)
    fam = StarFamily(space, ("T", "T*"), (t, t.adjoint()))
    rep = f_bounded(cover, fam, n_max)
    n = rep.witnesses[0]["n"] if rep.witnesses else n_max
    bound = (n - 1) * r
    holds = rep.status and top <= bound
    mult = int(np.bincount(cover.rows.columns, minlength=space.n).max())
    return CheckReport("roe_comparison", holds,
                       witnesses=({"n": n, "max_diam": fmt_value(top),
                                   "bound": fmt_value(bound),
                                   "norm": fmt_value(operator_norm(t)),
                                   "multiplicity": mult},),
                       counterexample=None if holds else rep.counterexample,
                       notes=("norm and multiplicity are informational",),
                       truncation=truncation_label(space))


def ssp_witness_check(phi: PartitionOfUnity, base: ScaleBase, u: Cover,
                      eps_grid) -> CheckReport:
    """Small-scale continuity of the weight map plus support subordination.

    The weight rows must vary by at most eps in the sum norm along some base
    scale for each eps, and the support cover must be non-strictly smaller
    than the target cover.
    """
    witnesses, miss = fine_scales(phi.weights, base, eps_grid)
    if miss is not None:
        return CheckReport("ssp_witness", False, witnesses=tuple(witnesses),
                           counterexample={"eps": miss,
                                           "reason": "weight rows jump "
                                                     "past eps on every scale"},
                           truncation=truncation_label(phi.space))
    sub = smaller_or_equal(pou_support(phi), u)
    notes = () if sub else ("support cover is not smaller than the target",)
    return CheckReport("ssp_witness", sub,
                       witnesses=tuple(witnesses) + ({"supports_smaller": sub},),
                       notes=notes, truncation=truncation_label(phi.space))
