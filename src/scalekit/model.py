"""Finite filtered spaces.

Every verifier in this package runs on a ``Space``: a finite list of named
points, optionally carrying a pseudometric table and a filtration (a strictly
increasing chain of point sets standing in for an exhaustion by bounded sets).
Spaces are immutable after construction; all derived objects reference points
by load-order index so results are deterministic.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import cached_property

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


def real_value(v, what: str) -> float:
    """A real number as a float; a bool, a string or anything else that is
    not a real number is refused, with ``what`` naming it in the error."""
    if isinstance(v, bool) or not isinstance(v, numbers.Real):
        raise InstanceError("%s must be a real number, not %r" % (what, v))
    return float(v)


def positive_grid(values, what: str) -> tuple[float, ...]:
    """Values as floats, checked nonempty, real, finite and positive;
    ``what`` names the grid in the error.  Ordering rules stay with the
    caller."""
    try:
        values = tuple(values)
    except TypeError as exc:
        raise InstanceError("%s must be a list of numbers" % what) from exc
    vals = tuple(real_value(v, "each value of the %s" % what) for v in values)
    if not vals:
        raise InstanceError("%s needs at least one value" % what)
    if not all(math.isfinite(v) and v > 0 for v in vals):
        raise InstanceError("%s must be finite and positive" % what)
    return vals


def parse_points(values, n: int | None, error) -> np.ndarray:
    """Point indices as one int64 array, converted in one pass.

    ``values`` is a flat sequence of Python or numpy integers; a bool, a
    float, a string or a nested container is refused.  Given the carrier
    size ``n``, each index must lie in [0, n).  An integer past int64 lies
    outside every carrier and is refused with or without ``n``.  A refusal
    raises InstanceError with ``error``, or with ``error(k, outside)`` when
    it is a function: k is the position of the first refused value, and
    ``outside`` says that it is an integer out of range."""
    def refuse(k: int, outside: bool):
        raise InstanceError(error(k, outside) if callable(error) else error)

    if isinstance(values, np.ndarray) and values.ndim == 1 and values.dtype.kind in "iu":
        if values.dtype == np.uint64 and values.size and values.max() >= 2 ** 63:
            refuse(int(np.argmax(values >= 2 ** 63)), True)
        out = values.astype(np.int64)
    else:
        try:
            values = list(values)
        except TypeError:
            refuse(0, False)
        bad = {t for t in set(map(type, values))
               if t is bool or not issubclass(t, (int, np.integer))}
        if bad:
            refuse(next(k for k, v in enumerate(values) if type(v) in bad), False)
        try:
            out = np.fromiter(values, dtype=np.int64, count=len(values))
        except OverflowError:
            refuse(next(k for k, v in enumerate(values) if not -2 ** 63 <= v < 2 ** 63),
                   True)
    if n is not None:
        outside = (out < 0) | (out >= n)
        if outside.any():
            refuse(int(np.argmax(outside)), True)
    return out


_ORDERS = {"ascending": np.greater_equal, "descending": np.less_equal,
           "strictly descending": np.less}


def ordered_grid(values, what: str, order: str) -> tuple[float, ...]:
    """``positive_grid`` values that also run in one ``order``:
    "ascending" or "descending" (repeats allowed), or "strictly descending"."""
    vals = positive_grid(values, what)
    if not _ORDERS[order](vals[1:], vals[:-1]).all():
        raise InstanceError("%s must be %s" % (what, order))
    return vals


# -- the spread kernel: how far values, or a metric, spread over a point set --

def _gaps(diffs: np.ndarray, vectors: bool) -> np.ndarray:
    """|diffs|, summed over the last axis when each point carries a vector;
    in place for real values (the abs of a complex value changes dtype)."""
    gaps = np.abs(diffs, out=diffs) if np.isrealobj(diffs) else np.abs(diffs)
    return gaps.sum(axis=-1) if vectors else gaps


def gap_table(values: np.ndarray) -> np.ndarray:
    """|v(x) - v(y)| for every pair of a point set's values; when each point
    carries a vector (one row per point) the gap is the sum norm."""
    return _gaps(values[:, None] - values[None, :], values.ndim > 1)


def widest_pair(table: np.ndarray) -> tuple[float, int, int]:
    """The largest entry of a symmetric, zero-diagonal gap (or distance)
    table and the first row-major position attaining it, which has i < j (a
    zero maximum is taken at (0, 1)); (0.0, 0, 0) below two points."""
    if len(table) < 2:
        return 0.0, 0, 0
    k = int(table.argmax())
    i, j = divmod(k, len(table))
    gap = table.item(k)
    return (gap, i, j) if i < j else (gap, 0, 1)


def _max_gap_table(coords: np.ndarray) -> np.ndarray:
    """The largest coordinate gap for every pair of points, one axis at a
    time, so that only two n x n tables are held."""
    out = gap_table(coords[:, 0])
    for axis in coords.T[1:]:
        np.maximum(out, gap_table(axis), out=out)
    return out


# coordinate kind -> its metric on an array of coordinates (one row per point)
COORD_METRICS = {"line": gap_table, "grid": _max_gap_table}


# -- the relation kernel: bool relations as point lists --------------------
#
# A bool relation of m rows over n columns (a cover's elements x points, an
# entourage's points x points) is stored as point lists: the column of each
# true entry, row by row and ascending inside a row, and where each row
# begins in that list.  The other forms are derived from the lists: the
# transpose by one stable argsort, packed words by scatter, and a dense
# matrix only for a caller that needs one.  The kernel below writes its
# results as packed words, which such a relation keeps, with its row
# counts, and lists on first read: a dense result that is only tested or
# multiplied again on the BLAS path is never listed, and its words take a
# bit per entry where lists take 32.
#
# Row i of a product of relations a (m x k) and b (k x n) reduces the rows
# b[p] over the points p of row i of a: OR gives (a @ b) > 0, AND says for
# each j that every point of row i is related to j.  Two paths compute it.
# The packed path takes each row of b as ceil(n / 64) uint64 words, gathers
# them for the points of a and reduces them with reduceat: time ~ nnz(a) *
# ceil(n / 64), which wins on sparse bands such as ball covers.  The BLAS
# path counts in a float32 product, exact up to 2**24 points, of operands
# unpacked from packed rows: time ~ m * k * n, which wins on dense or small
# operands.  Both work through a in chunks of at most CHUNK_BYTES of
# gathered words or float32 rows (one row or entry at least), so that their
# working memory stays flat; the packed path writes its result as packed
# words, the BLAS path as a bool matrix.
# Each path is a generator that yields its result so far after every chunk,
# with the number of leading rows that are final, so that a caller that
# only asks whether every row holds a true entry can stop at the first
# chunk that completes a row that does not.

CHUNK_BYTES = 1 << 19
# pairs in one chunk of the pair stream below (more only when one entry has
# more pairs than this)
PAIR_CHUNK = 1 << 16
# Seconds per call, per gathered word and per multiply-add, fitted to both
# paths timed on fresh operands (2-vCPU Xeon, numpy 2.4.6, OpenBLAS 0.3.31
# on one thread): m = k = n from 8 to 2001, as bands of half-width 1 to 1000
# and at random densities 0.02 to 0.7, plus n x n by n x k with k of 10 and
# 100.  On those 80 cases the estimate takes the slower path 3 times, by at
# most 15%, and loses 1.7 ms of 0.76 s.  Each path also touches every entry
# of its operands and result about once, at a similar cost per entry, so
# that term is left out.
PACKED_CALL_S = 6.0e-5
PACKED_WORD_S = 3.6e-9
BLAS_MAC_S = 2.55e-11
WORD = np.dtype("<u8")


def _pack(m: np.ndarray) -> np.ndarray:
    """The rows of a bool matrix as little-endian uint64 words; the bits
    past the last column are zero."""
    bits = np.packbits(m, axis=1, bitorder="little")
    words = np.zeros((len(m), -(-m.shape[1] // 64) * 8), dtype=np.uint8)
    words[:, :bits.shape[1]] = bits
    return words.view(WORD)


def unpack_rows(words: np.ndarray, n: int) -> np.ndarray:
    """The first n bits of each row of packed words, as a bool matrix."""
    return np.unpackbits(words.view(np.uint8), axis=1, count=n,
                         bitorder="little").view(bool)


def distinct_sorted(keys: np.ndarray) -> np.ndarray:
    """The distinct values of an array, ascending: one sort and a mask of
    the values that differ from their predecessor."""
    keys = np.sort(keys)
    keep = np.ones(keys.size, dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=keep[1:])
    return keys[keep]


def _point_lists(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The columns (int32) and row starts of the entries of a 2-d bool
    matrix."""
    m, n = matrix.shape
    flat = matrix.ravel().nonzero()[0]
    starts = flat.searchsorted(np.arange(0, (m + 1) * n, n))
    return np.remainder(flat, n, out=flat).astype(np.int32), starts


def _stacked(lists) -> tuple[np.ndarray, np.ndarray]:
    """(columns, starts) pairs of relations over the same columns, one
    after another, as one pair."""
    if len(lists) == 1:
        return lists[0]
    offsets = np.cumsum([0] + [starts[-1] for _, starts in lists])
    return (np.concatenate([columns for columns, _ in lists]),
            np.concatenate([[0]] + [starts[1:] + o for (_, starts), o in zip(lists, offsets)]))


class BoolRows:
    """A read-only bool relation of m rows over n columns, as point lists:
    ``columns`` holds the column of each true entry, row by row and
    ascending inside a row, as int32, and row i is
    columns[starts[i]:starts[i + 1]] (``starts`` is int64, with the total
    at the end).  The packed words are derived from the lists and kept
    once built.  A relation that the kernel writes as packed words (see
    ``of_words``) keeps them, with its row counts, and lists its entries
    on first read."""

    def __init__(self, columns, starts, n: int):
        self.columns = np.asarray(columns, dtype=np.int32)
        self.starts = np.asarray(starts, dtype=np.int64)
        self.columns.setflags(write=False)
        self.starts.setflags(write=False)
        self.m, self.n = len(self.starts) - 1, n

    @classmethod
    def of_pairs(cls, rows: np.ndarray, columns: np.ndarray, m: int, n: int) -> "BoolRows":
        """The relation holding each (rows[t], columns[t]), in any order and
        with repeats."""
        keys = distinct_sorted(np.asarray(rows, dtype=np.int64) * n + columns)
        return cls(keys % n, keys.searchsorted(np.arange(0, (m + 1) * n, n)), n)

    @classmethod
    def of_matrix(cls, matrix: np.ndarray) -> "BoolRows":
        """The relation of a 2-d bool matrix."""
        return cls(*_point_lists(matrix), matrix.shape[1])

    @classmethod
    def of_words(cls, words: np.ndarray, n: int) -> "BoolRows":
        """The relation of packed rows of n bits, as ``words`` has them; it
        keeps ``words`` as its own, with each row's entry count, and lists
        its entries on first read."""
        rows = cls.__new__(cls)
        rows.m, rows.n = len(words), n
        words.setflags(write=False)
        rows.words = words
        rows.sizes = np.bitwise_count(words).sum(axis=1, dtype=np.int64)
        return rows

    @classmethod
    def stack(cls, parts) -> "BoolRows":
        """The rows of relations over the same columns, one after another."""
        if len(parts) == 1:
            return parts[0]
        return cls(*_stacked([(p.columns, p.starts) for p in parts]), parts[0].n)

    @classmethod
    def identity(cls, n: int) -> "BoolRows":
        return cls(np.arange(n), np.arange(n + 1), n)

    @cached_property
    def _lists(self) -> tuple[np.ndarray, np.ndarray]:
        """The point lists of a relation made from packed words, unpacked a
        block of rows, of at most CHUNK_BYTES bits, at a time."""
        step = max(1, CHUNK_BYTES // (64 * self.words.shape[1]))
        columns, starts = _stacked([_point_lists(self.dense(bool, lo, lo + step))
                                    for lo in range(0, max(1, self.m), step)])
        columns.setflags(write=False)
        starts.setflags(write=False)
        return columns, starts

    @cached_property
    def columns(self) -> np.ndarray:
        return self._lists[0]

    @cached_property
    def starts(self) -> np.ndarray:
        return self._lists[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self.m, self.n

    @property
    def nnz(self) -> int:
        return int(self.sizes.sum())

    def __eq__(self, other):
        if not isinstance(other, BoolRows):
            return NotImplemented
        return (self.n == other.n and np.array_equal(self.starts, other.starts)
                and np.array_equal(self.columns, other.columns))

    __hash__ = object.__hash__

    @cached_property
    def sizes(self) -> np.ndarray:
        """The number of entries of each row."""
        return self.starts[1:] - self.starts[:-1]

    def owners(self) -> np.ndarray:
        """The row of each entry, as int32."""
        return np.repeat(np.arange(self.m, dtype=np.int32), self.sizes)

    def row(self, i: int) -> np.ndarray:
        return self.columns[self.starts[i]:self.starts[i + 1]]

    def lists(self) -> list[np.ndarray]:
        """Every row's columns, as views."""
        return np.split(self.columns, self.starts[1:-1])

    def take(self, rows) -> "BoolRows":
        """The relation of the given rows, in the given order."""
        rows = np.asarray(rows, dtype=np.int64)
        sizes = self.sizes[rows]
        starts = np.zeros(rows.size + 1, dtype=np.int64)
        np.cumsum(sizes, out=starts[1:])
        at = np.repeat(self.starts[rows] - starts[:-1], sizes) + np.arange(starts[-1])
        return BoolRows(self.columns[at], starts, self.n)

    def union(self, rows) -> np.ndarray:
        """The union of the given rows, as a bool mask over the columns."""
        mask = np.zeros(self.n, dtype=bool)
        mask[self.take(rows).columns] = True
        return mask

    def transpose(self) -> "BoolRows":
        """Columns x rows, by one stable argsort of the columns, so that
        each row of the transpose lists its points ascending."""
        starts = np.zeros(self.n + 1, dtype=np.int64)
        np.cumsum(np.bincount(self.columns, minlength=self.n), out=starts[1:])
        order = np.argsort(self.columns, kind="stable")
        return BoolRows(self.owners()[order], starts, self.m)

    def has(self, rows, columns) -> np.ndarray:
        """Whether each (rows[t], columns[t]) is an entry, read bit by bit
        from the packed words."""
        columns = np.asarray(columns, dtype=np.int64)
        bits = self.words[rows, columns >> 6] >> (columns & 63).astype(np.uint64)
        return (bits & np.uint64(1)).astype(bool)

    def issubset(self, other: "BoolRows") -> bool:
        """Whether every entry is one of ``other``, of the same shape."""
        return not (self.words & ~other.words).any()

    @cached_property
    def words(self) -> np.ndarray:
        """The rows as little-endian uint64 words, bit j of row i set for an
        entry (i, j) and zero past the last column.  Built a block of rows,
        of at most CHUNK_BYTES bits, at a time: the block's entries are set
        in a bool block of whole words, which is packed."""
        m, bits = self.m, 64 * -(-self.n // 64)
        words = np.empty((m, bits // 64), dtype=WORD)
        step = max(1, CHUNK_BYTES // bits)
        for lo in range(0, m, step):
            hi = min(m, lo + step)
            block = np.zeros((hi - lo) * bits, dtype=bool)
            block[np.arange(0, (hi - lo) * bits, bits).repeat(self.sizes[lo:hi])
                  + self.columns[self.starts[lo]:self.starts[hi]]] = True
            words[lo:hi] = np.packbits(block, bitorder="little").view(WORD).reshape(hi - lo, -1)
        words.setflags(write=False)
        return words

    def dense(self, dtype=bool, lo: int = 0, hi: int | None = None) -> np.ndarray:
        """Rows lo to hi as a dense array, 1 at each entry, unpacked from
        the words."""
        return np.unpackbits(self.words[lo:hi].view(np.uint8), axis=1, count=self.n,
                             bitorder="little").astype(dtype)

    @property
    def matrix(self) -> np.ndarray:
        """The dense bool matrix, built on every call."""
        return self.dense()


def table_blocks(table: np.ndarray, test):
    """``test`` (a vectorised predicate) on a 2-d table, one block of rows
    of at most CHUNK_BYTES entries after another, so that no bool copy of
    the whole table is held."""
    step = max(1, CHUNK_BYTES // table.shape[1])
    for lo in range(0, len(table), step):
        yield test(table[lo:lo + step])


def rows_of_blocks(blocks, n: int) -> BoolRows:
    """The relation of bool blocks of n columns, read one after another,
    as packed words."""
    return BoolRows.of_words(np.concatenate([_pack(block) for block in blocks]), n)


def distinct_rows(blocks, n: int) -> BoolRows:
    """The distinct rows of bool blocks of n columns, read one after
    another, each row at its first occurrence; rows are told apart, and
    kept until the end, as their packed bits."""
    seen: dict = {}
    for block in blocks:
        seen.update(dict.fromkeys(map(bytes, _pack(block))))
    words = np.frombuffer(b"".join(seen), dtype=WORD).reshape(len(seen), -1)
    return BoolRows.of_words(words, n)


def _packed_cheaper(a: BoolRows, b: BoolRows) -> bool:
    """Whether the packed path is estimated faster than BLAS."""
    (m, k), n = a.shape, b.n
    blas = BLAS_MAC_S * m * k * n
    # below the packed path's fixed cost there is nothing to count
    return (blas > PACKED_CALL_S
            and PACKED_CALL_S + PACKED_WORD_S * a.nnz * -(-n // 64) < blas)


def _reduce_rows(columns: np.ndarray, starts: np.ndarray, words: np.ndarray,
                 ufunc, n: int):
    """The packed path: reduce with ``ufunc`` (bitwise OR or AND) the rows
    of ``words`` (packed rows of n bits) that each point list selects; the
    list of row i is columns[starts[i]:starts[i + 1]].  Yields the packed
    result after each chunk, with the number of leading rows that are
    final."""
    out = np.zeros((len(starts) - 1, words.shape[1]), dtype=WORD)
    if ufunc is np.bitwise_and:  # an empty row holds for every column
        out[:] = BoolRows(np.arange(n), [0, n], n).words
    step = max(1, CHUNK_BYTES // (8 * words.shape[1]))
    for lo in range(0, columns.size, step):
        hi = min(columns.size, lo + step)
        r0 = int(np.searchsorted(starts, lo, side="right")) - 1
        r1 = int(np.searchsorted(starts, hi, side="left"))
        # each row's entries in this chunk, at [begin, end) of the gather;
        # reduceat would return an element, not the identity, for an empty one
        begin = np.maximum(starts[r0:r1], lo) - lo
        held = np.minimum(starts[r0 + 1:r1 + 1], hi) - lo > begin
        rows = np.arange(r0, r1)[held]
        got = ufunc.reduceat(np.take(words, columns[lo:hi], axis=0), begin[held], axis=0)
        out[rows] = ufunc(out[rows], got)
        # the rows whose entries all lie before hi are final
        yield out, int(np.searchsorted(starts[1:], hi, side="right"))
    yield out, len(out)


def _counted(a: BoolRows, b: BoolRows, ufunc):
    """The BLAS path: count each row's related points in a float32 product;
    OR asks for one, AND for all of them.  Yields the result, a bool
    matrix, after each chunk of rows, with the number of rows done."""
    (m, k), n = a.shape, b.n
    b32 = b.dense(np.float32)
    out = np.empty((m, n), dtype=bool)
    step = max(1, CHUNK_BYTES // (4 * max(k, n, 1)))
    for lo in range(0, m, step):
        hi = min(m, lo + step)
        a32 = a.dense(np.float32, lo, hi)
        counts = a32 @ b32
        if ufunc is np.bitwise_and:
            np.equal(counts, a32.sum(axis=1)[:, None], out=out[lo:hi])
        else:
            np.greater(counts, 0, out=out[lo:hi])
        yield out, hi
    yield out, m


def _chunks(a: BoolRows, b: BoolRows, ufunc):
    """The chunks of the reduction along the cheaper path."""
    if _packed_cheaper(a, b):
        return _reduce_rows(a.columns, a.starts, b.words, ufunc, b.n)
    return _counted(a, b, ufunc)


def _final(chunks) -> np.ndarray:
    """The whole result of a path, in the path's own form."""
    for out, _ in chunks:
        pass
    return out


def packed_union(columns: np.ndarray, starts: np.ndarray, words: np.ndarray) -> np.ndarray:
    """Row i ORs the packed rows words[columns[starts[i]:starts[i + 1]]]: the
    packed path fed from point lists, its result left packed."""
    return _final(_reduce_rows(columns, starts, words, np.bitwise_or, 0))


def product_words(a: BoolRows, b: BoolRows) -> np.ndarray:
    """(a @ b) > 0 as packed rows (see ``BoolRows.words``)."""
    out = _final(_chunks(a, b, np.bitwise_or))
    return out if out.dtype == WORD else _pack(out)


def bool_product(a: BoolRows, b: BoolRows) -> BoolRows:
    """(a @ b) > 0: entry (i, j) says that some point p of row i of ``a``
    has b[p, j]."""
    return BoolRows.of_words(product_words(a, b), b.n)


def bool_covered(a: BoolRows, b: BoolRows) -> bool:
    """Whether every row of ``a`` lies inside some column of ``b``: some j
    has b[p, j] for every point p of the row.  Stops at the first chunk that
    completes a row inside no column."""
    done = 0
    for out, final in _chunks(a, b, np.bitwise_and):
        # packed rows have zero bits past the last column
        if not out[done:final].any(axis=1).all():
            return False
        done = final
    return True


# -- the pair stream: value gaps of the pairs inside each element -----------
#
# Entry t of a relation's point lists (``BoolRows.columns``) pairs with
# the entries after it in its row, so the pairs come in (row, x, y) order
# with x < y.  They are made in chunks of whole entries, which may split a
# row: a chunk holds at most PAIR_CHUNK pairs, so that working memory stays
# flat even inside one large element.

def entry_pairs(rows: BoolRows):
    """Chunks (t, u) of the pairs x < y inside each row of ``rows``: t and u
    are the entries of x and y in ``rows.columns``."""
    columns, starts = rows.columns, rows.starts
    # each entry's pair count, and the running total through it
    after = np.repeat(starts[1:], np.diff(starts)) - 1 - np.arange(columns.size)
    ends = np.cumsum(after)
    lo = 0
    while lo < columns.size:
        first = ends[lo] - after[lo]
        hi = max(lo + 1, int(np.searchsorted(ends, first + PAIR_CHUNK, "right")))
        count = after[lo:hi]
        if ends[hi - 1] > first:
            t = np.repeat(np.arange(lo, hi), count)
            u = t + 1 + np.arange(t.size) - np.repeat(ends[lo:hi] - count - first, count)
            yield t, u
        lo = hi


def pair_stream(rows: BoolRows, values: np.ndarray):
    """Chunks (t, u, gap) of ``entry_pairs``, with gap |values[x] - values[y]|,
    in the sum norm when each point carries a vector, as ``gap_table`` has
    it."""
    columns = rows.columns
    for t, u in entry_pairs(rows):
        # a chunk's entries run from its first t to its last u
        lo = t[0]
        v = values[columns[lo:u[-1] + 1]]
        yield t, u, _gaps(v[t - lo] - v[u - lo], values.ndim > 1)


@dataclass(frozen=True)
class Filtration:
    """Strictly increasing chain K_1 c K_2 c ... of declared-bounded windows."""

    levels: tuple[frozenset[int], ...]

    def __post_init__(self):
        if not self.levels:
            raise InstanceError("a filtration needs at least one level")
        prev = None
        for i, lv in enumerate(self.levels):
            if not lv:
                raise InstanceError("filtration level %d is empty" % (i + 1))
            if prev is not None and not (prev < lv):
                raise InstanceError(
                    "filtration levels must strictly increase: level %d does not "
                    "properly contain level %d" % (i + 1, i)
                )
            prev = lv

    def __len__(self) -> int:
        return len(self.levels)


class Space:
    """Finite point list with optional pseudometric and filtration.  A space
    of a coordinate kind ("line", "grid") derives its metric from ``coords``
    through ``COORD_METRICS``; any other space takes a distance table."""

    def __init__(self, points, metric=None, metric_kind=None, coords=None,
                 filtration=None, group_table=None):
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
        if metric_kind in COORD_METRICS:
            if metric is not None:
                raise InstanceError("a %s space derives its metric from coords"
                                    % metric_kind)
            coords_array = np.asarray(coords, dtype=float)
            if not np.isfinite(coords_array).all():
                raise InstanceError("%s coordinates must be finite" % metric_kind)
            # a fresh table, so it needs no copy; from finite coordinates it is
            # symmetric, nonnegative and zero on the diagonal by construction
            metric = COORD_METRICS[metric_kind](coords_array)
        elif metric is not None:
            metric = np.array(metric, dtype=float)
        if metric is not None:
            if metric.shape != (len(points), len(points)):
                raise InstanceError("metric table shape does not match point count")
            if metric_kind not in COORD_METRICS:
                self._check_pseudometric(metric)
            metric.setflags(write=False)
        self.d = metric
        if filtration is not None:
            if isinstance(filtration, Filtration):
                filtration = filtration.levels
            error = "filtration level %d has a point that is not an index of the space"
            filtration = Filtration(tuple(
                frozenset(parse_points(lv, len(points), error % (i + 1)).tolist())
                for i, lv in enumerate(filtration)))
        self.filtration = filtration

    @cached_property
    def triangle_ok(self) -> bool | None:
        """Whether the metric obeys the triangle inequality (None without
        one); coordinate metrics do by construction."""
        if self.d is None:
            return None
        return self.metric_kind in COORD_METRICS or self._triangle_holds(self.d)

    @cached_property
    def depth(self) -> np.ndarray:
        """The filtration as one read-only int vector: depth[p] is the index
        of the first level holding p, or the number of levels L for a point
        past the top (every point of an unfiltered space, where L = 0).  The
        levels form a chain, so a set fits the window of index j iff its
        greatest depth is at most j."""
        levels = () if self.filtration is None else self.filtration.levels
        depth = np.full(self.n, len(levels), dtype=np.int64)
        for j in reversed(range(len(levels))):
            depth[list(levels[j])] = j
        depth.setflags(write=False)
        return depth

    # -- structural checks -------------------------------------------------

    @staticmethod
    def _check_pseudometric(d: np.ndarray) -> None:
        if np.any(np.diag(d) != 0.0):
            k = int(np.flatnonzero(np.diag(d) != 0.0)[0])
            raise InstanceError("nonzero self-distance at point %d" % k)
        if np.any(d < 0):
            raise InstanceError("negative distance in metric table")
        asym = d != d.T
        if np.any(asym):
            i, j = map(int, np.argwhere(asym)[0])
            raise InstanceError("asymmetric metric at (%d,%d)" % (i, j))

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
        idx = parse_points(subset, self.n, "labels are taken of point indices")
        return tuple(self.points[i] for i in np.sort(idx).tolist())

    def distance(self, i: int, j: int) -> float:
        if self.d is None:
            raise InstanceError("space carries no metric")
        i, j = parse_points((i, j), self.n, "a distance is taken between point indices")
        return float(self.d[i, j])

    def diam(self, subset) -> float:
        """Largest pairwise distance inside ``subset`` (0 for <= 1 point)."""
        idx = np.sort(parse_points(subset, self.n, "a diameter is taken of point indices"))
        return widest_pair(self.d[np.ix_(idx, idx)])[0]

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

def whole_size(n, what: str) -> int:
    """A size given as an integer (of any width, but not a bool)."""
    if isinstance(n, bool) or not isinstance(n, numbers.Integral):
        raise InstanceError("%s must be an integer" % what)
    return int(n)


def builder_line(n: int, h: float) -> Space:
    """Points 0, h, ..., n*h on a line with the absolute-difference metric."""
    n = whole_size(n, "builder_line size")
    if (n < 0 or isinstance(h, bool) or not isinstance(h, numbers.Real)
            or not (math.isfinite(h) and h > 0)):
        raise InstanceError("builder_line needs n >= 0 and a finite h > 0")
    coords = tuple(i * h for i in range(n + 1))
    return Space([fmt_value(c) for c in coords], metric_kind="line", coords=coords)


def builder_grid(n: int) -> Space:
    """n x n integer grid under the max-coordinate-difference metric."""
    n = whole_size(n, "builder_grid size")
    if n < 1:
        raise InstanceError("builder_grid needs n >= 1")
    coords = tuple((i, j) for i in range(n) for j in range(n))
    return Space(["%d,%d" % c for c in coords], metric_kind="grid", coords=coords)


def check_group_table(table) -> tuple[tuple[tuple[int, ...], ...], int]:
    """A multiplication table as tuples of point indices, checked to be a
    Latin square with a two-sided identity, and that identity's index;
    ``table[g][h]`` is the index of g*h."""
    error = "multiplication table must be rows of point indices"
    try:
        table = tuple(tuple(parse_points(row, None, error).tolist()) for row in table)
    except TypeError as exc:
        raise InstanceError(error) from exc
    n = len(table)
    rng = set(range(n))
    for g, row in enumerate(table):
        if len(row) != n or set(row) != rng:
            raise InstanceError("row %d of the multiplication table is not a permutation" % g)
    for h, col in enumerate(zip(*table)):
        if set(col) != rng:
            raise InstanceError("column %d of the multiplication table is not a permutation" % h)
    identity = next((e for e in range(n)
                     if all(table[e][x] == x and table[x][e] == x for x in range(n))), None)
    if identity is None:
        raise InstanceError("multiplication table has no two-sided identity")
    return table, identity


def builder_group_window(table, names=None) -> Space:
    """Space carrying a finite multiplication table (no metric); see
    ``check_group_table`` for what the table must satisfy."""
    table, _ = check_group_table(table)
    n = len(table)
    if names is None:
        names = ["g%d" % i for i in range(n)]
    return Space(names, group_table=table)


def load_space(document):
    """Parse an instance document; see ``instances.load_space``."""
    from . import instances
    return instances.load_space(document)
