"""Finite filtered spaces.

Every verifier in this package runs on a ``Space``: a finite list of named
points, optionally carrying a pseudometric and a filtration (a strictly
increasing chain of point sets standing in for an exhaustion by bounded sets).
The pseudometric is read through one accessor, ``Space.d`` (``Distances``):
a table space keeps its distance table, while a line or grid space keeps
only its coordinates and computes each slice of distances from them, so no
n x n table is held for it.  Spaces are immutable after construction; all
derived objects reference points by load-order index so results are
deterministic.
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
    carries a vector (one row per point) the gap is the sum norm.  A gap past
    the largest float is inf, without a warning."""
    with np.errstate(over="ignore"):
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


# coordinate kind -> the number of coordinates of each point; a line
# measures |x - y|, a grid the largest coordinate gap
COORD_KINDS = {"line": 1, "grid": 2}


# -- the relation kernel: bool relations as point lists --------------------
#
# A bool relation of m rows over n columns (a cover's elements x points, an
# entourage's points x points) is stored as point lists: the column of each
# true entry, row by row and ascending inside a row, and where each row
# begins in that list.  The other forms are derived from the lists: the
# transpose by one stable argsort, packed words by scatter, and a dense
# matrix only for a caller that needs one.  The kernel below writes its
# results as packed words, which such a relation keeps, with its row
# counts, and lists on first read: the row starts are the running total of
# the counts, and the columns come from the set bits, unpacked a block of
# rows at a time as a bool view.  A result that is only tested or
# multiplied again is never listed, and its words take a bit per entry
# where lists take 32.  Ball covers are made as packed words too, and
# their repeated rows dropped by one stable sort of the rows as byte
# strings; on a line or a whole product grid they are boxes of the sorted
# coordinates (``RunRows``), which build each form only when read.
#
# Row i of a product of relations a (m x k) and b (k x n) reduces the rows
# b[p] over the points p of row i of a: OR gives (a @ b) > 0, AND says for
# each j that every point of row i is related to j.  The kernel takes each
# row of b as ceil(n / 64) uint64 words, gathers them for the points of a
# and reduces them with reduceat: time ~ nnz(a) * ceil(n / 64).  It works
# through a in chunks of at most CHUNK_BYTES of gathered words (one entry
# at least), so that its working memory stays flat, and writes its result
# as packed words.  When all of a fits in one chunk, as on most small
# carriers, the reduction of a's rows is the result whenever no row is
# empty.  The kernel is a generator that yields its result so far after
# every chunk, with the number of leading rows that are final, so that a
# caller that only asks whether every row holds a true entry can stop at
# the first chunk that completes a row that does not.

CHUNK_BYTES = 1 << 19
# pairs in one chunk of the pair stream below (more only when one entry has
# more pairs than this)
PAIR_CHUNK = 1 << 16
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


def distinct_first(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """What ``np.unique`` returns with the first indices and the inverse,
    without the numpy.ma import that it makes on first use: the distinct
    values ascending, the index of each one's first occurrence, and each
    key's index among them, from one stable sort."""
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    new = np.ones(keys.size, dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=new[1:])
    inverse = np.empty(keys.size, dtype=np.intp)
    inverse[order] = np.cumsum(new) - 1
    return keys[new], order[new], inverse


def _point_lists(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The columns (int32) and row starts of the entries of a 2-d bool
    matrix."""
    m, n = matrix.shape
    flat = matrix.ravel().nonzero()[0]
    starts = flat.searchsorted(np.arange(0, (m + 1) * n, n))
    return np.remainder(flat, n, out=flat).astype(np.int32), starts


class BoolRows:
    """A read-only bool relation of m rows over n columns, as point lists:
    ``columns`` holds the column of each true entry, row by row and
    ascending inside a row, as int32, and row i is
    columns[starts[i]:starts[i + 1]] (``starts`` is int64, with the total
    at the end).  The packed words are derived from the lists and kept
    once built.  A relation that the kernel writes as packed words (see
    ``of_words``) keeps them, with its row counts, and lists its entries
    on first read.

    On a line or a whole product grid, ``runs`` are the rows as boxes
    (``Runs``) when ``line`` is that space's ``Distances``: None there when
    some row is not one box (see ``RunRows`` and ``Distances.runs_of``)."""

    line = None
    runs = None

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
        offsets = np.cumsum([0] + [p.starts[-1] for p in parts])
        return cls(np.concatenate([p.columns for p in parts]),
                   np.concatenate([[0]] + [p.starts[1:] + o for p, o in zip(parts, offsets)]),
                   parts[0].n)

    @classmethod
    def identity(cls, n: int) -> "BoolRows":
        return cls(np.arange(n), np.arange(n + 1), n)

    @cached_property
    def _lists(self) -> tuple[np.ndarray, np.ndarray]:
        """The point lists of a relation made from packed words: the row
        starts are the running total of the row counts, and the columns
        come from the set bits of a block of rows, of at most CHUNK_BYTES
        bits, at a time, unpacked as a bool view (``nonzero`` is several
        times slower on the same bits as uint8)."""
        m, n = self.m, self.n
        starts = np.zeros(m + 1, dtype=np.int64)
        self.sizes.cumsum(out=starts[1:])
        columns = np.empty(starts[-1], dtype=np.int32)
        step = max(1, CHUNK_BYTES // (64 * self.words.shape[1]))
        for lo in range(0, m, step):
            hi = min(m, lo + step)
            block = columns[starts[lo]:starts[hi]]
            block[:] = unpack_rows(self.words[lo:hi], n).ravel().nonzero()[0]
            # less each entry's row offset, which is quicker than a remainder
            block -= np.repeat(np.arange(0, (hi - lo) * n, n, dtype=np.int32),
                               self.sizes[lo:hi])
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

    @property
    def matrix(self) -> np.ndarray:
        """The dense bool matrix, unpacked from the words on every call."""
        return unpack_rows(self.words, self.n)


class RunRows(BoolRows):
    """A relation of boxes: on each axis line a of a space's product
    (``Distances.product``), row i holds the positions lo[a, i] to
    hi[a, i] - 1, and the row is the points whose positions lie in every
    such run; on a line, one axis, it is a run of the sorted order, and
    lo and hi may be given as 1-d arrays.  ``runs`` holds lo and hi
    (``Runs``), and ``line`` is the space's ``Distances``.  Its point lists
    and its packed words are each built from the runs, only when first
    read."""

    def __init__(self, line: "Distances", lo: np.ndarray, hi: np.ndarray):
        self.line, self.runs = line, Runs(lo, hi)
        self.m, self.n = self.runs.lo.shape[1], line.n
        self.sizes = self.runs.sizes

    @cached_property
    def _lists(self) -> tuple[np.ndarray, np.ndarray]:
        return self.line._run_lists(*self.runs)

    @cached_property
    def words(self) -> np.ndarray:
        return self.line._run_words(*self.runs)


def table_blocks(table, test):
    """``test`` (a vectorised predicate) on a 2-d table (an array or
    ``Distances``), one block of rows of at most CHUNK_BYTES entries after
    another, so that no bool copy of the whole table is held."""
    m, n = table.shape
    step = max(1, CHUNK_BYTES // n)
    for lo in range(0, m, step):
        yield test(table[lo:lo + step])


def rows_of_blocks(blocks, n: int) -> BoolRows:
    """The relation of bool blocks of n columns, read one after another,
    as packed words."""
    return BoolRows.of_words(np.concatenate([_pack(block) for block in blocks]), n)


def _first_rows(words: np.ndarray) -> np.ndarray:
    """The indices of the packed rows that differ from every row before
    them, ascending: one stable sort of the rows as byte strings, so that
    equal rows lie together with the first of them in front, and a mask of
    the sorted rows that differ from their predecessor."""
    keys = words.view(np.dtype((np.void, words.itemsize * words.shape[1]))).ravel()
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    first = np.ones(keys.size, dtype=bool)
    first[1:] = keys[1:] != keys[:-1]
    return np.sort(order[first])


def distinct_rows(blocks, n: int) -> BoolRows:
    """The distinct rows of bool blocks of n columns, read one after
    another, each row at its first occurrence, as packed words.  Each
    block's repeats are dropped as it is read, so that one block and the
    rows kept so far are held; the rows kept from several blocks are then
    sorted once more together."""
    parts = [words[_first_rows(words)] for words in map(_pack, blocks)]
    if len(parts) == 1:
        return BoolRows.of_words(parts[0], n)
    words = np.concatenate(parts)
    parts.clear()  # hold the kept rows once
    return BoolRows.of_words(words[_first_rows(words)], n)


def _identity_rows(m: int, width: int, ufunc, n: int) -> np.ndarray:
    """m packed rows of ``ufunc``'s identity over n columns: no bit for OR;
    for AND, where an empty row holds for every column, the n bits of the
    columns and zero bits past the last."""
    if ufunc is not np.bitwise_and:
        return np.zeros((m, width), dtype=WORD)
    out = np.full((m, width), np.iinfo(WORD).max, dtype=WORD)
    if n % 64:
        out[:, -1] = (1 << n % 64) - 1
    return out


def _reduce_rows(columns: np.ndarray, starts: np.ndarray, words: np.ndarray,
                 ufunc, n: int):
    """The relation kernel: reduce with ``ufunc`` (bitwise OR or AND) the rows
    of ``words`` (packed rows of n bits) that each point list selects; the
    list of row i is columns[starts[i]:starts[i + 1]].  Yields the packed
    result after each chunk, with the number of leading rows that are
    final."""
    m, width = len(starts) - 1, words.shape[1]
    out = None
    step = max(1, CHUNK_BYTES // (8 * width))
    for lo in range(0, columns.size, step):
        hi = min(columns.size, lo + step)
        if hi - lo == columns.size:  # one chunk, which holds every row whole
            r0, r1, begin = 0, m, starts[:-1]
            held = starts[1:] > begin
        else:
            r0 = int(np.searchsorted(starts, lo, side="right")) - 1
            r1 = int(np.searchsorted(starts, hi, side="left"))
            # each row's entries in this chunk, at [begin, end) of the gather
            begin = np.maximum(starts[r0:r1], lo) - lo
            held = np.minimum(starts[r0 + 1:r1 + 1], hi) - lo > begin
        # reduceat would return an element, not the identity, for an empty row
        got = ufunc.reduceat(np.take(words, columns[lo:hi], axis=0), begin[held], axis=0)
        if out is None and len(got) == m:  # the first chunk reaches every row
            out = got
        else:
            if out is None:
                out = _identity_rows(m, width, ufunc, n)
            rows = np.arange(r0, r1)[held]
            out[rows] = ufunc(out[rows], got)
        # the rows whose entries all lie before hi are final
        yield out, m if hi == columns.size else int(np.searchsorted(starts[1:], hi, side="right"))
    yield (_identity_rows(m, width, ufunc, n) if out is None else out), m


def _chunks(a: BoolRows, b: BoolRows, ufunc):
    """The chunks of the reduction of the rows of ``b`` over each row of
    ``a``."""
    return _reduce_rows(a.columns, a.starts, b.words, ufunc, b.n)


def _final(chunks) -> np.ndarray:
    """The whole packed result of the kernel's chunks."""
    for out, _ in chunks:
        pass
    return out


def packed_union(columns: np.ndarray, starts: np.ndarray, words: np.ndarray) -> np.ndarray:
    """Row i ORs the packed rows words[columns[starts[i]:starts[i + 1]]]: the
    kernel fed from point lists, its result left packed."""
    return _final(_reduce_rows(columns, starts, words, np.bitwise_or, 0))


def product_words(a: BoolRows, b: BoolRows) -> np.ndarray:
    """(a @ b) > 0 as packed rows (see ``BoolRows.words``)."""
    return _final(_chunks(a, b, np.bitwise_or))


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
        with np.errstate(over="ignore"):
            gaps = _gaps(v[t - lo] - v[u - lo], values.ndim > 1)
        yield t, u, gaps


# -- distances: a metric read a slice at a time ------------------------------
#
# A space's metric is read through one accessor, ``Space.d``.  A table metric
# keeps its validated table.  A coordinate metric keeps only its coordinates,
# one array per axis, and computes each slice it is asked for by the
# expression of ``gap_table``: |x - y| on a line, the largest such gap over
# the axes on a grid.  Float subtraction and abs are the same operations
# whichever slice they are taken on, so every distance is the one a whole
# table would hold.
#
# On a line the accessor also answers from the coordinates alone.  For a
# fixed point c, y -> fl(y - c) is monotone, so the points within r of c
# (d <= r or d < r) are one run of the coordinates sorted once: a band,
# found by a searchsorted per side and fixed up under the same float
# predicate, one distinct coordinate at a time.  On a grid, a point is
# within r of another iff it is on every axis.  A grid that holds each
# tuple of its axes' distinct coordinates once is the product of its axes,
# each a line of those coordinates (``Distances.product``; a line is the
# product of itself), and the points within r of a center are a box: the
# product of its axis bands.  Such relations keep their boxes (``Runs``),
# and the run calculus below takes stars, refinement, composition and
# inversion from their ends, axis by axis.  On any other grid a relation
# d <= r (or d < r) is the AND over the axes of one packed row per
# distinct coordinate.

# _LOW[k]: the low k bits of a word set
_LOW = np.array([(1 << k) - 1 for k in range(65)], dtype=np.uint64).astype(WORD)


class Distances:
    """The distances of one space, as an n x n table read by slices:
    ``d[i, j]`` with ints or index arrays, which broadcast against each
    other (``np.ix_`` pairs among them), and ``d[rows]`` with an int, a
    slice or an int array for rows of the table.  ``axes`` holds the
    coordinates of a coordinate metric, one array per axis, and is None for
    a table.  ``table()`` builds the whole table: tests compare against it,
    nothing else needs it."""

    def __init__(self, table=None, axes=None):
        self._table = table
        self.axes = axes
        self.n = len(table) if axes is None else len(axes[0])
        self.shape = (self.n, self.n)

    @classmethod
    def of_coords(cls, coords: np.ndarray) -> "Distances":
        """The metric of coordinates, one row per point: |x - y| for a
        1-d array, the largest coordinate gap for one column per axis."""
        axes = (coords,) if coords.ndim == 1 else tuple(np.ascontiguousarray(coords.T))
        for axis in axes:
            axis.setflags(write=False)
        return cls(axes=axes)

    def __getitem__(self, key):
        if self.axes is None:
            return self._table[key]
        if isinstance(key, tuple):
            a, b = key
            return self._gap(lambda axis: axis[a] - axis[b])
        return self._gap(lambda axis: axis[key][..., None] - axis)

    def _gap(self, pick):
        """The largest |pick(axis)| over the axes."""
        out = None
        for axis in self.axes:
            gap = pick(axis)
            gap = np.abs(gap, out=gap) if isinstance(gap, np.ndarray) else abs(gap)
            out = gap if out is None else np.maximum(out, gap)
        return out

    def table(self) -> np.ndarray:
        """The whole table; for tests only."""
        return self._table if self.axes is None else self[0:self.n]

    @property
    def banded(self) -> bool:
        """Whether the metric is a line's, whose balls are bands."""
        return self.axes is not None and len(self.axes) == 1

    @cached_property
    def finite(self) -> bool:
        """Whether every distance is finite.  On coordinates the widest gap
        on each axis is its spread, which may overflow."""
        if self.axes is not None:
            return all(np.isfinite(np.ptp(axis)) for axis in self.axes)
        return all(table_blocks(self, lambda block: np.isfinite(block).all()))

    @cached_property
    def positive(self) -> bool:
        """Whether some distance is positive and finite."""
        return self.widest() > 0 if self.finite else self.above(0.0) < np.inf

    def balls(self, r: float) -> BoolRows:
        """The distinct open balls d(x, .) < r, each at its first center in
        load order."""
        if self.axes is None:
            return distinct_rows(table_blocks(self, lambda block: block < r), self.n)
        if self.product is None:
            words = self._box_words(r, False)
            return BoolRows.of_words(words[_first_rows(words)], self.n)
        lines, offsets, _, points = self.product
        bands = _bands(lines, r, False)
        starts = []
        for lo, hi in bands:
            # the bands never move left, so the centers of one lie together
            new = np.ones(lo.size, dtype=bool)
            new[1:] = (lo[1:] != lo[:-1]) | (hi[1:] != hi[:-1])
            starts.append(np.flatnonzero(new))
        # the balls are the tuples of bands, the first line slowest, which is
        # the load order of their first centers when the points are in
        # product order; else those centers are the least points over the
        # blocks of each tuple's positions
        if len(lines) == 1 and points is None:
            centers = starts[0]
        else:
            shape = tuple(at.size for at in starts)
            if points is None:
                order = np.arange(math.prod(shape))
            else:
                first = points.reshape([line.n for line in lines])
                for a, at in enumerate(starts):
                    first = np.minimum.reduceat(first, at, axis=a)
                order = np.argsort(first, axis=None)
            centers = np.array([at[q] + offset for at, q, offset
                                in zip(starts, np.unravel_index(order, shape), offsets)])
        lo, hi = zip(*bands)
        return RunRows(self, _joined(lo, offsets)[centers], _joined(hi, offsets)[centers])

    def within(self, r: float, closed: bool) -> BoolRows:
        """The relation d(x, y) <= r (``closed``) or < r, row x for each
        point x."""
        if self.axes is None:
            test = (lambda block: block <= r) if closed else (lambda block: block < r)
            return rows_of_blocks(table_blocks(self, test), self.n)
        if self.product is None:
            return BoolRows.of_words(self._box_words(r, closed), self.n)
        lines, offsets, places, points = self.product
        lo, hi = zip(*_bands(lines, r, closed))
        lo, hi = _joined(lo, offsets), _joined(hi, offsets)
        if len(lines) > 1 or points is not None:  # rows in load order
            lo, hi = lo[places], hi[places]
        return RunRows(self, lo, hi)

    def _box_words(self, r: float, closed: bool) -> np.ndarray:
        """On coordinates, the packed rows of d <= r (``closed``) or d < r,
        one per point.  d is within r iff every axis gap is, so each axis
        packs the rows of its distinct coordinates, a block of CHUNK_BYTES
        entries at a time, and a point's row is the AND over the axes of
        the rows of its coordinates."""
        near = np.less_equal if closed else np.less
        step = max(1, CHUNK_BYTES // self.n)
        out = None
        for axis, (values, inverse) in zip(self.axes, self._levels):
            rows = np.concatenate([_pack(near(np.abs(values[k:k + step, None] - axis), r))
                                   for k in range(0, values.size, step)])[inverse]
            out = rows if out is None else np.bitwise_and(out, rows, out=out)
        return out

    @cached_property
    def _levels(self) -> list:
        """Per axis, its distinct coordinates and each point's index among
        them."""
        out = []
        for axis in self.axes:
            values = distinct_sorted(axis)
            out.append((values, values.searchsorted(axis)))
        return out

    @property
    def product(self):
        """The space as a product of lines, or None: a line is the product
        of itself alone, and a grid is one when it holds each tuple of its
        axes' distinct coordinates once, each axis then the line of those
        coordinates.  The positions of the lines are laid end to end, so
        that a run on one line sorts apart from the runs on every other.
        Given as the lines; where each line's positions begin, with their
        total at the end; each point's position on each line, a (lines, n)
        array; and the point at each tuple of positions, the first line
        slowest (None when that is load order).  Decided on first use."""
        product = self._product
        if product is None or product[0] is not None:
            return product
        # a line is not kept in its own cache, which would make a cycle
        return ((self,),) + product[1:]

    @cached_property
    def _product(self):
        """``product``, with None for a line's own lines."""
        if self.axes is None:
            return None
        if self.banded:
            return None, np.array([0, self.n]), self._positions[None], self._sorted[1]
        values, places = zip(*self._levels)
        shape = tuple(v.size for v in values)
        if math.prod(shape) != self.n:
            return None
        points = np.full(self.n, -1)
        points[np.ravel_multi_index(places, shape)] = np.arange(self.n)
        if (points < 0).any():  # a tuple held twice leaves another out
            return None
        if (points[1:] > points[:-1]).all():
            points = None
        offsets = np.cumsum((0,) + shape)
        # axes of the same coordinates share one line, and so its bands
        lines = {}
        for v in values:
            lines.setdefault(v.tobytes(), v)
        lines = {key: Distances.of_coords(v) for key, v in lines.items()}
        return (tuple(lines[v.tobytes()] for v in values), offsets,
                np.stack(places) + offsets[:-1, None], points)

    def above(self, lam: float) -> float:
        """The least finite distance greater than ``lam`` (>= 0), or inf.  A
        whole product grid realizes exactly its axes' gaps, so it asks each
        axis line."""
        if self.banded:
            # the nearest points past the band of lam on either side
            s, (lo, hi) = self._sorted[0], self._band(lam, True)
            right = np.abs(s[np.minimum(hi, self.n - 1)] - s)
            left = np.abs(s[np.maximum(lo - 1, 0)] - s)
            right[hi == self.n] = left[lo == 0] = np.inf
            return float(min(right.min(), left.min()))
        if self.product is not None:
            return min(line.above(lam) for line in self.product[0])
        return float(min(table_blocks(self, lambda block: block.min(
            where=(block > lam) & (block < np.inf), initial=np.inf))))

    def widest(self) -> float:
        """The greatest finite distance (0 when none is)."""
        if self.axes is not None and self.finite:
            return float(max(np.ptp(axis) for axis in self.axes))
        return float(max(table_blocks(self, lambda block: block.max(
            where=block < np.inf, initial=0.0))))

    def widest_pair(self, idx: np.ndarray) -> tuple[float, int, int]:
        """``widest_pair`` of the table on the points ``idx``, the pair given
        as positions in idx, read a block of rows of about CHUNK_BYTES
        entries at a time."""
        m = len(idx)
        if m < 2:
            return 0.0, 0, 0
        step = max(1, CHUNK_BYTES // m)
        gap, at = -np.inf, 0
        for lo in range(0, m, step):
            block = self[np.ix_(idx[lo:lo + step], idx)]
            k = int(block.argmax())
            if block.flat[k] > gap:  # the first maximum in row-major order
                gap, at = block.flat[k], lo * m + k
        i, j = divmod(at, m)
        return (float(gap), i, j) if i < j else (float(gap), 0, 1)

    def same(self, other: "Distances") -> bool:
        """Whether two metrics hold the same table, compared a block of rows
        at a time."""
        if self.shape != other.shape:
            return False
        step = max(1, CHUNK_BYTES // self.n)
        return all(np.array_equal(self[lo:lo + step], other[lo:lo + step])
                   for lo in range(0, self.n, step))

    # -- bands on a line -----------------------------------------------------

    @cached_property
    def _sorted(self) -> tuple:
        """The coordinates in one stable ascending order, s; the order and
        each point's position in it (both None when the coordinates ascend
        already); and for each position the run of its coordinate, as
        [start, end) positions."""
        c = self.axes[0]
        if (c[1:] >= c[:-1]).all():
            order = rank = None
            s = c
        else:
            order = np.argsort(c, kind="stable")
            rank = np.empty(self.n, dtype=np.int64)
            rank[order] = np.arange(self.n)
            s = c[order]
        return s, order, rank, s.searchsorted(s, "left"), s.searchsorted(s, "right")

    @cached_property
    def _probes(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """What ``_band`` tests its bounds with: s between two NaNs, which
        are within no radius of any center, so that positions -1 and n need
        no care; the centers four times over; and the outcome of a settled
        test."""
        s = self._sorted[0]
        settled = np.zeros((4, self.n), dtype=bool)
        settled[1::2] = True
        return np.concatenate(([np.nan], s, [np.nan])), np.tile(s, 4), settled.ravel()

    def _band(self, r: float, closed: bool) -> tuple[np.ndarray, np.ndarray]:
        """For the center at each sorted position, the positions [lo, hi)
        of the points y with d <= r (``closed``) or d < r.  Both bounds
        never decrease along the positions."""
        s, _, _, start, end = self._sorted
        near = np.less_equal if closed else np.less
        if not near(0.0, r):  # no point is within r of itself
            return start, start.copy()
        padded, centers, settled = self._probes
        # a first guess, widened to hold the center's own run, which is within r
        hi = np.maximum(s.searchsorted(s + r, "right" if closed else "left"), end)
        lo = np.minimum(s.searchsorted(s - r, "left" if closed else "right"), start)
        while True:
            # settled: hi and lo - 1 are not within r, hi - 1 and lo are
            # (positions shifted by one into ``padded``)
            ok = near(np.abs(padded[np.concatenate((hi + 1, hi, lo, lo + 1))] - centers), r)
            moves = ok != settled
            if not moves.any():
                return lo, hi
            # a bound moves one distinct coordinate at a time: out past a
            # position within r, in past one that is not
            out_hi, in_hi, out_lo, in_lo = moves.reshape(4, -1)
            hi[out_hi] = s.searchsorted(s[hi[out_hi]], "right")
            hi[in_hi] = s.searchsorted(s[hi[in_hi] - 1], "left")
            lo[out_lo] = s.searchsorted(s[lo[out_lo] - 1], "left")
            lo[in_lo] = s.searchsorted(s[lo[in_lo]], "right")

    def _run_lists(self, lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The point lists (columns, row starts) of the relation of boxes
        ``lo``, ``hi`` (see ``RunRows``): each row's tuples of positions are
        counted out with the last line fastest, and read as points."""
        lines, offsets, _, points = self.product
        widths = hi - lo
        sizes = widths.prod(axis=0)
        starts = np.zeros(len(sizes) + 1, dtype=np.int64)
        np.cumsum(sizes, out=starts[1:])
        # each entry's place in its row's count, and the tuple it starts at
        rank = np.arange(starts[-1]) - np.repeat(starts[:-1], sizes)
        scale = np.cumprod([1] + [line.n for line in lines[:0:-1]])[::-1]
        at = np.repeat(scale @ (lo - offsets[:-1, None]), sizes)
        for a in range(len(lines) - 1, 0, -1):
            rank, q = np.divmod(rank, np.repeat(widths[a], sizes))
            at += q * scale[a]
        at += rank * scale[0]
        if points is not None:
            # each row's points, ascending: rows stay apart under the keys
            shift = np.repeat(np.arange(len(sizes), dtype=np.int64) * self.n, sizes)
            at = np.sort(points[at] + shift) - shift
        columns = at.astype(np.int32)
        columns.setflags(write=False)
        starts.setflags(write=False)
        return columns, starts

    def _run_words(self, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        """The packed rows of that relation."""
        n, (lines, _, places, points) = self.n, self.product
        if len(lines) == 1 and points is None:
            # the bits of word w are those of points 64 w to 64 w + 63
            w = np.arange(0, 64 * -(-n // 64), 64)
            ends = [np.minimum(np.maximum(b[0, :, None] - w, 0), 64) for b in (hi, lo)]
            words = _LOW[ends[0]] & ~_LOW[ends[1]]
            words.setflags(write=False)
            return words
        step = max(1, CHUNK_BYTES // n)

        def block(k):
            inside = True
            for place, first, end in zip(places, lo[:, k:k + step], hi[:, k:k + step]):
                inside = inside & (place >= first[:, None]) & (place < end[:, None])
            return inside

        return rows_of_blocks(map(block, range(0, lo.shape[1], step)), n).words

    # -- runs on the lines of a product ----------------------------------------

    def runs_of(self, rows: BoolRows):
        """The rows of a relation on this space as boxes, or None when the
        space is no product (``product``) or some row is not one box.  A
        relation's stated runs are taken as they are; otherwise a row of
        point lists is one box iff the box of its least and greatest
        positions on each line holds as many points as the row.  The runs
        found are kept with a relation that states none; a relation of
        packed words alone, or with an empty row, is not scanned."""
        if rows.line is self:
            return rows.runs
        if (self.product is None or not rows.m
                or not ("columns" in vars(rows) or "_lists" in vars(rows))
                or not rows.sizes.all()):
            return None
        at, begin = self.product[2][:, rows.columns], rows.starts[:-1]
        lo = np.minimum.reduceat(at, begin, axis=1)
        hi = np.maximum.reduceat(at, begin, axis=1) + 1
        runs = Runs(lo, hi)
        if not np.array_equal(runs.sizes, rows.sizes):
            runs = None
        if rows.line is None:
            rows.line, rows.runs = self, runs
        return runs

    def run_extents(self, runs) -> np.ndarray:
        """The least and the greatest coordinate of each nonempty box on
        each line, one row per box (columns lo_0, hi_0, lo_1, ...): the
        sorted coordinates of the lines at the ends of its runs."""
        coords = _joined([line._sorted[0] for line in self.product[0]])
        out = np.empty((runs.lo.shape[1], 2 * len(runs.lo)))
        out[:, 0::2], out[:, 1::2] = coords[runs.lo].T, coords[runs.hi - 1].T
        return out

    def by_position(self, values: np.ndarray) -> np.ndarray:
        """Values given per point in load order, listed by the points'
        sorted positions instead."""
        order = self._sorted[1]
        return values if order is None else values[order]

    def sorted_runs(self, runs):
        """The ends of the runs of a relation with one row per point as
        functions of the position of the row's point on each line, (lo, hi)
        with one entry per position of every line.  None unless each row's
        run on each line depends on its point's position there alone and
        neither end ever decreases along the positions; as the lines lie end
        to end, that is one test over all positions."""
        total, places = self.product[1][-1], self.product[2]
        if len(places) == 1:  # a line: each point has a position of its own
            lo, hi = self.by_position(runs.lo[0]), self.by_position(runs.hi[0])
        else:
            lo, hi = np.empty(total, dtype=np.int64), np.empty(total, dtype=np.int64)
            lo[places], hi[places] = runs
            if not (np.array_equal(lo[places], runs.lo) and np.array_equal(hi[places], runs.hi)):
                return None
        if (lo[1:] < lo[:-1]).any() or (hi[1:] < hi[:-1]).any():
            return None
        return lo, hi

    @cached_property
    def _positions(self) -> np.ndarray:
        """Each point's position in the sorted order."""
        rank = self._sorted[2]
        return np.arange(self.n) if rank is None else rank

    def holds_diagonal(self, runs) -> bool:
        """Whether the box of each point's row holds the point itself."""
        places = self.product[2]
        return bool(((runs.lo <= places) & (places < runs.hi)).all())

    def inverse_runs(self, ordered):
        """The boxes of the inverse of a relation with one row per point,
        given its ``sorted_runs``: a point relates to another iff it does on
        every line, and on a line the rows whose runs hold position q sit at
        the positions from the number of runs that end by q to the number
        that start by q, since neither end decreases."""
        lo, hi = ordered
        places = self.product[2]
        return hi.searchsorted(places, "right"), lo.searchsorted(places, "right")


def _bands(lines, r: float, closed: bool) -> list:
    """``Distances._band`` of each line, worked out once per distinct line."""
    bands = {line: line._band(r, closed) for line in dict.fromkeys(lines)}
    return [bands[line] for line in lines]


def _joined(parts: list, offsets=None) -> np.ndarray:
    """Arrays, one per line of a product, end to end, each shifted by where
    its line's positions begin when ``offsets`` are given; one line's array
    is taken as it is."""
    if len(parts) == 1:
        return parts[0]
    if offsets is not None:
        parts = [part + at for part, at in zip(parts, offsets)]
    return np.concatenate(parts)


class Runs:
    """Rows as boxes of a product's positions (``Distances.product``): on
    each line a, row i holds the run [lo[a, i], hi[a, i]), with hi >= lo,
    and the row is the points whose positions lie in every one of its runs,
    so that it is empty when any run is.  lo and hi are (lines, rows) int64
    arrays (a 1-d array is one line's); unpacks as (lo, hi).  Runs are
    compared by their ends alone, through two orders built once: ``reach``
    gives the starts ascending and, for each j, the greatest end among the
    first j runs in that order (-1 for j = 0); ``least`` gives the ends
    ascending and, for each j, the least start among the runs from the j-th
    on in that order (the largest int64 past the last).  The lines'
    positions lie end to end, so a run of one line meets and holds none of
    another's, and both orders serve every line at once."""

    def __init__(self, lo: np.ndarray, hi: np.ndarray):
        self.lo, self.hi = (lo, hi) if lo.ndim == 2 else (lo[None], hi[None])

    def __iter__(self):
        return iter((self.lo, self.hi))

    @property
    def sizes(self) -> np.ndarray:
        """The number of points of each row."""
        widths = self.hi - self.lo
        return widths[0] if len(widths) == 1 else widths.prod(axis=0)

    @cached_property
    def reach(self) -> tuple[np.ndarray, np.ndarray]:
        lo = self.lo.ravel()
        by_start = np.argsort(lo, kind="stable")
        most = np.empty(len(by_start) + 1, dtype=np.int64)
        most[0] = -1
        np.maximum.accumulate(self.hi.ravel()[by_start], out=most[1:])
        return lo[by_start], most

    @cached_property
    def least(self) -> tuple[np.ndarray, np.ndarray]:
        hi = self.hi.ravel()
        by_end = np.argsort(hi, kind="stable")
        first = np.empty(len(by_end) + 1, dtype=np.int64)
        first[-1] = _FAR
        first[:-1] = np.minimum.accumulate(self.lo.ravel()[by_end][::-1])[::-1]
        return hi[by_end], first

    @cached_property
    def product(self) -> bool:
        """Whether the set of rows is the product of the sets of runs on
        each line: always on one line; on more, when the distinct rows,
        which are among those tuples, are as many."""
        if len(self.lo) == 1:
            return True
        key, count = 0, 1
        for lo, hi in zip(*self):
            runs = lo * (hi.max() + 1) + hi
            kinds = distinct_sorted(runs)
            key, count = key * kinds.size + kinds.searchsorted(runs), count * kinds.size
        return distinct_sorted(key).size == count


_FAR = np.iinfo(np.int64).max


def run_stars(u: Runs, v: Runs) -> tuple[np.ndarray, np.ndarray]:
    """The boxes of st(U, v) for each nonempty box U of u, when the rows of
    v are nonempty boxes that make the product of their runs on each line
    (``Runs.product``) and, on two lines or more, cover the space.  A box
    of v meets U iff its run meets U's on every line, so the union of those
    that do is the product of their unions on each line, which hold U's
    runs as v covers the space.  On a line, a run [c, d) meets U = [a, b)
    iff d > a and c < b, so the star is one run: the least start among the
    runs that end past a (``least``) starts it when it lies before b, and
    the greatest end among the runs that start before b (``reach``) ends
    it when it lies past a."""
    (a, b), (ends, first), (starts, most) = u, v.least, v.reach
    return (np.minimum(a, first[ends.searchsorted(a, "right")]),
            np.maximum(b, most[starts.searchsorted(b, "left")]))


def runs_inside(u: Runs, v: Runs) -> bool:
    """Whether each nonempty box of u lies inside some box of v, when v is
    the product of its runs on each line: whether each run of u lies
    inside the one of v on its line that ends furthest among those that
    start at or before it."""
    starts, most = v.reach
    return bool((most[starts.searchsorted(u.lo, "right")] >= u.hi).all())


def runs_span(runs: Runs, total: int) -> bool:
    """Whether the product of nonempty runs on each line holds every point,
    given the lines' total number of positions: whether, sorted by start,
    each run begins where the ones before it reach, the first at 0, and
    the last reach is the total."""
    starts, most = runs.reach
    return bool(starts[0] == 0 and most[-1] == total and (starts[1:] <= most[1:-1]).all())


def runs_composed(runs, band) -> tuple[np.ndarray, np.ndarray]:
    """The boxes of e o f from the boxes of e and ``band``, the
    ``Distances.sorted_runs`` of f when each of them holds its own
    position: row y of f is then the product over the lines of runs that
    depend on y's position there alone, so a box of e reaches the product
    of their unions.  On a line, the union over positions a to b - 1 is
    one run, since neighbouring runs of f meet, from band_lo[a] to
    band_hi[b - 1].  An empty run stays empty."""
    (a, b), (lo, hi) = runs, band
    held = a < b
    return (np.where(held, lo.take(a, mode="clip"), a),
            np.where(held, hi.take(b - 1, mode="clip"), a))


def runs_subset(e, f) -> bool:
    """Whether each row of one relation lies inside the same row of
    another, both given as boxes: an empty row lies inside anything, and a
    box inside another iff it is on every line."""
    (a, b), (c, d) = e, f
    empty, inside = a >= b, (c <= a) & (b <= d)
    if len(a) > 1:
        if not empty.any():  # then every line at once
            return bool(inside.all())
        empty, inside = empty.any(axis=0), inside.all(axis=0)
    return bool((empty | inside).all())


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
    of a coordinate kind ("line", "grid") keeps its coordinates and derives
    its distances from them; any other space takes a distance table.  Both
    are read through ``d`` (``Distances``), which is None without a
    metric."""

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
        self.d = None
        if metric_kind in COORD_KINDS:
            if metric is not None:
                raise InstanceError("a %s space derives its metric from coords"
                                    % metric_kind)
            coords_array = np.array(coords, dtype=float)
            width = COORD_KINDS[metric_kind]
            if coords_array.shape != ((len(points),) if width == 1 else (len(points), width)):
                raise InstanceError("%s coords must give one coordinate per point"
                                    % metric_kind)
            if not np.isfinite(coords_array).all():
                raise InstanceError("%s coordinates must be finite" % metric_kind)
            # finite coordinates give a symmetric, nonnegative metric that is
            # zero on the diagonal and obeys the triangle inequality
            self.d = Distances.of_coords(coords_array)
        elif metric is not None:
            try:
                metric = np.array(metric, dtype=float)
            except (TypeError, ValueError) as exc:
                raise InstanceError("metric table must be a square table of numbers") from exc
            if metric.shape != (len(points), len(points)):
                raise InstanceError("metric table shape does not match point count")
            self._check_pseudometric(metric)
            metric.setflags(write=False)
            self.d = Distances(metric)
        if filtration is not None:
            if isinstance(filtration, Filtration):
                filtration = filtration.levels
            error = "filtration level %d has a point that is not an index of the space"
            filtration = Filtration(tuple(
                frozenset(parse_points(lv, len(points), error % (i + 1)).tolist())
                for i, lv in enumerate(filtration)))
        self.filtration = filtration

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
        # NaN, as which None reads, is unequal to itself: the symmetry test
        # below would report it as an asymmetry
        if np.isnan(d).any():
            raise InstanceError("distances must not be NaN")
        if np.any(np.diag(d) != 0.0):
            k = int(np.flatnonzero(np.diag(d) != 0.0)[0])
            raise InstanceError("nonzero self-distance at point %d" % k)
        if np.any(d < 0):
            raise InstanceError("negative distance in metric table")
        asym = d != d.T
        if np.any(asym):
            i, j = map(int, np.argwhere(asym)[0])
            raise InstanceError("asymmetric metric at (%d,%d)" % (i, j))

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
        if self.d is None:
            raise InstanceError("space carries no metric")
        idx = np.sort(parse_points(subset, self.n, "a diameter is taken of point indices"))
        return self.d.widest_pair(idx)[0]

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
        if a is not None and not a.same(b):
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
            rows = [["inf" if math.isinf(v) else float(v) for v in self.d[i]]
                    for i in range(self.n)]
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
