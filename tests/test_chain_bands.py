"""Chain-boundedness from band ends.

On a line or a whole product grid, when every cover element is a box and
the family's steps are the product of one band per axis (each position and
its targets one run whose ends never decrease), ``f_bounded`` reads the
longest chain off the boxes' ends (``_band_hops``) and takes no
breadth-first search.  The search stays the oracle: every report must be
byte-identical to the one the search gives, and every operand that breaks a
condition (elements that are no box, diagonal steps, a row step that
depends on the column, x -> x + 2 alone, targets with a gap, ends that move
left or right, a grid missing a point, a table space) or holds an element that no chain crosses
must take the search.
"""
import importlib.util
import itertools
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scalekit import algebra_noncomm
from scalekit.algebra_noncomm import OperatorMatrix, StarFamily, f_bounded
from scalekit.model import Space, builder_grid, builder_line
from scalekit.scales import Cover

SEEDED = settings(deadline=None, derandomize=True, max_examples=200)
BROKEN = ("no-box", "diagonal", "column-dependent", "two-apart", "gapped", "left-moving",
          "right-moving", "partial-grid", "table")


def searched(cover, fam, n_max):
    """The report of the breadth-first search alone."""
    real = algebra_noncomm._band_hops
    algebra_noncomm._band_hops = lambda *args: None
    try:
        return f_bounded(cover, fam, n_max)
    finally:
        algebra_noncomm._band_hops = real


def band_hops(cover, fam):
    return algebra_noncomm._band_hops(cover, *algebra_noncomm._step_relation(fam))


@st.composite
def carriers(draw):
    """A line (shuffled, with tied and negative coordinates) or a whole
    grid with unequal axes, loaded in a random order; its points' positions
    on each axis, and each axis's number of positions."""
    if draw(st.booleans()):
        size = draw(st.integers(1, 12))
        coords = draw(st.lists(st.integers(-6, 6), min_size=size, max_size=size))
        coords = [c * draw(st.sampled_from([1.0, 0.5, 3.0])) for c in coords]
        space = Space(["p%d" % k for k in range(size)], metric_kind="line", coords=coords)
        rank = np.empty(size, dtype=int)
        rank[np.argsort(coords, kind="stable")] = np.arange(size)
        return space, [rank], [size]
    sides = [draw(st.integers(1, 7)) for _ in range(2)]
    tuples = draw(st.permutations(list(itertools.product(*map(range, sides)))))
    coords = [(a - 2.0, 1.5 * b - 3.0) for a, b in tuples]
    space = Space(["p%d" % k for k in range(len(coords))], metric_kind="grid", coords=coords)
    places = np.array(tuples).reshape(-1, 2).T
    return space, list(places), sides


@st.composite
def bands(draw, size):
    """Ends a <= p <= b on an axis of ``size`` positions, neither ever
    decreasing; a reach of 0 on both sides leaves a position stalled."""
    reach = st.lists(st.sampled_from([1, 1, 1, 2, 0]), min_size=size, max_size=size)
    at = np.arange(size)
    a = np.maximum.accumulate(np.maximum(at - np.array(draw(reach), dtype=int), 0))
    b = np.maximum.accumulate(np.minimum(at + np.array(draw(reach), dtype=int), size - 1))
    return a, b


def box_cover(draw, sizes, places, n):
    """Boxes of positions, then a box around every point left out, some of
    them one point."""
    boxes = []
    for _ in range(draw(st.integers(1, 4))):
        ends = [sorted(draw(st.lists(st.integers(0, m - 1), min_size=2, max_size=2)))
                for m in sizes]
        boxes.append(ends)
    held = np.zeros(n, dtype=bool)
    elements = []
    for ends in boxes:
        inside = np.ones(n, dtype=bool)
        for place, (lo, hi) in zip(places, ends):
            inside &= (place >= lo) & (place <= hi)
        elements.append(np.flatnonzero(inside).tolist())
        held |= inside
    elements += [[int(x)] for x in np.flatnonzero(~held)]
    return elements


@st.composite
def operands(draw):
    """A cover, a family and a budget, with the condition they break (None
    when they break none)."""
    space, places, sizes = draw(carriers())
    n = space.n
    broken = draw(st.sampled_from((None,) * 7 + BROKEN))
    at = {tuple(t): x for x, t in enumerate(zip(*places))}
    steps = set()
    for axis, size in enumerate(sizes):
        a, b = draw(bands(size))
        for x, t in enumerate(zip(*places)):
            for q in range(a[t[axis]], b[t[axis]] + 1):
                if q != t[axis]:
                    steps.add((x, at[t[:axis] + (q,) + t[axis + 1:]]))
    grid = len(sizes) == 2
    # each broken condition where the carrier lets it be broken, else none
    if broken == "diagonal" and grid and min(sizes) > 1:
        steps.add((at[(0, 0)], at[(1, 1)]))
    elif broken == "column-dependent" and grid and min(sizes) > 1:
        # the row step between rows 0 and 1 on column 0 alone
        steps -= {(at[(0, 1)], at[(1, 1)]), (at[(1, 1)], at[(0, 1)])}
        steps.add((at[(0, 0)], at[(1, 0)]))
    elif broken == "two-apart" and not grid and n > 2:
        steps = {(at[(p,)], at[(p + 2,)]) for p in range(n - 2)}
    elif broken == "left-moving" and not grid and n > 3:
        # position 2 reaches back to 0, past where position 1 starts
        steps = ({(at[(p,)], at[(p + 1,)]) for p in range(n - 1)}
                 | {(at[(2,)], at[(0,)]), (at[(2,)], at[(1,)])})
    elif broken not in ("no-box", "partial-grid", "table"):
        broken = None
    strong = st.sampled_from([1.0, -1.0, 1j, 2.5, complex(0.6, 0.8)])
    weak = st.sampled_from([0.5, 0.99, 0.3j])
    members = [{}, {}]
    for step in sorted(steps):
        members[draw(st.integers(0, 1))][step] = draw(strong)
    # entries of modulus below one make no step
    for _ in range(draw(st.integers(0, 3))):
        x, y = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        if (x, y) not in steps:
            members[0][(x, y)] = draw(weak)
    elements = box_cover(draw, sizes, places, n)
    if broken == "no-box" and n > 2 and not grid:
        elements.append([at[(0,)], at[(2,)]])
    elif broken == "no-box" and grid and min(sizes) > 1:
        elements.append([at[(0, 0)], at[(1, 1)]])
    elif broken == "partial-grid" and grid and min(sizes) > 1:
        kept = [x for x in range(n) if x != at[(0, 0)]]
        renumber = {x: k for k, x in enumerate(kept)}
        space = Space([space.points[x] for x in kept], metric_kind="grid",
                      coords=[space.coords[x] for x in kept])
        members = [{(renumber[x], renumber[y]): v for (x, y), v in m.items()
                    if x in renumber and y in renumber} for m in members]
        elements = [[renumber[x] for x in e if x in renumber] for e in elements]
        elements = [e for e in elements if e] + [[k] for k in range(len(kept))]
    elif broken == "table":
        space = Space(list(space.points), metric=space.d.table().tolist())
    elif broken in ("no-box", "partial-grid"):
        broken = None
    ops = [OperatorMatrix(space, m, name="a%d" % k) for k, m in enumerate(members)]
    fam = StarFamily(space, ("a0", "a1"), ops)
    # adjoints would mend ends that move left, so broken steps stay one-way
    if broken in (None, "no-box", "partial-grid", "table") and draw(st.booleans()):
        fam = fam.with_adjoints()
    return Cover(space, elements), fam, draw(st.integers(1, 12)), broken


@SEEDED
@given(operands())
def test_band_ends_give_the_search_report(case):
    cover, fam, n_max, broken = case
    want = searched(cover, fam, n_max)
    assert f_bounded(cover, fam, n_max).to_json() == want.to_json()
    hops = band_hops(cover, fam)
    if broken is not None:
        assert hops is None
    elif hops is not None:
        # the band ends decided, so every element is crossed
        assert want.counterexample is None or "n" in want.counterexample
        assert (want.witnesses[0]["n"] if want.witnesses else None) == hops + 1


def family(space, steps, closed=True):
    op = OperatorMatrix(space, {step: 1.0 for step in steps}, name="s")
    fam = StarFamily(space, ("s",), (op,))
    return fam.with_adjoints() if closed else fam


def grid_steps(at, sides):
    """Unit steps along both axes of a grid, one way."""
    return [(at[(a, b)], at[(a + da, b + db)]) for a, b in at for da, db in ((1, 0), (0, 1))
            if a + da < sides[0] and b + db < sides[1]]


def broken_operands(kind):
    """One cover and family that break the named condition alone."""
    line = Space(["p%d" % k for k in range(6)], metric_kind="line",
                 coords=[3.0, -1.0, 0.0, 2.0, -1.0, 5.0])
    pos = {p: int(x) for p, x in enumerate(np.argsort(line.coords, kind="stable"))}
    chain = [(pos[p], pos[p + 1]) for p in range(5)]
    sides = (3, 4)
    tuples = list(itertools.product(*map(range, sides)))[::-1]
    at = {t: x for x, t in enumerate(tuples)}
    grid = Space(["g%d" % x for x in range(12)], metric_kind="grid",
                 coords=[(float(a), float(b)) for a, b in tuples])
    whole = [list(range(12))]
    if kind == "no-box":
        return Cover(line, [[pos[0], pos[2]], list(range(6))]), family(line, chain)
    if kind == "diagonal":
        # in place of the step (0, 1) -> (1, 1), so that the steps still count
        # as a product's
        steps = [s for s in grid_steps(at, sides) if s != (at[(0, 1)], at[(1, 1)])]
        return Cover(grid, whole), family(grid, steps + [(at[(0, 0)], at[(1, 1)])])
    if kind == "column-dependent":
        steps = [s for s in grid_steps(at, sides) if s != (at[(0, 1)], at[(1, 1)])]
        return Cover(grid, whole), family(grid, steps)
    if kind == "two-apart":
        return Cover(line, [list(range(6))]), family(line, [(pos[p], pos[p + 2]) for p in range(4)])
    if kind == "gapped":
        # each position reaches one back and two on, but not one on, short
        # of the end
        steps = ([(pos[p], pos[p + 2]) for p in range(4)] + [(pos[p + 1], pos[p]) for p in range(5)]
                 + [(pos[4], pos[5])])
        return Cover(line, [list(range(6))]), family(line, steps, closed=False)
    if kind == "right-moving":
        # position 3 reaches on to 5 while position 4 does not
        steps = ([(pos[p + 1], pos[p]) for p in range(5)]
                 + [(pos[3], pos[5]), (pos[3], pos[4]), (pos[5], pos[3])])
        return Cover(line, [[pos[3], pos[4], pos[5]]]), family(line, steps, closed=False)
    if kind == "left-moving":
        steps = chain + [(pos[2], pos[0]), (pos[2], pos[1])]
        return Cover(line, [list(range(6))]), family(line, steps, closed=False)
    if kind == "partial-grid":
        part = Space(["g%d" % x for x in range(11)], metric_kind="grid",
                     coords=[(float(a), float(b)) for a, b in tuples if (a, b) != (2, 3)])
        return Cover(part, [list(range(11))]), family(part, [(x, x + 1) for x in range(10)])
    table = Space(list(line.points), metric=line.d.table().tolist())
    return Cover(table, [list(range(6))]), family(table, chain)


@pytest.mark.parametrize("kind", BROKEN)
def test_each_broken_condition_takes_the_search(kind):
    cover, fam = broken_operands(kind)
    assert band_hops(cover, fam) is None
    assert f_bounded(cover, fam, 5).to_json() == searched(cover, fam, 5).to_json()


@pytest.mark.parametrize("sides", [(3, 7), (7, 3), (1, 5), (4, 4)])
def test_unit_steps_on_a_whole_grid_come_from_band_ends(sides):
    tuples = list(itertools.product(*map(range, sides)))[::-1]
    space = Space(["p%d" % k for k in range(len(tuples))], metric_kind="grid",
                  coords=[(2.0 * a, -b) for a, b in tuples])
    at = {t: x for x, t in enumerate(tuples)}
    entries = {(at[t], at[(t[0] + 1, t[1])]): 1.0 for t in tuples if t[0] + 1 < sides[0]}
    entries.update({(at[t], at[(t[0], t[1] + 1)]): 1j for t in tuples if t[1] + 1 < sides[1]})
    fam = StarFamily(space, ("s",), (OperatorMatrix(space, entries, name="s"),))
    cover = Cover(space, [list(range(space.n))])
    # one-way steps cross the grid from its least corner only
    assert band_hops(cover, fam) is None
    both = fam.with_adjoints()
    assert band_hops(cover, both) == sides[0] + sides[1] - 2
    assert (f_bounded(cover, both, 4).to_json()
            == searched(cover, both, 4).to_json())


def test_self_steps_leave_the_band_ends():
    space = builder_line(6, 0.5)
    shift = OperatorMatrix(space, {(x, x + 1): 1.0 for x in range(6)}, name="s")
    ident = OperatorMatrix(space, {(x, x): 1.0 for x in range(7)}, name="i")
    fam = StarFamily(space, ("s", "i"), (shift, ident)).with_adjoints()
    cover = Cover(space, [[0, 1, 2, 3], [3, 4, 5, 6]])
    assert band_hops(cover, fam) == 3
    assert f_bounded(cover, fam, 4).to_json() == searched(cover, fam, 4).to_json()


def test_a_disconnected_element_gets_the_search_counterexample():
    space = builder_line(9, 1.0)
    entries = {(x, x + 1): 1.0 for x in range(space.n - 1) if x != 4}
    fam = StarFamily(space, ("s",), (OperatorMatrix(space, entries, name="s"),)).with_adjoints()
    cover = Cover(space, [[0, 1, 2], list(range(2, 8)), [8, 9]])
    assert band_hops(cover, fam) is None
    rep = f_bounded(cover, fam, 9)
    assert rep.counterexample == {"element": ["2", "3", "4", "5", "6", "7"], "pair": ["2", "5"],
                                  "reason": "no chain inside the element"}
    assert rep.to_json() == searched(cover, fam, 9).to_json()


def sweep_module(monkeypatch):
    bench = Path(__file__).resolve().parent.parent / "bench"
    monkeypatch.syspath_prepend(str(bench))
    spec = importlib.util.spec_from_file_location("bench_sweep", bench / "sweep.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("space", [builder_line(200, 0.125), builder_grid(12)],
                         ids=["line-200-eighths", "grid-12"])
def test_the_sweep_chain_check_takes_no_search(monkeypatch, space):
    sweep = sweep_module(monkeypatch)
    cover, fam = sweep.block_cover(space), sweep.shift_family(space)
    want = searched(cover, fam, sweep.NMAX)

    def refuse(*args):
        raise AssertionError("the chain check searched")

    monkeypatch.setattr(algebra_noncomm, "_chain_search", refuse)
    rep = f_bounded(cover, fam, sweep.NMAX)
    assert rep.to_json() == want.to_json()
    assert rep.counterexample["n"] == (40 if space.metric_kind == "line" else 9)
