"""Function families, the pseudometrics they induce, and the scales those
pseudometrics generate.

A family F of complex functions on a finite carrier measures points by
d_F(x, y) = max over f of |f(x) - f(y)|.  Ball covers for a descending eps
grid then form a small-scale base, and separation questions about the
generated algebra reduce to the partition where d_F vanishes.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import bounded
from .metric import _ball_cover, ball_ladder
from .model import (InstanceError, Space, fmt_value, gap_table, positive_grid,
                    widest_pair)
from .oscillation import element_diameters
from .reports import CheckReport, truncation_label
from .scales import Cover, ScaleBase, base_members, first


def _row_key(row: np.ndarray) -> bytes:
    # adding 0 squashes negative zeros, so conj of a real row matches itself
    return (np.asarray(row, dtype=complex) + 0j).tobytes()


@dataclass(eq=False)
class FunctionFamily:
    """Named complex functions tabulated over one space."""

    space: Space
    names: tuple
    values: np.ndarray
    constant_at_infinity: bool = False

    def __post_init__(self):
        self.names = tuple(str(s) for s in self.names)
        v = np.asarray(self.values, dtype=complex)
        if v.ndim != 2 or v.shape != (len(self.names), self.space.n):
            raise InstanceError("family table must be functions x points")
        if not np.isfinite(v).all():
            raise InstanceError("family values must be finite")
        if len(set(self.names)) != len(self.names):
            raise InstanceError("duplicate function names")
        if not self.names:
            raise InstanceError("empty function family")
        self.values = v
        self._d = None

    def __len__(self) -> int:
        return len(self.names)

    def member(self, name: str) -> np.ndarray:
        try:
            return self.values[self.names.index(name)]
        except ValueError as exc:
            raise InstanceError("no function named %r" % name) from exc

    @property
    def is_unital(self) -> bool:
        return any(np.array_equal(row, np.ones(self.space.n, dtype=complex))
                   for row in self.values)

    @property
    def conjugation_closed(self) -> bool:
        rows = {_row_key(row) for row in self.values}
        return all(_row_key(np.conj(row)) in rows for row in self.values)

    def with_conjugates(self) -> "FunctionFamily":
        """Adjoin missing conjugates (and the constant one) so the generated
        algebra is honestly a *-algebra."""
        names = list(self.names)
        rows = [row for row in self.values]
        keys = {_row_key(row) for row in rows}
        one = np.ones(self.space.n, dtype=complex)
        if _row_key(one) not in keys:
            names.append("one")
            rows.append(one)
            keys.add(_row_key(one))
        for nm, row in zip(self.names, self.values):
            c = np.conj(row)
            if _row_key(c) not in keys:
                names.append("conj(%s)" % nm)
                rows.append(c)
                keys.add(_row_key(c))
        return FunctionFamily(self.space, names, np.vstack(rows),
                              constant_at_infinity=self.constant_at_infinity)

    def pseudometric(self) -> np.ndarray:
        """d_F(x, y) = max over the family of |f(x) - f(y)|."""
        if self._d is None:
            self._d = functools.reduce(np.maximum, map(gap_table, self.values))
        return self._d


def family_ball_cover(fam: FunctionFamily, radius: float) -> Cover:
    """Open d_F balls, duplicates collapsed."""
    return _ball_cover(fam.space, fam.pseudometric(), radius, "dF-balls")


def ss_base_from_family(fam: FunctionFamily, eps_grid) -> ScaleBase:
    """Small-scale base of d_F ball covers along a descending eps grid."""
    return ball_ladder(fam.space, fam.pseudometric(), eps_grid, "small", "dF-balls")


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


def is_ss_continuous(f, base: ScaleBase, eps_grid) -> CheckReport:
    """For each eps some base scale must keep the value spread of f inside
    eps on every element; first such scale wins."""
    f = np.asarray(f, dtype=complex)
    space = base_members(base, "a scale base needs at least one cover")[0].space
    if f.shape != (space.n,):
        raise InstanceError("function shape mismatch")
    witnesses, miss = fine_scales(f, base, eps_grid)
    cx = None if miss is None else {
        "eps": miss, "reason": "no base scale keeps the spread inside eps"}
    return CheckReport("ss_continuous", miss is None, witnesses=tuple(witnesses),
                       counterexample=cx, truncation=truncation_label(space))


def separation_blocks(fam: FunctionFamily) -> list[frozenset[int]]:
    """Classes of the relation d_F = 0, ordered by minimal point."""
    d = fam.pseudometric()
    n = fam.space.n
    unseen = np.ones(n, dtype=bool)
    blocks = []
    for x in range(n):
        if not unseen[x]:
            continue
        cls = np.flatnonzero((d[x] == 0) & unseen)
        unseen[cls] = False
        blocks.append(frozenset(cls.tolist()))
    return blocks


def stone_weierstrass_desk_test(fam: FunctionFamily, probe, name: str = "probe") -> CheckReport:
    """Membership of a probe in the closed *-algebra the family generates.

    On a finite carrier the algebra separates exactly the blocks where d_F
    vanishes, so the probe belongs iff it is constant on each block.  The
    same verdict is recomputed through the ball cover at half the smallest
    positive d_F value; the two routes must agree.  Instances with a
    filtration are refused: their intent is a limit the finite table cannot
    settle.
    """
    if fam.space.filtration is not None:
        raise InstanceError("filtered instance: algebra closure is not a finite question")
    probe = np.asarray(probe, dtype=complex)
    if probe.shape != (fam.space.n,):
        raise InstanceError("probe shape mismatch")
    if not np.isfinite(probe).all():
        raise InstanceError("probe values must be finite")
    blocks = separation_blocks(fam)
    sep_pair = None
    for idx in map(sorted, blocks):
        gap, i, j = widest_pair(gap_table(probe[idx]))
        if gap > 0:
            sep_pair = (idx[i], idx[j], gap)
            break
    block_constant = sep_pair is None

    d = fam.pseudometric()
    pos = d[d > 0]
    delta = 0.5 * float(pos.min()) if pos.size else 1.0
    cover = family_ball_cover(fam, delta)
    ball_route = bool(element_diameters(probe, cover).max() == 0)

    notes = []
    if not fam.is_unital:
        notes.append("family is not unital")
    if not fam.conjugation_closed:
        notes.append("family is not conjugation closed")
    if block_constant != ball_route:
        notes.append("block route and ball route disagree")
    witnesses = ({"blocks": [sorted(fam.space.points[i] for i in blk) for blk in blocks],
                  "delta": fmt_value(delta), "block_constant": block_constant,
                  "ball_route": ball_route},)
    cx = None
    if sep_pair is not None:
        x, y, gap = sep_pair
        cx = {"pair": [fam.space.points[x], fam.space.points[y]],
              "d_F": 0.0, "probe_gap": fmt_value(gap)}
    return CheckReport("stone_weierstrass[%s]" % name,
                       block_constant and ball_route == block_constant,
                       witnesses=witnesses, counterexample=cx, notes=tuple(notes))


def induced_bounded(space: Space) -> bounded.BoundedStructure:
    """Bounded structure the declared windows induce on a filtered carrier."""
    if space.filtration is None:
        raise InstanceError("no filtration: nothing declares boundedness")
    return bounded.from_filtration(space)
