"""Sparse operators on a finite carrier and the structures they induce.

An operator is stored by columns: entry (x, y) is the amplitude of the basis
vector at y inside the image of the basis vector at x.  Support entourages,
chain-boundedness of covers against an operator family, and the ball scales
of the column pseudometric all live here, together with the partition of
unity constructions that feed operators back into scale language.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .entourages import Entourage, compose, diagonal
from .metric import _ball_cover
from .model import InstanceError, Space, fmt_value, positive_grid
from .reports import CheckReport, truncation_label
from .scales import (Cover, PartitionOfUnity, ScaleBase, pou_support, refines,
                     smaller_or_equal, star_family)


class OperatorMatrix:
    """Column-sparse operator: entries[(x, y)] = coefficient of delta_y in
    the image of delta_x."""

    def __init__(self, space: Space, entries: dict, name: str = "a"):
        self.space = space
        self.name = name
        clean = {}
        n = space.n
        for (x, y), val in entries.items():
            x, y = int(x), int(y)
            if not (0 <= x < n and 0 <= y < n):
                raise InstanceError("entry (%d, %d) outside the carrier" % (x, y))
            val = complex(val)
            if not (np.isfinite(val.real) and np.isfinite(val.imag)):
                raise InstanceError("non-finite entry at (%d, %d)" % (x, y))
            if val != 0:
                clean[(x, y)] = val
        self.entries = clean

    @classmethod
    def from_triplets(cls, space: Space, triplets, name: str = "a") -> "OperatorMatrix":
        """Rows of [row, col, re, im]; repeated positions accumulate."""
        acc: dict = {}
        for t in triplets:
            if len(t) != 4:
                raise InstanceError("triplet rows are [row, col, re, im]")
            row, col, re, im = t
            key = (int(col), int(row))
            acc[key] = acc.get(key, 0j) + complex(float(re), float(im))
        return cls(space, acc, name=name)

    def entry(self, x: int, y: int) -> complex:
        return self.entries.get((x, y), 0j)

    def adjoint(self) -> "OperatorMatrix":
        flipped = {(y, x): val.conjugate() for (x, y), val in self.entries.items()}
        return OperatorMatrix(self.space, flipped, name="%s*" % self.name)

    def __matmul__(self, other: "OperatorMatrix") -> "OperatorMatrix":
        """self @ other applies other first."""
        if other.space is not self.space:
            raise InstanceError("operators live on different spaces")
        by_col: dict = {}
        for (z, y), val in self.entries.items():
            by_col.setdefault(z, []).append((y, val))
        prod: dict = {}
        for (x, z), bval in other.entries.items():
            for y, aval in by_col.get(z, ()):
                key = (x, y)
                prod[key] = prod.get(key, 0j) + bval * aval
        return OperatorMatrix(self.space, prod,
                              name="%s%s" % (self.name, other.name))

    def dense(self) -> np.ndarray:
        m = np.zeros((self.space.n, self.space.n), dtype=complex)
        for (x, y), val in self.entries.items():
            m[y, x] = val
        return m

    def apply(self, vec: np.ndarray) -> np.ndarray:
        vec = np.asarray(vec, dtype=complex)
        out = np.zeros(self.space.n, dtype=complex)
        for (x, y), val in self.entries.items():
            out[y] += val * vec[x]
        return out

    def same_entries(self, other: "OperatorMatrix") -> bool:
        return self.entries == other.entries

    def __repr__(self):
        return "OperatorMatrix(%s, %d entries)" % (self.name, len(self.entries))


def operator_norm(a: OperatorMatrix, tol: float = 1e-6, max_iter: int = 500) -> float:
    """Largest singular value by power iteration with a fixed start.

    Reported alongside structural verdicts; never used to decide one.
    """
    m = a.dense()
    rng = np.random.default_rng(20240117)
    v = rng.standard_normal(a.space.n) + 1j * rng.standard_normal(a.space.n)
    v /= np.linalg.norm(v)
    gram = m.conj().T @ m
    last = 0.0
    for _ in range(max_iter):
        w = gram @ v
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
    if tau < 0:
        raise InstanceError("threshold must be nonnegative")
    pairs = {(x, y) for (x, y), val in a.entries.items() if abs(val) > tau}
    pairs |= {(x, x) for x in range(a.space.n)}
    return Entourage(a.space, pairs)


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

    @property
    def adjoint_closed(self) -> bool:
        return all(any(op.adjoint().same_entries(q) for q in self.ops)
                   for op in self.ops)

    def with_adjoints(self) -> "StarFamily":
        names = list(self.names)
        ops = list(self.ops)
        for nm, op in zip(self.names, self.ops):
            adj = op.adjoint()
            if not any(adj.same_entries(q) for q in ops):
                names.append("%s*" % nm)
                ops.append(adj)
        return StarFamily(self.space, tuple(names), tuple(ops))


def _step_relation(fam: StarFamily, level: float = 1.0):
    """Directed one-step reachability: entries of modulus at least level."""
    nbr: dict = {}
    for op in fam.ops:
        for (x, y), val in op.entries.items():
            if abs(val) >= level:
                nbr.setdefault(x, set()).add(y)
    return nbr


def f_bounded(cover: Cover, fam: StarFamily, n_max: int) -> CheckReport:
    """Chain-boundedness of a cover against an operator family.

    Any two points of an element must be joined, inside the element, by a
    chain of at most n_max points whose consecutive pairs carry an entry of
    modulus at least one in some family member.  Reports the least such n.
    """
    if n_max < 1:
        raise InstanceError("chain budget must be at least one point")
    space = cover.space
    notes = ()
    if not fam.adjoint_closed:
        notes = ("family is not adjoint closed: chains are one-way",)
    nbr = _step_relation(fam)
    worst = 1
    for k, el in enumerate(cover.elements):
        pts = sorted(el)
        if len(pts) < 2:
            continue
        inside = el
        for src in pts:
            seen = {src: 1}
            frontier = [src]
            while frontier:
                nxt = []
                for u in frontier:
                    for v in nbr.get(u, ()):
                        if v in inside and v not in seen:
                            seen[v] = seen[u] + 1
                            nxt.append(v)
                frontier = nxt
            for dst in pts:
                if dst == src:
                    continue
                if dst not in seen:
                    return CheckReport(
                        "f_bounded", False,
                        counterexample={"element": cover.labels()[k],
                                        "pair": [space.points[src],
                                                 space.points[dst]],
                                        "reason": "no chain inside the element"},
                        notes=notes, truncation=truncation_label(space))
                worst = max(worst, seen[dst])
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
                if not p.entries:
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
    """d_a(x, y): euclidean distance between image columns."""
    m = a.dense()
    # columns are the images of the basis vectors
    diff = m[:, :, None] - m[:, None, :]
    return np.sqrt((np.abs(diff) ** 2).sum(axis=0))


def ss_from_algebra(a: OperatorMatrix, eps_grid) -> ScaleBase:
    """Ball covers of the column pseudometric along a descending grid."""
    eps = positive_grid(eps_grid, "eps grid")
    if any(x <= y for x, y in zip(eps, eps[1:])):
        raise InstanceError("eps grid must be strictly descending")
    d = column_pseudometric(a)
    covers = tuple(_ball_cover(a.space, d, e, "d_%s-balls" % a.name) for e in eps)
    warnings = []
    for x, y in zip(eps, eps[1:]):
        if y > x / 3:
            warnings.append("spacing %s -> %s above one third"
                            % (fmt_value(x), fmt_value(y)))
    return ScaleBase(a.space, covers, kind="ss", warnings=tuple(warnings))


def cstar_ss_membership(cover: Cover, fam: StarFamily, eps_grid) -> CheckReport:
    """Is the cover refined by some member's ball cover at some eps.

    A miss is only a miss for this family and grid; the report says so.
    """
    for nm, op in zip(fam.names, fam.ops):
        base = ss_from_algebra(op, eps_grid)
        for cov in base.covers:
            if refines(cover, cov):
                return CheckReport("cstar_ss_membership", True,
                                   witnesses=({"operator": nm,
                                               "balls": cov.name},),
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
    cols = []
    for v in phi.index:
        if not isinstance(v, (int, np.integer)) or not (0 <= int(v) < n):
            raise InstanceError("column label %r is not a point index" % (v,))
        cols.append(int(v))
    entries = {}
    for x in range(n):
        row = phi.weights[x]
        for j, w in enumerate(row):
            if w > 0:
                entries[(x, cols[j])] = entries.get((x, cols[j]), 0j) + w
    return OperatorMatrix(phi.space, entries, name="M_phi")


def pou_improve(phi: PartitionOfUnity, selection) -> tuple:
    """Merge columns onto selected points of their supports.

    selection[j] must be a point inside the support of column j.  The merged
    partition is indexed by the selected points; its supports are unions of
    old ones, and the union family provably refines the star family of the
    old supports.  Both facts are checked and reported.
    """
    pruned = phi.prune()
    sups = pruned.supports()
    sel = [int(s) for s in selection]
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
    coarsened = all(
        any(sups[j] <= t for t, p in zip(new_cover.elements, psi.index)
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
    if centers is None:
        centers = [min(el) for el in cover.elements]
    centers = [int(c) for c in centers]
    if len(centers) != len(cover.elements):
        raise InstanceError("one center per element")
    for c, el in zip(centers, cover.elements):
        if c not in el:
            raise InstanceError("center %s outside its element"
                                % cover.space.points[c])
    entries: dict = {}
    for el, c in zip(cover.elements, centers):
        for y in el:
            entries[(y, c)] = entries.get((y, c), 0j) + 1
    return OperatorMatrix(cover.space, entries, name="T")


def roe_comparison_tests(cover: Cover, r: float, n_max: int = 3,
                         centers=None) -> CheckReport:
    """Metric smallness against chain smallness for one cover.

    Elements must fit the r-entourage; the tally operator and its adjoint
    then chain any element in few points, and the diameter is pinned under
    (n - 1) * r.  The operator norm and the covering multiplicity come along
    for the record.
    """
    space = cover.space
    if space.d is None:
        raise InstanceError("comparison needs a metric")
    diams = []
    for el in cover.elements:
        idx = np.fromiter(el, dtype=np.int64)
        diams.append(float(space.d[np.ix_(idx, idx)].max()))
    if max(diams) > r:
        raise InstanceError("an element outgrows the r-entourage")
    t = chain_cover_operator(cover, centers)
    fam = StarFamily(space, ("T", "T*"), (t, t.adjoint()))
    rep = f_bounded(cover, fam, n_max)
    n = rep.witnesses[0]["n"] if rep.witnesses else n_max
    bound = (n - 1) * r
    holds = rep.status and max(diams) <= bound
    mult = int(cover.matrix.sum(axis=0).max())
    return CheckReport("roe_comparison", holds,
                       witnesses=({"n": n, "max_diam": fmt_value(max(diams)),
                                   "bound": fmt_value(bound),
                                   "norm": fmt_value(operator_norm(t)),
                                   "multiplicity": mult},),
                       counterexample=None if holds else rep.counterexample,
                       notes=("norm and multiplicity are informational",),
                       truncation=truncation_label(space))


def _row_jump(phi: PartitionOfUnity, el) -> float:
    """Largest sum-norm gap between the weight rows of an element."""
    rows = phi.weights[np.fromiter(el, dtype=np.int64)]
    return float(np.abs(rows[:, None, :] - rows[None, :, :]).sum(axis=2).max())


def ssp_witness_check(phi: PartitionOfUnity, base: ScaleBase, u: Cover,
                      eps_grid) -> CheckReport:
    """Small-scale continuity of the weight map plus support subordination.

    The weight rows must vary by at most eps in the sum norm along some base
    scale for each eps, and the support cover must be non-strictly smaller
    than the target cover.
    """
    witnesses = []
    for e in positive_grid(eps_grid, "eps grid"):
        hit = next((cov.name for cov in base.covers
                    if all(_row_jump(phi, el) <= e for el in cov.elements)), None)
        if hit is None:
            return CheckReport("ssp_witness", False,
                               witnesses=tuple(witnesses),
                               counterexample={"eps": e,
                                               "reason": "weight rows jump "
                                                         "past eps on every scale"},
                               truncation=truncation_label(phi.space))
        witnesses.append({"eps": e, "cover": hit})
    sub = smaller_or_equal(pou_support(phi), u)
    status = sub
    notes = () if sub else ("support cover is not smaller than the target",)
    return CheckReport("ssp_witness", status,
                       witnesses=tuple(witnesses) + ({"supports_smaller": sub},),
                       notes=notes, truncation=truncation_label(phi.space))
