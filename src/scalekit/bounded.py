"""Bounded structures: generated families, components, weak boundedness.

A structure is given by generators; the family it generates adds every
singleton, closes downward, and closes under unions of overlapping members.
On a finite carrier that family has a crisp normal form: a set is a member
iff it is a singleton or sits inside a single component, where components
are the union-find classes of the generator overlap graph.

Truncated instances need a second notion.  Literal weak boundedness (every
component trace a member) holds for every generated family on a finite
carrier, since each trace lies in one component, so it decides nothing;
the spaces the truncation stands for have sets that escape.  The declared
windows K_1 c ... c K_L are read from one int vector, ``Space.depth``:
depth[p] is the index of the first window holding p, or L past the top.  A
set fits the window of index j iff its greatest depth is at most j, so that
greatest depth names the set's home window, and L means it fits none.  Two
repairs, both labeled in reports:

* traces are grouped by the finite-distance classes of the metric when one
  is present, since the generator components shatter into singleton
  artifacts past the top window;
* a trace certifies as bounded only when it is a singleton or has no point
  of depth L, so a set reaching past every window stands for an escaping
  set and is refused.

Star probes get the stricter headroom rule: starring the top window spills
into the region the model cannot represent, so only windows strictly below
the top are starred.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .model import (BoolRows, InstanceError, Space, distinct_first, distinct_rows,
                    distinct_sorted, parse_points, table_blocks)
from .reports import CheckReport, truncation_label
from .scales import Cover, base_members, base_report, first, refines, star_set


# the refusal of a subset that is not a list of point indices of the carrier
_SUBSET = "subsets are lists of point indices of the carrier"


@dataclass(frozen=True, eq=False)
class ComponentPartition:
    """Point -> component id, as one read-only int vector; components are
    numbered by their minimal point."""
    ids: np.ndarray

    @cached_property
    def components(self) -> tuple[frozenset[int], ...]:
        """The components as point sets, in id order."""
        order = np.argsort(self.ids, kind="stable")
        cuts = np.flatnonzero(np.diff(self.ids[order])) + 1
        return tuple(frozenset(part.tolist()) for part in np.split(order, cuts))


def _partition(n: int, groups) -> ComponentPartition:
    """Union-find classes of the points once the points of each (nonempty)
    group are joined."""
    parent = list(range(n))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for g in groups:
        it = iter(g)
        root = find(next(it))
        for x in it:
            parent[find(x)] = root
    roots = np.fromiter((find(x) for x in range(n)), dtype=np.int64, count=n)
    # the first point of each class in load order is its minimal point
    _, lowest, ids = distinct_first(roots)
    ids = np.argsort(np.argsort(lowest))[ids]
    ids.setflags(write=False)
    return ComponentPartition(ids)


def _finite_distance_classes(space: Space) -> ComponentPartition:
    # transitive closure of finite distance, which holds even without the
    # triangle inequality; identical rows would add no unions
    if space.d.finite:  # every coordinate space short of an overflow
        ids = np.zeros(space.n, dtype=np.int64)
        ids.setflags(write=False)
        return ComponentPartition(ids)
    rows = distinct_rows(table_blocks(space.d, np.isfinite), space.n)
    return _partition(space.n, (r.tolist() for r in rows.lists()))


class BoundedStructure:
    """Family generated by subsets of one carrier plus all singletons."""

    def __init__(self, space: Space, generators, name: str = "bounded"):
        self.space = space
        self.name = name
        gens = []
        for g in generators:
            gs = frozenset(parse_points(g, space.n, _SUBSET).tolist())
            if not gs:
                raise InstanceError("empty generator")
            gens.append(gs)
        self.generators: tuple[frozenset[int], ...] = tuple(gens)
        self._partition = _partition(space.n, self.generators)
        self._ideal = None

    def components(self) -> ComponentPartition:
        return self._partition

    def ideal_components(self) -> ComponentPartition:
        """Finite-distance classes of the metric when present, else the
        generated components.

        The truncation of an unbounded space leaves points past the top
        window in singleton components; the metric still records which of
        them belong to one escaping direction.
        """
        if self._ideal is None:
            if self.space.d is None:
                self._ideal = self._partition
            else:
                self._ideal = _finite_distance_classes(self.space)
        return self._ideal

    def is_member(self, subset) -> bool:
        """Singleton, or inside one component."""
        ids = self._partition.ids[parse_points(subset, self.space.n, _SUBSET)]
        return ids.size <= 1 or ids.min() == ids.max()

    def __repr__(self):
        return "<BoundedStructure %s: %d generators, %d components>" % (
            self.name, len(self.generators), len(self._partition.components))


def from_filtration(space: Space) -> BoundedStructure:
    """Declared-bounded structure: generated by the filtration levels."""
    if space.filtration is None:
        raise InstanceError("space carries no filtration")
    return BoundedStructure(space, space.filtration.levels, name="filtration")


def from_metric(space: Space) -> BoundedStructure:
    """Structure of finite-diameter sets: one generator per finite-distance
    class, so infinite distances split components."""
    if space.d is None:
        raise InstanceError("space carries no metric")
    return BoundedStructure(space, _finite_distance_classes(space).components,
                            name="metric")


def check_axioms(b: BoundedStructure) -> CheckReport:
    """Singletons present, downward closure, overlapping unions absorbed."""
    space = b.space
    for x in range(space.n):
        if not b.is_member([x]):
            return CheckReport("check_axioms", False,
                               counterexample={"singleton": space.points[x]},
                               truncation=truncation_label(space))
    overlaps = 0
    for i, g in enumerate(b.generators):
        for j in range(i + 1, len(b.generators)):
            h = b.generators[j]
            if g & h:
                overlaps += 1
                if not b.is_member(g | h):
                    return CheckReport(
                        "check_axioms", False,
                        counterexample={"generators": [i, j],
                                        "reason": "overlapping union escapes the family"},
                        truncation=truncation_label(space))
    for comp in b.components().components:
        if not b.is_member(comp):
            return CheckReport("check_axioms", False,
                               counterexample={"component": sorted(comp),
                                               "reason": "component union escapes"},
                               truncation=truncation_label(space))
        if len(comp) >= 2:
            # downward closure probe: drop the minimal point
            sub = comp - {min(comp)}
            if not b.is_member(sub):
                return CheckReport("check_axioms", False,
                                   counterexample={"subset_of_component": sorted(sub)},
                                   truncation=truncation_label(space))
    return CheckReport(
        "check_axioms", True,
        witnesses=({"generators": len(b.generators),
                    "overlapping_pairs": overlaps,
                    "components": len(b.components().components)},),
        truncation=truncation_label(space))


def desk_weakly_bounded(subset, b: BoundedStructure) -> tuple[bool, dict]:
    """Truncation-aware weak boundedness.

    Traces along the ideal components must be singletons or fit inside some
    declared window; a trace with a point past the top window stands for an
    escaping set.  Without a filtration the model is taken as genuinely
    finite, where the literal notion holds: every trace lies in one
    component.
    """
    space = b.space
    idx = distinct_sorted(parse_points(subset, space.n, _SUBSET))
    if space.filtration is None:
        return True, {"mode": "literal", "verdict": True}
    ids = b.ideal_components().ids[idx]
    far = distinct_sorted(ids[space.depth[idx] == len(space.filtration)])
    bad = far[np.bincount(ids)[far] > 1]
    return not bad.size, {"mode": "truncation", "bad_ideal_components": bad.tolist()}


def star_probes(b: BoundedStructure) -> list[tuple[str, frozenset[int]]]:
    """Bounded sets whose stars the desk checks can certify.

    Windows strictly below the top only: starring the top window spills
    into the unrepresented region.  Unfiltered carriers probe their
    components.
    """
    space = b.space
    if space.filtration is None:
        return [("comp@%s" % space.points[min(c)], c)
                for c in b.components().components]
    return [("K%d" % (i + 1), k)
            for i, k in enumerate(space.filtration.levels[:-1])]


def witness_space(b: BoundedStructure) -> tuple[tuple[str, ...], np.ndarray]:
    """Deterministic catalogue of weakly bounded witness candidates: their
    names, and one read-only bool matrix with a row of points per witness.

    Filtered carriers: the empty set, the levels ascending, then each level
    joined with one window-compatible ideal component (levels outer,
    components by minimal point).  Unfiltered: empty set plus single
    components.
    """
    space = b.space
    filtered = space.filtration is not None
    ids = (b.ideal_components() if filtered else b.components()).ids
    # each component's minimal point is its first in load order
    lowest = distinct_first(ids)[1]
    members = ids == np.arange(lowest.size)[:, None]
    empty = np.zeros((1, space.n), dtype=bool)
    if not filtered:
        names = ("empty",) + tuple("comp@%s" % space.points[p] for p in lowest)
        w = np.vstack([empty, members])
    else:
        top, depth = len(space.filtration), space.depth
        deepest = np.zeros(lowest.size, dtype=np.int64)
        np.maximum.at(deepest, ids, depth)
        compatible = (np.bincount(ids) <= 1) | (deepest < top)
        windows = depth <= np.arange(top)[:, None]
        # (window, component) patches, windows outer, skipping a component
        # that the window already holds
        wi, ci = np.nonzero(compatible & (deepest > np.arange(top)[:, None]))
        names = (("empty",) + tuple("K%d" % (i + 1) for i in range(top))
                 + tuple("K%d+comp@%s" % (i + 1, space.points[lowest[c]])
                         for i, c in zip(wi, ci)))
        w = np.vstack([empty, windows, windows[wi] | members[ci]])
    w.setflags(write=False)
    return names, w


def uniformly_bounded(cover: Cover, ls_base) -> bool:
    """Every element sits inside some element of some base cover."""
    pool = base_members(ls_base, "a scale base needs at least one cover")
    return refines(cover, Cover(pool[0].space, BoolRows.stack([v.rows for v in pool]),
                                name="pooled-base"))


def check_proper(f_map, b_x: BoundedStructure, b_y: BoundedStructure) -> CheckReport:
    """Preimage of every member of the codomain family is a member.

    Members live inside components, so preimages of components decide.
    """
    f = _targets(f_map, b_x, b_y)
    witnesses = []
    for cid, comp in enumerate(b_y.components().components):
        mask = np.isin(f, sorted(comp))
        pre = frozenset(np.flatnonzero(mask).tolist())
        if not b_x.is_member(pre):
            return CheckReport(
                "check_proper", False,
                counterexample={"codomain_component": cid,
                                "preimage_size": len(pre),
                                "sample": [b_x.space.points[i]
                                           for i in sorted(pre)[:4]]},
                truncation=truncation_label(b_x.space))
        witnesses.append({"codomain_component": cid, "preimage_size": len(pre)})
    return CheckReport("check_proper", True, witnesses=tuple(witnesses),
                       truncation=truncation_label(b_x.space))


def _targets(f_map, b_x: BoundedStructure, b_y: BoundedStructure) -> np.ndarray:
    """A map from the carrier of b_x to that of b_y as its array of targets."""
    f = parse_points(f_map, b_y.space.n, lambda k, outside: (
        "map target out of range" if outside else "map targets must be point indices"))
    if f.shape != (b_x.space.n,):
        raise InstanceError("map must assign one codomain index per domain point")
    return f


def _bounded_image(f: np.ndarray, b_x: BoundedStructure, b_y: BoundedStructure):
    for cid, comp in enumerate(b_x.components().components):
        img = frozenset(int(f[i]) for i in comp)
        if not b_y.is_member(img):
            return False, {"domain_component": cid, "image_size": len(img)}
    return True, None


def lemma_wb_test(f_map, b_x: BoundedStructure, b_y: BoundedStructure) -> CheckReport:
    """Proper maps with bounded images pull weakly bounded sets back to
    weakly bounded sets; without the image hypothesis the conclusion is
    allowed to fail, and the failure pattern is exhibited.
    """
    f = _targets(f_map, b_x, b_y)
    proper = check_proper(f, b_x, b_y)
    img_ok, img_bad = _bounded_image(f, b_x, b_y)
    notes = ["literal weak boundedness is automatic on finite generated "
             "families; the desk certificate carries the content"]
    if proper.status and img_ok:
        names, w = witness_space(b_y)
        held = [k for k, row in enumerate(w)
                if desk_weakly_bounded(np.flatnonzero(row), b_y)[0]]
        # row k of w[:, f] is the preimage of witness k
        pulled = ((names[k], desk_weakly_bounded(np.flatnonzero(pre), b_x))
                  for k, pre in zip(held, w[held][:, f]))
        bad = next(((name, detail) for name, (ok, detail) in pulled if not ok), None)
        if bad is not None:
            return CheckReport("lemma_wb_test", False,
                               counterexample={"witness": bad[0], "desk_detail": bad[1]},
                               truncation=truncation_label(b_x.space))
        return CheckReport("lemma_wb_test", True,
                           witnesses=({"hypotheses": "proper+bounded-image",
                                       "witnesses_checked": len(held)},),
                           notes=tuple(notes),
                           truncation=truncation_label(b_x.space))
    # hypothesis failure: document the counterexample pattern
    wb_y, _ = desk_weakly_bounded(np.arange(b_y.space.n), b_y)
    wb_x, detail_x = desk_weakly_bounded(np.arange(b_x.space.n), b_x)
    notes.append("hypothesis failed: %s" % (
        "image of a bounded set escapes" if proper.status else "map not proper"))
    return CheckReport(
        "lemma_wb_test", True,
        witnesses=({"hypothesis_proper": proper.status,
                    "hypothesis_bounded_image": img_ok,
                    "image_failure": img_bad,
                    "carrier_desk_wb_in_codomain": wb_y,
                    "carrier_preimage_desk_wb_in_domain": wb_x,
                    "domain_desk_detail": detail_x},),
        notes=tuple(notes),
        truncation=truncation_label(b_x.space))


def st_weakly_bounded_test(subset, cover: Cover, b: BoundedStructure,
                           ls_base) -> CheckReport:
    """Stars of weakly bounded sets along uniformly bounded covers stay
    weakly bounded; also replays the component-wise star identity when no
    element straddles components.
    """
    space = b.space
    if cover.space is not space:
        raise InstanceError("cover does not live on the structure's carrier")
    if not uniformly_bounded(cover, ls_base):
        raise InstanceError("cover is not uniformly bounded in the given base")
    s = frozenset(parse_points(subset, space.n, _SUBSET).tolist())
    st = star_set(s, cover)
    idx = np.fromiter(st, dtype=np.int64, count=len(st))
    desk, detail = desk_weakly_bounded(idx, b)
    lo, hi = cover.value_range(b.components().ids)
    straddlers = np.flatnonzero(lo != hi)
    straddler = int(straddlers[0]) if straddlers.size else None
    identity = None
    if straddler is None:
        identity = True
        for cid, comp in enumerate(b.components().components):
            lhs = st & comp
            rhs = star_set(s & comp, cover) if s & comp else frozenset()
            if lhs != rhs:
                identity = False
                break
    notes = []
    if straddler is not None:
        notes.append("component identity skipped: element %d straddles" % straddler)
    # an empty star fits the first window; unfiltered spaces have none
    home = int(space.depth[idx].max(initial=0))
    top = 0 if space.filtration is None else len(space.filtration)
    level_home = "K%d" % (home + 1) if home < top else None
    status = desk and (identity is not False)
    return CheckReport(
        "st_weakly_bounded_test", status,
        witnesses=({"star_size": len(st), "star_inside": level_home,
                    "componentwise_identity": identity,
                    "desk_detail": detail},),
        counterexample=None if status else {"desk_detail": detail,
                                            "componentwise_identity": identity},
        notes=tuple(notes), truncation=truncation_label(space))


def proper_hss_test(b: BoundedStructure, ss_base) -> CheckReport:
    """Some base scale keeps stars of bounded sets bounded.

    Filtered carriers quantify over headroom levels (downward closure covers
    the rest); finite carriers quantify over components.
    """
    space = b.space
    covers = base_members(ss_base, "a scale base needs at least one cover")
    if covers[0].space is not space:
        raise InstanceError("the base does not live on the structure's carrier")
    probes = star_probes(b)

    def spill(u):
        """The first probe whose star along u is no member, with the star's
        size; None when every star is a member."""
        stars = ((name, star_set(p, u)) for name, p in probes)
        return next(((name, len(st)) for name, st in stars if not b.is_member(st)), None)

    hit = first(enumerate(covers), lambda u: spill(u) is None)
    # no cover passing, the scan ended on the last one
    cx = None if hit is not None else dict(
        zip(("cover", "probe", "star_size"), (len(covers) - 1, *spill(covers[-1]))))
    return base_report("proper_hss_test", space, (),
                       [({"probes": len(probes)}, "cover", hit, cx)])


def proper_hls_test(b: BoundedStructure, ls_base, covers) -> CheckReport:
    """Bounded family matches the declared windows, and some supplied open
    cover is uniformly bounded in the base."""
    space = b.space
    if space.filtration is None:
        return CheckReport("proper_hls_test", False,
                           counterexample={"reason": "no filtration declared"},
                           truncation=truncation_label(space))
    declared = set(space.filtration.levels)
    if set(b.generators) != declared:
        return CheckReport("proper_hls_test", False,
                           counterexample={"reason": "family differs from declared windows"},
                           truncation=truncation_label(space))
    hit = first((({"open_cover": ci, "name": u.name}, u) for ci, u in enumerate(covers)),
                lambda u: u.open_flag and uniformly_bounded(u, ls_base))
    if hit is not None:
        return CheckReport("proper_hls_test", True, witnesses=(hit,),
                           truncation=truncation_label(space))
    return CheckReport("proper_hls_test", False,
                       counterexample={"reason": "no open uniformly bounded cover"},
                       truncation=truncation_label(space))
