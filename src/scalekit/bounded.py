"""Bounded structures: generated families, components, weak boundedness.

A structure is given by generators; the family it generates adds every
singleton, closes downward, and closes under unions of overlapping members.
On a finite carrier that family has a crisp normal form: a set is a member
iff it is a singleton or sits inside a single component, where components
are the union-find classes of the generator overlap graph.

Truncated instances need a second notion.  Literal weak boundedness (every
component trace a member) is automatic for generated families on finite
carriers, while the spaces the truncation stands for have sets that escape.
Two repairs, both labeled in reports:

* traces are grouped by the finite-distance classes of the metric when one
  is present, since the generator components shatter into singleton
  artifacts past the top window;
* a trace certifies as bounded only when it is a singleton or fits inside
  some declared window, so a set reaching past every window stands for an
  escaping set and is refused.

Star probes get the stricter headroom rule: starring the top window spills
into the region the model cannot represent, so only windows strictly below
the top are starred.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import Filtration, InstanceError, Space
from .reports import CheckReport, truncation_label
from .scales import Cover, _distinct_rows, star_set


def _as_subset(space: Space, subset) -> frozenset[int]:
    s = frozenset(int(x) for x in subset)
    for x in s:
        if not (0 <= x < space.n):
            raise InstanceError("point index %d out of range" % x)
    return s


@dataclass(frozen=True)
class ComponentPartition:
    """Point -> component id; components listed by minimal point."""
    components: tuple[frozenset[int], ...]
    ids: tuple[int, ...]

    @property
    def one_component(self) -> bool:
        return len(self.components) == 1


def _partition_from_sets(space: Space, sets) -> ComponentPartition:
    comps = sorted(sets, key=min)
    ids = [0] * space.n
    for cid, comp in enumerate(comps):
        for x in comp:
            ids[x] = cid
    return ComponentPartition(tuple(comps), tuple(ids))


def _components(n: int, groups) -> list[frozenset[int]]:
    """Union-find classes of the points once the points of each (nonempty)
    group are joined; listed by minimal point."""
    parent = list(range(n))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for g in groups:
        it = iter(g)
        first = find(next(it))
        for x in it:
            parent[find(x)] = first
    buckets: dict[int, set[int]] = {}
    for x in range(n):
        buckets.setdefault(find(x), set()).add(x)
    return [frozenset(b) for b in buckets.values()]


def _finite_distance_classes(space: Space) -> list[frozenset[int]]:
    # transitive closure of finite distance, which holds even without the
    # triangle inequality; identical rows would add no unions
    rows = _distinct_rows(np.isfinite(space.d))
    return _components(space.n, (np.flatnonzero(r).tolist() for r in rows))


class BoundedStructure:
    """Family generated by subsets of one carrier plus all singletons."""

    def __init__(self, space: Space, generators, name: str = "bounded"):
        self.space = space
        self.name = name
        gens = []
        for g in generators:
            gs = _as_subset(space, g)
            if not gs:
                raise InstanceError("empty generator")
            gens.append(gs)
        self.generators: tuple[frozenset[int], ...] = tuple(gens)
        self._partition = _partition_from_sets(
            space, _components(space.n, self.generators))
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
                self._ideal = _partition_from_sets(
                    self.space, _finite_distance_classes(self.space))
        return self._ideal

    def is_member(self, subset) -> bool:
        """Singleton, or inside one component."""
        s = _as_subset(self.space, subset)
        if len(s) <= 1:
            return True
        ids = {self._partition.ids[x] for x in s}
        return len(ids) == 1

    def traces(self, subset) -> list[tuple[int, frozenset[int]]]:
        """Nonempty component traces of the subset, by component id."""
        s = _as_subset(self.space, subset)
        out: dict[int, set[int]] = {}
        for x in s:
            out.setdefault(self._partition.ids[x], set()).add(x)
        return [(cid, frozenset(t)) for cid, t in sorted(out.items())]

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
    return BoundedStructure(space, _finite_distance_classes(space),
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


def is_weakly_bounded(subset, b: BoundedStructure) -> bool:
    """Every component trace is a member.

    On finite carriers with generated families this is automatic (traces sit
    inside their components); kept literal for the record, the informative
    desk notion is desk_weakly_bounded.
    """
    return all(b.is_member(t) for _, t in b.traces(subset))


def _ideal_traces(b: BoundedStructure, subset) -> list[tuple[int, frozenset[int]]]:
    s = _as_subset(b.space, subset)
    part = b.ideal_components()
    out: dict[int, set[int]] = {}
    for x in s:
        out.setdefault(part.ids[x], set()).add(x)
    return [(cid, frozenset(t)) for cid, t in sorted(out.items())]


def desk_weakly_bounded(subset, b: BoundedStructure) -> tuple[bool, dict]:
    """Truncation-aware weak boundedness.

    Traces along the ideal components must be singletons or fit inside some
    declared window; a trace past every window stands for an escaping set.
    Without a filtration the model is taken as genuinely finite and the
    literal notion is used.
    """
    space = b.space
    if space.filtration is None:
        ok = is_weakly_bounded(subset, b)
        return ok, {"mode": "literal", "verdict": ok}
    levels = space.filtration.levels
    bad = []
    for cid, t in _ideal_traces(b, subset):
        if len(t) <= 1:
            continue
        if any(t <= k for k in levels):
            continue
        bad.append(cid)
    detail = {"mode": "truncation", "bad_ideal_components": bad}
    return not bad, detail


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


def witness_space(b: BoundedStructure) -> list[tuple[str, frozenset[int]]]:
    """Deterministic catalogue of weakly bounded witness candidates.

    Filtered carriers: the empty set, the levels ascending, then each level
    joined with one window-compatible ideal component (levels outer,
    components by minimal point).  Unfiltered: empty set plus single
    components.
    """
    space = b.space
    out: list[tuple[str, frozenset[int]]] = [("empty", frozenset())]
    if space.filtration is None:
        for comp in b.components().components:
            out.append(("comp@%s" % space.points[min(comp)], comp))
        return out
    levels = space.filtration.levels
    for i, k in enumerate(levels):
        out.append(("K%d" % (i + 1), k))
    comps = b.ideal_components().components
    compatible = [c for c in comps
                  if len(c) <= 1 or any(c <= k for k in levels)]
    for i, k in enumerate(levels):
        for comp in compatible:
            if comp <= k:
                continue
            out.append(("K%d+comp@%s" % (i + 1, space.points[min(comp)]),
                        k | comp))
    return out


def uniformly_bounded(cover: Cover, ls_base) -> bool:
    """Every element sits inside some element of some base cover."""
    from .scales import _covers, refines
    pool = [v.matrix for v in _covers(ls_base)]
    return refines(cover, Cover(cover.space, np.vstack(pool) if pool else pool,
                                name="pooled-base"))


def check_proper(f_map, b_x: BoundedStructure, b_y: BoundedStructure) -> CheckReport:
    """Preimage of every member of the codomain family is a member.

    Members live inside components, so preimages of components decide.
    """
    f = np.asarray(f_map, dtype=np.int64)
    if f.shape != (b_x.space.n,):
        raise InstanceError("map must assign one codomain index per domain point")
    if f.min() < 0 or f.max() >= b_y.space.n:
        raise InstanceError("map target out of range")
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


def _bounded_image(f, b_x: BoundedStructure, b_y: BoundedStructure):
    f = np.asarray(f, dtype=np.int64)
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
    f = np.asarray(f_map, dtype=np.int64)
    proper = check_proper(f, b_x, b_y)
    img_ok, img_bad = _bounded_image(f, b_x, b_y)
    notes = ["literal weak boundedness is automatic on finite generated "
             "families; the desk certificate carries the content"]
    if proper.status and img_ok:
        checked = 0
        for wname, w in witness_space(b_y):
            ok_y, _ = desk_weakly_bounded(w, b_y)
            if not ok_y:
                continue
            pre = frozenset(np.flatnonzero(np.isin(f, sorted(w))).tolist())
            if not is_weakly_bounded(pre, b_x):
                return CheckReport("lemma_wb_test", False,
                                   counterexample={"witness": wname,
                                                   "reason": "literal conclusion fails"},
                                   truncation=truncation_label(b_x.space))
            ok_x, detail = desk_weakly_bounded(pre, b_x)
            if not ok_x:
                return CheckReport("lemma_wb_test", False,
                                   counterexample={"witness": wname,
                                                   "desk_detail": detail},
                                   truncation=truncation_label(b_x.space))
            checked += 1
        return CheckReport("lemma_wb_test", True,
                           witnesses=({"hypotheses": "proper+bounded-image",
                                       "witnesses_checked": checked},),
                           notes=tuple(notes),
                           truncation=truncation_label(b_x.space))
    # hypothesis failure: document the counterexample pattern
    carrier_y = frozenset(range(b_y.space.n))
    carrier_x = frozenset(range(b_x.space.n))
    wb_y, _ = desk_weakly_bounded(carrier_y, b_y)
    wb_x, detail_x = desk_weakly_bounded(carrier_x, b_x)
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
    s = _as_subset(space, subset)
    st = star_set(s, cover)
    literal = is_weakly_bounded(st, b)
    desk, detail = desk_weakly_bounded(st, b)
    ids = b.components().ids
    straddler = next((k for k, el in enumerate(cover.elements)
                      if len({ids[x] for x in el}) > 1), None)
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
    levels = space.filtration.levels if space.filtration is not None else ()
    level_home = next(("K%d" % (i + 1) for i, k in enumerate(levels) if st <= k), None)
    status = literal and desk and (identity is not False)
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
    from .scales import _covers
    space = b.space
    probes = star_probes(b)
    covers = _covers(ss_base)
    last_fail = None
    for ci, u in enumerate(covers):
        ok = True
        for pname, p in probes:
            st = star_set(p, u)
            if not b.is_member(st):
                ok = False
                last_fail = {"cover": ci, "probe": pname, "star_size": len(st)}
                break
        if ok:
            return CheckReport("proper_hss_test", True,
                               witnesses=({"cover": ci, "probes": len(probes)},),
                               truncation=truncation_label(space))
    return CheckReport("proper_hss_test", False,
                       counterexample=last_fail or {"reason": "empty base"},
                       truncation=truncation_label(space))


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
    for ci, u in enumerate(covers):
        if u.open_flag and uniformly_bounded(u, ls_base):
            return CheckReport("proper_hls_test", True,
                               witnesses=({"open_cover": ci, "name": u.name},),
                               truncation=truncation_label(space))
    return CheckReport("proper_hls_test", False,
                       counterexample={"reason": "no open uniformly bounded cover"},
                       truncation=truncation_label(space))
