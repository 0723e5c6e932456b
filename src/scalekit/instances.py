"""Instance documents: parsing, validation, bundled lookup, round trips.

A document is a plain JSON object.  Mandatory: "points".  Optional blocks:
"metric" (kinds table, line, grid; the string "inf" marks infinite
distances), "filtration" (level sets, labels or indices), "covers",
"functions" (values or [re, im] pairs), "operators" (triplet lists),
"maps" (one target per point), "entourages" (pair lists), "group"
(multiplication table), and "catalogues" (tag lists of function names).
Anything malformed raises InstanceError with the offending key.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .algebra_comm import FunctionFamily
from .algebra_noncomm import OperatorMatrix
from .entourages import Entourage
from .model import Filtration, InstanceError, Space
from .scales import Cover


@dataclass
class InstanceCatalogue:
    """Named payloads that travel with a carrier."""

    covers: dict = field(default_factory=dict)
    functions: dict = field(default_factory=dict)
    operators: dict = field(default_factory=dict)
    maps: dict = field(default_factory=dict)
    entourages: dict = field(default_factory=dict)
    tags: dict = field(default_factory=dict)

    def family(self, space: Space, names=None) -> FunctionFamily:
        """Assemble a function family; all functions when names is None."""
        if names is None:
            names = tuple(self.functions)
        names = tuple(names)
        if not names:
            raise InstanceError("instance carries no functions")
        rows = []
        for nm in names:
            if nm not in self.functions:
                raise InstanceError("no function named %r" % nm)
            rows.append(self.functions[nm])
        cai = set(self.tags.get("constant_at_infinity", ()))
        return FunctionFamily(space, names, np.vstack(rows),
                              constant_at_infinity=bool(names) and set(names) <= cai)


def _subset(index: dict, raw, where: str) -> frozenset:
    """Point labels or indices of a carrier (``index``: label -> index)."""
    out = set()
    for v in raw:
        if isinstance(v, str):
            if v not in index:
                raise InstanceError("%s: unknown point label %r" % (where, v))
            out.add(index[v])
        elif isinstance(v, (int, np.integer)) and not isinstance(v, bool):
            if not (0 <= int(v) < len(index)):
                raise InstanceError("%s: point index %d out of range" % (where, int(v)))
            out.add(int(v))
        else:
            raise InstanceError("%s: points are labels or indices, got %r"
                                % (where, v))
    return frozenset(out)


def _parse_metric(block, points):
    n = len(points)
    if not isinstance(block, dict) or "kind" not in block:
        raise InstanceError("metric block needs a kind")
    kind = block["kind"]
    if kind == "line":
        coords = [float(c) for c in block["coords"]]
        if len(coords) != n:
            raise InstanceError("metric: one coordinate per point")
        arr = np.asarray(coords)
        return np.abs(np.subtract.outer(arr, arr)), "line", tuple(coords)
    if kind == "grid":
        coords = [(float(a), float(b)) for a, b in block["coords"]]
        if len(coords) != n:
            raise InstanceError("metric: one coordinate pair per point")
        arr = np.asarray(coords)
        d = np.max(np.abs(arr[:, None, :] - arr[None, :, :]), axis=2)
        return d, "grid", tuple(coords)
    if kind == "table":
        rows = block["distances"]
        if len(rows) != n or any(len(r) != n for r in rows):
            raise InstanceError("metric: distance table must be %d x %d" % (n, n))
        d = np.empty((n, n))
        for i, row in enumerate(rows):
            for j, v in enumerate(row):
                if v == "inf":
                    d[i, j] = math.inf
                else:
                    d[i, j] = float(v)
        return d, "table", None
    raise InstanceError("unknown metric kind %r" % kind)


def _parse_function(raw, n, where: str) -> np.ndarray:
    if len(raw) != n:
        raise InstanceError("%s: one value per point" % where)
    out = np.empty(n, dtype=complex)
    for i, v in enumerate(raw):
        if isinstance(v, (list, tuple)):
            if len(v) != 2:
                raise InstanceError("%s: complex values are [re, im]" % where)
            out[i] = complex(float(v[0]), float(v[1]))
        else:
            out[i] = complex(float(v), 0.0)
    if not np.isfinite(out).all():
        raise InstanceError("%s: values must be finite" % where)
    return out


def load_space(document) -> tuple:
    """Document to (Space, InstanceCatalogue)."""
    if not isinstance(document, dict):
        raise InstanceError("instance document must be an object")
    if "points" not in document:
        raise InstanceError("instance document needs points")
    points = [str(p) for p in document["points"]]
    metric = kind = coords = None
    if "metric" in document:
        metric, kind, coords = _parse_metric(document["metric"], points)
    filtration = None
    if "filtration" in document:
        index = {p: i for i, p in enumerate(points)}
        levels = tuple(_subset(index, lv, "filtration level %d" % i)
                       for i, lv in enumerate(document["filtration"]))
        filtration = Filtration(levels)
    group_table = None
    if "group" in document:
        block = document["group"]
        if not isinstance(block, dict) or "table" not in block:
            raise InstanceError("group block needs a table")
        group_table = tuple(tuple(int(v) for v in row) for row in block["table"])
    space = Space(points, metric=metric, metric_kind=kind, coords=coords,
                  filtration=filtration, group_table=group_table)
    cat = InstanceCatalogue()
    for nm, raw in document.get("covers", {}).items():
        open_flag = False
        elements = raw
        if isinstance(raw, dict):
            elements = raw.get("elements")
            open_flag = bool(raw.get("open", False))
            if elements is None:
                raise InstanceError("cover %r: object form needs elements" % nm)
        els = [_subset(space.index, e, "cover %r element %d" % (nm, k))
               for k, e in enumerate(elements)]
        cat.covers[nm] = Cover(space, els, name=nm, open_flag=open_flag)
    for nm, raw in document.get("functions", {}).items():
        cat.functions[nm] = _parse_function(raw, space.n, "function %r" % nm)
    for nm, raw in document.get("operators", {}).items():
        if not isinstance(raw, dict) or "triplets" not in raw:
            raise InstanceError("operator %r needs triplets" % nm)
        cat.operators[nm] = OperatorMatrix.from_triplets(space, raw["triplets"],
                                                         name=nm)
    for nm, raw in document.get("maps", {}).items():
        if len(raw) != space.n:
            raise InstanceError("map %r: one target per point" % nm)
        tgt = [next(iter(_subset(space.index, [v], "map %r" % nm))) for v in raw]
        cat.maps[nm] = np.asarray(tgt, dtype=np.int64)
    for nm, raw in document.get("entourages", {}).items():
        pairs = set()
        for k, pair in enumerate(raw):
            if len(pair) != 2:
                raise InstanceError("entourage %r row %d is not a pair" % (nm, k))
            x = next(iter(_subset(space.index, [pair[0]], "entourage %r" % nm)))
            y = next(iter(_subset(space.index, [pair[1]], "entourage %r" % nm)))
            pairs.add((x, y))
        cat.entourages[nm] = Entourage(space, pairs)
    for tag, names in document.get("catalogues", {}).items():
        cat.tags[str(tag)] = tuple(str(v) for v in names)
    return space, cat


def load_path(path) -> tuple:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            try:
                doc = json.load(fh)
            except json.JSONDecodeError as exc:
                raise InstanceError("not valid JSON: %s" % exc) from exc
    except OSError as exc:
        raise InstanceError("cannot read %s: %s" % (path, exc)) from exc
    return load_space(doc)


def save_instance(space: Space, cat: InstanceCatalogue | None = None) -> dict:
    """Document for a carrier and its payloads; loads back to equal objects."""
    doc = space.to_document()
    if cat is None:
        return doc
    if cat.covers:
        doc["covers"] = {
            nm: {"elements": [sorted(space.points[i] for i in el)
                              for el in cov.elements],
                 "open": cov.open_flag}
            for nm, cov in cat.covers.items()}
    if cat.functions:
        doc["functions"] = {
            nm: [[float(v.real), float(v.imag)] for v in vals]
            for nm, vals in cat.functions.items()}
    if cat.operators:
        doc["operators"] = {
            nm: {"triplets": [[y, x, val.real, val.imag]
                              for (x, y), val in sorted(op.entries.items())]}
            for nm, op in cat.operators.items()}
    if cat.maps:
        doc["maps"] = {nm: [int(v) for v in tgt] for nm, tgt in cat.maps.items()}
    if cat.entourages:
        doc["entourages"] = {nm: [[x, y] for x, y in e.sorted_pairs()]
                             for nm, e in cat.entourages.items()}
    if cat.tags:
        doc["catalogues"] = {tag: list(names) for tag, names in cat.tags.items()}
    return doc


def bundled(name: str) -> tuple:
    """Carrier plus standard payloads for the shipped instance names."""
    from . import catalogues as cats
    if name == "halfline":
        space = cats.halfline()
        cat = InstanceCatalogue()
        cat.covers["shrink"] = cats.shrink_cover()
        cat.covers["unit"] = cats.unit_cover()
        fam = cats.membership_catalogue()
        for nm, row in zip(fam.names, fam.values):
            cat.functions[nm] = row
        waves = cats.oscillation_family()
        for nm, row in zip(waves.names, waves.values):
            cat.functions.setdefault(nm, row)
        smooth = cats.smooth_catalogue()
        cat.tags["constant_at_infinity"] = smooth.names
        return space, cat
    if name == "truncnat":
        space = cats.trunc_nat()
        cat = InstanceCatalogue()
        for nm, cov, _ in cats.t75_catalogue():
            cat.covers[nm] = cov
        cat.covers["wide-pairs"] = cats.wide_pairs_cover()
        fam = cats.constant_at_infinity_family()
        for nm, row in zip(fam.names, fam.values):
            cat.functions[nm] = row
        cat.tags["constant_at_infinity"] = fam.names
        return space, cat
    if name == "line20":
        space = cats.line20()
        cat = InstanceCatalogue()
        from .algebra_noncomm import OperatorMatrix
        from .scales import Cover
        vals = space.values()
        blocks = [frozenset(np.flatnonzero((vals >= 5 * k)
                                           & (vals <= 5 * k + 4)).tolist())
                  for k in range(4)]
        blocks.append(frozenset({space.n - 1}))
        cat.covers["fives"] = Cover(space, tuple(blocks), name="fives")
        n = space.n
        cat.functions["one"] = np.ones(n, dtype=complex)
        cat.functions["parity"] = (vals % 2).astype(complex)
        cat.functions["ramp"] = (vals / 20.0).astype(complex)
        cat.functions["step"] = (vals >= 10).astype(complex)
        cat.operators["shift"] = OperatorMatrix(
            space, {(x, x + 1): 1.0 for x in range(n - 1)}, name="shift")
        return space, cat
    if name == "grid5":
        return cats.grid5(), InstanceCatalogue()
    if name == "grid6":
        space = cats.grid6()
        cat = InstanceCatalogue()
        from .scales import Cover
        horiz = [space.subset(["%d,%d" % (i, 2 * k), "%d,%d" % (i, 2 * k + 1)])
                 for i in range(6) for k in range(3)]
        vert = [space.subset(["%d,%d" % (2 * k, j), "%d,%d" % (2 * k + 1, j)])
                for k in range(3) for j in range(6)]
        cat.covers["dominoes-h"] = Cover(space, tuple(horiz), name="dominoes-h")
        cat.covers["dominoes-v"] = Cover(space, tuple(vert), name="dominoes-v")
        return space, cat
    raise InstanceError("no bundled instance named %r" % name)


BUNDLED_NAMES = ("halfline", "truncnat", "line20", "grid5", "grid6")
