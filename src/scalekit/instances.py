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
from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import chain
from typing import TYPE_CHECKING

import numpy as np

from .model import COORD_KINDS, InstanceError, Space, check_group_table, parse_points
from .scales import Cover

if TYPE_CHECKING:
    from .algebra_comm import FunctionFamily


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
        from .algebra_comm import FunctionFamily
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


def _listed(raw, where: str):
    """``raw``, checked to be a list."""
    if not isinstance(raw, (list, tuple)):
        raise InstanceError("%s must be a list" % where)
    return raw


def _block(document: dict, key: str) -> dict:
    """The optional object under ``key``, empty when absent."""
    raw = document.get(key, {})
    if not isinstance(raw, dict):
        raise InstanceError("%s must be an object" % key)
    return raw


def _point_rows(index: dict, rows, where) -> list:
    """Each row of point labels or indices of a carrier (``index``: label ->
    index) as a list of indices, all rows parsed in one pass; ``where(k)``
    names row k in errors."""
    for k, r in enumerate(rows):
        if not isinstance(r, (list, tuple)):
            _listed(r, where(k))  # raises
    flat = list(chain.from_iterable(rows))
    starts = np.cumsum([0] + [len(r) for r in rows]).tolist()

    def error(t: int, outside: bool) -> str:
        v = flat[t]
        text = ("unknown point label %r" if isinstance(v, str) else
                "point index %d out of range" if outside else
                "points are labels or indices, got %r")
        return "%s: %s" % (where(bisect_right(starts, t) - 1), text % (v,))

    # an unknown label stays a string, which the parser refuses
    points = parse_points([index.get(v, v) if isinstance(v, str) else v for v in flat],
                          len(index), error).tolist()
    return [points[a:b] for a, b in zip(starts, starts[1:])]


def _coords(block, n: int) -> tuple:
    """Finite coordinates of a line or grid block, one per point: a number
    on a line, an [a, b] integer pair on a grid."""
    if "coords" not in block:
        raise InstanceError("metric: kind %r needs coords" % block["kind"])
    raw = block["coords"]
    width = COORD_KINDS[block["kind"]]
    what = "numbers" if width == 1 else "[a, b] number pairs"
    if not isinstance(raw, (list, tuple)) or (width == 2 and not all(
            isinstance(c, (list, tuple)) and len(c) == 2 for c in raw)):
        raise InstanceError("metric: coords must be a list of %s" % what)
    if len(raw) != n:
        raise InstanceError("metric: one coordinate per point")
    try:
        coords = ([float(c) for c in raw] if width == 1
                  else [(float(a), float(b)) for a, b in raw])
    except (TypeError, ValueError, OverflowError) as exc:
        raise InstanceError("metric: coords must be a list of %s" % what) from exc
    if not np.isfinite(coords).all():
        raise InstanceError("metric: coords must be finite")
    if width == 2 and (np.mod(coords, 1) != 0).any():
        raise InstanceError("metric: grid coords must be integers")
    return tuple(coords)


def _parse_metric(block, points):
    n = len(points)
    if not isinstance(block, dict) or "kind" not in block:
        raise InstanceError("metric block needs a kind")
    kind = block["kind"]
    if isinstance(kind, str) and kind in COORD_KINDS:
        return None, kind, _coords(block, n)
    if kind == "table":
        if "distances" not in block:
            raise InstanceError("metric: kind 'table' needs distances")
        rows = block["distances"]
        try:
            square = len(rows) == n and all(len(r) == n for r in rows)
        except TypeError as exc:
            raise InstanceError("metric: distance table rows must be lists") from exc
        if not square:
            raise InstanceError("metric: distance table must be %d x %d" % (n, n))
        try:
            d = np.array([[math.inf if v == "inf" else float(v) for v in row]
                          for row in rows], dtype=float).reshape(n, n)
        except (TypeError, ValueError, OverflowError) as exc:
            raise InstanceError('metric: distances must be numbers or "inf"') from exc
        if np.isnan(d).any():
            raise InstanceError("metric: distances must not be NaN")
        return d, "table", None
    raise InstanceError("unknown metric kind %r" % kind)


def _parse_function(raw, n, where: str) -> np.ndarray:
    if len(_listed(raw, where)) != n:
        raise InstanceError("%s: one value per point" % where)
    out = np.empty(n, dtype=complex)
    for i, v in enumerate(raw):
        pair = isinstance(v, (list, tuple))
        if pair and len(v) != 2:
            raise InstanceError("%s: complex values are [re, im]" % where)
        try:
            out[i] = complex(float(v[0]), float(v[1])) if pair else float(v)
        except (TypeError, ValueError, OverflowError) as exc:
            raise InstanceError("%s: values must be numbers or [re, im] pairs"
                                % where) from exc
    if not np.isfinite(out).all():
        raise InstanceError("%s: values must be finite" % where)
    return out


def load_space(document) -> tuple:
    """Document to (Space, InstanceCatalogue)."""
    if not isinstance(document, dict):
        raise InstanceError("instance document must be an object")
    if "points" not in document:
        raise InstanceError("instance document needs points")
    points = [str(p) for p in _listed(document["points"], "points")]
    metric = kind = coords = None
    if "metric" in document:
        metric, kind, coords = _parse_metric(document["metric"], points)
    filtration = None
    if "filtration" in document:
        index = {p: i for i, p in enumerate(points)}
        # Space checks that the levels form a chain
        filtration = _point_rows(index, _listed(document["filtration"], "filtration"),
                                 lambda i: "filtration level %d" % i)
    group_table = None
    if "group" in document:
        block = document["group"]
        if not isinstance(block, dict) or "table" not in block:
            raise InstanceError("group block needs a table")
        group_table, _ = check_group_table(block["table"])
        if len(group_table) != len(points):
            raise InstanceError("group table needs one row per point")
    space = Space(points, metric=metric, metric_kind=kind, coords=coords,
                  filtration=filtration, group_table=group_table)
    cat = InstanceCatalogue()
    for nm, raw in _block(document, "covers").items():
        open_flag = False
        elements = raw
        if isinstance(raw, dict):
            elements = raw.get("elements")
            open_flag = bool(raw.get("open", False))
            if elements is None:
                raise InstanceError("cover %r: object form needs elements" % nm)
        els = _point_rows(space.index, _listed(elements, "cover %r" % nm),
                          lambda k: "cover %r element %d" % (nm, k))
        cat.covers[nm] = Cover(space, els, name=nm, open_flag=open_flag)
    for nm, raw in _block(document, "functions").items():
        cat.functions[nm] = _parse_function(raw, space.n, "function %r" % nm)
    operators = _block(document, "operators")
    if operators:
        from .algebra_noncomm import OperatorMatrix
    for nm, raw in operators.items():
        if not isinstance(raw, dict) or "triplets" not in raw:
            raise InstanceError("operator %r needs triplets" % nm)
        cat.operators[nm] = OperatorMatrix.from_triplets(space, raw["triplets"],
                                                         name=nm)
    for nm, raw in _block(document, "maps").items():
        if len(_listed(raw, "map %r" % nm)) != space.n:
            raise InstanceError("map %r: one target per point" % nm)
        cat.maps[nm] = np.array(_point_rows(space.index, [raw], lambda k: "map %r" % nm)[0],
                                dtype=np.int64)
    entourages = _block(document, "entourages")
    if entourages:
        from .entourages import Entourage
    for nm, raw in entourages.items():
        rows = _listed(raw, "entourage %r" % nm)
        for k, pair in enumerate(rows):
            if len(_listed(pair, "entourage %r row %d" % (nm, k))) != 2:
                raise InstanceError("entourage %r row %d is not a pair" % (nm, k))
        cat.entourages[nm] = Entourage(space, _point_rows(space.index, rows,
                                                          lambda k: "entourage %r" % nm))
    for tag, names in _block(document, "catalogues").items():
        cat.tags[str(tag)] = tuple(str(v) for v in _listed(names, "catalogue %r" % tag))
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
        from .algebra_noncomm import OperatorMatrix
        cat.operators["shift"] = OperatorMatrix(
            space, {(x, x + 1): 1.0 for x in range(n - 1)}, name="shift")
        return space, cat
    if name == "grid5":
        return cats.grid5(), InstanceCatalogue()
    if name == "grid6":
        space = cats.grid6()
        cat = InstanceCatalogue()
        horiz = [space.subset(["%d,%d" % (i, 2 * k), "%d,%d" % (i, 2 * k + 1)])
                 for i in range(6) for k in range(3)]
        vert = [space.subset(["%d,%d" % (2 * k, j), "%d,%d" % (2 * k + 1, j)])
                for k in range(3) for j in range(6)]
        cat.covers["dominoes-h"] = Cover(space, tuple(horiz), name="dominoes-h")
        cat.covers["dominoes-v"] = Cover(space, tuple(vert), name="dominoes-v")
        return space, cat
    raise InstanceError("no bundled instance named %r" % name)


BUNDLED_NAMES = ("halfline", "truncnat", "line20", "grid5", "grid6")
