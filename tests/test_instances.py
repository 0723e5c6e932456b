import json
import pathlib

import numpy as np
import pytest

from scalekit.entourages import Entourage
from scalekit.instances import (BUNDLED_NAMES, InstanceCatalogue, bundled,
                                load_path, load_space, save_instance)
from scalekit.model import InstanceError, builder_line

SHIPPED = pathlib.Path(__file__).resolve().parent.parent / "instances"


def dumps(doc):
    return json.dumps(doc, sort_keys=True, indent=1) + "\n"


@pytest.mark.parametrize("name", BUNDLED_NAMES)
def test_bundled_round_trip_is_byte_stable(name):
    space, cat = bundled(name)
    doc = save_instance(space, cat)
    space2, cat2 = load_space(json.loads(dumps(doc)))
    assert space2 == space
    assert dumps(save_instance(space2, cat2)) == dumps(doc)


@pytest.mark.parametrize("name", BUNDLED_NAMES)
def test_shipped_files_match_bundles(name):
    space, cat = bundled(name)
    blob = (SHIPPED / ("%s.json" % name)).read_text(encoding="utf-8")
    assert blob == dumps(save_instance(space, cat))


def test_bundled_rejects_unknown_name():
    with pytest.raises(InstanceError):
        bundled("nosuch")


def test_bundled_payload_shapes():
    space, cat = bundled("truncnat")
    assert space.n == 201
    assert "tens" in cat.covers and "wide-pairs" in cat.covers
    assert cat.tags["constant_at_infinity"]
    fam = cat.family(space, cat.tags["constant_at_infinity"])
    assert fam.names == cat.tags["constant_at_infinity"]
    space, cat = bundled("line20")
    assert set(cat.functions) == {"one", "parity", "ramp", "step"}
    assert cat.operators["shift"].entries


def test_family_rejects_missing_names():
    space, cat = bundled("halfline")
    with pytest.raises(InstanceError):
        cat.family(space, ("nosuch",))
    with pytest.raises(InstanceError):
        InstanceCatalogue().family(space)


def test_maps_and_entourages_round_trip():
    space = builder_line(4, 1.0)
    cat = InstanceCatalogue()
    cat.maps["fold"] = np.array([0, 0, 1, 1, 2], dtype=np.int64)
    cat.entourages["near"] = Entourage(space, {(0, 1), (1, 0), (2, 2)})
    doc = save_instance(space, cat)
    space2, cat2 = load_space(doc)
    assert list(cat2.maps["fold"]) == [0, 0, 1, 1, 2]
    assert cat2.entourages["near"].pairs == cat.entourages["near"].pairs
    assert dumps(save_instance(space2, cat2)) == dumps(doc)


def test_load_rejects_malformed_documents():
    with pytest.raises(InstanceError):
        load_space(["not", "an", "object"])
    with pytest.raises(InstanceError):
        load_space({"metric": {}})
    base = {"points": ["a", "b"]}
    with pytest.raises(InstanceError):
        load_space(dict(base, covers={"u": {"open": True}}))
    with pytest.raises(InstanceError):
        load_space(dict(base, covers={"u": [["a", "zzz"]]}))
    with pytest.raises(InstanceError):
        load_space(dict(base, operators={"t": {"rows": []}}))
    with pytest.raises(InstanceError):
        load_space(dict(base, maps={"m": ["a"]}))
    with pytest.raises(InstanceError):
        load_space(dict(base, entourages={"e": [["a", "b", "a"]]}))
    with pytest.raises(InstanceError):
        load_space(dict(base, group={"order": 2}))
    with pytest.raises(InstanceError):
        load_space(dict(base, filtration=[["zzz"]]))


@pytest.mark.parametrize("metric, message", [
    pytest.param({"kind": "line"}, "needs coords", id="line-no-coords"),
    pytest.param({"kind": "grid"}, "needs coords", id="grid-no-coords"),
    pytest.param({"kind": "table"}, "needs distances", id="table-no-distances"),
    pytest.param({"kind": "line", "coords": [0, "x"]}, "list of numbers",
                 id="line-text"),
    pytest.param({"kind": "line", "coords": [0, None]}, "list of numbers",
                 id="line-null"),
    pytest.param({"kind": "line", "coords": 3}, "list of numbers",
                 id="line-scalar"),
    pytest.param({"kind": "line", "coords": [0, float("inf")]}, "finite",
                 id="line-inf"),
    pytest.param({"kind": "line", "coords": [0, 10 ** 400]}, "list of numbers",
                 id="line-huge"),
    pytest.param({"kind": "table", "distances": [[0, 10 ** 400], [1, 0]]},
                 "numbers or", id="table-huge"),
    pytest.param({"kind": "grid", "coords": [[0, 0], 1]}, "number pairs",
                 id="grid-scalar"),
    pytest.param({"kind": "grid", "coords": [[0, 0], [1, 2, 3]]}, "number pairs",
                 id="grid-triple"),
    pytest.param({"kind": "grid", "coords": [[0, 0], "12"]}, "number pairs",
                 id="grid-string"),
    pytest.param({"kind": "grid", "coords": [[0, 0], ["x", 1]]}, "number pairs",
                 id="grid-text"),
    pytest.param({"kind": "grid", "coords": [[0.5, 0], [1, 0]]}, "integers",
                 id="grid-fraction"),
    pytest.param({"kind": "line", "coords": [0, 1, 2]}, "one coordinate per point",
                 id="line-count"),
    pytest.param({"kind": ["line"]}, "unknown metric kind", id="kind-list"),
    pytest.param({"kind": "table", "distances": [[0, "x"], [1, 0]]},
                 "numbers or", id="table-text"),
    pytest.param({"kind": "table", "distances": [1, 2]}, "rows must be lists",
                 id="table-scalar-rows"),
    pytest.param({"kind": "table", "distances": [[0, float("nan")], [1, 0]]},
                 "NaN", id="table-nan"),
])
def test_malformed_metric_block_is_an_instance_error(metric, message):
    with pytest.raises(InstanceError, match=message):
        load_space({"points": ["a", "b"], "metric": metric})


def test_load_path_errors_are_clean(tmp_path):
    with pytest.raises(InstanceError):
        load_path(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{ nope", encoding="utf-8")
    with pytest.raises(InstanceError):
        load_path(bad)


def test_operators_keep_complex_entries(tmp_path):
    space = builder_line(3, 1.0)
    cat = InstanceCatalogue()
    from scalekit.algebra_noncomm import OperatorMatrix
    cat.operators["mix"] = OperatorMatrix(space, {(0, 1): 1.0 + 2.0j,
                                                  (3, 2): -0.5},
                                          name="mix")
    p = tmp_path / "mix.json"
    p.write_text(dumps(save_instance(space, cat)), encoding="utf-8")
    space2, cat2 = load_path(p)
    assert cat2.operators["mix"].entry(0, 1) == 1.0 + 2.0j
    assert cat2.operators["mix"].entry(3, 2) == -0.5


def test_filtered_document_checks_its_metric_once(monkeypatch):
    from scalekit.model import Space
    # a table document: coordinate documents never run the check
    line = builder_line(4, 1.0)
    doc = save_instance(Space(line.points, metric=line.d.table()))
    assert doc["metric"]["kind"] == "table"
    doc["filtration"] = [["0", "1"], ["0", "1", "2"]]
    calls = []
    check = Space._check_pseudometric
    monkeypatch.setattr(Space, "_check_pseudometric",
                        staticmethod(lambda d: calls.append(1) or check(d)))
    space, _ = load_space(doc)
    assert calls == [1]
    assert space.filtration.levels == (frozenset({0, 1}), frozenset({0, 1, 2}))
    with pytest.raises(InstanceError, match="out of range"):
        load_space(dict(doc, filtration=[[7]]))


TWO = {"points": ["a", "b"]}


@pytest.mark.parametrize("doc, message", [
    pytest.param({"points": 5}, "points must be a list", id="points-scalar"),
    pytest.param(dict(TWO, filtration=3), "filtration must be a list",
                 id="filtration-scalar"),
    pytest.param(dict(TWO, filtration=[]), "at least one level",
                 id="filtration-empty"),
    pytest.param(dict(TWO, filtration=[3]), "level 0 must be a list",
                 id="filtration-level-scalar"),
    pytest.param(dict(TWO, covers=3), "covers must be an object",
                 id="covers-scalar"),
    pytest.param(dict(TWO, covers={"u": 3}), "cover 'u' must be a list",
                 id="cover-scalar"),
    pytest.param(dict(TWO, covers={"u": [5]}), "element 0 must be a list",
                 id="cover-element-scalar"),
    pytest.param(dict(TWO, functions={"f": 3}), "function 'f' must be a list",
                 id="function-scalar"),
    pytest.param(dict(TWO, functions={"f": [1, "x"]}), "numbers or",
                 id="function-text"),
    pytest.param(dict(TWO, functions={"f": [1, [0, None]]}), "numbers or",
                 id="function-null-part"),
    pytest.param(dict(TWO, functions={"f": [1, 10 ** 400]}), "numbers or",
                 id="function-huge"),
    pytest.param(dict(TWO, maps={"m": 3}), "map 'm' must be a list",
                 id="map-scalar"),
    pytest.param(dict(TWO, operators={"t": {"triplets": [[0, 0, "x", 0]]}}),
                 "triplet rows", id="triplet-text"),
    pytest.param(dict(TWO, operators={"t": {"triplets": [[0, 0, 1]]}}),
                 "triplet rows", id="triplet-short"),
    pytest.param(dict(TWO, operators={"t": {"triplets": 3}}), "triplet rows",
                 id="triplets-scalar"),
    pytest.param(dict(TWO, entourages={"e": [3]}), "row 0 must be a list",
                 id="entourage-row-scalar"),
    pytest.param(dict(TWO, catalogues={"t": 3}), "catalogue 't' must be a list",
                 id="catalogue-scalar"),
    pytest.param(dict(TWO, group={"table": [[0, 0], [0, 0]]}), "not a permutation",
                 id="group-not-latin"),
    pytest.param(dict(TWO, group={"table": [[0, 1], [0, 1]]}), "column 0",
                 id="group-column"),
    pytest.param(dict(TWO, group={"table": [[0, 1], [1, "x"]]}), "point indices",
                 id="group-text"),
    pytest.param(dict(TWO, group={"table": [[0]]}), "one row per point",
                 id="group-size"),
])
def test_malformed_block_is_an_instance_error(tmp_path, capsys, doc, message):
    with pytest.raises(InstanceError, match=message):
        load_space(doc)
    from scalekit.cli import main
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["check-ss", "--space", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("name", ["line20", "grid5", "grid6", "truncnat", "halfline"])
def test_coordinate_documents_hold_no_table(name):
    import scalekit as sk
    space, cat = load_path(SHIPPED / ("%s.json" % name))
    assert space.metric_kind in ("line", "grid") and space.d.axes is not None
    # the distance queries of the checks, which fill the accessor's caches
    sk.metric_ls_base(space, (1.0, 3.0))
    sk.metric_entourage(space, 1.0)
    sk.from_metric(space)
    for cover in cat.covers.values():
        if cover.is_scale():
            sk.lebesgue_number(cover)
            sk.mesh(cover)

    def arrays(obj):
        if isinstance(obj, np.ndarray):
            yield obj
        elif isinstance(obj, (tuple, list)):
            for item in obj:
                yield from arrays(item)
    # what the accessor keeps grows with n (a few arrays of up to 4 n
    # entries), never with n^2
    held = list(arrays(list(vars(space.d).values())))
    assert held and max(a.size for a in held) <= 4 * space.n


def test_grid_coordinates_round_trip():
    doc = {"points": ["a", "b", "c"],
           "metric": {"kind": "grid", "coords": [[0, 0], [1, 3], [-2, 1]]}}
    space, _ = load_space(doc)
    assert space.d.table().tolist() == [[0, 3, 2], [3, 0, 3], [2, 3, 0]]
    again, _ = load_space(json.loads(dumps(save_instance(space))))
    assert again == space
