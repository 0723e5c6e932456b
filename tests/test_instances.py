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
    doc = save_instance(builder_line(4, 1.0))
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
