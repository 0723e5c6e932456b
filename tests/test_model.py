import json

import numpy as np
import pytest

from scalekit.model import (Filtration, InstanceError, Space, builder_grid,
                            builder_group_window, builder_line, fmt_value)


def test_fmt_value_integers_drop_the_point():
    assert fmt_value(3.0) == "3"
    assert fmt_value(0.0) == "0"
    assert fmt_value(-2.0) == "-2"


def test_fmt_value_fractions_and_infinity():
    assert fmt_value(0.125) == "0.125"
    assert fmt_value(float("inf")) == "inf"


def test_builder_line_distances():
    sp = builder_line(10, 1.0)
    assert sp.n == 11
    assert sp.distance(0, 10) == 10.0
    assert sp.distance(3, 3) == 0.0
    assert list(sp.points) == [fmt_value(k) for k in range(11)]


def test_builder_line_step():
    sp = builder_line(8, 0.5)
    assert sp.n == 9
    assert sp.distance(0, 8) == 4.0
    assert sp.points[1] == "0.5"


def test_builder_grid_chebyshev():
    sp = builder_grid(3)
    assert sp.n == 9
    # opposite corners of a 3x3 grid sit at sup-distance 2
    i = list(sp.points).index("0,0")
    j = list(sp.points).index("2,2")
    assert sp.distance(i, j) == 2.0


def test_metric_must_be_square_and_symmetric():
    with pytest.raises(InstanceError):
        Space(["a", "b"], metric=np.zeros((2, 3)))
    bad = np.array([[0.0, 1.0], [2.0, 0.0]])
    with pytest.raises(InstanceError):
        Space(["a", "b"], metric=bad)


@pytest.mark.parametrize("metric", [
    [[0, 1], [1, 0, 2]],
    lambda: builder_line(1, 1.0).d,
    [[0, "x"], ["x", 0]],
    [[0, 10 ** 400], [1, 0]],
], ids=["ragged", "another-space-accessor", "strings", "huge"])
def test_metric_tables_that_are_not_numbers_are_refused(metric):
    if callable(metric):
        metric = metric()
    with pytest.raises(InstanceError, match="square table of numbers"):
        Space(["a", "b"], metric=metric)


def test_metric_zero_diagonal_required():
    bad = np.array([[1.0, 0.0], [0.0, 0.0]])
    with pytest.raises(InstanceError):
        Space(["a", "b"], metric=bad)


def triangle_holds(d: np.ndarray) -> bool:
    """The triangle inequality on a whole table, one relaxation pass per
    intermediate point: O(n^3), an oracle for small tables."""
    return all(not np.any(d > d[:, [k]] + d[[k], :]) for k in range(len(d)))


def test_triangle_violation_recorded_not_fatal():
    # pseudometric tables may bend the triangle rule; loading does not check it
    d = np.array([[0, 1, 5], [1, 0, 1], [5, 1, 0]], dtype=float)
    sp = Space(["a", "b", "c"], metric=d)
    assert sp.distance(0, 2) == 5.0
    assert not triangle_holds(sp.d.table())
    good = np.array([[0, 1, 2], [1, 0, 1], [2, 1, 0]], dtype=float)
    assert triangle_holds(Space(["a", "b", "c"], metric=good).d.table())


def test_coordinate_metrics_obey_the_triangle_inequality():
    from scalekit.instances import load_space, save_instance
    from scalekit.translation import z_window
    built = [builder_line(6, 0.5), builder_grid(3), z_window(4),
             Space(list("abcd"), metric_kind="line", coords=(3.0, -1.5, 3.0, 0.1))]
    table = {"points": ["a", "b", "c"],
             "metric": {"kind": "table", "distances": [[0, 1, 5], [1, 0, 1], [5, 1, 0]]}}
    loaded = [load_space(save_instance(sp))[0] for sp in built]
    for sp in built + loaded:
        assert triangle_holds(sp.d.table())
    assert not triangle_holds(load_space(table)[0].d.table())


def test_coordinate_spaces_take_no_table():
    with pytest.raises(InstanceError, match="derives its metric"):
        Space(["a", "b"], metric=np.zeros((2, 2)), metric_kind="line", coords=(0.0, 1.0))


def test_coordinate_spaces_skip_the_pseudometric_check(monkeypatch):
    from scalekit.instances import load_space

    def refuse(d):
        raise AssertionError("the pseudometric check ran")
    monkeypatch.setattr(Space, "_check_pseudometric", staticmethod(refuse))
    assert builder_line(40, 0.5).d[0, 40] == 20.0
    assert builder_grid(5).d[0, 24] == 4.0
    doc = {"points": ["a", "b"], "metric": {"kind": "line", "coords": [0, 3]}}
    assert load_space(doc)[0].d.table().tolist() == [[0, 3], [3, 0]]
    with pytest.raises(AssertionError, match="the pseudometric check ran"):
        Space(["a", "b"], metric=[[0, 1], [1, 0]])


@pytest.mark.parametrize("entry", [None, float("nan")], ids=["none", "nan"])
def test_metric_tables_refuse_nan_before_the_symmetry_test(entry):
    for table in ([[0, entry], [entry, 0]], [[0, 1], [entry, 0]], [[entry, 1], [1, 0]]):
        with pytest.raises(InstanceError, match="^distances must not be NaN$"):
            Space(["a", "b"], metric=table)


@pytest.mark.parametrize("build", [
    lambda: builder_line(2, 1e308),
    lambda: Space(["a", "b"], metric_kind="line", coords=(0.0, float("nan"))),
    lambda: Space(["a", "b"], metric_kind="grid", coords=((0, 0), (float("inf"), 1))),
], ids=["overflow", "nan", "inf"])
def test_coordinate_spaces_need_finite_coordinates(build):
    with pytest.raises(InstanceError, match="coordinates must be finite"):
        build()


@pytest.mark.parametrize("kind, coords", [
    ("line", (0.0, 1.0, 2.0)),
    ("line", ((0.0, 1.0), (1.0, 2.0))),
    ("grid", (0, 1)),
    ("grid", ((0, 0, 0), (1, 1, 1))),
    ("line", ("x", 1.0)),
    ("line", (0, True)),
    ("line", (0, 10 ** 400)),
    ("grid", ((0, 0), (1,))),
], ids=["line-count", "line-pairs", "grid-numbers", "grid-triples", "line-text",
        "line-bool", "line-huge", "grid-ragged"])
def test_coordinate_spaces_need_one_coordinate_per_point(kind, coords):
    with pytest.raises(InstanceError, match="one coordinate per point"):
        Space(["a", "b"], metric_kind=kind, coords=coords)


def test_metric_readers_need_a_metric():
    from scalekit.metric import sup_diameter
    from scalekit.scales import Cover
    bare = Space(["a", "b"])
    with pytest.raises(InstanceError, match="no metric"):
        bare.diam([0, 1])
    with pytest.raises(InstanceError, match="no metric"):
        sup_diameter(Cover(bare, [[0], [1]]))


def test_infinite_distances_allowed():
    d = np.array([[0, np.inf], [np.inf, 0]])
    sp = Space(["a", "b"], metric=d)
    assert sp.distance(0, 1) == np.inf


def test_duplicate_labels_rejected():
    with pytest.raises(InstanceError):
        Space(["a", "a"])


def test_subset_and_labels_round_trip():
    sp = builder_line(5, 1.0)
    s = sp.subset(["1", "4"])
    assert s == frozenset({1, 4})
    assert sp.labels(s) == ("1", "4")


def test_subset_unknown_label():
    sp = builder_line(5, 1.0)
    with pytest.raises(InstanceError):
        sp.subset(["7.5"])


def test_diam():
    sp = builder_line(10, 1.0)
    assert sp.diam(frozenset({2, 5, 7})) == 5.0
    assert sp.diam(frozenset({4})) == 0.0
    assert sp.diam(frozenset()) == 0.0


def test_filtration_must_increase():
    with pytest.raises(InstanceError):
        Filtration((frozenset({0, 1}), frozenset({0, 1})))
    with pytest.raises(InstanceError):
        Filtration((frozenset({0, 1}), frozenset({2})))
    with pytest.raises(InstanceError, match="strictly increase"):
        Filtration(([0, 5], [1]))  # as lists, [0, 5] < [1]
    with pytest.raises(InstanceError, match="list of levels"):
        Filtration(5)
    with pytest.raises(InstanceError, match="level 1 must hold point indices"):
        Filtration((["a"],))
    with pytest.raises(InstanceError, match="level 1 is empty"):
        Filtration((frozenset(),))
    with pytest.raises(InstanceError, match="level 1 is empty"):
        Filtration((frozenset(), frozenset({0})))


def test_filtration_declared_bounded():
    # a set fits a window iff its greatest depth is below the level count
    fl = Filtration((frozenset({0, 1}), frozenset({0, 1, 2, 3})))
    sp = Space(["a", "b", "c", "d", "e"], filtration=fl)
    assert sp.depth.tolist() == [0, 0, 1, 1, 2]
    assert not sp.depth.flags.writeable

    def fits(s):
        return sp.depth[sorted(s)].max(initial=0) < len(fl)

    assert fits({0, 1}) and fits({3}) and fits(set())
    assert not fits({3, 4})
    assert Space(["a", "b"]).depth.tolist() == [0, 0]


@pytest.mark.parametrize("level", [[0, 5], [-1], [0.5], ["0"], [True]],
                         ids=["past-the-end", "negative", "float", "label", "bool"])
def test_filtration_entries_must_be_point_indices(level):
    with pytest.raises(InstanceError, match="filtration level 1"):
        Space(["a", "b"], metric=[[0, 1], [1, 0]], filtration=[level])


def test_group_window_space():
    table = [[(i + j) % 3 for j in range(3)] for i in range(3)]
    sp = builder_group_window(table)
    assert sp.n == 3
    assert sp.group_table is not None


def test_group_window_rejects_ragged_table():
    with pytest.raises(InstanceError):
        builder_group_window([[0, 1], [1]])


@pytest.mark.parametrize("table, message", [
    ([[0]], "one row per point"),
    ("xy", "rows of point indices"),
])
def test_space_checks_its_group_table(table, message):
    # the table a space keeps must load back from its own document
    with pytest.raises(InstanceError, match=message):
        Space(["a", "b"], group_table=table)
    with pytest.raises(InstanceError, match=message):
        builder_group_window(table, names=["a", "b"])


def test_space_keeps_its_group_table_as_checked_tuples():
    sp = Space(["a", "b"], group_table=np.array([[0, 1], [1, 0]]))
    assert sp.group_table == ((0, 1), (1, 0))
    assert type(sp.group_table[0][0]) is int


def test_values_parses_labels():
    sp = builder_line(4, 0.5)
    assert np.allclose(sp.values(), np.arange(5) * 0.5)


def test_space_equality():
    a = builder_line(5, 1.0)
    b = builder_line(5, 1.0)
    c = builder_line(6, 1.0)
    assert a == b
    assert a != c


def test_to_document_round_trip():
    sp = builder_line(6, 1.0)
    doc = sp.to_document()
    from scalekit.instances import load_space
    sp2, _ = load_space(doc)
    assert sp2 == sp


def test_an_integer_grid_is_saved_as_integers():
    from scalekit.instances import load_space
    sp = Space(["p", "q"], metric_kind="grid", coords=((0.0, 0), (3, 1.0)))
    doc = sp.to_document()
    assert json.dumps(doc) == ('{"points": ["p", "q"], "metric": {"kind": "grid", '
                               '"coords": [[0, 0], [3, 1]]}}')
    assert load_space(doc)[0] == sp


def test_coordinates_take_the_reals_that_real_value_takes():
    from fractions import Fraction
    sp = Space(["a", "b"], metric_kind="line", coords=(Fraction(1, 3), np.float32(2)))
    assert sp.d[0, 1] == 2 - 1 / 3
    assert sp.coords.dtype == float and not sp.coords.flags.writeable


def test_a_real_grid_is_saved_and_loads_back_equal():
    # the document keeps the coordinates the space holds, so the metric survives
    from scalekit.instances import load_space
    sp = Space(["p", "q"], metric_kind="grid", coords=((0.2, 0), (0.7, 0)))
    doc = sp.to_document()
    assert doc["metric"] == {"kind": "grid", "coords": [[0.2, 0], [0.7, 0]]}
    back = load_space(json.loads(json.dumps(doc)))[0]
    assert back == sp
    assert back.d[0, 1] == sp.d[0, 1] == 0.49999999999999994


@pytest.mark.parametrize("table, message", [
    ([[0, 1], [1, 1]], "row 1"),
    ([[0, 1], [0, 1]], "column 0"),
    ([[0, 2, 1], [2, 1, 0], [1, 0, 2]], "identity"),
    ([[0, "x"], [1, 0]], "point indices"),
])
def test_group_table_checks_are_shared_with_loading(table, message):
    from scalekit.instances import load_space
    with pytest.raises(InstanceError, match=message):
        builder_group_window(table)
    with pytest.raises(InstanceError, match=message):
        load_space({"points": list("abc")[:len(table)], "group": {"table": table}})


@pytest.mark.parametrize("values, order, message", [
    ((3.0, 1.0, 1.0), "descending", None),
    ((1.0, 1.0, 3.0), "ascending", None),
    ((3.0, 1.0), "strictly descending", None),
    ((3.0, 1.0, 1.0), "strictly descending", "eps must be strictly descending"),
    ((1.0, 3.0), "descending", "eps must be descending"),
    ((3.0, 1.0), "ascending", "eps must be ascending"),
    ((), "ascending", "needs at least one value"),
    ((1.0, -1.0), "descending", "finite and positive"),
])
def test_ordered_grid(values, order, message):
    from scalekit.model import ordered_grid
    if message is None:
        assert ordered_grid(values, "eps", order) == values
    else:
        with pytest.raises(InstanceError, match=message):
            ordered_grid(values, "eps", order)


@pytest.mark.parametrize("build, args", [
    (builder_line, (5, float("nan"))),
    (builder_line, (5, float("inf"))),
    (builder_line, (5, 0.0)),
    (builder_line, (5, "1")),
    (builder_line, (2.5, 1.0)),
    (builder_line, (True, 1.0)),
    (builder_line, (-1, 1.0)),
    (builder_grid, (2.5,)),
    (builder_grid, (True,)),
    (builder_grid, (0,)),
    ("z_window", (float("nan"),)),
    ("z_window", (True,)),
    ("z_window", (4, 1.5)),
])
def test_builders_reject_bad_sizes_and_steps(build, args):
    if build == "z_window":
        from scalekit.translation import z_window as build
    with pytest.raises(InstanceError):
        build(*args)


def test_builders_take_integers_of_any_width():
    from scalekit.translation import z_window
    assert builder_line(np.int64(3), np.float64(0.5)).points == ("0", "0.5", "1", "1.5")
    assert builder_grid(np.int32(2)).n == 4
    assert z_window(np.int16(2), np.int8(1)).filtration is not None


def test_coordinate_checks_hold_no_distance_table():
    # a 4001-point line and the checks of a size sweep on it: the peak stays
    # below one byte per pair (16 MB), an eighth of one float table, so
    # nothing builds n^2 distances, nor a dense bool relation
    import tracemalloc

    import scalekit as sk
    tracemalloc.start()
    try:
        space = builder_line(4000, 1.0)
        blocks = sk.Cover(space, [range(k, min(k + 5, space.n)) for k in range(0, space.n, 5)])
        sk.metric_ls_base(space, (1.0, 3.0, 9.0, 27.0))
        assert sk.lebesgue_number(blocks) == 1.0
        assert sk.mesh(blocks) == 2.0
        assert [len(sk.metric_entourage(space, r)) for r in (1.0, 27.0)] == [
            3 * space.n - 2, 55 * space.n - 27 * 28]
        assert len(sk.from_metric(space).components().components) == 1
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < space.n ** 2
