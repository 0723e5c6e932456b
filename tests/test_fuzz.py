"""The exit-code contract under hostile input: whatever the argv or the
instance document, the command line exits 0 (all checks passed), 1 (a real
counterexample, shown as a failing report) or 2 (a bad request or instance,
one line on stderr), and loading raises nothing but InstanceError; whatever
the base, a base check gives a verdict or raises InstanceError; whatever
stands in for a point index, a library function that takes point indices
raises InstanceError rather than answer for another point."""
import copy
import json
import pathlib
import tempfile
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from scalekit.algebra_noncomm import (OperatorMatrix, chain_cover_operator, pou_improve,
                                      pou_to_operator)
from scalekit.bounded import (BoundedStructure, check_proper, desk_weakly_bounded,
                              from_metric, lemma_wb_test, proper_hss_test,
                              st_weakly_bounded_test, uniformly_bounded)
from scalekit.cli import main
from scalekit.entourages import (Entourage, check_coarse_axioms, check_uniform_axioms,
                                 metric_entourage, slice_at)
from scalekit.instances import load_space
from scalekit.metric import ball_cover, metric_ls_base, metric_ss_base
from scalekit.model import InstanceError, Space, builder_line, check_group_table
from scalekit.oscillation import SOQuery, build_bump_refuter, build_scaled_refuter
from scalekit.reports import CheckReport
from scalekit.scales import (Cover, PartitionOfUnity, ScaleBase, check_ls_base,
                             check_ss_base, is_hausdorff, star_set)
from scalekit.translation import GroupWindow, translation_scale, window_group, z_window

SHIPPED = pathlib.Path(__file__).resolve().parent.parent / "instances"
# capsys is read out after every example, so sharing it is safe
FUZZ = settings(deadline=None, derandomize=True, max_examples=400,
                suppress_health_check=[HealthCheck.function_scoped_fixture])

# every value of an option is drawn from its valid values two times in three,
# and from HOSTILE otherwise; starred options are required
HOSTILE = ("", ",", "1,,2", "nan", "inf", "-inf", "-1", "0", "1e400", "1e-300",
           "abc", "nosuch", "one,nosuch")
EPS = ("1,0.5,0.25", "0.5", "1,1")
OPTIONS = {
    "check-ss": {"--radii": ("3,1,0.333333", "1", "2,2")},
    "check-ls": {"--radii": ("1,3,9,27", "1,3", "9")},
    "lebesgue": {"*--cover": ("fives",)},
    "mesh": {"*--cover": ("fives",)},
    "so": {"*--function": ("step", "ramp", "parity"), "--form": ("strict", "relaxed"),
           "--radii": ("1,3", "1,3,9"), "--eps": EPS},
    "lsmem": {"*--cover": ("fives",), "--functions": ("one,parity", "ramp"),
              "--eps": EPS},
    "c0": {"*--cover": ("fives",)},
    "ccs": {"*--cover": ("fives",)},
    "t75": {"--covers": ("fives",), "--functions": ("one,ramp", "step"), "--eps": EPS},
    "bounded": {"--subset": ("0,1,2", "0,5", "0,0")},
    "entourage": {"*--axioms": ("uniform", "coarse"), "--radii": ("1,3", "0", "3,1")},
    "op": {"*--operator": ("shift",), "--tau": ("0", "0.5"), "--cover": ("fives",),
           "--nmax": ("3", "5", "1")},
    "sw-test": {"*--functions": ("one,parity", "ramp"), "*--probe": ("step", "ramp")},
    "report-all": {},
}
LEVELS = ("5,10,15", "5,10,20", "10", "0")


def run_contract(argv, capsys):
    """Run the command line and check the contract."""
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse rejects the request
        code = exc.code
    out = capsys.readouterr()
    assert code in (0, 1, 2), argv
    if code == 1:
        reports = json.loads(out.out)["reports"]
        assert any(r["status"] == "fail" for r in reports), argv
    if code == 2:
        assert out.out == "" and out.err.count("\n") >= 1, argv
        assert "Traceback" not in out.err, argv


def value(draw, valid):
    return draw(st.sampled_from(valid if draw(st.integers(0, 2)) else HOSTILE))


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(sorted(OPTIONS)))
    argv = [command, "--json", "--space",
            draw(st.sampled_from(("line20", "grid5", str(SHIPPED / "line20.json"))))]
    for option, valid in sorted(OPTIONS[command].items()):
        if option.startswith("*") or draw(st.booleans()):
            argv.append("%s=%s" % (option.lstrip("*"), value(draw, valid)))
    if draw(st.booleans()):
        argv.append("--levels=" + value(draw, LEVELS))
    return argv


@FUZZ
@given(argvs())
def test_fuzzed_argv_keeps_the_exit_contract(capsys, argv):
    run_contract(argv, capsys)


JUNK = (None, True, 0, -1, 3, 2.5, 1e300, float("nan"), float("inf"), "x",
        "inf", "0", [], {}, [0], [[0, 0]], [["0", "1"]], ["0", "0"], [0.5, 0],
        {"kind": "line"}, {"kind": "grid", "coords": [[0.5, 0]]}, {"elements": []})


BLOCKS = ("points", "metric", "filtration", "covers", "functions", "operators",
          "maps", "entourages", "group", "catalogues")


def mutate(data, doc):
    """Set a top-level block of ``doc`` to junk, or replace one node (found
    by a random walk) with junk, or delete it."""
    if data.draw(st.integers(0, 3)) == 0:
        doc[data.draw(st.sampled_from(BLOCKS))] = copy.deepcopy(
            data.draw(st.sampled_from(JUNK)))
        return
    node, key = doc, None
    while True:
        keys = (sorted(node) if isinstance(node, dict)
                else range(len(node)) if isinstance(node, list) else ())
        if not keys or (key is not None and data.draw(st.booleans())):
            break
        parent, key = node, data.draw(st.sampled_from(list(keys)))
        node = parent[key]
    if key is None:
        return
    if isinstance(parent, dict) and data.draw(st.integers(0, 5)) == 0:
        del parent[key]
    else:
        parent[key] = copy.deepcopy(data.draw(st.sampled_from(JUNK)))


DOCS = {name: json.loads((SHIPPED / ("%s.json" % name)).read_text(encoding="utf-8"))
        for name in ("line20", "grid5", "grid6")}


@FUZZ
@given(st.data())
def test_fuzzed_documents_keep_the_exit_contract(capsys, data):
    doc = copy.deepcopy(DOCS[data.draw(st.sampled_from(sorted(DOCS)))])
    for _ in range(data.draw(st.integers(1, 3))):
        mutate(data, doc)
    try:
        load_space(doc)
    except InstanceError:
        pass
    covers = doc.get("covers") if isinstance(doc, dict) else None
    cover = sorted(covers)[0] if isinstance(covers, dict) and covers else "fives"
    command = data.draw(st.sampled_from((
        ["check-ss"], ["bounded"], ["c0", "--cover", cover],
        ["mesh", "--cover", cover], ["op", "--operator", "shift"], ["report-all"])))
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "doc.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        run_contract(command + ["--json", "--space", str(path)], capsys)


# -- the base layer: every consumer of a scale or an entourage base -----------

SAME_A, SAME_B, OTHER = builder_line(4, 1.0), builder_line(4, 2.0), builder_line(6, 1.0)
COVER_CONSUMERS = (check_ss_base, check_ls_base, is_hausdorff,
                   lambda base: proper_hss_test(from_metric(SAME_A), base),
                   lambda base: uniformly_bounded(ball_cover(SAME_A, 1.0), base))
RELATION_CONSUMERS = (check_uniform_axioms, check_coarse_axioms)


@st.composite
def hostile_bases(draw, relations):
    """0-3 members, mostly on one space but now and then on another of the
    same or of another size: covers that may miss points, or relations that
    may miss the diagonal; in a tuple, a list or (covers) a ScaleBase."""
    members = []
    for _ in range(draw(st.integers(0, 3))):
        space = draw(st.sampled_from((SAME_A, SAME_A, SAME_A, SAME_B, OTHER)))
        n = space.n
        if relations:
            m = np.array(draw(st.lists(st.booleans(), min_size=n * n, max_size=n * n)))
            m = m.reshape(n, n) | (np.eye(n, dtype=bool) if draw(st.booleans()) else False)
            members.append(Entourage(space, m))
        else:
            members.append(Cover(space, draw(st.lists(
                st.frozensets(st.integers(0, n - 1), min_size=1), min_size=1, max_size=4))))
    wrap = draw(st.sampled_from((tuple, list) if relations else
                                (tuple, list, lambda covers: ScaleBase(SAME_A, tuple(covers)))))
    return wrap(members)


@settings(deadline=None, derandomize=True, max_examples=200)
@given(hostile_bases(relations=False), hostile_bases(relations=True))
def test_hostile_bases_give_a_verdict_or_an_instance_error(covers, relations):
    for consumers, base in ((COVER_CONSUMERS, covers), (RELATION_CONSUMERS, relations)):
        for consumer in consumers:
            try:
                verdict = consumer(base)
            except InstanceError:
                continue
            assert isinstance(verdict, (CheckReport, bool))


# -- point indices: every entry point that takes them parses them alike -------
#
# Each site takes three points (a valid input with VALID[site] in their
# place) built into its own input.  One of them is swapped for a hostile
# value; the site must raise InstanceError, never answer for a coerced point.

PTS = builder_line(4, 1.0)
PTS_B = BoundedStructure(PTS, [[0, 1]])
PTS_B3 = BoundedStructure(builder_line(2, 1.0), [[0, 1]])
PTS_COVER = Cover(PTS, [[0, 1], [1, 2], [2, 3, 4]])
# columns supported on {0}, {1} and {2, 3, 4}
PTS_W = np.eye(5, 3)
PTS_W[3:, 2] = 1.0
PTS_PHI = PartitionOfUnity(PTS, PTS_W)
PTS_G = window_group(z_window(2))
PTS_E = Entourage(PTS, [(x, y) for x in range(5) for y in range(5) if abs(x - y) <= 1])
SITES = {
    "Cover": lambda p: Cover(PTS, [p[:2], p[2:], [3, 4]]),
    "OperatorMatrix": lambda p: OperatorMatrix(PTS, {(p[0], p[1]): 1.0, (p[2], 0): 2.0}),
    "from_triplets": lambda p: OperatorMatrix.from_triplets(
        PTS, [[p[0], p[1], 1.0, 0.0], [p[2], 0, 1.0, 0.0]]),
    "chain_cover_operator": lambda p: chain_cover_operator(PTS_COVER, p),
    "Space filtration": lambda p: Space("abcde", filtration=[p[:2], p]),
    "BoundedStructure": lambda p: BoundedStructure(PTS, [p[:2], p[2:]]),
    "is_member": lambda p: PTS_B.is_member(p),
    "desk_weakly_bounded": lambda p: desk_weakly_bounded(p, PTS_B),
    "st_weakly_bounded_test": lambda p: st_weakly_bounded_test(
        p, PTS_COVER, PTS_B, [Cover(PTS, [range(5)])]),
    "pou_to_operator": lambda p: pou_to_operator(PartitionOfUnity(PTS, PTS_W, index=p)),
    "pou_improve": lambda p: pou_improve(PTS_PHI, p),
    "Entourage": lambda p: Entourage(PTS, [(p[0], p[1]), (p[2], 0)]),
    "build_bump_refuter": lambda p: build_bump_refuter(PTS, p, 0.5),
    "build_scaled_refuter": lambda p: build_scaled_refuter(PTS, p, [0.4] * 3),
    "translation_scale": lambda p: translation_scale(PTS_G, p),
    "check_group_table": lambda p: check_group_table([p, [1, 2, 0], [2, 0, 1]]),
    "GroupWindow": lambda p: GroupWindow(Space("abc"), values=p),
    "check_proper": lambda p: check_proper(p + [3, 4], PTS_B, PTS_B),
    "lemma_wb_test": lambda p: lemma_wb_test(p + [3, 4], PTS_B, PTS_B),
    "star_set": lambda p: star_set(p, PTS_COVER),
    "load_space": lambda p: load_space({"points": list("abcde"), "covers": {"c": [p]}}),
    "Space.labels": lambda p: PTS.labels(p),
    "Space.diam": lambda p: PTS.diam(p),
    "Space.distance": lambda p: (PTS.distance(p[0], p[1]), PTS.distance(p[2], 0)),
    "slice_at": lambda p: [slice_at(PTS_E, x) for x in p],
    "GroupWindow.mul": lambda p: (PTS_G.mul(p[0], p[1]), PTS_G.mul(p[2], 0)),
    "GroupWindow.inv": lambda p: [PTS_G.inv(x) for x in p],
    "GroupWindow.products": lambda p: (PTS_G.products(p, [0]), PTS_G.products([0], p)),
}
VALID = {"build_bump_refuter": [0, 2, 4], "build_scaled_refuter": [0, 2, 4],
         "GroupWindow": [-1, 0, 1]}
# values that are not integers, or lie past int64, or are (hashable, so that
# they can key an operator entry) containers
NOT_INDICES = (0.5, 1.0, np.float64(1), True, np.bool_(True), "1", float("nan"),
               2 ** 64, (), (0,), (0, 1))
# integers off the carrier; window values are integers of no carrier
OFF_CARRIER = (-1, PTS.n)


@pytest.mark.parametrize("site", sorted(SITES))
def test_point_index_sites_take_valid_points(site):
    SITES[site](VALID.get(site, [0, 1, 2]))


@settings(deadline=None, derandomize=True, max_examples=1000)
@given(st.sampled_from(sorted(SITES)), st.integers(0, 2),
       st.sampled_from(NOT_INDICES + OFF_CARRIER))
def test_hostile_point_indices_raise_an_instance_error(site, at, bad):
    if site == "GroupWindow" and bad in OFF_CARRIER:
        return
    points = list(VALID.get(site, [0, 1, 2]))
    points[at] = bad
    with pytest.raises(InstanceError):
        SITES[site](points)


@settings(deadline=None, derandomize=True, max_examples=100)
@given(st.integers(0, 1), st.sampled_from(NOT_INDICES + OFF_CARRIER))
def test_an_entourage_holds_no_pair_that_is_not_of_point_indices(at, bad):
    pair = [1, 1]
    pair[at] = bad
    assert tuple(pair) not in Entourage(PTS, np.ones((5, 5), dtype=bool))


def test_an_entourage_asked_about_floats_answers_false():
    assert (0.5, 0.2) not in Entourage(PTS, [(0, 0)])


@pytest.mark.parametrize("call", [
    pytest.param(lambda: Entourage(PTS, [(0.5, 1.9)]), id="entourage-floats"),
    pytest.param(lambda: BoundedStructure(PTS, [[0.5, 1.9]]), id="generator-floats"),
    pytest.param(lambda: check_proper([0.5, 1.2, 2, 3, 4], PTS_B, PTS_B), id="proper-map"),
    pytest.param(lambda: build_scaled_refuter(PTS, [-1], [0.4]), id="scaled-negative"),
    pytest.param(lambda: star_set([-1], PTS_COVER), id="star-negative"),
    pytest.param(lambda: check_group_table([["0", "1"], ["1", "0"]]), id="table-text"),
    pytest.param(lambda: Entourage(PTS, [("1", "2")]), id="entourage-text"),
    pytest.param(lambda: Entourage(PTS, [(True, False)]), id="entourage-bools"),
    pytest.param(lambda: Entourage(PTS, [(0, 1), (2,)]), id="entourage-ragged"),
    pytest.param(lambda: desk_weakly_bounded([2.7, "3"], PTS_B), id="desk-mixed"),
    pytest.param(lambda: lemma_wb_test([0.2, 1.9, 2], PTS_B3, PTS_B3), id="lemma-map"),
    pytest.param(lambda: build_bump_refuter(PTS, [0.7, 3.9], 1.0), id="bump-floats"),
    pytest.param(lambda: build_scaled_refuter(PTS, [9], [0.4]), id="scaled-past-the-end"),
    pytest.param(lambda: star_set([0.5], PTS_COVER), id="star-float"),
    pytest.param(lambda: star_set([7], PTS_COVER), id="star-past-the-end"),
    pytest.param(lambda: translation_scale(PTS_G, [1.7]), id="translate-float"),
    pytest.param(lambda: GroupWindow(Space("abc"), values=[-1.5, 0, 1.5]),
                 id="window-floats"),
    pytest.param(lambda: pou_improve(PTS_PHI, [0.9, 1.2, 2.7]), id="selection-floats"),
    pytest.param(lambda: desk_weakly_bounded(np.array([2 ** 64 - 1], dtype=np.uint64), PTS_B),
                 id="uint64-array-past-int64"),
    pytest.param(lambda: desk_weakly_bounded(np.array([1.0]), PTS_B), id="float-array"),
])
def test_coerced_point_indices_are_refused(call):
    with pytest.raises(InstanceError):
        call()


# -- scalars: radii and grids take real numbers, never a coerced one ---------

@pytest.mark.parametrize("call", [
    pytest.param(lambda: metric_ss_base(PTS, ["2", True]), id="ss-radii-text-and-bool"),
    pytest.param(lambda: metric_ls_base(PTS, [1, True]), id="ls-radii-bool"),
    pytest.param(lambda: metric_ss_base(PTS, 3.0), id="radii-not-a-list"),
    pytest.param(lambda: ball_cover(PTS, "1"), id="ball-text"),
    pytest.param(lambda: ball_cover(PTS, True), id="ball-bool"),
    pytest.param(lambda: ball_cover(PTS, None), id="ball-none"),
    pytest.param(lambda: metric_entourage(PTS, "1"), id="entourage-text"),
    pytest.param(lambda: build_scaled_refuter(PTS, [0], ["0.4"]), id="scaled-text"),
    pytest.param(lambda: build_scaled_refuter(PTS, [0], [np.bool_(True)]), id="scaled-bool"),
    pytest.param(lambda: SOQuery(np.zeros(PTS.n), [PTS_COVER], ["0.5"],
                                 from_metric(PTS)), id="eps-text"),
])
def test_coerced_scalars_are_refused(call):
    with pytest.raises(InstanceError):
        call()


def test_real_scalars_of_any_type_are_taken():
    base = metric_ss_base(PTS, [np.float32(2), 1, Fraction(1, 2)])
    assert [c.name for c in base.covers] == ["balls(2)", "balls(1)", "balls(0.5)"]
    assert ball_cover(PTS, np.int64(2)).name == "balls(2)"
    assert np.array_equal(build_scaled_refuter(PTS, [0], [Fraction(1, 2)]),
                          build_scaled_refuter(PTS, [0], [0.5]))
