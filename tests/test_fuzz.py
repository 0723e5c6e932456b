"""The exit-code contract under hostile input: whatever the argv or the
instance document, the command line exits 0 (all checks passed), 1 (a real
counterexample, shown as a failing report) or 2 (a bad request or instance,
one line on stderr), and loading raises nothing but InstanceError; whatever
the base, a base check gives a verdict or raises InstanceError."""
import copy
import json
import pathlib
import tempfile

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from scalekit.bounded import from_metric, proper_hss_test, uniformly_bounded
from scalekit.cli import main
from scalekit.entourages import Entourage, check_coarse_axioms, check_uniform_axioms
from scalekit.instances import load_space
from scalekit.metric import ball_cover
from scalekit.model import InstanceError, builder_line
from scalekit.reports import CheckReport
from scalekit.scales import Cover, ScaleBase, check_ls_base, check_ss_base, is_hausdorff

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
