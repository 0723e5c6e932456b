import argparse
import json
import os
import subprocess
import sys

import pytest

from scalekit.cli import build_parser, main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_pass_exits_zero(capsys):
    code, out, _ = run(capsys, "lebesgue", "--space", "line20",
                       "--cover", "fives")
    assert code == 0
    assert "lebesgue = 1" in out


def test_counterexample_exits_one(capsys):
    code, out, _ = run(capsys, "lsmem", "--space", "halfline",
                       "--cover", "unit")
    assert code == 1
    assert "[FAIL]" in out


def test_bad_instance_exits_two(capsys):
    code, _, err = run(capsys, "lebesgue", "--space", "nosuch",
                       "--cover", "fives")
    assert code == 2
    assert err.startswith("error:")


def test_missing_cover_exits_two(capsys):
    code, _, err = run(capsys, "mesh", "--space", "line20",
                       "--cover", "nope")
    assert code == 2
    assert "have:" in err


def test_corrupt_json_exits_two(tmp_path, capsys):
    p = tmp_path / "broken.json"
    p.write_text("{ nope", encoding="utf-8")
    code, _, err = run(capsys, "check-ss", "--space", str(p))
    assert code == 2
    assert "not valid JSON" in err


def test_nan_radius_exits_two(capsys):
    code, out, err = run(capsys, "check-ss", "--space", "line20",
                         "--radii", "nan")
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("radii", ["nan", "-1", "1,inf", ""])
def test_bad_entourage_radius_exits_two(capsys, radii):
    # not a counterexample: the request itself is malformed
    code, out, err = run(capsys, "entourage", "--space", "line20",
                         "--axioms", "coarse", "--radii=" + radii)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1


def test_zero_entourage_radius_is_valid(capsys):
    code, out, _ = run(capsys, "entourage", "--space", "line20",
                       "--axioms", "coarse", "--radii", "0", "--json")
    assert code == 0
    assert json.loads(out)["reports"][0]["status"] == "pass"


def test_t75_without_tagged_functions_exits_two(capsys):
    code, _, err = run(capsys, "t75", "--space", "line20")
    assert code == 2


def test_usage_error_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["lebesgue", "--space", "line20"])
    assert exc.value.code == 2


def test_json_output_is_machine_readable(capsys):
    code, out, _ = run(capsys, "mesh", "--space", "line20",
                       "--cover", "fives", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["command"] == "mesh"
    assert doc["space"] == "line20"


# a minimal valid call of each subcommand on the bundled instances
EVERY_COMMAND = [
    ["check-ss", "--space", "grid5"],
    ["check-ls", "--space", "grid5"],
    ["lebesgue", "--space", "line20", "--cover", "fives"],
    ["mesh", "--space", "line20", "--cover", "fives"],
    ["so", "--space", "halfline", "--function", "step50"],
    ["lsmem", "--space", "halfline", "--cover", "unit"],
    ["c0", "--space", "truncnat", "--cover", "tens"],
    ["ccs", "--space", "truncnat", "--cover", "tens"],
    ["t75", "--space", "truncnat"],
    ["bounded", "--space", "line20", "--levels", "5,10,20", "--subset", "0,1"],
    ["entourage", "--space", "grid5", "--axioms", "uniform"],
    ["op", "--space", "line20", "--operator", "shift"],
    ["sw-test", "--space", "line20", "--functions", "one,parity", "--probe", "step"],
    ["report-all", "--space", "grid5"],
]


@pytest.mark.parametrize("argv", EVERY_COMMAND, ids=lambda argv: argv[0])
def test_every_subcommand_names_itself_in_its_json(capsys, argv):
    # the list reaches every subcommand, so that a new one is held to this too
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    assert sorted(a[0] for a in EVERY_COMMAND) == sorted(sub.choices)
    code, out, err = run(capsys, *argv, "--json")
    assert code in (0, 1) and err == ""
    assert json.loads(out)["command"] == argv[0]


def test_json_output_is_byte_stable(capsys):
    code, first, _ = run(capsys, "so", "--space", "halfline",
                         "--function", "step50", "--json")
    assert code == 0
    _, second, _ = run(capsys, "so", "--space", "halfline",
                       "--function", "step50", "--json")
    assert first == second
    assert json.loads(first)["reports"]


def test_truncation_label_in_human_output(capsys):
    code, out, _ = run(capsys, "ccs", "--space", "truncnat",
                       "--cover", "tens")
    assert code == 0
    assert "RELATIVE-TO-TRUNCATION" in out


def test_levels_override_rebuilds_windows(capsys):
    code, out, _ = run(capsys, "bounded", "--space", "line20",
                       "--levels", "5,10,20", "--subset", "0,1,2", "--json")
    assert code == 0
    doc = json.loads(out)
    assert any(r["status"] for r in doc["reports"])


@pytest.mark.parametrize("argv", [
    pytest.param(["ccs", "--cover", "fives", "--levels", "nan"], id="nan-top"),
    pytest.param(["c0", "--cover", "fives", "--levels", "5,inf"], id="inf-top"),
    pytest.param(["c0", "--cover", "fives", "--levels", ","], id="no-top"),
    pytest.param(["bounded", "--levels", "5,nan,15"], id="nan-inside"),
])
def test_bad_levels_exit_two(capsys, argv):
    code, out, err = run(capsys, *argv[:1], "--space", "line20", *argv[1:])
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("command", [["c0", "--cover", "u"], ["ccs", "--cover", "u"],
                                     ["bounded"], ["report-all"]])
def test_empty_filtration_exits_two(tmp_path, capsys, command):
    doc = {"points": ["a", "b"], "metric": {"kind": "line", "coords": [0, 1]},
           "filtration": [], "covers": {"u": [["a", "b"]]}}
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run(capsys, *command, "--space", str(path))
    assert code == 2
    assert "at least one level" in err and err.count("\n") == 1


def test_levels_keep_operators(capsys):
    base = ("op", "--space", "line20", "--operator", "shift", "--json")
    code, plain, _ = run(capsys, *base)
    assert code == 0
    code, windowed, err = run(capsys, *base, "--levels", "5,10,15")
    assert code == 0, err
    assert json.loads(windowed)["values"] == json.loads(plain)["values"]


def test_levels_bind_every_payload_to_the_windowed_carrier(tmp_path):
    import argparse

    import numpy as np

    from scalekit.cli import _load
    from scalekit.entourages import Entourage
    from scalekit.instances import InstanceCatalogue, save_instance
    from scalekit.model import builder_line
    space = builder_line(4, 1.0)
    cat = InstanceCatalogue()
    cat.maps["fold"] = np.array([0, 0, 1, 1, 2], dtype=np.int64)
    cat.entourages["near"] = Entourage(space, {(0, 1), (1, 0)})
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(save_instance(space, cat)), encoding="utf-8")
    windowed, got = _load(argparse.Namespace(space=str(path), levels="1,3"))
    assert windowed.filtration.levels == (frozenset({0, 1}), frozenset({0, 1, 2, 3}))
    assert list(got.maps["fold"]) == [0, 0, 1, 1, 2]
    assert got.entourages["near"].space is windowed
    assert got.entourages["near"].pairs == cat.entourages["near"].pairs


def test_seed_pins_random_probes(capsys, monkeypatch):
    monkeypatch.setenv("SCALEKIT_SEED", "7")
    _, first, _ = run(capsys, "bounded", "--space", "truncnat", "--json")
    _, second, _ = run(capsys, "bounded", "--space", "truncnat", "--json")
    assert first == second
    monkeypatch.setenv("SCALEKIT_SEED", "8")
    _, third, _ = run(capsys, "bounded", "--space", "truncnat", "--json")
    assert json.loads(third)["command"] == "bounded"


def test_entourage_and_op_smoke(capsys):
    code, _, _ = run(capsys, "entourage", "--space", "grid5",
                     "--axioms", "coarse", "--json")
    assert code == 0
    code, out, _ = run(capsys, "op", "--space", "line20",
                      "--operator", "shift", "--cover", "fives",
                      "--nmax", "5", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["values"]["support_pairs"] == 41.0


def test_op_rejects_a_fractional_triplet_row(tmp_path, capsys):
    doc = {"points": ["a", "b", "c"], "metric": {"kind": "line", "coords": [0, 1, 2]},
           "operators": {"t": {"triplets": [[1.7, 0, 1, 0]]}}}
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run(capsys, "op", "--space", str(path), "--operator", "t", "--json")
    assert code == 2
    assert out == ""
    assert "triplet rows" in err and err.startswith("error:") and err.count("\n") == 1


def test_sw_test_routes(capsys):
    code, out, _ = run(capsys, "sw-test", "--space", "line20",
                       "--functions", "parity,one", "--probe", "step")
    assert code == 1
    assert "[FAIL]" in out


def test_console_script_entry_point():
    env = dict(os.environ)
    proc = subprocess.run([sys.executable, "-m", "scalekit.cli", "--version"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert "scalekit" in proc.stdout


def test_version_is_the_package_version(capsys):
    import tomllib
    from pathlib import Path

    import scalekit
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out == "scalekit %s\n" % scalekit.__version__
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    with open(pyproject, "rb") as fh:
        assert tomllib.load(fh)["project"]["version"] == scalekit.__version__


def source_env():
    """The environment of a fresh interpreter that imports this checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [
        os.path.join(os.path.dirname(__file__), "..", "src"), env.get("PYTHONPATH")]))
    return env


HUGE = {"points": ["a", "b", "c"], "metric": {"kind": "line", "coords": [0, 1, 2]},
        "filtration": [["a"], ["a", "b"]],
        "functions": {"huge": [1.7e308, -1.7e308, 1.7e308]}}


@pytest.mark.parametrize("form, code, status", [("strict", 1, "fail"),
                                                ("relaxed", 0, "pass")])
def test_gaps_past_the_largest_float_read_inf_without_a_warning(tmp_path, form, code, status):
    # a fresh interpreter, where numpy's warnings reach stderr as they would
    doc = tmp_path / "huge.json"
    doc.write_text(json.dumps(HUGE), encoding="utf-8")
    proc = subprocess.run([sys.executable, "-m", "scalekit.cli", "so", "--space", str(doc),
                           "--function", "huge", "--form", form, "--json"],
                          capture_output=True, text=True, env=source_env())
    assert proc.stderr == ""
    assert proc.returncode == code
    report = json.loads(proc.stdout)["reports"][0]
    assert report["status"] == status
    if form == "strict":
        assert report["counterexample"]["gap"] == "inf"


@pytest.mark.parametrize("tau", ["nan", "-1"])
def test_an_operator_threshold_that_is_no_nonnegative_number_exits_two(capsys, tau):
    code, out, err = run(capsys, "op", "--space", "line20", "--operator", "shift",
                         "--tau", tau, "--json")
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: threshold")


REPORT = ["report-all", "--space", "halfline", "--json"]


# a run whose output all fitted in the pipe before it closed ends as usual,
# and argparse itself drops a failed write of --help
@pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("argv, head, codes", [(REPORT, 0, {141}), (REPORT, 100, {0, 141}),
                                               (["--help"], 0, {0, 141})],
                         ids=["report-0", "report-100", "help-0"])
def test_a_closed_stdout_ends_the_run_without_a_traceback(buffered, argv, head, codes):
    # the reader takes ``head`` bytes and closes the pipe, as ``| head -c``
    # does; with none read, the pipe closes before the run writes at all.
    # Unbuffered, the write itself fails; buffered, the flush does.
    env = source_env()
    env.pop("PYTHONUNBUFFERED", None)
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    proc = subprocess.Popen([sys.executable, "-m", "scalekit.cli", *argv],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    proc.stdout.read(head)
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    code = proc.wait()
    assert err == ""  # no traceback, nor the interpreter's last flush
    assert code in codes
