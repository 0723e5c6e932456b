"""What each entry point loads: ``import scalekit`` holds the data layer
only, a command line call loads the checks it runs, and the package's lazy
names resolve afresh on each access, so that the benchmark's tracer reaches
through them and leaves nothing behind.  The module sets are read in a fresh
interpreter, where nothing else has imported them yet."""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import scalekit
from scalekit import scales

from test_api import TRACER

ROOT = Path(__file__).resolve().parent.parent
UNREACHED = {"duality", "algebra_noncomm", "translation", "oscillation"}


def fresh(code: str, *argv: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", code, *argv], capture_output=True,
                          text=True, env=env, cwd=ROOT)


# prints the scalekit submodules that a run left loaded, as the last line of
# stderr, however the run exits
LOADED = ("import atexit, json, sys\n"
          "atexit.register(lambda: print(json.dumps(sorted(\n"
          "    m[len('scalekit.'):] for m in sys.modules if m.startswith('scalekit.'))),\n"
          "    file=sys.stderr))\n")


def test_import_loads_only_the_data_layer():
    proc = fresh(LOADED + "import scalekit")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stderr.splitlines()[-1]) == ["model", "reports"]


@pytest.mark.parametrize("space", ["grid5", "instances/grid6.json"])
def test_check_ss_loads_no_algebra_layer(space):
    # runpy with alter_sys is how ``python -m scalekit.cli`` runs the module
    code = LOADED + ("import runpy\n"
                     "sys.argv[0] = 'scalekit'\n"
                     "runpy.run_module('scalekit.cli', run_name='__main__', alter_sys=True)\n")
    proc = fresh(code, "check-ss", "--space", space, "--json")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["command"] == "check-ss"
    loaded = set(json.loads(proc.stderr.splitlines()[-1]))
    assert {"instances", "metric", "scales"} <= loaded
    assert not loaded & UNREACHED


@pytest.mark.parametrize("argv", [
    ("check-ss", "--space", "grid5"),
    ("check-ls", "--space", "halfline"),
    ("lebesgue", "--space", "truncnat", "--cover", "fives"),
    ("mesh", "--space", "instances/grid6.json", "--cover", "dominoes-v"),
], ids=lambda argv: "%s-%s" % (argv[0], argv[2]))
def test_ball_and_cover_checks_load_no_entourage_layer(argv):
    # instances loads the entourage layer only for a document that carries
    # entourages, which no bundled instance does
    code = LOADED + ("import runpy\n"
                     "sys.argv[0] = 'scalekit'\n"
                     "runpy.run_module('scalekit.cli', run_name='__main__', alter_sys=True)\n")
    proc = fresh(code, *argv, "--json")
    assert proc.returncode in (0, 1), proc.stderr
    assert json.loads(proc.stdout)["command"] == argv[0]
    loaded = set(json.loads(proc.stderr.splitlines()[-1]))
    assert {"instances", "scales"} <= loaded
    assert "entourages" not in loaded


def test_an_operator_payload_loads_no_function_algebra_layer():
    # bundled line20 carries a shift operator, whose layer needs the fine
    # scales of a base but none of the function-algebra checks
    code = LOADED + ("import runpy\n"
                     "sys.argv[0] = 'scalekit'\n"
                     "runpy.run_module('scalekit.cli', run_name='__main__', alter_sys=True)\n")
    proc = fresh(code, "mesh", "--space", "line20", "--cover", "fives", "--json")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["command"] == "mesh"
    loaded = set(json.loads(proc.stderr.splitlines()[-1]))
    assert {"algebra_noncomm", "metric", "scales"} <= loaded
    assert not loaded & {"algebra_comm", "bounded", "oscillation"}


@pytest.mark.parametrize("argv", [
    ("bounded", "--space", "truncnat"),
    ("lsmem", "--space", "halfline", "--cover", "unit"),
], ids=lambda argv: "%s-%s" % (argv[0], argv[2]))
def test_component_partitions_load_no_masked_arrays(argv):
    # np.unique imports numpy.ma on its first call, about 1 MB and several
    # milliseconds of a command line call
    code = ("import atexit, sys\n"
            "atexit.register(lambda: print('numpy.ma' in sys.modules, file=sys.stderr))\n"
            "import runpy\n"
            "sys.argv[0] = 'scalekit'\n"
            "runpy.run_module('scalekit.cli', run_name='__main__', alter_sys=True)\n")
    proc = fresh(code, *argv, "--json")
    assert proc.returncode in (0, 1), proc.stderr
    assert json.loads(proc.stdout)["command"] == argv[0]
    assert proc.stderr.splitlines()[-1] == "False"


def test_lazy_names_are_looked_up_on_every_access():
    assert "refines" not in vars(scalekit)
    original = scales.refines
    tracer = TRACER.Tracer()
    tracer.install()
    try:
        traced = scalekit.refines
        assert traced is scales.refines and traced.__wrapped__ is original
    finally:
        tracer.uninstall()
    assert scalekit.refines is original
    assert "refines" not in vars(scalekit)


def test_unknown_names_raise_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        scalekit.no_such_name
