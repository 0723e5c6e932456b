import json
import os
import subprocess
import sys

import pytest

from scalekit.cli import main


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
