"""scalekit benchmark: end-to-end and per-layer timings on three workloads.

    python3 bench/run.py --workload cli-small --seed 0 --seconds 55 --trace 0
    python3 bench/run.py --workload all        # every workload in turn

Workloads (see workloads.py and README.md in this directory):
  cli-small         fresh `python -m scalekit.cli ... --json` per operation
  size-sweep        one in-process battery at growing carrier sizes
  truncation-heavy  the slow CLI runs on the truncated carriers; not in
                    BENCHMARK.json, run by name for its profile

With --trace 0 a run measures set-up, then passes over the workload's
operations for --seconds (at least one whole pass; a CLI run stops between
operations, a size-sweep run between passes), and reports the end-to-end
metrics from each operation's mean time.  With --trace 1 it makes one plain pass and
one pass under the tracer and reports the per-layer metrics.  Every output
is checked against golden.json.  The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}.

`--record-golden` rewrites golden.json from one pass of every workload at
the default seed; run it only on a commit whose outputs are known good.

Child processes run one at a time with PYTHONPATH=src and BLAS pinned to one
thread.  Files it writes go to .bench_out/ in the repository root.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import select
import signal
import statistics
import subprocess
import sys
import time
from math import log
from pathlib import Path

import tracer as tr
from workloads import SEEDED, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
GOLDEN = BENCH / "golden.json"
DEFAULT_SEED = 0
BLAS_THREADS = 1
OP_TIMEOUT_S = 60.0
# no operation starts later than this into a run, so a run ends well
# inside three minutes even when the machine is slow
RUN_BUDGET_S = 160.0

END_TO_END = (("run_wall_s", "s"), ("op_p50_s", "s"), ("op_tail_s", "s"),
              ("setup_s", "s"), ("peak_rss_mb", "MB"))


class HarnessError(RuntimeError):
    """The benchmark itself cannot run: no result is printed."""


# -- child processes ---------------------------------------------------------

def child_env(seed: int) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["SCALEKIT_SEED"] = str(seed)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def run_child(argv, env, timeout: float):
    """Run one child to completion.

    Returns (wall seconds, exit code or None on timeout, peak RSS in MB,
    stdout bytes, stderr bytes).  Output goes through files so a large
    report cannot block on a full pipe; the child's own resource usage
    comes from wait4.
    """
    OUT.mkdir(exist_ok=True)
    out_path = OUT / ("child-%d.out" % os.getpid())
    err_path = OUT / ("child-%d.err" % os.getpid())
    with open(out_path, "wb") as fo, open(err_path, "wb") as fe:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=fo, stderr=fe, env=env, cwd=ROOT)
        try:
            fd = os.pidfd_open(proc.pid)
            try:
                poller = select.poll()
                poller.register(fd, select.POLLIN)
                done = bool(poller.poll(max(timeout, 0.0) * 1000.0))
            finally:
                os.close(fd)
            if not done:
                proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    code = proc.returncode if done else None
    return (wall, code, usage.ru_maxrss / 1024.0,
            out_path.read_bytes(), err_path.read_bytes())


# -- golden records ----------------------------------------------------------

def load_golden() -> dict:
    if not GOLDEN.is_file():
        raise HarnessError("missing %s" % GOLDEN)
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def check_cli(op: str, code, stdout: bytes, stderr: bytes, seed: int,
              golden: dict):
    """None when the operation's outcome is right, else the reason."""
    if code is None:
        return "timed out"
    if b"Traceback" in stderr:
        return "traceback on stderr"
    rec = golden["cli"].get(op)
    if rec is None:
        return "no golden record"
    if op in SEEDED and seed != golden["seed"]:
        # other seeds draw other probes: check the shape, not the bytes
        try:
            doc = json.loads(stdout)
            passed = all(r["status"] == "pass" for r in doc["reports"])
        except (ValueError, KeyError, TypeError):
            return "output is not a report document"
        return None if code == (0 if passed else 1) else "exit code contradicts reports"
    if code != rec["exit"]:
        return "exit %d, golden %d" % (code, rec["exit"])
    if sha256(stdout) != rec["sha256"]:
        return "output differs from golden"
    return None


def check_sweep(result_pass: dict, seed: int, golden: dict) -> dict:
    """{call key: reason} for every size-sweep call that is wrong."""
    bad = {}
    digests = result_pass["digests"]
    for key, want in golden["sweep"].items():
        if key not in digests:
            continue
        if key in result_pass["structural"] and seed != golden["seed"]:
            if not result_pass["structural"][key]:
                bad[key] = "report lacks its witness or counterexample"
        elif digests[key] != want:
            bad[key] = "digest differs from golden"
    for key in digests:
        if key not in golden["sweep"]:
            bad[key] = "no golden record"
    return bad


# -- measurement -------------------------------------------------------------

class Run:
    """One benchmark run of one workload."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool,
                 tiny: bool = False, golden: dict | None = None):
        self.name = workload
        self.spec = WORKLOADS[workload]
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.tiny = tiny
        self.golden = golden  # None: record instead of checking
        self.env = child_env(seed)
        self.start = time.perf_counter()
        self.attempted = 0
        self.failures: list = []
        self.notes: dict = {}
        self.spans: list = []
        self.walls: dict = {}
        self.recorded: dict = {"cli": {}, "sweep": {}}

    def remaining(self) -> float:
        return RUN_BUDGET_S - (time.perf_counter() - self.start)

    def fail(self, what: str, reason: str) -> None:
        self.failures.append((what, reason))

    # set-up ------------------------------------------------------------

    def setup(self) -> list:
        """Per instance and round, the time a fresh interpreter takes to
        import scalekit and hold one instance."""
        specs = self.spec["tiny_instances" if self.tiny else "instances"]
        rounds = 1 if self.tiny else self.spec["rounds"]
        values = []
        for _ in range(rounds):
            t0 = time.monotonic()
            argv = [sys.executable, str(BENCH / "child.py"), "setup", repr(t0), *specs]
            _, code, _, out, err = run_child(argv, self.env, self.remaining())
            if code != 0:
                raise HarnessError("set-up child failed: %s" % err.decode()[-500:])
            doc = json.loads(out)
            values.extend(doc["import_s"] + doc["load_s"][s] for s in specs)
        self.notes["setup_s"] = "median over %d instances x %d rounds, half before and half after the passes" % (
            len(specs), 2 * rounds)
        return values

    # CLI workloads -----------------------------------------------------

    def cli_ops(self, rng=None):
        ops = list(self.spec["tiny_ops" if self.tiny else "ops"])
        (rng or random.Random(self.seed)).shuffle(ops)
        return ops

    def cli_op(self, op: str, traced: bool):
        """Run one operation; returns (wall, peak MB, span doc or None)."""
        args = op.split() + ["--json"]
        spans_path = OUT / ("spans-%d.json" % os.getpid())
        if traced:
            argv = [sys.executable, str(BENCH / "child.py"), "trace",
                    str(spans_path), *args]
        else:
            argv = [sys.executable, "-m", "scalekit.cli", *args]
        self.attempted += 1
        budget = min(OP_TIMEOUT_S, self.remaining())
        if budget <= 0:
            self.fail(op, "not started: run budget spent")
            return None
        wall, code, rss, out, err = run_child(argv, self.env, budget)
        if self.golden is None:
            if code is None or b"Traceback" in err:
                raise HarnessError("cannot record %r: %s" % (op, err.decode()[-500:]))
            self.recorded["cli"][op] = {"exit": code, "sha256": sha256(out)}
        else:
            reason = check_cli(op, code, out, err, self.seed, self.golden)
            if reason:
                self.fail(op, reason)
        doc = None
        if traced and spans_path.is_file():  # absent when the child crashed
            doc = json.loads(spans_path.read_text(encoding="utf-8"))
            doc["exit"] = code
            spans_path.unlink()
        return wall, rss, doc

    def cli_pass(self, traced: bool = False):
        """{op: (wall, peak MB)} for one pass; traced passes keep spans."""
        times, docs = {}, []
        for op in self.cli_ops():
            got = self.cli_op(op, traced)
            if got is None:
                continue
            times[op] = got[:2]
            if got[2] is not None:
                docs.append((op, got[2]))
        return times, docs

    # size-sweep --------------------------------------------------------

    def sweep(self, trace: bool) -> dict:
        result_path = OUT / ("sweep-%d.json" % os.getpid())
        argv = [sys.executable, str(BENCH / "sweep.py"), "--seed", str(self.seed),
                "--seconds", repr(self.seconds), "--trace", str(int(trace)),
                "--out", str(result_path)] + (["--tiny"] if self.tiny else [])
        _, code, _, _, err = run_child(argv, self.env, self.remaining())
        if code != 0:
            raise HarnessError("size-sweep child failed (exit %s): %s"
                               % (code, err.decode()[-2000:]))
        doc = json.loads(result_path.read_text(encoding="utf-8"))
        result_path.unlink()
        checked = doc["passes"] + ([doc["traced"]] if trace else [])
        for p in checked:
            self.attempted += len(p["times"])
            if self.golden is None:
                self.recorded["sweep"].update(p["digests"])
                continue
            for key, reason in check_sweep(p, self.seed, self.golden).items():
                self.fail(key, reason)
        return doc

    # metrics -----------------------------------------------------------

    def end_to_end(self) -> dict:
        setup = self.setup()
        if self.spec["ops"] is None:
            doc = self.sweep(trace=False)
            samples = _by_key([p["times"] for p in doc["passes"]])
            calls = sum(sum(p["samples"].values()) for p in doc["passes"])
            peak = doc["peak_rss_mb"]
            self.notes["scaling_exp"] = scaling(doc, samples)
        else:
            samples, calls, peak = self.cli_loop()
        # The machine's speed drifts over tens of seconds: a mean over the
        # whole run averages the drift, where a median of few samples jumps
        # between a fast and a slow stretch.
        # set-up again after the passes, so that setup_s, too, sees the
        # machine over the whole run
        setup_s = statistics.median(setup + self.setup())
        per_op = sorted(statistics.fmean(v) for v in samples.values())
        tail, pct, beyond = tail_of(per_op)
        self.notes["run_wall_s"] = "sum of per-operation means, %d-%d samples each" % (
            min(len(v) for v in samples.values()), max(len(v) for v in samples.values()))
        self.notes["op_p50_s"] = "median of %d per-operation means, %d samples" % (
            len(per_op), calls)
        self.notes["op_tail_s"] = "p%.1f of %d per-operation means (%d beyond)" % (
            pct, len(per_op), beyond)
        return {"run_wall_s": sum(per_op), "op_p50_s": statistics.median(per_op),
                "op_tail_s": tail, "setup_s": setup_s, "peak_rss_mb": peak}

    def cli_loop(self):
        """Shuffled passes over the operations until --seconds have gone by
        since the first one started; the first pass always completes.
        Returns ({op: [wall, ...]}, samples, peak MB)."""
        samples: dict = {}
        peak = 0.0
        rng = random.Random(self.seed)
        t0 = time.perf_counter()
        first = True
        while first or (time.perf_counter() - t0 < self.seconds and self.remaining() > 0):
            for op in self.cli_ops(rng):
                if not first and time.perf_counter() - t0 >= self.seconds:
                    break
                got = self.cli_op(op, False)
                if got is None:
                    break
                samples.setdefault(op, []).append(got[0])
                peak = max(peak, got[1])
            first = False
        return samples, sum(len(v) for v in samples.values()), peak

    def per_layer(self) -> dict:
        cli_errors = 0
        if self.spec["ops"] is None:
            doc = self.sweep(trace=True)
            plain = sum(doc["passes"][0]["times"].values())
            traced = sum(doc["traced"]["times"].values())
            spans = doc["spans"]
            walls = doc["traced"]["times"]
            import_s = 0.0
        else:
            plain_pass = self.cli_pass()[0]
            plain = sum(t[0] for t in plain_pass.values())
            traced_pass, docs = self.cli_pass(traced=True)
            traced = sum(t[0] for t in traced_pass.values())
            spans, walls, imports = [], {}, []
            for op, d in docs:
                base = len(spans)
                for s in d["spans"]:
                    if s[3] >= 0:
                        s[3] += base
                    s[4] = op
                    spans.append(s)
                walls[op] = d["wall_s"]
                imports.append(d["import_s"])
                cli_errors += d["exit"] == 2
            import_s = statistics.median(imports) if imports else 0.0
        self.spans = spans
        self.walls = walls
        vals = tr.layer_metrics(spans, cli_errors)
        vals["cli.import_s"] = import_s
        vals["trace.overhead_s"] = traced - plain
        self.notes["trace.overhead_s"] = "traced pass %.3f s - plain pass %.3f s" % (
            traced, plain)
        return vals

    def result(self) -> dict:
        if self.trace:
            units = dict(tr.PER_LAYER)
            values = self.per_layer()
        else:
            units = dict(END_TO_END)
            values = self.end_to_end()
        if self.spans:
            OUT.mkdir(exist_ok=True)
            path = OUT / ("spans-%s-seed%d.json" % (self.name, self.seed))
            path.write_text(json.dumps(self.spans), encoding="utf-8")
        return {"correct": not self.failures, "attempted": self.attempted,
                "failed": len(self.failures),
                "metrics": {k: {"value": values[k], "unit": units[k]} for k in units}}


def _by_key(passes) -> dict:
    out: dict = {}
    for p in passes:
        for k, v in p.items():
            out.setdefault(k, []).append(v)
    return out


def tail_of(sorted_values):
    """(value, percentile, values beyond) at the highest percentile with at
    least ten values beyond it.  With ten values or fewer no percentile has
    ten beyond: the maximum is reported as p100."""
    n = len(sorted_values)
    if n <= 10:
        return sorted_values[-1], 100.0, 0
    return sorted_values[n - 11], 100.0 * (n - 10) / n, 10


def scaling(doc, samples) -> str:
    """Least-squares slope of log(battery wall) on log(n): one common slope
    over all families (each keeps its own intercept), then each family's."""
    walls: dict = {}
    for key, v in samples.items():
        spec = key.split("/")[0]
        walls[spec] = walls.get(spec, 0.0) + statistics.fmean(v)
    fams: dict = {}
    for spec, w in walls.items():
        fams.setdefault(doc["families"][spec], []).append((log(doc["sizes"][spec]), log(w)))
    num = den = 0.0
    per = []
    for fam, pts in fams.items():
        if len(pts) < 2:
            continue
        mx = statistics.fmean(x for x, _ in pts)
        my = statistics.fmean(y for _, y in pts)
        fn = sum((x - mx) * (y - my) for x, y in pts)
        fd = sum((x - mx) ** 2 for x, _ in pts)
        num, den = num + fn, den + fd
        per.append("%s %.2f" % (fam, fn / fd))
    common = num / den if den else float("nan")
    return "%.3f (per family: %s)" % (common, ", ".join(per))


# -- stamp and output --------------------------------------------------------

def stamp(run: Run) -> dict:
    code = ("import json, sys, numpy; c = numpy.show_config(mode='dicts');"
            "b = c['Build Dependencies']['blas'];"
            "print(json.dumps([sys.version.split()[0], numpy.__version__,"
            " '%s %s' % (b.get('name'), b.get('version'))]))")
    _, rc, _, out, _ = run_child([sys.executable, "-c", code], run.env, 60)
    py, np_version, blas = json.loads(out) if rc == 0 else (None, None, None)
    head = ROOT / ".git" / "HEAD"
    commit = None
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            ref = ref_file.read_text().strip() if ref_file.is_file() else None
        commit = ref
    src = hashlib.sha256()
    for path in sorted((SRC / "scalekit").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((l.split(":", 1)[1].strip() for l in fh
                        if l.startswith("model name")), cpu)
    except OSError:
        pass
    return {"commit": commit, "src_sha256": src.hexdigest()[:16], "python": py,
            "numpy": np_version, "blas": blas, "blas_threads": BLAS_THREADS,
            "nproc": len(os.sched_getaffinity(0)), "cpu": cpu, "seed": run.seed,
            "workload": run.name, "seconds": run.seconds, "trace": int(run.trace)}


def report(run: Run, res: dict) -> None:
    print("# stamp %s" % json.dumps(stamp(run), sort_keys=True))
    for name, m in res["metrics"].items():
        note = run.notes.get(name, "")
        print("%-44s %14.6g %-6s %s" % (name, m["value"], m["unit"], note))
    if not run.trace:
        print("%-44s %14.6g %-6s %d of %d operations" % (
            "failed_frac", res["failed"] / max(res["attempted"], 1), "ratio",
            res["failed"], res["attempted"]))
        if "scaling_exp" in run.notes:
            print("%-44s %s" % ("scaling_exp", run.notes["scaling_exp"]))
    for what, reason in run.failures:
        print("# FAILED %s: %s" % (what, reason))
    print(json.dumps(res))


def record_golden() -> None:
    rec = {"seed": DEFAULT_SEED, "cli": {}, "sweep": {}}
    for name, spec in WORKLOADS.items():
        # the tiny CLI operations are a subset of the full ones; the tiny
        # sweep carriers are not
        for tiny in (False, True) if spec["ops"] is None else (False,):
            run = Run(name, DEFAULT_SEED, 0.0, False, tiny=tiny, golden=None)
            if spec["ops"] is None:
                run.sweep(trace=False)
            else:
                run.cli_pass()
            rec["cli"].update(run.recorded["cli"])
            rec["sweep"].update(run.recorded["sweep"])
    GOLDEN.write_text(json.dumps(rec, indent=1, sort_keys=True) + "\n",
                      encoding="utf-8")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="scalekit benchmark")
    ap.add_argument("--workload", choices=(*WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=55.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-golden", action="store_true")
    args = ap.parse_args(argv)
    # a terminated run still stops its children on the way out
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        if not (SRC / "scalekit" / "__init__.py").is_file():
            raise HarnessError("no scalekit sources under %s" % SRC)
        if args.record_golden:
            record_golden()
            return 0
        if args.workload is None:
            ap.error("--workload is required")
        golden = load_golden()
        names = list(WORKLOADS) if args.workload == "all" else [args.workload]
        for name in names:
            run = Run(name, args.seed, args.seconds, bool(args.trace), golden=golden)
            report(run, run.result())
    except HarnessError as exc:
        print("bench: %s" % exc, file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
