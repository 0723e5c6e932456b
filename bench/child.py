"""Fresh-interpreter side of the benchmark.

    python bench/child.py setup T0 SPEC...
        import scalekit, then build or load each instance SPEC; print JSON
        with the time from T0 (the parent's time.monotonic() at spawn) to the
        end of the import, and each instance's own load time.
    python bench/child.py trace OUT ARG...
        run scalekit.cli.main(ARG...) under the tracer and write the spans,
        the import time and the wall time to OUT; exit with main's code.
        The harness sets the spans' operation id.

SPEC is ``bundled:NAME``, ``path:FILE``, ``line:N:H``, ``grid:N`` or
``zwin:N``.  Run with ``src`` on PYTHONPATH.
"""
from __future__ import annotations

import json
import sys
import time


def build(spec: str):
    import scalekit as sk
    kind, _, arg = spec.partition(":")
    if kind == "bundled":
        return sk.instances.bundled(arg)
    if kind == "path":
        return sk.instances.load_path(arg)
    if kind == "line":
        n, h = arg.split(":")
        return sk.builder_line(int(n), float(h))
    if kind == "grid":
        return sk.builder_grid(int(arg))
    if kind == "zwin":
        return sk.z_window(int(arg))
    raise SystemExit("unknown instance spec %r" % spec)


def setup(t0: float, specs) -> None:
    import scalekit  # noqa: F401
    imported = time.monotonic() - t0
    loads = {}
    held = []
    for spec in specs:
        t = time.perf_counter()
        held.append(build(spec))
        loads[spec] = time.perf_counter() - t
    print(json.dumps({"import_s": imported, "load_s": loads}))


def trace(out: str, argv) -> int:
    t0 = time.perf_counter()
    import scalekit.cli
    import_s = time.perf_counter() - t0
    from tracer import Tracer
    tracer = Tracer()
    tracer.install()
    try:
        code = scalekit.cli.main(argv)
    except SystemExit as exc:  # argparse rejects a request with exit 2
        code = exc.code if isinstance(exc.code, int) else 2
    wall = time.perf_counter() - t0
    sys.stdout.flush()
    with open(out, "w", encoding="utf-8") as fh:
        json.dump({"import_s": import_s, "wall_s": wall, "spans": tracer.spans}, fh)
    return code


if __name__ == "__main__":
    mode = sys.argv[1]
    if mode == "setup":
        setup(float(sys.argv[2]), sys.argv[3:])
    elif mode == "trace":
        sys.exit(trace(sys.argv[2], sys.argv[3:]))
    else:
        raise SystemExit("unknown mode %r" % mode)
