"""size-sweep workload: one fixed battery of checks at growing carrier sizes.

Runs in its own interpreter (started by run.py with the BLAS threads pinned)
and calls the library directly, never the command line or the bundled
instances:

    python bench/sweep.py --seed N --seconds S --trace 0|1 --out FILE [--tiny]

It makes one whole pass over the carriers, then further passes, each in a
seeded shuffled order, skipping a carrier whose battery would end past S
seconds, until none fits.  It writes, per pass, each call's time, output digest and
structural verdict, plus its peak resident set, to FILE as JSON.
With --trace 1 it makes one plain pass and then one pass under the tracer,
and writes the spans as well; a span's operation id is the call's key.

Library functions are looked up on the package at call time, so the
tracer's rebinding reaches them.
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import json
import random
import resource
import statistics
import time

import numpy as np

import scalekit as sk
from scalekit.algebra_noncomm import OperatorMatrix, StarFamily

from child import build
from workloads import CARRIERS, TINY_CARRIERS

LS_RADII = (1.0, 3.0, 9.0, 27.0)
SS_RADII = (3.0, 1.0, 1.0 / 3)
# entourage radii in units of the carrier's spacing, so that relations on the
# dense lines stay as sparse as on h=1; ball radii above are absolute
LADDER = (1.0, 3.0, 9.0, 27.0)
EPS = (1.0, 0.5, 0.25)
BLOCK = 5.0
NMAX = 8
SHORT_S = 0.05
SHORT_CALLS = 3
# calls whose output depends on the seeded function values
SEEDED = ("so_strict", "so_relaxed")


def _sha(payload) -> str:
    return hashlib.sha256(json.dumps(payload, sort_keys=True,
                                     default=str).encode()).hexdigest()[:16]


def _sha_sets(sets) -> str:
    """Digest of a sequence of point or pair sets, hashed set by set so that
    checking does not raise the peak memory being measured."""
    h = hashlib.sha256()
    for s in sets:
        h.update(np.array(sorted(s), dtype=np.int64).tobytes())
        h.update(b"|")
    return h.hexdigest()[:16]


def digest(obj) -> str:
    """Verdict plus witness digest of a call's result."""
    if isinstance(obj, sk.CheckReport):
        return "%s:%s" % ("pass" if obj.status else "fail", _sha(obj.to_payload()))
    if isinstance(obj, (float, np.floating)):
        return repr(float(obj))
    if isinstance(obj, sk.Cover):
        return _sha_sets(obj.elements)
    if hasattr(obj, "covers"):
        return _sha_sets(e for c in obj.covers for e in c.elements)
    if isinstance(obj, list):
        return _sha_sets(e.pairs for e in obj)
    if isinstance(obj, sk.BoundedStructure):
        return _sha_sets(obj.components().components)
    raise TypeError("no digest for %r" % type(obj))


def structurally_ok(obj) -> bool:
    """A report carries witnesses when it passes, a counterexample when not."""
    if obj.status:
        return obj.counterexample is None and len(obj.witnesses) > 0
    return obj.counterexample is not None


def block_cover(space):
    """Blocks of BLOCK coordinate units (squares on a grid)."""
    coords = np.asarray(space.coords, dtype=float).reshape(space.n, -1)
    keys = [tuple(k) for k in np.floor(coords / BLOCK).astype(int).tolist()]
    blocks: dict = {}
    for i, k in enumerate(keys):
        blocks.setdefault(k, []).append(i)
    return sk.Cover(space, [blocks[k] for k in sorted(blocks)], name="blocks")


def shift_family(space):
    """Unit steps along the load order and, on grids, across rows."""
    side = int(round(space.n ** 0.5)) if space.metric_kind == "grid" else space.n
    entries = {}
    for x in range(space.n):
        if (x + 1) % side:
            entries[(x, x + 1)] = 1.0
        if space.metric_kind == "grid" and x + side < space.n:
            entries[(x, x + side)] = 1.0
    op = OperatorMatrix(space, entries, name="shift")
    return StarFamily(space, ("shift",), (op,)).with_adjoints()


def seeded_function(space, seed: int, k: int) -> np.ndarray:
    """A wave of period 16 plus small seeded noise.  The phase is fixed: it
    sets how many pairs are heavy, and so the work and memory of the
    oscillation checks, which should not change with the seed."""
    rng = np.random.default_rng([seed, k])
    coords = np.asarray(space.coords, dtype=float).reshape(space.n, -1)
    x = coords[:, 0] + 0.5 * coords[:, -1] * (coords.shape[1] > 1)
    return np.sin(2 * np.pi * x / 16.0) + 0.05 * rng.standard_normal(space.n)


def battery(spec, space, f):
    """Yield (call name, thunk) for the fixed battery on one carrier."""
    if spec.startswith("zwin:"):
        g = sk.window_group(space)
        idx = space.index
        fs = [frozenset(idx[str(v)] for v in (-1, 0, 1)),
              frozenset(idx[str(v)] for v in (-2, 2))]
        yield "check_translation_ls", lambda: sk.check_translation_ls(g, fs)
        return
    out: dict = {}

    def keep(key, fn):
        def run():
            out[key] = fn()
            return out[key]
        return run

    yield "metric_ls_base", keep("ls", lambda: sk.metric_ls_base(space, LS_RADII))
    yield "check_ls_base", lambda: sk.check_ls_base(out["ls"])
    yield "metric_ss_base", keep("ss", lambda: sk.metric_ss_base(space, SS_RADII))
    yield "check_ss_base", lambda: sk.check_ss_base(out["ss"])
    yield "block_cover", keep("blocks", lambda: block_cover(space))
    yield "mesh", lambda: sk.mesh(out["blocks"])
    yield "lebesgue_number", lambda: sk.lebesgue_number(out["blocks"])
    yield "metric_entourage", keep(
        "ents", lambda: [sk.metric_entourage(space, r * space.d[0, 1]) for r in LADDER])
    yield "check_coarse_axioms", lambda: sk.check_coarse_axioms(out["ents"])
    yield "from_metric", keep("b", lambda: sk.from_metric(space))
    q = {}

    def so(form):
        if "q" not in q:
            q["q"] = sk.SOQuery(f, out["ls"].covers[:2], EPS, out["b"])
        return sk.is_slowly_oscillating(q["q"], form)

    yield "so_strict", lambda: so("strict")
    yield "so_relaxed", lambda: so("relaxed")
    yield "f_bounded", lambda: sk.f_bounded(out["blocks"], shift_family(space), NMAX)


def run_pass(carriers, seed, repeat=True, tracer=None, sizes=None,
             order=None, fits=None):
    """One pass: each call's seconds, output digest and, for the seeded
    calls, structural verdict.  Digests are taken outside the timed calls.

    ``order`` lists the carriers' indices in the order to visit them (all,
    in turn, by default); a carrier for which ``fits(index)`` is false is
    skipped.  ``carrier_s`` holds each carrier's seconds.

    With ``repeat``, a call shorter than SHORT_S is made SHORT_CALLS times
    in all and timed by the median call: a single call of a few milliseconds
    says more about the machine's jitter than about the call.  The count is
    fixed, not a time budget, so a faster machine does not make more calls.
    A collection before each call keeps garbage left by the previous one
    out of its time."""
    times, digests, shapes, samples, carrier_s = {}, {}, {}, {}, {}
    clock = time.perf_counter
    for k in range(len(carriers)) if order is None else order:
        if fits is not None and not fits(k):
            continue
        spec = carriers[k][1]
        started = clock()
        if tracer is not None:
            tracer.op = None  # building the carrier is set-up, not a call
        space = build(spec)
        f = seeded_function(space, seed, k)
        if sizes is not None:
            sizes[spec] = space.n
        for call, thunk in battery(spec, space, f):
            key = "%s/%s" % (spec, call)
            if tracer is not None:
                tracer.op = key
            gc.collect()
            t = clock()
            res = thunk()
            reps = [clock() - t]
            while repeat and reps[0] < SHORT_S and len(reps) < SHORT_CALLS:
                t = clock()
                thunk()
                reps.append(clock() - t)
            times[key] = statistics.median(reps)
            samples[key] = len(reps)
            digests[key] = digest(res)
            if call in SEEDED:
                shapes[key] = structurally_ok(res)
        del space
        carrier_s[k] = clock() - started
    return {"times": times, "samples": samples, "digests": digests,
            "structural": shapes, "carrier_s": carrier_s}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", required=True)
    ap.add_argument("--tiny", action="store_true")
    args = ap.parse_args(argv)
    carriers = TINY_CARRIERS if args.tiny else CARRIERS
    sizes: dict = {}
    start = time.perf_counter()
    # the traced run compares single calls with single calls
    passes = [run_pass(carriers, args.seed, not args.trace, sizes=sizes)]
    result = {"families": {spec: fam for fam, spec in carriers}, "sizes": sizes}
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
        try:
            traced = run_pass(carriers, args.seed, False, tracer)
        finally:
            tracer.uninstall()
        result["traced"] = traced
        result["spans"] = tracer.spans
    else:
        first = passes[0]["carrier_s"]
        until = start + args.seconds
        rng = random.Random(args.seed)
        order = list(range(len(carriers)))

        def fits(k):
            return time.perf_counter() + first[k] <= until

        while any(fits(k) for k in order):
            rng.shuffle(order)
            passes.append(run_pass(carriers, args.seed, order=order, fits=fits))
    result["passes"] = passes
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
