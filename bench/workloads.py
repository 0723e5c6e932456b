"""The benchmark's workloads, as data.

Every workload is a closed loop with one client: the next operation starts
when the previous one has ended.  A CLI operation is the argument list of
one ``python -m scalekit.cli ... --json`` call; a size-sweep carrier is an
instance spec that ``child.build`` understands.
"""
from __future__ import annotations

# The README's command-line examples, except `report-all --space truncnat`,
# which is one of the heavy truncated runs below.
README = (
    "lebesgue --space line20 --cover fives",
    "so --space halfline --function step50 --form strict",
    "lsmem --space halfline --cover unit",
    "t75 --space truncnat",
    "bounded --space truncnat --subset 0,5,199",
    "entourage --space grid6 --axioms coarse",
    "op --space line20 --operator shift --cover fives --nmax 5",
    "sw-test --space line20 --functions one,parity --probe step",
)

# Per carrier: the c0/ccs/lebesgue/mesh/check-ss/check-ls requests it can
# answer.  grid5 ships no cover, and c0/ccs need windows, which line20 gets
# from --levels and the grids cannot take.
_PER_SPACE = {
    "line20": ("check-ss", "check-ls", "lebesgue --cover fives",
               "mesh --cover fives", "c0 --cover fives --levels 5,10,15",
               "ccs --cover fives --levels 5,10,15"),
    "grid5": ("check-ss", "check-ls"),
    "grid6": ("check-ss", "check-ls", "lebesgue --cover dominoes-h",
              "mesh --cover dominoes-v"),
    "truncnat": ("check-ss", "check-ls", "lebesgue --cover fives",
                 "mesh --cover unit", "c0 --cover fives", "ccs --cover unit"),
}


def _on(space: str, request: str) -> str:
    cmd, _, rest = request.partition(" ")
    return " ".join(filter(None, (cmd, "--space", space, rest)))


# dict.fromkeys drops the per-space requests that repeat a README example
# The short runs on the truncated carriers: scans that stop early in a
# counterexample (check-ls, so) beside one that runs to the end (lsmem), and
# the seeded random probes of `bounded`.
TRUNCATED_SHORT = (
    "check-ls --space halfline",
    "so --space halfline --function wave --form relaxed",
    "lsmem --space halfline --cover shrink",
    "bounded --space truncnat",
)

CLI_SMALL = tuple(dict.fromkeys(README + tuple(
    _on(space, req)
    for name, reqs in _PER_SPACE.items()
    for space in (name, "instances/%s.json" % name)
    for req in reqs
))) + TRUNCATED_SHORT + (
    # bad requests: the contract says exit 2 with a one-line error
    "mesh --space grid5 --cover unit",
    "lebesgue --space line20 --cover nosuch",
)

# The long runs: one pass takes about 40 s on a 2-core Xeon and has eight
# operations, too long and too few for a steady timed run, so this workload
# is not in BENCHMARK.json; run it by name for its per-layer profile.

TRUNCATION_HEAVY = (
    "report-all --space halfline",
    "report-all --space truncnat",
    "mesh --space instances/halfline.json --cover unit",
    "entourage --space halfline --axioms coarse",
) + TRUNCATED_SHORT

# operations whose output depends on the benchmark seed (SCALEKIT_SEED)
SEEDED = frozenset({"bounded --space truncnat"})

# (family, instance spec); sizes span 4x in the number of points for each
# line family.  h=1/8 puts 8x more points in every ball of the same radius,
# so it costs more than h=1 at equal n.  The grids stop at 12x12: the coarse
# entourage check is cubic there (5 s at 12x12 on a 2-core Xeon) and 16x16
# alone would take longer than a run.
CARRIERS = (
    ("line h=1", "line:250:1"), ("line h=1", "line:500:1"),
    ("line h=1", "line:1000:1"),
    ("line h=1/8", "line:50:0.125"), ("line h=1/8", "line:100:0.125"),
    ("line h=1/8", "line:200:0.125"),
    ("grid", "grid:6"), ("grid", "grid:8"), ("grid", "grid:10"),
    ("grid", "grid:12"),
    ("z window", "zwin:40"), ("z window", "zwin:80"), ("z window", "zwin:160"),
)
TINY_CARRIERS = (("line h=1", "line:12:1"), ("line h=1", "line:24:1"),
                 ("grid", "grid:3"), ("grid", "grid:4"),
                 ("z window", "zwin:4"), ("z window", "zwin:8"))


def _bundled_and_json(*names):
    return tuple(s for n in names for s in ("bundled:" + n, "path:instances/%s.json" % n))


# ops: the pass; instances: what setup_s loads; rounds: fresh interpreters
# for setup_s before the passes, and as many after them.  The tiny_*
# variants serve the self-tests.  GATED lists the workloads BENCHMARK.json
# declares, in its order.
WORKLOADS = {
    "cli-small": {
        "ops": CLI_SMALL,
        "tiny_ops": ("check-ss --space line20", "mesh --space grid5 --cover unit"),
        "instances": _bundled_and_json("line20", "grid5", "grid6", "truncnat")
        + ("bundled:halfline",),
        "tiny_instances": ("bundled:line20",),
        "rounds": 3,
    },
    "truncation-heavy": {
        "ops": TRUNCATION_HEAVY,
        "tiny_ops": ("bounded --space truncnat",),
        "instances": ("bundled:halfline", "path:instances/halfline.json",
                      "bundled:truncnat"),
        "tiny_instances": ("bundled:truncnat",),
        "rounds": 1,
    },
    "size-sweep": {
        "ops": None,
        "instances": tuple(spec for _, spec in CARRIERS),
        "tiny_instances": tuple(spec for _, spec in TINY_CARRIERS),
        "rounds": 2,
    },
}

GATED = ("cli-small", "size-sweep")
