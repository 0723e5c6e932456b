"""Command line front end.

Every call goes through one pipeline in ``main``: parse the arguments, load
the instance (a bundled name or a JSON path, with ``--levels`` imposed) in
``_load``, run the subcommand's checks, and write what they returned in
``_emit``, under the subcommand's own name.  A subcommand is a function
``_cmd_*(args, space, cat)`` that returns its reports and named numbers; it
imports its checks when it runs, so that a call loads only the modules it
reaches.  The call exits 0 when everything passed, 1 when some check
produced a counterexample, 2 when the request or the instance was bad, and
141 when the reader closed stdout before the output was written.  JSON
output is byte-stable for fixed inputs: keys are sorted and nothing time- or
machine-dependent is emitted.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import __version__, instances
from .model import InstanceError, Space, fmt_value
from .reports import CheckReport

DEFAULT_EPS = "1,0.5,0.25"
# the radii of a small-scale (descending) and a large-scale (ascending) base
DEFAULT_SS_RADII = "3,1,0.333333"
DEFAULT_LS_RADII = "1,3,9,27"


def _floats(raw: str):
    try:
        return tuple(float(v) for v in raw.split(",") if v != "")
    except ValueError as exc:
        raise InstanceError("bad number list %r" % raw) from exc


def _seed() -> int:
    raw = os.environ.get("SCALEKIT_SEED", "")
    if not raw:
        return 20240117
    try:
        return int(raw)
    except ValueError as exc:
        raise InstanceError("SCALEKIT_SEED must be an integer") from exc


def _load(args):
    name = args.space
    if name in instances.BUNDLED_NAMES:
        space, cat = instances.bundled(name)
    else:
        space, cat = instances.load_path(name)
    if args.levels:
        # impose the windows on the document, so that the one loader binds
        # every payload to the windowed carrier
        tops = _floats(args.levels)
        if not all(math.isfinite(t) for t in tops):
            raise InstanceError("window tops must be finite")
        vals = space.values()
        doc = instances.save_instance(space, cat)
        doc["filtration"] = [np.flatnonzero(vals <= t).tolist() for t in tops]
        for t, level in zip(tops, doc["filtration"]):
            if not level:
                raise InstanceError("window top %s catches no point" % fmt_value(t))
        space, cat = instances.load_space(doc)
    return space, cat


def _structure(space: Space):
    from .bounded import from_filtration, from_metric
    if space.filtration is not None:
        return from_filtration(space)
    if space.d is not None:
        return from_metric(space)
    raise InstanceError("instance has neither windows nor a metric")


def _cover(cat, name):
    if name not in cat.covers:
        raise InstanceError("no cover named %r (have: %s)"
                            % (name, ", ".join(sorted(cat.covers)) or "none"))
    return cat.covers[name]


def _emit(args, reports, numbers) -> int:
    ok = all(r.status for r in reports)
    if args.json:
        payload = {"command": args.command, "space": args.space,
                   "reports": [r.to_payload() for r in reports]}
        if numbers:
            payload["values"] = {k: ("inf" if v == float("inf") else v)
                                 for k, v in numbers.items()}
        print(json.dumps(payload, sort_keys=True, default=str))
    else:
        for k, v in numbers.items():
            print("%s = %s" % (k, fmt_value(v)))
        for r in reports:
            line = "[%s] %s" % ("PASS" if r.status else "FAIL", r.name)
            if r.truncation:
                line += "  (%s)" % r.truncation
            print(line)
            for note in r.notes:
                print("    note: %s" % note)
            if r.counterexample is not None:
                print("    counterexample: %s"
                      % json.dumps(r.counterexample, sort_keys=True, default=str))
    return 0 if ok else 1


def _cmd_check_ss(args, space, cat):
    from .metric import metric_ss_base
    from .scales import check_ss_base
    return [check_ss_base(metric_ss_base(space, _floats(args.radii)))], {}


def _cmd_check_ls(args, space, cat):
    from .metric import metric_ls_base
    from .scales import check_ls_base
    return [check_ls_base(metric_ls_base(space, _floats(args.radii)))], {}


def _cmd_lebesgue(args, space, cat):
    from .metric import lebesgue_number
    return [], {"lebesgue": lebesgue_number(_cover(cat, args.cover))}


def _cmd_mesh(args, space, cat):
    from .metric import mesh
    return [], {"mesh": mesh(_cover(cat, args.cover))}


def _cmd_so(args, space, cat):
    from .metric import metric_ls_base
    from .oscillation import SOQuery, is_slowly_oscillating
    if args.function not in cat.functions:
        raise InstanceError("no function named %r" % args.function)
    base = metric_ls_base(space, _floats(args.radii))
    q = SOQuery(cat.functions[args.function], base.covers, _floats(args.eps),
                _structure(space), name=args.function)
    return [is_slowly_oscillating(q, form=args.form)], {}


def _cmd_lsmem(args, space, cat):
    from .duality import LSQuery, ls_membership
    names = tuple(args.functions.split(",")) if args.functions else None
    fam = cat.family(space, names)
    q = LSQuery(_cover(cat, args.cover), _structure(space), fam, _floats(args.eps))
    return [ls_membership(q)], {}


def _cmd_c0(args, space, cat):
    from .duality import wright_c0_check
    return [wright_c0_check(_cover(cat, args.cover), space)], {}


def _cmd_ccs(args, space, cat):
    from .duality import continuously_controlled_check
    return [continuously_controlled_check(_cover(cat, args.cover), _structure(space))], {}


def _cmd_t75(args, space, cat):
    from .duality import theorem75_agreement
    tagged = cat.tags.get("constant_at_infinity", ())
    names = tuple(args.functions.split(",")) if args.functions else tuple(tagged)
    if not names:
        raise InstanceError("no functions tagged constant_at_infinity; "
                            "pass --functions explicitly")
    fam = cat.family(space, names)
    covers = (tuple(args.covers.split(",")) if args.covers
              else tuple(sorted(cat.covers)))
    if not covers:
        raise InstanceError("instance has no covers to compare")
    named = [(nm, _cover(cat, nm)) for nm in covers]
    return [theorem75_agreement(named, _structure(space), fam, _floats(args.eps))], {}


def _cmd_bounded(args, space, cat):
    from .bounded import check_axioms, desk_weakly_bounded
    b = _structure(space)
    reports = [check_axioms(b)]
    if args.subset:
        probes = [("desk_weakly_bounded", space.subset(args.subset.split(",")))]
    else:
        rng = np.random.default_rng(_seed())
        probes = []
        for k in range(3):
            size = int(rng.integers(1, max(2, space.n // 4)))
            probes.append(("desk_weakly_bounded[sample%d]" % k, frozenset(
                int(i) for i in rng.choice(space.n, size=size, replace=False))))
    for name, subset in probes:
        ok, detail = desk_weakly_bounded(subset, b)
        reports.append(CheckReport(name, ok, witnesses=(detail,),
                                   truncation=reports[0].truncation))
    return reports, {}


def _cmd_entourage(args, space, cat):
    from .entourages import check_coarse_axioms, check_uniform_axioms, metric_entourage
    radii = args.radii
    if radii is None:  # an empty --radii is a bad request, not the default
        radii = DEFAULT_SS_RADII if args.axioms == "uniform" else DEFAULT_LS_RADII
    check = check_uniform_axioms if args.axioms == "uniform" else check_coarse_axioms
    return [check([metric_entourage(space, r) for r in _floats(radii)])], {}


def _cmd_op(args, space, cat):
    from .algebra_noncomm import StarFamily, f_bounded, operator_norm, support_entourage
    if args.operator not in cat.operators:
        raise InstanceError("no operator named %r" % args.operator)
    op = cat.operators[args.operator]
    ent = support_entourage(op, args.tau)
    numbers = {"support_pairs": float(len(ent)),
               "norm": operator_norm(op)}
    reports = []
    if args.cover:
        fam = StarFamily(space, (op.name,), (op,)).with_adjoints()
        reports.append(f_bounded(_cover(cat, args.cover), fam, args.nmax))
    return reports, numbers


def _cmd_sw(args, space, cat):
    from .algebra_comm import stone_weierstrass_desk_test
    fam = cat.family(space, tuple(args.functions.split(",")))
    if args.probe not in cat.functions:
        raise InstanceError("no function named %r" % args.probe)
    return [stone_weierstrass_desk_test(fam, cat.functions[args.probe], name=args.probe)], {}


def _default_radii(space: Space) -> tuple[tuple, tuple]:
    """The radii of report-all's two ball ladders, descending and ascending.
    Both close off with the carrier's own extent: singletons at the fine end
    (half the least positive finite distance) so the last member
    star-refines itself, the widest finite distance at the coarse end so the
    top absorbs stars."""
    low = space.d.above(0.0)
    rmin = 0.5 * low if low < np.inf else 0.5
    top = space.d.widest() if low < np.inf else 1.0
    down = tuple(r for r in (3.0, 1.0, 1.0 / 3) if r > rmin) + (rmin,)
    up = tuple(r for r in (1.0, 3.0, 9.0, 27.0) if r < top) + (max(top, 1.0),)
    return down, up


def _cmd_report_all(args, space, cat):
    from .bounded import check_axioms
    from .duality import continuously_controlled_check
    from .metric import lebesgue_number, mesh, metric_ls_base, metric_ss_base
    from .scales import check_ls_base, check_ss_base
    reports = []
    numbers = {}
    if space.d is not None:
        down, up = _default_radii(space)
        reports.append(check_ss_base(metric_ss_base(space, down)))
        reports.append(check_ls_base(metric_ls_base(space, up)))
    if space.d is not None or space.filtration is not None:
        b = _structure(space)
        reports.append(check_axioms(b))
    for nm in sorted(cat.covers):
        cov = cat.covers[nm]
        if space.d is not None and cov.is_scale():
            numbers["lebesgue[%s]" % nm] = lebesgue_number(cov)
            numbers["mesh[%s]" % nm] = mesh(cov)
        if space.filtration is not None:
            rep = continuously_controlled_check(cov, b)
            reports.append(CheckReport("ccs[%s]" % nm, rep.status,
                                       counterexample=rep.counterexample,
                                       truncation=rep.truncation))
    return reports, numbers


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="scalekit",
        description="checks for scale structures on finite carriers")
    p.add_argument("--version", action="version", version="scalekit %s" % __version__)
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, eps=False):
        sp.add_argument("--space", required=True,
                        help="bundled name (%s) or JSON path"
                             % ", ".join(instances.BUNDLED_NAMES))
        sp.add_argument("--json", action="store_true",
                        help="machine readable output")
        sp.add_argument("--levels", default=None,
                        help="comma list of window tops to impose")
        if eps:
            sp.add_argument("--eps", default=DEFAULT_EPS,
                            help="descending eps grid (default %s)" % DEFAULT_EPS)

    sp = sub.add_parser("check-ss", help="small-scale base axioms for ball covers")
    common(sp)
    sp.add_argument("--radii", default=DEFAULT_SS_RADII, help="descending radii")
    sp.set_defaults(fn=_cmd_check_ss)

    sp = sub.add_parser("check-ls", help="large-scale base axioms for ball covers")
    common(sp)
    sp.add_argument("--radii", default=DEFAULT_LS_RADII, help="ascending radii")
    sp.set_defaults(fn=_cmd_check_ls)

    sp = sub.add_parser("lebesgue", help="largest ball scale a cover absorbs")
    common(sp)
    sp.add_argument("--cover", required=True)
    sp.set_defaults(fn=_cmd_lebesgue)

    sp = sub.add_parser("mesh", help="smallest ball scale absorbing a cover")
    common(sp)
    sp.add_argument("--cover", required=True)
    sp.set_defaults(fn=_cmd_mesh)

    sp = sub.add_parser("so", help="slow oscillation of a function")
    common(sp, eps=True)
    sp.add_argument("--function", required=True)
    sp.add_argument("--form", choices=("strict", "relaxed"), default="strict")
    sp.add_argument("--radii", default="1,3", help="ls base radii")
    sp.set_defaults(fn=_cmd_so)

    sp = sub.add_parser("lsmem", help="membership in the induced ls structure")
    common(sp, eps=True)
    sp.add_argument("--cover", required=True)
    sp.add_argument("--functions", default=None,
                    help="comma list (default: all instance functions)")
    sp.set_defaults(fn=_cmd_lsmem)

    sp = sub.add_parser("c0", help="vanishing-family membership of a cover")
    common(sp)
    sp.add_argument("--cover", required=True)
    sp.set_defaults(fn=_cmd_c0)

    sp = sub.add_parser("ccs", help="continuously controlled membership")
    common(sp)
    sp.add_argument("--cover", required=True)
    sp.set_defaults(fn=_cmd_ccs)

    sp = sub.add_parser("t75", help="induced vs controlled verdict agreement")
    common(sp, eps=True)
    sp.add_argument("--covers", default=None, help="comma list (default: all)")
    sp.add_argument("--functions", default=None,
                    help="comma list (default: tagged constant_at_infinity)")
    sp.set_defaults(fn=_cmd_t75)

    sp = sub.add_parser("bounded", help="bounded structure axioms and probes")
    common(sp)
    sp.add_argument("--subset", default=None,
                    help="comma list of point labels to probe")
    sp.set_defaults(fn=_cmd_bounded)

    sp = sub.add_parser("entourage", help="entourage base axioms")
    common(sp)
    sp.add_argument("--axioms", choices=("uniform", "coarse"), required=True)
    sp.add_argument("--radii", default=None,
                    help="default: %s uniform / %s coarse"
                         % (DEFAULT_SS_RADII, DEFAULT_LS_RADII))
    sp.set_defaults(fn=_cmd_entourage)

    sp = sub.add_parser("op", help="operator support and chain boundedness")
    common(sp)
    sp.add_argument("--operator", required=True)
    sp.add_argument("--tau", type=float, default=0.0)
    sp.add_argument("--cover", default=None)
    sp.add_argument("--nmax", type=int, default=3)
    sp.set_defaults(fn=_cmd_op)

    sp = sub.add_parser("sw-test", help="probe membership in a generated algebra")
    common(sp)
    sp.add_argument("--functions", required=True, help="comma list of generators")
    sp.add_argument("--probe", required=True)
    sp.set_defaults(fn=_cmd_sw)

    sp = sub.add_parser("report-all", help="standard battery for an instance")
    common(sp)
    sp.set_defaults(fn=_cmd_report_all)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        try:
            args = parser.parse_args(argv)
            space, cat = _load(args)
            reports, numbers = args.fn(args, space, cat)
            return _emit(args, reports, numbers)
        finally:  # also after --help and --version, which exit
            sys.stdout.flush()
    except InstanceError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader closed stdout early (``| head``): point stdout at the
        # null device, so that the interpreter's last flush raises nothing,
        # and leave with the status of a process that SIGPIPE ended
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141


if __name__ == "__main__":
    sys.exit(main())
