"""Command line interface: run scenarios, sweep parameters, verify suites.

Exit codes: 0 success, 2 config error, 3 numerical abort, 4 verification
failure. ``isoflow sweep`` runs its values in turn, in this one process.
"""

import argparse
import os
import sys
from dataclasses import replace
from functools import cache

from .scenario import (ConfigError, parse_scenario, registry, run_scenario,
                       scenario_inputs, with_param)
from .solver import NumericalAbort, SolverError, _picard_window, run
from .verify import (CheckResult, format_checks, lyapunov_refinement,
                     refinement_verdict, run_suite, suite_names)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_VERIFY = 4


def _load_scenario(ref):
    """A scenario reference is either a registry name or a config file path."""
    reg = registry()
    if ref in reg:
        return reg[ref]
    if os.path.exists(ref):
        return parse_scenario(ref)
    raise ConfigError(f"no scenario named {ref!r} and no such file")


def _cmd_run(args):
    sc = _load_scenario(args.scenario)
    traj, csv_path = run_scenario(sc, out_dir=args.out)
    print(f"wrote {csv_path} ({len(traj.diagnostics)} records)")
    return EXIT_OK


def _cmd_sweep(args):
    sc = _load_scenario(args.scenario)
    if "=" not in args.param:
        raise ConfigError("expected --param key=v1,v2,...")
    key, raw_vals = (part.strip() for part in args.param.split("=", 1))
    tokens = [v.strip() for v in raw_vals.split(",") if v.strip()]
    if not tokens:
        raise ConfigError("sweep needs at least one value")
    base_dir = args.out or sc.outputs.directory
    jobs = [(with_param(sc, key, tok),
             os.path.join(base_dir, f"sweep-{key.split('.')[-1]}-{tok}"))
            for tok in tokens]
    # a zero-step run and the Picard window at the value's t_end check it before any run
    for varied, _ in jobs:
        u0, medium, stencil = scenario_inputs(varied)
        traj = run(u0, medium, stencil, replace(varied.solver, t_end=0.0), varied.probes)
        if varied.solver.scheme == "picard-oracle":
            _picard_window(traj.rho.min(), varied.solver.dt, varied.solver.t_end, traj.rho.size)
    for varied, out_dir in jobs:
        _, csv_path = run_scenario(varied, out_dir=out_dir)
        print(f"wrote {csv_path}")
    return EXIT_OK


def _cmd_verify(args):
    if args.suite not in suite_names():
        raise ConfigError(f"unknown verify suite {args.suite!r}; "
                          f"known: {', '.join(suite_names())}")
    if args.scenario or args.out:
        if args.suite != "lyapunov" or not args.scenario:
            raise ConfigError("only `verify lyapunov <scenario>` takes a scenario and --out")
        return _verify_lyapunov_refinement(args)
    results = run_suite(args.suite)
    for line in format_checks(results):
        print(line)
    return EXIT_OK if all(r.passed for r in results) else EXIT_VERIFY


def _verify_lyapunov_refinement(args):
    """Residual-vs-refinement table for the decay identities of a scenario."""
    sc = _load_scenario(args.scenario)
    u0, medium, stencil = scenario_inputs(sc)
    levels = lyapunov_refinement(u0, medium, stencil, sc.solver, sc.probes)
    worst, falls = refinement_verdict(levels)
    out_dir = args.out or sc.outputs.directory
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "lyapunov_refinement.csv")
    rows = ["level,dt,delta,resid_decay,resid_energy"]
    for level, (cfg, _, rep) in enumerate(levels):
        rows.append(f"{level},{cfg.dt!r},{cfg.dt * cfg.snapshot_every!r},"
                    f"{rep.max_resid_decay!r},{rep.max_resid_energy!r}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(rows) + "\n")
    print(f"wrote {path}")
    print(format_checks([CheckResult("lyapunov.refinement", falls, worst[-1])])[0])
    return EXIT_OK if falls else EXIT_VERIFY


def _cmd_list(_args):
    for name, sc in registry().items():
        tag = "" if sc.asserted else "  (exploratory, no assertions)"
        print(f"{name}{tag}")
    return EXIT_OK


@cache
def _parser():
    """The argument parser, built once per process; parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="isoflow",
        description="Nonlocal heat flow simulator and verification harness")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a scenario (registry name or .cfg path)")
    p_run.add_argument("scenario")
    p_run.add_argument("--out", default=None, help="output directory override")
    p_run.set_defaults(fn=_cmd_run)

    p_sweep = sub.add_parser("sweep", help="run a scenario across parameter values")
    p_sweep.add_argument("scenario")
    p_sweep.add_argument("--param", required=True, help="e.g. dt=1e-2,1e-3")
    p_sweep.add_argument("--out", default=None)
    p_sweep.set_defaults(fn=_cmd_sweep)

    p_verify = sub.add_parser("verify", help="run a verification suite")
    p_verify.add_argument("suite")
    p_verify.add_argument("scenario", nargs="?", default=None,
                          help="scenario for the lyapunov refinement table")
    p_verify.add_argument("--out", default=None)
    p_verify.set_defaults(fn=_cmd_verify)

    p_list = sub.add_parser("list", help="list built-in scenarios")
    p_list.set_defaults(fn=_cmd_list)
    return parser


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        return args.fn(args)
    except NumericalAbort as exc:
        print(f"numerical abort: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (ConfigError, SolverError, ValueError) as exc:
        # kernel/medium/grid validation errors are ValueError subclasses
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
