"""Command-line harness: runs, convergence studies, and verification reports.

Subcommands
-----------
run             integrate a configuration and export trajectory artifacts
converge        self-convergence study over a resolution ladder
check-operators randomized bound suite for the smoothing operator
check-group     randomized group-axiom and stability suite
oracle-compare  flow-map solver versus the Eulerian reference

Exit codes: 0 success, 1 usage/configuration/verification failure, 2 the run
hit wave breaking (a documented outcome: artifacts and the breakdown time are
still written).  Every failure path, an OSError included, writes a structured
key-value report instead of a bare stack trace.  All numeric output carries 17
significant digits so artifacts are bit-reproducible for identical
configurations.

Each command returns its exit code, report and stdout lines.  main owns the
directory that --out names (default out): before the config loads it deletes
there the files the command writes (failure.txt, its report, and run's
state_*.csv and diagnostics.csv or oracle-compare's eulerian_*.csv), so a
rerun leaves no stale artifact, and the report or failure.txt goes there.
"""

from __future__ import annotations

import argparse
import glob
import os
import random
import sys
from collections import Counter
from dataclasses import asdict

import numpy as np

from .checks import group_suite, operator_bound_suite
from .config import SimConfig, load_config, make_initial
from .errors import CHFlowError, ParseError, ValidationError
from .eulerian import fourth_order_dx
from .fields import write_csv
# Unused here; bound so that perfbench/tracer.py can patch them in this module.
from .eulerian import compare, integrate_eulerian  # noqa: F401
from .lagrangian import StepDiagnostics, Trajectory, integrate, reconstruct_u
from .operators import DEFAULT_QUAD_ORDER
from .studies import lagrangian_refinement, oracle_refinement

__all__ = ["main"]


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def _write_kv(path: str, items) -> None:
    with open(path, "w") as fh:
        for key, value in items:
            fh.write(f"{key}={_fmt(value)}\n")


def _int_at_least(low: int, what: str):
    """argparse type of an integer >= low (what it must be), else a usage error."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = low - 1
        if value < low:
            raise argparse.ArgumentTypeError(f"must be {what}, got '{text}'")
        return value
    return parse


_positive_int = _int_at_least(1, "a positive integer")
_seed = _int_at_least(0, "a non-negative integer")


def _directory(text: str) -> str:
    """argparse type of --out: an empty path names no directory, a usage error."""
    if not text:
        raise argparse.ArgumentTypeError("must name a directory, got ''")
    return text


def _entries(text: str, kind, option: str) -> list:
    """The comma-separated entries of an option's value as kind; ParseError if one is not."""
    try:
        return [kind(tok) for tok in text.split(",") if tok]
    except ValueError:
        raise ParseError(f"{option} takes comma-separated {kind.__name__} entries, "
                         f"got '{text}'") from None


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems through the package's error type."""

    def error(self, message):
        raise ParseError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="chflow", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(name, text, func, report, *artifacts, **defaults):
        p = sub.add_parser(name, help=text)
        p.add_argument("--config", required=True, help="path to a JSON configuration")
        p.add_argument("--out", type=_directory, default="out",
                       help="directory for the report and artifacts (default: out)")
        p.add_argument("--quiet", action="store_true", help="suppress stdout chatter")
        p.set_defaults(func=func, report=report, artifacts=artifacts, **defaults)
        return p

    p_run = common("run", "integrate and export a trajectory", cmd_run, "summary.txt",
                   "state_*.csv", "diagnostics.csv")
    p_run.add_argument("--order", type=int, default=DEFAULT_QUAD_ORDER, choices=(2, 4),
                       help="scan quadrature order used by the solver")

    p_conv = common("converge", "self-convergence study", cmd_converge, "convergence.txt")
    p_conv.add_argument("--levels", default="512,1024,2048,4096",
                        help="comma-separated grid sizes")
    p_conv.add_argument("--order", type=int, default=DEFAULT_QUAD_ORDER, choices=(2, 4),
                        help="scan quadrature order of the flow-map solves under study")
    p_conv.add_argument("--workers", type=_positive_int, default=None,
                        help="process count for concurrent levels (1 = serial)")

    for name, text, suite, report, samples in (
            ("check-operators", "operator bound suite", operator_bound_suite,
             "operator_report.txt", 200),
            ("check-group", "group axiom and stability suite", group_suite,
             "group_report.txt", 100)):
        p_chk = common(name, text, cmd_check, report, suite=suite)
        p_chk.add_argument("--samples", type=_positive_int, default=samples)
        p_chk.add_argument("--seed", type=_seed, default=0, help="seed for the random samples")

    p_cmp = common("oracle-compare", "flow-map versus Eulerian reference",
                   cmd_oracle_compare, "oracle_compare.txt", "eulerian_*.csv")
    p_cmp.add_argument("--times", default=None,
                       help="comma-separated comparison times (default: final time)")
    p_cmp.add_argument("--levels", default=None,
                       help="optional resolution ladder for a gap-refinement table")
    return parser


def _export_trajectory(traj: Trajectory, out_dir: str, tally: Counter) -> None:
    for i, state in enumerate(traj.states):
        u = reconstruct_u(state, tally=tally)
        write_csv(
            os.path.join(out_dir, f"state_{i:05d}.csv"),
            ["x", "eta", "eta_x", "U", "U_x", "u", "u_x"],
            [state.grid.x, state.eta.values(), state.eta.slopes(),
             state.U.u, state.U.du, u.u, u.du])
    d = traj.diagnostics
    write_csv(os.path.join(out_dir, "diagnostics.csv"),
              ["t", "energy", "momentum", "min_eta_x", "sup_u"],
              [d.t, d.energy, d.momentum, d.min_eta_x, d.sup_u])


def _drift(series: np.ndarray) -> float:
    base = series[0]
    dev = float(np.abs(series - base).max())
    return dev / abs(base) if base != 0.0 else dev


def _momentum_drift(d: StepDiagnostics) -> tuple[float, float]:
    """(absolute, relative) momentum drift; relative is nan for near-zero momentum.

    Odd data carry momentum at rounding level, where a ratio to it measures
    nothing; below 1e-12 times the energy the relative drift is not defined.
    """
    dev = float(np.abs(d.momentum - d.momentum[0]).max())
    base = abs(float(d.momentum[0]))
    return dev, (dev / base if base > 1e-12 * float(d.energy[0]) else float("nan"))


def _summary_items(traj: Trajectory, cfg: SimConfig, order: int, tally: Counter):
    d = traj.diagnostics
    momentum_abs, momentum_rel = _momentum_drift(d)
    items = [
        ("n", cfg.grid.n),
        ("h", traj.final.grid.h),
        ("dt", cfg.time.dt),
        ("quad_order", order),
        ("final_time", traj.final.t),
        ("breakdown", traj.breakdown_time is not None),
        ("energy_initial", float(d.energy[0])),
        ("momentum_initial", float(d.momentum[0])),
        ("energy_drift_rel", _drift(d.energy)),
        ("momentum_drift_abs", momentum_abs),
        ("momentum_drift_rel", momentum_rel),
        ("min_eta_x_final", float(d.min_eta_x[-1])),
        ("recorded_states", len(traj.states)),
        ("steps_accepted", len(d.t) - 1),
        ("steps_rejected", traj.steps_rejected),
        ("steps_at_floor", traj.steps_at_floor),
        ("rhs_evaluations", traj.rhs_evaluations),
        ("step_min", traj.step_min),
        ("step_max", traj.step_max),
        ("invert_iterations", tally["iterations"]),
        ("invert_bisections", tally["bisections"]),
    ]
    if traj.breakdown_time is not None:
        items[6:6] = [("breakdown_time", traj.breakdown_time),
                      ("breakdown_min_slope", traj.breakdown_min_slope),
                      ("breaking_time_estimate", traj.breaking_time_estimate)]
    return items


def cmd_run(args, cfg: SimConfig, out_dir: str):
    u0 = make_initial(cfg)
    traj = integrate(u0, **asdict(cfg.time), quad_order=args.order)
    tally = Counter()  # invert's counts over the reconstructed states
    _export_trajectory(traj, out_dir, tally)
    items = _summary_items(traj, cfg, args.order, tally)
    if traj.breakdown_time is None:
        return 0, items, [f"run complete at t = {_fmt(traj.final.t)}"]
    return 2, items, [f"run stopped by wave breaking at t = {_fmt(traj.breakdown_time)}"]


def _breaking_exit(what: str, broken: dict, before: list, after: list):
    """Exit 2 of a study whose runs broken (by n) hit wave breaking; the report
    lists breakdown_time_n<N>, then breaking_time_estimate_n<N>, between the
    items before and after."""
    ns = sorted(broken)
    items = (before + [(f"breakdown_time_n{n}", broken[n].breakdown_time) for n in ns]
             + [(f"breaking_time_estimate_n{n}", broken[n].breaking_time_estimate)
                for n in ns] + after)
    return 2, items, [f"{what} stopped by wave breaking at n = {ns[0]}, "
                      f"t = {_fmt(broken[ns[0]].breakdown_time)}"]


def cmd_converge(args, cfg: SimConfig, out_dir: str):
    levels = _entries(args.levels, int, "--levels")
    study = lagrangian_refinement(cfg, levels, quad_order=args.order,
                                  workers=args.workers)
    items = [(f"level_n{n}_h", run.final.grid.h) for n, run in study.levels.items()]
    items.append(("level_execution", study.execution))
    broken = {n: run for n, run in study.levels.items() if not run.completed}
    if broken:
        # Final states at different times are not comparable: no gaps, no
        # order.  The breaking-time estimates are comparable across levels.
        after = [("quad_order", args.order)]
        if study.estimate_order is not None:
            after.insert(0, ("breaking_time_estimate_fitted_order", study.estimate_order))
        return _breaking_exit("study", broken, items, after)
    items += [(f"gap_n{n}", gap) for n, gap in zip(study.levels, study.gaps)]
    items += [(f"order_n{n}", order) for n, order in zip(study.levels, study.orders)]
    items.append(("fitted_order", study.fitted_order))
    items.append(("quad_order", args.order))
    return 0, items, [f"fitted spatial order {_fmt(study.fitted_order)}"]


def cmd_check(args, cfg: SimConfig, out_dir: str):
    """Run the bound suite args.suite: exit 1 unless every check passes."""
    checks = args.suite(cfg.grid.build(), args.samples, random.Random(args.seed))
    items = []
    for c in checks:
        items.append((f"{c.name}_measured", c.measured))
        items.append((f"{c.name}_allowed", c.allowed))
        items.append((f"{c.name}_ratio", c.ratio))
        items.append((f"{c.name}_pass", c.passed))
    ok = all(c.passed for c in checks)
    items += [("all_pass", ok), ("seed", args.seed)]
    return 0 if ok else 1, items, [f"{'pass' if c.passed else 'FAIL'}  {c.name}: "
                                   f"ratio {_fmt(c.ratio)}" for c in checks]


def cmd_oracle_compare(args, cfg: SimConfig, out_dir: str):
    levels = [] if args.levels is None else _entries(args.levels, int, "--levels")
    if args.levels is not None and not levels:
        raise ValidationError(["--levels must name at least one resolution, and none was "
                               "given; omit it to compare at the configuration's own n only"])
    times = _entries(args.times, float, "--times") if args.times is not None else None
    # Both solvers of every level, cfg's own n included, run as tasks of the study.
    study = oracle_refinement(cfg, levels, times=times)
    traj, states = study.base
    for i, state in enumerate(states):
        write_csv(os.path.join(out_dir, f"eulerian_{i:05d}.csv"),
                  ["x", "u", "u_x"],
                  [state.grid.x, state.u, fourth_order_dx(state.u, state.grid.h)])
    broken = {n: run for n, run in (study.levels | {cfg.grid.n: traj}).items()
              if not run.completed}
    if broken:
        # A flow-map run stopped before t_end: nothing is compared.
        return _breaking_exit("comparison", broken, [],
                              [("level_execution", study.execution)])
    items = []
    for t, sup, l2 in study.report.rows():
        items.append((f"sup_diff_t{_fmt(t)}", sup))
        items.append((f"l2_diff_t{_fmt(t)}", l2))
    items.append(("level_execution", study.execution))
    if levels:
        items += [(f"gap_n{n}", gap) for n, gap in zip(study.levels, study.gaps)]
        items += [(f"refinement_order_n{n}", order)
                  for n, order in zip(study.levels, study.orders)]
        items.append(("fitted_order", study.fitted_order))
    return 0, items, [f"t = {_fmt(t)}: sup gap {_fmt(sup)}, L2 gap {_fmt(l2)}"
                      for t, sup, l2 in study.report.rows()]


def _report_error(exc: Exception) -> int:
    print(f"error={type(exc).__name__}", file=sys.stderr)
    print(f"message={exc}", file=sys.stderr)
    return 1


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except ParseError as exc:
        return _report_error(exc)  # a usage error writes no failure.txt
    try:
        # Delete what an earlier run left of this command's files before the
        # config loads, so a config that fails to load leaves none.
        for pattern in ("failure.txt", args.report, *args.artifacts):
            for path in glob.glob(os.path.join(glob.escape(args.out), pattern)):
                os.remove(path)
        cfg = load_config(args.config)
        os.makedirs(args.out, exist_ok=True)
        code, items, lines = args.func(args, cfg, args.out)
        _write_kv(os.path.join(args.out, args.report), items)
    except (CHFlowError, OSError) as exc:
        try:
            os.makedirs(args.out, exist_ok=True)
            _write_kv(os.path.join(args.out, "failure.txt"),
                      [("error", type(exc).__name__), ("message", str(exc))])
        except OSError:
            pass  # stderr still carries the structured message
        return _report_error(exc)
    if not args.quiet:
        for line in lines:
            print(line)
    return code


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
