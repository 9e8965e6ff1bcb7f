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
still written).  Every failure path writes a structured key-value report
instead of a bare stack trace.  All numeric output carries 17 significant
digits so artifacts are bit-reproducible for identical configurations.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from .checks import group_suite, operator_bound_suite
from .config import SimConfig, load_config, make_initial
from .errors import CHFlowError, ParseError
from .eulerian import fourth_order_dx
from .fields import write_csv
# Unused here; bound so that perfbench/tracer.py can patch them in this module.
from .eulerian import compare, integrate_eulerian  # noqa: F401
from .lagrangian import StepDiagnostics, Trajectory, integrate, reconstruct_u
from .studies import lagrangian_refinement, oracle_refinement

__all__ = ["main"]


def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
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

    def common(p):
        p.add_argument("--config", required=True, help="path to a JSON configuration")
        p.add_argument("--out", default=None, help="output directory (overrides config)")
        p.add_argument("--quiet", action="store_true", help="suppress stdout chatter")

    p_run = sub.add_parser("run", help="integrate and export a trajectory")
    common(p_run)
    p_run.add_argument("--order", type=int, default=4, choices=(2, 4),
                       help="scan quadrature order used by the solver")
    p_run.set_defaults(func=cmd_run)

    p_conv = sub.add_parser("converge", help="self-convergence study")
    common(p_conv)
    p_conv.add_argument("--levels", default="512,1024,2048,4096",
                        help="comma-separated grid sizes")
    p_conv.add_argument("--order", type=int, default=2, choices=(2, 4),
                        help="scan quadrature order under study")
    p_conv.add_argument("--workers", type=_positive_int, default=None,
                        help="process count for concurrent levels (1 = serial)")
    p_conv.set_defaults(func=cmd_converge)

    p_ops = sub.add_parser("check-operators", help="operator bound suite")
    common(p_ops)
    p_ops.add_argument("--samples", type=_positive_int, default=200)
    p_ops.add_argument("--seed", type=_seed, default=0, help="seed for the random samples")
    p_ops.set_defaults(func=cmd_check_operators)

    p_grp = sub.add_parser("check-group", help="group axiom and stability suite")
    common(p_grp)
    p_grp.add_argument("--samples", type=_positive_int, default=100)
    p_grp.add_argument("--seed", type=_seed, default=0, help="seed for the random samples")
    p_grp.set_defaults(func=cmd_check_group)

    p_cmp = sub.add_parser("oracle-compare", help="flow-map versus Eulerian reference")
    common(p_cmp)
    p_cmp.add_argument("--times", default=None,
                       help="comma-separated comparison times (default: final time)")
    p_cmp.add_argument("--levels", default=None,
                       help="optional resolution ladder for a gap-refinement table")
    p_cmp.add_argument("--order", type=int, default=4, choices=(2, 4))
    p_cmp.set_defaults(func=cmd_oracle_compare)
    return parser


def _prepare(args) -> tuple[SimConfig, str, str]:
    """Config, output directory (recorded as args.out) and config directory."""
    cfg = load_config(args.config)
    args.out = out_dir = args.out or cfg.output.directory
    os.makedirs(out_dir, exist_ok=True)
    base_dir = os.path.dirname(os.path.abspath(args.config))
    return cfg, out_dir, base_dir


def _say(args, text: str) -> None:
    if not args.quiet:
        print(text)


def _export_trajectory(traj: Trajectory, cfg: SimConfig, out_dir: str) -> None:
    formats = cfg.output.formats
    if "csv" in formats:
        for i, state in enumerate(traj.states):
            u = reconstruct_u(state, inv_tol=cfg.tolerances.inv_tol)
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


def _summary_items(traj: Trajectory, cfg: SimConfig, order: int):
    d = traj.diagnostics
    momentum_abs, momentum_rel = _momentum_drift(d)
    items = [
        ("n", cfg.grid.n),
        ("h", (cfg.grid.x_max - cfg.grid.x_min) / (cfg.grid.n - 1)),
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
    ]
    if traj.breakdown_time is not None:
        items[6:6] = [("breakdown_time", traj.breakdown_time),
                      ("breakdown_min_slope", traj.breakdown_min_slope),
                      ("breaking_time_estimate", traj.breaking_time_estimate)]
    return items


def cmd_run(args) -> int:
    cfg, out_dir, base_dir = _prepare(args)
    u0 = make_initial(cfg, base_dir=base_dir)
    traj = integrate(u0, **cfg.integrate_kwargs(args.order))
    _export_trajectory(traj, cfg, out_dir)
    if "summary" in cfg.output.formats:
        _write_kv(os.path.join(out_dir, "summary.txt"),
                  _summary_items(traj, cfg, args.order))
    if traj.breakdown_time is None:
        _say(args, f"run complete at t = {_fmt(traj.final.t)}")
        return 0
    _say(args, f"run stopped by wave breaking at t = {_fmt(traj.breakdown_time)}")
    return 2


def _breakdown_items(broken: dict) -> list:
    """breakdown_time_n<N>, then breaking_time_estimate_n<N>, of each broken run by n."""
    ns = sorted(broken)
    return ([(f"breakdown_time_n{n}", broken[n].breakdown_time) for n in ns]
            + [(f"breaking_time_estimate_n{n}", broken[n].breaking_time_estimate)
               for n in ns])


def cmd_converge(args) -> int:
    cfg, out_dir, base_dir = _prepare(args)
    levels = _entries(args.levels, int, "--levels")
    study = lagrangian_refinement(cfg, levels, quad_order=args.order,
                                  workers=args.workers, base_dir=base_dir)
    items = [(f"level_n{m.n}_h", m.h) for m in study.levels]
    items.append(("level_execution", study.execution))
    broken = [m for m in study.levels if m.breakdown_time is not None]
    if broken:
        # Final states at different times are not comparable: no gaps, no
        # order.  The breaking-time estimates are comparable across levels.
        items += _breakdown_items({m.n: m for m in broken})
        if study.estimate_order is not None:
            items.append(("breaking_time_estimate_fitted_order", study.estimate_order))
        items.append(("quad_order", args.order))
        _write_kv(os.path.join(out_dir, "convergence.txt"), items)
        _say(args, f"study stopped by wave breaking at n = {broken[0].n}, "
                   f"t = {_fmt(broken[0].breakdown_time)}")
        return 2
    for m, gap in zip(study.levels, study.gaps):
        items.append((f"gap_n{m.n}", gap))
    for m, order in zip(study.levels, study.orders):
        items.append((f"order_n{m.n}", order))
    items.append(("fitted_order", study.fitted_order))
    items.append(("quad_order", args.order))
    _write_kv(os.path.join(out_dir, "convergence.txt"), items)
    _say(args, f"fitted spatial order {_fmt(study.fitted_order)}")
    return 0


def _report_checks(args, checks, path: str) -> int:
    items = []
    for c in checks:
        items.append((f"{c.name}_measured", c.measured))
        items.append((f"{c.name}_allowed", c.allowed))
        items.append((f"{c.name}_ratio", c.ratio))
        items.append((f"{c.name}_pass", c.passed))
    ok = all(c.passed for c in checks)
    items.append(("all_pass", ok))
    items.append(("seed", args.seed))
    _write_kv(path, items)
    for c in checks:
        _say(args, f"{'pass' if c.passed else 'FAIL'}  {c.name}: "
                   f"ratio {_fmt(c.ratio)}")
    return 0 if ok else 1


def cmd_check_operators(args) -> int:
    cfg, out_dir, _ = _prepare(args)
    rng = np.random.default_rng(args.seed)
    checks = operator_bound_suite(cfg.grid.build(), args.samples, rng)
    return _report_checks(args, checks, os.path.join(out_dir, "operator_report.txt"))


def cmd_check_group(args) -> int:
    cfg, out_dir, _ = _prepare(args)
    rng = np.random.default_rng(args.seed)
    checks = group_suite(cfg.grid.build(), args.samples, rng)
    return _report_checks(args, checks, os.path.join(out_dir, "group_report.txt"))


def cmd_oracle_compare(args) -> int:
    cfg, out_dir, base_dir = _prepare(args)
    levels = _entries(args.levels, int, "--levels") if args.levels else []
    times = _entries(args.times, float, "--times") if args.times else None
    # Both solvers of every level, cfg's own n included, run as tasks of the study.
    study = oracle_refinement(cfg, levels, times=times, quad_order=args.order,
                              base_dir=base_dir)
    traj, states = study.base
    if "csv" in cfg.output.formats:
        for i, state in enumerate(states):
            write_csv(os.path.join(out_dir, f"eulerian_{i:05d}.csv"),
                      ["x", "u", "u_x"],
                      [state.grid.x, state.u, fourth_order_dx(state.u, state.grid.h)])
    path = os.path.join(out_dir, "oracle_compare.txt")
    broken = {m.n: m for m in study.levels if m.breakdown_time is not None}
    if traj.breakdown_time is not None:
        broken[cfg.grid.n] = traj
    if broken:
        # A flow-map run stopped before t_end: nothing is compared.
        _write_kv(path, _breakdown_items(broken)
                  + [("level_execution", study.execution)])
        n = min(broken)
        _say(args, f"comparison stopped by wave breaking at n = {n}, "
                   f"t = {_fmt(broken[n].breakdown_time)}")
        return 2
    items = []
    for t, sup, l2 in study.report.rows():
        items.append((f"sup_diff_t{_fmt(t)}", sup))
        items.append((f"l2_diff_t{_fmt(t)}", l2))
    items.append(("level_execution", study.execution))
    if levels:
        for m, gap in zip(study.levels, study.gaps):
            items.append((f"gap_n{m.n}", gap))
        for m, order in zip(study.levels, study.orders):
            items.append((f"refinement_order_n{m.n}", order))
        items.append(("fitted_order", study.fitted_order))
    _write_kv(path, items)
    for t, sup, l2 in study.report.rows():
        _say(args, f"t = {_fmt(t)}: sup gap {_fmt(sup)}, L2 gap {_fmt(l2)}")
    return 0


def _write_failure(out_dir: str | None, exc: Exception) -> None:
    target = os.path.join(out_dir or ".", "failure.txt")
    try:
        os.makedirs(os.path.dirname(target) or ".", exist_ok=True)
        _write_kv(target, [("error", type(exc).__name__), ("message", str(exc))])
    except OSError:
        pass  # stderr still carries the structured message


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except ParseError as exc:
        print(f"error={type(exc).__name__}", file=sys.stderr)
        print(f"message={exc}", file=sys.stderr)
        return 1
    try:
        return args.func(args)
    except CHFlowError as exc:
        _write_failure(args.out, exc)
        print(f"error={type(exc).__name__}", file=sys.stderr)
        print(f"message={exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
