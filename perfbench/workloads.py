"""The three benchmark workloads: inputs from a seed, CLI commands, and gates.

Seed 0 gives the reference configurations exactly.  Any other seed jitters
the amplitude by up to +-10% and the centre by up to +-0.5.  ``breaking``
also scales dt and t_end by 1/|A|: by the Camassa-Holm scaling symmetry
u_l(t, x) = l u(l t, x), the run then takes the same number of steps to
reach breaking, so every seed does the same amount of work.

A gate is a check on a command's artifacts; a breached gate fails the
command.  ``gate`` returns the list of breaches (empty when all hold) and the
numbers the record keeps.
"""

from __future__ import annotations

import glob
import json
import os
import random

import numpy as np

GRID = {"x_min": -20.0, "x_max": 20.0}


def _jitter(seed: int) -> tuple[float, float]:
    """(amplitude factor, centre shift); (1, 0) for seed 0."""
    if seed == 0:
        return 1.0, 0.0
    rng = random.Random(seed)
    return 1.0 + rng.uniform(-0.1, 0.1), rng.uniform(-0.5, 0.5)


def configs(workload: str, seed: int) -> dict[str, dict]:
    """Named JSON configurations the workload's commands read."""
    scale, shift = _jitter(seed)
    if workload == "quickstart":
        return {"run": {
            "grid": {**GRID, "n": 2048},
            "time": {"t_end": 2.0, "dt": 1e-3, "record_every": 100},
            "initial": {"kind": "gaussian", "amplitude": 0.5 * scale, "center": shift}}}
    if workload == "breaking":
        return {"run": {
            "grid": {**GRID, "n": 1024},
            "time": {"t_end": 3.0 / scale, "dt": 2e-3 / scale, "record_every": 50,
                     "adaptive": True},
            "initial": {"kind": "antisymmetric_gaussian", "amplitude": -1.0 * scale,
                        "center": shift}}}
    if workload == "verify":
        return {
            "smooth": {
                "grid": {**GRID, "n": 256},
                "time": {"t_end": 1.0, "dt": 8e-3, "record_every": 100},
                "initial": {"kind": "gaussian", "amplitude": 0.5 * scale,
                            "center": shift}},
            "suite": {
                "grid": {**GRID, "n": 1024},
                "time": {"t_end": 1.0},
                "initial": {"kind": "gaussian", "amplitude": 0.5 * scale,
                            "center": shift}},
        }
    raise ValueError(f"unknown workload {workload!r}")


def commands(workload: str, seed: int) -> list[tuple[str, str, list[str], int]]:
    """(command name, config name, CLI arguments, scan quadrature order)."""
    if workload in ("quickstart", "breaking"):
        return [("run", "run", ["run", "--order", "4"], 4)]
    if workload == "verify":
        return [
            ("converge", "smooth", ["converge", "--levels", "256,512,1024,2048",
                                    "--order", "2", "--workers", "2"], 2),
            # oracle-compare runs at its CLI default order 4, the suites at the
            # operators' default order 2.
            ("oracle-compare", "smooth", ["oracle-compare", "--levels", "256,512,1024"], 4),
            ("check-operators", "suite", ["check-operators", "--samples", "200",
                                          "--seed", str(seed)], 2),
            ("check-group", "suite", ["check-group", "--samples", "100",
                                      "--seed", str(seed)], 2),
        ]
    raise ValueError(f"unknown workload {workload!r}")


def write_configs(workload: str, seed: int, directory: str) -> dict[str, str]:
    paths = {}
    for name, cfg in configs(workload, seed).items():
        path = os.path.join(directory, f"{name}.json")
        with open(path, "w") as fh:
            json.dump(cfg, fh, indent=1)
        paths[name] = path
    return paths


# ---------------------------------------------------------------- gates


def read_kv(path: str) -> dict[str, str]:
    with open(path) as fh:
        return dict(line.rstrip("\n").split("=", 1) for line in fh if "=" in line)


def _read_csv(path: str) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def _state_files(out: str) -> list[str]:
    return sorted(glob.glob(os.path.join(out, "state_*.csv")))


def _all_finite(paths: list[str]) -> bool:
    return all(np.isfinite(_read_csv(p)).all() for p in paths)


def _check(fails: list[str], ok: bool, text: str) -> None:
    if not ok:
        fails.append(text)


def gate(workload: str, command: str, cfg: dict, out: str,
         exit_code: int) -> tuple[list[str], dict]:
    """Breached gates of one command and the values they were judged on."""
    fails: list[str] = []
    seen: dict = {"exit_code": exit_code}
    if workload == "quickstart":
        _check(fails, exit_code == 0, f"exit code {exit_code}, expected 0")
        s = read_kv(os.path.join(out, "summary.txt"))
        states = _state_files(out)
        seen.update(final_time=float(s["final_time"]),
                    energy_drift_rel=float(s["energy_drift_rel"]),
                    momentum_drift_rel=float(s["momentum_drift_rel"]),
                    recorded_states=int(s["recorded_states"]), state_files=len(states))
        _check(fails, s["breakdown"] == "0", "run did not complete")
        _check(fails, abs(seen["final_time"] - cfg["time"]["t_end"]) <= 1e-9,
               "final time is not t_end")
        _check(fails, seen["energy_drift_rel"] <= 1e-6, "energy drift > 1e-6")
        _check(fails, seen["momentum_drift_rel"] <= 1e-6, "momentum drift > 1e-6")
        _check(fails, seen["recorded_states"] == 21 and len(states) == 21,
               "expected 21 recorded states")
        _check(fails, _all_finite(states + [os.path.join(out, "diagnostics.csv")]),
               "non-finite value in an artifact")
    elif workload == "breaking":
        _check(fails, exit_code == 2, f"exit code {exit_code}, expected 2")
        s = read_kv(os.path.join(out, "summary.txt"))
        diag = _read_csv(os.path.join(out, "diagnostics.csv"))
        energy, momentum, min_slope = diag[:, 1], diag[:, 2], diag[:, 3]
        bound = 2.0 / abs(cfg["initial"]["amplitude"])
        tail = min_slope[int(0.8 * len(min_slope)):]
        seen.update(
            breakdown_time=float(s.get("breakdown_time", "nan")),
            blowup_bound=bound,
            breakdown_min_slope=float(s.get("breakdown_min_slope", "nan")),
            eps_break=1e-3,
            energy_drift_rel=float(s["energy_drift_rel"]),
            momentum_drift_abs_per_energy=float(
                np.abs(momentum - momentum[0]).max() / energy[0]),
            momentum_drift_rel_reported=float(s["momentum_drift_rel"]),
            accepted_steps=len(diag) - 1)
        _check(fails, s["breakdown"] == "1", "no breakdown reported")
        _check(fails, 0.0 < seen["breakdown_time"] < bound,
               "breakdown time outside (0, 2/|A|)")
        _check(fails, seen["breakdown_min_slope"] <= 1e-3,
               "breakdown_min_slope > eps_break")
        _check(fails, bool(np.all(np.diff(tail) < 0.0)),
               "min eta_x not strictly decreasing over the final 20% of steps")
        _check(fails, seen["energy_drift_rel"] <= 1e-6, "energy drift > 1e-6")
        _check(fails, seen["momentum_drift_abs_per_energy"] <= 1e-6,
               "absolute momentum drift > 1e-6 * energy")
        _check(fails, _all_finite(_state_files(out) + [os.path.join(out, "diagnostics.csv")]),
               "non-finite value in an artifact")
    elif command == "converge":
        _check(fails, exit_code == 0, f"exit code {exit_code}, expected 0")
        r = read_kv(os.path.join(out, "convergence.txt"))
        gaps = [float(v) for k, v in r.items() if k.startswith("gap_n")]
        seen.update(fitted_order=float(r["fitted_order"]), gaps=gaps)
        _check(fails, seen["fitted_order"] >= 1.8, "fitted order < 1.8")
        _check(fails, all(b < a for a, b in zip(gaps, gaps[1:])),
               "gaps do not decrease at each level")
    elif command == "oracle-compare":
        _check(fails, exit_code == 0, f"exit code {exit_code}, expected 0")
        r = read_kv(os.path.join(out, "oracle_compare.txt"))
        gaps = [float(v) for k, v in r.items() if k.startswith("gap_n")]
        seen.update(fitted_order=float(r["fitted_order"]), finest_gap=gaps[-1])
        _check(fails, seen["fitted_order"] >= 1.8, "fitted order < 1.8")
        _check(fails, seen["finest_gap"] <= 1e-3, "finest-level gap > 1e-3")
    elif command in ("check-operators", "check-group"):
        _check(fails, exit_code == 0, f"exit code {exit_code}, expected 0")
        name = "operator_report.txt" if command == "check-operators" else "group_report.txt"
        r = read_kv(os.path.join(out, name))
        seen.update(all_pass=r["all_pass"], worst_ratio=max(
            float(v) for k, v in r.items() if k.endswith("_ratio")))
        _check(fails, r["all_pass"] == "1", "all_pass is not 1")
    else:
        raise ValueError(f"no gates for {workload}/{command}")
    return fails, seen
