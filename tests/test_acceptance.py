"""Acceptance suite: one test per acceptance criterion, each printing a
pass line with the measured numbers (run with -s to see them inline)."""

import json
import time

import numpy as np
import pytest

from chflow import (
    Diffeo,
    Grid,
    ScalarField0,
    ScalarField1,
    compare,
    integrate,
    integrate_eulerian,
    inv_helmholtz,
    l_eta_direct,
    norm_11,
    reconstruct_u,
)
from chflow.checks import (
    group_suite,
    operator_bound_suite,
    random_bump_diffeo,
    random_bump_field0,
)
from chflow.cli import main

from conftest import antisymmetric_field, gateaux_df, gaussian_field, l_eta_conjugated, reflect


def report(criterion: int, detail: str) -> None:
    print(f"[PASS] criterion {criterion}: {detail}")


def test_criterion_1_greens_function():
    t0 = time.perf_counter()
    errs = {}
    for n in (1024, 4096):
        grid = Grid.from_interval(-20.0, 20.0, n)
        f = inv_helmholtz(ScalarField0(grid, np.exp(-np.abs(grid.x))))
        exact = 0.5 * (1.0 + np.abs(grid.x)) * np.exp(-np.abs(grid.x))
        errs[n] = np.abs(f.u - exact).max()
    elapsed = time.perf_counter() - t0
    order = np.log(errs[1024] / errs[4096]) / np.log(4095 / 1023)
    assert errs[4096] <= 1e-4
    assert order >= 1.8
    assert elapsed < 1.0
    report(1, f"sup error {errs[4096]:.3e} <= 1e-4, order {order:.2f} >= 1.8, "
              f"runtime {elapsed:.3f}s < 1s")


def test_criterion_2_operator_bound_suite():
    t0 = time.perf_counter()
    grid = Grid.from_interval(-20.0, 20.0, 1024)
    rng = np.random.default_rng(2)
    checks = operator_bound_suite(grid, 200, rng)
    elapsed = time.perf_counter() - t0
    for c in checks:
        assert c.passed, f"{c.name}: measured {c.measured:.3e} > allowed {c.allowed:.3e}"
    assert elapsed < 30.0
    ratios = ", ".join(f"{c.name} {c.ratio:.2f}" for c in checks)
    report(2, f"200 samples, worst ratios: {ratios}; runtime {elapsed:.1f}s < 30s")


def test_criterion_3_gateaux_gradient():
    grid = Grid.from_interval(-20.0, 20.0, 4096)
    rng = np.random.default_rng(3)
    phi = ScalarField0(grid, 1.5 * random_bump_field0(grid, rng).g)
    eta = random_bump_diffeo(grid, rng, max_slope=0.4)
    rho = gaussian_field(grid, amp=1.0, center=0.5, width=1.5)
    G = gateaux_df(phi, eta, rho)
    eps_values = (1e-2, 1e-3, 1e-4)
    errs = []
    for eps in eps_values:
        step = ScalarField1(grid, eps * rho.u, eps * rho.du)
        plus = l_eta_direct(phi, Diffeo(eta.v + step))
        minus = l_eta_direct(phi, Diffeo(eta.v - step))
        errs.append(np.abs((plus.u - minus.u) / (2 * eps) - G.u).max())
    slope = np.polyfit(np.log10(eps_values), np.log10(errs), 1)[0]
    assert abs(slope - 2.0) <= 0.3
    report(3, f"central-difference errors {errs[0]:.2e}/{errs[1]:.2e}/{errs[2]:.2e},"
              f" log-log slope {slope:.3f} within 2.0 +/- 0.3")


def test_criterion_4_group_suite():
    grid = Grid.from_interval(-20.0, 20.0, 1025)
    rng = np.random.default_rng(4)
    checks = group_suite(grid, 100, rng)
    for c in checks:
        assert c.passed, f"{c.name}: measured {c.measured:.3e} > allowed {c.allowed:.3e}"
    ratios = ", ".join(f"{c.name} {c.ratio:.2f}" for c in checks)
    report(4, f"100 close pairs; worst ratios: {ratios}")


def test_criterion_5_conjugation_identity():
    grid = Grid.from_interval(-20.0, 20.0, 1024)
    rng = np.random.default_rng(5)
    tol = 50.0 * grid.h ** 2
    worst = 0.0
    for _ in range(100):
        phi = random_bump_field0(grid, rng)
        eta = random_bump_diffeo(grid, rng)
        gap = np.abs(l_eta_direct(phi, eta).u - l_eta_conjugated(phi, eta).u).max()
        worst = max(worst, gap)
    assert worst <= tol
    report(5, f"direct vs conjugated worst sup gap {worst:.3e} <= 50 h^2 = {tol:.3e}")


def test_criterion_6_conservation():
    grid = Grid.from_interval(-20.0, 20.0, 2048)
    u0 = gaussian_field(grid, amp=0.5)
    t0 = time.perf_counter()
    traj = integrate(u0, 2.0, 1e-3, record_every=200)
    elapsed = time.perf_counter() - t0
    assert traj.completed
    d = traj.diagnostics
    e_drift = np.abs(d.energy - d.energy[0]).max() / d.energy[0]
    m_drift = np.abs(d.momentum - d.momentum[0]).max() / d.momentum[0]
    assert e_drift <= 1e-6
    assert m_drift <= 1e-6
    assert elapsed < 120.0
    report(6, f"energy drift {e_drift:.2e} <= 1e-6, momentum drift {m_drift:.2e}"
              f" <= 1e-6, runtime {elapsed:.1f}s < 120s")


def test_criterion_7_formulation_equivalence():
    gaps = {}
    for n, dt in ((512, 4e-3), (1024, 2e-3), (2048, 1e-3)):
        grid = Grid.from_interval(-20.0, 20.0, n)
        u0 = gaussian_field(grid, amp=0.5)
        traj = integrate(u0, 1.0, dt, record_every=10 ** 9)
        states = integrate_eulerian(u0, 1.0, dt, record_every=10 ** 9)
        gaps[n] = compare(traj, states, [1.0]).sup_diff[0]
    hs = [40.0 / (n - 1) for n in (512, 1024, 2048)]
    fit = np.polyfit(np.log([h for h in hs]), np.log([gaps[n] for n in (512, 1024, 2048)]), 1)[0]
    assert gaps[2048] <= 1e-3
    assert fit >= 1.8
    report(7, f"sup gap at n=2048 is {gaps[2048]:.2e} <= 1e-3; "
              f"refinement order {fit:.2f} >= 1.8")


def test_criterion_8_continuous_dependence():
    grid = Grid.from_interval(-20.0, 20.0, 512)
    base = gaussian_field(grid, amp=0.4)
    direction = gaussian_field(grid, amp=1.0, center=1.0)
    u_base = reconstruct_u(integrate(base, 1.0, 2e-3, record_every=10 ** 9).final)
    diffs = []
    for delta in (1e-2, 1e-3, 1e-4):
        step = ScalarField1(grid, delta * direction.u, delta * direction.du)
        traj = integrate(base + step, 1.0, 2e-3, record_every=10 ** 9)
        diffs.append(np.abs(reconstruct_u(traj.final).u - u_base.u).max())
    r1, r2 = diffs[0] / diffs[1], diffs[1] / diffs[2]
    assert 5.0 <= r1 <= 20.0
    assert 5.0 <= r2 <= 20.0
    report(8, f"sup differences {diffs[0]:.2e}/{diffs[1]:.2e}/{diffs[2]:.2e}, "
              f"successive ratios {r1:.2f}, {r2:.2f} within [5, 20]")


def test_criterion_9_breakdown_behavior(tmp_path):
    payload = {
        "grid": {"x_min": -20.0, "x_max": 20.0, "n": 1024},
        "time": {"t_end": 5.0, "dt": 1e-3, "record_every": 100},
        "initial": {"kind": "antisymmetric_gaussian", "amplitude": -1.0},
    }
    cfg = tmp_path / "breaking.json"
    cfg.write_text(json.dumps(payload))
    out = tmp_path / "out"
    code = main(["run", "--config", str(cfg), "--out", str(out), "--quiet"])
    assert code == 2
    summary = {}
    for line in (out / "summary.txt").read_text().splitlines():
        key, _, value = line.partition("=")
        summary[key] = value
    assert summary["breakdown"] == "1"
    t_break = float(summary["breakdown_time"])
    assert np.isfinite(t_break) and 0.0 < t_break < 5.0
    diag = np.genfromtxt(out / "diagnostics.csv", delimiter=",", names=True)
    tail = diag["min_eta_x"][-max(2, len(diag) // 5):]
    assert np.all(np.diff(tail) < 0)
    for path in sorted(out.glob("*.csv")):
        data = np.genfromtxt(path, delimiter=",", skip_header=1)
        assert np.isfinite(data).all(), f"non-finite value in {path.name}"
    report(9, f"exit code 2, breakdown time {t_break:.3f}, min eta_x strictly "
              f"decreasing over final 20% of steps, all artifacts finite")


def test_criterion_10_stationarity_and_symmetry():
    grid = Grid.from_interval(-20.0, 20.0, 512)
    traj = integrate(ScalarField1.zeros(grid), 0.5, 2e-3, record_every=50)
    for state in traj.states:
        assert np.abs(state.U.u).max() == 0.0
        assert np.abs(state.U.du).max() == 0.0
        assert np.abs(state.eta.v.u).max() == 0.0

    u0 = antisymmetric_field(grid, amp=0.3, center=1.0)
    fwd = integrate(u0, 0.5, 2e-3, record_every=10 ** 9).final
    bwd = integrate(reflect(u0), 0.5, 2e-3, record_every=10 ** 9).final
    gap = norm_11(reflect(reconstruct_u(fwd)) - reconstruct_u(bwd))
    assert gap <= 10 * grid.h ** 2
    report(10, f"zero data preserved exactly; reflection gap {gap:.2e} "
               f"<= 10 h^2 = {10 * grid.h ** 2:.2e}")
