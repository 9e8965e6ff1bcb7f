"""chflow benchmark: gated CLI workloads, end-to-end and per-layer metrics.

Usage, from the root of the repository::

    python3 perfbench/run.py [--workload quickstart|breaking|verify|all]
                             [--seed N] [--seconds S] [--trace 0|1]

Each workload is a closed loop of ``chflow`` CLI commands, one at a time,
run as child processes on the package under ``src/``.  A *pass* runs the
workload's commands once; passes repeat while one more fits in
``--seconds`` (at least two untraced passes, or two traced and one untraced
with ``--trace 1``).  Every command's artifacts are checked against the physics
gates in ``workloads.py`` and hashed; repeats at one seed must give
bit-identical artifacts.  An operation is one CLI command; it fails on an
exception, a wrong exit code, a breached gate or an artifact that differs
between repeats.

``--trace 0`` reports the end-to-end metrics:

* ``setup_s``: interpreter start, ``import chflow``, config load and
  initial-data construction, in a fresh process; median of three samples
  before each pass and three after the last.
* ``wall_s``: a pass from its first command's start to its last artifact
  (time to a verified solution; the gate checks themselves are not timed);
  median over passes.
* ``cpu_s``: user plus system CPU of a pass, pool workers included; median
  over passes.
* ``peak_rss_mb``: the largest resident set of any process of the
  commands' process trees (``wait4`` ``ru_maxrss``), maximum over passes.
* ``failed_frac``: failed operations over attempted ones, printed in the
  table; the result line carries it as ``failed`` / ``attempted``.

``--trace 1`` runs the commands under ``tracer.py`` and reports the
per-layer metrics of ``layers.py`` (median over traced passes), plus
``trace.overhead_frac``, the median traced pass over the median untraced
pass minus one.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  A record with the environment,
every pass, gate values and notes is written to
``.bench_out/record-<workload>-s<seed>-t<trace>.json``.
"""

from __future__ import annotations

import os

# Pin BLAS threads before numpy is imported, here and in every child.
BLAS_PIN = {v: "1" for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                             "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")}
os.environ.update(BLAS_PIN)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

from layers import EXACT_COUNTS, PER_LAYER, layer_metrics, load_spans, median_metrics  # noqa: E402
from workloads import commands, configs, gate, write_configs  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
TRACER = os.path.join(HERE, "tracer.py")
WORKLOADS = ("quickstart", "breaking", "verify")
END_TO_END = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}
SETUP_PER_PASS = 3
BUDGET_S = 170.0  # every workload run ends within this, commands included

SETUP_SCRIPT = ("import sys, chflow; "
                "from chflow.config import load_config, make_initial; "
                "make_initial(load_config(sys.argv[1]))")

NOTES = [
    "breaking gates momentum on max|momentum - momentum_0| / energy_0: on odd "
    "data momentum_0 is ~1e-16, so summary.txt's momentum_drift_rel (relative "
    "to momentum_0) is meaningless there (3 at seed 0). Program bug, not fixed here.",
    "Check reports print numpy booleans as True instead of 1 for some *_pass "
    "keys (e.g. h1_bound_pass). Program bug, not fixed here; all_pass is a "
    "Python bool and prints 1.",
    "studies.* are measured at the parent's boundary: spans inside converge's "
    "pool workers are not collected; their CPU is children_cpu_s.",
    "peak_rss_mb is the largest single process of a command's tree "
    "(ru_maxrss), not the sum of processes alive at one time.",
]


def child_env() -> dict[str, str]:
    return dict(os.environ, PYTHONPATH=SRC)


def launch(argv: list[str], stderr_path: str, deadline: float):
    """Run one child to completion: (exit code, wall s, cpu s, max RSS MB).

    CPU and RSS come from ``wait4``, so they cover the child's own reaped
    children (the process pool of ``converge``).  A child still running at
    ``deadline`` (monotonic clock) is killed.
    """
    with open(stderr_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(),
                                stdout=subprocess.DEVNULL, stderr=err)
        timer = threading.Timer(max(0.0, deadline - time.monotonic()), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    # Reaped by wait4 above; telling Popen keeps it from waiting again.
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (proc.returncode, wall, usage.ru_utime + usage.ru_stime,
            usage.ru_maxrss / 1024.0)


def tree_digest(directory: str) -> tuple[str, int]:
    """sha256 over the relative paths and contents of a directory; total bytes."""
    h = hashlib.sha256()
    size = 0
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), "rb") as fh:
            data = fh.read()
        h.update(name.encode() + b"\0" + data)
        size += len(data)
    return h.hexdigest(), size


def stderr_tail(path: str) -> str:
    with open(path, "rb") as fh:
        return fh.read()[-2000:].decode(errors="replace")


def setup_times(cfg_path: str, work: str, deadline: float, k: int) -> list[float]:
    """Wall times of k fresh processes that import chflow and build the initial data."""
    samples = []
    for _ in range(k):
        code, wall, _, _ = launch([sys.executable, "-c", SETUP_SCRIPT, cfg_path],
                                  os.path.join(work, "setup.err"), deadline)
        if code != 0:
            raise RuntimeError("set-up failed: " + stderr_tail(os.path.join(work, "setup.err")))
        samples.append(wall)
    return samples


def run_pass(workload: str, seed: int, cfg_paths: dict, directory: str,
             traced: bool, deadline: float) -> dict:
    """One pass: every command of the workload once, gated and hashed."""
    cfgs = configs(workload, seed)
    ops, docs = [], []
    worst_ratio = 0.0
    for name, cfg_name, args, _ in commands(workload, seed):
        out = os.path.join(directory, name)
        os.makedirs(out)
        spans = os.path.join(directory, f"{name}.spans.json")
        err = os.path.join(directory, f"{name}.err")
        tail = [*args, "--config", cfg_paths[cfg_name], "--out", out, "--quiet"]
        argv = ([sys.executable, TRACER, spans, *tail] if traced
                else [sys.executable, "-m", "chflow", *tail])
        code, wall, cpu, rss = launch(argv, err, deadline)
        op = {"command": name, "traced": traced, "wall_s": wall, "cpu_s": cpu,
              "peak_rss_mb": rss}
        try:
            op["fails"], op["gates"] = gate(workload, name, cfgs[cfg_name], out, code)
            op["sha256"], op["bytes"] = tree_digest(out)
            if traced:
                docs.append(load_spans(spans))
        except (OSError, KeyError, ValueError, IndexError) as exc:
            op["fails"] = [f"exit code {code}; artifacts unreadable: {exc!r}"]
            op.setdefault("sha256", None)
            op.setdefault("bytes", 0)
        if op["fails"]:
            op["stderr"] = stderr_tail(err)
        worst_ratio = max(worst_ratio, op.get("gates", {}).get("worst_ratio", 0.0))
        ops.append(op)
    p = {"traced": traced, "ops": ops,
         "wall_s": sum(o["wall_s"] for o in ops),
         "cpu_s": sum(o["cpu_s"] for o in ops),
         "peak_rss_mb": max(o["peak_rss_mb"] for o in ops)}
    if traced and len(docs) == len(ops):
        p["layers"] = layer_metrics(docs, p["wall_s"], sum(o["bytes"] for o in ops),
                                    worst_ratio)
    shutil.rmtree(directory)
    return p


def check_repeats(passes: list[dict]) -> None:
    """Fail an operation whose artifacts differ from the first pass's.

    With tracing, also fail a traced pass whose exact counts differ from the
    first traced pass's.
    """
    first = passes[0]["ops"]
    for p in passes[1:]:
        for op, ref in zip(p["ops"], first):
            if op["sha256"] != ref["sha256"]:
                op["fails"].append("artifacts differ from the first pass at this seed")
    traced = [p for p in passes if "layers" in p]
    for p in traced[1:]:
        for key in EXACT_COUNTS:
            if p["layers"][key] != traced[0]["layers"][key]:
                p["ops"][-1]["fails"].append(f"count {key} differs between traced passes")


def git_commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        res = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return res.stdout.strip() if res.returncode == 0 else "unknown"


def environment(workload: str, seed: int) -> dict:
    return {
        "git_commit": git_commit(),
        "seed": seed,
        "commands": [{"command": name, "n": configs(workload, seed)[cfg]["grid"]["n"],
                      "order": order}
                     for name, cfg, _, order in commands(workload, seed)],
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "blas_threads": BLAS_PIN,
    }


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    deadline = time.monotonic() + BUDGET_S
    work = os.path.join(OUT, f"{workload}-s{seed}-t{int(trace)}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    cfg_paths = write_configs(workload, seed, work)
    setup_cfg = next(iter(cfg_paths.values()))
    setup_times(setup_cfg, work, deadline, 1)  # compiles bytecode; not timed

    # Untraced: at least two passes, for the repeat check.  Traced: traced and
    # untraced passes alternate, at least two traced (for the exact counts)
    # and one untraced (for the tracing overhead).  No pass starts that would
    # end, at the typical pass time so far, after `seconds`.  Set-up samples
    # are taken between passes so that they span the whole run.
    setup, passes = [], []
    start = time.perf_counter()
    while True:
        if not trace:
            setup += setup_times(setup_cfg, work, deadline, SETUP_PER_PASS)
        n_traced = sum(p["traced"] for p in passes)
        enough = (n_traced >= 2 and len(passes) >= 3) if trace else len(passes) >= 2
        if enough:
            typical = statistics.median(p["wall_s"] for p in passes)
            if time.perf_counter() - start + typical > seconds:
                break
        traced = trace and len(passes) % 2 == 0
        passes.append(run_pass(workload, seed, cfg_paths,
                               os.path.join(work, f"pass{len(passes)}"), traced, deadline))
    check_repeats(passes)

    ops = [op for p in passes for op in p["ops"]]
    failed = sum(bool(op["fails"]) for op in ops)
    plain = [p for p in passes if not p["traced"]]
    if trace:
        layered = [p["layers"] for p in passes if "layers" in p]
        metrics = median_metrics(layered) if layered else {k: 0.0 for k in PER_LAYER
                                                           if k != "trace.overhead_frac"}
        traced_wall = [p["wall_s"] for p in passes if p["traced"]]
        metrics["trace.overhead_frac"] = (statistics.median(traced_wall)
                                          / statistics.median(p["wall_s"] for p in plain) - 1.0)
        units = {k: PER_LAYER[k][0] for k in PER_LAYER}
    else:
        metrics = {
            "setup_s": statistics.median(setup),
            "wall_s": statistics.median(p["wall_s"] for p in plain),
            "cpu_s": statistics.median(p["cpu_s"] for p in plain),
            "peak_rss_mb": max(p["peak_rss_mb"] for p in plain),
        }
        units = END_TO_END
    return {
        "workload": workload,
        "trace": trace,
        "environment": environment(workload, seed),
        "configs": configs(workload, seed),
        "attempted": len(ops),
        "failed": failed,
        "failed_frac": failed / len(ops),
        "setup_samples_s": setup,
        "passes": passes,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
        "notes": NOTES,
    }


def print_table(rec: dict) -> None:
    print(f"{rec['workload']}: seed {rec['environment']['seed']}, "
          f"{len(rec['passes'])} passes, {rec['attempted']} operations, "
          f"{rec['failed']} failed")
    for name, m in rec["metrics"].items():
        print(f"  {name:40s} {m['value']:>16.6g} {m['unit']}")
    print(f"  {'failed_frac':40s} {rec['failed_frac']:>16.6g} frac")
    for p in rec["passes"]:
        for op in p["ops"]:
            for fail in op["fails"]:
                print(f"  FAILED {op['command']}: {fail}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all", choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "chflow", "__init__.py")):
        print(f"error: no chflow package under {SRC}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    records = []
    for name in names:
        try:
            rec = run_workload(name, args.seed, args.seconds, bool(args.trace))
        except RuntimeError as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 2
        with open(os.path.join(OUT, f"record-{name}-s{args.seed}-t{args.trace}.json"),
                  "w") as fh:
            json.dump(rec, fh, indent=1)
        print_table(rec)
        records.append(rec)

    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": m for r in records for k, m in r["metrics"].items()}
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
