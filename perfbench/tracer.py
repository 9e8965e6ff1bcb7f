"""Outside-in span tracer for one ``chflow`` CLI command.

Usage::

    python3 perfbench/tracer.py SPANS.json <chflow CLI arguments...>

Runs ``chflow.cli.main`` on the given arguments with each layer's public
functions wrapped where they are *called*.  The package modules import names
directly (``from .operators import l_eta_direct``), so a function is patched
in every module that binds it, not only in the module that defines it.  No
file of the package changes.

Each span records its name, start, end, parent and, for the scans, the grid
size it worked on.  A few cheap counters (``ScalarField1`` constructions,
``ScalarField1.eval`` and ``Diffeo.eval`` calls, accepted steps) are
attributed to the innermost open span.  Spans stay in memory and are written
to SPANS.json once the command returns; the exit code is the command's.

Spans inside the process pool of ``chflow converge`` are not collected: the
workers are forked with the patches in place, but their spans die with them.
``studies.*`` is therefore measured at the parent's boundary, and the
workers' CPU time is reported as ``children_cpu_s``.
"""

from __future__ import annotations

import functools
import json
import resource
import sys
import time

import chflow.checks
import chflow.cli
import chflow.eulerian
import chflow.lagrangian
import chflow.studies
from chflow.diffeo import Diffeo
from chflow.fields import ScalarField1


def _grid_n(args) -> int:
    return args[0].grid.n


def _accepted_steps(traj) -> dict:
    return {"accepted_steps": len(traj.diagnostics.t) - 1}


# (span name, calling modules whose binding is patched, attribute,
#  nodes-of-work function, result-counter function)
PATCHES = [
    ("operators.l_eta_direct", (chflow.lagrangian, chflow.checks), "l_eta_direct",
     _grid_n, None),
    ("operators.l_op", (chflow.eulerian,), "l_op", _grid_n, None),
    ("lagrangian.rk4_step", (chflow.lagrangian,), "rk4_step", None, None),
    ("lagrangian.integrate", (chflow.cli, chflow.studies), "integrate", None,
     _accepted_steps),
    ("lagrangian.reconstruct_u", (chflow.cli, chflow.studies, chflow.eulerian),
     "reconstruct_u", None, None),
    ("diffeo.invert", (chflow.lagrangian, chflow.checks), "invert", None, None),
    ("diffeo.comp1", (chflow.checks,), "comp1", None, None),
    ("diffeo.comp2", (chflow.checks,), "comp2", None, None),
    ("eulerian.integrate_eulerian", (chflow.cli, chflow.studies),
     "integrate_eulerian", None, None),
    ("eulerian.compare", (chflow.cli, chflow.studies), "compare", None, None),
    ("checks.operator_bound_suite", (chflow.cli,), "operator_bound_suite", None, None),
    ("checks.group_suite", (chflow.cli,), "group_suite", None, None),
    ("studies.lagrangian_refinement", (chflow.cli,), "lagrangian_refinement",
     None, None),
    ("studies.oracle_refinement", (chflow.cli,), "oracle_refinement", None, None),
    ("config.load_config", (chflow.cli,), "load_config", None, None),
    ("config.make_initial", (chflow.cli, chflow.studies), "make_initial", None, None),
]

# (counter name, class, method) counted on every call, wherever it comes from.
COUNTED_METHODS = [
    ("fields.ScalarField1", ScalarField1, "__post_init__"),
    ("fields.eval", ScalarField1, "eval"),
    ("diffeo.Diffeo.eval", Diffeo, "eval"),
]


class Tracer:
    """In-memory span list: [name, start_ns, end_ns, parent index, nodes]."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[tuple[int, str], int] = {}
        self._stack: list[int] = []

    def open(self, name: str, nodes: int = 0) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, 0, 0, parent, nodes])
        self._stack.append(idx)
        self.spans[idx][1] = time.perf_counter_ns()
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter_ns()
        self._stack.pop()

    def count(self, key: str, k: int = 1) -> None:
        slot = (self._stack[-1] if self._stack else -1, key)
        self.counts[slot] = self.counts.get(slot, 0) + k

    def span(self, fn, name: str, nodes=None, result_counts=None):
        """``fn`` wrapped so that each call is one span named ``name``."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(name, nodes(args) if nodes else 0)
            try:
                result = fn(*args, **kwargs)
                if result_counts is not None:
                    for key, k in result_counts(result).items():
                        self.count(key, k)
                return result
            finally:
                self.close(idx)

        return traced

    def counted(self, fn, key: str):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.count(key)
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        for name, modules, attr, nodes, result_counts in PATCHES:
            for module in modules:
                setattr(module, attr,
                        self.span(getattr(module, attr), name, nodes, result_counts))
        for key, cls, method in COUNTED_METHODS:
            setattr(cls, method, self.counted(getattr(cls, method), key))

    def dump(self, path: str, exit_code: int) -> None:
        usage = resource.getrusage(resource.RUSAGE_CHILDREN)
        doc = {
            "exit_code": exit_code,
            "children_cpu_s": usage.ru_utime + usage.ru_stime,
            "spans": self.spans,
            "counts": [[idx, key, k] for (idx, key), k in self.counts.items()],
        }
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        print("usage: tracer.py SPANS.json <chflow arguments...>", file=sys.stderr)
        return 1
    tracer = Tracer()
    tracer.install()
    idx = tracer.open("cli.main")
    try:
        code = chflow.cli.main(argv[1:])
    finally:
        tracer.close(idx)
    tracer.dump(argv[0], code)
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
