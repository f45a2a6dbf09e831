"""Spans around the public functions of each isaacslab module, from outside the package.

A ``Tracer`` replaces module attributes (and two ``ProblemSpec`` methods)
with wrappers that record one span per call: name, layer, start, end and
the index of the enclosing span.  Callers that look a function up through
its module at call time see the wrapper, so ``exploitability``'s inner
``simulate`` calls nest under it.  Spans stay in memory until
``write_spans``.  A layer's self time is the duration of its spans minus
the part covered by their direct children.
"""

from __future__ import annotations

import functools
import inspect
import os
import time
from collections import Counter, defaultdict
from pathlib import Path

from isaacslab import cli, engine, pde, schedule
from isaacslab.problem import ProblemSpec

LAYERS = (
    "pde", "problem", "engine.lattice", "engine.dp", "engine.play", "engine.roster",
    "schedule", "hamiltonian", "cli", "csvio", "config",
)

MB = 1e6


def _bound(fn):
    sig = inspect.signature(fn)
    return lambda args, kwargs: sig.bind(*args, **kwargs).arguments


def _count_solve(c, a, out, dur):
    steps = out.times.size - 1
    c["pde.steps"] += steps
    c["pde.node_steps"] += steps * out.grid.nodes
    c["pde.field_bytes"] += out.values.nbytes
    c["pde.solve_incl_s"] += dur


def _count_lattice(c, a, out, dur):
    c["engine.lattice_bytes"] += out.successors.nbytes


def _count_dp(c, a, out, dur):
    c["engine.dp_field_bytes"] += out.v_minus.values.nbytes + out.v_plus.values.nbytes


def _count_simulate(c, a, out, dur):
    c["engine.path_substeps"] += a["paths"] * a["partition"].intervals * a["substeps"]
    c["engine.noise_draws"] += a["noise"].draws - a["_draws_before"]
    c["engine.simulate_incl_s"] += dur


def _count_roster(c, a, out, dur):
    c["engine.challengers"] += len(out.results)


def _count_marks(c, a, out, dur):
    c["schedule.intervals"] += a["partition"].intervals


def _count_states(c, a, out, dur):
    c["hamiltonian.states"] += len(a["X"])


def _count_csv(c, a, out, dur):
    c["csvio.out_bytes"] += os.path.getsize(a["path"])


def _noise_before(a):
    a["_draws_before"] = a["noise"].draws


# (owner, attribute, layer, counter, hook run before the call)
TARGETS = (
    (pde, "solve", "pde", _count_solve, None),
    (pde, "cfl_max_dt", "pde", None, None),
    (ProblemSpec, "drift", "problem", None, None),
    (ProblemSpec, "diffusion", "problem", None, None),
    (engine, "build_lattice", "engine.lattice", _count_lattice, None),
    (engine, "dp_value_random", "engine.dp", _count_dp, None),
    (engine, "dp_value_deterministic", "engine.dp", _count_dp, None),
    (engine, "simulate", "engine.play", _count_simulate, _noise_before),
    (engine, "exploitability", "engine.roster", _count_roster, None),
    (schedule, "make_marks", "schedule", _count_marks, None),
    (schedule, "check_density", "schedule", None, None),
    # the CLI binds these names at import, so they are wrapped where it looks them up
    (cli, "hamiltonian_batch", "hamiltonian", _count_states, None),
    (cli, "write_csv", "csvio", _count_csv, None),
    (cli, "load_config", "config", None, None),
    (cli, "write_manifest", "config", None, None),
    (cli, "main", "cli", None, None),
)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, layer, start, end, parent index]
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def _wrap(self, name, layer, fn, count, before):
        spans, stack, counts = self.spans, self._stack, self.counts
        bind = _bound(fn) if (count or before) else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            bound = bind(args, kwargs) if bind else None
            if before:
                before(bound)
            idx = len(spans)
            spans.append([name, layer, 0.0, 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                spans[idx][2] = t0
                spans[idx][3] = t1
            if count:
                count(counts, bound, out, t1 - t0)
            return out

        return traced

    def install(self) -> None:
        for owner, attr, layer, count, before in TARGETS:
            fn = getattr(owner, attr)
            name = f"{getattr(owner, '__name__', owner)}.{attr}"
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(name, layer, fn, count, before))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()

    def self_times(self) -> dict[str, float]:
        child = defaultdict(float)
        for _, _, t0, t1, parent in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out = {layer: 0.0 for layer in LAYERS}
        for i, (_, layer, t0, t1, _) in enumerate(self.spans):
            out[layer] += (t1 - t0) - child[i]
        return out

    def calls(self, layer: str) -> int:
        return sum(1 for s in self.spans if s[1] == layer)

    def layer_metrics(self, traced_wall: float) -> dict[str, float]:
        """Per-layer metrics of the spans recorded since the last reset.

        Self times are elapsed times, so that they add up to ``traced_wall``,
        the elapsed time of the traced round's program calls.
        """
        st = self.self_times()
        c = self.counts

        def rate(num, den):
            return num / den if den > 0 else 0.0

        return {
            "pde.solve_s": st["pde"],
            "pde.steps": c["pde.steps"],
            "pde.node_steps_per_s": rate(c["pde.node_steps"], c["pde.solve_incl_s"]),
            "pde.field_mb": c["pde.field_bytes"] / MB,
            "problem.coeff_calls": self.calls("problem"),
            "problem.coeff_s": st["problem"],
            "engine.lattice_s": st["engine.lattice"],
            "engine.lattice_mb": c["engine.lattice_bytes"] / MB,
            "engine.dp_s": st["engine.dp"],
            "engine.dp_field_mb": c["engine.dp_field_bytes"] / MB,
            "engine.simulate_s": st["engine.play"],
            "engine.path_substeps": c["engine.path_substeps"],
            "engine.path_substeps_per_s": rate(c["engine.path_substeps"],
                                               c["engine.simulate_incl_s"]),
            "engine.noise_draws": c["engine.noise_draws"],
            "engine.exploit_self_s": st["engine.roster"],
            "engine.challengers": c["engine.challengers"],
            "schedule.s": st["schedule"],
            "schedule.intervals": c["schedule.intervals"],
            "hamiltonian.batch_s": st["hamiltonian"],
            "hamiltonian.states": c["hamiltonian.states"],
            "cli.self_s": st["cli"],
            "csvio.write_s": st["csvio"],
            "csvio.out_mb": c["csvio.out_bytes"] / MB,
            "config.s": st["config"],
            "trace.wall_s": traced_wall,
            "trace.coverage": rate(sum(st.values()), traced_wall),
        }

    def write_spans(self, path: Path) -> None:
        """Spans as CSV, times in seconds from the first span's start."""
        path.parent.mkdir(parents=True, exist_ok=True)
        base = self.spans[0][2] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index,name,layer,start_s,end_s,parent\n")
            for i, (name, layer, t0, t1, parent) in enumerate(self.spans):
                fh.write(f"{i},{name},{layer},{t0 - base:.9f},{t1 - base:.9f},{parent}\n")
