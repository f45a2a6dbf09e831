#!/usr/bin/env python3
"""Run one benchmark workload against the isaacslab sources of this checkout.

    python3 bench/run.py --workload reference_fine --seed 1 --seconds 35 --trace 0

The run sets up its inputs from ``--seed``, then repeats whole rounds of
the workload's operations while another round can end within
``--seconds`` (the first round always runs), checking every output
against the closed forms in ``oracles``.  The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones: ``setup_s`` (median
of several fresh interpreters that import the package and build the
inputs), ``wall_s`` (median round, program calls only), ``peak_rss_mb``
and the error metrics ``pde_err``, ``dp_err`` and ``mc_se``.  Both times
are CPU time of a single-threaded load, that is elapsed time less the
time spent waiting for a CPU (hypervisor steal, other tasks): on a shared
host that wait comes and goes over minutes and has nothing to do with the
program.  With ``--trace 1`` untraced and traced rounds alternate, and the
metrics are the per-layer ones plus the tracing overhead; the spans of the
last traced round are written to ``.bench_work/traces/``.

BLAS is pinned to one thread before numpy loads.  The run exits non-zero
without a result line when the package sources are missing.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_SAMPLES = 7
BENCH = ROOT / "BENCHMARK.json"


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="build the inputs and exit; used to time set-up")
    return ap.parse_args(argv)


def _import_package():
    if not (SRC / "isaacslab" / "__init__.py").is_file():
        raise SystemExit(f"error: no isaacslab sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import isaacslab

    if Path(isaacslab.__file__).resolve().parent != (SRC / "isaacslab").resolve():
        raise SystemExit(f"error: imported isaacslab from {isaacslab.__file__}")


def _children_cpu() -> float:
    use = resource.getrusage(resource.RUSAGE_CHILDREN)
    return use.ru_utime + use.ru_stime


def _setup_seconds(args) -> list[float]:
    """CPU time of fresh interpreters that import the package and build the inputs."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    samples = []
    for _ in range(SETUP_SAMPLES):
        c0 = _children_cpu()
        subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
        samples.append(_children_cpu() - c0)
    return samples


def _metric_units(trace: int) -> dict[str, str]:
    """Units of the metrics a run reports, from BENCHMARK.json."""
    spec = json.loads(BENCH.read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def _report_round(i: int, res, traced: bool) -> None:
    failed = [op for op in res.ops if op.failed]
    tag = "traced" if traced else "untraced"
    print(f"round {i} ({tag}): {len(res.ops)} operations, {len(failed)} failed, "
          f"program time {res.clock.wall:.3f} s elapsed, {res.clock.cpu:.3f} s CPU")
    for op in failed:
        for c in op.checks:
            if not c.ok:
                known = " (known fault)" if c.name == op.known_fault else ""
                print(f"  FAILED {op.name}: {c.name}{known}: {c.detail}")


def main(argv=None) -> int:
    args = _parse(argv)
    _import_package()
    import workloads
    from tracing import Tracer

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seed < 0:
        print("error: --seed must be non-negative", file=sys.stderr)
        return 2
    setup, run_round = workloads.WORKLOADS[args.workload]
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        if args.setup_only:
            setup(args.seed, workdir)
            return 0
        setup_samples = [] if args.trace else _setup_seconds(args)
        inputs = setup(args.seed, workdir)

        rounds, traced_rounds, layer_rows = [], [], []
        tracer = Tracer() if args.trace else None
        start = time.perf_counter()
        while True:
            round_start = time.perf_counter()
            # traced and untraced rounds alternate, so drift hits both alike
            traced = tracer is not None and len(rounds) > len(traced_rounds)
            if traced:
                tracer.reset()
                tracer.install()
            try:
                res = run_round(inputs)
            finally:
                if traced:
                    tracer.uninstall()
            _report_round(len(rounds) + len(traced_rounds) + 1, res, traced)
            if traced:
                traced_rounds.append(res)
                layer_rows.append(tracer.layer_metrics(res.clock.wall))
            else:
                rounds.append(res)
            # start another round only if it can end within --seconds
            now = time.perf_counter()
            if now - start + (now - round_start) > args.seconds and (
                tracer is None or traced_rounds
            ):
                break

        all_rounds = rounds + traced_rounds
        ops = [op for r in all_rounds for op in r.ops]
        correct = not any(op.unexpected for op in ops)
        last = all_rounds[-1].metrics
        missing = {"pde_err", "dp_err", "mc_se"} - set(last)
        if missing:
            print(f"error: no output to measure {', '.join(sorted(missing))} from",
                  file=sys.stderr)
            return 3
        if tracer is None:
            metrics = {
                "setup_s": statistics.median(setup_samples),
                "wall_s": statistics.median(r.clock.cpu for r in rounds),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
                "pde_err": last["pde_err"],
                "dp_err": last["dp_err"],
                "mc_se": last["mc_se"],
            }
        else:
            metrics = {k: statistics.median(row[k] for row in layer_rows)
                       for k in layer_rows[0]}
            metrics["trace.overhead_s"] = (statistics.median(r.clock.cpu for r in traced_rounds)
                                           - statistics.median(r.clock.cpu for r in rounds))
            tracer.write_spans(WORK / "traces" / f"{args.workload}-seed{args.seed}.csv")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    units = _metric_units(args.trace)
    if set(units) != set(metrics):
        print(f"error: measured {sorted(metrics)}, BENCHMARK.json lists {sorted(units)}",
              file=sys.stderr)
        return 3
    for name, value in metrics.items():
        print(f"{args.workload:>15} {name:<28} {value:>16.6g} {units[name]}")
    result = {
        "correct": correct,
        "attempted": len(ops),
        "failed": sum(op.failed for op in ops),
        "metrics": {k: {"value": float(v), "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
