#!/usr/bin/env python3
"""Run every workload repeatedly and report how steady each metric is.

    python3 bench/steady.py                      # 10 seeds per workload
    python3 bench/steady.py --runs 1             # one run of each: all metrics
    python3 bench/steady.py --runs 5 --workloads play_wide
    python3 bench/steady.py --write-bounds       # set end-to-end bounds from the spread
    python3 bench/steady.py --compare A.json B.json

Each run is a fresh ``bench/run.py`` process with its own seed (1, 2, ...).
For each workload and metric the table gives the median, the quartiles
from ``statistics.quantiles(values, n=4)`` and the spread, the distance
between the quartiles as a share of the median.  A metric is steady when
its spread stays under a third of its bound; set-up time is reported but
exempt.  The share of failed operations must be the same in every run.

``--write-bounds`` sets each end-to-end bound in BENCHMARK.json to the
smallest step of BOUND_STEPS above three times the widest spread seen on
any workload; times (``setup_s``, ``wall_s``) always get the largest
step.  ``--compare`` checks that a second saved set of runs is no worse
than the first by more than each bound.  Raw results go to
``.bench_work/steady.json`` unless ``--save`` names another file.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = ROOT / "BENCHMARK.json"
BOUND_STEPS = (0.02, 0.05, 0.1, 0.15, 0.2, 0.25)


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """(median, q1, q3, (q3 - q1) / median)."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / abs(med) if med else float("inf")


def summarize(results: dict, spec: dict) -> tuple[dict, bool]:
    """Print one table per workload; return the widest spread per metric and a verdict."""
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    widest: dict[str, float] = {}
    ok = True
    for workload, runs in results.items():
        shares = {(r["failed"], r["attempted"]) for r in runs}
        fail_share = {f / a for f, a in shares}
        correct = all(r["correct"] for r in runs)
        ok &= correct and len(fail_share) == 1
        print(f"\n{workload}: {len(runs)} runs, correct {correct}, "
              f"failed/attempted {sorted(shares)}")
        print(f"  {'metric':<28} {'unit':<6} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'spread':>8} {'bound':>6}")
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            med, q1, q3, sp = spread(values)
            widest[name] = max(widest.get(name, 0.0), sp)
            bound = bounds.get(name)
            verdict = ""
            if bound is not None and name != "setup_s":
                steady = sp < bound / 3.0
                ok &= steady
                verdict = "steady" if steady else "WIDE"
            unit = runs[0]["metrics"][name]["unit"]
            print(f"  {name:<28} {unit:<6} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} "
                  f"{sp:>8.4f} {bound if bound is not None else '':>6} {verdict}")
    return widest, ok


def suggest_bounds(widest: dict, spec: dict) -> dict:
    """Three times the widest spread, rounded up to a step; times get the largest step.

    A shared host's speed moves between sets of runs by more than it
    spreads within one (set medians of the same CPU time a fifth apart),
    so a time's bound cannot come from one set's spread.
    """
    out = {}
    for m in spec["end_to_end"]:
        if m["unit"] == "s":
            out[m["name"]] = BOUND_STEPS[-1]
            continue
        need = 3.0 * widest.get(m["name"], 0.0)
        out[m["name"]] = next((b for b in BOUND_STEPS if b > need), BOUND_STEPS[-1])
    return out


def compare(first: dict, second: dict, spec: dict) -> bool:
    """Second set's median no worse than the first's by more than the bound."""
    ok = True
    for m in spec["end_to_end"]:
        name, bound = m["name"], m["bound"]
        sign = 1.0 if m["better"] == "lower" else -1.0
        for workload in first:
            a = statistics.median(r["metrics"][name]["value"] for r in first[workload])
            b = statistics.median(r["metrics"][name]["value"] for r in second[workload])
            worse = sign * (b - a) / abs(a)
            good = worse <= bound
            ok &= good
            print(f"{workload:<15} {name:<12} {a:>12.6g} {b:>12.6g} "
                  f"worse by {worse:+.4f} (bound {bound}) {'ok' if good else 'WORSE'}")
    for workload in first:
        sa = {r["failed"] / r["attempted"] for r in first[workload]}
        sb = {r["failed"] / r["attempted"] for r in second[workload]}
        same = sa == sb and len(sa) == 1
        ok &= same
        print(f"{workload:<15} failed share {sorted(sa)} vs {sorted(sb)} "
              f"{'ok' if same else 'DIFFERENT'}")
    return ok


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads", default=None, help="comma-separated subset")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-bounds", action="store_true")
    ap.add_argument("--save", default=str(ROOT / ".bench_work" / "steady.json"))
    ap.add_argument("--compare", nargs=2, metavar=("FIRST", "SECOND"))
    args = ap.parse_args(argv)
    spec = json.loads(BENCH.read_text(encoding="utf-8"))

    if args.compare:
        first, second = (json.loads(Path(p).read_text(encoding="utf-8")) for p in args.compare)
        return 0 if compare(first, second, spec) else 1

    names = ([w["name"] for w in spec["workloads"]] if args.workloads is None
             else args.workloads.split(","))
    results = {}
    for workload in names:
        results[workload] = []
        for seed in range(1, args.runs + 1):
            res = run_once(workload, seed, spec["run_seconds"], args.trace)
            results[workload].append(res)
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.6g}" for k, v in res["metrics"].items()
                if args.trace == 0 or k.endswith("_s")), flush=True)
    save = Path(args.save)
    save.parent.mkdir(parents=True, exist_ok=True)
    save.write_text(json.dumps(results, indent=1), encoding="utf-8")

    widest, ok = summarize(results, spec)
    if args.trace == 0:
        bounds = suggest_bounds(widest, spec)
        print("\nbounds from three times the widest spread: "
              + ", ".join(f"{k}={v}" for k, v in bounds.items()))
        if args.write_bounds:
            for m in spec["end_to_end"]:
                m["bound"] = bounds[m["name"]]
            BENCH.write_text(json.dumps(spec, indent=2) + "\n", encoding="utf-8")
            print(f"wrote bounds to {BENCH}")
    print(f"\nraw results: {save}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
