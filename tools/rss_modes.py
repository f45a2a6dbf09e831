"""peak_rss_mb of one benchmark workload under both glibc heap modes.

Usage: python3 tools/rss_modes.py WORKLOAD SEED [SEED ...]

glibc raises its mmap threshold dynamically after large frees, so the
same program can read two peak resident sets that differ by a few MB,
depending on the heap layout earlier operations left (the checkout's path
length is enough to flip it).  This tool copies the checkout, without
.git and .bench_work, into temporary directories whose paths have three
lengths, and runs the unmodified `bench/run.py --workload WORKLOAD --seed
SEED --seconds S --trace 0` in each, once as is and once with
MALLOC_MMAP_THRESHOLD_=131072 in the child's environment alone (a fixed
threshold, which turns the dynamic one off).  It prints peak_rss_mb for
every (path length, seed) cell in both modes.  S is the run_seconds of
BENCHMARK.json.  The runs are sequential, so they never compete for
memory or CPU with each other.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# directory names of the three copies; each adds four characters to the path
NAMES = ("c", "c" * 5, "c" * 9)
FIXED = {"MALLOC_MMAP_THRESHOLD_": "131072"}


def peak_rss_mb(checkout: Path, workload: str, seed: int, seconds: float, extra: dict) -> float:
    run = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, env=dict(os.environ, **extra), capture_output=True, text=True,
    )
    if run.returncode != 0:
        raise SystemExit(f"bench/run.py failed in {checkout}:\n{run.stderr}")
    result = json.loads(run.stdout.strip().splitlines()[-1])
    return float(result["metrics"]["peak_rss_mb"]["value"])


def main(argv: list[str]) -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("workload")
    ap.add_argument("seeds", type=int, nargs="+")
    args = ap.parse_args(argv)
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    print(f"{'path chars':>10} {'seed':>5} {'default MB':>11} {'fixed MB':>9}")
    with tempfile.TemporaryDirectory() as tmp:
        for name in NAMES:
            checkout = Path(tmp) / name
            shutil.copytree(ROOT, checkout, ignore=shutil.ignore_patterns(
                ".git", ".bench_work", "__pycache__", ".pytest_cache"))
            for seed in args.seeds:
                default = peak_rss_mb(checkout, args.workload, seed, seconds, {})
                fixed = peak_rss_mb(checkout, args.workload, seed, seconds, FIXED)
                print(f"{len(str(checkout)):>10} {seed:>5} {default:>11.2f} {fixed:>9.2f}",
                      flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])
