"""peak_rss_mb of one benchmark workload under both glibc heap modes.

Usage: python3 tools/rss_modes.py WORKLOAD SEED [SEED ...] [--parent DIR]

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

With --parent DIR, DIR (another checkout, say of the parent commit) is
copied the same way into directories with the same three path lengths,
and each cell runs DIR's copy and this checkout's back to back in each
mode, alternating per cell which goes first.  Each row then shows both
sides' default and fixed-threshold MB next to each other.
"""
import argparse
import contextlib
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
    ap.add_argument("--parent", type=Path, help="a second checkout to run beside this one")
    args = ap.parse_args(argv)
    sources = {"change": ROOT}
    if args.parent is not None:
        if not (args.parent / "bench" / "run.py").is_file():
            raise SystemExit(f"--parent {args.parent} has no bench/run.py")
        sources = {"parent": args.parent.resolve(), "change": ROOT}
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    modes = (("default", {}), ("fixed", FIXED))
    # columns: each mode's MB, the sides next to each other within a mode
    columns = [(side, mode) for mode, _ in modes for side in sources]
    heads = [f"{mode} MB" if len(sources) == 1 else f"{side} {mode}" for side, mode in columns]
    print(f"{'path chars':>10} {'seed':>5} " + " ".join(f"{h:>14}" for h in heads))
    cell = 0
    with contextlib.ExitStack() as stack:
        # one temporary directory per side: their names have one length
        tmps = {side: Path(stack.enter_context(tempfile.TemporaryDirectory()))
                for side in sources}
        for name in NAMES:
            checkouts = {}
            for side, source in sources.items():
                checkouts[side] = tmps[side] / name
                shutil.copytree(source, checkouts[side], ignore=shutil.ignore_patterns(
                    ".git", ".bench_work", "__pycache__", ".pytest_cache"))
            # both sides' copies have one path length, or this unpacking fails
            (chars,) = {len(str(path)) for path in checkouts.values()}
            for seed in args.seeds:
                # back to back within each mode, the first side alternating per cell
                order = list(sources)[::-1] if cell % 2 else list(sources)
                cell += 1
                mb = {(side, mode): peak_rss_mb(checkouts[side], args.workload, seed,
                                                seconds, extra)
                      for mode, extra in modes for side in order}
                print(f"{chars:>10} {seed:>5} "
                      + " ".join(f"{mb[col]:>14.2f}" for col in columns), flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])
