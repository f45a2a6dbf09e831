"""Run all seven CLI commands on every configs/*.cfg and keep everything they leave.

Usage: python3 tools/cli_snapshot.py OUT_DIR
       python3 tools/cli_snapshot.py --compare A B

OUT_DIR/<config>/<command>/ receives the command's output files under
files/, plus stdout.txt, stderr.txt and exit_code.txt.  Two checkouts give
byte-identical CLI results when `diff -r` of their OUT_DIRs prints nothing.

--compare lists every file of two snapshots that is not byte-identical, or
present in only one, and for each differing CSV of equal shape the largest
absolute difference over the cells that are numbers in both; a cell that
is text in either and differs is counted apart.  It prints the number of
identical files last and exits 1 when any file differs.
"""
import csv
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COMMANDS = ("static", "hamiltonian", "schedule", "pde", "dp", "simulate", "converge")


def snapshot(out_root: Path) -> None:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for cfg in sorted((ROOT / "configs").glob("*.cfg")):
        for command in COMMANDS:
            out = out_root / cfg.stem / command
            out.mkdir(parents=True)
            run = subprocess.run(
                [sys.executable, "-m", "isaacslab.cli", command, "--config",
                 f"configs/{cfg.name}", "--out", str(out / "files")],
                cwd=ROOT, env=env, capture_output=True,
            )
            (out / "stdout.txt").write_bytes(run.stdout)
            (out / "stderr.txt").write_bytes(run.stderr)
            (out / "exit_code.txt").write_text(f"{run.returncode}\n")


def _number(cell: str):
    try:
        return float(cell)
    except ValueError:
        return None


def csv_difference(a: Path, b: Path) -> str:
    """The largest absolute difference over numeric cells, or why there is none."""
    rows_a = list(csv.reader(a.open(newline="")))
    rows_b = list(csv.reader(b.open(newline="")))
    if [len(r) for r in rows_a] != [len(r) for r in rows_b]:
        return "shapes differ"
    largest, text = 0.0, 0
    for row_a, row_b in zip(rows_a, rows_b):
        for x, y in zip(row_a, row_b):
            if x == y:
                continue
            fx, fy = _number(x), _number(y)
            if fx is None or fy is None:
                text += 1
            else:
                largest = max(largest, abs(fx - fy))
    note = f", {text} text cells differ" if text else ""
    return f"max |diff| {largest:.3g}{note}"


def compare(first: Path, second: Path) -> int:
    """Print the files that differ between two snapshots; 1 if any does."""
    files = {p.relative_to(root) for root in (first, second)
             for p in root.rglob("*") if p.is_file()}
    same = 0
    for rel in sorted(files):
        a, b = first / rel, second / rel
        if not (a.is_file() and b.is_file()):
            print(f"{rel}  only in {first if a.is_file() else second}")
        elif a.read_bytes() == b.read_bytes():
            same += 1
        elif rel.suffix == ".csv":
            print(f"{rel}  {csv_difference(a, b)}")
        else:
            print(f"{rel}  differs")
    print(f"{same} of {len(files)} files byte-identical")
    return int(same != len(files))


if __name__ == "__main__":
    if sys.argv[1:2] == ["--compare"] and len(sys.argv) == 4:
        sys.exit(compare(Path(sys.argv[2]).resolve(), Path(sys.argv[3]).resolve()))
    if len(sys.argv) != 2 or sys.argv[1].startswith("--"):
        sys.exit(__doc__.split("\n\n")[1])
    snapshot(Path(sys.argv[1]).resolve())
