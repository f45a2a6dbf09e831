"""Peak resident memory of each CLI command, each in a fresh interpreter.

Usage: python3 tools/cli_peak.py CONFIG [COMMAND ...]

Runs `python3 -m isaacslab.cli COMMAND --config CONFIG` from the sources
under src/ for each command given (default: all seven), with outputs in a
temporary directory, and prints the command's exit code and its own
ru_maxrss in MB (Linux reports KiB; MB here is KiB / 1024, as in the
benchmark's peak_rss_mb).
"""
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COMMANDS = ("static", "hamiltonian", "schedule", "pde", "dp", "simulate", "converge")


def main(argv: list[str]) -> None:
    config = str(Path(argv[0]).resolve())
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    print(f"{'command':<12} {'exit':>4} {'peak_mb':>9}")
    for command in argv[1:] or COMMANDS:
        with tempfile.TemporaryDirectory() as out:
            proc = subprocess.Popen(
                [sys.executable, "-m", "isaacslab.cli", command, "--config", config,
                 "--out", out],
                cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            )
            # wait4 gives this child's own rusage, not the maximum over all children
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        print(f"{command:<12} {proc.returncode:>4} {usage.ru_maxrss / 1024:>9.2f}")


if __name__ == "__main__":
    main(sys.argv[1:])
