"""Run all seven CLI commands on every configs/*.cfg and keep everything they leave.

Usage: python3 tools/cli_snapshot.py OUT_DIR

OUT_DIR/<config>/<command>/ receives the command's output files under
files/, plus stdout.txt, stderr.txt and exit_code.txt.  Two checkouts give
byte-identical CLI results when `diff -r` of their OUT_DIRs prints nothing.
"""
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COMMANDS = ("static", "hamiltonian", "schedule", "pde", "dp", "simulate", "converge")

out_root = Path(sys.argv[1]).resolve()
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
