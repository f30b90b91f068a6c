"""Locations inside the checkout the benchmark runs from."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
REFERENCE = BENCH / "reference"
WORK = ROOT / ".bench_work"
RESULTS = ROOT / ".bench_results"


class MissingProgram(RuntimeError):
    """The checkout does not hold the program's source."""


def use_checkout_source() -> None:
    """Import poroseis from this checkout's src/ and nowhere else."""
    if not (SRC / "poroseis" / "__init__.py").is_file():
        raise MissingProgram(f"no poroseis package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import poroseis

    if Path(poroseis.__file__).resolve().parent != SRC / "poroseis":
        raise MissingProgram(f"poroseis was imported from {poroseis.__file__}")


def git_commit() -> str | None:
    """Commit of the checkout when it is a git work tree, else None."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None
