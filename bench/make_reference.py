"""Regenerate the stored references behind the accuracy gates.

    python3 bench/make_reference.py

Computes the fixture-fluid and fixture-porous traces (seismogram and green
files, as ``poroseis compute`` writes them) at quadrature order REFERENCE_N,
and the 18 oracle values of the oracle workload at grid order ORACLE_GRID_N
(doubled by the oracle's own convergence check), then stores them in
``bench/reference/`` with ``meta.json``: the commit, the orders, the Python
and numpy versions, the wall time of each part, the gate tolerances, and the
worst deviation of the benchmark's own settings from the new references.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import platform
import shutil
import sys
import time

import numpy as np

import gates
import workloads
from paths import REFERENCE, WORK, git_commit, use_checkout_source

REFERENCE_N = 4000
ORACLE_GRID_N = 480


def _compute(op: dict, n: int, name: str) -> dict:
    from poroseis import cli

    cfg = copy.deepcopy(op["config"])
    cfg["quadrature"]["n"] = n
    out_dir = WORK / f"reference-{name}-{n}"
    cfg["output"]["directory"] = str(out_dir)
    shutil.rmtree(out_dir, ignore_errors=True)
    try:
        with contextlib.redirect_stderr(io.StringIO()):
            rc = cli.run_compute(cli.load_config(cfg), quiet=True)
        if rc != 0:
            raise RuntimeError(f"{name}: compute exited with {rc}")
        return {"seismogram": gates.read_columns(out_dir / "receiver_001.csv"),
                "green": gates.read_columns(out_dir / "green_001.csv")}
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)


def _worst(actual: np.ndarray, ref: np.ndarray) -> float:
    """Largest column error as a share of that column's peak."""
    worst = 0.0
    for j in range(1, ref.shape[1]):
        peak = float(np.max(np.abs(ref[:, j])))
        if peak > 0.0:
            worst = max(worst, float(np.max(np.abs(actual[:, j] - ref[:, j])))
                        / peak)
    return worst


def _oracle_values(op: dict, grid_n: int) -> list[float]:
    from poroseis import cli, oracle

    setup = cli.load_config(op["config"])
    return [oracle.laplace_reference(
                oracle.default_probe(setup.model, setup.receivers[i], s,
                                     n=grid_n),
                setup.model, name)
            for i, s, name in op["channels"]]


def main() -> int:
    use_checkout_source()

    REFERENCE.mkdir(exist_ok=True)
    wall, deviation = {}, {}
    for workload in ("fixture-fluid", "fixture-porous"):
        op = workloads.generate(workload)[0]
        t0 = time.perf_counter()
        ref = _compute(op, REFERENCE_N, workload)
        wall[workload] = time.perf_counter() - t0
        np.savez_compressed(REFERENCE / gates.REFERENCE_FILES[workload], **ref)
        bench_n = op["config"]["quadrature"]["n"]
        ours = _compute(op, bench_n, workload)
        deviation[workload] = {
            f"seismogram_n{bench_n}": _worst(ours["seismogram"], ref["seismogram"]),
            f"green_n{bench_n}": _worst(ours["green"], ref["green"])}
        print(f"{workload}: {wall[workload]:.1f} s, {deviation[workload]}")

    op = workloads.generate("oracle")[0]
    t0 = time.perf_counter()
    values = _oracle_values(op, ORACLE_GRID_N)
    wall["oracle"] = time.perf_counter() - t0
    ours = _oracle_values(op, op["config"]["verify"]["grid_n"])
    deviation["oracle"] = {
        f"grid_n{op['config']['verify']['grid_n']}":
            max(abs(a - b) / abs(b) for a, b in zip(ours, values))}
    print(f"oracle: {wall['oracle']:.1f} s, {deviation['oracle']}")
    (REFERENCE / gates.REFERENCE_FILES["oracle"]).write_text(
        json.dumps({"channels": op["channels"], "values": values}, indent=1)
        + "\n", encoding="utf-8")

    import poroseis

    meta = {
        "commit": git_commit(), "poroseis": poroseis.__version__,
        "quadrature_n": REFERENCE_N, "oracle_grid_n": ORACLE_GRID_N,
        "python": platform.python_version(), "numpy": np.__version__,
        "wall_s": wall,
        "tolerances": {"seismogram_of_peak": gates.SEISMOGRAM_TOL,
                       "green_of_peak": gates.GREEN_TOL,
                       "oracle_relative": gates.ORACLE_TOL,
                       "quiet_before_onset": "exact zero"},
        "benchmark_settings_vs_reference": deviation,
    }
    (REFERENCE / "meta.json").write_text(json.dumps(meta, indent=1) + "\n",
                                         encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
