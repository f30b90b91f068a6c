"""Accuracy gates: the stated accuracy behind every timed operation.

- fixture-fluid, fixture-porous: every written seismogram column within
  SEISMOGRAM_TOL of that column's peak, every green column within GREEN_TOL
  of its peak, against references stored at quadrature order n >= 4000
  (``make_reference.py``); samples before the receiver's first arrival are
  exactly zero.
- oracle: every value within ORACLE_TOL relative of the stored value, the
  oracle's own order-doubling tolerance.

Each check returns a list of problems; an empty list means the gate passed.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from paths import REFERENCE

SEISMOGRAM_TOL = 1e-6
GREEN_TOL = 1e-5
ORACLE_TOL = 1e-4
# Seismograms switch on this many periods 1/f0 before the Green arrival.
WAVELET_LEAD = 0.6
REFERENCE_FILES = {"fixture-fluid": "fixture_fluid.npz",
                   "fixture-porous": "fixture_porous.npz",
                   "oracle": "oracle.json"}


def read_columns(path: Path) -> np.ndarray:
    """Numeric rows of a poroseis CSV file, header lines skipped."""
    return np.loadtxt(path, delimiter=",", comments="#", ndmin=2)


def load_reference(workload: str):
    """Stored reference of a workload."""
    path = REFERENCE / REFERENCE_FILES[workload]
    if path.suffix == ".json":
        return json.loads(path.read_text(encoding="utf-8"))
    with np.load(path, allow_pickle=False) as data:
        return {key: data[key] for key in data.files}


def close_to_reference(actual: np.ndarray, ref: np.ndarray, tol: float,
                       label: str) -> list[str]:
    """Each column (after t) within tol of the reference column's peak."""
    if actual.shape != ref.shape:
        return [f"{label}: shape {actual.shape} != reference {ref.shape}"]
    problems = []
    if np.max(np.abs(actual[:, 0] - ref[:, 0])) > 1e-12:
        problems.append(f"{label}: time column differs from the reference")
    for j in range(1, ref.shape[1]):
        peak = float(np.max(np.abs(ref[:, j])))
        err = float(np.max(np.abs(actual[:, j] - ref[:, j])))
        if not err <= tol * peak:
            problems.append(f"{label} column {j}: error {err:.3e} is "
                            f"{err / peak if peak else math.inf:.3e} of peak "
                            f"{peak:.3e} > {tol:g}")
    return problems


def quiet_before(rows: np.ndarray, t_quiet: float, label: str) -> list[str]:
    """Every channel exactly zero at samples t < t_quiet."""
    early = rows[rows[:, 0] < t_quiet, 1:]
    if np.any(early != 0.0):
        return [f"{label}: nonzero value before t={t_quiet:.6f} s"]
    return []


def _seismogram_quiet_time(onset: float, config: dict) -> float:
    f0 = config["source"]["f0_hz"]
    dt = config["time"]["dt_s"]
    return onset - WAVELET_LEAD / f0 - 2.0 * dt


def check_fixture(op: dict, out_dir: Path, ref: dict) -> list[str]:
    seis = read_columns(out_dir / "receiver_001.csv")
    green = read_columns(out_dir / "green_001.csv")
    onset = op["onsets"][0]
    return (close_to_reference(seis, ref["seismogram"], SEISMOGRAM_TOL,
                               "seismogram")
            + close_to_reference(green, ref["green"], GREEN_TOL, "green")
            + quiet_before(green, onset, "green")
            + quiet_before(seis, _seismogram_quiet_time(onset, op["config"]),
                           "seismogram"))


def check_oracle(values: list[float], ref: dict) -> list[str]:
    stored = ref["values"]
    if len(values) != len(stored):
        return [f"oracle: {len(values)} values, reference has {len(stored)}"]
    problems = []
    for (i, s, name), value, want in zip(ref["channels"], values, stored):
        rel = abs(value - want) / abs(want)
        if not rel <= ORACLE_TOL:
            problems.append(f"oracle {name} receiver {i} s={s}: relative "
                            f"error {rel:.3e} > {ORACLE_TOL:g}")
    return problems

