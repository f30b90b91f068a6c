"""Workload generator of the poroseis benchmark.

Turns a workload name into the list of operations the runner executes.  An
operation is one configuration for the program plus the facts the runner
needs to judge it, computed here, outside any timed region:

- ``config``: the JSON configuration the program receives, and nothing else;
- ``live_samples``: live (branch, time-sample) pairs, counted from
  ``green.branch_arrivals``; a sample is live when it lies past the branch
  onset (the head-wave onset where a head segment exists, else the volume
  arrival), i.e. outside the quiet regime;
- ``onsets``: per receiver, the earliest time anything can arrive there.

Every workload has fixed inputs, so every seed gives byte-identical
configurations (``dumps`` below).  Run it on its own to inspect a
workload::

    python3 bench/workloads.py --workload fixture-porous
"""

from __future__ import annotations

import argparse
import copy
import json
import math
import sys

from paths import use_checkout_source

WORKLOADS = ("fixture-fluid", "fixture-porous", "oracle")

# The bundled validation setup, fixed here so that a change to the program's
# own fixture cannot silently change what the stored references describe.
FIXTURE = {
    "acoustic": {"rho_kg_m3": 1020.0, "v_m_s": 1500.0},
    "poroelastic": {
        "rho_s_kg_m3": 2500.0, "rho_f_kg_m3": 1020.0, "phi": 0.4,
        "tortuosity": 2.0, "k_s_pa": 16.0554e9, "k_f_pa": 2.295e9,
        "k_b_pa": 10.0e9, "mu_pa": 9.63342e9, "eta_pa_s": 0.0,
    },
    "source": {"height_m": 500.0, "f0_hz": 15.0, "gain": 1.0},
    "receivers": [[400.0, 0.0, 533.0], [400.0, 0.0, -533.0]],
    "time": {"t_end_s": 1.2, "dt_s": 0.00025},
    "quadrature": {"n": 2000, "sin_substitution": True},
    "output": {"directory": "poroseis_out", "format": "csv",
               "emit_green": True},
    "verify": {"s_values_per_s": [20.0, 40.0], "grid_n": 240},
}

# fixture-fluid: the fluid receiver alone, default quadrature, emit_green on,
# on the fixture grid.  It has only the reflected branch, whose volume
# contour is closed-form with no head segment, so nearly all time goes to
# the 4x4 interface solves and the slowness quadrature while the cagniard
# Newton solvers do almost nothing: it shows interface-solve and quadrature
# gains isolated from contour gains.  The window is trimmed to 0.84 s
# (407 live samples of the fixture's 1847) so that several operations fit
# in one run.
FLUID_T_END = 0.84

# fixture-porous: the porous receiver, three transmitted branches.  A
# profile puts about half the time in the stationary-ray solver (_xi_zero
# and its slope) and a quarter in the interface solve; this is
# where the batched time loop and the stationary-ray and contour Newton work
# must show.  dt is coarsened to the config limit 1/(40 f0) and t_end
# trimmed to 0.905 s, which still covers all three onsets (P-fast 0.506 s,
# S 0.596 s, P-slow 0.894 s) and the P-slow mixed regime (to 0.899 s).
POROUS_T_END = 0.905

# oracle: the oracle half of `verify` on the fixture, as run_verify calls
# it: 9 channels at s in {20, 40}, grid_n 240 with doubling, 18 values.  No
# contour work; the time is in oracle._grid_solution, which solves the
# interface system on batches of 57,600 and 230,400 slownesses where the
# trace workloads solve 2000 per sample, so an interface-solve change that
# trades small-batch against large-batch speed shows in one of the two.
# The trace half of verify costs minutes at today's speed and stays out.
FLUID_CHANNELS = ("xi_ref", "u_ref_x", "u_ref_z")
POROUS_CHANNELS = ("u_pf_x", "u_pf_z", "u_ps_x", "u_ps_z", "u_s_x", "u_s_z")


def dumps(config: dict) -> str:
    """Canonical JSON text of a configuration."""
    return json.dumps(config, sort_keys=True, indent=1) + "\n"


def live_samples(arrivals, t_end: float, dt: float) -> int:
    """Live (branch, sample) pairs on the grid k*dt, k = 0..round(t_end/dt)."""
    count = int(round(t_end / dt)) + 1
    total = 0
    for arr in arrivals:
        onset = arr.t_h1 if arr.head_exists else arr.t0
        first = math.floor(onset / dt) + 1
        total += max(0, count - first)
    return total


def _facts(config: dict):
    """Receiver onsets and per-branch arrivals from the program's own code."""
    from poroseis.cli import load_config
    from poroseis.green import branch_arrivals

    setup = load_config(config)
    onsets, arrivals = [], []
    for rec in setup.receivers:
        arrs = list(branch_arrivals(setup.model, rec).values())
        arrivals.extend(arrs)
        onset = min(a.t_h1 if a.head_exists else a.t0 for a in arrs)
        if rec.z > 0.0:
            dz = rec.z - setup.model.source_height
            onset = min(onset, math.hypot(math.hypot(rec.x, rec.y), dz)
                        / setup.model.acoustic.v_plus)
        onsets.append(onset)
    return onsets, arrivals


def _op(config: dict) -> dict:
    onsets, arrivals = _facts(config)
    return {"config": config, "onsets": onsets,
            "live_samples": live_samples(arrivals, config["time"]["t_end_s"],
                                         config["time"]["dt_s"])}


def fixture_fluid() -> list[dict]:
    cfg = copy.deepcopy(FIXTURE)
    cfg["receivers"] = [FIXTURE["receivers"][0]]
    cfg["time"]["t_end_s"] = FLUID_T_END
    return [_op(cfg)]


def fixture_porous() -> list[dict]:
    cfg = copy.deepcopy(FIXTURE)
    cfg["receivers"] = [FIXTURE["receivers"][1]]
    cfg["time"] = {"t_end_s": POROUS_T_END,
                   "dt_s": 1.0 / (40.0 * FIXTURE["source"]["f0_hz"])}
    return [_op(cfg)]


def oracle() -> list[dict]:
    cfg = copy.deepcopy(FIXTURE)
    channels = [[i, s, name]
                for i, rec in enumerate(cfg["receivers"])
                for s in cfg["verify"]["s_values_per_s"]
                for name in (FLUID_CHANNELS if rec[2] > 0.0 else POROUS_CHANNELS)]
    return [{"config": cfg, "channels": channels}]


def generate(workload: str) -> list[dict]:
    """Operations of one workload."""
    use_checkout_source()
    if workload == "fixture-fluid":
        return fixture_fluid()
    if workload == "fixture-porous":
        return fixture_porous()
    if workload == "oracle":
        return oracle()
    raise ValueError(f"unknown workload {workload!r}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    args = parser.parse_args(argv)
    for op in generate(args.workload):
        print(dumps(op), end="")
    return 0


if __name__ == "__main__":
    sys.exit(main())
