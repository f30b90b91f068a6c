"""Command-line front end: compute traces, verify against the oracle.

Subcommands
-----------
compute --config cfg.json [--threads N] [--quiet]
    Compute seismograms (and optionally raw Green channels) for every
    receiver in the configuration and write one trace file per receiver.

verify --config cfg.json
    Compare Laplace transforms of the computed Green channels against the
    independent frequency-domain oracle and print one row per
    (channel, receiver, s).

fixture
    Print the bundled validation configuration (water over a stiff porous
    half-space) to stdout.

Exit codes: 0 success, 1 verification mismatch, 2 configuration error,
3 numerical failure, 4 oracle non-convergence.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import hashlib
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .cagniard import MAX_LENGTH_M, WaveKind
from .errors import NonPhysical, NotConverged, PoroseisError
from .green import (GreenTrace, HalfspaceModel, QuadratureConfig, Receiver,
                    branch_arrivals, green_trace, reflected_trace,
                    transmitted_trace)
from .media import AcousticMedium, PoroelasticParams, derive_poroelastic, validate
from .oracle import default_probe, laplace_of_trace, laplace_reference
from .seismogram import Seismogram, SourceWavelet, convolve


class ConfigError(Exception):
    """Invalid or inconsistent run configuration."""


_TRANSMITTED_ORDER = (WaveKind.TRANSMITTED_PF, WaveKind.TRANSMITTED_PS,
                      WaveKind.TRANSMITTED_S)
# The verify grid runs _VERIFY_SPAN / s past each onset (truncation
# exp(-34) against the 1e-3 gate), in at most _VERIFY_MAX_SAMPLES samples.
_VERIFY_SPAN = 34.0
_VERIFY_MAX_SAMPLES = 10 ** 6
_VERIFY_FLUID = ("xi_ref", "u_ref_x", "u_ref_z")
_VERIFY_POROUS = ("u_pf_x", "u_pf_z", "u_ps_x", "u_ps_z", "u_s_x", "u_s_z")


def fixture_config() -> dict:
    """Reference configuration: a water layer over a stiff porous solid."""
    return {
        "acoustic": {"rho_kg_m3": 1020.0, "v_m_s": 1500.0},
        "poroelastic": {
            "rho_s_kg_m3": 2500.0,
            "rho_f_kg_m3": 1020.0,
            "phi": 0.4,
            "tortuosity": 2.0,
            "k_s_pa": 16.0554e9,
            "k_f_pa": 2.295e9,
            "k_b_pa": 10.0e9,
            "mu_pa": 9.63342e9,
            "eta_pa_s": 0.0,
        },
        "source": {"height_m": 500.0, "f0_hz": 15.0, "gain": 1.0},
        "receivers": [[400.0, 0.0, 533.0], [400.0, 0.0, -533.0]],
        "time": {"t_end_s": 1.2, "dt_s": 0.00025},
        "quadrature": {"n": 2000, "sin_substitution": True},
        "output": {"directory": "poroseis_out", "format": "csv",
                   "emit_green": False},
        "verify": {"s_values_per_s": [20.0, 40.0], "grid_n": 240},
    }


@dataclass(eq=False)
class RunSetup:
    config: dict
    model: HalfspaceModel
    wavelet: SourceWavelet
    gain: float
    receivers: list[Receiver]
    t_end: float
    dt: float
    quad: QuadratureConfig
    out_dir: Path
    out_format: str
    emit_green: bool
    verify_s: list[float]
    verify_n: int


def _section(cfg: dict, name: str, allowed: set[str]) -> dict:
    if name not in cfg:
        raise ConfigError(f"missing section {name!r}")
    sec = cfg[name]
    if not isinstance(sec, dict):
        raise ConfigError(f"section {name!r} must be an object")
    unknown = set(sec) - allowed
    if unknown:
        raise ConfigError(f"unknown keys in {name!r}: {sorted(unknown)}")
    return sec


def _num(sec: dict, section: str, key: str, default=None) -> float:
    if key not in sec:
        if default is not None:
            return default
        raise ConfigError(f"missing key {key!r} in section {section!r}")
    return _finite(sec[key], f"{section}.{key}")


def _finite(val, name: str) -> float:
    """val as a float; anything but a finite JSON number is a ConfigError."""
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        raise ConfigError(f"{name} must be a number, got {val!r}")
    try:
        out = float(val)
    except OverflowError:
        raise ConfigError(f"{name} is too large for a float") from None
    if not math.isfinite(out):
        raise ConfigError(f"{name} must be a finite number, got {out}")
    return out


def _length(val: float, name: str) -> float:
    """val, rejected with a ConfigError above the largest accepted length."""
    if abs(val) > MAX_LENGTH_M:
        raise ConfigError(f"{name} must not exceed {MAX_LENGTH_M:g} m, "
                          f"got {val!r}")
    return val


def load_config(cfg: dict) -> RunSetup:
    """Validate a configuration dictionary and build the run objects."""
    if not isinstance(cfg, dict):
        raise ConfigError("configuration must be a JSON object")
    unknown = set(cfg) - {"acoustic", "poroelastic", "source", "receivers",
                          "time", "quadrature", "output", "verify"}
    if unknown:
        raise ConfigError(f"unknown top-level keys: {sorted(unknown)}")

    ac_sec = _section(cfg, "acoustic", {"rho_kg_m3", "v_m_s"})
    acoustic = AcousticMedium(rho_plus=_num(ac_sec, "acoustic", "rho_kg_m3"),
                              v_plus=_num(ac_sec, "acoustic", "v_m_s"))

    po_sec = _section(cfg, "poroelastic",
                      {"rho_s_kg_m3", "rho_f_kg_m3", "phi", "tortuosity",
                       "k_s_pa", "k_f_pa", "k_b_pa", "mu_pa", "eta_pa_s"})
    eta = _num(po_sec, "poroelastic", "eta_pa_s", default=0.0)
    if eta != 0.0:
        raise ConfigError(
            f"only the inviscid limit is supported: eta_pa_s must be 0, got {eta}")
    params = PoroelasticParams(
        rho_s=_num(po_sec, "poroelastic", "rho_s_kg_m3"),
        rho_f=_num(po_sec, "poroelastic", "rho_f_kg_m3"),
        phi=_num(po_sec, "poroelastic", "phi"),
        a=_num(po_sec, "poroelastic", "tortuosity"),
        k_s=_num(po_sec, "poroelastic", "k_s_pa"),
        k_f=_num(po_sec, "poroelastic", "k_f_pa"),
        k_b=_num(po_sec, "poroelastic", "k_b_pa"),
        mu=_num(po_sec, "poroelastic", "mu_pa"),
    )
    violations = validate(acoustic, params)
    if violations:
        raise ConfigError("; ".join(violations))
    try:
        poro = derive_poroelastic(params)
    except NonPhysical as exc:
        raise ConfigError(str(exc)) from exc

    src_sec = _section(cfg, "source", {"height_m", "f0_hz", "gain"})
    height = _length(_num(src_sec, "source", "height_m"), "source height_m")
    if not height > 0.0:
        raise ConfigError(f"source height_m must be positive, got {height}")
    f0 = _num(src_sec, "source", "f0_hz")
    if not f0 > 0.0:
        raise ConfigError(f"source f0_hz must be positive, got {f0}")
    gain = _num(src_sec, "source", "gain", default=1.0)

    if "receivers" not in cfg or not isinstance(cfg["receivers"], list) \
            or not cfg["receivers"]:
        raise ConfigError("receivers must be a non-empty list of [x, y, z]")
    receivers = []
    for i, entry in enumerate(cfg["receivers"]):
        if not isinstance(entry, list) or len(entry) != 3:
            raise ConfigError(f"receiver {i} must be [x, y, z] in metres")
        x, y, z = (_length(_finite(v, f"receiver {i} coordinate"),
                           f"receiver {i} coordinate") for v in entry)
        _length(math.hypot(x, y), f"receiver {i} offset")
        if abs(z) <= 1e-6:
            raise ConfigError(
                f"receiver {i} sits on the interface (|z| <= 1e-6 m)")
        receivers.append(Receiver(x=x, y=y, z=z))

    tm_sec = _section(cfg, "time", {"t_end_s", "dt_s"})
    t_end = _num(tm_sec, "time", "t_end_s")
    dt = _num(tm_sec, "time", "dt_s")
    if not 0.0 < dt < t_end:
        raise ConfigError(f"need 0 < dt_s < t_end_s, got dt={dt}, t_end={t_end}")
    if dt > 1.0 / (40.0 * f0):
        raise ConfigError(
            f"dt_s={dt} cannot resolve f0_hz={f0}: need dt <= 1/(40*f0) = "
            f"{1.0 / (40.0 * f0)}")

    qd_sec = _section(cfg, "quadrature", {"n", "sin_substitution"})
    n = qd_sec.get("n", 2000)
    if not isinstance(n, int) or n < 4:
        raise ConfigError(f"quadrature.n must be an integer >= 4, got {n!r}")
    sin_sub = qd_sec.get("sin_substitution", True)
    if not isinstance(sin_sub, bool):
        raise ConfigError("quadrature.sin_substitution must be a boolean")

    out_sec = _section(cfg, "output", {"directory", "format", "emit_green"})
    out_format = out_sec.get("format", "csv")
    if out_format not in ("csv", "json"):
        raise ConfigError(f"output.format must be csv or json, got {out_format!r}")
    emit_green = out_sec.get("emit_green", False)
    if not isinstance(emit_green, bool):
        raise ConfigError("output.emit_green must be a boolean")
    directory = out_sec.get("directory", "poroseis_out")
    if not isinstance(directory, str) or not directory:
        raise ConfigError("output.directory must be a non-empty string")

    vf_sec = _section(cfg, "verify", {"s_values_per_s", "grid_n"}) \
        if "verify" in cfg else {}
    s_values = vf_sec.get("s_values_per_s", [])
    if not isinstance(s_values, list):
        raise ConfigError("verify.s_values_per_s must be a list of numbers")
    s_values = [_finite(v, "verify.s_values_per_s entry") for v in s_values]
    s_min = _VERIFY_SPAN / (_VERIFY_MAX_SAMPLES * dt)
    for v in s_values:
        if not v > 0.0:
            raise ConfigError(f"verify.s_values_per_s entries must be "
                              f"positive, got {v!r}")
        if v < s_min:
            raise ConfigError(
                f"verify.s_values_per_s entry {v!r} needs more than "
                f"{_VERIFY_MAX_SAMPLES} samples at dt_s={dt}; the smallest "
                f"accepted s is {s_min!r}")
    verify_n = vf_sec.get("grid_n", 240)
    if not isinstance(verify_n, int) or verify_n < 8:
        raise ConfigError(f"verify.grid_n must be an integer >= 8, got {verify_n!r}")

    model = HalfspaceModel(acoustic=acoustic, poro=poro, source_height=height)
    return RunSetup(
        config=cfg, model=model, wavelet=SourceWavelet(f0=f0), gain=gain,
        receivers=receivers, t_end=t_end, dt=dt,
        quad=QuadratureConfig(n=n, sin_substitution=sin_sub),
        out_dir=Path(directory), out_format=out_format, emit_green=emit_green,
        verify_s=s_values, verify_n=verify_n,
    )


def _load_config_file(path: str) -> RunSetup:
    try:
        with open(path, encoding="utf-8") as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:  # JSONDecodeError, or an integer too long to read
        raise ConfigError(f"{path} is not valid JSON: {exc}") from exc
    return load_config(cfg)


def _media_hash(cfg: dict) -> str:
    payload = json.dumps(
        {k: cfg[k] for k in ("acoustic", "poroelastic", "source") if k in cfg},
        sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()[:12]


def _time_grid(setup: RunSetup) -> np.ndarray:
    count = int(round(setup.t_end / setup.dt)) + 1
    return np.arange(count) * setup.dt


def _warn_short_window(setup: RunSetup) -> None:
    latest = 0.0
    for rec in setup.receivers:
        for arr in branch_arrivals(setup.model, rec).values():
            latest = max(latest, arr.t0)
    if setup.t_end < latest:
        print(f"warning: t_end_s={setup.t_end} ends before the latest "
              f"arrival at {latest:.6f} s", file=sys.stderr)


def _format_row(values) -> str:
    return ",".join(repr(float(v)) for v in values)


def _write_trace(path: Path, setup: RunSetup, seis: Seismogram) -> None:
    header_cols = ["t_s", "p_pa", "u_x_m", "u_y_m", "u_z_m"]
    columns = [seis.t, seis.p, seis.u_x, seis.u_y, seis.u_z]
    if setup.out_format == "json":
        doc = {
            "media_hash": _media_hash(setup.config),
            "config": setup.config,
            "columns": header_cols,
            "data": {name: [float(v) for v in col]
                     for name, col in zip(header_cols, columns)},
        }
        path.write_text(json.dumps(doc, sort_keys=True, indent=1) + "\n",
                        encoding="utf-8")
        return
    lines = [
        f"# media_hash={_media_hash(setup.config)}",
        f"# config={json.dumps(setup.config, sort_keys=True)}",
        "# columns=" + ",".join(header_cols),
    ]
    for row in zip(*columns):
        lines.append(_format_row(row))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _write_green(path: Path, setup: RunSetup, green: GreenTrace) -> None:
    lines = [f"# media_hash={_media_hash(setup.config)}"]
    if green.receiver.z > 0.0:
        inc, refl = green.incident, green.reflected
        lines.append(f"# incident_dirac_time_s={inc.dirac_time!r}")
        lines.append(f"# incident_dirac_amplitude={inc.dirac_amplitude!r}")
        lines.append("# columns=t_s,inc_u_x,inc_u_z,refl_xi,refl_u_x,refl_u_z")
        columns = [green.t, inc.u_x, inc.u_z, refl.xi, refl.u_x, refl.u_z]
    else:
        lines.append("# columns=t_s,pf_u_x,pf_u_z,ps_u_x,ps_u_z,s_u_x,s_u_z")
        columns = [green.t]
        for kind in _TRANSMITTED_ORDER:
            columns.extend([green.transmitted[kind].u_x,
                            green.transmitted[kind].u_z])
    for row in zip(*columns):
        lines.append(_format_row(row))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _compute_receiver(setup: RunSetup, rec: Receiver):
    t = _time_grid(setup)
    green = green_trace(setup.model, rec, t, setup.quad)
    seis = convolve(green, setup.wavelet, setup.dt, gain=setup.gain)
    return green, seis


def run_compute(setup: RunSetup, threads: int = 1, quiet: bool = False) -> int:
    _warn_short_window(setup)
    setup.out_dir.mkdir(parents=True, exist_ok=True)
    results: list = [None] * len(setup.receivers)
    try:
        if threads > 1:
            with concurrent.futures.ThreadPoolExecutor(threads) as pool:
                futures = {pool.submit(_compute_receiver, setup, rec): i
                           for i, rec in enumerate(setup.receivers)}
                for fut in concurrent.futures.as_completed(futures):
                    results[futures[fut]] = fut.result()
        else:
            for i, rec in enumerate(setup.receivers):
                results[i] = _compute_receiver(setup, rec)
    except PoroseisError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3

    ext = setup.out_format
    for i, (green, seis) in enumerate(results, start=1):
        trace_path = setup.out_dir / f"receiver_{i:03d}.{ext}"
        _write_trace(trace_path, setup, seis)
        if setup.emit_green:
            _write_green(setup.out_dir / f"green_{i:03d}.csv", setup, green)
        if not quiet:
            rec = setup.receivers[i - 1]
            print(f"receiver {i} at ({rec.x}, {rec.y}, {rec.z}) m -> "
                  f"{trace_path}", file=sys.stderr)
    return 0


def verify_grid(model: HalfspaceModel, receiver: Receiver, kind: WaveKind,
                s: float, dt: float) -> np.ndarray:
    """Time grid for transform comparison, onset jump centred in a cell.

    The impulse response jumps at the branch arrival; the midpoint-cell
    transform rule integrates a jump exactly to leading order only when it
    sits halfway between samples.  The grid also covers any head-wave onset
    before the jump and runs 34/s past it, so truncation is negligible
    against the 1e-3 gate.
    """
    arr = branch_arrivals(model, receiver)[kind]
    k_back = 0
    if arr.head_exists:
        k_back = int(math.ceil((arr.t0 - arr.t_h1) / dt + 0.5))
    t_start = arr.t0 - (k_back + 0.5) * dt
    n_fwd = int(math.ceil(_VERIFY_SPAN / (s * dt)))
    return t_start + np.arange(k_back + n_fwd + 2) * dt


def run_verify(setup: RunSetup) -> int:
    if not setup.verify_s:
        print("config error: verify.s_values_per_s is empty", file=sys.stderr)
        return 2

    rows = []
    worst = 0.0
    not_converged = False
    for i, rec in enumerate(setup.receivers, start=1):
        for s in setup.verify_s:
            try:
                channels = {}
                if rec.z > 0.0:
                    grid = verify_grid(setup.model, rec, WaveKind.REFLECTED,
                                       s, setup.dt)
                    ch = reflected_trace(setup.model, rec, grid, setup.quad)
                    for name, values in zip(_VERIFY_FLUID,
                                            (ch.xi, ch.u_x, ch.u_z)):
                        channels[name] = (values, grid)
                else:
                    for j, kind in enumerate(_TRANSMITTED_ORDER):
                        grid = verify_grid(setup.model, rec, kind, s, setup.dt)
                        ch = transmitted_trace(setup.model, rec, kind, grid,
                                               setup.quad)
                        channels[_VERIFY_POROUS[2 * j]] = (ch.u_x, grid)
                        channels[_VERIFY_POROUS[2 * j + 1]] = (ch.u_z, grid)
            except PoroseisError as exc:
                print(f"numerical failure: receiver {i}: {exc}",
                      file=sys.stderr)
                return 3
            for name, (values, grid) in channels.items():
                main_val = laplace_of_trace(values, grid, s)
                probe = default_probe(setup.model, rec, s, n=setup.verify_n)
                try:
                    ref_val = laplace_reference(probe, setup.model, name)
                except NotConverged as exc:
                    rows.append((name, i, s, main_val, float("nan"),
                                 float("nan")))
                    print(f"oracle did not converge: {exc}", file=sys.stderr)
                    not_converged = True
                    continue
                rel = abs(main_val - ref_val) / max(abs(ref_val), 1e-300)
                worst = max(worst, rel)
                rows.append((name, i, s, main_val, ref_val, rel))

    print(f"{'channel':>8s} {'receiver':>8s} {'s_per_s':>8s} "
          f"{'trace':>24s} {'oracle':>24s} {'rel_err':>10s}")
    for name, i, s, main_val, ref_val, rel in rows:
        print(f"{name:>8s} {i:>8d} {s:>8g} {main_val:>24.16e} "
              f"{ref_val:>24.16e} {rel:>10.3e}")
    if not_converged:
        return 4
    if worst > 1e-3:
        print(f"verification FAILED: worst relative error {worst:.3e} > 1e-3",
              file=sys.stderr)
        return 1
    print(f"verification passed: worst relative error {worst:.3e}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="poroseis",
        description="Exact seismograms for a fluid layer over a porous half-space")
    sub = parser.add_subparsers(dest="command", required=True)

    p_compute = sub.add_parser("compute", help="compute seismogram traces")
    p_compute.add_argument("--config", required=True, help="JSON configuration")
    p_compute.add_argument("--threads", type=int, default=1,
                           help="receivers computed in parallel")
    p_compute.add_argument("--quiet", action="store_true",
                           help="suppress per-receiver progress lines")

    p_verify = sub.add_parser("verify", help="compare traces to the oracle")
    p_verify.add_argument("--config", required=True, help="JSON configuration")

    sub.add_parser("fixture", help="print the bundled validation configuration")

    args = parser.parse_args(argv)
    if args.command == "fixture":
        print(json.dumps(fixture_config(), indent=2))
        return 0
    try:
        setup = _load_config_file(args.config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    if args.command == "compute":
        return run_compute(setup, threads=args.threads, quiet=args.quiet)
    return run_verify(setup)


if __name__ == "__main__":
    sys.exit(main())
