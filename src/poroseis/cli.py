"""Command-line front end: compute traces, verify against the oracle.

Subcommands
-----------
compute --config cfg.json [--quiet]
    Compute seismograms (and optionally raw Green channels) for every
    receiver in the configuration and write one trace file per receiver.

verify --config cfg.json
    Compare Laplace transforms of the computed Green channels against the
    independent frequency-domain oracle and print one row per
    (channel, receiver, s) from ``verify_rows``, which traces each branch
    once per s, at the Gauss nodes of ``oracle.laplace_nodes``.

fixture
    Print the bundled validation configuration (water over a stiff porous
    half-space) to stdout.

Exit codes: 0 success, 1 verification mismatch, 2 configuration error,
3 numerical failure, 4 oracle non-convergence.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .cagniard import MAX_LENGTH_M, WaveKind
from .errors import NonPhysical, NotConverged, PoroseisError
from .green import (CHANNELS, GreenTrace, HalfspaceModel, QuadratureConfig,
                    Receiver, branch_arrivals, green_trace, receiver_branches,
                    reflected_trace, transmitted_trace)
from .media import AcousticMedium, PoroelasticParams, derive_poroelastic, validate
from .oracle import (LAPLACE_SPAN, MAX_GRID_N, default_probe, laplace_nodes,
                     laplace_reference)
from .seismogram import Seismogram, SourceWavelet, convolve


class ConfigError(Exception):
    """Invalid or inconsistent run configuration."""


# glibc mallopt parameters (malloc.h) and the values _keep_freed_memory sets.
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_TRIM_THRESHOLD_BYTES = 64 << 20
_MMAP_THRESHOLD_BYTES = 32 << 20


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
    model = HalfspaceModel(acoustic=acoustic, poro=poro, source_height=height)

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
    s_min = LAPLACE_SPAN * model.v_max / MAX_LENGTH_M
    for v in s_values:
        if not v > 0.0:
            raise ConfigError(f"verify.s_values_per_s entries must be "
                              f"positive, got {v!r}")
        if v < s_min:
            raise ConfigError(
                f"verify.s_values_per_s entry {v!r} lets the transform run "
                f"past {MAX_LENGTH_M:g} m of travel; the smallest accepted "
                f"s is {s_min!r}")
    verify_n = vf_sec.get("grid_n", 240)
    if not isinstance(verify_n, int) or not 8 <= verify_n <= MAX_GRID_N:
        raise ConfigError(f"verify.grid_n must be an integer in "
                          f"[8, {MAX_GRID_N}], got {verify_n!r}")

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


def _write_csv(path: Path, setup: RunSetup, header: list[str],
               names: list[str], columns: list) -> None:
    """The CSV layout of trace and Green files: the media-hash line, the
    header lines, the column names, then one row of repr floats per sample."""
    lines = [f"# media_hash={_media_hash(setup.config)}", *header,
             "# columns=" + ",".join(names)]
    lines.extend(_format_row(row) for row in zip(*columns))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


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
    _write_csv(path, setup,
               [f"# config={json.dumps(setup.config, sort_keys=True)}"],
               header_cols, columns)


def _write_green(path: Path, setup: RunSetup, green: GreenTrace) -> None:
    header, names, columns = [], ["t_s"], [green.t]
    if green.incident is not None:  # fluid side
        inc, refl = green.incident, green.reflected
        header = [f"# incident_dirac_time_s={inc.dirac_time!r}",
                  f"# incident_dirac_amplitude={inc.dirac_amplitude!r}"]
        names += ["inc_u_x", "inc_u_z", "refl_xi", "refl_u_x", "refl_u_z"]
        columns += [inc.u_x, inc.u_z, refl.xi, refl.u_x, refl.u_z]
    for kind, ch in green.transmitted.items():
        tag = kind.value.removeprefix("transmitted_")
        names += [f"{tag}_u_x", f"{tag}_u_z"]
        columns += [ch.u_x, ch.u_z]
    _write_csv(path, setup, header, names, columns)


def _keep_freed_memory() -> None:
    """Keep freed heap memory in the process instead of returning it.

    Each chunk of the time loop allocates and frees its numpy temporaries.
    glibc trims freed memory back to the kernel once more than 128 KiB lie
    free at the top of the heap, and the next chunk faults the same pages
    in again.  A 64 MiB trim threshold keeps them.  Setting it also
    switches off glibc's dynamic mmap threshold, which would leave every
    block of 128 KiB or more to a fresh mmap per call: at n = 2000 the
    reflected branch's channel weights and their product with dgamma/dt
    (192,000 bytes each per chunk), the text of each trace file, and near
    the interface the oracle's (2n, m) angular buffers (up to 31 MiB at
    grid_n 1920).  So the mmap threshold is raised to 32 MiB with it.
    Where the C library has no ``mallopt`` (not glibc) this does nothing.
    It changes no arithmetic.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
        mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
        mallopt.restype = ctypes.c_int
        mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD_BYTES)
        mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD_BYTES)
    except (OSError, AttributeError, TypeError):
        pass


def _name_receiver(exc: PoroseisError, i: int) -> PoroseisError:
    """exc, its type and attributes kept, with ``receiver i: `` in front of
    its message (as green._name_sample names samples)."""
    exc.args = (f"receiver {i}: {exc}",) + exc.args[1:]
    return exc


def run_compute(setup: RunSetup, threads: int = 1, quiet: bool = False) -> int:
    """Compute and write every receiver's traces; return the exit code.

    Receivers are computed one after another, and files are written only
    once every receiver has computed, so a numerical failure leaves no
    trace file; it is printed with its receiver's number (exit 3).  The
    directory is made first; a path that cannot be written is printed
    (exit 2).  ``threads`` is accepted only as 1, for callers that still
    pass it.  The process keeps freed memory from here on
    (``_keep_freed_memory``).
    """
    if threads != 1:
        raise ValueError(f"threads must be 1, got {threads}")
    _keep_freed_memory()
    _warn_short_window(setup)
    t = _time_grid(setup)
    results, path = [], setup.out_dir
    try:
        path.mkdir(parents=True, exist_ok=True)
        for i, rec in enumerate(setup.receivers, start=1):
            green = green_trace(setup.model, rec, t, setup.quad)
            results.append((green, convolve(green, setup.wavelet, setup.dt,
                                            gain=setup.gain)))
        for i, (green, seis) in enumerate(results, start=1):
            path = setup.out_dir / f"receiver_{i:03d}.{setup.out_format}"
            _write_trace(path, setup, seis)
            if not quiet:
                rec = setup.receivers[i - 1]
                print(f"receiver {i} at ({rec.x}, {rec.y}, {rec.z}) m -> "
                      f"{path}", file=sys.stderr)
            if setup.emit_green:
                path = setup.out_dir / f"green_{i:03d}.csv"
                _write_green(path, setup, green)
    except PoroseisError as exc:
        print(f"numerical failure: {_name_receiver(exc, i)}", file=sys.stderr)
        return 3
    except OSError as exc:  # only the directory and file writes raise it
        print(f"file error: cannot write {path}: {exc.strerror or exc}",
              file=sys.stderr)
        return 2
    return 0


def verify_rows(setup: RunSetup) -> tuple[list[tuple], list[NotConverged]]:
    """Rows (channel, receiver number, s, trace transform, oracle value,
    relative error) by receiver, then s as configured, then branch, and the
    errors of the oracle values that did not converge, whose rows hold NaN.

    Each (receiver, s, branch) is traced once, at the nodes of
    ``laplace_nodes``, whose weights give the transform.  A trace failure
    raises its own error with the receiver named in front of its message,
    and no s value ConfigError.
    """
    if not setup.verify_s:
        raise ConfigError("verify.s_values_per_s is empty")
    rows, unconverged = [], []
    for i, rec in enumerate(setup.receivers, start=1):
        for s in setup.verify_s:
            probe = default_probe(setup.model, rec, s, n=setup.verify_n)
            for kind in receiver_branches(setup.model, rec):
                try:
                    t, w = laplace_nodes(setup.model, rec, kind, s)
                    if kind is WaveKind.REFLECTED:
                        ch = reflected_trace(setup.model, rec, t, setup.quad)
                    else:
                        ch = transmitted_trace(setup.model, rec, kind, t,
                                               setup.quad)
                except PoroseisError as exc:
                    raise _name_receiver(exc, i)
                for name, values in zip(CHANNELS[kind], vars(ch).values()):
                    trace_val = float(w @ values)
                    try:
                        ref_val = laplace_reference(probe, setup.model, name)
                    except NotConverged as exc:
                        unconverged.append(exc)
                        ref_val = rel = float("nan")
                    else:
                        rel = abs(trace_val - ref_val) / max(abs(ref_val),
                                                             1e-300)
                    rows.append((name, i, s, trace_val, ref_val, rel))
    return rows, unconverged


def run_verify(setup: RunSetup) -> int:
    """Print ``verify_rows``; return 4 if an oracle did not converge, else 1
    unless every error is at most 1e-3 (NaN is not), 3 if a trace failed
    and 2 if there is no s value.

    The process keeps freed memory from here on (``_keep_freed_memory``).
    """
    _keep_freed_memory()
    try:
        rows, unconverged = verify_rows(setup)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except PoroseisError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    for exc in unconverged:
        print(f"oracle did not converge: {exc}", file=sys.stderr)

    print(f"{'channel':>8s} {'receiver':>8s} {'s_per_s':>8s} "
          f"{'trace':>24s} {'oracle':>24s} {'rel_err':>10s}")
    for name, i, s, main_val, ref_val, rel in rows:
        print(f"{name:>8s} {i:>8d} {s:>8g} {main_val:>24.16e} "
              f"{ref_val:>24.16e} {rel:>10.3e}")
    if unconverged:
        return 4
    worst = float(np.max([row[5] for row in rows]))  # max() drops a NaN
    if not worst <= 1e-3:
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
        return run_compute(setup, quiet=args.quiet)
    return run_verify(setup)


if __name__ == "__main__":
    sys.exit(main())
