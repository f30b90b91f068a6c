"""Independent Laplace-domain reference values for the trace channels.

The time-domain engine deforms contours; this module never does.  For a real
Laplace parameter s > 0 each channel has a plain double-integral
representation over the real horizontal slownesses,

    value(s) = (1/4pi^2) * integral over R^2 of
               W(q_x, q_y) * exp(-s * (depth phase + i*q_x*x)) dq_x dq_y,

with every vertical slowness real and positive, so there are no branch or
pole issues on the integration domain.  Exploiting the parities in q_x and
q_y folds this onto [0, Q]^2 with cosine or sine kernels and a purely real
integrand.  Agreement of these values with Laplace transforms of the
time-domain traces is the strongest end-to-end check the package has.

Also here: the brute-force arrival-time oracle used to validate the
stationary-ray solver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cagniard import Geometry, WaveBranch, snell_time
from .coefficients import _assemble_batch, _solve_batch
from .errors import DomainError, NotConverged, RealnessError
from .green import HalfspaceModel, Receiver

# Channels integrable by laplace_reference, keyed by name.  Parity refers to
# the q_x dependence of the spectral density after stripping the i*q_x of
# odd channels: even densities fold onto a cosine kernel, odd ones onto
# q_x * sin.
_EVEN, _ODD = "even", "odd"

_FLUID_CHANNELS = ("xi_ref", "u_ref_x", "u_ref_z", "u_inc_z")
_POROUS_CHANNELS = ("u_pf_x", "u_pf_z", "u_ps_x", "u_ps_z", "u_s_x", "u_s_z")

# Grid solutions keyed on the frozen media values and the grid, so that
# equal media share an entry and no entry outlives what it was computed for.
_SOLVE_CACHE: dict = {}


@dataclass(frozen=True)
class LaplaceProbe:
    """One oracle evaluation point.

    q_width is the half width Q of the folded integration square; the
    integrand must have decayed below 1e-9 of its peak at the far edges,
    which laplace_reference enforces.  n is the one-axis Gauss-Legendre
    order before the convergence doubling.
    """

    s: float          # Laplace parameter, 1/s
    receiver: Receiver
    q_width: float    # s/m
    n: int

    def __post_init__(self):
        if not self.s > 0.0:
            raise ValueError(f"Laplace parameter must be positive, got {self.s}")
        if not self.q_width > 0.0:
            raise ValueError(f"q_width must be positive, got {self.q_width}")
        if self.n < 8:
            raise ValueError(f"grid order too small, got {self.n}")


def default_probe(model: HalfspaceModel, receiver: Receiver, s: float,
                  n: int = 240, channel: str | None = None) -> LaplaceProbe:
    """Probe with a decay-based q_width for the given receiver side."""
    h = model.source_height
    if channel in ("u_inc_z",):
        depth = abs(receiver.z - h)
    elif receiver.z > 0.0:
        depth = receiver.z + h
    else:
        depth = h - receiver.z
    q_width = 46.0 / (s * depth)
    return LaplaceProbe(s=s, receiver=receiver, q_width=q_width, n=n)


def _gauss_nodes(q_width: float, n: int):
    x, w = np.polynomial.legendre.leggauss(n)
    return 0.5 * q_width * (x + 1.0), 0.5 * q_width * w


def _grid_solution(model: HalfspaceModel, q_width: float, n: int):
    """Interface coefficients on the folded tensor grid, cached.

    Returns flattened qx, qy, the four vertical slownesses and the real
    coefficient matrix (m, 4).  Imaginary residues of the solve beyond
    1e-10 of the coefficient scale abort with RealnessError, since real
    slownesses must give real systems.
    """
    key = (model.acoustic, model.poro.params, q_width, n)
    if key in _SOLVE_CACHE:
        return _SOLVE_CACHE[key]
    qx1, wx = _gauss_nodes(q_width, n)
    qy1, wy = _gauss_nodes(q_width, n)
    qx = np.repeat(qx1, n)
    qy = np.tile(qy1, n)
    weight = np.repeat(wx, n) * np.tile(wy, n)

    ac, pd = model.acoustic, model.poro
    qq = qx * qx + qy * qy
    ka = np.sqrt(1.0 / ac.v_plus ** 2 + qq)
    kpf = np.sqrt(1.0 / pd.v_pf ** 2 + qq)
    kps = np.sqrt(1.0 / pd.v_ps ** 2 + qq)
    ks = np.sqrt(1.0 / pd.v_s ** 2 + qq)

    coef = np.empty((qq.size, 4), dtype=complex)
    chunk = 40000
    for start in range(0, qq.size, chunk):
        sl = slice(start, min(start + chunk, qq.size))
        a, b = _assemble_batch(ac, pd, qq[sl], ka[sl], kpf[sl], kps[sl], ks[sl])
        coef[sl] = _solve_batch(a, b, qx[sl], qy[sl])
    scale = float(np.max(np.abs(coef.real)))
    residue = float(np.max(np.abs(coef.imag)))
    if residue > 1e-10 * scale:
        raise RealnessError(
            f"interface coefficients on the real slowness grid carry an "
            f"imaginary residue of {residue:.3e} against scale {scale:.3e}")
    out = (qx, qy, weight, ka, kpf, kps, ks, coef.real)
    if len(_SOLVE_CACHE) > 6:
        _SOLVE_CACHE.pop(next(iter(_SOLVE_CACHE)))
    _SOLVE_CACHE[key] = out
    return out


def _channel_parts(model: HalfspaceModel, receiver: Receiver, channel: str,
                   qx, qy, ka, kpf, kps, ks, coef):
    """Density weight, parity and depth phase of one channel."""
    ac, pd = model.acoustic, model.poro
    h = model.source_height
    z = receiver.z
    if channel in _FLUID_CHANNELS:
        if not z > 0.0:
            raise DomainError(f"channel {channel} needs a fluid-side receiver")
    elif channel in _POROUS_CHANNELS:
        if not z < 0.0:
            raise DomainError(f"channel {channel} needs a porous-side receiver")
    else:
        raise ValueError(f"unknown channel {channel!r}")

    if channel == "u_inc_z":
        dens = np.full_like(ka, math.copysign(1.0, z - h)
                            / (2.0 * ac.rho_plus * ac.v_plus ** 2))
        return dens, _EVEN, abs(z - h) * ka

    refl, t_pf, t_ps, t_s = coef[:, 0], coef[:, 1], coef[:, 2], coef[:, 3]
    p = pd.p_mat
    depth_refl = (z + h) * ka
    depth_pf = h * ka - z * kpf
    depth_ps = h * ka - z * kps
    depth_s = h * ka - z * ks
    table = {
        "xi_ref": (refl, _EVEN, depth_refl),
        "u_ref_x": (refl / ac.rho_plus, _ODD, depth_refl),
        "u_ref_z": (ka * refl / ac.rho_plus, _EVEN, depth_refl),
        "u_pf_x": (-p[0, 0] * t_pf, _ODD, depth_pf),
        "u_pf_z": (p[0, 0] * kpf * t_pf, _EVEN, depth_pf),
        "u_ps_x": (-p[0, 1] * t_ps, _ODD, depth_ps),
        "u_ps_z": (p[0, 1] * kps * t_ps, _EVEN, depth_ps),
        "u_s_x": (-ks * t_s, _ODD, depth_s),
        "u_s_z": ((qx * qx + qy * qy) * t_s, _EVEN, depth_s),
    }
    return table[channel]


def _integrate(model: HalfspaceModel, receiver: Receiver, channel: str,
               s: float, q_width: float, n: int) -> float:
    if channel == "u_inc_z":
        # The direct wave never touches the interface, so skip the system
        # solve; its window is much wider than the coefficient channels can
        # tolerate (the four columns degenerate at slownesses far beyond
        # every branch point).
        qx1, wx = _gauss_nodes(q_width, n)
        qx = np.repeat(qx1, n)
        qy = np.tile(qx1, n)
        weight = np.repeat(wx, n) * np.tile(wx, n)
        ka = np.sqrt(1.0 / model.acoustic.v_plus ** 2 + qx * qx + qy * qy)
        kpf = kps = ks = coef = None
    else:
        qx, qy, weight, ka, kpf, kps, ks, coef = _grid_solution(model,
                                                                q_width, n)
    dens, parity, depth = _channel_parts(model, receiver, channel,
                                         qx, qy, ka, kpf, kps, ks, coef)
    off = math.hypot(receiver.x, receiver.y)
    osc = np.cos(s * qx * off) if parity == _EVEN else qx * np.sin(s * qx * off)
    integrand = dens * np.exp(-s * depth) * osc
    # Envelope of the integrand, free of oscillation zeros, for the decay check.
    env = np.abs(dens) * np.exp(-s * depth)
    if parity == _ODD:
        env = env * np.abs(qx)
    peak = float(np.max(env))
    edge = max(float(np.max(env[qx == qx.max()])),
               float(np.max(env[qy == qy.max()])))
    if peak > 0.0 and edge > 1e-9 * peak:
        raise ValueError(
            f"q_width={q_width} too small: integrand at the far edge is "
            f"{edge / peak:.3e} of its peak")
    return float(np.sum(weight * integrand)) / math.pi ** 2


def laplace_reference(probe: LaplaceProbe, model: HalfspaceModel,
                      channel: str, check_convergence: bool = True) -> float:
    """Oracle value of one channel at one real Laplace parameter.

    With check_convergence the grid order is doubled and the two values must
    agree to 1e-4 relative, otherwise NotConverged; the doubled value is
    returned.
    """
    coarse = _integrate(model, probe.receiver, channel, probe.s,
                        probe.q_width, probe.n)
    if not check_convergence:
        return coarse
    fine = _integrate(model, probe.receiver, channel, probe.s,
                      probe.q_width, 2 * probe.n)
    scale = max(abs(fine), abs(coarse))
    if scale > 0.0 and abs(fine - coarse) > 1e-4 * scale:
        raise NotConverged(
            f"channel {channel} at s={probe.s}: n={probe.n} gives {coarse}, "
            f"doubled gives {fine}")
    return fine


def incident_pressure_transform(model: HalfspaceModel, receiver: Receiver,
                                s: float) -> float:
    """Closed-form Laplace transform of the incident pressure impulse."""
    off = math.hypot(receiver.x, receiver.y)
    r = math.hypot(off, receiver.z - model.source_height)
    v = model.acoustic.v_plus
    return math.exp(-s * r / v) / (4.0 * math.pi * v * v * r)


def laplace_of_trace(values: np.ndarray, t_grid: np.ndarray, s: float) -> float:
    """Midpoint-rule Laplace transform of a sampled channel.

    Requires s * t_end >= 20 so the truncated tail is negligible.
    """
    t = np.asarray(t_grid, dtype=float)
    g = np.asarray(values, dtype=float)
    if s * t[-1] < 20.0:
        raise ValueError(
            f"s*t_end = {s * t[-1]} < 20: truncation would bias the transform")
    mid_t = 0.5 * (t[:-1] + t[1:])
    mid_g = 0.5 * (g[:-1] + g[1:])
    return float(np.sum(mid_g * np.exp(-s * mid_t) * np.diff(t)))


def grid_min_arrival(q: float, geom: Geometry, branch: WaveBranch,
                     n: int = 100001) -> float:
    """Brute-force fictitious arrival: grid scan plus golden-section polish.

    Scans the interface crossing over [0, x] with n uniform samples and
    refines the bracket around the best one to 1e-10 relative width.  Slow
    on purpose; this is the oracle the stationary-ray solver is tested
    against.
    """
    if n < 100000:
        raise ValueError(f"oracle grid must have at least 1e5 points, got {n}")
    if geom.x == 0.0:
        return float(snell_time(0.0, q, geom, branch))
    xi = np.linspace(0.0, geom.x, n)
    t = snell_time(xi, q, geom, branch)
    k = int(np.argmin(t))
    lo = xi[max(k - 1, 0)]
    hi = xi[min(k + 1, n - 1)]

    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc = float(snell_time(c, q, geom, branch))
    fd = float(snell_time(d, q, geom, branch))
    while (b - a) > 1e-10 * max(geom.x, 1e-30):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = float(snell_time(c, q, geom, branch))
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = float(snell_time(d, q, geom, branch))
    return float(snell_time(0.5 * (a + b), q, geom, branch))
