"""Independent Laplace-domain reference values for the trace channels.

The time-domain engine deforms contours; this module never does.  For a real
Laplace parameter s > 0 each channel has a plain double-integral
representation over the real horizontal slownesses,

    value(s) = (1/4pi^2) * integral over R^2 of
               W(q_x, q_y) * exp(-s * (depth phase + i*q_x*x)) dq_x dq_y,

with every vertical slowness real and positive, so there are no branch or
pole issues on the integration domain.  Exploiting the parities in q_x and
q_y folds this onto the quarter disc of radius Q with cosine or sine kernels
and a purely real integrand.  The interface coefficients and depth phases
depend on the slowness only through rho^2 = q_x^2 + q_y^2, so in polar
coordinates (rho, phi) the systems are solved at the radial Gauss-Legendre
nodes only, and the kernel, even about phi = 0 and phi = pi/2, is summed by
the spectrally accurate midpoint rule in phi (Trefethen & Weideman, SIAM
Rev. 2014).  Agreement of these values with Laplace transforms of the
time-domain traces is the strongest end-to-end check the package has.

Also here: the brute-force arrival-time oracle used to validate the
stationary-ray solver, and the bisection that checks the closed-form end of
the head segment.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .cagniard import Geometry, WaveBranch, _p0_vec, snell_time
from .coefficients import _solve_batch, _structural_entries
from .errors import DomainError, NotConverged
from .green import HalfspaceModel, Receiver

# Channels integrable by laplace_reference, keyed by name.  Parity refers to
# the q_x dependence of the spectral density after stripping the i*q_x of
# odd channels: even densities fold onto a cosine kernel, odd ones onto
# q_x * sin.
_EVEN, _ODD = "even", "odd"

_FLUID_CHANNELS = ("xi_ref", "u_ref_x", "u_ref_z", "u_inc_z")
_POROUS_CHANNELS = ("u_pf_x", "u_pf_z", "u_ps_x", "u_ps_z", "u_s_x", "u_s_z")


@functools.lru_cache
def _leggauss(n: int):
    # Cached: leggauss(480) costs tens of ms.  numpy.polynomial is looked up
    # here, not at import, so runs that never call the oracle never load it.
    return np.polynomial.legendre.leggauss(n)


@dataclass(frozen=True)
class LaplaceProbe:
    """One oracle evaluation point.

    q_width is the rim radius Q of the folded quarter disc; the integrand
    must have decayed below 1e-9 of its peak at the rim, which
    laplace_reference enforces.  n is the radial Gauss-Legendre order and
    the angular midpoint order before the convergence doubling.
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
    """Probe with a decay-based q_width for the given receiver side.

    t_v is the vertical one-way time through the slowest wave on the
    receiver's side.  Since sqrt(1/v^2 + rho^2) >= rho, the depth phase of
    every branch then rises by at least 46/s from the axis to the rim.
    """
    h, z = model.source_height, receiver.z
    v_plus = model.acoustic.v_plus
    if channel == "u_inc_z":
        depth = abs(z - h)
        t_v = depth / v_plus
    elif z > 0.0:
        depth = z + h
        t_v = depth / v_plus
    else:
        pd = model.poro
        depth = h - z
        t_v = h / v_plus - z / min(pd.v_pf, pd.v_ps, pd.v_s)
    q_width = (46.0 / s + t_v) / depth
    return LaplaceProbe(s=s, receiver=receiver, q_width=q_width, n=n)


def _gauss_nodes(q_width: float, n: int):
    x, w = _leggauss(n)
    return 0.5 * q_width * (x + 1.0), 0.5 * q_width * w


def _grid_solution(model: HalfspaceModel, q_width: float, n: int):
    """Interface coefficients at the n radial nodes of the quarter disc.

    Returns the radial nodes rho and their Gauss-Legendre weights (without
    the polar Jacobian), the four vertical slownesses and the real
    coefficients (r, t_pf, t_ps, t_s), from one batched LAPACK solve of n
    real systems.
    """
    rho, weight = _gauss_nodes(q_width, n)
    ac, pd = model.acoustic, model.poro
    qq = rho * rho
    ka = np.sqrt(1.0 / ac.v_plus ** 2 + qq)
    kpf = np.sqrt(1.0 / pd.v_pf ** 2 + qq)
    kps = np.sqrt(1.0 / pd.v_ps ** 2 + qq)
    ks = np.sqrt(1.0 / pd.v_s ** 2 + qq)
    coef = _solve_batch(_structural_entries(ac, pd, qq, ka, kpf, kps, ks),
                        rho, 0.0)
    return rho, weight, ka, kpf, kps, ks, coef


def _channel_parts(model: HalfspaceModel, receiver: Receiver, channel: str,
                   rho, ka, kpf, kps, ks, coef):
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

    refl, t_pf, t_ps, t_s = coef
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
        "u_s_z": (rho * rho * t_s, _EVEN, depth_s),
    }
    return table[channel]


def _integrate(model: HalfspaceModel, receiver: Receiver, channel: str,
               s: float, q_width: float, n: int) -> float:
    if channel == "u_inc_z":
        # The direct wave never touches the interface, so skip the system
        # solve; its window is much wider than the coefficient channels can
        # tolerate (the four columns degenerate at slownesses far beyond
        # every branch point).
        rho, weight = _gauss_nodes(q_width, n)
        ka = np.sqrt(1.0 / model.acoustic.v_plus ** 2 + rho * rho)
        kpf = kps = ks = coef = None
    else:
        rho, weight, ka, kpf, kps, ks, coef = _grid_solution(model,
                                                             q_width, n)
    dens, parity, depth = _channel_parts(model, receiver, channel,
                                         rho, ka, kpf, kps, ks, coef)
    radial = dens * np.exp(-s * depth)
    # Envelope of the integrand over phi, free of oscillation zeros, for the
    # decay check at the rim (the last radial node).
    env = np.abs(radial) * (rho if parity == _ODD else 1.0)
    peak = float(np.max(env))
    if peak > 0.0 and env[-1] > 1e-9 * peak:
        raise ValueError(
            f"q_width={q_width} too small: integrand at the rim is "
            f"{env[-1] / peak:.3e} of its peak")
    # Midpoint rule in phi on (0, pi/2); the sum carries its weight pi/(2n).
    # The phase s*q_x*off with q_x = rho*cos(phi) is built in one (n, n)
    # buffer, which cos or sin then overwrites; odd parity sums
    # q_x*sin(phase) as rho times a product with cos(phi).
    cos_phi = np.cos((np.arange(n) + 0.5) * (0.5 * math.pi / n))
    off = math.hypot(receiver.x, receiver.y)
    phase = np.multiply.outer((s * off) * rho, cos_phi)
    if parity == _EVEN:
        angular = np.cos(phase, out=phase).sum(axis=1)
    else:
        angular = rho * (np.sin(phase, out=phase) @ cos_phi)
    angular *= 0.5 * math.pi / n
    total = float(np.sum(weight * rho * radial * angular))
    # Round-off check on the cancellation of the sum.  |cos| <= 1 and
    # |q_x sin(s q_x off)| <= rho min(1, s off rho) bound the sum of |terms|
    # through the radial factors, without a second pass over the kernel.
    size = env if parity == _EVEN else env * np.minimum(1.0, s * off * rho)
    bound = 0.5 * math.pi * float(np.sum(weight * rho * size))
    if np.finfo(float).eps * bound > 1e-6 * abs(total):
        raise NotConverged(
            f"channel {channel} at s={s}: the order-{n} sum is "
            f"{abs(total) / bound:.3e} of the size of its terms, so "
            f"round-off exceeds 1e-6 of the value")
    return total / math.pi ** 2


def laplace_reference(probe: LaplaceProbe, model: HalfspaceModel,
                      channel: str) -> float:
    """Oracle value of one channel at one real Laplace parameter.

    The order is doubled and the two values must agree to 1e-4 relative,
    otherwise NotConverged; the doubled value is returned.  Each sum must
    also keep its round-off below 1e-6 of its value (machine epsilon times
    a bound on the sum of |terms| over |sum|), otherwise NotConverged: a
    sum that cancels down to round-off can pass the doubling check.
    """
    coarse = _integrate(model, probe.receiver, channel, probe.s,
                        probe.q_width, probe.n)
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


def bisect_q_max(geom: Geometry, branch: WaveBranch, v_max: float) -> float:
    """End of the head segment by bisection, without the closed form.

    The time gap t0(q) - t_head(q) only touches zero at q_max (its slope
    vanishes there too, because the stationary ray degenerates into the
    critical one), so this bisects the transversal form of the same
    condition: saddle slowness minus the fastest branch-point slowness,
    positive below q_max and negative above.  The geometry must carry a
    head segment.
    """
    def saddle_excess(q):
        return float(_p0_vec(np.array([q]), geom, branch)[0]) \
            - math.sqrt(1.0 / v_max ** 2 + q * q)

    if not saddle_excess(0.0) > 0.0:
        raise DomainError("geometry carries no head segment")
    lo, hi = 0.0, 1.0 / v_max
    while saddle_excess(hi) > 0.0:
        lo, hi = hi, 2.0 * hi
        if hi > 1e6 / v_max:
            raise DomainError("saddle excess keeps its sign; no head-segment end")
    while True:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            return mid
        if saddle_excess(mid) > 0.0:
            lo = mid
        else:
            hi = mid
