"""Impulse-response (Green function) traces for both sides of the interface.

For a compressional point impulse in the fluid the exact response at a
receiver splits into an incident spherical wave (closed form), a reflected
wave in the fluid and three transmitted waves in the porous half-space.  The
reflected and transmitted parts are computed per time sample as integrals
over the transverse slowness q of interface-coefficient weights evaluated
along the deformed contours of :mod:`poroseis.cagniard`:

    channel(t) = (1/pi^2) * [ integral over the volume window of
                                Re[W(gamma) * dgamma/dt] dq
                            + integral over the head window of
                                Re[W(upsilon) * dupsilon/dt] dq ]

The window bounds at each t follow from the arrival-time structure.  All
samples of a trace are classified and their windows inverted at once; each
window's quadrature nodes are then evaluated together in one pass.  The
fluid-side pressure is carried by its first time integral xi (the natural
primitive produced by the contour construction); its displacements and the
porous-side displacements are ordinary Green functions ready for wavelet
convolution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import cagniard
from .branch_math import kappa, kappa_below_cut
from .cagniard import (ArrivalTimes, Geometry, WaveBranch, WaveKind,
                       arrival_times, reflected_branch, transmitted_branches)
from .coefficients import _solve_structured, _structural_entries
from .errors import DomainError, NonFiniteIntegrand, PoroseisError
from .media import AcousticMedium, PoroelasticDerived

# Samples closer to a regime edge than this fraction of t are nudged off it.
_EDGE_BAND = 1e-12

_QUIET, _HEAD, _MIXED, _VOLUME = range(4)
_REGIME_NAMES = ("quiet", "head", "mixed", "volume")


@dataclass(frozen=True)
class Receiver:
    x: float  # m
    y: float  # m
    z: float  # m, positive in the fluid, negative in the porous side


@dataclass(frozen=True)
class QuadratureConfig:
    """Midpoint quadrature with optional endpoint regularization.

    With sin_substitution enabled, windows whose integrand blows up like an
    inverse square root at one endpoint are transformed to a regular
    integrand first (q = b*sin(theta) at an upper endpoint, q =
    sqrt(a^2 + u^2) at a lower one).  Disabling it applies the plain
    midpoint rule everywhere, which converges only like 1/sqrt(n) on those
    windows; it is kept for comparison runs.
    """

    n: int = 2000
    sin_substitution: bool = True


@dataclass(frozen=True, eq=False)
class HalfspaceModel:
    """The full configuration: both media and the source height."""

    acoustic: AcousticMedium
    poro: PoroelasticDerived
    source_height: float  # m above the interface, > 0

    @property
    def v_max(self) -> float:
        return max(self.acoustic.v_plus, self.poro.v_pf,
                   self.poro.v_ps, self.poro.v_s)


@dataclass(eq=False)
class IncidentChannels:
    """Closed-form incident wave.

    The pressure impulse is kept symbolic as (time, amplitude) of a Dirac
    pulse; convolution turns it into amplitude * wavelet(t - time).
    """

    dirac_time: float       # s
    dirac_amplitude: float  # 1 / (4*pi*V+^2*r), s^2/m^3
    u_x: np.ndarray         # horizontal displacement Green function
    u_z: np.ndarray


@dataclass(eq=False)
class ReflectedChannels:
    xi: np.ndarray   # first time integral of the reflected pressure
    u_x: np.ndarray
    u_z: np.ndarray


@dataclass(eq=False)
class TransmittedChannels:
    u_x: np.ndarray
    u_z: np.ndarray


@dataclass(eq=False)
class GreenTrace:
    t: np.ndarray
    receiver: Receiver
    incident: IncidentChannels | None
    reflected: ReflectedChannels | None
    transmitted: dict[WaveKind, TransmittedChannels]


def quadrature(integrand, a: float, b: float, cfg: QuadratureConfig,
               endpoint: str = "regular"):
    """Integrate integrand over (a, b) with the midpoint rule.

    endpoint marks a known inverse-square-root singularity at one end:
    "upper_sqrt" for 1/sqrt(b^2 - q^2) behaviour, "lower_sqrt" for
    1/sqrt(q^2 - a^2), "regular" otherwise.  In sin-substitution mode the
    marked windows are transformed before applying the midpoint rule.  The
    integrand may return one value per node or a row of channel values.
    """
    if not b > a:
        return 0.0
    n = cfg.n
    if cfg.sin_substitution and endpoint == "upper_sqrt":
        th_lo = math.asin(min(max(a / b, 0.0), 1.0))
        h = (0.5 * math.pi - th_lo) / n
        theta = th_lo + (np.arange(n) + 0.5) * h
        nodes = b * np.sin(theta)
        weights = b * np.cos(theta) * h
    elif cfg.sin_substitution and endpoint == "lower_sqrt":
        u_hi = math.sqrt(b * b - a * a)
        h = u_hi / n
        u = (np.arange(n) + 0.5) * h
        nodes = np.sqrt(a * a + u * u)
        weights = (u / nodes) * h
    else:
        h = (b - a) / n
        nodes = a + (np.arange(n) + 0.5) * h
        weights = np.full(n, h)

    values = np.asarray(integrand(nodes))
    if not np.all(np.isfinite(values)):
        if values.ndim == 1:
            i = int(np.argmax(~np.isfinite(values)))
            bad_val = values[i]
        else:
            i = int(np.argmax(~np.all(np.isfinite(values), axis=tuple(
                range(1, values.ndim)))))
            bad_val = values[i]
        raise NonFiniteIntegrand(float(nodes[i]), bad_val)
    if values.ndim == 1:
        return float(np.sum(weights * values))
    return np.tensordot(weights, values, axes=(0, 0))


def _channel_weights(branch: WaveBranch, model: HalfspaceModel, i_gam, qq,
                     k_plus, k_pf, k_ps, k_s, coef):
    """Per-channel contour weights W for one branch.

    i_gam is i*gamma (real on head segments), qq is gamma^2 + q^2 and coef
    the interface coefficients (r, t_pf, t_ps, t_s).  The returned columns
    follow the channel order of the trace dataclasses.
    """
    if branch.kind is WaveKind.REFLECTED:
        refl = coef[0]
        rho = model.acoustic.rho_plus
        return np.stack([refl, i_gam * refl / rho, k_plus * refl / rho], axis=1)
    p = model.poro.p_mat
    if branch.kind is WaveKind.TRANSMITTED_PF:
        amp = p[0, 0] * coef[1]
        return np.stack([-i_gam * amp, k_pf * amp], axis=1)
    if branch.kind is WaveKind.TRANSMITTED_PS:
        amp = p[0, 1] * coef[2]
        return np.stack([-i_gam * amp, k_ps * amp], axis=1)
    amp = coef[3]
    return np.stack([-i_gam * k_s * amp, qq * amp], axis=1)


def _volume_values(model: HalfspaceModel, geom: Geometry, branch: WaveBranch,
                   t: float, q, xi0=None):
    """Volume integrand Re[W(gamma) * dgamma/dt], one channel row per node.

    xi0 as in cagniard._gamma_vec.  The contour solve hands over the
    vertical slownesses of the fluid and of the branch's own wave, so only
    the other porous ones are computed here.
    """
    ac, pd = model.acoustic, model.poro
    gam, dgdt, _, k_plus, k_own = cagniard._gamma_vec(t, q, geom, branch, xi0)
    # Matching on the speed also reuses k_own where two speeds coincide,
    # since the slownesses then coincide as well.
    k_pf, k_ps, k_s = (k_own if v == branch.v_bottom else kappa(v, gam, q)
                       for v in (pd.v_pf, pd.v_ps, pd.v_s))
    qq = gam * gam + q * q
    coef = _solve_structured(
        _structural_entries(ac, pd, qq, k_plus, k_pf, k_ps, k_s), gam, q)
    w = _channel_weights(branch, model, 1j * gam, qq,
                         k_plus, k_pf, k_ps, k_s, coef)
    return (w * dgdt[:, None]).real


def _head_values(model: HalfspaceModel, geom: Geometry, branch: WaveBranch,
                 t: float, q, xi0=None):
    """Head integrand Re[W(upsilon) * dupsilon/dt], one channel row per node."""
    ac, pd = model.acoustic, model.poro
    ups, dups, _ = cagniard._upsilon_vec(t, q, geom, branch, model.v_max, xi0)
    zeta = -ups.imag
    k_plus = kappa_below_cut(ac.v_plus, zeta, q)
    k_pf = kappa_below_cut(pd.v_pf, zeta, q)
    k_ps = kappa_below_cut(pd.v_ps, zeta, q)
    k_s = kappa_below_cut(pd.v_s, zeta, q)
    qq = q * q - zeta * zeta
    coef = _solve_structured(
        _structural_entries(ac, pd, qq, k_plus, k_pf, k_ps, k_s), ups, q)
    w = _channel_weights(branch, model, zeta + 0j, qq + 0j,
                         k_plus, k_pf, k_ps, k_s, coef)
    return (w * dups[:, None]).real


def _classify(t: np.ndarray, arr: ArrivalTimes) -> tuple[np.ndarray, np.ndarray]:
    """Regime of every sample, nudging samples off window edges.

    Returns the regime codes (_QUIET, _HEAD, _MIXED, _VOLUME) and the
    (possibly nudged) evaluation times.
    """
    band = _EDGE_BAND * np.abs(t)
    if not arr.head_exists:
        return np.where(t <= arr.t0 + band, _QUIET, _VOLUME), t.copy()
    edges = [t <= arr.t_h1 + band, t <= arr.t0 - band, t <= arr.t0 + band,
             t <= arr.t_h2 - band, t <= arr.t_h2 + band]
    regime = np.select(edges, [_QUIET, _HEAD, _HEAD, _MIXED, _MIXED], _VOLUME)
    t_use = np.select(edges, [t, t, arr.t0 - 2.0 * band, t,
                              arr.t_h2 - 2.0 * band], t)
    return regime, t_use


def _windows(t_use, arr: ArrivalTimes, geom: Geometry, branch: WaveBranch,
             v_max: float):
    """Quadrature windows of every live sample, grouped by rule.

    Returns (integrand, endpoint, rows, a, b) tuples: integrand is
    _volume_values or _head_values, rows the sample indices, (a, b) the
    window bounds.  Volume windows come first, so each sample adds its
    volume part before its head part.  Head windows past the volume arrival
    (mixed samples) start at the volume bound q0 and take the lower_sqrt
    rule.
    """
    lo, q0, keep = cagniard._volume_window_vec(t_use, arr, geom, branch)
    rows = np.flatnonzero(keep)
    groups = [(_volume_values, "upper_sqrt", rows, lo[rows], q0[rows])]
    lo, hi, keep = cagniard._head_window_vec(t_use, arr, geom, branch, v_max,
                                             q0)
    for endpoint, part in (("regular", t_use <= arr.t0),
                           ("lower_sqrt", t_use > arr.t0)):
        rows = np.flatnonzero(keep & part)
        groups.append((_head_values, endpoint, rows, lo[rows], hi[rows]))
    return [g for g in groups if g[2].size]


def _contour_trace(model: HalfspaceModel, geom: Geometry, branch: WaveBranch,
                   t_grid: np.ndarray, cfg: QuadratureConfig,
                   n_channels: int) -> np.ndarray:
    """Shared time loop of the reflected and transmitted traces.

    The windows of all samples are found at once; each window's nodes are
    then evaluated in one pass.  Transmitted branches solve the stationary
    crossing once per node, warm-started from the previous window's
    crossings at the same mapped nodes.  A failure names the sample it
    happened at, its regime and the branch.
    """
    arr = arrival_times(geom, branch, model.v_max)
    regime, t_use = _classify(t_grid, arr)
    out = np.zeros((t_grid.size, n_channels))
    try:
        windows = _windows(t_use, arr, geom, branch, model.v_max)
    except PoroseisError as exc:
        hit = np.flatnonzero(t_use == getattr(exc, "t", None))
        if hit.size:
            raise _name_sample(exc, hit[0], t_grid, regime, branch)
        raise
    transmitted = branch.kind is not WaveKind.REFLECTED
    for integrand, endpoint, rows, a, b in windows:
        xi_prev = None
        for i, lo, hi in zip(rows, a, b):
            def values(q, t=t_use[i]):
                nonlocal xi_prev
                if not transmitted:
                    return integrand(model, geom, branch, t, q)
                xi_prev = cagniard._xi_zero(q, geom, branch, xi_prev)
                return integrand(model, geom, branch, t, q, xi_prev)

            try:
                out[i] += quadrature(values, lo, hi, cfg, endpoint)
            except Exception as exc:
                raise _name_sample(exc, i, t_grid, regime, branch)
    out /= math.pi ** 2
    if not np.all(np.isfinite(out)):
        i = int(np.argmax(~np.all(np.isfinite(out), axis=1)))
        raise NonFiniteIntegrand(float(t_grid[i]), out[i])
    return out


def _name_sample(exc: Exception, i, t_grid, regime,
                 branch: WaveBranch) -> Exception:
    """exc with the t, regime and branch of sample i appended."""
    exc.args = (f"{exc} [t={float(t_grid[i])}, "
                f"regime={_REGIME_NAMES[regime[i]]}, "
                f"branch={branch.kind.value}]",) + exc.args[1:]
    return exc


def _geometry_for(model: HalfspaceModel, receiver: Receiver) -> Geometry:
    return Geometry(h=model.source_height,
                    x=math.hypot(receiver.x, receiver.y),
                    z=receiver.z)


def incident_trace(model: HalfspaceModel, receiver: Receiver,
                   t_grid: np.ndarray) -> IncidentChannels:
    """Closed-form incident wave at a fluid-side receiver.

    The pressure is a Dirac pulse delta(t - r/V+) / (4*pi*V+^2*r), reported
    symbolically.  The displacement Green functions are linear ramps behind
    the front, obtained by integrating the momentum balance twice in time.
    """
    if not receiver.z > 0.0:
        raise DomainError(
            f"incident wave lives in the fluid; receiver z={receiver.z}")
    ac = model.acoustic
    off = math.hypot(receiver.x, receiver.y)
    dz = receiver.z - model.source_height
    r = math.hypot(off, dz)
    t0 = r / ac.v_plus
    amp = 1.0 / (4.0 * math.pi * ac.v_plus ** 2 * r)
    t = np.asarray(t_grid, dtype=float)
    ramp = np.where(t > t0, t, 0.0) \
        / (4.0 * math.pi * ac.v_plus ** 2 * r ** 3 * ac.rho_plus)
    return IncidentChannels(dirac_time=t0, dirac_amplitude=amp,
                            u_x=off * ramp, u_z=dz * ramp)


def reflected_trace(model: HalfspaceModel, receiver: Receiver,
                    t_grid: np.ndarray, cfg: QuadratureConfig) -> ReflectedChannels:
    """Reflected-wave channels at a fluid-side receiver."""
    if not receiver.z > 0.0:
        raise DomainError(
            f"reflected wave lives in the fluid; receiver z={receiver.z}")
    geom = _geometry_for(model, receiver)
    branch = reflected_branch(model.acoustic)
    vals = _contour_trace(model, geom, branch, np.asarray(t_grid, float),
                          cfg, 3)
    return ReflectedChannels(xi=vals[:, 0], u_x=vals[:, 1], u_z=vals[:, 2])


def transmitted_trace(model: HalfspaceModel, receiver: Receiver, kind: WaveKind,
                      t_grid: np.ndarray, cfg: QuadratureConfig) -> TransmittedChannels:
    """One transmitted-wave branch at a porous-side receiver."""
    if not receiver.z < 0.0:
        raise DomainError(
            f"transmitted waves live in the porous side; receiver z={receiver.z}")
    geom = _geometry_for(model, receiver)
    branch = transmitted_branches(model.acoustic, model.poro)[kind]
    vals = _contour_trace(model, geom, branch, np.asarray(t_grid, float),
                          cfg, 2)
    return TransmittedChannels(u_x=vals[:, 0], u_z=vals[:, 1])


def green_trace(model: HalfspaceModel, receiver: Receiver, t_grid: np.ndarray,
                cfg: QuadratureConfig) -> GreenTrace:
    """All impulse-response channels present at one receiver."""
    t_grid = np.asarray(t_grid, dtype=float)
    if receiver.z == 0.0:
        raise DomainError("receiver must not sit exactly on the interface")
    if receiver.z > 0.0:
        return GreenTrace(
            t=t_grid, receiver=receiver,
            incident=incident_trace(model, receiver, t_grid),
            reflected=reflected_trace(model, receiver, t_grid, cfg),
            transmitted={},
        )
    transmitted = {
        kind: transmitted_trace(model, receiver, kind, t_grid, cfg)
        for kind in (WaveKind.TRANSMITTED_PF, WaveKind.TRANSMITTED_PS,
                     WaveKind.TRANSMITTED_S)
    }
    return GreenTrace(t=t_grid, receiver=receiver, incident=None,
                      reflected=None, transmitted=transmitted)


def branch_arrivals(model: HalfspaceModel,
                    receiver: Receiver) -> dict[WaveKind, ArrivalTimes]:
    """Arrival-time structures of every branch present at a receiver."""
    geom = _geometry_for(model, receiver)
    if receiver.z > 0.0:
        branch = reflected_branch(model.acoustic)
        return {WaveKind.REFLECTED: arrival_times(geom, branch, model.v_max)}
    return {
        kind: arrival_times(geom, branch, model.v_max)
        for kind, branch in transmitted_branches(model.acoustic,
                                                 model.poro).items()
    }


def rotate_to_3d(u_x: np.ndarray, u_z: np.ndarray, x: float, y: float):
    """Spread the in-plane horizontal component onto the x and y axes.

    Traces are computed in the vertical plane through source and receiver at
    offset rho = hypot(x, y); by axial symmetry the horizontal displacement
    points along the offset direction, so the 3-D components are just
    direction cosines times the in-plane component.  The vertical component
    and the pressure are unchanged.  At zero offset the in-plane component
    vanishes identically and the direction is immaterial.
    """
    rho = math.hypot(x, y)
    u_x = np.asarray(u_x, dtype=float)
    if rho == 0.0:
        zero = np.zeros_like(u_x)
        return zero, zero.copy(), np.asarray(u_z, dtype=float)
    return (x / rho) * u_x, (y / rho) * u_x, np.asarray(u_z, dtype=float)
