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

Each sample's regime (cagniard._classify) decides its windows: a quiet
sample, one within 1e-12 * t of the onset included, is exactly 0; a head
sample integrates the head window (0, q1); a volume sample the volume
window (0, q0); a mixed sample both, the head window shrunk to (q0, q1).
Every live sample is evaluated at its own time, also next to t0 and t_h2,
and every head window takes one rule.  All samples of a trace are
classified and their windows inverted at once.  The nodes of consecutive
windows of one rule are then evaluated in chunks of about _CHUNK_NODES,
one contour, interface and gate pass per chunk with one time per node.
No state passes between nodes, so each sample's value depends on its own
time alone, and a chunk gives the same bits as its windows taken one at a
time.  The fluid-side pressure is carried by its first time integral xi
(the natural primitive produced by the contour construction); its
displacements and the porous-side displacements are ordinary Green
functions ready for wavelet convolution.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import cagniard
from .branch_math import branch_sqrt, kappa_below_cut
from .cagniard import (ArrivalTimes, Geometry, WaveBranch, WaveKind,
                       arrival_times, reflected_branch, transmitted_branches)
from .coefficients import _solve_structured, _structural_entries
from .errors import DomainError, NonFiniteIntegrand, PoroseisError
from .media import AcousticMedium, PoroelasticDerived

# Node budget of one chunk of windows in the time loop (at least one
# window): one contour, interface and gate pass per chunk.  Chosen from a
# measured sweep of run time against peak memory (CHANGES.md).
_CHUNK_NODES = 4096

# Oracle channel names of each wave's trace columns, in dataclass field order.
CHANNELS = {WaveKind.REFLECTED: ("xi_ref", "u_ref_x", "u_ref_z"),
            WaveKind.TRANSMITTED_PF: ("u_pf_x", "u_pf_z"),
            WaveKind.TRANSMITTED_PS: ("u_ps_x", "u_ps_z"),
            WaveKind.TRANSMITTED_S: ("u_s_x", "u_s_z")}


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
    def speeds(self) -> tuple[float, float, float, float]:
        """(v_plus, v_pf, v_ps, v_s): the order in which
        coefficients._structural_entries takes the vertical slownesses."""
        return (self.acoustic.v_plus, self.poro.v_pf, self.poro.v_ps,
                self.poro.v_s)

    @property
    def v_max(self) -> float:
        return max(self.speeds)


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
    "upper_sqrt" for 1/sqrt(b^2 - q^2) behaviour on a window (0, b),
    "lower_sqrt" for 1/sqrt(q^2 - a^2), "regular" otherwise.  In
    sin-substitution mode the marked windows are transformed before
    applying the midpoint rule.  The integrand may return one value per
    node or a row of channel values.  The time loop integrates chunks of
    windows with the same nodes, weights and sums (_window_rule,
    _window_sums).
    """
    if endpoint == "upper_sqrt" and a != 0.0:
        raise ValueError(f"an upper_sqrt window starts at q = 0, got a = {a!r}")
    if not b > a:
        return 0.0
    nodes, weights = _window_rule(np.array([a], dtype=float),
                                  np.array([b], dtype=float), cfg, endpoint)
    values = np.asarray(integrand(nodes[0]))
    k = _non_finite_node(values)
    if k is not None:
        raise NonFiniteIntegrand(float(nodes[0, k]), values[k])
    sums = _window_sums(weights, values)[0]
    return float(sums[0]) if values.ndim == 1 else sums


def _window_rule(a, b, cfg: QuadratureConfig, endpoint: str):
    """Nodes and weights of the windows (a[j], b[j]), one row per window.

    The rule of quadrature(), taken for many windows at once; every row
    depends on its own bounds alone.  upper_sqrt windows start at a = 0.
    """
    a, b = a[:, None], b[:, None]
    if cfg.sin_substitution and endpoint == "upper_sqrt":
        sin, cos, h = _theta_grid(cfg.n)
        return b * sin, b * cos * h
    mid = np.arange(cfg.n) + 0.5
    if cfg.sin_substitution and endpoint == "lower_sqrt":
        h = np.sqrt(b * b - a * a) / cfg.n
        u = mid * h
        nodes = np.sqrt(a * a + u * u)
        return nodes, (u / nodes) * h
    h = (b - a) / cfg.n
    return a + mid * h, np.repeat(h, cfg.n, axis=1)


@functools.lru_cache
def _theta_grid(n: int):
    """Midpoints theta_j = (j + 1/2) h of (0, pi/2), with h = pi/(2n).

    Returns sin and cos of theta, read-only, and h: the upper_sqrt rule of
    every window (0, b) scales them by b.
    """
    h = 0.5 * math.pi / n
    theta = (np.arange(n) + 0.5) * h
    sin, cos = np.sin(theta), np.cos(theta)
    sin.flags.writeable = cos.flags.writeable = False
    return sin, cos, h


def _non_finite_node(values):
    """Index of the first node whose value or channel row is not finite,
    or None."""
    if np.all(np.isfinite(values)):
        return None
    finite = np.isfinite(values.reshape(values.shape[0], -1))
    return int(np.argmax(~np.all(finite, axis=1)))


def _window_sums(weights, values):
    """Weighted node sums of each window: one channel row per window.

    weights holds one row of n per window and values one value or channel
    row per node, window after window.  One batched product contracts each
    window's n nodes, in the same order whatever the number of windows.
    """
    windows, n = weights.shape
    return np.matmul(weights[:, None, :],
                     values.reshape(windows, n, -1))[:, 0]


def _channel_weights(branch: WaveBranch, model: HalfspaceModel, point, qq,
                     kappas, coef):
    """Per-channel contour weights W for one branch.

    point is the contour point gamma, qq is gamma^2 + q^2, kappas the
    vertical slownesses (k_plus, k_pf, k_ps, k_s) at it and coef the
    interface coefficients (r, t_pf, t_ps, t_s).  The returned columns
    follow the channel order of the trace dataclasses.
    """
    i_gam = 1j * point
    k_plus, k_pf, k_ps, k_s = kappas
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


def _contour_values(model: HalfspaceModel, branch: WaveBranch, point, dpdt,
                    q, kappas):
    """Contour integrand Re[W(point) * dpoint/dt], one channel row per node.

    The one integrand of both contour pieces: point is a volume or head
    point at the nodes q, dpdt its time derivative and kappas the vertical
    slownesses (k_plus, k_pf, k_ps, k_s) on the rim that piece lies on.
    """
    qq = point * point + q * q
    coef = _solve_structured(
        _structural_entries(model.acoustic, model.poro, qq, *kappas), point, q)
    w = _channel_weights(branch, model, point, qq, kappas, coef)
    return (w * dpdt[:, None]).real


def _volume_values(model: HalfspaceModel, geom: Geometry, branch: WaveBranch,
                   t: float, q):
    """Volume integrand Re[W(gamma) * dgamma/dt], one channel row per node.

    The contour solve hands over the vertical slownesses of the fluid and
    of the branch's own wave, so only the other porous ones are computed
    here, from gamma^2 taken once: the argument (1/v^2 + gamma^2) + q^2 is
    summed as in branch_math.kappa, so the values are the same to the bit.
    """
    gam, dgdt, k_plus, k_own = cagniard._gamma_vec(t, q, geom, branch)
    gam_sq, q_sq = gam * gam, q * q
    # Matching on the speed also reuses k_own where two speeds coincide,
    # since the slownesses then coincide as well.
    k_porous = tuple(
        k_own if v == branch.v_bottom
        else branch_sqrt((1.0 / (v * v) + gam_sq) + q_sq)
        for v in model.speeds[1:])
    return _contour_values(model, branch, gam, dgdt, q, (k_plus, *k_porous))


def _head_values(model: HalfspaceModel, geom: Geometry, branch: WaveBranch,
                 t: float, q):
    """Head integrand Re[W(upsilon) * dupsilon/dt], one channel row per node.

    Every vertical slowness takes the rim below the cuts the head segment
    lies on (branch_math.kappa_below_cut).
    """
    ups, dups, _, _ = cagniard._upsilon_vec(t, q, geom, branch)
    zeta = -ups.imag
    kappas = tuple(kappa_below_cut(v, zeta, q) for v in model.speeds)
    return _contour_values(model, branch, ups, dups, q, kappas)


def _windows(t, regime, geom: Geometry, branch: WaveBranch, v_max: float):
    """Quadrature windows of every live sample, grouped by rule.

    Returns (integrand, endpoint, rows, a, b) tuples: integrand is
    _volume_values or _head_values, rows the sample indices, (a, b) the
    window bounds.  The regime codes alone pick the windows, as
    cagniard._classify states.  Volume windows take the upper_sqrt rule and
    head windows lower_sqrt: with a = 0 that rule gives the nodes and
    weights of the plain midpoint rule bit for bit, since sqrt(u*u) = u in
    binary64.  Volume windows come first, so each sample adds its volume
    part before its head part.  An empty window (b <= a) integrates to 0.
    """
    vol = np.flatnonzero(regime >= cagniard._MIXED)  # mixed or volume
    lo = np.zeros(t.size)
    if vol.size:
        lo[vol] = cagniard._q0_vec(t[vol], geom, branch)
    head = np.flatnonzero(np.isin(regime, (cagniard._HEAD, cagniard._MIXED)))
    groups = [(_volume_values, "upper_sqrt", vol, np.zeros(vol.size), lo[vol])]
    if head.size:
        groups.append((_head_values, "lower_sqrt", head, lo[head],
                       cagniard.q1_of_t(t[head], geom, branch, v_max)))
    return [g for g in groups if g[2].size]


def _contour_trace(model: HalfspaceModel, geom: Geometry, branch: WaveBranch,
                   t_grid: np.ndarray, cfg: QuadratureConfig) -> np.ndarray:
    """Shared time loop of every wave's trace: one column per CHANNELS entry.

    cagniard._classify's regime is the one decision per sample: quiet
    samples, those within the onset band included, stay exactly 0, and the
    others integrate, at their own time, the windows _windows gives their
    regime.
    The windows of all samples are found at once, in two groups: volume
    and head.  Consecutive non-empty windows of one group are then joined
    into chunks of at most _CHUNK_NODES nodes (at least one window), and
    each chunk takes one contour solve, one interface solve, one gate check
    and one weighted sum, with one t per node.  No state passes between
    nodes, so a chunk gives its windows' values bit for bit as quadrature()
    does window by window.  A failure names the
    sample it happened at, its regime and the branch: a non-finite node k
    of a chunk belongs to its window k // n, and an exception raised
    inside a chunk's solves is raised again from its own window, the
    chunk's windows taken one at a time.
    """
    arr = arrival_times(geom, branch, model.v_max)
    regime = cagniard._classify(t_grid, arr)
    out = np.zeros((t_grid.size, len(CHANNELS[branch.kind])))
    try:
        windows = _windows(t_grid, regime, geom, branch, model.v_max)
    except PoroseisError as exc:
        hit = np.flatnonzero(t_grid == getattr(exc, "t", None))
        if hit.size:
            raise _name_sample(exc, hit[0], t_grid, regime, branch)
        raise
    n = cfg.n
    per_chunk = max(1, _CHUNK_NODES // n)
    for integrand, endpoint, rows, a, b in windows:
        live = b > a  # an empty window integrates to 0
        rows, a, b = rows[live], a[live], b[live]
        for start in range(0, rows.size, per_chunk):
            part = slice(start, start + per_chunk)
            nodes, weights = _window_rule(a[part], b[part], cfg, endpoint)
            t_nodes = np.repeat(t_grid[rows[part]], n).reshape(nodes.shape)
            try:
                values = integrand(model, geom, branch, t_nodes.ravel(),
                                   nodes.ravel())
            except Exception:
                # Failure path: the same error from its own window.
                for i, t_w, q_w in zip(rows[part], t_nodes, nodes):
                    try:
                        integrand(model, geom, branch, t_w, q_w)
                    except Exception as exc:
                        raise _name_sample(exc, i, t_grid, regime, branch)
                raise
            k = _non_finite_node(values)
            if k is not None:
                raise _name_sample(
                    NonFiniteIntegrand(float(nodes.flat[k]), values[k]),
                    rows[part][k // n], t_grid, regime, branch)
            out[rows[part]] += _window_sums(weights, values)
    out /= math.pi ** 2
    if not np.all(np.isfinite(out)):
        i = int(np.argmax(~np.all(np.isfinite(out), axis=1)))
        raise NonFiniteIntegrand(float(t_grid[i]), out[i])
    return out


def _name_sample(exc: Exception, i, t_grid, regime,
                 branch: WaveBranch) -> Exception:
    """exc with the t, regime and branch of sample i appended."""
    exc.args = (f"{exc} [t={float(t_grid[i])}, "
                f"regime={cagniard._REGIME_NAMES[regime[i]]}, "
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


def _wave_columns(model: HalfspaceModel, receiver: Receiver, kind: WaveKind,
                  t_grid, cfg: QuadratureConfig) -> np.ndarray:
    """The CHANNELS[kind] columns of one wave at a receiver, one row each;
    DomainError where receiver_branches does not list the wave."""
    branch = receiver_branches(model, receiver).get(kind)
    if branch is None:
        raise DomainError(f"no {kind.value} wave at receiver z={receiver.z}")
    return _contour_trace(model, _geometry_for(model, receiver), branch,
                          np.asarray(t_grid, float), cfg).T


def reflected_trace(model: HalfspaceModel, receiver: Receiver,
                    t_grid: np.ndarray, cfg: QuadratureConfig) -> ReflectedChannels:
    """Reflected-wave channels at a fluid-side receiver."""
    return ReflectedChannels(*_wave_columns(model, receiver, WaveKind.REFLECTED,
                                            t_grid, cfg))


def transmitted_trace(model: HalfspaceModel, receiver: Receiver, kind: WaveKind,
                      t_grid: np.ndarray, cfg: QuadratureConfig) -> TransmittedChannels:
    """One transmitted-wave branch at a porous-side receiver."""
    return TransmittedChannels(*_wave_columns(model, receiver, kind, t_grid,
                                              cfg))


def green_trace(model: HalfspaceModel, receiver: Receiver, t_grid: np.ndarray,
                cfg: QuadratureConfig) -> GreenTrace:
    """All impulse-response channels present at one receiver."""
    t_grid = np.asarray(t_grid, dtype=float)
    if receiver.z == 0.0:
        raise DomainError("receiver must not sit exactly on the interface")
    if receiver.z > 0.0:
        return GreenTrace(t=t_grid, receiver=receiver,
                          incident=incident_trace(model, receiver, t_grid),
                          reflected=reflected_trace(model, receiver, t_grid, cfg),
                          transmitted={})
    transmitted = {kind: transmitted_trace(model, receiver, kind, t_grid, cfg)
                   for kind in receiver_branches(model, receiver)}
    return GreenTrace(t=t_grid, receiver=receiver, incident=None,
                      reflected=None, transmitted=transmitted)


def receiver_branches(model: HalfspaceModel,
                      receiver: Receiver) -> dict[WaveKind, WaveBranch]:
    """The wave branches present at a receiver, in output order: the
    reflected wave above the interface (z > 0); the P-fast, P-slow and S
    transmitted waves below; none on it."""
    if receiver.z > 0.0:
        return {WaveKind.REFLECTED: reflected_branch(model.acoustic)}
    if receiver.z < 0.0:
        return transmitted_branches(model.acoustic, model.poro)
    return {}


def branch_arrivals(model: HalfspaceModel,
                    receiver: Receiver) -> dict[WaveKind, ArrivalTimes]:
    """Arrival-time structures of every branch present at a receiver."""
    geom = _geometry_for(model, receiver)
    return {kind: arrival_times(geom, branch, model.v_max)
            for kind, branch in receiver_branches(model, receiver).items()}


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
