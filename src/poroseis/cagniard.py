"""Deformed-contour geometry in the complex horizontal-slowness plane.

For each wave the time-domain field at transverse slowness q is obtained by
deforming the horizontal-slowness integration path onto the curve where the
travel-time function

    T(gamma) = d_top * kappa_top(gamma) + d_bot * kappa_bottom(gamma)
               + i * gamma * x

is real and equal to the observation time t.  Here d_top is the path length
in the fluid measured vertically (the image depth z + h for the reflected
wave, the source height h for transmitted waves), d_bot the receiver depth
below the interface, and the kappas use the fictitious velocities
v/sqrt(1 + v^2 q^2) that fold the transverse direction into a plane problem.

Two pieces of the deformed path matter:

* the volume piece gamma(t, q) in the lower-right quadrant, starting at the
  saddle point -i*p0(q) at the fictitious arrival time and bending towards
  the real axis, and
* when the saddle slowness p0(q) exceeds the fastest slowness 1/v_max, a
  head piece upsilon(t, q) = -i*zeta running down the negative imaginary
  axis between the fastest branch point and the saddle.  It carries the
  refracted (head-wave) part of the field.

Everything upstream of the interface coefficients is geometry and lives
here: arrival times, window bounds in q at fixed t, and the contour points
with their time derivatives.
"""

from __future__ import annotations

import enum
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .branch_math import branch_sqrt, fictitious_velocity
from .errors import ConvergenceFailure, DomainError
from .media import AcousticMedium, PoroelasticDerived

# Offsets below this fraction of the total vertical path have no usable head
# segment; the window formulas divide by x.
_MIN_HEAD_OFFSET = 1e-9
# Residual target of the volume-contour Newton solve, scaled by (1 + t).
_GAMMA_TOL = 1e-12
# Residual target of the head-segment solve, scaled by (1 + t).
_UPSILON_TOL = 1e-11
# The stationary-ray Newton stops once the time slope is this many ulp of
# 1/va + 1/vb, the size of its two terms; a step-size stop stalls near the
# root where rounding dominates the slope.  The cap only bounds the
# bisection fallback.
_XI_SLOPE_ULPS = 8.0
_XI_MAX_ITER = 60


class WaveKind(enum.Enum):
    REFLECTED = "reflected"
    TRANSMITTED_PF = "transmitted_pf"
    TRANSMITTED_PS = "transmitted_ps"
    TRANSMITTED_S = "transmitted_s"


@dataclass(frozen=True)
class WaveBranch:
    kind: WaveKind
    v_top: float     # fluid sound speed, m/s
    v_bottom: float  # speed of the receiving branch, m/s (v_top when reflected)


def reflected_branch(acoustic: AcousticMedium) -> WaveBranch:
    return WaveBranch(WaveKind.REFLECTED, acoustic.v_plus, acoustic.v_plus)


def transmitted_branches(acoustic: AcousticMedium,
                         poro: PoroelasticDerived) -> dict[WaveKind, WaveBranch]:
    v = acoustic.v_plus
    return {
        WaveKind.TRANSMITTED_PF: WaveBranch(WaveKind.TRANSMITTED_PF, v, poro.v_pf),
        WaveKind.TRANSMITTED_PS: WaveBranch(WaveKind.TRANSMITTED_PS, v, poro.v_ps),
        WaveKind.TRANSMITTED_S: WaveBranch(WaveKind.TRANSMITTED_S, v, poro.v_s),
    }


@dataclass(frozen=True)
class Geometry:
    """Source-receiver layout relative to the interface plane z = 0."""

    h: float  # source height above the interface, m, > 0
    x: float  # horizontal offset, m, >= 0
    z: float  # receiver height, m (negative below the interface)
    r: float = field(init=False)  # image distance of the reflected wave, m

    def __post_init__(self):
        if not self.h > 0.0:
            raise ValueError(f"source height must be positive, got {self.h}")
        if not self.x >= 0.0:
            raise ValueError(f"horizontal offset must be non-negative, got {self.x}")
        object.__setattr__(self, "r", math.hypot(self.x, self.z + self.h))


@dataclass(frozen=True)
class ArrivalTimes:
    """Wave-front timing of one branch at one geometry.

    When no head segment exists, t_h1, t_h2 and q_max are NaN.
    """

    t0: float           # volume-wave arrival, s
    head_exists: bool
    t_h1: float         # head-wave onset, s
    t_h2: float         # time at which the head segment is exhausted, s
    q_max: float        # largest transverse slowness with a head segment, s/m


@dataclass(frozen=True)
class ContourPoint:
    value: complex     # contour location in the q_x plane, s/m
    dt: complex        # time derivative of the location, s/m per s
    residual: float    # |T(value) - t| achieved by the solve, s


def _depths(geom: Geometry, branch: WaveBranch) -> tuple[float, float]:
    """Vertical path lengths (d_top, d_bot) with side checks."""
    if branch.kind is WaveKind.REFLECTED:
        if geom.z < 0.0:
            raise DomainError(
                f"reflected wave needs a receiver at z >= 0, got z={geom.z}")
        return geom.z + geom.h, 0.0
    if geom.z > 0.0:
        raise DomainError(
            f"transmitted wave needs a receiver at z <= 0, got z={geom.z}")
    return geom.h, -geom.z


def snell_time(xi, q, geom: Geometry, branch: WaveBranch):
    """Travel time of the broken ray crossing the interface at offset xi.

    Uses the fictitious velocities at transverse slowness q.  For the
    reflected wave the receiver is mirrored through the interface, which
    turns the bounce into the same two-leg form.
    """
    va = fictitious_velocity(branch.v_top, q)
    vb = fictitious_velocity(branch.v_bottom, q)
    xi = np.asarray(xi, dtype=float)
    d = abs(geom.z)
    t = np.hypot(xi, geom.h) / va + np.hypot(geom.x - xi, d) / vb
    if t.ndim == 0:
        return float(t)
    return t


def _xi_zero(q, geom: Geometry, branch: WaveBranch, start=None):
    """Interface crossing of the fastest broken ray.

    The one-way time is strictly convex in xi, so its slope has exactly one
    root in [0, x].  Newton steps on the slope (whose derivative is the
    positive curvature) run inside a bracket kept by the slope's sign, and a
    step leaving the bracket is replaced by bisection.  start is the first
    iterate, e.g. the crossing at a nearby q; by default the crossing of
    the straight source-receiver line.
    """
    q = np.atleast_1d(np.asarray(q, dtype=float))
    if geom.x == 0.0:
        return np.zeros_like(q)
    shape = q.shape
    q = q.ravel()
    va = fictitious_velocity(branch.v_top, q)
    vb = fictitious_velocity(branch.v_bottom, q)
    h, d, x = geom.h, abs(geom.z), geom.x
    if start is None:
        xi = np.full_like(q, x * h / (h + d))
    else:
        xi = np.clip(np.broadcast_to(start, shape).ravel(), 0.0, x)
    lo = np.zeros_like(q)
    hi = np.full_like(q, x)
    tol = _XI_SLOPE_ULPS * np.finfo(float).eps * (1.0 / va + 1.0 / vb)

    idx = np.arange(q.size)
    for _ in range(_XI_MAX_ITER):
        xs, ia, ib = xi[idx], va[idx], vb[idx]
        la = np.hypot(xs, h)
        lb = np.hypot(x - xs, d)
        g = xs / (ia * la) - (x - xs) / (ib * lb)
        live = np.abs(g) > tol[idx]
        if not np.any(live):
            break
        idx, xs, ia, ib, la, lb, g = (a[live] for a in (idx, xs, ia, ib,
                                                         la, lb, g))
        lo_i = np.where(g < 0.0, xs, lo[idx])
        hi_i = np.where(g > 0.0, xs, hi[idx])
        curv = h * h / (ia * la ** 3) + d * d / (ib * lb ** 3)
        cand = xs - g / curv
        inside = (cand > lo_i) & (cand < hi_i)
        xi[idx] = np.where(inside, cand, 0.5 * (lo_i + hi_i))
        lo[idx] = lo_i
        hi[idx] = hi_i
    return xi.reshape(shape)


def _t0_vec(q, geom: Geometry, branch: WaveBranch, xi0=None):
    """Fictitious arrival time, vectorized over q.

    xi0 is the stationary crossing at q when already known.
    """
    q = np.atleast_1d(np.asarray(q, dtype=float))
    if branch.kind is WaveKind.REFLECTED:
        return geom.r * np.sqrt(1.0 / branch.v_top ** 2 + q * q)
    if xi0 is None:
        xi0 = _xi_zero(q, geom, branch)
    return snell_time(xi0, q, geom, branch)


def _p0_vec(q, geom: Geometry, branch: WaveBranch, xi0=None):
    """Saddle slowness p0(q): the contour leaves -i*p0 at the arrival time.

    xi0 is the stationary crossing at q when already known.
    """
    q = np.atleast_1d(np.asarray(q, dtype=float))
    if branch.kind is WaveKind.REFLECTED:
        return (geom.x / geom.r) * np.sqrt(1.0 / branch.v_top ** 2 + q * q)
    if xi0 is None:
        xi0 = _xi_zero(q, geom, branch)
    va = fictitious_velocity(branch.v_top, q)
    return xi0 / (va * np.hypot(xi0, geom.h))


def fictitious_arrival(q: float, geom: Geometry, branch: WaveBranch) -> float:
    """Earliest time of the volume wave at transverse slowness q.

    The reflected wave has the closed image form r/V(q).  Transmitted waves
    minimize the two-leg travel time over the interface crossing; the
    minimum comes from the same stationary-ray solve as every other arrival.
    """
    _depths(geom, branch)
    return float(_t0_vec(np.array([q], dtype=float), geom, branch)[0])


def _head_time(q, geom: Geometry, branch: WaveBranch, v_max: float):
    """Onset time of the head segment at transverse slowness q."""
    d_top, d_bot = _depths(geom, branch)
    c1 = math.sqrt(max(1.0 / branch.v_top ** 2 - 1.0 / v_max ** 2, 0.0))
    c2 = math.sqrt(max(1.0 / branch.v_bottom ** 2 - 1.0 / v_max ** 2, 0.0))
    q = np.asarray(q, dtype=float)
    return d_top * c1 + d_bot * c2 + geom.x * np.sqrt(1.0 / v_max ** 2 + q * q)


def arrival_times(geom: Geometry, branch: WaveBranch, v_max: float) -> ArrivalTimes:
    """Compute the wave-front timing of one branch.

    The head segment exists when the saddle slowness at q = 0 exceeds the
    fastest slowness 1/v_max (post-critical geometry) and the offset is not
    degenerate.  q_max, the largest transverse slowness carrying a head
    segment, is found by bisection on the sign change of
    t0(q) - t_head(q); the closed critical-ray expression serves as a
    non-fatal cross-check.
    """
    d_top, d_bot = _depths(geom, branch)
    q = np.zeros(1)
    xi0 = _xi_zero(q, geom, branch)
    t0 = float(_t0_vec(q, geom, branch, xi0)[0])
    p0 = float(_p0_vec(q, geom, branch, xi0)[0])
    nan = float("nan")
    if geom.x < _MIN_HEAD_OFFSET * (d_top + d_bot) or p0 <= 1.0 / v_max:
        return ArrivalTimes(t0=t0, head_exists=False,
                            t_h1=nan, t_h2=nan, q_max=nan)

    c1 = math.sqrt(1.0 / branch.v_top ** 2 - 1.0 / v_max ** 2)
    c2 = math.sqrt(max(1.0 / branch.v_bottom ** 2 - 1.0 / v_max ** 2, 0.0))
    t_h1 = float(_head_time(0.0, geom, branch, v_max))

    # Critical-ray geometry: the head segment dies where the stationary ray
    # itself reaches the critical angle.
    denom = d_top / c1 + (d_bot / c2 if d_bot > 0.0 else 0.0)
    rad = (geom.x / denom) ** 2 - 1.0 / v_max ** 2
    if rad <= 0.0:
        raise ConvergenceFailure(t0, 0.0, branch.kind.value,
                                 "inconsistent head-segment gate")
    q_closed = math.sqrt(rad)

    # The time gap t0(q) - t_head(q) itself only touches zero at q_max (its
    # slope vanishes there too, because the stationary ray degenerates into
    # the critical one), so bisect the transversal form of the same
    # condition: saddle slowness minus the fastest branch-point slowness.
    def saddle_excess(q):
        return float(_p0_vec(np.array([q]), geom, branch)[0]) \
            - math.sqrt(1.0 / v_max ** 2 + q * q)

    hi = None
    cand = q_closed
    for _ in range(60):
        cand *= 1.25
        if saddle_excess(cand) < 0.0:
            hi = cand
            break
    if hi is None:
        warnings.warn(
            f"head-segment end bisection found no bracket near q={q_closed}; "
            f"falling back to the closed form", stacklevel=2)
        q_max = q_closed
    else:
        lo = 0.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if mid == lo or mid == hi:
                break
            if saddle_excess(mid) > 0.0:
                lo = mid
            else:
                hi = mid
        q_max = 0.5 * (lo + hi)
        if abs(q_max - q_closed) > 1e-6 * (q_closed + 1.0 / v_max):
            warnings.warn(
                f"head-segment end disagrees with the critical-ray form: "
                f"bisection {q_max}, closed {q_closed}", stacklevel=2)
    t_h2 = float(_head_time(q_max, geom, branch, v_max))
    return ArrivalTimes(t0=t0, head_exists=True, t_h1=t_h1, t_h2=t_h2, q_max=q_max)


def q0_of_t(t: float, geom: Geometry, branch: WaveBranch) -> float:
    """Upper bound of the volume window: the q with fictitious arrival t."""
    return float(_q0_vec(np.array([t], dtype=float), geom, branch)[0])


# The scalar inversion's former name, which the benchmark's span groups
# (bench/spans.py) still list.
_q0_scalar = q0_of_t


def _q0_vec(t, geom: Geometry, branch: WaveBranch):
    """Invert the fictitious arrival, vectorized over t > t0."""
    t = np.atleast_1d(np.asarray(t, dtype=float))
    if branch.kind is WaveKind.REFLECTED:
        rad = (t / geom.r) ** 2 - 1.0 / branch.v_top ** 2
        if np.any(rad < 0.0):
            bad = float(t[np.argmax(rad < 0.0)])
            raise DomainError(
                f"t={bad} is before the reflected arrival {geom.r / branch.v_top}",
                t=bad)
        return np.sqrt(rad)

    t0 = float(_t0_vec(np.array([0.0]), geom, branch)[0])
    if np.any(t < t0):
        bad = float(t[np.argmax(t < t0)])
        raise DomainError(f"t={bad} is before the volume arrival {t0}", t=bad)

    hi_val = max(2.0 / branch.v_bottom, 2.0 / branch.v_top)
    for _ in range(200):
        if np.all(_t0_vec(np.full(1, hi_val), geom, branch) >= t.max()):
            break
        hi_val *= 2.0
    else:
        raise ConvergenceFailure(float(t.max()), hi_val, branch.kind.value,
                                 "volume-window inversion found no upper bracket")

    # Newton on the arrival time, kept inside a shrinking bracket; the
    # arrival is increasing and convex in q, so steps from above converge
    # monotonically once the bracket is tight.  Only unconverged times
    # iterate, each warm-starting its crossing from its previous iterate.
    # The crossing point is stationary in xi, so the arrival slope in q
    # needs no xi derivative.
    lo = np.zeros_like(t)
    hi = np.full_like(t, hi_val)
    q0 = 0.5 * (lo + hi)
    xi = _xi_zero(q0, geom, branch)
    tol = 1e-12 * np.maximum(t, 1e-300)
    idx = np.arange(t.size)
    for _ in range(80):
        q, xs = q0[idx], xi[idx]
        sa = np.sqrt(1.0 / branch.v_top ** 2 + q * q)
        sb = np.sqrt(1.0 / branch.v_bottom ** 2 + q * q)
        la = np.hypot(xs, geom.h)
        lb = np.hypot(geom.x - xs, abs(geom.z))
        f = la * sa + lb * sb - t[idx]
        df = q * (la / sa + lb / sb)
        live = np.abs(f) > tol[idx]
        if not np.any(live):
            break
        idx, q, f, df = idx[live], q[live], f[live], df[live]
        lo_i = np.where(f < 0.0, q, lo[idx])
        hi_i = np.where(f > 0.0, q, hi[idx])
        with np.errstate(divide="ignore", invalid="ignore"):
            step = np.where(df > 0.0, f / np.maximum(df, 1e-300), 0.0)
        cand = q - step
        inside = (cand > lo_i) & (cand < hi_i) & np.isfinite(cand)
        q0[idx] = np.where(inside, cand, 0.5 * (lo_i + hi_i))
        lo[idx] = lo_i
        hi[idx] = hi_i
        xi[idx] = _xi_zero(q0[idx], geom, branch, start=xi[idx])
    resid = np.abs(_t0_vec(q0, geom, branch, xi) - t)
    if np.any(resid > 1e-9 * np.maximum(t, 1e-300)):
        i = int(np.argmax(resid))
        raise ConvergenceFailure(float(t[i]), float(q0[i]), branch.kind.value,
                                 f"window inversion residual {resid[i]:.3e}")
    return q0


def q1_of_t(t, geom: Geometry, branch: WaveBranch, v_max: float):
    """Upper bound of the head window: the q whose head onset equals t.

    Closed form; t may be a scalar (float result) or an array.
    """
    d_top, d_bot = _depths(geom, branch)
    if geom.x < _MIN_HEAD_OFFSET * (d_top + d_bot):
        raise DomainError("no head segment at (near) zero offset")
    c1 = math.sqrt(max(1.0 / branch.v_top ** 2 - 1.0 / v_max ** 2, 0.0))
    c2 = math.sqrt(max(1.0 / branch.v_bottom ** 2 - 1.0 / v_max ** 2, 0.0))
    t_arr = np.asarray(t, dtype=float)
    lead = t_arr - d_top * c1 - d_bot * c2
    rad = (lead / geom.x) ** 2 - 1.0 / v_max ** 2
    early = (rad < -1e-14) | (lead < 0.0)
    if np.any(early):
        bad = float(t_arr.flat[np.argmax(early)])
        raise DomainError(f"t={bad} is before the head onset at zero slowness",
                          t=bad)
    out = np.sqrt(np.maximum(rad, 0.0))
    return float(out) if out.ndim == 0 else out


def _volume_window_vec(t, arrivals: ArrivalTimes, geom: Geometry,
                       branch: WaveBranch):
    """Volume windows (0, q0(t)) at times t, vectorized.

    Returns the bounds lo and hi and the mask keep of the times that have a
    (non-empty) window.
    """
    t = np.atleast_1d(np.asarray(t, dtype=float))
    hi = np.zeros_like(t)
    keep = t > arrivals.t0
    if np.any(keep):
        hi[keep] = _q0_vec(t[keep], geom, branch)
    return np.zeros_like(t), hi, keep & (hi > 0.0)


def _head_window_vec(t, arrivals: ArrivalTimes, geom: Geometry,
                     branch: WaveBranch, v_max: float, q0=None):
    """Head windows at times t, vectorized; returns lo, hi and keep.

    Between the head onset and the volume arrival the window is
    (0, q1(t)); between the volume arrival and the head end it shrinks to
    (q0(t), q1(t)).  q0, when given, holds the volume bound at every t past
    the volume arrival, so it is not inverted again.
    """
    t = np.atleast_1d(np.asarray(t, dtype=float))
    lo = np.zeros_like(t)
    hi = np.zeros_like(t)
    if not arrivals.head_exists:
        return lo, hi, np.zeros(t.shape, dtype=bool)
    keep = (t > arrivals.t_h1) & (t < arrivals.t_h2)
    if np.any(keep):
        hi[keep] = q1_of_t(t[keep], geom, branch, v_max)
        late = keep & (t > arrivals.t0)
        if q0 is not None:
            lo[late] = q0[late]
        elif np.any(late):
            lo[late] = _q0_vec(t[late], geom, branch)
    return lo, hi, keep & (hi > lo)


def volume_window(t: float, arrivals: ArrivalTimes, geom: Geometry,
                  branch: WaveBranch) -> tuple[float, float] | None:
    """Transverse-slowness window of the volume piece at time t, or None."""
    lo, hi, keep = _volume_window_vec(t, arrivals, geom, branch)
    return (float(lo[0]), float(hi[0])) if keep[0] else None


def head_window(t: float, arrivals: ArrivalTimes, geom: Geometry,
                branch: WaveBranch, v_max: float) -> tuple[float, float] | None:
    """Transverse-slowness window of the head piece at time t, or None."""
    lo, hi, keep = _head_window_vec(t, arrivals, geom, branch, v_max)
    return (float(lo[0]), float(hi[0])) if keep[0] else None


def phase_time(gamma_val, q, geom: Geometry, branch: WaveBranch):
    """Travel-time function T(gamma) whose level sets define the contours."""
    d_top, d_bot = _depths(geom, branch)
    va = fictitious_velocity(branch.v_top, np.asarray(q, dtype=float))
    vb = fictitious_velocity(branch.v_bottom, np.asarray(q, dtype=float))
    g = np.asarray(gamma_val, dtype=complex)
    out = d_top * branch_sqrt(1.0 / va ** 2 + g * g) + 1j * g * geom.x
    if d_bot != 0.0:
        out = out + d_bot * branch_sqrt(1.0 / vb ** 2 + g * g)
    if np.ndim(gamma_val) == 0 and np.ndim(q) == 0:
        return complex(out)
    return out


def gamma(t: float, q: float, geom: Geometry, branch: WaveBranch) -> ContourPoint:
    """Volume-contour point at (t, q), for t past the fictitious arrival."""
    val, dt, res = _gamma_vec(t, np.array([q], dtype=float), geom, branch)
    return ContourPoint(value=complex(val[0]), dt=complex(dt[0]),
                        residual=float(res[0]))


def _flat_q(q):
    """Flat float copy of q (at least 1-d) and its shape."""
    q = np.atleast_1d(np.asarray(q, dtype=float))
    return q.ravel(), q.shape


def _gamma_vec(t: float, q, geom: Geometry, branch: WaveBranch, xi0=None):
    """Volume-contour points for one time t and an array of q, with d/dt.

    The reflected wave has a closed form.  Transmitted waves solve
    T(gamma) = t by damped Newton iteration seeded at the saddle-point
    expansion, with a planar residual search as a last resort.  xi0, the
    stationary crossing at q (see _xi_zero), gives both the fictitious
    arrival and the saddle; it is solved here when not given.
    """
    t = float(t)
    q, shape = _flat_q(q)
    d_top, d_bot = _depths(geom, branch)
    x = geom.x

    if branch.kind is WaveKind.REFLECTED:
        va = fictitious_velocity(branch.v_top, q)
        r = geom.r
        rad = (t / r) ** 2 - 1.0 / va ** 2
        if np.any(rad <= 0.0):
            i = int(np.argmax(rad <= 0.0))
            raise DomainError(
                f"t={t} is not past the fictitious arrival "
                f"{r / va[i]} at q={q[i]}")
        big_d = np.sqrt(rad)
        gam = -1j * (x * t / r ** 2) + (d_top / r) * big_d
        kap = (d_top * t / r ** 2) - 1j * (x / r) * big_d
        dgdt = kap / (r * big_d)
        resid = np.abs(phase_time(gam, q, geom, branch) - t)
        return gam.reshape(shape), dgdt.reshape(shape), resid.reshape(shape)

    va = fictitious_velocity(branch.v_top, q)
    vb = fictitious_velocity(branch.v_bottom, q)
    if xi0 is None:
        xi0 = _xi_zero(q, geom, branch)
    xi0 = np.ravel(xi0)
    t0q = _t0_vec(q, geom, branch, xi0)
    if np.any(t <= t0q):
        i = int(np.argmax(t <= t0q))
        raise DomainError(
            f"t={t} is not past the fictitious arrival {t0q[i]} at q={q[i]}")
    p0 = _p0_vec(q, geom, branch, xi0)
    sa2 = 1.0 / va ** 2
    sb2 = 1.0 / vb ** 2

    def kappas(g, i=slice(None)):
        return branch_sqrt(sa2[i] + g * g), branch_sqrt(sb2[i] + g * g)

    def t_func(g, ka, kb):
        return d_top * ka + d_bot * kb + 1j * g * x

    def t_slope(g, ka, kb):
        return d_top * g / ka + d_bot * g / kb + 1j * x

    # Saddle-point seed: T is quadratic in (gamma + i*p0) near the saddle
    # with a real positive second derivative.
    ka0 = np.sqrt(1.0 / va ** 2 - p0 ** 2)
    kb0 = np.sqrt(1.0 / vb ** 2 - p0 ** 2)
    curv = d_top / (va ** 2 * ka0 ** 3) + d_bot / (vb ** 2 * kb0 ** 3)
    g = -1j * p0 + np.sqrt(2.0 * (t - t0q) / curv)

    tol = _GAMMA_TOL * (1.0 + abs(t))
    ka, kb = kappas(g)
    f = t_func(g, ka, kb) - t
    # Only the points still above the residual target iterate; the vertical
    # slownesses of each accepted iterate are kept for its next slope.
    idx = np.flatnonzero((np.abs(f) > tol) | ~np.isfinite(f))
    for _ in range(100):
        if idx.size == 0:
            break
        g_i, f_i = g[idx], f[idx]
        with np.errstate(divide="ignore", invalid="ignore"):
            step = f_i / t_slope(g_i, ka[idx], kb[idx])
        step = np.where(np.isfinite(step), step, 0.0)
        g_new = g_i - step
        ka_new, kb_new = kappas(g_new, idx)
        f_new = t_func(g_new, ka_new, kb_new) - t
        worse = np.abs(f_new) > np.abs(f_i)
        for _ in range(50):
            if not np.any(worse):
                break
            step = np.where(worse, 0.5 * step, step)
            g_new = np.where(worse, g_i - step, g_new)
            ka_w, kb_w = kappas(g_new, idx)
            ka_new = np.where(worse, ka_w, ka_new)
            kb_new = np.where(worse, kb_w, kb_new)
            f_new = np.where(worse, t_func(g_new, ka_w, kb_w) - t, f_new)
            worse = worse & (np.abs(f_new) > np.abs(f_i))
        g[idx] = g_new
        f[idx] = f_new
        ka[idx] = ka_new
        kb[idx] = kb_new
        idx = idx[(np.abs(f_new) > tol) | ~np.isfinite(f_new)]

    # Roots come in pairs (g, -conj(g)); keep the one in the right half.
    flip = g.real < -1e-13 * np.abs(g)
    if np.any(flip):
        g = np.where(flip, -np.conj(g), g)
        ka, kb = kappas(g)
        f = t_func(g, ka, kb) - t

    bad = (np.abs(f) > tol) | ~np.isfinite(f)
    if np.any(bad):
        for i in np.flatnonzero(bad):
            g[i] = _plane_search(
                lambda gc, i=i: complex(
                    d_top * branch_sqrt(float(sa2[i]) + gc * gc)
                    + d_bot * branch_sqrt(float(sb2[i]) + gc * gc)
                    + 1j * gc * x),
                t, complex(g[i]), tol, float(q[i]), branch)
        ka, kb = kappas(g)
        f = t_func(g, ka, kb) - t

    dgdt = 1.0 / t_slope(g, ka, kb)
    return g.reshape(shape), dgdt.reshape(shape), np.abs(f).reshape(shape)


def _plane_search(t_scalar, t, center, tol, q, branch):
    """Shrinking 3x3 grid search for |T(gamma) - t| in the complex plane.

    Fallback when Newton stalls; slow but only visits isolated points.
    t_scalar maps a complex scalar to the travel time.
    """
    span = max(abs(center), 1e-6) * 0.5
    best = complex(center)
    best_val = abs(t_scalar(best) - t)
    for _ in range(220):
        improved = False
        for dre in (-span, 0.0, span):
            for dim in (-span, 0.0, span):
                cand = best + dre + 1j * dim
                if cand.real < 0.0:
                    continue
                val = abs(t_scalar(cand) - t)
                if val < best_val:
                    best, best_val = cand, val
                    improved = True
        if best_val <= tol:
            return best
        if not improved:
            span *= 0.5
            if span < 1e-25:
                break
    raise ConvergenceFailure(t, q, branch.kind.value,
                             f"volume contour stalled at residual {best_val:.3e}")


def upsilon(t: float, q: float, geom: Geometry, branch: WaveBranch,
            v_max: float) -> ContourPoint:
    """Head-segment point at (t, q): purely imaginary, travel time t.

    Valid only inside the head windows returned by head_window; elsewhere a
    DomainError is raised.
    """
    arr = arrival_times(geom, branch, v_max)
    window = head_window(t, arr, geom, branch, v_max)
    slack = 1e-12 * (1.0 + abs(q))
    if window is None or not window[0] - slack <= q <= window[1] + slack:
        raise DomainError(
            f"(t={t}, q={q}) is outside the head segment of {branch.kind.value}")
    val, dt, res = _upsilon_vec(t, np.array([q], dtype=float), geom, branch, v_max)
    return ContourPoint(value=complex(val[0]), dt=complex(dt[0]),
                        residual=float(res[0]))


def _upsilon_vec(t: float, q, geom: Geometry, branch: WaveBranch, v_max: float,
                 xi0=None):
    """Head-segment points for one time t and an array of q.

    Solves T(-i*zeta) = t for real zeta between the fastest branch point
    and the saddle slowness, where T is real and strictly increasing.
    Newton with a bisection safeguard; the time derivative is -i/T'(zeta),
    whose negative imaginary part is asserted.  xi0 is the stationary
    crossing at q when already known (see _gamma_vec).
    """
    t = float(t)
    q, shape = _flat_q(q)
    d_top, d_bot = _depths(geom, branch)
    x = geom.x
    va = fictitious_velocity(branch.v_top, q)
    vb = fictitious_velocity(branch.v_bottom, q)
    sa2 = 1.0 / va ** 2
    sb2 = 1.0 / vb ** 2
    tip = np.sqrt(1.0 / v_max ** 2 + q * q)
    p0 = _p0_vec(q, geom, branch, None if xi0 is None else np.ravel(xi0))

    def t_of(zeta, i=slice(None)):
        pa = np.sqrt(np.maximum(sa2[i] - zeta * zeta, 0.0))
        pb = np.sqrt(np.maximum(sb2[i] - zeta * zeta, 0.0))
        return d_top * pa + d_bot * pb + zeta * x

    def t_slope(zeta, i=slice(None)):
        pa = np.sqrt(np.maximum(sa2[i] - zeta * zeta, 1e-300))
        pb = np.sqrt(np.maximum(sb2[i] - zeta * zeta, 1e-300))
        return x - d_top * zeta / pa - d_bot * zeta / pb

    lo = tip.copy()
    hi = p0.copy()
    zeta = 0.5 * (lo + hi)
    tol = _UPSILON_TOL * (1.0 + abs(t))
    f = t_of(zeta) - t
    # Only the points still above the residual target iterate.
    idx = np.flatnonzero(np.abs(f) > tol)
    for _ in range(100):
        if idx.size == 0:
            break
        z, f_i = zeta[idx], f[idx]
        lo_i = np.where(f_i < 0.0, z, lo[idx])
        hi_i = np.where(f_i > 0.0, z, hi[idx])
        slope = t_slope(z, idx)
        with np.errstate(divide="ignore", invalid="ignore"):
            znew = z - f_i / slope
        inside = (znew > lo_i) & (znew < hi_i) & (slope > 0.0)
        z = np.where(inside, znew, 0.5 * (lo_i + hi_i))
        zeta[idx] = z
        lo[idx] = lo_i
        hi[idx] = hi_i
        f[idx] = t_of(z, idx) - t
        idx = idx[np.abs(f[idx]) > tol]

    resid = np.abs(f)
    if np.any(resid > tol):
        i = int(np.argmax(resid > tol))
        raise ConvergenceFailure(t, float(q[i]), branch.kind.value,
                                 f"head segment stalled at residual {resid[i]:.3e}")
    slope = t_slope(zeta)
    if np.any(slope <= 0.0):
        i = int(np.argmax(slope <= 0.0))
        raise ConvergenceFailure(t, float(q[i]), branch.kind.value,
                                 "head segment hit a non-increasing travel time")
    val = -1j * zeta
    dt = -1j / slope
    return val.reshape(shape), dt.reshape(shape), resid.reshape(shape)
