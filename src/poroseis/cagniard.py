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
from dataclasses import dataclass, field

import numpy as np

from .branch_math import branch_sqrt, fictitious_velocity
from .errors import ConvergenceFailure, DomainError
from .media import AcousticMedium, PoroelasticDerived

# Largest accepted length, m.  The stationary-ray and contour solves square
# lengths (sqrt(xi^2 + h^2)), which overflows above about 1e154 m.
MAX_LENGTH_M = 1e100
# Offsets below this fraction of the total vertical path have no usable head
# segment; the window formulas divide by x.
_MIN_HEAD_OFFSET = 1e-9
# Residual target of the volume-contour Newton solve, scaled by (1 + t).
_GAMMA_TOL = 1e-12
# Residual target of the head-segment solve, scaled by (1 + t).
_UPSILON_TOL = 1e-11
# Cap on the square-root-free contour steps; points still off target after
# it go to the planar residual search (_plane_search), the one fallback.
_CONTOUR_STEPS = 8
# The stationary-ray Newton stops once the time slope is this many ulp of
# s_a + s_b (the slownesses above and below), the size of its two terms; a step-size stop stalls near the
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
        if max(self.h, self.x, abs(self.z)) > MAX_LENGTH_M:
            raise ValueError(f"lengths must not exceed {MAX_LENGTH_M:g} m, got "
                             f"h={self.h}, x={self.x}, z={self.z}")
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


def _slowness_sq(q, branch: WaveBranch):
    """Squared slownesses 1/v^2 + q^2 above and below the interface.

    They are the reciprocal squared fictitious velocities at transverse
    slowness q, formed without a square root.
    """
    q2 = q * q
    return 1.0 / branch.v_top ** 2 + q2, 1.0 / branch.v_bottom ** 2 + q2


def snell_time(xi, q, geom: Geometry, branch: WaveBranch, slow=None):
    """Travel time of the broken ray crossing the interface at offset xi.

    Uses the fictitious velocities at transverse slowness q, or the
    slownesses slow = (s_a, s_b) when already known.  For the reflected
    wave the receiver is mirrored through the interface, which turns the
    bounce into the same two-leg form.
    """
    if slow is None:
        slow = np.sqrt(_slowness_sq(np.asarray(q, dtype=float), branch))
    xi = np.asarray(xi, dtype=float)
    t = (np.sqrt(xi * xi + geom.h * geom.h) * slow[0]
         + np.sqrt((geom.x - xi) ** 2 + geom.z * geom.z) * slow[1])
    if t.ndim == 0:
        return float(t)
    return t


def _bracketed_newton(func, x, lo, hi, tol, max_iter):
    """Safeguarded Newton-bisection (rtsafe, Numerical Recipes 9.4), vectorized.

    func(x_sub, idx) returns value and slope of an increasing function at
    the points idx; only points with |value| > tol[idx] iterate.  The sign
    of the value keeps the bracket (lo, hi), and a step leaving it (which
    covers non-finite steps and non-positive slopes) bisects instead.
    x, lo and hi are updated in place; x is returned and the caller judges it.
    """
    idx = np.arange(x.size)
    for _ in range(max_iter):
        f, df = func(x[idx], idx)
        live = np.abs(f) > tol[idx]
        if not np.any(live):
            break
        idx, f, df = idx[live], f[live], df[live]
        xs = x[idx]
        lo_i = np.where(f < 0.0, xs, lo[idx])
        hi_i = np.where(f > 0.0, xs, hi[idx])
        with np.errstate(divide="ignore", invalid="ignore"):
            cand = xs - f / df
        inside = (cand > lo_i) & (cand < hi_i)
        x[idx] = np.where(inside, cand, 0.5 * (lo_i + hi_i))
        lo[idx] = lo_i
        hi[idx] = hi_i
    return x


def _xi_zero(q, geom: Geometry, branch: WaveBranch, start=None):
    """Interface crossing of the fastest broken ray.

    The one-way time is strictly convex in xi, so its slope has exactly one
    root in [0, x], found by _bracketed_newton on the slope (whose
    derivative is the positive curvature).  start is the first iterate,
    e.g. the crossing at a nearby q; by default the crossing of the
    straight source-receiver line.
    """
    q = np.atleast_1d(np.asarray(q, dtype=float))
    if geom.x == 0.0:
        return np.zeros_like(q)
    shape = q.shape
    q = q.ravel()
    sa, sb = np.sqrt(_slowness_sq(q, branch))
    h, d, x = geom.h, geom.z, geom.x
    if start is None:
        xi = np.full_like(q, x * h / (h + abs(d)))
    else:
        xi = np.clip(np.broadcast_to(start, shape).ravel(), 0.0, x)

    def slope(xs, idx):
        xb = x - xs
        ra = 1.0 / (xs * xs + h * h)  # 1 / leg length squared
        rb = 1.0 / (xb * xb + d * d)
        ua = sa[idx] * np.sqrt(ra)
        ub = sb[idx] * np.sqrt(rb)
        return ua * xs - ub * xb, (h * h) * ua * ra + (d * d) * ub * rb

    tol = _XI_SLOPE_ULPS * np.finfo(float).eps * (sa + sb)
    _bracketed_newton(slope, xi, np.zeros_like(q), np.full_like(q, x), tol,
                      _XI_MAX_ITER)
    return xi.reshape(shape)


def _t0_vec(q, geom: Geometry, branch: WaveBranch, xi0=None, slow=None):
    """Fictitious arrival time, vectorized over q.

    xi0 is the stationary crossing at q and slow the slownesses (s_a, s_b)
    at q, when already known.
    """
    q = np.atleast_1d(np.asarray(q, dtype=float))
    if branch.kind is WaveKind.REFLECTED:
        return geom.r * np.sqrt(_slowness_sq(q, branch)[0])
    if xi0 is None:
        xi0 = _xi_zero(q, geom, branch)
    return snell_time(xi0, q, geom, branch, slow)


def _p0_vec(q, geom: Geometry, branch: WaveBranch, xi0=None, slow=None):
    """Saddle slowness p0(q): the contour leaves -i*p0 at the arrival time.

    xi0 and slow as in _t0_vec.
    """
    q = np.atleast_1d(np.asarray(q, dtype=float))
    if branch.kind is WaveKind.REFLECTED:
        return (geom.x / geom.r) * np.sqrt(_slowness_sq(q, branch)[0])
    if xi0 is None:
        xi0 = _xi_zero(q, geom, branch)
    sa = np.sqrt(_slowness_sq(q, branch)[0]) if slow is None else slow[0]
    return xi0 * sa / np.sqrt(xi0 * xi0 + geom.h * geom.h)


def fictitious_arrival(q: float, geom: Geometry, branch: WaveBranch) -> float:
    """Earliest time of the volume wave at transverse slowness q.

    The reflected wave has the closed image form r/V(q).  Transmitted waves
    minimize the two-leg travel time over the interface crossing; the
    minimum comes from the same stationary-ray solve as every other arrival.
    """
    _depths(geom, branch)
    return float(_t0_vec(np.array([q], dtype=float), geom, branch)[0])


def _critical_slownesses(branch: WaveBranch, v_max: float):
    """Vertical slownesses (c1, c2) of the critical ray above and below."""
    return (math.sqrt(max(1.0 / branch.v_top ** 2 - 1.0 / v_max ** 2, 0.0)),
            math.sqrt(max(1.0 / branch.v_bottom ** 2 - 1.0 / v_max ** 2, 0.0)))


def _head_time(q, geom: Geometry, branch: WaveBranch, v_max: float):
    """Onset time of the head segment at transverse slowness q."""
    d_top, d_bot = _depths(geom, branch)
    c1, c2 = _critical_slownesses(branch, v_max)
    q = np.asarray(q, dtype=float)
    return d_top * c1 + d_bot * c2 + geom.x * np.sqrt(1.0 / v_max ** 2 + q * q)


def arrival_times(geom: Geometry, branch: WaveBranch, v_max: float) -> ArrivalTimes:
    """Compute the wave-front timing of one branch.

    The head segment exists when the saddle slowness at q = 0 exceeds the
    fastest slowness 1/v_max (post-critical geometry) and the offset is not
    degenerate.  q_max, the largest transverse slowness carrying a head
    segment, has a closed form: it is where the stationary ray itself
    reaches the critical angle.
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

    c1, c2 = _critical_slownesses(branch, v_max)
    t_h1 = float(_head_time(0.0, geom, branch, v_max))

    # Critical-ray geometry: the head segment dies where the stationary ray
    # itself reaches the critical angle.
    denom = d_top / c1 + (d_bot / c2 if d_bot > 0.0 else 0.0)
    rad = (geom.x / denom) ** 2 - 1.0 / v_max ** 2
    if rad <= 0.0:
        raise ConvergenceFailure(t0, 0.0, branch.kind.value,
                                 "inconsistent head-segment gate")
    q_max = math.sqrt(rad)
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

    # _bracketed_newton on t0(q) - t from the midpoint of (0, hi_val).  Each
    # evaluation warm-starts its crossing from the previous one at the same
    # t; the crossing is stationary, so the slope in q needs no xi term.
    h, d = geom.h, abs(geom.z)
    xi = np.full_like(t, geom.x * h / (h + d))

    def excess(q, idx):
        xs = xi[idx] = _xi_zero(q, geom, branch, start=xi[idx])
        sa, sb = np.sqrt(_slowness_sq(q, branch))
        la = np.hypot(xs, h)
        lb = np.hypot(geom.x - xs, d)
        return la * sa + lb * sb - t[idx], q * (la / sa + lb / sb)

    q0 = _bracketed_newton(excess, np.full_like(t, 0.5 * hi_val),
                           np.zeros_like(t), np.full_like(t, hi_val),
                           1e-12 * np.maximum(t, 1e-300), 80)
    xi = _xi_zero(q0, geom, branch, start=xi)
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
    c1, c2 = _critical_slownesses(branch, v_max)
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
    sa2, sb2 = _slowness_sq(np.asarray(q, dtype=float), branch)
    g = np.asarray(gamma_val, dtype=complex)
    out = d_top * branch_sqrt(sa2 + g * g) + 1j * g * geom.x
    if d_bot != 0.0:
        out = out + d_bot * branch_sqrt(sb2 + g * g)
    if np.ndim(gamma_val) == 0 and np.ndim(q) == 0:
        return complex(out)
    return out


def gamma(t: float, q: float, geom: Geometry, branch: WaveBranch) -> ContourPoint:
    """Volume-contour point at (t, q), for t past the fictitious arrival."""
    val, dt, res, _, _ = _gamma_vec(t, np.array([q], dtype=float), geom,
                                    branch)
    return ContourPoint(value=complex(val[0]), dt=complex(dt[0]),
                        residual=float(res[0]))


def _flat_q(q):
    """Flat float copy of q (at least 1-d) and its shape."""
    q = np.atleast_1d(np.asarray(q, dtype=float))
    return q.ravel(), q.shape


def _gamma_vec(t: float, q, geom: Geometry, branch: WaveBranch, xi0=None):
    """Volume-contour points for one time t and an array of q, with d/dt.

    Returns gamma, dgamma/dt, the residual |T(gamma) - t| and the vertical
    slownesses kappa_top and kappa_bottom at gamma on the physical branch,
    so that callers need not take those square roots again.

    The reflected wave has a closed form.  Transmitted waves start from the
    saddle-point expansion and solve the polynomial system

        k_a^2 = s_a^2 + gamma^2,  k_b^2 = s_b^2 + gamma^2,
        d_top * k_a + d_bot * k_b + i * gamma * x = t

    (s_a^2, s_b^2 = 1/v^2 + q^2) for gamma and both kappas at once, by
    Newton steps about the saddle that take no square root (see
    _contour_steps).  Each kappa is then taken once with branch_sqrt.  The
    one fallback: points whose |T(gamma) - t| still misses the target go to
    the derivative-free planar residual search _plane_search from the
    saddle seed, which raises ConvergenceFailure where it stalls.  xi0, the
    stationary crossing at q (see _xi_zero), gives both the fictitious
    arrival and the saddle; it is solved here when not given.
    """
    t = float(t)
    q, shape = _flat_q(q)
    d_top, d_bot = _depths(geom, branch)
    x = geom.x

    if branch.kind is WaveKind.REFLECTED:
        # rad cancels near the window end, where the traces depend on its
        # rounding at about 1e-8 of peak; it keeps the rounding through
        # fictitious_velocity so that the reflected traces do not move.
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
        kap = kap.reshape(shape)
        return (gam.reshape(shape), dgdt.reshape(shape), resid.reshape(shape),
                kap, kap)

    if xi0 is None:
        xi0 = _xi_zero(q, geom, branch)
    xi0 = np.ravel(xi0)
    sa2, sb2 = _slowness_sq(q, branch)
    slow = (np.sqrt(sa2), np.sqrt(sb2))
    t0q = _t0_vec(q, geom, branch, xi0, slow)
    if np.any(t <= t0q):
        i = int(np.argmax(t <= t0q))
        raise DomainError(
            f"t={t} is not past the fictitious arrival {t0q[i]} at q={q[i]}")
    p0 = _p0_vec(q, geom, branch, xi0, slow)

    def kappas(g):
        return branch_sqrt(sa2 + g * g), branch_sqrt(sb2 + g * g)

    def t_func(g, ka, kb):
        return d_top * ka + d_bot * kb + 1j * g * x

    def t_slope(g, ka, kb):
        return d_top * g / ka + d_bot * g / kb + 1j * x

    # Saddle-point seed: near the saddle T - t0 is a series in
    # delta = gamma + i*p0 with a real positive second derivative and an
    # imaginary third one (at the saddle each kappa has second and third
    # derivatives s^2/k0^3 and 3i*p0*s^2/k0^5), inverted here to second
    # order in delta.
    ka0 = np.sqrt(sa2 - p0 * p0)
    kb0 = np.sqrt(sb2 - p0 * p0)
    ca = d_top * sa2 / (ka0 * ka0 * ka0)
    cb = d_bot * sb2 / (kb0 * kb0 * kb0)
    curv = ca + cb
    delta = np.sqrt(2.0 * (t - t0q) / curv)
    delta = delta * (1.0 - 0.5j * p0 * delta
                     * (ca / (ka0 * ka0) + cb / (kb0 * kb0)) / curv)
    g_seed = -1j * p0 + delta

    tol = _GAMMA_TOL * (1.0 + abs(t))
    ka, kb = kappas(g_seed)
    delta = _contour_steps(delta, ka - ka0, kb - kb0, p0, ka0, kb0,
                           d_top, d_bot, x, t - t0q, tol)
    g = delta - 1j * p0
    ka, kb = kappas(g)
    f = t_func(g, ka, kb) - t

    # Roots come in pairs (g, -conj(g)); keep the one in the right half.
    flip = g.real < -1e-13 * np.abs(g)
    if np.any(flip):
        g = np.where(flip, -np.conj(g), g)
        ka, kb = kappas(g)
        f = t_func(g, ka, kb) - t

    # Points the steps left off target are searched for from the saddle
    # seed, so that the search does not depend on the steps and a
    # non-finite step iterate cannot become its centre.
    bad = (np.abs(f) > tol) | ~np.isfinite(f)
    if np.any(bad):
        for i in np.flatnonzero(bad):
            g[i] = _plane_search(
                lambda gc, i=i: complex(
                    d_top * branch_sqrt(float(sa2[i]) + gc * gc)
                    + d_bot * branch_sqrt(float(sb2[i]) + gc * gc)
                    + 1j * gc * x),
                t, complex(g_seed[i]), tol, float(q[i]), branch)
        ka, kb = kappas(g)
        f = t_func(g, ka, kb) - t

    dgdt = 1.0 / t_slope(g, ka, kb)
    return (g.reshape(shape), dgdt.reshape(shape), np.abs(f).reshape(shape),
            ka.reshape(shape), kb.reshape(shape))


def _contour_steps(delta, ua, ub, p0, ka0, kb0, d_top, d_bot, x, excess, tol):
    """Square-root-free Newton steps for the contour, taken about the saddle.

    The unknowns are delta = gamma + i*p0 and the increments u = kappa - k0
    of both kappas over their saddle values.  With w = delta*(delta - 2i*p0)
    they solve u*(2*k0 + u) = w for each kappa and
    d_top*u_a + d_bot*u_b + i*x*delta = excess (= t - t0): the contour
    equation less its saddle value, so that no term is of the size of t
    and the rounding of a step shrinks with delta.  Each step updates the
    increments at fixed delta, h = (u^2 + w)/(2*kappa), takes the residual
    r = d_top*h_a + d_bot*h_b + i*x*delta - excess in seconds, steps delta
    by -r/T'(gamma) and moves each increment on to h - (gamma/kappa)*step.
    The steps stop once every |r| is below tol, the last one taken past
    that; after _CONTOUR_STEPS the caller judges the points.  Returns delta.
    """
    ix, ip = 1j * x, 1j * p0
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _ in range(_CONTOUR_STEPS):
            g = delta - ip
            w = delta * (g - ip)
            ia, ib = 1.0 / (ka0 + ua), 1.0 / (kb0 + ub)
            ha = 0.5 * (ua * ua + w) * ia
            hb = 0.5 * (ub * ub + w) * ib
            r = d_top * ha + d_bot * hb + ix * delta - excess
            step = r / (g * (d_top * ia + d_bot * ib) + ix)
            g_step = g * step
            delta = delta - step
            ua = ha - g_step * ia
            ub = hb - g_step * ib
            if not np.any(np.abs(r) > tol):
                break
    return delta


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
    and the saddle slowness, where T is real and strictly increasing, with
    _bracketed_newton from the midpoint; the time derivative is -i/T'(zeta),
    whose negative imaginary part is asserted.  xi0 is the stationary
    crossing at q when already known (see _gamma_vec).
    """
    t = float(t)
    q, shape = _flat_q(q)
    d_top, d_bot = _depths(geom, branch)
    x = geom.x
    sa2, sb2 = _slowness_sq(q, branch)
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

    tol = _UPSILON_TOL * (1.0 + abs(t))
    zeta = _bracketed_newton(lambda z, i: (t_of(z, i) - t, t_slope(z, i)),
                             0.5 * (tip + p0), tip, p0, np.full_like(q, tol),
                             100)
    resid = np.abs(t_of(zeta) - t)
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
