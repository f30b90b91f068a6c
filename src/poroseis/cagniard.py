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

Both rest on the stationary broken ray at each q (_stationary_ray, the
reflected receiver mirrored through the interface): its time is the
fictitious arrival t0(q) that closes the volume window, read as the excess
(t - t0(0)) - (t0(q) - t0(0)) so that nothing cancels next to an arrival,
and its horizontal slowness in the fluid is the saddle slowness p0(q).
Both come from one solve of that excess (_contour): from the saddle it
steps along the real direction where the excess is positive (the volume
point) and along the imaginary axis towards the origin where it is
negative (the head point).

Everything upstream of the interface coefficients is geometry and lives
here: arrival times, each sample's regime (_classify) and the window bounds
in q it selects, and the contour points with their time derivatives.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .branch_math import branch_sqrt
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
# Cap on the square-root-free contour steps; points still off target after
# it go to the planar residual search (_plane_search), the one fallback.
_CONTOUR_STEPS = 8
# The stationary-ray Newton stops on the time slope (see _xi_zero); a
# step-size stop stalls near the root where rounding dominates the slope.
# The cap only bounds the bisection fallback.
_XI_SLOPE_ULPS = 8.0
_XI_MAX_ITER = 60
# Quiet band: samples up to this fraction of t past the onset are exactly 0.
_EDGE_BAND = 1e-12
_QUIET, _HEAD, _MIXED, _VOLUME = range(4)
_REGIME_NAMES = ("quiet", "head", "mixed", "volume")


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
    z: float  # receiver height, m, != 0 (negative below the interface)
    r: float = field(init=False)  # image distance of the reflected wave, m

    def __post_init__(self):
        if not self.h > 0.0:
            raise ValueError(f"source height must be positive, got {self.h}")
        if not self.x >= 0.0:
            raise ValueError(f"horizontal offset must be non-negative, got {self.x}")
        if self.z == 0.0:
            raise ValueError("receiver must not sit on the interface z = 0")
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


def snell_time(xi, q, geom: Geometry, branch: WaveBranch):
    """Travel time of the broken ray crossing the interface at offset xi.

    Uses the fictitious velocities at transverse slowness q.  For the
    reflected wave the receiver is mirrored through the interface, which
    turns the bounce into the same two-leg form.  Its least value over xi
    is _stationary_ray's t0.
    """
    sa, sb = np.sqrt(_slowness_sq(np.asarray(q, dtype=float), branch))
    xi = np.asarray(xi, dtype=float)
    t = (np.sqrt(xi * xi + geom.h * geom.h) * sa
         + np.sqrt((geom.x - xi) ** 2 + geom.z * geom.z) * sb)
    if t.ndim == 0:
        return float(t)
    return t


def _bracketed_newton(func, x, lo, hi, tol, max_iter):
    """Safeguarded Newton-bisection (rtsafe, Numerical Recipes 9.4), vectorized.

    func(x) returns the values of an increasing function at x and a thunk
    slope() that gives its slope there.  Only points with |value| > tol
    step; the others keep their value, so each point's result depends on
    its own inputs alone.  slope is called only while some point steps, so
    the last evaluation of a solve takes no slope.  The sign of the value
    keeps the bracket (lo, hi), and a step leaving it (which covers
    non-finite steps and non-positive slopes) bisects instead.  Returns x;
    the caller judges it.
    """
    for _ in range(max_iter):
        f, slope = func(x)
        live = np.abs(f) > tol
        if not np.any(live):
            break
        lo = np.where(f < 0.0, x, lo)
        hi = np.where(f > 0.0, x, hi)
        with np.errstate(divide="ignore", invalid="ignore"):
            cand = x - f / slope()
        inside = (cand > lo) & (cand < hi)
        x = np.where(live, np.where(inside, cand, 0.5 * (lo + hi)), x)
    return x


def _xi_zero(q, geom: Geometry, branch: WaveBranch):
    """Interface crossing of the fastest broken ray, and the slownesses
    (s_a, s_b) at q.

    The one-way time is strictly convex in xi, so its slope has exactly one
    root in [0, x], found by _bracketed_newton on the slope (whose
    derivative is the positive curvature).  The first iterate is the
    small-angle Snell crossing s_b*x*h / (s_a*|z| + s_b*h), exact for the
    mirrored reflected path.  The slope stops at 8 ulp of s_a + s_b, the
    size of its terms, or at the slope change of one ulp of x (2*eps*x
    times the curvature at the Newton's first evaluation) where x - xi
    cancels.
    """
    q = np.atleast_1d(np.asarray(q, dtype=float))
    sa, sb = np.sqrt(_slowness_sq(q, branch))
    if geom.x == 0.0:
        return np.zeros_like(q), sa, sb
    h, d, x = geom.h, geom.z, geom.x

    def slope(xs):
        xb = x - xs
        ra = 1.0 / (xs * xs + h * h)  # 1 / leg length squared
        rb = 1.0 / (xb * xb + d * d)
        ua = sa * np.sqrt(ra)
        ub = sb * np.sqrt(rb)
        return ua * xs - ub * xb, lambda: (h * h) * ua * ra + (d * d) * ub * rb

    eps = np.finfo(float).eps
    start = sb * (x * h) / (sa * abs(d) + sb * h)
    first = [slope(start)]
    tol = np.maximum(_XI_SLOPE_ULPS * eps * (sa + sb),
                     2.0 * eps * x * first[0][1]())
    xi = _bracketed_newton(lambda xs: first.pop() if first else slope(xs),
                           start, np.zeros_like(q), np.full_like(q, x),
                           tol, _XI_MAX_ITER)
    return xi, sa, sb


@functools.lru_cache(maxsize=256)
def _ray_zero(geom: Geometry, branch: WaveBranch):
    """(xi0, s_a0, s_b0, l_a0, l_b0) of the stationary ray at q = 0, solved
    once per geometry and branch for all its readers."""
    xi, sa, sb = (float(v[0]) for v in _xi_zero(np.zeros(1), geom, branch))
    return (xi, sa, sb, float(np.hypot(xi, geom.h)),
            float(np.hypot(geom.x - xi, geom.z)))


def _stationary_ray(q, geom: Geometry, branch: WaveBranch):
    """(rise, dt0/dq, p0) of the stationary broken ray, vectorized over q.

    One _xi_zero solve at q gives the crossings xi and the legs
    l_a = hypot(xi, h), l_b = hypot(x - xi, z); xi0, l_a0 and l_b0 at q = 0
    are _ray_zero's.  The rise t0(q) - t0(0) of t0 = l_a*s_a + l_b*s_b is
    formed leg by leg, with no term that cancels: l_a*q^2/(s_a + s_a0) +
    l_b*q^2/(s_b + s_b0) plus the crossing's shift xi - xi0 (0 on the
    mirrored reflected path) times
    s_a0*(xi + xi0)/(l_a + l_a0) - s_b0*(2x - xi - xi0)/(l_b + l_b0), a
    divided difference of the slope that stationarity makes first order.
    dt0/dq = q*(l_a/s_a + l_b/s_b) (the crossing is stationary, so it adds
    no term) and p0 = xi*s_a/l_a.
    """
    q = np.atleast_1d(np.asarray(q, dtype=float))
    xi, sa, sb = _xi_zero(q, geom, branch)
    la = np.hypot(xi, geom.h)
    lb = np.hypot(geom.x - xi, geom.z)
    xi0, sa0, sb0, la0, lb0 = _ray_zero(geom, branch)
    rise = la * (q * q) / (sa + sa0) + lb * (q * q) / (sb + sb0)
    if geom.x > 0.0:  # at zero offset both crossings are 0
        rise = rise + (xi - xi0) * (sa0 * (xi + xi0) / (la + la0) - sb0
                                    * (2.0 * geom.x - xi - xi0) / (lb + lb0))
    return rise, q * (la / sa + lb / sb), xi * sa / la


def _t0_zero(geom: Geometry, branch: WaveBranch) -> float:
    """t0(0) = l_a0*s_a0 + l_b0*s_b0 of the cached ray at q = 0."""
    _, sa0, sb0, la0, lb0 = _ray_zero(geom, branch)
    return la0 * sa0 + lb0 * sb0


def _t0_vec(q, geom: Geometry, branch: WaveBranch):
    """Fictitious arrival time t0(q), vectorized over q."""
    return _t0_zero(geom, branch) + _stationary_ray(q, geom, branch)[0]


def _p0_vec(q, geom: Geometry, branch: WaveBranch):
    """Saddle slowness p0(q): the contour leaves -i*p0 at the arrival time."""
    return _stationary_ray(q, geom, branch)[2]


def fictitious_arrival(q: float, geom: Geometry, branch: WaveBranch) -> float:
    """Earliest time of the volume wave at transverse slowness q: the
    stationary-ray time, for the reflected wave r/V(q) up to rounding."""
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
    t0 = _t0_zero(geom, branch)
    xi0, sa0, _, la0, _ = _ray_zero(geom, branch)
    p0 = xi0 * sa0 / la0
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
    """Invert the fictitious arrival, vectorized over t >= t0(0).

    Every branch runs _bracketed_newton on rise(q) - tau, tau = t - t0(0),
    in (0, t/R), R = hypot(x, h + |z|): both slownesses exceed q and the
    broken ray is no shorter than R, so t0(q) > q*R.  It stops at
    1e-14*tau, a few ulp, so that q0 hardly depends on the start; a
    residual above 1e-9*t raises ConvergenceFailure.
    """
    t = np.atleast_1d(np.asarray(t, dtype=float))
    t0 = _t0_zero(geom, branch)
    tau = t - t0
    if np.any(tau < 0.0):
        bad = float(t[np.argmax(tau < 0.0)])
        raise DomainError(f"t={bad} is before the volume arrival {t0}", t=bad)

    def excess(q):
        rise, slope, _ = _stationary_ray(q, geom, branch)
        return rise - tau, lambda: slope

    hi = t / math.hypot(geom.x, geom.h + abs(geom.z))
    q0 = _bracketed_newton(excess, 0.5 * hi, np.zeros_like(t), hi,
                           1e-14 * np.maximum(tau, 1e-300), 80)
    resid = np.abs(_stationary_ray(q0, geom, branch)[0] - tau)
    if np.any(~(resid <= 1e-9 * np.maximum(t, 1e-300))):  # NaN fails too
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


def _classify(t, arr: ArrivalTimes) -> np.ndarray:
    """Regime code (_QUIET, _HEAD, _MIXED, _VOLUME) of every sample in t.

    Quiet up to the onset plus _EDGE_BAND (t_h1, or t0 without a head
    segment), head up to t0, mixed up to t_h2 and volume after.  Mixed and
    volume samples have a volume window, head and mixed samples a head one.
    """
    band = _EDGE_BAND * np.abs(t)
    if not arr.head_exists:
        return np.where(t <= arr.t0 + band, _QUIET, _VOLUME)
    return np.select([t <= arr.t_h1 + band, t <= arr.t0, t <= arr.t_h2],
                     [_QUIET, _HEAD, _MIXED], _VOLUME)


def volume_window(t: float, arrivals: ArrivalTimes, geom: Geometry,
                  branch: WaveBranch) -> tuple[float, float] | None:
    """Volume-piece window (0, q0(t)) of a mixed or volume sample, else None."""
    if _classify(t, arrivals) < _MIXED:
        return None
    q0 = q0_of_t(t, geom, branch)
    return (0.0, q0) if q0 > 0.0 else None


def head_window(t: float, arrivals: ArrivalTimes, geom: Geometry,
                branch: WaveBranch, v_max: float) -> tuple[float, float] | None:
    """Transverse-slowness window of the head piece at time t, or None.

    A head sample (_classify) has the window (0, q1(t)); a mixed sample,
    between the volume arrival and the head end, has (q0(t), q1(t)).
    """
    regime = _classify(t, arrivals)
    if regime not in (_HEAD, _MIXED):
        return None
    lo = q0_of_t(t, geom, branch) if regime == _MIXED else 0.0
    hi = q1_of_t(t, geom, branch, v_max)
    return (lo, hi) if hi > lo else None


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
    val, dt, _, _ = _gamma_vec(t, np.array([q], dtype=float), geom, branch)
    res = abs(phase_time(complex(val[0]), q, geom, branch) - t)
    return ContourPoint(value=complex(val[0]), dt=complex(dt[0]),
                        residual=float(res))


def _flat_tq(t, q):
    """Flat float copies of t and q, one t per node, and q's shape.

    q is at least 1-d; t is a scalar or has q's shape.
    """
    q = np.atleast_1d(np.asarray(q, dtype=float))
    t = np.broadcast_to(np.asarray(t, dtype=float), q.shape)
    return t.ravel(), q.ravel(), q.shape


def _arrival_excess(t, q, geom: Geometry, branch: WaveBranch):
    """(excess, rise, p0) at flat t and q, one t per node: the excess
    (t - t0(0)) - rise(q) over the stationary ray, its rise t0(q) - t0(0)
    and the saddle slowness p0 (None on the reflected branch, whose rise
    r*q^2/(s + s0) and contour are closed forms)."""
    if branch.kind is WaveKind.REFLECTED:
        sa = np.sqrt(_slowness_sq(q, branch)[0])
        rise, p0 = geom.r * (q * q) / (sa + 1.0 / branch.v_top), None
    else:
        rise, _, p0 = _stationary_ray(q, geom, branch)
    return (t - _t0_zero(geom, branch)) - rise, rise, p0


def _gamma_vec(t, q, geom: Geometry, branch: WaveBranch):
    """Volume-contour points at an array of q, with d/dt.

    t is one time for all nodes or one per node (q's shape); every point
    depends on its own (t, q) alone.  Returns gamma, dgamma/dt and the
    vertical slownesses kappa_top and kappa_bottom at gamma on the physical
    branch (see _contour).  One check raises DomainError where the excess
    (t - t0(0)) - rise(q) is not positive.
    """
    t, q, shape = _flat_tq(t, q)
    excess, rise, p0 = _arrival_excess(t, q, geom, branch)
    if np.any(excess <= 0.0):
        i = int(np.argmax(excess <= 0.0))
        raise DomainError(f"t={float(t[i])} is not past the fictitious "
                          f"arrival {_t0_zero(geom, branch) + rise[i]} at "
                          f"q={q[i]}")
    return tuple(v.reshape(shape)
                 for v in _contour(t, q, excess, rise, p0, geom, branch))


def _contour(t, q, excess, rise, p0, geom: Geometry, branch: WaveBranch):
    """Contour points of both pieces at flat t and q, from the excess.

    Returns (gamma, dgamma/dt, kappa_top, kappa_bottom), the kappas on the
    physical branch, so that callers need not take those square roots
    again.  The residual |T(gamma) - t| is judged here and not returned;
    phase_time gives it from an independent root.

    Where the excess is positive this is the volume point in the lower
    right quadrant; where it is negative, the head point -i*zeta between
    the saddle -i*p0 and the origin: the square root of the excess is
    taken of its size in real arithmetic and turned by i where it is
    negative.  The reflected wave has a closed form, with radicand
    excess*(t + t0(q))/r^2.  Transmitted waves start from the saddle-point
    expansion and solve the polynomial system

        k_a^2 = s_a^2 + gamma^2,  k_b^2 = s_b^2 + gamma^2,
        d_top * k_a + d_bot * k_b + i * gamma * x = t

    (s_a^2, s_b^2 = 1/v^2 + q^2) for gamma and both kappas at once, by
    Newton steps about the saddle that take no square root (see
    _contour_steps).  Each kappa is then taken once with branch_sqrt.  The
    one fallback: points whose |T(gamma) - t| still misses the target go to
    the derivative-free planar residual search _plane_search from the
    saddle seed, which raises ConvergenceFailure where it stalls.
    """
    d_top, d_bot = _depths(geom, branch)
    x = geom.x
    sa2, sb2 = _slowness_sq(q, branch)
    head = excess < 0.0

    if branch.kind is WaveKind.REFLECTED:
        r = geom.r
        t0q = _t0_zero(geom, branch) + rise
        big_d = np.sqrt(np.abs(excess) * (t + t0q)) / r
        big_d = np.where(head, 1j * big_d, big_d)
        gam = -1j * (x * t / r ** 2) + (d_top / r) * big_d
        kap = (d_top * t / r ** 2) - 1j * (x / r) * big_d
        return gam, kap / (r * big_d), kap, kap

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
    # order in delta; delta is imaginary where the excess is negative.
    ka0 = np.sqrt(sa2 - p0 * p0)
    kb0 = np.sqrt(sb2 - p0 * p0)
    ca = d_top * sa2 / (ka0 * ka0 * ka0)
    cb = d_bot * sb2 / (kb0 * kb0 * kb0)
    curv = ca + cb
    delta = np.sqrt(2.0 * np.abs(excess) / curv)
    delta = np.where(head, 1j * delta, delta)
    d_seed = delta * (1.0 - 0.5j * p0 * delta
                      * (ca / (ka0 * ka0) + cb / (kb0 * kb0)) / curv)
    g_seed = -1j * p0 + d_seed

    tol = _GAMMA_TOL * (1.0 + np.abs(t))
    ka, kb = kappas(g_seed)
    delta = _contour_steps(d_seed, ka - ka0, kb - kb0, p0, ka0, kb0,
                           d_top, d_bot, x, excess, tol)
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
                float(t[i]), complex(g_seed[i]), abs(complex(d_seed[i])),
                float(tol[i]), float(q[i]), branch)
        ka, kb = kappas(g)

    return g, 1.0 / t_slope(g, ka, kb), ka, kb


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
    Each node stops on its own residual: it steps while its |r| at the
    start of a step is above tol (tol is per node or shared), takes the
    step on which |r| first meets tol and then freezes, so that its delta
    depends on its own inputs alone and not on the other nodes of the
    batch.  After _CONTOUR_STEPS the caller judges the points.  Returns
    delta.
    """
    ix, ip = 1j * x, 1j * p0
    live = True
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
            delta = np.where(live, delta - step, delta)
            ua = np.where(live, ha - g_step * ia, ua)
            ub = np.where(live, hb - g_step * ib, ub)
            live = live & (np.abs(r) > tol)
            if not np.any(live):
                break
    return delta


def _plane_search(t_scalar, t, center, seed_step, tol, q, branch):
    """Shrinking 3x3 grid search for |T(gamma) - t| in the complex plane.

    Fallback when Newton stalls; slow but only visits isolated points.
    t_scalar maps a complex scalar to the travel time.  center is the
    saddle-point seed and seed_step its distance from the saddle; the grid
    starts at half that span, so that its first moves cannot jump past the
    saddle onto the other side of the contour.
    """
    span = 0.5 * max(seed_step, np.finfo(float).eps * abs(center))
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
                             f"contour stalled at residual {best_val:.3e}")


def upsilon(t: float, q: float, geom: Geometry, branch: WaveBranch,
            v_max: float) -> ContourPoint:
    """Head-segment point at (t, q): purely imaginary, travel time t.

    Valid only inside the head windows returned by head_window; elsewhere a
    DomainError is raised.  The residual comes from phase_time, as in
    gamma.
    """
    arr = arrival_times(geom, branch, v_max)
    window = head_window(t, arr, geom, branch, v_max)
    slack = 1e-12 * (1.0 + abs(q))
    if window is None or not window[0] - slack <= q <= window[1] + slack:
        raise DomainError(
            f"(t={t}, q={q}) is outside the head segment of {branch.kind.value}")
    val, dt, _, _ = _upsilon_vec(t, np.array([q], dtype=float), geom, branch)
    res = abs(phase_time(complex(val[0]), q, geom, branch) - t)
    return ContourPoint(value=complex(val[0]), dt=complex(dt[0]),
                        residual=float(res))


def _upsilon_vec(t, q, geom: Geometry, branch: WaveBranch):
    """Head-segment points at an array of q, with d/dt.

    t is one time for all nodes or one per node, as in _gamma_vec.  The
    same solve as _gamma_vec (_contour) at the negative excess, which
    lands on -i*zeta between the fastest branch point and the saddle, and
    the same 4-tuple.  Next to q0 the excess can round to 0, which would
    seed on the saddle itself, where T' = 0; it is capped at
    -eps*|t - t0(0)|, the rounding of the excess.  A point off the
    imaginary axis, or past the saddle (Im(dupsilon/dt) >= 0, where T
    stops increasing in zeta), raises ConvergenceFailure.
    """
    t, q, shape = _flat_tq(t, q)
    excess, rise, p0 = _arrival_excess(t, q, geom, branch)
    excess = np.minimum(excess, -np.finfo(float).eps
                        * np.abs(t - _t0_zero(geom, branch)))
    ups, dt, ka, kb = _contour(t, q, excess, rise, p0, geom, branch)
    bad = (ups.real != 0.0) | ~(dt.imag < 0.0)
    if np.any(bad):
        i = int(np.argmax(bad))
        raise ConvergenceFailure(float(t[i]), float(q[i]), branch.kind.value,
                                 f"head point {ups[i]} is off the imaginary "
                                 "axis or past the saddle")
    return tuple(v.reshape(shape) for v in (ups, dt, ka, kb))
