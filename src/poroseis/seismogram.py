"""Source wavelet and the convolution of Green traces into seismograms.

The source time function is a symmetric pulse centred at 1/f0,

    f(t) = (2*pi^2/f0^2) * (3 + 12*u + 4*u^2) * exp(-u),
    u = pi^2 * f0^2 * (t - 1/f0)^2,

whose value at the centre is 6*pi^2/f0^2.  It decays like a Gaussian: at
1.6/f0 from the centre it is 1.01e-8 of the peak, its derivative is 4.1e-8
of the derivative's peak, and both fall further beyond.  The discrete
kernel treats the pulse as zero there, so the effective support is
[1/f0 - 1.6/f0, 1/f0 + 1.6/f0] and seismograms switch on 0.6/f0 before the
Green-function arrival.

Convolution is plain midpoint-rule time-domain convolution.  The wavelet is
sampled at cell midpoints; the Green channel, known at grid points, is
averaged onto the same midpoints.  The fluid pressure is assembled from the
symbolic incident Dirac pulse (which convolves to a shifted wavelet) plus
the reflected pressure primitive convolved with the wavelet derivative.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import GridTooCoarse, InvariantViolation
from .green import GreenTrace, Receiver, rotate_to_3d

# Half width of the effective support in units of 1/f0.
_SUPPORT_HALF_WIDTH = 1.6


@dataclass(frozen=True)
class SourceWavelet:
    f0: float  # dominant frequency, Hz

    def __post_init__(self):
        if not self.f0 > 0.0:
            raise ValueError(f"wavelet frequency must be positive, got {self.f0}")

    def support(self) -> tuple[float, float]:
        """Time window outside of which the kernel is treated as zero."""
        half = _SUPPORT_HALF_WIDTH / self.f0
        return 1.0 / self.f0 - half, 1.0 / self.f0 + half

    def value(self, t):
        return wavelet_value(t, self.f0)

    def derivative(self, t):
        return wavelet_derivative(t, self.f0)


def wavelet_value(t, f0: float):
    """Evaluate the source pulse; accepts scalars or arrays.

    Exactly zero outside the effective support, matching the truncated
    convolution kernel, so seismograms vanish identically before the first
    arrival instead of carrying Gaussian tails at the 1e-100 level.
    """
    tau = np.asarray(t, dtype=float) - 1.0 / f0
    u = (math.pi * f0) ** 2 * tau * tau
    out = (2.0 * math.pi ** 2 / f0 ** 2) \
        * (3.0 + 12.0 * u + 4.0 * u * u) * np.exp(-u)
    out = np.where(np.abs(tau) <= _SUPPORT_HALF_WIDTH / f0, out, 0.0)
    if out.ndim == 0:
        return float(out)
    return out


def wavelet_derivative(t, f0: float):
    """Analytic time derivative of the source pulse, truncated like it."""
    tau = np.asarray(t, dtype=float) - 1.0 / f0
    a2 = (math.pi * f0) ** 2
    u = a2 * tau * tau
    out = (2.0 * math.pi ** 2 / f0 ** 2) * np.exp(-u) \
        * 2.0 * a2 * tau * (9.0 - 4.0 * u - 4.0 * u * u)
    out = np.where(np.abs(tau) <= _SUPPORT_HALF_WIDTH / f0, out, 0.0)
    if out.ndim == 0:
        return float(out)
    return out


@dataclass(eq=False)
class Seismogram:
    t: np.ndarray
    receiver: Receiver
    p: np.ndarray    # fluid pressure (zero on the porous side)
    u_x: np.ndarray
    u_y: np.ndarray
    u_z: np.ndarray


def _kernel(wavelet: SourceWavelet, dt: float, derivative: bool):
    """Midpoint samples of the (possibly differentiated) wavelet.

    Returns the sample array and the index of the first midpoint cell, which
    is negative because the effective support starts before t = 0.
    """
    lo, hi = wavelet.support()
    first = math.floor(lo / dt)
    count = math.ceil(hi / dt) - first
    mid = (first + np.arange(count) + 0.5) * dt
    values = wavelet.derivative(mid) if derivative else wavelet.value(mid)
    return values, first


def convolve_sampled(g: np.ndarray, kernel_mid: np.ndarray, first_index: int,
                     dt: float) -> np.ndarray:
    """Midpoint-rule convolution of a sampled channel with a midpoint kernel.

    g lives on grid points i*dt; kernel_mid[j] is the kernel at
    (first_index + j + 1/2)*dt.  The channel is interpolated onto midpoints
    by averaging neighbouring samples, so the result is exactly linear in g
    and commutes with integer shifts of g.
    """
    full = np.convolve(g, kernel_mid)
    n = g.size
    idx = np.arange(n) - first_index
    out = 0.5 * (full[idx] + full[idx - 1]) * dt
    return out


def convolve(green: GreenTrace, wavelet: SourceWavelet, dt: float,
             gain: float = 1.0) -> Seismogram:
    """Convolve one receiver's Green trace with the source wavelet.

    dt must match the uniform spacing of the trace grid and resolve the
    wavelet with at least 40 samples per 1/f0.
    """
    t = np.asarray(green.t, dtype=float)
    if t.size < 2:
        raise ValueError("trace grid needs at least two samples")
    steps = np.diff(t)
    if np.max(np.abs(steps - dt)) > 1e-9 * dt:
        raise ValueError("trace grid spacing does not match dt")
    if dt > (1.0 + 1e-12) / (40.0 * wavelet.f0):
        raise GridTooCoarse(
            f"dt={dt} cannot resolve f0={wavelet.f0}; need dt <= "
            f"{1.0 / (40.0 * wavelet.f0)}")

    f_mid, first = _kernel(wavelet, dt, derivative=False)
    zero = np.zeros_like(t)

    if green.receiver.z > 0.0:
        df_mid, _ = _kernel(wavelet, dt, derivative=True)
        inc = green.incident
        refl = green.reflected
        p = inc.dirac_amplitude * wavelet.value(t - inc.dirac_time) \
            + convolve_sampled(refl.xi, df_mid, first, dt)
        u_plane = convolve_sampled(inc.u_x + refl.u_x, f_mid, first, dt)
        u_vert = convolve_sampled(inc.u_z + refl.u_z, f_mid, first, dt)
    else:
        p = zero.copy()
        g_x = sum(ch.u_x for ch in green.transmitted.values())
        g_z = sum(ch.u_z for ch in green.transmitted.values())
        u_plane = convolve_sampled(g_x, f_mid, first, dt)
        u_vert = convolve_sampled(g_z, f_mid, first, dt)

    u_x, u_y, u_z = rotate_to_3d(u_plane, u_vert,
                                 green.receiver.x, green.receiver.y)
    if green.receiver.y == 0.0 and np.any(u_y):
        raise InvariantViolation(
            "receiver at y = 0 got transverse motion from the in-plane "
            "rotation")
    return Seismogram(t=t, receiver=green.receiver, p=gain * p,
                      u_x=gain * u_x, u_y=gain * u_y, u_z=gain * u_z)
