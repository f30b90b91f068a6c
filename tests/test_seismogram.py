"""Source pulse, sampled convolution, and seismogram assembly."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poroseis.errors import GridTooCoarse
from poroseis.green import Receiver, green_trace
from poroseis.seismogram import (SourceWavelet, convolve, convolve_sampled,
                                 wavelet_derivative, wavelet_value, _kernel)


@pytest.fixture(scope="module")
def wavelet():
    return SourceWavelet(f0=15.0)


def test_wavelet_peak_and_symmetry(wavelet):
    """Peak 6*pi^2/f0^2 at the centre 1/f0, even around it."""
    f0 = wavelet.f0
    assert wavelet.value(1.0 / f0) == pytest.approx(6.0 * math.pi ** 2 / f0 ** 2,
                                                    rel=1e-15)
    for shift in (0.01, 0.03, 0.09):
        left = wavelet.value(1.0 / f0 - shift)
        right = wavelet.value(1.0 / f0 + shift)
        assert left == pytest.approx(right, rel=1e-14)
    assert wavelet.derivative(1.0 / f0) == 0.0


def test_wavelet_support(wavelet):
    lo, hi = wavelet.support()
    f0 = wavelet.f0
    assert lo == pytest.approx((1.0 - 1.6) / f0, rel=1e-15)
    assert hi == pytest.approx((1.0 + 1.6) / f0, rel=1e-15)
    eps = 1e-9 / f0
    assert wavelet.value(lo - eps) == 0.0
    assert wavelet.value(hi + eps) == 0.0
    assert wavelet.derivative(lo - eps) == 0.0
    assert wavelet.value(lo + 1e-3 / f0) != 0.0

    t = np.linspace(lo - 0.5 / f0, hi + 0.5 / f0, 300)
    vals = wavelet_value(t, f0)
    outside = (t < lo) | (t > hi)
    assert not np.any(vals[outside])


def test_wavelet_derivative_matches_difference(wavelet):
    f0 = wavelet.f0
    step = 1e-6 / f0
    pts = 1.0 / f0 + np.array([-0.08, -0.02, 0.013, 0.05, 0.095])
    fd = (wavelet_value(pts + step, f0) - wavelet_value(pts - step, f0)) \
        / (2.0 * step)
    exact = wavelet_derivative(pts, f0)
    scale = np.max(np.abs(exact))
    np.testing.assert_allclose(fd, exact, atol=1e-8 * scale)


def test_wavelet_validation():
    with pytest.raises(ValueError):
        SourceWavelet(f0=0.0)


def test_convolution_is_linear(rng, wavelet):
    dt = 1e-3
    kernel, first = _kernel(wavelet, dt, derivative=False)
    g1 = rng.normal(size=500)
    g2 = rng.normal(size=500)
    lhs = convolve_sampled(3.0 * g1 - 0.5 * g2, kernel, first, dt)
    rhs = 3.0 * convolve_sampled(g1, kernel, first, dt) \
        - 0.5 * convolve_sampled(g2, kernel, first, dt)
    np.testing.assert_allclose(lhs, rhs, rtol=0.0, atol=1e-12 * np.max(np.abs(rhs)))


@settings(max_examples=25, deadline=None)
@given(shift=st.integers(min_value=-40, max_value=40))
def test_convolution_commutes_with_shifts(shift, wavelet):
    """Shifting the input by whole cells shifts the output identically."""
    dt = 1e-3
    kernel, first = _kernel(wavelet, dt, derivative=False)
    rng = np.random.default_rng(7)
    n = 600
    g = np.zeros(n)
    g[260:340] = rng.normal(size=80)
    g_shift = np.roll(g, shift)
    a = convolve_sampled(g, kernel, first, dt)
    b = convolve_sampled(g_shift, kernel, first, dt)
    margin = 40 + kernel.size + abs(first) + 5
    core = slice(margin, n - margin)
    np.testing.assert_allclose(np.roll(a, shift)[core], b[core],
                               atol=1e-15 * max(np.max(np.abs(a)), 1.0))


def test_convolve_rejects_bad_grids(model, fluid_receiver, fast_cfg, wavelet):
    t = np.linspace(0.0, 0.3, 601)
    trace = green_trace(model, fluid_receiver, t, fast_cfg)
    with pytest.raises(ValueError):
        convolve(trace, wavelet, dt=2.0 * (t[1] - t[0]))

    coarse_dt = 2e-3
    coarse = green_trace(model, fluid_receiver,
                         np.arange(0.0, 0.3, coarse_dt), fast_cfg)
    with pytest.raises(GridTooCoarse):
        convolve(coarse, wavelet, dt=coarse_dt)

    warped = green_trace(model, fluid_receiver, t ** 1.01, fast_cfg)
    with pytest.raises(ValueError):
        convolve(warped, wavelet, dt=t[1] - t[0])


def test_fluid_seismogram_onsets(model, fluid_receiver, fast_cfg, wavelet):
    """Every channel is identically zero until the first possible motion."""
    dt = 1e-3
    t = np.arange(0.0, 0.55, dt)
    trace = green_trace(model, fluid_receiver, t, fast_cfg)
    seis = convolve(trace, wavelet, dt=dt)

    t_inc = math.hypot(400.0, 33.0) / 1500.0
    lo, _ = wavelet.support()
    onset = t_inc + lo
    quiet = t < onset - dt
    assert not np.any(seis.p[quiet])
    assert not np.any(seis.u_x[quiet]) and not np.any(seis.u_z[quiet])
    assert not np.any(seis.u_y)

    first_p = float(t[np.nonzero(seis.p)[0][0]])
    assert abs(first_p - onset) <= 2.0 * dt


def test_gain_scales_every_channel(model, fluid_receiver, fast_cfg, wavelet):
    dt = 1e-3
    t = np.arange(0.0, 0.5, dt)
    trace = green_trace(model, fluid_receiver, t, fast_cfg)
    one = convolve(trace, wavelet, dt=dt)
    ten = convolve(trace, wavelet, dt=dt, gain=10.0)
    np.testing.assert_allclose(ten.p, 10.0 * one.p, rtol=1e-15)
    np.testing.assert_allclose(ten.u_z, 10.0 * one.u_z, rtol=1e-15)


def test_porous_side_has_no_pressure(model, porous_receiver, fast_cfg, wavelet):
    dt = 1e-3
    t = np.arange(0.4, 0.7, dt)
    trace = green_trace(model, porous_receiver, t, fast_cfg)
    seis = convolve(trace, wavelet, dt=dt)
    assert not np.any(seis.p)
    assert np.any(seis.u_z)


def test_offplane_receiver_matches_rotated_inplane(model, fast_cfg, wavelet):
    """(300, 400) and (500, 0) receivers agree after rotation."""
    dt = 1e-3
    t = np.arange(0.0, 0.6, dt)
    tilted = convolve(green_trace(model, Receiver(x=300.0, y=400.0, z=533.0),
                                  t, fast_cfg), wavelet, dt=dt)
    plane = convolve(green_trace(model, Receiver(x=500.0, y=0.0, z=533.0),
                                 t, fast_cfg), wavelet, dt=dt)
    np.testing.assert_allclose(tilted.u_z, plane.u_z, rtol=0.0,
                               atol=1e-18 + 1e-12 * np.max(np.abs(plane.u_z)))
    np.testing.assert_allclose(np.hypot(tilted.u_x, tilted.u_y),
                               np.abs(plane.u_x), rtol=0.0,
                               atol=1e-18 + 1e-12 * np.max(np.abs(plane.u_x)))
    np.testing.assert_allclose(tilted.u_x * 400.0, tilted.u_y * 300.0,
                               rtol=0.0, atol=1e-18)
    np.testing.assert_allclose(tilted.p, plane.p, rtol=1e-12)


def test_convolve_rejects_transverse_leak(model, porous_receiver, wavelet,
                                          monkeypatch):
    """A y = 0 receiver with transverse motion raises, also under python -O."""
    from poroseis.errors import InvariantViolation
    from poroseis.green import GreenTrace, TransmittedChannels
    from poroseis.cagniard import WaveKind

    dt = 1e-3
    t = np.arange(0.0, 0.3, dt)
    ramp = np.where(t > 0.1, t - 0.1, 0.0)
    trace = GreenTrace(t=t, receiver=porous_receiver, incident=None,
                       reflected=None, transmitted={
                           WaveKind.TRANSMITTED_PF: TransmittedChannels(
                               u_x=ramp, u_z=ramp)})
    assert not np.any(convolve(trace, wavelet, dt=dt).u_y)

    def leaky(u_x, u_z, x, y):
        return u_x, 1e-3 * u_x, u_z

    monkeypatch.setattr("poroseis.seismogram.rotate_to_3d", leaky)
    with pytest.raises(InvariantViolation):
        convolve(trace, wavelet, dt=dt)
