"""End-to-end acceptance gates for the fixture model.

One test per numbered criterion; each pytest -v line is the pass/fail
record.  Expected values come from closed-form distances, the independent
Laplace-domain oracle, and the brute-force arrival scanner; none are
read back from the engine under test.
"""

import math

import numpy as np
import pytest

from poroseis import cagniard
from poroseis.cagniard import (Geometry, WaveKind, arrival_times,
                               fictitious_arrival, head_window, q0_of_t,
                               reflected_branch, transmitted_branches,
                               volume_window)
from poroseis.cli import verify_grid
from poroseis.green import (QuadratureConfig, Receiver, branch_arrivals,
                            green_trace, reflected_trace, transmitted_trace)
from poroseis.oracle import (default_probe, grid_min_arrival, laplace_of_trace,
                             laplace_reference)
from poroseis.seismogram import SourceWavelet, convolve, convolve_sampled, _kernel

DT = 2.5e-4
WAVELET = SourceWavelet(f0=15.0)

T_INCIDENT = math.hypot(400.0, 33.0) / 1500.0
T_REFLECTED = math.hypot(400.0, 1033.0) / 1500.0


@pytest.fixture(scope="module")
def fixture_grid():
    return np.arange(4801) * DT


@pytest.fixture(scope="module")
def fluid_green(model, fluid_receiver, quad_cfg, fixture_grid):
    return green_trace(model, fluid_receiver, fixture_grid, quad_cfg)


def first_nonzero_time(t, values):
    idx = np.nonzero(values)[0]
    assert idx.size, "channel is identically zero"
    return float(t[idx[0]])


def test_criterion_1_biot_velocities(poro):
    """The fixture porous medium propagates at 3677, 1060 and 2378 m/s."""
    assert poro.v_pf == pytest.approx(3677.0, rel=5e-4)
    assert poro.v_ps == pytest.approx(1060.0, rel=5e-4)
    assert poro.v_s == pytest.approx(2378.0, rel=5e-4)
    assert poro.v_pf > poro.v_s > poro.v_ps


def test_criterion_2_fluid_arrivals_and_quiet_onsets(model, fluid_receiver,
                                                     fluid_green, fixture_grid):
    """Direct and reflected arrivals hit the distance formulas to 1e-9 s
    and every channel is exactly zero until the wavelet can reach it."""
    assert abs(fluid_green.incident.dirac_time - T_INCIDENT) <= 1e-9
    arr = branch_arrivals(model, fluid_receiver)[WaveKind.REFLECTED]
    assert abs(arr.t0 - T_REFLECTED) <= 1e-9

    seis = convolve(fluid_green, WAVELET, DT)
    lo, _ = WAVELET.support()
    t = fixture_grid
    onset_inc = T_INCIDENT + lo
    quiet = t < onset_inc - DT
    for channel in (seis.p, seis.u_x, seis.u_z):
        assert not np.any(channel[quiet])
        assert abs(first_nonzero_time(t, channel) - onset_inc) <= DT

    f_mid, first = _kernel(WAVELET, DT, derivative=False)
    refl_only = convolve_sampled(fluid_green.reflected.xi, f_mid, first, DT)
    onset_ref = T_REFLECTED + lo
    assert not np.any(refl_only[t < onset_ref - DT])
    assert abs(first_nonzero_time(t, refl_only) - onset_ref) <= DT


def test_criterion_3_contour_residuals(model, acoustic, poro):
    """Travel-time residual of every contour point stays below 1e-10 s on
    100x100 grids spanning quiet, head, mixed and volume regimes."""
    cases = [(Geometry(h=500.0, x=400.0, z=533.0), reflected_branch(acoustic))]
    cases += [(Geometry(h=500.0, x=400.0, z=-533.0), b)
              for b in transmitted_branches(acoustic, poro).values()]
    v_max = model.v_max

    fracs = np.linspace(0.005, 0.995, 100)
    head_points = 0
    mixed_times = 0
    for geom, branch in cases:
        arr = arrival_times(geom, branch, v_max)
        if arr.head_exists:
            t_vals = np.concatenate([
                np.linspace(1.0001 * arr.t_h1, 0.9999 * arr.t_h2, 40),
                np.linspace(1.001 * arr.t0, 1.5 * arr.t0, 60),
            ])
        else:
            t_vals = np.linspace(1.001 * arr.t0, 1.5 * arr.t0, 100)

        volume_points = 0
        for t in t_vals:
            t = float(t)
            vol = volume_window(t, arr, geom, branch) if t > arr.t0 else None
            head = head_window(t, arr, geom, branch, v_max)
            if vol is not None and head is not None:
                mixed_times += 1
            if vol is not None:
                _, _, res, _, _ = cagniard._gamma_vec(t, fracs * vol[1],
                                                      geom, branch)
                assert np.max(res) <= 1e-10
                volume_points += res.size
            if head is not None:
                lo, hi = head
                _, _, res = cagniard._upsilon_vec(t, lo + fracs * (hi - lo),
                                                  geom, branch, v_max)
                assert np.max(res) <= 1e-10
                head_points += res.size
        assert volume_points >= 5000, branch.kind.value
    assert head_points >= 2000
    assert mixed_times >= 5


def test_criterion_4_arrival_inversion_roundtrip(acoustic, poro):
    """Inverting the volume arrival and mapping back stays within 1e-9*t
    over 1000 times per transmitted branch."""
    geom = Geometry(h=500.0, x=400.0, z=-533.0)
    for branch in transmitted_branches(acoustic, poro).values():
        t0 = fictitious_arrival(0.0, geom, branch)
        for t in np.linspace(1.001 * t0, 3.0 * t0, 1000):
            t = float(t)
            q = q0_of_t(t, geom, branch)
            assert abs(fictitious_arrival(q, geom, branch) - t) <= 1e-9 * t


def test_criterion_5_laplace_oracle_equivalence(model, fluid_receiver,
                                                porous_receiver, quad_cfg):
    """Laplace transforms of all nine trace channels match the independent
    slowness-plane double integral to 1e-3 relative at s = 20 and 40."""
    dt = 5e-4
    worst = (0.0, "")
    for s in (20.0, 40.0):
        channels = []
        grid = verify_grid(model, fluid_receiver, WaveKind.REFLECTED, s, dt)
        refl = reflected_trace(model, fluid_receiver, grid, quad_cfg)
        channels += [("xi_ref", refl.xi, grid, fluid_receiver),
                     ("u_ref_x", refl.u_x, grid, fluid_receiver),
                     ("u_ref_z", refl.u_z, grid, fluid_receiver)]
        porous_names = {WaveKind.TRANSMITTED_PF: ("u_pf_x", "u_pf_z"),
                        WaveKind.TRANSMITTED_PS: ("u_ps_x", "u_ps_z"),
                        WaveKind.TRANSMITTED_S: ("u_s_x", "u_s_z")}
        for kind, (name_x, name_z) in porous_names.items():
            grid = verify_grid(model, porous_receiver, kind, s, dt)
            tr = transmitted_trace(model, porous_receiver, kind, grid, quad_cfg)
            channels += [(name_x, tr.u_x, grid, porous_receiver),
                         (name_z, tr.u_z, grid, porous_receiver)]

        for name, values, grid, rec in channels:
            trace_val = laplace_of_trace(values, grid, s)
            probe = default_probe(model, rec, s, n=240)
            oracle_val = laplace_reference(probe, model, name)
            rel = abs(trace_val - oracle_val) / abs(oracle_val)
            if rel > worst[0]:
                worst = (rel, f"{name} at s={s}")
            assert rel <= 1e-3, (
                f"{name} at s={s}: trace {trace_val:.9e} vs oracle "
                f"{oracle_val:.9e}, rel {rel:.3e}")
    print(f"worst channel {worst[1]}: rel {worst[0]:.3e}")


def test_criterion_6_quadrature_convergence(model, fluid_receiver):
    """Doubling the node count leaves the reflected pressure primitive
    unchanged to 1e-4; the plain midpoint rule at n = 8000 is required to
    match the substituted rule to 1e-4 as well.

    The second clause cannot hold: the volume window carries an inverse
    square-root integrand at its upper edge, where the plain midpoint rule
    converges like n**-0.5.  At n = 8000 that residual error is near 3e-3,
    thirty times the gate; the substitution exists precisely to remove it.
    The assertion states the gate anyway and this test stays red.
    """
    times = T_REFLECTED * (1.02 + 0.43 * np.arange(20) / 19.0)

    def xi(n, sin_substitution=True):
        cfg = QuadratureConfig(n=n, sin_substitution=sin_substitution)
        return reflected_trace(model, fluid_receiver, times, cfg).xi

    base = xi(2000)
    doubled = xi(4000)
    change = np.max(np.abs(doubled - base) / np.abs(doubled))
    assert change < 1e-4

    substituted = xi(8000)
    plain = xi(8000, sin_substitution=False)
    disagreement = np.max(np.abs(plain - substituted) / np.abs(substituted))
    assert disagreement <= 1e-4, (
        f"plain midpoint vs substituted quadrature at n=8000: worst relative "
        f"difference {disagreement:.3e} exceeds 1e-4; the plain rule meets an "
        f"inverse-square-root endpoint and converges like n**-0.5, so no "
        f"fixed n of this order can reach the gate")


def test_criterion_7_porous_phase_onsets(model, porous_receiver, quad_cfg,
                                         fixture_grid):
    """The buried receiver records exactly three phases whose onsets sit
    within 1 ms of the predicted first arrivals, ordered fast P, S, slow P."""
    arrivals = branch_arrivals(model, porous_receiver)
    assert set(arrivals) == {WaveKind.TRANSMITTED_PF, WaveKind.TRANSMITTED_S,
                             WaveKind.TRANSMITTED_PS}

    lo, _ = WAVELET.support()
    f_mid, first = _kernel(WAVELET, DT, derivative=False)
    onsets = {}
    for kind, arr in arrivals.items():
        tr = transmitted_trace(model, porous_receiver, kind, fixture_grid,
                               quad_cfg)
        wave = np.hypot(convolve_sampled(tr.u_x, f_mid, first, DT),
                        convolve_sampled(tr.u_z, f_mid, first, DT))
        predicted = (arr.t_h1 if arr.head_exists else arr.t0) + lo
        detected = first_nonzero_time(fixture_grid, wave)
        assert abs(detected - predicted) <= 1e-3, kind.value
        onsets[kind] = detected

    assert onsets[WaveKind.TRANSMITTED_PF] < onsets[WaveKind.TRANSMITTED_S] \
        < onsets[WaveKind.TRANSMITTED_PS]


def test_criterion_8_derivative_route_equivalence(fluid_green):
    """Differentiating the convolved pressure primitive and convolving with
    the differentiated wavelet give the same trace to 1e-3 of peak."""
    f_mid, first = _kernel(WAVELET, DT, derivative=False)
    df_mid, _ = _kernel(WAVELET, DT, derivative=True)
    xi = fluid_green.reflected.xi
    smooth = convolve_sampled(xi, f_mid, first, DT)
    direct = convolve_sampled(xi, df_mid, first, DT)
    differenced = (smooth[2:] - smooth[:-2]) / (2.0 * DT)
    peak = np.max(np.abs(direct))
    assert np.max(np.abs(differenced - direct[1:-1])) <= 1e-3 * peak


def test_criterion_9_arrival_scanner_agreement(acoustic, poro):
    """Stationary-ray arrivals match a 1e5-point brute-force scan to 1e-8 s
    on 100 randomized cases; arrivals are even and increasing in slowness."""
    rng = np.random.default_rng(20240909)
    kinds = [reflected_branch(acoustic)] \
        + list(transmitted_branches(acoustic, poro).values())
    for _ in range(100):
        branch = kinds[rng.integers(len(kinds))]
        h = float(rng.uniform(50.0, 1000.0))
        x = float(rng.uniform(0.0, 1500.0))
        depth = float(rng.uniform(20.0, 1200.0))
        z = depth if branch.kind is WaveKind.REFLECTED else -depth
        q = float(rng.uniform(0.0, 3e-3))
        geom = Geometry(h=h, x=x, z=z)
        fast = fictitious_arrival(q, geom, branch)
        slow = grid_min_arrival(q, geom, branch)
        assert abs(fast - slow) <= 1e-8

    geom_up = Geometry(h=500.0, x=400.0, z=533.0)
    geom_down = Geometry(h=500.0, x=400.0, z=-533.0)
    for branch in kinds:
        geom = geom_up if branch.kind is WaveKind.REFLECTED else geom_down
        qs = np.linspace(0.0, 3e-3, 50)
        ts = np.array([fictitious_arrival(float(q), geom, branch) for q in qs])
        assert np.all(np.diff(ts) > 0.0)
        for q in (1e-4, 7e-4, 2.5e-3):
            assert fictitious_arrival(q, geom, branch) \
                == fictitious_arrival(-q, geom, branch)
