"""The Laplace-domain reference integrals and the brute-force arrival oracle."""

import math

import numpy as np
import pytest

from poroseis.cagniard import (Geometry, WaveBranch, WaveKind,
                               fictitious_arrival, transmitted_branches)
from poroseis.errors import DomainError, NotConverged
from poroseis.green import Receiver, incident_trace
from poroseis.oracle import (LaplaceProbe, default_probe, grid_min_arrival,
                             incident_pressure_transform, laplace_of_trace,
                             laplace_reference)


def test_laplace_of_smooth_ramp():
    """g(t) = t transforms to 1/s^2 once the window is long enough."""
    s = 30.0
    dt = 1e-4
    t = np.arange(0.0, 1.0 + dt, dt)
    val = laplace_of_trace(t, t, s)
    assert val == pytest.approx(1.0 / s ** 2, rel=1e-6)


def test_laplace_of_centered_step():
    """A jump halfway across a cell is integrated exactly by the midpoint rule."""
    s = 25.0
    dt = 2e-4
    t = np.arange(0.0, 1.0, dt)
    m = 1800
    g = np.zeros_like(t)
    g[m + 1:] = 1.0
    t_jump = t[m] + 0.5 * dt
    val = laplace_of_trace(g, t, s)
    assert val == pytest.approx(math.exp(-s * t_jump) / s, rel=1e-5)


def test_laplace_of_trace_needs_long_window():
    t = np.linspace(0.0, 0.5, 100)
    with pytest.raises(ValueError):
        laplace_of_trace(np.ones_like(t), t, 20.0)


def test_incident_transform_uses_direct_distance():
    from poroseis.green import HalfspaceModel
    from poroseis.media import AcousticMedium, PoroelasticParams, derive_poroelastic

    ac = AcousticMedium(rho_plus=1020.0, v_plus=1500.0)
    poro = derive_poroelastic(PoroelasticParams(
        rho_s=2500.0, rho_f=1020.0, phi=0.4, a=2.0, k_s=16.0554e9,
        k_f=2.295e9, k_b=10e9, mu=9.63342e9))
    model = HalfspaceModel(acoustic=ac, poro=poro, source_height=500.0)

    s = 20.0
    plane = incident_pressure_transform(model, Receiver(500.0, 0.0, 533.0), s)
    tilted = incident_pressure_transform(model, Receiver(300.0, 400.0, 533.0), s)
    assert plane == tilted
    r = math.hypot(500.0, 33.0)
    assert plane == pytest.approx(
        math.exp(-s * r / 1500.0) / (4.0 * math.pi * 1500.0 ** 2 * r),
        rel=1e-15)


def test_probe_validation(fluid_receiver):
    with pytest.raises(ValueError):
        LaplaceProbe(s=-1.0, receiver=fluid_receiver, q_width=1e-3, n=64)
    with pytest.raises(ValueError):
        LaplaceProbe(s=20.0, receiver=fluid_receiver, q_width=0.0, n=64)
    with pytest.raises(ValueError):
        LaplaceProbe(s=20.0, receiver=fluid_receiver, q_width=1e-3, n=4)


def test_reference_rejects_unknown_channel(model, fluid_receiver):
    probe = default_probe(model, fluid_receiver, 20.0, n=16)
    with pytest.raises(ValueError):
        laplace_reference(probe, model, "u_ref_y")


def test_reference_enforces_receiver_side(model, fluid_receiver,
                                          porous_receiver):
    up = default_probe(model, fluid_receiver, 20.0, n=16)
    with pytest.raises(DomainError):
        laplace_reference(up, model, "u_s_z")
    down = default_probe(model, porous_receiver, 20.0, n=16)
    with pytest.raises(DomainError):
        laplace_reference(down, model, "xi_ref")


def test_reference_enforces_edge_decay(model, fluid_receiver):
    wide = default_probe(model, fluid_receiver, 20.0, n=64)
    starved = LaplaceProbe(s=20.0, receiver=fluid_receiver,
                           q_width=wide.q_width / 10.0, n=64)
    with pytest.raises(ValueError):
        laplace_reference(starved, model, "xi_ref")


def test_reference_flags_unconverged_grids(model, porous_receiver):
    probe = default_probe(model, porous_receiver, 20.0, n=8)
    with pytest.raises(NotConverged):
        laplace_reference(probe, model, "u_s_z")


def test_incident_oracle_matches_analytic_transform(model, fluid_receiver):
    """The double integral reproduces the closed-form direct-wave transform.

    Behind the front at r/V the vertical displacement is the linear ramp
    (z - h) * t / (4 pi V^2 r^3 rho); its transform is known in closed form
    and exercises the full folded-quadrature path.
    """
    s = 20.0
    probe = default_probe(model, fluid_receiver, s, n=160, channel="u_inc_z")
    got = laplace_reference(probe, model, "u_inc_z")

    z, h = 533.0, 500.0
    v = model.acoustic.v_plus
    rho = model.acoustic.rho_plus
    r = math.hypot(400.0, z - h)
    t0 = r / v
    expect = (z - h) / (4.0 * math.pi * v ** 2 * r ** 3 * rho) \
        * math.exp(-s * t0) * (t0 / s + 1.0 / s ** 2)
    assert got == pytest.approx(expect, rel=1e-6)


def test_incident_trace_transform_roundtrip(model, fluid_receiver):
    """Sampled direct-wave ramp, transformed numerically, hits the oracle."""
    s = 20.0
    dt = 5e-4
    r = math.hypot(400.0, 33.0)
    t0 = r / 1500.0
    k_back = 40
    t = (t0 - (k_back + 0.5) * dt) + np.arange(k_back + 2400) * dt
    inc = incident_trace(model, fluid_receiver, t)
    val = laplace_of_trace(inc.u_z, t, s)

    probe = default_probe(model, fluid_receiver, s, n=160, channel="u_inc_z")
    ref = laplace_reference(probe, model, "u_inc_z")
    assert val == pytest.approx(ref, rel=1e-4)


def test_grid_oracle_confirms_stationary_ray(acoustic, poro):
    branches = transmitted_branches(acoustic, poro)
    cases = [
        (Geometry(h=500.0, x=400.0, z=-533.0), branches[WaveKind.TRANSMITTED_PF], 0.0),
        (Geometry(h=500.0, x=400.0, z=-533.0), branches[WaveKind.TRANSMITTED_PS], 3e-4),
        (Geometry(h=500.0, x=800.0, z=-200.0), branches[WaveKind.TRANSMITTED_S], 1e-3),
        (Geometry(h=120.0, x=60.0, z=-900.0), branches[WaveKind.TRANSMITTED_PF], 5e-4),
        (Geometry(h=500.0, x=0.0, z=-300.0), branches[WaveKind.TRANSMITTED_PS], 2e-4),
    ]
    for geom, branch, q in cases:
        fast = fictitious_arrival(q, geom, branch)
        slow = grid_min_arrival(q, geom, branch)
        assert abs(fast - slow) <= 1e-8


def test_grid_oracle_rejects_coarse_scan(acoustic, poro):
    branch = transmitted_branches(acoustic, poro)[WaveKind.TRANSMITTED_PF]
    with pytest.raises(ValueError):
        grid_min_arrival(0.0, Geometry(h=500.0, x=400.0, z=-533.0), branch,
                         n=5000)


def test_grid_cache_is_keyed_on_media_values(acoustic, poro_params,
                                             monkeypatch):
    """Equal media share a grid solution; different media never do."""
    from dataclasses import replace

    from poroseis import oracle
    from poroseis.green import HalfspaceModel
    from poroseis.media import AcousticMedium, derive_poroelastic

    monkeypatch.setattr(oracle, "_SOLVE_CACHE", {})
    first = HalfspaceModel(acoustic, derive_poroelastic(poro_params), 500.0)
    twin = HalfspaceModel(AcousticMedium(rho_plus=acoustic.rho_plus,
                                         v_plus=acoustic.v_plus),
                          derive_poroelastic(replace(poro_params)), 300.0)
    stiffer = HalfspaceModel(acoustic, derive_poroelastic(
        replace(poro_params, mu=1.1 * poro_params.mu)), 500.0)
    q_width, n = 1e-3, 8

    base = oracle._grid_solution(first, q_width, n)
    assert oracle._grid_solution(twin, q_width, n) is base
    other = oracle._grid_solution(stiffer, q_width, n)
    assert other is not base
    assert not np.array_equal(other[-1], base[-1])
    assert len(oracle._SOLVE_CACHE) == 2
