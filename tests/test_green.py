"""Quadrature, incident closed forms, and impulse-response assembly."""

import math

import numpy as np
import pytest

from poroseis.cagniard import WaveKind
from poroseis.errors import ConvergenceFailure, DomainError, NonFiniteIntegrand
from poroseis.green import (QuadratureConfig, Receiver, branch_arrivals,
                            green_trace, incident_trace, quadrature,
                            reflected_trace, rotate_to_3d, transmitted_trace)

LN_2_PLUS_SQRT3 = 1.3169578969248166  # integral of 1/sqrt(q^2-1) over (1, 2)


def test_quadrature_constant_is_exact():
    cfg = QuadratureConfig(n=7, sin_substitution=False)
    assert quadrature(lambda q: np.ones_like(q), 0.0, 1.0, cfg) \
        == pytest.approx(1.0, abs=1e-15)


def test_quadrature_empty_window():
    cfg = QuadratureConfig(n=100)
    assert quadrature(lambda q: q, 1.0, 1.0, cfg) == 0.0
    assert quadrature(lambda q: q, 2.0, 1.0, cfg) == 0.0


def test_quadrature_upper_sqrt_singularity():
    """The arcsine substitution integrates 1/sqrt(1-q^2) exactly."""
    f = lambda q: 1.0 / np.sqrt(1.0 - q * q)
    sin_cfg = QuadratureConfig(n=100, sin_substitution=True)
    plain_cfg = QuadratureConfig(n=100, sin_substitution=False)
    exact = 0.5 * math.pi
    assert quadrature(f, 0.0, 1.0, sin_cfg, "upper_sqrt") \
        == pytest.approx(exact, abs=1e-12)
    plain_err = abs(quadrature(f, 0.0, 1.0, plain_cfg, "upper_sqrt") - exact)
    assert plain_err > 1e-3


def test_quadrature_lower_sqrt_singularity():
    f = lambda q: 1.0 / np.sqrt(q * q - 1.0)
    cfg = QuadratureConfig(n=2000, sin_substitution=True)
    assert quadrature(f, 1.0, 2.0, cfg, "lower_sqrt") \
        == pytest.approx(LN_2_PLUS_SQRT3, abs=1e-7)


def test_quadrature_row_valued_integrand():
    cfg = QuadratureConfig(n=5000, sin_substitution=False)
    out = quadrature(lambda q: np.stack([np.ones_like(q), q], axis=1),
                     0.0, 1.0, cfg)
    assert out.shape == (2,)
    assert out[0] == pytest.approx(1.0, abs=1e-12)
    assert out[1] == pytest.approx(0.5, abs=1e-12)


def test_quadrature_flags_non_finite_values():
    cfg = QuadratureConfig(n=50, sin_substitution=False)

    def bad(q):
        out = np.ones_like(q)
        out[q > 0.5] = np.nan
        return out

    with pytest.raises(NonFiniteIntegrand):
        quadrature(bad, 0.0, 1.0, cfg)


def test_rotation_identities(rng):
    u_x = rng.normal(size=32)
    u_z = rng.normal(size=32)

    ax, ay, az = rotate_to_3d(u_x, u_z, 400.0, 0.0)
    np.testing.assert_allclose(ax, u_x)
    assert not np.any(ay)
    np.testing.assert_allclose(az, u_z)

    bx, by, _ = rotate_to_3d(u_x, u_z, 0.0, 250.0)
    assert not np.any(bx)
    np.testing.assert_allclose(by, u_x)

    cx, cy, _ = rotate_to_3d(u_x, u_z, 30.0, 40.0)
    np.testing.assert_allclose(np.hypot(cx, cy), np.abs(u_x), atol=1e-15)
    np.testing.assert_allclose(cy / 40.0, cx / 30.0, atol=1e-18)

    zx, zy, zz = rotate_to_3d(u_x, u_z, 0.0, 0.0)
    assert not np.any(zx) and not np.any(zy)
    np.testing.assert_allclose(zz, u_z)


def test_incident_closed_form(model, fluid_receiver):
    """Dirac pressure at r/V and a linear displacement ramp behind it."""
    t = np.linspace(0.0, 1.2, 400)
    inc = incident_trace(model, fluid_receiver, t)
    r = math.hypot(400.0, 533.0 - 500.0)
    v = model.acoustic.v_plus
    assert inc.dirac_time == pytest.approx(r / v, rel=1e-15)
    assert inc.dirac_amplitude == pytest.approx(
        1.0 / (4.0 * math.pi * v ** 2 * r), rel=1e-15)

    before = t <= inc.dirac_time
    assert not np.any(inc.u_x[before]) and not np.any(inc.u_z[before])
    after = ~before
    scale = 4.0 * math.pi * v ** 2 * r ** 3 * model.acoustic.rho_plus
    np.testing.assert_allclose(inc.u_z[after], 33.0 * t[after] / scale,
                               rtol=1e-13)
    np.testing.assert_allclose(inc.u_x[after] * 33.0,
                               inc.u_z[after] * 400.0, rtol=1e-13)


def test_incident_requires_fluid_side(model, porous_receiver):
    with pytest.raises(DomainError):
        incident_trace(model, porous_receiver, np.linspace(0.0, 1.0, 10))


def test_reflected_trace_quiet_then_live(model, fluid_receiver, fast_cfg):
    """Exact zeros before the reflected arrival, activity after it."""
    t0 = math.hypot(400.0, 1033.0) / 1500.0
    t = np.linspace(0.5, 1.1, 61)
    out = reflected_trace(model, fluid_receiver, t, fast_cfg)
    quiet = t < t0
    assert not np.any(out.xi[quiet])
    assert not np.any(out.u_x[quiet]) and not np.any(out.u_z[quiet])
    live = t > 1.01 * t0
    assert np.all(np.abs(out.xi[live]) > 0.0)
    assert np.all(np.abs(out.u_z[live]) > 0.0)


def test_reflected_requires_fluid_side(model, porous_receiver, fast_cfg):
    with pytest.raises(DomainError):
        reflected_trace(model, porous_receiver, np.linspace(0.5, 1.0, 8),
                        fast_cfg)


def test_transmitted_requires_porous_side(model, fluid_receiver, fast_cfg):
    with pytest.raises(DomainError):
        transmitted_trace(model, fluid_receiver, WaveKind.TRANSMITTED_PF,
                          np.linspace(0.5, 1.0, 8), fast_cfg)


def test_green_trace_sides(model, fluid_receiver, porous_receiver, fast_cfg):
    t = np.linspace(0.2, 0.4, 5)
    up = green_trace(model, fluid_receiver, t, fast_cfg)
    assert up.incident is not None and up.reflected is not None
    assert up.transmitted == {}

    down = green_trace(model, porous_receiver, t, fast_cfg)
    assert down.incident is None and down.reflected is None
    assert set(down.transmitted) == {WaveKind.TRANSMITTED_PF,
                                     WaveKind.TRANSMITTED_PS,
                                     WaveKind.TRANSMITTED_S}

    with pytest.raises(DomainError):
        green_trace(model, Receiver(x=400.0, y=0.0, z=0.0), t, fast_cfg)


def test_branch_arrival_bookkeeping(model, fluid_receiver, porous_receiver):
    up = branch_arrivals(model, fluid_receiver)
    assert set(up) == {WaveKind.REFLECTED}
    down = branch_arrivals(model, porous_receiver)
    assert set(down) == {WaveKind.TRANSMITTED_PF, WaveKind.TRANSMITTED_PS,
                         WaveKind.TRANSMITTED_S}
    assert down[WaveKind.TRANSMITTED_PF].t0 \
        < down[WaveKind.TRANSMITTED_S].t0 \
        < down[WaveKind.TRANSMITTED_PS].t0


def test_transmitted_onset_matches_arrival(model, porous_receiver, fast_cfg):
    """Each branch is exactly zero until its own first arrival."""
    arr = branch_arrivals(model, porous_receiver)
    for kind, a in arr.items():
        onset = a.t_h1 if a.head_exists else a.t0
        t = np.linspace(0.9 * onset, 1.2 * onset, 31)
        out = transmitted_trace(model, porous_receiver, kind, t, fast_cfg)
        quiet = t < onset * (1.0 - 1e-9)
        assert not np.any(out.u_x[quiet]) and not np.any(out.u_z[quiet])
        live = t > 1.05 * onset
        assert np.any(np.abs(out.u_z[live]) > 0.0)


def _per_sample_trace(model, geom, branch, t_grid, cfg, n_channels):
    """Reference time loop: one sample at a time through quadrature()."""
    from poroseis import green
    from poroseis.cagniard import arrival_times, head_window, q0_of_t

    arr = arrival_times(geom, branch, model.v_max)
    regime, t_use = green._classify(t_grid, arr)
    out = np.zeros((t_grid.size, n_channels))
    for i, (reg, t) in enumerate(zip(regime, t_use)):
        t = float(t)
        if reg in (green._MIXED, green._VOLUME):
            out[i] += quadrature(
                lambda q: green._volume_values(model, geom, branch, t, q),
                0.0, q0_of_t(t, geom, branch), cfg, "upper_sqrt")
        if reg in (green._HEAD, green._MIXED):
            window = head_window(t, arr, geom, branch, model.v_max)
            if window is not None:
                out[i] += quadrature(
                    lambda q: green._head_values(model, geom, branch, t, q),
                    window[0], window[1], cfg,
                    "lower_sqrt" if reg == green._MIXED else "regular")
    return out / math.pi ** 2, regime


def test_time_loop_matches_per_sample_quadrature(model, monkeypatch):
    """The batched time loop gives the per-sample traces to 1e-12 of peak,
    on volume, head and mixed windows, one window per interface solve; the
    engine solves in closed form, never calls the LAPACK solve and passes
    every solve through the shared singularity gates once."""
    from poroseis import coefficients, green
    from poroseis.cagniard import (arrival_times, reflected_branch,
                                   transmitted_branches)

    batches = []
    gates = []
    lapack_calls = []
    solve = green._solve_structured
    check = coefficients._check_solution
    lapack = coefficients._solve_batch

    def spy(entries, q_x, q_y):
        batches.append(np.size(q_x))
        return solve(entries, q_x, q_y)

    def gate_spy(*args):
        gates.append(np.size(args[2]))
        return check(*args)

    def lapack_spy(*args):
        lapack_calls.append(args)
        return lapack(*args)

    monkeypatch.setattr(green, "_solve_structured", spy)
    monkeypatch.setattr(coefficients, "_check_solution", gate_spy)
    for module in (coefficients, green):
        monkeypatch.setattr(module, "_solve_batch", lapack_spy, raising=False)
    cfg = QuadratureConfig(n=64)
    wide = Receiver(x=800.0, y=0.0, z=-200.0)
    branches = transmitted_branches(model.acoustic, model.poro)
    cases = [(Receiver(x=400.0, y=0.0, z=533.0),
              reflected_branch(model.acoustic), 3),
             (wide, branches[WaveKind.TRANSMITTED_PF], 2),
             (wide, branches[WaveKind.TRANSMITTED_PS], 2)]
    seen = set()
    for receiver, branch, n_channels in cases:
        geom = green._geometry_for(model, receiver)
        arr = arrival_times(geom, branch, model.v_max)
        onset = arr.t_h1 if arr.head_exists else arr.t0
        t = np.linspace(0.98 * onset, 1.3 * onset, 120)
        expect, regime = _per_sample_trace(model, geom, branch, t, cfg,
                                           n_channels)
        seen |= {(branch.kind, green._REGIME_NAMES[r]) for r in regime}
        batches.clear()
        gates.clear()
        got = green._contour_trace(model, geom, branch, t, cfg, n_channels)
        assert set(batches) == {cfg.n}
        assert gates == batches
        assert not lapack_calls
        peak = np.max(np.abs(expect), axis=0)
        assert np.all(np.abs(got - expect) <= 1e-12 * peak), branch.kind
    assert {(WaveKind.REFLECTED, "volume"),
            (WaveKind.TRANSMITTED_PF, "volume"),
            (WaveKind.TRANSMITTED_PS, "head"),
            (WaveKind.TRANSMITTED_PS, "mixed")} <= seen


def test_volume_nodes_take_few_complex_square_roots(model, porous_receiver,
                                                   monkeypatch):
    """The contour hands its vertical slownesses to the interface solve:
    each volume node of the porous receiver takes six complex square roots
    (the two kappas at the seed and at the root, and the two porous ones
    the contour does not carry), not one pair per Newton step."""
    from poroseis import branch_math, cagniard

    counts = {"roots": 0, "nodes": 0}
    sqrt = branch_math.branch_sqrt
    solve = cagniard._gamma_vec

    def counted_sqrt(arg):
        counts["roots"] += np.size(arg)
        return sqrt(arg)

    def counted_solve(t, q, *args):
        counts["nodes"] += np.size(q)
        return solve(t, q, *args)

    monkeypatch.setattr(branch_math, "branch_sqrt", counted_sqrt)
    monkeypatch.setattr(cagniard, "branch_sqrt", counted_sqrt)
    monkeypatch.setattr(cagniard, "_gamma_vec", counted_solve)
    t = np.arange(0.5, 0.905, 1.0 / 600.0)
    green_trace(model, porous_receiver, t, QuadratureConfig(n=64))
    assert counts["nodes"] > 0
    assert counts["roots"] <= 6 * counts["nodes"]


def test_window_failure_names_its_sample(model, porous_receiver, monkeypatch):
    """A non-finite node of one window is reported with the t, regime and
    branch of the sample it belongs to."""
    from poroseis import cagniard

    t = np.linspace(0.5, 0.6, 80)
    target = float(t[45])
    solve = cagniard._gamma_vec

    def poisoned(t_arr, q, *args):
        gam, dgdt, res, k_top, k_bot = solve(t_arr, q, *args)
        hit = np.flatnonzero(np.broadcast_to(t_arr, np.shape(q)) == target)
        if hit.size:
            dgdt[hit[3]] = np.nan
        return gam, dgdt, res, k_top, k_bot

    monkeypatch.setattr(cagniard, "_gamma_vec", poisoned)
    with pytest.raises(NonFiniteIntegrand) as info:
        transmitted_trace(model, porous_receiver, WaveKind.TRANSMITTED_PF, t,
                          QuadratureConfig(n=64))
    assert f"[t={target}, regime=volume, branch=transmitted_pf]" \
        in str(info.value)


def test_window_inversion_failure_names_its_sample(model, porous_receiver,
                                                   monkeypatch):
    """A window inversion that fails at one time of the vectorized call is
    reported with that sample's t, regime and branch."""
    from poroseis import cagniard

    t = np.linspace(0.5, 0.6, 80)
    target = float(t[30])

    def failing(t_arr, geom, branch):
        raise ConvergenceFailure(target, 0.0, branch.kind.value, "stub")

    monkeypatch.setattr(cagniard, "_q0_vec", failing)
    with pytest.raises(ConvergenceFailure) as info:
        transmitted_trace(model, porous_receiver, WaveKind.TRANSMITTED_PF, t,
                          QuadratureConfig(n=64))
    assert f"[t={target}, regime=volume, branch=transmitted_pf]" \
        in str(info.value)
