"""Quadrature, incident closed forms, and impulse-response assembly."""

import math

import numpy as np
import pytest

from poroseis.branch_math import kappa
from poroseis.cagniard import (Geometry, WaveKind, arrival_times,
                               reflected_branch)
from poroseis.coefficients import _solve_structured, _structural_entries
from poroseis.errors import ConvergenceFailure, DomainError, NonFiniteIntegrand
from poroseis.green import (QuadratureConfig, Receiver, _window_rule,
                            branch_arrivals, green_trace, incident_trace,
                            quadrature, reflected_trace, rotate_to_3d,
                            transmitted_trace)

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
    with pytest.raises(ValueError, match="starts at q = 0"):
        quadrature(f, 0.5, 1.0, sin_cfg, "upper_sqrt")


@pytest.mark.parametrize("n", [16, 2000])
def test_upper_sqrt_rule_is_the_arcsine_map_from_zero(n, rng):
    """The shared theta grid gives the nodes and weights of q = b sin(theta)
    over (0, pi/2) bit for bit, as the arcsine map from a = 0 does."""
    b = rng.uniform(1e-5, 1e-3, 7)
    nodes, weights = _window_rule(np.zeros(b.size), b,
                                  QuadratureConfig(n=n), "upper_sqrt")
    b = b[:, None]
    th_lo = np.arcsin(np.clip(0.0 / b, 0.0, 1.0))
    h = (0.5 * math.pi - th_lo) / n
    theta = th_lo + (np.arange(n) + 0.5) * h
    assert np.array_equal(nodes, b * np.sin(theta))
    assert np.array_equal(weights, b * np.cos(theta) * h)


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

    def bad_row(q):
        out = np.ones((q.size, 3))
        out[q > 0.3, 1] = np.inf
        return out

    # Midpoint nodes are 0.01, 0.03, ...: the first past 0.5 is 0.51 and
    # the first past 0.3 is 0.31.
    with pytest.raises(NonFiniteIntegrand) as info:
        quadrature(bad, 0.0, 1.0, cfg)
    assert info.value.q == pytest.approx(0.51, abs=1e-15)
    with pytest.raises(NonFiniteIntegrand) as info:
        quadrature(bad_row, 0.0, 1.0, cfg)
    assert info.value.q == pytest.approx(0.31, abs=1e-15)
    assert list(info.value.value) == [1.0, np.inf, 1.0]


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


def _onset_band(onset):
    """Samples just past an onset, inside the 1e-12 * t edge band."""
    return onset + np.array([1e-14, 1e-13, 0.5e-12 * onset])


def test_reflected_trace_quiet_then_live(model, fluid_receiver, fast_cfg):
    """Exact zeros before the reflected arrival and inside the edge band
    just past it, activity after it."""
    t0 = math.hypot(400.0, 1033.0) / 1500.0
    band = _onset_band(branch_arrivals(model, fluid_receiver)[
        WaveKind.REFLECTED].t0)
    t = np.sort(np.concatenate([np.linspace(0.5, 1.1, 61), band]))
    out = reflected_trace(model, fluid_receiver, t, fast_cfg)
    quiet = (t < t0) | np.isin(t, band)
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


def test_receiver_on_the_interface_is_rejected(model):
    """The arrivals of a receiver at z = 0 raise ValueError from Geometry,
    not a division-by-zero warning in the crossing solve (a warning fails
    the suite)."""
    with pytest.raises(ValueError, match="interface"):
        arrival_times(Geometry(h=500.0, x=400.0, z=0.0),
                      reflected_branch(model.acoustic), model.v_max)
    with pytest.raises(ValueError, match="interface"):
        branch_arrivals(model, Receiver(x=400.0, y=0.0, z=0.0))


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
    """Each branch is exactly zero until its own first arrival and inside
    the edge band just past it."""
    arr = branch_arrivals(model, porous_receiver)
    for kind, a in arr.items():
        onset = a.t_h1 if a.head_exists else a.t0
        band = _onset_band(onset)
        t = np.sort(np.concatenate([np.linspace(0.9 * onset, 1.2 * onset, 31),
                                    band]))
        out = transmitted_trace(model, porous_receiver, kind, t, fast_cfg)
        quiet = (t < onset * (1.0 - 1e-9)) | np.isin(t, band)
        assert not np.any(out.u_x[quiet]) and not np.any(out.u_z[quiet])
        live = t > 1.05 * onset
        assert np.any(np.abs(out.u_z[live]) > 0.0)


def test_transmitted_samples_just_past_the_arrival(model, fluid_receiver,
                                                   porous_receiver, quad_cfg):
    """Every edge of the fixture, the reflected, P-fast and S arrivals t0
    and the P-slow t_h1, t0 and t_h2, is followed by finite, live samples
    at n = 2000: 30 log-spaced ones from 2e-12*t, just outside the edge
    band, to 1e-4 s past it.

    Samples carry no state, so one call per branch judges all its edges.
    Next to t0 the window inversion and the contour read one excess of t
    over t0(q), so the top quadrature node stays inside the window."""
    arrivals = {**branch_arrivals(model, fluid_receiver),
                **branch_arrivals(model, porous_receiver)}
    for kind, a in arrivals.items():
        edges = [a.t0] + ([a.t_h1, a.t_h2] if a.head_exists else [])
        t = np.sort(np.concatenate(
            [e + np.geomspace(2e-12 * e, 1e-4, 30) for e in edges]))
        if kind is WaveKind.REFLECTED:
            out = reflected_trace(model, fluid_receiver, t, quad_cfg)
            channels = np.stack([out.xi, out.u_x, out.u_z])
        else:
            out = transmitted_trace(model, porous_receiver, kind, t, quad_cfg)
            channels = np.stack([out.u_x, out.u_z])
        assert np.all(np.isfinite(channels)), kind
        assert np.all(out.u_z != 0.0), kind


def test_sample_just_past_a_head_arrival_carries_the_volume_wave(
        model, porous_receiver, quad_cfg):
    """The fixture P-slow arrival t0 lies inside its head segment, where
    the volume wave switches on with a jump.  A sample 4 ulp past t0 is
    taken at its own time, so it already carries the volume wave: it agrees
    with the sample at t0*(1 + 3e-12) to 1 % on both channels, not with
    the head wave just before t0, whose u_x has the opposite sign."""
    t0 = branch_arrivals(model, porous_receiver)[WaveKind.TRANSMITTED_PS].t0
    t = np.array([t0 + 4.0 * np.spacing(t0), t0 * (1.0 + 3e-12)])
    out = transmitted_trace(model, porous_receiver, WaveKind.TRANSMITTED_PS,
                            t, quad_cfg)
    for channel in (out.u_x, out.u_z):
        assert abs(channel[0] / channel[1] - 1.0) <= 1e-2


@pytest.mark.parametrize("n", [2000, 8000])
def test_reflected_jump_matches_the_ray_limit(model, fluid_receiver, n):
    """Just past the reflected arrival xi tends to the geometric-ray limit
    R*kappa_plus/(2*pi*r): the plane-wave reflection coefficient R at the
    ray parameter p0 = x/(r*V), with q = 0, over the image distance r.

    Two samples at t0*(1 + eps) and t0*(1 + 2*eps), eps = 1e-10, are
    extrapolated linearly to eps -> 0; they lie 1e-10*t0 past the arrival,
    where the window end and the contour agree only if neither cancels in
    t."""
    x, r = fluid_receiver.x, math.hypot(fluid_receiver.x,
                                        fluid_receiver.z + model.source_height)
    ac, pd = model.acoustic, model.poro
    g0, q = np.array([-1j * x / (r * ac.v_plus)]), np.zeros(1)
    kappas = [kappa(v, g0, q) for v in (ac.v_plus, pd.v_pf, pd.v_ps, pd.v_s)]
    refl = _solve_structured(_structural_entries(ac, pd, g0 * g0, *kappas),
                             g0, q)[0][0]
    limit = (refl * kappas[0][0]).real / (2.0 * math.pi * r)
    t0 = branch_arrivals(model, fluid_receiver)[WaveKind.REFLECTED].t0
    eps = 1e-10
    xi = reflected_trace(model, fluid_receiver,
                         t0 * (1.0 + np.array([eps, 2.0 * eps])),
                         QuadratureConfig(n=n)).xi
    assert abs((2.0 * xi[0] - xi[1]) / limit - 1.0) <= 1e-8


def _per_sample_trace(model, geom, branch, t_grid, cfg, n_channels):
    """Reference time loop: one sample at a time through quadrature()."""
    from poroseis import green
    from poroseis.cagniard import arrival_times, head_window, q0_of_t

    arr = arrival_times(geom, branch, model.v_max)
    regime = green._classify(t_grid, arr)
    out = np.zeros((t_grid.size, n_channels))
    for i, (reg, t) in enumerate(zip(regime, t_grid)):
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
    """The chunked time loop gives the per-sample traces bit for bit, on
    volume, head and mixed windows of the reflected and transmitted
    branches and within 5e-13 * t of the onset, t0 and t_h2, with a
    node budget of three windows, so that chunk boundaries fall inside
    each group of windows and between the two windows of mixed samples.
    Every node of the per-window loop is solved and gated exactly once,
    and chunks do join windows; the engine solves in closed form and never
    calls the LAPACK solve."""
    from poroseis import coefficients, green
    from poroseis.cagniard import (arrival_times, reflected_branch,
                                   transmitted_branches)

    points = []
    gates = []
    lapack_calls = []
    solve = green._solve_structured
    check = coefficients._check_solution
    lapack = coefficients._solve_batch

    def spy(entries, q_x, q_y):
        points.append(np.array(q_x))
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
    monkeypatch.setattr(green, "_CHUNK_NODES", 3 * cfg.n + 10)
    wide = Receiver(x=800.0, y=0.0, z=-200.0)
    branches = transmitted_branches(model.acoustic, model.poro)
    reflected = reflected_branch(model.acoustic)
    cases = [(Receiver(x=400.0, y=0.0, z=533.0), reflected, 3),
             (Receiver(x=2500.0, y=0.0, z=100.0), reflected, 3),
             (wide, branches[WaveKind.TRANSMITTED_PF], 2),
             (wide, branches[WaveKind.TRANSMITTED_PS], 2)]
    seen = set()
    for receiver, branch, n_channels in cases:
        geom = green._geometry_for(model, receiver)
        arr = arrival_times(geom, branch, model.v_max)
        onset = arr.t_h1 if arr.head_exists else arr.t0
        in_band = [onset * (1.0 + 5e-13)]
        if arr.head_exists:
            in_band += [edge * (1.0 + s) for edge in (arr.t0, arr.t_h2)
                        for s in (-5e-13, 5e-13)]
        t = np.sort(np.concatenate([np.linspace(0.98 * onset, 1.3 * onset,
                                                120), in_band]))
        points.clear()
        expect, regime = _per_sample_trace(model, geom, branch, t, cfg,
                                           n_channels)
        per_window = np.concatenate(points)
        assert {p.size for p in points} == {cfg.n}
        seen |= {(branch.kind, green._REGIME_NAMES[r]) for r in regime}
        points.clear()
        gates.clear()
        got = green._contour_trace(model, geom, branch, t, cfg, n_channels)
        chunked = np.concatenate(points)
        assert max(p.size for p in points) == 3 * cfg.n
        assert gates == [p.size for p in points]
        assert np.sort_complex(chunked).tobytes() \
            == np.sort_complex(per_window).tobytes()
        assert not lapack_calls
        assert got.tobytes() == expect.tobytes(), (receiver, branch.kind)
    assert {(WaveKind.REFLECTED, "head"), (WaveKind.REFLECTED, "mixed"),
            (WaveKind.REFLECTED, "volume"),
            (WaveKind.TRANSMITTED_PF, "volume"),
            (WaveKind.TRANSMITTED_PS, "head"),
            (WaveKind.TRANSMITTED_PS, "mixed")} <= seen


def test_volume_nodes_take_few_complex_square_roots(model, porous_receiver,
                                                   monkeypatch):
    """The contour hands its vertical slownesses to the interface solve:
    each volume node of the porous receiver takes six complex square roots
    (the two kappas at the seed and at the root, and the two porous ones
    the contour does not carry), and each head node four (the two kappas
    at the seed and at the root of the same solve), not one pair per
    Newton step."""
    from poroseis import branch_math, cagniard, green

    roots = {"volume": 0, "head": 0}
    nodes = {"volume": 0, "head": 0}
    piece = ["volume"]  # roots taken outside the head solve are the volume's
    sqrt = branch_math.branch_sqrt

    def counted_sqrt(arg):
        roots[piece[0]] += np.size(arg)
        return sqrt(arg)

    def counted(name, kind):
        solve = getattr(cagniard, name)

        def counted_solve(t, q, *args):
            nodes[kind] += np.size(q)
            piece[0] = kind
            try:
                return solve(t, q, *args)
            finally:
                piece[0] = "volume"
        monkeypatch.setattr(cagniard, name, counted_solve)

    monkeypatch.setattr(branch_math, "branch_sqrt", counted_sqrt)
    monkeypatch.setattr(cagniard, "branch_sqrt", counted_sqrt)
    monkeypatch.setattr(green, "branch_sqrt", counted_sqrt)
    counted("_gamma_vec", "volume")
    counted("_upsilon_vec", "head")
    t = np.arange(0.5, 0.905, 1.0 / 600.0)
    green_trace(model, porous_receiver, t, QuadratureConfig(n=64))
    assert nodes["volume"] > 0 and nodes["head"] > 0
    assert roots["volume"] <= 6 * nodes["volume"]
    assert roots["head"] <= 4 * nodes["head"]


def test_volume_kappas_equal_branch_math_kappa_bit_for_bit(
        model, fluid_receiver, porous_receiver, monkeypatch):
    """The porous vertical slownesses _volume_values builds from gamma^2 are
    bit for bit those of branch_math.kappa(v, gamma, q), on every reflected
    and transmitted volume node of the fixture receivers at n = 64."""
    from poroseis import cagniard, green
    from poroseis.branch_math import kappa

    nodes, systems = [], []
    entries = green._structural_entries

    def spy(name):
        solve = getattr(cagniard, name)

        def spy_solve(t, q, geom, branch, *args):
            out = solve(t, q, geom, branch, *args)
            nodes.append((name, (branch, q, out[0])))
            return out
        monkeypatch.setattr(cagniard, name, spy_solve)

    def spy_entries(acoustic, poro, qq, *kappas):
        name, node = nodes[-1]
        if name == "_gamma_vec":  # a volume node, not a head one
            systems.append((node, kappas[1:]))
        return entries(acoustic, poro, qq, *kappas)

    spy("_gamma_vec")
    spy("_upsilon_vec")
    monkeypatch.setattr(green, "_structural_entries", spy_entries)
    t = np.arange(0.5, 0.95, 1.0 / 200.0)
    green_trace(model, fluid_receiver, t, QuadratureConfig(n=64))
    green_trace(model, porous_receiver, t, QuadratureConfig(n=64))
    poro = model.poro
    compared = {}
    for (branch, q, gam), kappas in systems:
        for v, k in zip((poro.v_pf, poro.v_ps, poro.v_s), kappas):
            if v != branch.v_bottom:  # that one is the contour's own
                assert k.tobytes() == kappa(v, gam, q).tobytes()
                compared[branch.kind] = compared.get(branch.kind, 0) + k.size
    assert set(compared) == set(WaveKind)
    assert min(compared.values()) >= 1000


def test_window_failure_names_its_sample(model, porous_receiver, monkeypatch):
    """A non-finite node of one window is reported with the t, regime and
    branch of the sample it belongs to."""
    from poroseis import cagniard

    t = np.linspace(0.5, 0.6, 80)
    target = float(t[45])
    solve = cagniard._gamma_vec

    def poisoned(t_arr, q, *args):
        gam, dgdt, k_top, k_bot = solve(t_arr, q, *args)
        hit = np.flatnonzero(np.broadcast_to(t_arr, np.shape(q)) == target)
        if hit.size:
            dgdt[hit[3]] = np.nan
        return gam, dgdt, k_top, k_bot

    monkeypatch.setattr(cagniard, "_gamma_vec", poisoned)
    with pytest.raises(NonFiniteIntegrand) as info:
        transmitted_trace(model, porous_receiver, WaveKind.TRANSMITTED_PF, t,
                          QuadratureConfig(n=64))
    assert f"[t={target}, regime=volume, branch=transmitted_pf]" \
        in str(info.value)


def test_chunk_solve_failure_names_its_sample(model, porous_receiver,
                                             monkeypatch):
    """A contour solve that raises for the nodes of one sample, inside a
    chunk of many windows, is reported with the t, regime and branch of
    that sample."""
    from poroseis import cagniard

    t = np.linspace(0.5, 0.6, 80)
    target = float(t[45])
    solve = cagniard._gamma_vec

    def failing(t_arr, q, *args):
        if np.any(np.asarray(t_arr) == target):
            raise ConvergenceFailure(target, float(q[0]), "stub", "stub")
        return solve(t_arr, q, *args)

    monkeypatch.setattr(cagniard, "_gamma_vec", failing)
    with pytest.raises(ConvergenceFailure) as info:
        transmitted_trace(model, porous_receiver, WaveKind.TRANSMITTED_PF, t,
                          QuadratureConfig(n=64))
    assert str(info.value).endswith(
        f"[t={target}, regime=volume, branch=transmitted_pf]")


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
