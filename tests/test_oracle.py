"""The Laplace-domain reference integrals and the brute-force arrival oracle."""

import math
from dataclasses import replace

import numpy as np
import pytest
from test_random_media import random_setup

from poroseis import oracle
from poroseis.cagniard import (Geometry, WaveBranch, WaveKind, arrival_times,
                               fictitious_arrival, reflected_branch,
                               transmitted_branches)
from poroseis import coefficients
from poroseis.coefficients import _solve_batch, _structural_entries
from poroseis.errors import DomainError, NotConverged
from poroseis.green import (CHANNELS, HalfspaceModel, Receiver,
                            branch_arrivals, incident_trace)
from poroseis.media import derive_poroelastic
from poroseis.oracle import (LaplaceProbe, bisect_q_max, default_probe,
                             grid_min_arrival,
                             incident_pressure_transform, laplace_nodes,
                             laplace_of_trace, laplace_reference)


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


@pytest.fixture(scope="module")
def node_cases(acoustic, model, fluid_receiver, porous_receiver):
    """(model, receiver, branch, s, edges, t, w) for every branch at the two
    fixture receivers and the two receivers of seeds 0-159 of the
    random-media sampler, at s = 5, 20 and 40.  The edges are t0, and t_h1
    and t_h2 for every speed faster than both legs of the branch."""
    setups = [(model, fluid_receiver), (model, porous_receiver)]
    for seed in range(160):
        drawn, porous, fluid = random_setup(seed, acoustic)
        setups += [(drawn, porous), (drawn, fluid)]
    cases = []
    for mod, rec in setups:
        geom = Geometry(h=mod.source_height, x=math.hypot(rec.x, rec.y),
                        z=rec.z)
        speeds = {mod.acoustic.v_plus, mod.poro.v_pf, mod.poro.v_ps,
                  mod.poro.v_s}
        for kind, arr in branch_arrivals(mod, rec).items():
            branch = reflected_branch(mod.acoustic) \
                if kind is WaveKind.REFLECTED \
                else transmitted_branches(mod.acoustic, mod.poro)[kind]
            edges = [arr.t0]
            for v in speeds:
                if v > max(branch.v_top, branch.v_bottom):
                    head = arrival_times(geom, branch, v)
                    if head.head_exists:
                        edges += [head.t_h1, head.t_h2]
            for s in (5.0, 20.0, 40.0):
                t, w = laplace_nodes(mod, rec, kind, s)
                cases.append((mod, rec, kind, s, edges, t, w))
    return cases


def test_laplace_nodes_integrate_square_root_edges(node_cases):
    """The rule integrates sqrt(t - e)_+ exp(-s t), whose transform is
    Gamma(3/2) exp(-s e) / s^1.5, for every edge e within 10/s of the first:
    the square-root singularity at each split point is mapped smooth."""
    worst, checks = 0.0, 0
    for _, _, _, s, edges, t, w in node_cases:
        for e in edges:
            if e <= min(edges) + 10.0 / s:
                exact = math.gamma(1.5) * math.exp(-s * e) / s ** 1.5
                value = w @ np.sqrt(np.maximum(t - e, 0.0))
                worst = max(worst, abs(value - exact) / exact)
                checks += 1
    assert checks > 3000
    assert worst <= 1e-9, worst


def test_laplace_nodes_shape(node_cases):
    """Finite, strictly increasing times, positive weights, and at most
    seven pieces of 64 nodes."""
    for mod, rec, kind, s, _, t, w in node_cases:
        case = (rec, kind, s)
        assert np.all(np.isfinite(t)) and np.all(np.diff(t) > 0.0), case
        assert np.all(w > 0.0), case
        assert t.shape == w.shape and t.size <= 7 * 64, case


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
    # The radial order's input bound.
    n_max = oracle.MAX_GRID_N
    assert n_max == 5792
    LaplaceProbe(s=20.0, receiver=fluid_receiver, q_width=1e-3, n=n_max)
    with pytest.raises(ValueError, match="grid order above"):
        LaplaceProbe(s=20.0, receiver=fluid_receiver, q_width=1e-3,
                     n=n_max + 1)


def test_reference_rejects_unknown_channel(model, fluid_receiver):
    probe = default_probe(model, fluid_receiver, 20.0, n=16)
    with pytest.raises(ValueError):
        laplace_reference(probe, model, "u_ref_y")


def test_reference_enforces_receiver_side(model, fluid_receiver,
                                          porous_receiver):
    """Every trace channel name of green.CHANNELS is an oracle channel on
    its own side of the interface and a DomainError on the other."""
    up = default_probe(model, fluid_receiver, 20.0)
    down = default_probe(model, porous_receiver, 20.0)
    for kind, names in CHANNELS.items():
        own, other = (up, down) if kind is WaveKind.REFLECTED else (down, up)
        for name in names:
            assert math.isfinite(laplace_reference(own, model, name))
            with pytest.raises(DomainError):
                laplace_reference(other, model, name)


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


def test_reference_rejects_round_off_sums(model):
    """At 2 km offset and s = 40 the reflected sum cancels to about 2e-11 of
    its terms: the order doubling still agrees to 8e-5, but the value
    wanders by up to 5e-4 relative across orders 240 to 3840, so the
    round-off check must reject it.  An odd channel on the axis is zero by
    symmetry, and its sum is not rejected."""
    probe = default_probe(model, Receiver(2000.0, 0.0, 533.0), 40.0, n=240)
    with pytest.raises(NotConverged, match="of the size of its terms"):
        laplace_reference(probe, model, "xi_ref")
    axis = default_probe(model, Receiver(0.0, 0.0, -533.0), 20.0, n=64)
    assert laplace_reference(axis, model, "u_pf_x") == 0.0


def test_reference_rejects_a_nan_density(model, porous_receiver, monkeypatch):
    """One NaN density value makes both sums NaN, which passes every
    comparison of the two checks; the oracle must refuse it, not return it."""
    channel_parts = oracle._channel_parts

    def nan_at_one_node(*args):
        dens, parity, depth = channel_parts(*args)
        return np.where(np.arange(dens.size) == 3, np.nan, dens), parity, depth

    monkeypatch.setattr(oracle, "_channel_parts", nan_at_one_node)
    probe = default_probe(model, porous_receiver, 20.0, n=16)
    with pytest.raises(NotConverged, match="gives nan"):
        laplace_reference(probe, model, "u_pf_z")


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


def test_head_segment_end_matches_bisection(acoustic, poro, model, rng):
    """The closed critical-ray q_max agrees with the bisection oracle on the
    fixture's head-wave branches and on random post-critical geometries."""
    branches = [reflected_branch(acoustic),
                *transmitted_branches(acoustic, poro).values()]
    cases = [(Geometry(h=500.0, x=400.0, z=-533.0), branches[2]),
             (Geometry(h=500.0, x=800.0, z=-200.0), branches[2]),
             (Geometry(h=500.0, x=800.0, z=-200.0), branches[3]),
             (Geometry(h=500.0, x=800.0, z=100.0), branches[0])]
    while len(cases) < 16:
        branch = branches[rng.integers(4)]
        depth = rng.uniform(10.0, 1000.0)
        geom = Geometry(h=rng.uniform(50.0, 1000.0),
                        x=rng.uniform(0.0, 3000.0),
                        z=depth if branch is branches[0] else -depth)
        if arrival_times(geom, branch, model.v_max).head_exists:
            cases.append((geom, branch))
    for geom, branch in cases:
        arr = arrival_times(geom, branch, model.v_max)
        assert arr.head_exists
        slow = bisect_q_max(geom, branch, model.v_max)
        assert abs(arr.q_max - slow) <= 1e-12 * slow


def test_grid_oracle_rejects_coarse_scan(acoustic, poro):
    branch = transmitted_branches(acoustic, poro)[WaveKind.TRANSMITTED_PF]
    with pytest.raises(ValueError):
        grid_min_arrival(0.0, Geometry(h=500.0, x=400.0, z=-533.0), branch,
                         n=5000)


def _cartesian_value(model, receiver, channel, s, q_width, n):
    """The folded integral on the n x n Gauss-Legendre tensor grid of [0, Q]^2."""
    q1, w1 = oracle._gauss_nodes(q_width, n)
    qx, qy = np.repeat(q1, n), np.tile(q1, n)
    weight = np.repeat(w1, n) * np.tile(w1, n)
    rho = np.hypot(qx, qy)
    ac, pd = model.acoustic, model.poro
    ks = [np.sqrt(1.0 / v ** 2 + rho * rho)
          for v in (ac.v_plus, pd.v_pf, pd.v_ps, pd.v_s)]
    coef = _solve_batch(_structural_entries(ac, pd, rho * rho, *ks), qx, qy)
    dens, parity, depth = oracle._channel_parts(model, receiver, channel,
                                                rho, *ks, coef)
    off = math.hypot(receiver.x, receiver.y)
    osc = np.cos(s * qx * off) if parity == oracle._EVEN \
        else qx * np.sin(s * qx * off)
    return float(np.sum(weight * dens * np.exp(-s * depth) * osc)) / math.pi ** 2


@pytest.mark.parametrize("channel, s, side", [("xi_ref", 20.0, "fluid"),
                                              ("u_s_x", 40.0, "porous")])
def test_polar_rule_matches_cartesian_grid(model, fluid_receiver,
                                           porous_receiver, channel, s, side):
    """Radial Gauss-Legendre times angular midpoint reproduces the tensor
    grid over the quarter square at the same order."""
    receiver = fluid_receiver if side == "fluid" else porous_receiver
    probe = default_probe(model, receiver, s, n=240)
    polar = oracle._integrate(model, receiver, channel, s, probe.q_width, 240)
    square = _cartesian_value(model, receiver, channel, s, probe.q_width, 240)
    assert polar == pytest.approx(square, rel=1e-8)


def test_grid_solution_solves_one_system_per_radial_node(model,
                                                         porous_receiver,
                                                         monkeypatch):
    """One LAPACK solve of n systems per radial grid, and one pass through
    the shared singularity gates."""
    sizes = []
    gates = []
    check = coefficients._check_solution

    def spy(entries, q_x, q_y):
        sizes.append(len(q_x))
        return _solve_batch(entries, q_x, q_y)

    def gate_spy(*args):
        gates.append(len(args[2]))
        return check(*args)

    monkeypatch.setattr(oracle, "_solve_batch", spy)
    monkeypatch.setattr(coefficients, "_check_solution", gate_spy)
    for n in (8, 240):
        sizes.clear()
        gates.clear()
        oracle._grid_solution(model, 1e-3, n)
        assert sizes == [n]
        assert gates == [n]
    sizes.clear()
    gates.clear()
    probe = default_probe(model, porous_receiver, 20.0, n=64)
    laplace_reference(probe, model, "u_pf_z")
    assert sizes == gates == [64, 128]


def test_grid_solution_is_real(model, monkeypatch):
    """Real slownesses give real systems, solved in real arithmetic."""
    dtypes = []

    def spy(entries, q_x, q_y):
        dtypes.append({np.asarray(v).dtype for v in entries})
        return _solve_batch(entries, q_x, q_y)

    monkeypatch.setattr(oracle, "_solve_batch", spy)
    coef = oracle._grid_solution(model, 1e-3, 16)[-1]
    assert dtypes == [{np.dtype(np.float64)}]
    assert len(coef) == 4
    for column in coef:
        assert column.dtype == np.float64 and column.shape == (16,)


def test_default_probe_covers_the_slowest_wave(acoustic, poro_params,
                                               porous_receiver):
    """q_width follows the slowest wave on the receiver's side: with shear at
    about 641 m/s the shear channels decay at the rim at s = 40 and agree
    with a wider, finer disc."""
    model = HalfspaceModel(acoustic, derive_poroelastic(
        replace(poro_params, mu=0.7e9)), 500.0)
    probe = default_probe(model, porous_receiver, 40.0)
    wide = replace(probe, q_width=1.5 * probe.q_width, n=2 * probe.n)
    for channel in ("u_s_x", "u_s_z"):
        got = laplace_reference(probe, model, channel)
        assert got == pytest.approx(laplace_reference(wide, model, channel),
                                    rel=1e-9)


def _leggauss_long_double(n, x):
    """Newton-polished nodes from x and their weights, in long double."""
    x = np.asarray(x, dtype=np.longdouble)

    def legendre(x):
        p_prev, p = np.ones_like(x), x
        for j in range(2, n + 1):
            p_prev, p = p, ((2 * j - 1) * x * p - (j - 1) * p_prev) / j
        return p, n * (p_prev - x * p) / (1 - x * x)

    for _ in range(3):
        p, slope = legendre(x)
        x = x - p / slope
    _, slope = legendre(x)
    return x, 2 / ((1 - x * x) * slope * slope)


@pytest.mark.parametrize("n", [8, 9, 64, 65, 240, 480])
def test_leggauss_is_the_gauss_legendre_rule(n):
    """Ascending, symmetric, exact on even powers up to degree 2n - 1, and
    at round-off from a long-double evaluation; numpy's eigenvalue rule,
    whose weights are off by up to 5.7e-10 relative at n = 480, agrees
    within its own error."""
    x, w = oracle._leggauss(n)
    assert x.shape == w.shape == (n,)
    assert np.all(np.diff(x) > 0.0)
    assert np.array_equal(x, -x[::-1]) and np.array_equal(w, w[::-1])
    assert not x.flags.writeable and not w.flags.writeable
    for k in range(n):  # x^(2k), 2k <= 2n - 1
        assert np.sum(w * x ** (2 * k)) == pytest.approx(2.0 / (2 * k + 1),
                                                         rel=1e-13)
    x_np, w_np = np.polynomial.legendre.leggauss(n)
    np.testing.assert_allclose(x, x_np, rtol=0.0, atol=4e-16)
    np.testing.assert_allclose(w, w_np, rtol=1e-9, atol=0.0)
    if np.finfo(np.longdouble).eps > 1e-18:
        pytest.skip("long double is no wider than double here")
    x_ref, w_ref = _leggauss_long_double(n, x)
    assert np.max(np.abs(x - x_ref)) <= 2e-16
    assert np.max(np.abs(w / w_ref - 1.0)) <= 1e-12


def _fixture_values(model, fluid_receiver, porous_receiver, before=None):
    """The 18 oracle values of the fixture's verify: 9 channels at s = 20
    and 40, grid order 240; before() runs ahead of each value."""
    values = []
    for s in (20.0, 40.0):
        for receiver, channels in (
                (fluid_receiver, ("xi_ref", "u_ref_x", "u_ref_z")),
                (porous_receiver, ("u_pf_x", "u_pf_z", "u_ps_x", "u_ps_z",
                                   "u_s_x", "u_s_z"))):
            probe = default_probe(model, receiver, s, n=240)
            for channel in channels:
                if before is not None:
                    before()
                values.append(laplace_reference(probe, model, channel))
    return values


def test_angular_sums_are_shared_between_channels(model, fluid_receiver,
                                                  porous_receiver):
    """The 18 values need 16 angular sums: one per receiver side, s, order
    and parity.  Shared or not, every value is the same to the bit."""
    alone = _fixture_values(model, fluid_receiver, porous_receiver,
                            before=oracle._angular.cache_clear)
    oracle._angular.cache_clear()
    shared = _fixture_values(model, fluid_receiver, porous_receiver)
    assert oracle._angular.cache_info().misses == 16
    assert shared == alone
    probe = default_probe(model, porous_receiver, 20.0, n=240)
    angular = oracle._angular(20.0 * 400.0, probe.q_width, 240, oracle._ODD)
    assert not angular.flags.writeable
    with pytest.raises(ValueError):
        angular[0] = 0.0


def test_reference_needs_no_eigensolve(model, porous_receiver, monkeypatch):
    """The Gauss-Legendre rule comes from Newton on the recurrence, not from
    a dense eigenvalue solve."""
    def refuse(*args, **kwargs):
        raise AssertionError("eigvalsh called")

    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    oracle._leggauss.cache_clear()
    probe = default_probe(model, porous_receiver, 20.0, n=64)
    assert math.isfinite(laplace_reference(probe, model, "u_pf_z"))


@pytest.mark.parametrize("a", [0.0, 1e-3, 1.0, 23.1, 31.0, 300.0, 3080.0,
                               4e7])
def test_angular_order_is_the_smallest_below_the_bound(a):
    """At the order returned the aliasing bound (a/2)^(N-1) / (N-1)!, N = 4m,
    is at most 1e-17, and one order less it is not, unless m is the floor
    of 8."""
    def log_bound(m):
        k = 4 * m - 1
        return -math.inf if a == 0.0 else \
            k * math.log(0.5 * a) - math.lgamma(k + 1)

    m = oracle._angular_order(a)
    assert m >= 8
    assert log_bound(m) <= math.log(1e-17)
    if m > 8:
        assert log_bound(m - 1) > math.log(1e-17)


def test_angular_order_grows_with_the_phase(model, fluid_receiver,
                                            porous_receiver):
    """Non-decreasing in a, 8 at a = 0, and 15 to 18 nodes at the fixture's
    four (side, s) pairs, where the phase reaches 23 to 31 radians."""
    orders = [oracle._angular_order(a) for a in np.linspace(0.0, 5e3, 2001)]
    assert orders[0] == 8
    assert all(b >= a for a, b in zip(orders, orders[1:]))
    fixture = []
    for s in (20.0, 40.0):
        for receiver in (fluid_receiver, porous_receiver):
            probe = default_probe(model, receiver, s)
            fixture.append(oracle._angular_order(
                s * math.hypot(receiver.x, receiver.y) * probe.q_width))
    assert fixture == [15, 16, 17, 18]


@pytest.fixture()
def fresh_angular():
    """Clears the angular cache before and after a test that changes how
    its sums are made, so no other test sees them."""
    oracle._angular.cache_clear()
    yield
    oracle._angular.cache_clear()


def test_angular_order_leaves_the_values_at_round_off(model, fluid_receiver,
                                                      porous_receiver,
                                                      monkeypatch,
                                                      fresh_angular):
    """Four times the angular order moves none of the fixture's 18 values by
    more than 1e-13 relative."""
    values = _fixture_values(model, fluid_receiver, porous_receiver)
    order = oracle._angular_order
    monkeypatch.setattr(oracle, "_angular_order", lambda a: 4 * order(a))
    oracle._angular.cache_clear()
    finer = _fixture_values(model, fluid_receiver, porous_receiver)
    np.testing.assert_allclose(values, finer, rtol=1e-13, atol=0.0)


def test_angular_buffer_guard_allocates_nothing(model, monkeypatch):
    """Phases up to a = 4e7 need about 1.4e7 angular nodes, whose (2n, m)
    buffer would pass 1 GiB even at n = 8: NotConverged names the order
    before any node, angular sum or system solve is made."""
    def refuse(*args, **kwargs):
        raise AssertionError("buffer allocated")

    for name in ("_gauss_nodes", "_angular", "_solve_batch"):
        monkeypatch.setattr(oracle, name, refuse)
    probe = LaplaceProbe(s=40.0, receiver=Receiver(1e5, 0.0, 533.0),
                         q_width=10.0, n=8)
    m = oracle._angular_order(4e7)
    assert 2 * 8 * m * 8 > 2 ** 30
    with pytest.raises(NotConverged, match=f"angular order m={m}"):
        laplace_reference(probe, model, "xi_ref")


def test_near_interface_value_converges_at_order_960(acoustic, poro):
    """Receiver (1000, 0, 5) m, 10 m above the interface, s = 20: the phase
    reaches 3080 radians and takes 1056 angular nodes.  Radial order 240
    still fails the doubling; 960 converges, to the order-1920 value."""
    model = HalfspaceModel(acoustic, poro, 10.0)
    receiver = Receiver(1000.0, 0.0, 5.0)
    with pytest.raises(NotConverged, match="doubled gives"):
        laplace_reference(default_probe(model, receiver, 20.0, n=240), model,
                          "xi_ref")
    value = laplace_reference(default_probe(model, receiver, 20.0, n=960),
                              model, "xi_ref")
    assert value == pytest.approx(2.2980604265659e-17, rel=1e-9)  # n = 1920
