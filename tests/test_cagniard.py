"""Contour machinery: arrivals, windows, and the contour solve of both pieces."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poroseis.branch_math import kappa
from poroseis.cagniard import (Geometry, WaveBranch, WaveKind, _bracketed_newton,
                               _depths, _gamma_vec, _p0_vec, _stationary_ray,
                               _t0_vec, _upsilon_vec, _xi_zero,
                               arrival_times, fictitious_arrival,
                               gamma, head_window,
                               phase_time, q0_of_t, q1_of_t,
                               reflected_branch, snell_time,
                               transmitted_branches, upsilon, volume_window)
from poroseis.errors import ConvergenceFailure, DomainError


@pytest.fixture(scope="module")
def branches(acoustic, poro):
    return transmitted_branches(acoustic, poro)


@pytest.fixture(scope="module")
def fluid_geom():
    return Geometry(h=500.0, x=400.0, z=533.0)


@pytest.fixture(scope="module")
def porous_geom():
    return Geometry(h=500.0, x=400.0, z=-533.0)


@pytest.fixture(scope="module")
def wide_geom():
    """Offset chosen post-critical for every wave slower than the fast P."""
    return Geometry(h=500.0, x=800.0, z=-200.0)


def test_reflected_arrival_is_image_distance(acoustic, fluid_geom):
    branch = reflected_branch(acoustic)
    r = math.hypot(400.0, 533.0 + 500.0)
    assert fluid_geom.r == pytest.approx(r, rel=1e-15)
    t0 = fictitious_arrival(0.0, fluid_geom, branch)
    assert t0 == pytest.approx(r / 1500.0, rel=1e-14)
    for q in (0.0, 1e-5, 3e-4, 2e-3):
        slowness = math.sqrt(1.0 / 1500.0 ** 2 + q * q)
        assert fictitious_arrival(q, fluid_geom, branch) == pytest.approx(
            r * slowness, rel=1e-14)
        p0 = _p0_vec(np.array([q]), fluid_geom, branch)[0]
        assert p0 == pytest.approx((400.0 / r) * slowness, rel=1e-14)


def test_geometry_rejects_bad_layout():
    with pytest.raises(ValueError):
        Geometry(h=-1.0, x=400.0, z=533.0)
    with pytest.raises(ValueError):
        Geometry(h=500.0, x=-4.0, z=533.0)
    # Lengths whose squares overflow in the stationary-ray solve.
    for layout in ((1e200, 400.0, 533.0), (500.0, 1e101, 533.0),
                   (500.0, 400.0, -1e200)):
        with pytest.raises(ValueError, match="must not exceed 1e\\+100 m"):
            Geometry(*layout)
    Geometry(h=1e100, x=1e100, z=-1e100)


def test_side_checks(acoustic, branches, fluid_geom, porous_geom):
    """Reflected needs z >= 0, transmitted z <= 0; the wrong side raises."""
    refl = reflected_branch(acoustic)
    with pytest.raises(DomainError):
        fictitious_arrival(0.0, porous_geom, refl)
    with pytest.raises(DomainError):
        fictitious_arrival(0.0, fluid_geom, branches[WaveKind.TRANSMITTED_PF])


def test_transmitted_arrival_roundtrip(branches, porous_geom):
    """q0_of_t inverts the fictitious arrival to 1e-14 relative on every
    transmitted branch, up to 5000 times the arrival."""
    for branch in branches.values():
        t0 = fictitious_arrival(0.0, porous_geom, branch)
        for t in np.concatenate([np.linspace(1.02 * t0, 2.0 * t0, 50),
                                 np.geomspace(2.0 * t0, 5000.0 * t0, 30)]):
            q = q0_of_t(float(t), porous_geom, branch)
            back = fictitious_arrival(q, porous_geom, branch)
            assert abs(back - t) <= 1e-14 * t


def test_arrival_increases_with_slowness(branches, porous_geom):
    branch = branches[WaveKind.TRANSMITTED_PS]
    qs = np.linspace(0.0, 5e-3, 40)
    ts = [fictitious_arrival(float(q), porous_geom, branch) for q in qs]
    assert all(b > a for a, b in zip(ts, ts[1:]))


@settings(max_examples=60, deadline=None)
@given(frac=st.floats(0.0, 1.0), q=st.floats(0.0, 4e-3),
       x=st.floats(50.0, 1500.0), d=st.floats(20.0, 1500.0))
def test_stationary_crossing_is_minimal(frac, q, x, d):
    """No interface crossing beats the one the stationary-ray solver
    selects, and none beats q times the straight source-receiver distance,
    the bound that brackets the volume-window inversion."""
    geom = Geometry(h=400.0, x=x, z=-d)
    wb = WaveBranch(WaveKind.TRANSMITTED_S, 1500.0, 2377.691210598581)
    best = fictitious_arrival(q, geom, wb)
    probe = float(snell_time(frac * x, q, geom, wb))
    assert probe >= best - 1e-12 * best
    assert best >= q * math.hypot(x, 400.0 + d)


def test_stationary_ray_slope_is_arrival_derivative(acoustic, branches,
                                                    fluid_geom, porous_geom):
    """dt0/dq of the stationary ray agrees with a central difference of
    t0(q): moving the stationary crossing adds no term."""
    cases = [(fluid_geom, reflected_branch(acoustic)),
             (porous_geom, branches[WaveKind.TRANSMITTED_S])]
    for geom, branch in cases:
        q = np.array([1e-4, 5e-4, 2e-3])
        dq = 1e-6 * q
        fd = (_t0_vec(q + dq, geom, branch)
              - _t0_vec(q - dq, geom, branch)) / (2.0 * dq)
        slope = _stationary_ray(q, geom, branch)[1]
        assert np.all(np.abs(fd - slope) <= 1e-6 * slope), branch.kind


def test_stationary_crossing_stops_on_short_receiver_legs(acoustic,
                                                          monkeypatch):
    """On a receiver 12.8 m below the interface at 2.6 km offset the
    receiver leg x - xi cancels, and the crossing's slope cannot meet 8 ulp
    of s_a + s_b; the solve stops at the rounding of one ulp of x instead
    of running to its cap, on the P-slow and S branches and on the window
    inversion's solves."""
    from test_random_media import random_setup

    from poroseis import cagniard
    from poroseis.green import _geometry_for

    model, receiver, _ = random_setup(12, acoustic)
    geom = _geometry_for(model, receiver)
    newton = cagniard._bracketed_newton
    evaluations = []

    def spy(func, x, lo, hi, tol, max_iter):
        calls = []

        def counted(v):
            calls.append(v)
            return func(v)
        out = newton(counted, x, lo, hi, tol, max_iter)
        if max_iter == cagniard._XI_MAX_ITER:
            evaluations.append(len(calls))
        return out

    monkeypatch.setattr(cagniard, "_bracketed_newton", spy)
    branches = transmitted_branches(model.acoustic, model.poro)
    for kind in (WaveKind.TRANSMITTED_PS, WaveKind.TRANSMITTED_S):
        branch = branches[kind]
        _t0_vec(np.linspace(0.0, 1e-3, 50), geom, branch)
        t0 = fictitious_arrival(0.0, geom, branch)
        for excess in (1e-3, 0.1):
            q0_of_t(t0 * (1.0 + excess), geom, branch)
    assert len(evaluations) > 10
    assert max(evaluations) <= 10, evaluations


def test_stationary_crossing_takes_each_slope_once(branches, porous_geom,
                                                  monkeypatch):
    """Every slope evaluation of the crossing solve is one of the Newton's
    own: the stop target reads the curvature of the Newton's first
    evaluation instead of taking it again.  Each evaluation takes two
    square roots, one per leg, after the one of the slownesses."""
    from poroseis import cagniard

    newton, sqrt = cagniard._bracketed_newton, np.sqrt
    counts = {"evaluations": 0, "roots": 0}

    def counted_newton(func, *args):
        def counted(v):
            counts["evaluations"] += 1
            return func(v)
        return newton(counted, *args)

    def counted_sqrt(v, *args, **kwargs):
        counts["roots"] += 1
        return sqrt(v, *args, **kwargs)

    monkeypatch.setattr(cagniard, "_bracketed_newton", counted_newton)
    for branch in branches.values():
        counts.update(evaluations=0, roots=0)
        with monkeypatch.context() as patch:
            patch.setattr(np, "sqrt", counted_sqrt)
            _xi_zero(np.linspace(0.0, 2e-3, 40), porous_geom, branch)
        assert counts["evaluations"] > 0
        assert counts["roots"] == 1 + 2 * counts["evaluations"], branch.kind


def test_head_exists_only_past_critical(acoustic, poro, model):
    """The fixture reflection geometry is subcritical; a wider one is not."""
    branch = reflected_branch(acoustic)
    near = arrival_times(Geometry(h=500.0, x=400.0, z=533.0), branch,
                         model.v_max)
    far = arrival_times(Geometry(h=500.0, x=800.0, z=100.0), branch,
                        model.v_max)
    assert not near.head_exists
    assert math.isnan(near.t_h1) and math.isnan(near.q_max)
    assert far.head_exists
    assert far.t_h1 < far.t0 < far.t_h2
    assert far.q_max > 0.0


def test_head_segment_tangency(acoustic, model):
    """Head onset and volume arrival meet tangentially at q_max.

    The volume-minus-head gap has a double root there: it stays positive on
    both sides and only touches zero.  What changes sign is the saddle
    slowness measured against the fastest branch point.
    """
    branch = reflected_branch(acoustic)
    geom = Geometry(h=500.0, x=800.0, z=100.0)
    arr = arrival_times(geom, branch, model.v_max)
    qm = arr.q_max

    def gap(q):
        t_vol = fictitious_arrival(q, geom, branch)
        c1 = math.sqrt(1.0 / branch.v_top ** 2 - 1.0 / model.v_max ** 2)
        t_head = (geom.z + geom.h) * c1 \
            + geom.x * math.sqrt(1.0 / model.v_max ** 2 + q * q)
        return t_vol - t_head

    def saddle_excess(q):
        p0 = (geom.x / geom.r) * math.sqrt(1.0 / branch.v_top ** 2 + q * q)
        return p0 - math.sqrt(1.0 / model.v_max ** 2 + q * q)

    assert gap(0.5 * qm) > 0.0
    assert abs(gap(qm)) <= 1e-9 * arr.t0
    assert gap(1.5 * qm) > 0.0
    assert saddle_excess(0.5 * qm) > 0.0
    assert saddle_excess(1.5 * qm) < 0.0
    assert abs(saddle_excess(qm)) <= 1e-12 / branch.v_top


def test_head_window_shape(branches, wide_geom, model):
    """(0, q1) between onset and arrival, (q0, q1) afterwards, else None."""
    branch = branches[WaveKind.TRANSMITTED_PS]
    arr = arrival_times(wide_geom, branch, model.v_max)
    assert arr.head_exists

    assert head_window(0.99 * arr.t_h1, arr, wide_geom, branch,
                       model.v_max) is None
    with pytest.raises(DomainError):
        q1_of_t(0.1 * arr.t_h1, wide_geom, branch, model.v_max)
    assert head_window(1.01 * arr.t_h2, arr, wide_geom, branch,
                       model.v_max) is None

    t_early = 0.5 * (arr.t_h1 + arr.t0)
    lo, hi = head_window(t_early, arr, wide_geom, branch, model.v_max)
    assert lo == 0.0
    assert hi == pytest.approx(q1_of_t(t_early, wide_geom, branch,
                                       model.v_max), rel=1e-14)

    t_late = 0.5 * (arr.t0 + arr.t_h2)
    lo, hi = head_window(t_late, arr, wide_geom, branch, model.v_max)
    assert 0.0 < lo < hi
    assert lo == pytest.approx(q0_of_t(t_late, wide_geom, branch), rel=1e-12)
    assert hi <= arr.q_max * (1.0 + 1e-12)


def test_volume_window_closes_before_arrival(branches, porous_geom, model):
    branch = branches[WaveKind.TRANSMITTED_PF]
    arr = arrival_times(porous_geom, branch, model.v_max)
    assert volume_window(0.999 * arr.t0, arr, porous_geom, branch) is None
    win = volume_window(1.05 * arr.t0, arr, porous_geom, branch)
    assert win is not None and win[0] == 0.0 and win[1] > 0.0


def test_volume_contour_solves_phase_time(acoustic, branches, fluid_geom,
                                          porous_geom):
    """T(gamma(t, q)) = t to 1e-10 s across branches, times and slownesses."""
    refl = reflected_branch(acoustic)
    cases = [(fluid_geom, refl)] + [(porous_geom, b)
                                    for b in branches.values()]
    for geom, branch in cases:
        t0 = fictitious_arrival(0.0, geom, branch)
        for t in np.linspace(1.01 * t0, 1.8 * t0, 7):
            qhi = q0_of_t(float(t), geom, branch)
            for q in np.linspace(0.0, 0.98 * qhi, 5):
                point = gamma(float(t), float(q), geom, branch)
                assert point.residual <= 1e-10
                val = phase_time(point.value, float(q), geom, branch)
                assert abs(val - t) <= 1e-10
                assert point.value.real >= -1e-18


def test_volume_contour_time_derivative(branches, porous_geom):
    """dgamma/dt agrees with a centered difference of the solved contour."""
    branch = branches[WaveKind.TRANSMITTED_S]
    t0 = fictitious_arrival(0.0, porous_geom, branch)
    t = 1.3 * t0
    dt = 1e-7 * t
    qhi = q0_of_t(t, porous_geom, branch)
    for q in (0.0, 0.3 * qhi, 0.8 * qhi):
        mid = gamma(t, q, porous_geom, branch)
        hi = gamma(t + dt, q, porous_geom, branch)
        lo = gamma(t - dt, q, porous_geom, branch)
        fd = (hi.value - lo.value) / (2.0 * dt)
        assert abs(fd - mid.dt) <= 1e-5 * abs(mid.dt)


def test_zero_offset_contour_is_real(branches):
    """With no horizontal offset the deformed contour runs up the real axis."""
    geom = Geometry(h=500.0, x=0.0, z=-300.0)
    branch = branches[WaveKind.TRANSMITTED_PS]
    t0 = fictitious_arrival(0.0, geom, branch)
    point = gamma(1.4 * t0, 0.0, geom, branch)
    assert point.value.imag == pytest.approx(0.0, abs=1e-16)
    assert point.value.real > 0.0


def test_contour_launches_at_saddle(branches, porous_geom):
    """As t drops to the arrival the contour start approaches -i*p0(q).

    The gap closes like sqrt(t - t0), so shrinking the time excess by 16
    must shrink the distance by about 4.
    """
    branch = branches[WaveKind.TRANSMITTED_PF]
    q = 1e-4
    t0q = fictitious_arrival(q, porous_geom, branch)
    p0 = float(_p0_vec(np.array([q]), porous_geom, branch)[0])
    d1 = abs(gamma(t0q * (1.0 + 1e-6), q, porous_geom, branch).value
             - (-1j) * p0)
    d2 = abs(gamma(t0q * (1.0 + 1e-6 / 16.0), q, porous_geom, branch).value
             - (-1j) * p0)
    assert d2 < d1
    assert d2 == pytest.approx(d1 / 4.0, rel=0.2)


def _sin_nodes(t, geom, branch, n=2000):
    """The quadrature's sin-substituted nodes of the volume window at t."""
    q0 = q0_of_t(t, geom, branch)
    return q0 * np.sin((np.arange(n) + 0.5) * (0.5 * math.pi / n))


def _polished_roots(t, q, geom, branch, g):
    """Three Newton steps on T(gamma) = t in extended precision from g."""
    ld = np.longdouble
    x, d_top, d_bot = ld(geom.x), ld(geom.h), ld(-geom.z)
    q = q.astype(ld)
    sa2 = 1 / ld(branch.v_top) ** 2 + q * q
    sb2 = 1 / ld(branch.v_bottom) ** 2 + q * q
    g = g.astype(np.clongdouble)
    for _ in range(3):
        ka, kb = np.sqrt(sa2 + g * g), np.sqrt(sb2 + g * g)
        f = d_top * ka + d_bot * kb + 1j * x * g - ld(t)
        g = g - f / (g * (d_top / ka + d_bot / kb) + 1j * x)
    return g


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= 1e-18,
                    reason="needs an extended-precision long double")
@pytest.mark.parametrize("excess", [1e-4, 3e-3, 5e-2])
def test_contour_is_accurate_next_to_the_saddle(branches, porous_geom, excess):
    """gamma on the quadrature nodes agrees to 1e-10 relative with roots
    polished in extended precision, also just past the arrival, where
    T'(gamma) is small and a small residual alone leaves gamma loose."""
    for branch in branches.values():
        t = fictitious_arrival(0.0, porous_geom, branch) + excess
        q = _sin_nodes(t, porous_geom, branch)
        g = _gamma_vec(t, q, porous_geom, branch)[0]
        ref = _polished_roots(t, q, porous_geom, branch, g)
        err = np.abs(g - ref) / np.abs(ref)
        assert float(np.max(err)) <= 1e-10, branch.kind


def _nan_steps(delta, *args):
    return np.full_like(delta, complex(np.nan, np.nan))


def _head_cases(branches, porous_geom, wide_geom, v_max, n):
    """(geom, branch, t, q) of head-window nodes: the fixture P-slow mixed
    windows at four times between t0 and t_h2 and the wide S mixed window
    at 10 % of the way (lower_sqrt nodes; with no step taken, a search
    whose grid started at half of |seed| rather than of its distance from
    the saddle jumped past the saddle there), and the wide S head windows
    at three times between t_h1 and t0 (midpoint nodes)."""
    def mixed(geom, branch, frac):
        arr = arrival_times(geom, branch, v_max)
        t = arr.t0 + frac * (arr.t_h2 - arr.t0)
        a, b = head_window(t, arr, geom, branch, v_max)
        u = (np.arange(n) + 0.5) * (math.sqrt(b * b - a * a) / n)
        return geom, branch, t, np.sqrt(a * a + u * u)

    cases = [mixed(porous_geom, branches[WaveKind.TRANSMITTED_PS], frac)
             for frac in (1e-3, 0.1, 0.5, 0.9)]
    branch = branches[WaveKind.TRANSMITTED_S]
    cases.append(mixed(wide_geom, branch, 0.1))
    arr = arrival_times(wide_geom, branch, v_max)
    for frac in (0.1, 0.5, 0.9):
        t = arr.t_h1 + frac * (arr.t0 - arr.t_h1)
        a, b = head_window(t, arr, wide_geom, branch, v_max)
        cases.append((wide_geom, branch, t,
                      a + (np.arange(n) + 0.5) * ((b - a) / n)))
    return cases


@pytest.mark.parametrize("patch_name, value", [
    ("_CONTOUR_STEPS", 0),          # no step taken: the seed is off target
    ("_contour_steps", _nan_steps),  # steps that return non-finite deltas
], ids=["no_steps", "nan_steps"])
def test_contour_fallback_solves_the_contour(branches, porous_geom, wide_geom,
                                             model, monkeypatch, patch_name,
                                             value):
    """When the square-root-free steps leave every node off target, the
    planar search from the saddle seed still meets the residual target and
    finds the same roots, on the volume piece and on the head piece."""
    from poroseis import cagniard

    cases = []
    for branch in branches.values():
        t = fictitious_arrival(0.0, porous_geom, branch) + 3e-3
        q = _sin_nodes(t, porous_geom, branch, n=16)
        cases.append((_gamma_vec, porous_geom, branch, t, q))
    cases += [(_upsilon_vec, *case) for case in
              _head_cases(branches, porous_geom, wide_geom, model.v_max, 16)]
    for solve, geom, branch, t, q in cases:
        fast = solve(t, q, geom, branch)
        with monkeypatch.context() as patch:
            patch.setattr(cagniard, patch_name, value)
            safe = solve(t, q, geom, branch)
        resid = np.abs(phase_time(safe[0], q, geom, branch) - t)
        assert np.max(resid) <= 1e-12 * (1.0 + t)
        assert np.max(np.abs(safe[0] - fast[0]) / np.abs(fast[0])) <= 1e-7
        for k_safe, k_fast in zip(safe[2:], fast[2:]):
            assert np.max(np.abs(k_safe - k_fast) / np.abs(k_fast)) <= 1e-7


def test_contour_nodes_are_independent_of_their_batch(
        acoustic, branches, porous_geom, wide_geom, model):
    """The nodes of two windows at different times, passed to _gamma_vec
    or _upsilon_vec in one call with one t per node, give bit for bit what
    the two windows give on their own: every node stops on its own
    residual, so the time loop may join windows into chunks.  Volume and
    head pieces, transmitted and reflected branches."""
    reflected = reflected_branch(acoustic)
    far = Geometry(h=500.0, x=2500.0, z=100.0)  # post-critical reflection
    pairs = []
    for branch in (*branches.values(), reflected):
        geom = far if branch is reflected else porous_geom
        t0 = fictitious_arrival(0.0, geom, branch)
        pairs.append((_gamma_vec, geom, branch,
                      [(t, _sin_nodes(t, geom, branch, n=16))
                       for t in (t0 + 3e-3, t0 + 0.2)]))
    head = _head_cases(branches, porous_geom, wide_geom, model.v_max, 16)
    pairs.append((_upsilon_vec, *head[0][:2], [c[2:] for c in head[:2]]))
    pairs.append((_upsilon_vec, *head[-1][:2], [c[2:] for c in head[-2:]]))
    arr = arrival_times(far, reflected, model.v_max)
    windows = []
    for t in (arr.t_h1 + 0.3 * (arr.t0 - arr.t_h1),
              arr.t0 + 0.5 * (arr.t_h2 - arr.t0)):
        a, b = head_window(t, arr, far, reflected, model.v_max)
        windows.append((t, a + (np.arange(16) + 0.5) * ((b - a) / 16)))
    pairs.append((_upsilon_vec, far, reflected, windows))
    for solve, geom, branch, ((t1, q1), (t2, q2)) in pairs:
        apart = [np.concatenate(v) for v in zip(solve(t1, q1, geom, branch),
                                                solve(t2, q2, geom, branch))]
        t = np.concatenate([np.full(q1.size, t1), np.full(q2.size, t2)])
        joint = solve(t, np.concatenate([q1, q2]), geom, branch)
        for v_joint, v_apart in zip(joint, apart):
            assert v_joint.tobytes() == v_apart.tobytes(), \
                (solve.__name__, branch.kind)


def test_unsolved_contour_names_its_node(branches, porous_geom, monkeypatch):
    """A node the contour cannot bring to its residual target raises
    ConvergenceFailure carrying the time, slowness and branch."""
    from poroseis import cagniard

    branch = branches[WaveKind.TRANSMITTED_PF]
    t = fictitious_arrival(0.0, porous_geom, branch) + 3e-3
    q = _sin_nodes(t, porous_geom, branch, n=2)
    # A negative target: no residual meets it, not even one that rounds to
    # exactly zero.
    monkeypatch.setattr(cagniard, "_GAMMA_TOL", -1.0)
    with pytest.raises(ConvergenceFailure) as info:
        _gamma_vec(t, q, porous_geom, branch)
    assert info.value.t == t
    assert info.value.q in q.tolist()
    assert info.value.branch == branch.kind.value


def test_handed_over_kappas_lie_on_the_physical_rim(acoustic, branches,
                                                    fluid_geom, porous_geom):
    """The vertical slownesses _gamma_vec returns with gamma agree with
    branch_math.kappa at that gamma to 4 ulp, for every branch of the
    fixture and of 40 random media.

    The ulp is that of the largest term of the argument 1/v^2 + gamma^2 +
    q^2: near a branch point the argument cancels, and its rounding in
    either summation order then shows in kappa."""
    from test_random_media import random_setup

    from poroseis.green import _geometry_for

    cases = [(fluid_geom, reflected_branch(acoustic))]
    cases += [(porous_geom, b) for b in branches.values()]
    for seed in range(40):
        model, receiver, _ = random_setup(seed, acoustic)
        geom = _geometry_for(model, receiver)
        cases += [(geom, b) for b in
                  transmitted_branches(model.acoustic, model.poro).values()]
    for geom, branch in cases:
        for excess in (1e-3, 0.1):
            t = fictitious_arrival(0.0, geom, branch) * (1.0 + excess)
            q = _sin_nodes(t, geom, branch, n=16)
            g, _, k_top, k_bot = _gamma_vec(t, q, geom, branch)
            for k, v in ((k_top, branch.v_top), (k_bot, branch.v_bottom)):
                ref = kappa(v, g, q)
                size = 1.0 / v ** 2 + np.abs(g) ** 2 + q * q
                assert np.all(np.abs(k - ref) <= 4 * np.finfo(float).eps
                              * np.abs(ref) * size / np.abs(ref) ** 2), \
                    (branch.kind, excess)


def test_gamma_rejects_pre_arrival_times(branches, porous_geom):
    branch = branches[WaveKind.TRANSMITTED_PF]
    t0 = fictitious_arrival(0.0, porous_geom, branch)
    with pytest.raises(DomainError):
        gamma(0.99 * t0, 0.0, porous_geom, branch)


def test_head_contour_is_imaginary_segment(branches, wide_geom, model):
    """Head points sit on the negative imaginary axis between tip and saddle."""
    branch = branches[WaveKind.TRANSMITTED_S]
    arr = arrival_times(wide_geom, branch, model.v_max)
    assert arr.head_exists
    for frac in (0.25, 0.5, 0.75):
        t = arr.t_h1 + frac * (min(arr.t0, arr.t_h2) - arr.t_h1)
        lo, hi = head_window(t, arr, wide_geom, branch, model.v_max)
        for q in np.linspace(lo + 0.05 * (hi - lo), hi - 0.05 * (hi - lo), 4):
            point = upsilon(float(t), float(q), wide_geom, branch, model.v_max)
            assert point.value.real == 0.0
            zeta = -point.value.imag
            tip = math.sqrt(1.0 / model.v_max ** 2 + q * q)
            p0 = float(_p0_vec(np.array([q]), wide_geom, branch)[0])
            assert tip <= zeta <= p0 * (1.0 + 1e-12)
            assert point.residual <= 1e-10
            assert point.dt.imag < 0.0


def test_head_solve_is_converged_next_to_the_saddle(branches, porous_geom,
                                                   model):
    """At three fixture P-slow mixed samples, three further Newton steps on
    T(-i*zeta) = t move zeta by less than 1e-7 relative at every node of
    the head window (q0, q1), next to q0 too, where T'(zeta) -> 0 and a
    small residual alone leaves zeta loose."""
    branch = branches[WaveKind.TRANSMITTED_PS]
    arr = arrival_times(porous_geom, branch, model.v_max)
    assert arr.head_exists and arr.t0 < arr.t_h2
    x, d_top, d_bot = porous_geom.x, porous_geom.h, -porous_geom.z
    n = 2000
    for frac in (1e-3, 0.1, 0.9):
        t = arr.t0 + frac * (arr.t_h2 - arr.t0)
        a = q0_of_t(t, porous_geom, branch)
        b = q1_of_t(t, porous_geom, branch, model.v_max)
        u = (np.arange(n) + 0.5) * (math.sqrt(b * b - a * a) / n)
        q = np.sqrt(a * a + u * u)  # the lower_sqrt quadrature nodes
        zeta = -_upsilon_vec(t, q, porous_geom, branch)[0].imag
        sa2 = 1.0 / branch.v_top ** 2 + q * q
        sb2 = 1.0 / branch.v_bottom ** 2 + q * q
        polished = zeta
        for _ in range(3):
            pa, pb = np.sqrt(sa2 - polished ** 2), np.sqrt(sb2 - polished ** 2)
            f = d_top * pa + d_bot * pb + x * polished - t
            polished = polished - f / (x - d_top * polished / pa
                                       - d_bot * polished / pb)
        assert np.max(np.abs(polished - zeta) / zeta) < 1e-7, frac


def _polished_head_roots(t, q, geom, branch, zeta):
    """Four Newton steps on T(-i*zeta) = t in extended precision from zeta,
    and dzeta/dt = 1/T'(zeta) at the result."""
    ld = np.longdouble
    x = ld(geom.x)
    d_top, d_bot = (ld(d) for d in _depths(geom, branch))
    q = q.astype(ld)
    sa2 = 1 / ld(branch.v_top) ** 2 + q * q
    sb2 = 1 / ld(branch.v_bottom) ** 2 + q * q

    def residual_and_slope(z):
        pa, pb = np.sqrt(sa2 - z * z), np.sqrt(sb2 - z * z)
        return (d_top * pa + d_bot * pb + x * z - ld(t),
                x - d_top * z / pa - d_bot * z / pb)

    zeta = zeta.astype(ld)
    for _ in range(4):
        f, slope = residual_and_slope(zeta)
        zeta = zeta - f / slope
    return zeta, 1 / residual_and_slope(zeta)[1]


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= 1e-18,
                    reason="needs an extended-precision long double")
def test_head_contour_is_accurate_next_to_the_saddle(acoustic, branches,
                                                     porous_geom, wide_geom,
                                                     model):
    """zeta and dzeta/dt on the lower_sqrt nodes of mixed head windows
    (q0, q1) agree to 1e-10 and 1e-5 relative with roots polished in
    extended precision, next to q0 too, where T'(zeta) -> 0 and a small
    residual alone leaves zeta loose.  Cases: the fixture P-slow, the wide
    S and P-slow and a wide fluid receiver's reflected branch, at t0 +
    {1e-4, 3e-3, 5e-2, 0.5}*(t_h2 - t0)."""
    cases = [(porous_geom, branches[WaveKind.TRANSMITTED_PS]),
             (wide_geom, branches[WaveKind.TRANSMITTED_S]),
             (wide_geom, branches[WaveKind.TRANSMITTED_PS]),
             (Geometry(h=500.0, x=2500.0, z=100.0), reflected_branch(acoustic))]
    n = 2000
    for geom, branch in cases:
        arr = arrival_times(geom, branch, model.v_max)
        assert arr.head_exists and arr.t0 < arr.t_h2
        for frac in (1e-4, 3e-3, 5e-2, 0.5):
            t = arr.t0 + frac * (arr.t_h2 - arr.t0)
            a = q0_of_t(t, geom, branch)
            b = q1_of_t(t, geom, branch, model.v_max)
            u = (np.arange(n) + 0.5) * (math.sqrt(b * b - a * a) / n)
            q = np.sqrt(a * a + u * u)  # the lower_sqrt quadrature nodes
            ups, dups = _upsilon_vec(t, q, geom, branch)[:2]
            ref, ref_dt = _polished_head_roots(t, q, geom, branch, -ups.imag)
            zeta_err = np.abs(-ups.imag - ref) / ref
            dt_err = np.abs(-dups.imag - ref_dt) / np.abs(ref_dt)
            assert float(np.max(zeta_err)) <= 1e-10, (branch.kind, frac)
            assert float(np.max(dt_err)) <= 1e-5, (branch.kind, frac)


@pytest.mark.parametrize("bend", [
    lambda g, dt: (g + 1e-9 * abs(g[0]), dt),  # off the imaginary axis
    lambda g, dt: (g, np.conj(dt)),            # past the saddle
], ids=["off_axis", "past_saddle"])
def test_misplaced_head_point_names_its_node(branches, wide_geom, model,
                                             monkeypatch, bend):
    """A head point off the imaginary axis, or one where T no longer
    increases in zeta, raises ConvergenceFailure carrying the time,
    slowness and branch."""
    from poroseis import cagniard

    branch = branches[WaveKind.TRANSMITTED_S]
    arr = arrival_times(wide_geom, branch, model.v_max)
    t = 0.5 * (arr.t_h1 + arr.t0)
    lo, hi = head_window(t, arr, wide_geom, branch, model.v_max)
    q = np.linspace(lo, hi, 4)[1:3]
    solve = cagniard._contour

    def bent(*args):
        g, dt, ka, kb = solve(*args)
        g, dt = bend(g, dt)
        return g, dt, ka, kb

    monkeypatch.setattr(cagniard, "_contour", bent)
    with pytest.raises(ConvergenceFailure) as info:
        _upsilon_vec(t, q, wide_geom, branch)
    assert info.value.t == t
    assert info.value.q == q[0]
    assert info.value.branch == branch.kind.value


def test_upsilon_rejects_points_outside_segment(branches, wide_geom, model):
    branch = branches[WaveKind.TRANSMITTED_S]
    arr = arrival_times(wide_geom, branch, model.v_max)
    with pytest.raises(DomainError):
        upsilon(0.5 * arr.t_h1, 0.0, wide_geom, branch, model.v_max)
    t = 0.5 * (arr.t_h1 + min(arr.t0, arr.t_h2))
    _, hi = head_window(t, arr, wide_geom, branch, model.v_max)
    with pytest.raises(DomainError):
        upsilon(t, 2.0 * hi, wide_geom, branch, model.v_max)


def test_q1_rejects_zero_offset(branches, model):
    geom = Geometry(h=500.0, x=0.0, z=-300.0)
    with pytest.raises(DomainError):
        q1_of_t(0.5, geom, branches[WaveKind.TRANSMITTED_PS], model.v_max)


def _arctan(x):
    return np.arctan(x - 0.3), lambda: 1.0 / (1.0 + (x - 0.3) ** 2)


def test_bracketed_newton_converges_where_newton_diverges():
    x = 5.0
    for _ in range(5):  # plain Newton overshoots further at every step
        x -= math.atan(x - 0.3) * (1.0 + (x - 0.3) ** 2)
    assert abs(x - 0.3) > 1e3
    root = _bracketed_newton(_arctan, np.array([5.0]), np.array([-10.0]),
                             np.array([10.0]), np.array([1e-14]), 60)
    assert abs(root[0] - 0.3) <= 1e-12


def test_bracketed_newton_takes_slopes_only_where_it_steps():
    """Every evaluation but the last asks for slopes, each while some point
    is still off target; the last one, where all points have met it, asks
    for none."""
    values, slopes = [], []

    def func(x):
        f, slope = _arctan(x)
        values.append(f)

        def counted():
            slopes.append(len(values) - 1)
            return slope()
        return f, counted

    _bracketed_newton(func, np.array([5.0, 0.3, 2.0]), np.full(3, -10.0),
                      np.full(3, 10.0), np.full(3, 1e-14), 60)
    assert slopes == list(range(len(values) - 1))
    assert len(slopes) > 2
    assert list(np.abs(values[0]) > 1e-14) == [True, False, True]
    for f in values[:-1]:
        assert np.any(np.abs(f) > 1e-14)
    assert np.all(np.abs(values[-1]) <= 1e-14)


def test_bracketed_newton_keeps_points_on_target():
    """A point whose value already meets its target keeps its value bit
    for bit while the others step, so a point's result does not depend on
    the points solved with it."""
    seen = []

    def func(x):
        seen.append(x.copy())
        return _arctan(x)

    x0 = np.array([5.0, 0.3 + 1e-15, -7.0])
    root = _bracketed_newton(func, x0.copy(), np.full(3, -10.0),
                             np.full(3, 10.0), np.array([1e-14, 1e-14, 1e-14]),
                             60)
    assert len(seen) > 2
    assert all(x[1].tobytes() == x0[1].tobytes() for x in seen)
    assert root[1].tobytes() == x0[1].tobytes()
    assert np.all(np.abs(root[[0, 2]] - 0.3) <= 1e-12)
