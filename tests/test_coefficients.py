"""Interface system assembly and the LAPACK solve with its singularity gates."""

import numpy as np
import pytest

from poroseis.branch_math import kappa
from poroseis.coefficients import (_assemble_batch, _solve_batch,
                                   assemble_system, solve_coefficients)
from poroseis.errors import SingularSystem
from poroseis.media import PoroelasticParams, derive_poroelastic

# Normal-incidence coefficients for the validation material, frozen after
# cross-checking a hand-written Gaussian elimination against
# numpy.linalg.solve to machine precision.
R_NORMAL = 1.3493252110766281e-4
T_S_NORMAL = 6.4347872519235e-4


def test_solve_matches_numpy(acoustic, poro, rng):
    qx = rng.uniform(0.0, 8e-4, size=64)
    qy = rng.uniform(0.0, 8e-4, size=64)
    qq = qx * qx + qy * qy
    ka = np.sqrt(1.0 / acoustic.v_plus ** 2 + qq).astype(complex)
    kpf = np.sqrt(1.0 / poro.v_pf ** 2 + qq).astype(complex)
    kps = np.sqrt(1.0 / poro.v_ps ** 2 + qq).astype(complex)
    ks = np.sqrt(1.0 / poro.v_s ** 2 + qq).astype(complex)
    a, b = _assemble_batch(acoustic, poro, qq.astype(complex), ka, kpf, kps, ks)
    ours = _solve_batch(a, b, qx, qy)
    ref = np.linalg.solve(a, b[..., None])[..., 0]
    scale = np.max(np.abs(ref))
    assert np.max(np.abs(ours - ref)) <= 1e-13 * scale


def test_normal_incidence_values(acoustic, poro):
    c = solve_coefficients(acoustic, poro, 0.0, 0.0)
    assert c.r.imag == pytest.approx(0.0, abs=1e-18)
    assert c.r.real == pytest.approx(R_NORMAL, rel=1e-12)
    assert c.t_s.real == pytest.approx(T_S_NORMAL, rel=1e-12)


def test_normal_incidence_structure(acoustic, poro):
    """At zero transverse slowness the shear column decouples from the
    tangential-stress row except through its own diagonal entry."""
    a, b = assemble_system(acoustic, poro, 0.0, 0.0)
    assert a[0, 3] == 0.0
    assert a[2, 3] == pytest.approx(1.0 / poro.v_s ** 2, rel=1e-14)
    assert b[2] == 0.0


def test_real_slowness_gives_real_coefficients(acoustic, poro):
    c = solve_coefficients(acoustic, poro, 4e-4, 2e-4)
    for value in (c.r, c.t_pf, c.t_ps, c.t_s):
        assert abs(value.imag) <= 1e-12 * max(abs(value.real), 1e-300)


def test_conjugate_symmetry(acoustic, poro):
    """Complex-conjugate vertical slowness argument conjugates the solve."""
    qy = 3e-4
    gamma = 2e-4 - 5e-4j
    up = solve_coefficients(acoustic, poro, gamma, qy)
    down = solve_coefficients(acoustic, poro, np.conj(gamma), qy)
    for one, two in zip((up.r, up.t_pf, up.t_ps, up.t_s),
                        (down.r, down.t_pf, down.t_ps, down.t_s)):
        assert one == pytest.approx(np.conj(two), rel=1e-10)


def test_reflection_magnitude_bounded(acoustic, poro):
    """Sub-critical real slowness keeps the reflection coefficient small for
    this nearly-matched water/porous pair."""
    for q in np.linspace(0.0, 6e-4, 30):
        c = solve_coefficients(acoustic, poro, q, 0.0)
        assert abs(c.r) < 1.0


def test_singular_matrix_raises():
    a = np.ones((1, 4, 4), dtype=complex)
    b = np.ones((1, 4), dtype=complex)
    with pytest.raises(SingularSystem) as err:
        _solve_batch(a, b, np.array([1e-3]), np.array([2e-3]))
    assert "1e-03" in str(err.value) or "0.001" in str(err.value)


def test_singular_error_carries_slowness():
    a = np.zeros((1, 4, 4), dtype=complex)
    b = np.ones((1, 4), dtype=complex)
    with pytest.raises(SingularSystem) as err:
        _solve_batch(a, b, np.array([7e-4]), np.array([0.0]))
    assert err.value.q_x == pytest.approx(7e-4)


def test_mixed_unit_system_is_not_singular(acoustic):
    """The rows mix 1/rho and Pa: this admissible medium's raw condition
    number is about 1e14 but the equilibrated one about 6.5e2, so a pivot
    test against the raw row-sum norm would reject a well-posed system."""
    poro = derive_poroelastic(PoroelasticParams(
        rho_s=2040.2182209046007, rho_f=1113.4460472353273,
        phi=0.3060616344185112, a=2.6519144443407985, k_s=28438797176.24685,
        k_f=1794341380.5625176, k_b=21080471159.22857, mu=29635011739.050343))
    q_x = 7.188761993841277e-07 - 5.392549196783516e-04j
    q_y = 4.6162754850875387e-04
    c = solve_coefficients(acoustic, poro, q_x, q_y)
    a, b = assemble_system(acoustic, poro, q_x, q_y)
    x = np.array([c.r, c.t_pf, c.t_ps, c.t_s])
    resid = np.max(np.abs(a @ x - b))
    scale = max(np.max(np.abs(b)),
                np.max(np.sum(np.abs(a), axis=1)) * np.max(np.abs(x)))
    assert resid <= 1e-10 * scale


def test_ill_conditioned_system_raises():
    """Two rows equal to 1e-15: LAPACK solves it, the equilibrated
    condition bound rejects it."""
    a = np.eye(4, dtype=complex)[np.newaxis].repeat(2, axis=0)
    a[1, 0, 1] = a[1, 1, 0] = 1.0
    a[1, 1, 1] = 1.0 + 1e-15
    b = np.ones((2, 4), dtype=complex)
    b[1, 1] = 0.0
    with pytest.raises(SingularSystem, match="condition") as err:
        _solve_batch(a, b, np.array([1e-4, 5e-4]), 2e-4)
    assert err.value.q_x == pytest.approx(5e-4)


def test_non_finite_system_raises():
    a = np.eye(4, dtype=complex)[np.newaxis]
    a[0, 2, 2] = np.nan
    b = np.ones((1, 4), dtype=complex)
    with pytest.raises(SingularSystem) as err:
        _solve_batch(a, b, np.array([3e-4]), np.array([1e-4]))
    assert err.value.q_y == pytest.approx(1e-4)
