"""Reflection and transmission coefficients of the fluid/porous interface.

A unit compressional point load in the fluid produces one reflected acoustic
wave and three transmitted waves (fast compressional, slow compressional,
shear).  Their amplitudes solve a 4x4 linear system expressing, row by row:

1. continuity of vertical displacement, with the open-pore relative fluid
   flow entering through the shear potential,
2. continuity of fluid pressure with pore pressure,
3. vanishing tangential stress on the porous side,
4. normal (total) stress balance against the fluid pressure.

The system is assembled per horizontal slowness (q_x, q_y); entries depend on
q_x and q_y only through q_x^2 + q_y^2 and the vertical slownesses, which is
what makes the transverse-slowness reduction of the 3-D problem work.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .branch_math import kappa
from .errors import SingularSystem
from .media import AcousticMedium, PoroelasticDerived

# Equilibrated condition number (lower bound) at which a system counts as
# singular.
_COND_LIMIT = 1e14
# Verified relative residual bound for every solve.
_RESIDUAL_BOUND = 1e-10


@dataclass(frozen=True)
class InterfaceCoefficients:
    r: complex     # reflected acoustic potential amplitude
    t_pf: complex  # transmitted fast compressional amplitude
    t_ps: complex  # transmitted slow compressional amplitude
    t_s: complex   # transmitted shear potential amplitude


def assemble_system(acoustic: AcousticMedium, poro: PoroelasticDerived,
                    q_x, q_y) -> tuple[np.ndarray, np.ndarray]:
    """Build the 4x4 system matrix and right-hand side at one slowness pair."""
    k_plus = kappa(acoustic.v_plus, q_x, q_y)
    k_pf = kappa(poro.v_pf, q_x, q_y)
    k_ps = kappa(poro.v_ps, q_x, q_y)
    k_s = kappa(poro.v_s, q_x, q_y)
    qq = complex(q_x) ** 2 + complex(q_y) ** 2
    a, b = _assemble_batch(
        acoustic, poro,
        np.atleast_1d(qq),
        np.atleast_1d(k_plus), np.atleast_1d(k_pf),
        np.atleast_1d(k_ps), np.atleast_1d(k_s),
    )
    return a[0], b[0]


def solve_coefficients(acoustic: AcousticMedium, poro: PoroelasticDerived,
                       q_x, q_y) -> InterfaceCoefficients:
    """Solve the interface system at one slowness pair."""
    a, b = assemble_system(acoustic, poro, q_x, q_y)
    x = _solve_batch(a[np.newaxis], b[np.newaxis],
                     np.atleast_1d(q_x), np.atleast_1d(q_y))[0]
    return InterfaceCoefficients(r=complex(x[0]), t_pf=complex(x[1]),
                                 t_ps=complex(x[2]), t_s=complex(x[3]))


def _assemble_batch(acoustic, poro, qq, k_plus, k_pf, k_ps, k_s):
    """Assemble (m, 4, 4) matrices and (m, 4) right-hand sides.

    The vertical slownesses are passed in rather than recomputed so that the
    caller controls the branch (deformed contours evaluate them on a specific
    rim of the cut).  Their squares are branch-free and are rebuilt from qq.
    Real inputs give real systems.
    """
    p11, p12 = poro.p_mat[0, 0], poro.p_mat[0, 1]
    p21, p22 = poro.p_mat[1, 0], poro.p_mat[1, 1]
    rho_plus = acoustic.rho_plus
    v_plus = acoustic.v_plus
    m_mod = poro.m
    beta = poro.beta
    mu = poro.params.mu
    rho_f = poro.params.rho_f

    qq = np.asarray(qq)
    dtype = np.result_type(qq, k_plus, k_pf, k_ps, k_s)
    n = qq.shape[0]
    a = np.zeros((n, 4, 4), dtype=dtype)
    b = np.zeros((n, 4), dtype=dtype)

    k_pf_sq = 1.0 / poro.v_pf ** 2 + qq
    k_ps_sq = 1.0 / poro.v_ps ** 2 + qq
    k_s_sq = 1.0 / poro.v_s ** 2 + qq

    # Vertical displacement continuity (solid frame plus relative flow).
    a[:, 0, 0] = -k_plus / rho_plus
    a[:, 0, 1] = (p11 + p21) * k_pf
    a[:, 0, 2] = (p12 + p22) * k_ps
    a[:, 0, 3] = (1.0 - rho_f / poro.rho_w) * qq
    # Fluid pressure equals pore pressure.
    a[:, 1, 0] = 1.0
    a[:, 1, 1] = m_mod * (beta * p11 + p21) / poro.v_pf ** 2
    a[:, 1, 2] = m_mod * (beta * p12 + p22) / poro.v_ps ** 2
    # Tangential stress vanishes on the porous side.
    a[:, 2, 1] = 2.0 * p11 * k_pf
    a[:, 2, 2] = 2.0 * p12 * k_ps
    a[:, 2, 3] = k_s_sq + qq
    # Normal stress balances the fluid pressure.
    lam_c = poro.lam + m_mod * beta * beta
    a[:, 3, 0] = 1.0
    a[:, 3, 1] = (lam_c * p11 + m_mod * beta * p21) / poro.v_pf ** 2 \
        + 2.0 * mu * k_pf_sq * p11
    a[:, 3, 2] = (lam_c * p12 + m_mod * beta * p22) / poro.v_ps ** 2 \
        + 2.0 * mu * k_ps_sq * p12
    a[:, 3, 3] = 2.0 * mu * qq * k_s

    src = -1.0 / (2.0 * k_plus * v_plus ** 2)
    b[:, 0] = src * k_plus / rho_plus
    b[:, 1] = src
    b[:, 3] = src
    return a, b


def _solve_batch(a, b, q_x, q_y):
    """Solve a batch of 4x4 systems with LAPACK (batched numpy.linalg.solve).

    The rows mix units (1/rho against stresses in Pa), so singularity is
    judged on the row- then column-equilibrated system R A C, in the spirit
    of LAPACK xGEEQU: a system is singular when LAPACK finds an exact zero
    pivot, when its solution is not finite, or when the lower bound
    max|x_j / c_j| / max|r_i b_i| of the equilibrated condition number
    reaches 1e14.  Partial pivoting does not depend on the column scales,
    so LAPACK solves the raw systems and the scales serve only this test.
    Every solution is verified against a relative residual bound of 1e-10
    on the original system.  A failure raises SingularSystem identifying
    the offending slowness pair.

    Parameters are the stacked systems (m, 4, 4), (m, 4) and the slowness
    arrays used only for error reporting (q_y may be scalar).
    """
    q_y = np.broadcast_to(np.asarray(q_y), np.asarray(q_x).shape)

    def fail(bad, detail, value=None):
        """Raise SingularSystem for the first system flagged in bad."""
        i = int(np.argmax(bad))
        if value is not None:
            detail = f"{detail} {value[i]:.3e}"
        raise SingularSystem(q_x[i], q_y[i], detail)

    try:
        x = np.linalg.solve(a, b[..., np.newaxis])[..., 0]
    except np.linalg.LinAlgError:
        fail(np.linalg.det(a) == 0.0, "exactly singular")
    if not np.all(np.isfinite(x)):
        fail(~np.all(np.isfinite(x), axis=1), "solution not finite")

    abs_a = np.abs(a)
    abs_b = np.abs(b)
    abs_x = np.abs(x)
    norm_a = _max4(np.sum(abs_a, axis=2))
    row = 1.0 / _max4(abs_a)
    abs_a *= row[:, :, np.newaxis]
    col = 1.0 / _max4(np.swapaxes(abs_a, 1, 2))
    cond = _max4(abs_x / col) / _max4(abs_b * row)
    ill = cond >= _COND_LIMIT
    if np.any(ill):
        fail(ill, "equilibrated condition number at least", cond)

    resid = _max4(np.abs(np.einsum("mij,mj->mi", a, x) - b))
    scale = np.maximum(_max4(abs_b), norm_a * _max4(abs_x))
    bad = ~(resid <= _RESIDUAL_BOUND * scale)
    if np.any(bad):
        fail(bad, "relative residual", resid / scale)
    return x


def _max4(v):
    """Maximum over the last axis, of length 4.

    numpy's own reduction over an axis this short costs about twenty times
    as much as these three elementwise maxima.
    """
    return np.maximum(np.maximum(v[..., 0], v[..., 1]),
                      np.maximum(v[..., 2], v[..., 3]))
