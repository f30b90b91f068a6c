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

The entry formulas live in _structural_entries alone.  Two solvers take
these entries and return (r, t_pf, t_ps, t_s):

- the trace engine (poroseis.green) solves every quadrature node in closed
  form with _solve_structured, which eliminates R and takes one adjugate
  column of the remaining 3x3 system, without building 4x4 matrices;
- solve_coefficients and the Laplace oracle (poroseis.oracle) solve with
  LAPACK in _solve_batch.  Keeping the oracle on a different solver lets it
  judge the closed form instead of sharing its errors.

Each maps an exact zero determinant or pivot to SingularSystem, and both
then call one gate function, _check_solution, on the 4x4 system: a
non-finite solution, the equilibrated condition bound and the relative
residual.  The singularity policy is written there once.

_check_solution first certifies the whole batch with two inequalities per
system, which need neither the row and column scales nor the norm of the
matrix:

    (a)  max(1, |a11|, |a12|) * max_j |x_j| < (_COND_LIMIT / 2) * |b1|,
    (b)  residual < (_RESIDUAL_BOUND / 2) * max(|b0|, |b1|),

with the gates' own four-row residual.  Each implies its gate.  Every
column scale of the row-equilibrated matrix is at most 1, and the gates'
denominator is at least |b1| over the row-1 maximum max(1, |a11|, |a12|),
so (a) keeps the condition bound below _COND_LIMIT / 2.  The gates'
residual scale is at least max(|b0|, |b1|), so (b) keeps the relative
residual below _RESIDUAL_BOUND / 2.  The factor 1/2 covers the rounding
of the few operations on either side.  A NaN anywhere or an inf in the
solution fails (a) or (b), and so does an infinite entry: it makes the
residual inf or NaN, which the strict inequality (b) rejects even where
the bound is inf too.
Only a batch with a system outside them goes through the full gates
(_full_gates), which alone raise SingularSystem, so every verdict, message
and first failing index is theirs.
"""

from __future__ import annotations

import functools
from collections import namedtuple
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
    a, b = _scatter(_entries_at(acoustic, poro, q_x, q_y))
    return a[0], b[0]


def solve_coefficients(acoustic: AcousticMedium, poro: PoroelasticDerived,
                       q_x, q_y) -> InterfaceCoefficients:
    """Solve the interface system at one slowness pair."""
    x = _solve_batch(_entries_at(acoustic, poro, q_x, q_y),
                     np.atleast_1d(q_x), np.atleast_1d(q_y))
    return InterfaceCoefficients(*(complex(v[0]) for v in x))


def _entries_at(acoustic, poro, q_x, q_y) -> InterfaceEntries:
    """Entries of the one-system batch at the slowness pair (q_x, q_y)."""
    kappas = [np.atleast_1d(kappa(v, q_x, q_y))
              for v in (acoustic.v_plus, poro.v_pf, poro.v_ps, poro.v_s)]
    qq = np.atleast_1d(complex(q_x) ** 2 + complex(q_y) ** 2)
    return _structural_entries(acoustic, poro, qq, *kappas)


# The twelve non-trivial entries of the interface system and the values of
# its right-hand side (b0, b1, 0, b1).  The pressure row (1) and the
# normal-stress row (3) carry a unit coefficient on R; every other entry
# not named here is zero.  a11 and a12 do not depend on the slowness.
InterfaceEntries = namedtuple(
    "InterfaceEntries",
    "a00 a01 a02 a03 a11 a12 a21 a22 a23 a31 a32 a33 b0 b1")

# (row, column) of the InterfaceEntries matrix fields.
_ENTRY_POSITIONS = ((0, 0), (0, 1), (0, 2), (0, 3), (1, 1), (1, 2),
                    (2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (3, 3))


@np.errstate(all="ignore")
def _structural_entries(acoustic, poro, qq, k_plus, k_pf, k_ps,
                        k_s) -> InterfaceEntries:
    """Entries of the interface systems at a batch of slownesses.

    The vertical slownesses are passed in rather than recomputed so that the
    caller controls the branch (deformed contours evaluate them on a specific
    rim of the cut).  Their squares are branch-free and are rebuilt from qq.
    Real inputs give real entries.  A non-finite entry (kappa_+ = 0 at the
    branch point makes the source term infinite) raises no numpy warning;
    the solvers' gates report it.
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
    k_pf_sq = 1.0 / poro.v_pf ** 2 + qq
    k_ps_sq = 1.0 / poro.v_ps ** 2 + qq
    k_s_sq = 1.0 / poro.v_s ** 2 + qq
    lam_c = poro.lam + m_mod * beta * beta
    src = -1.0 / (2.0 * k_plus * v_plus ** 2)
    return InterfaceEntries(
        # Vertical displacement continuity (solid frame plus relative flow).
        a00=-k_plus / rho_plus,
        a01=(p11 + p21) * k_pf,
        a02=(p12 + p22) * k_ps,
        a03=(1.0 - rho_f / poro.rho_w) * qq,
        # Fluid pressure equals pore pressure (a10 = 1).
        a11=m_mod * (beta * p11 + p21) / poro.v_pf ** 2,
        a12=m_mod * (beta * p12 + p22) / poro.v_ps ** 2,
        # Tangential stress vanishes on the porous side.
        a21=2.0 * p11 * k_pf,
        a22=2.0 * p12 * k_ps,
        a23=k_s_sq + qq,
        # Normal stress balances the fluid pressure (a30 = 1).
        a31=(lam_c * p11 + m_mod * beta * p21) / poro.v_pf ** 2
        + 2.0 * mu * k_pf_sq * p11,
        a32=(lam_c * p12 + m_mod * beta * p22) / poro.v_ps ** 2
        + 2.0 * mu * k_ps_sq * p12,
        a33=2.0 * mu * qq * k_s,
        b0=src * k_plus / rho_plus,
        b1=src,
    )


def _assemble_batch(acoustic, poro, qq, k_plus, k_pf, k_ps, k_s):
    """Assemble (m, 4, 4) matrices and (m, 4) right-hand sides.

    Arguments as in _structural_entries; real inputs give real systems.
    """
    return _scatter(_structural_entries(acoustic, poro, qq, k_plus, k_pf,
                                        k_ps, k_s))


def _scatter(e: InterfaceEntries):
    """The (m, 4, 4) matrices and (m, 4) right-hand sides of the entries."""
    dtype = np.result_type(*e)
    n = np.broadcast(*e).shape[0]
    a = np.zeros((n, 4, 4), dtype=dtype)
    b = np.zeros((n, 4), dtype=dtype)
    for (i, j), value in zip(_ENTRY_POSITIONS, e):
        a[:, i, j] = value
    a[:, 1, 0] = a[:, 3, 0] = 1.0
    b[:, 0] = e.b0
    b[:, 1] = b[:, 3] = e.b1
    return a, b


def _solve_batch(e: InterfaceEntries, q_x, q_y):
    """Solve a batch of interface systems with LAPACK (numpy.linalg.solve).

    The entries are scattered into (m, 4, 4) matrices; an exact zero pivot
    raises SingularSystem "exactly singular" at the first system with a
    zero determinant, and every solution then passes _check_solution, the
    gates the closed form passes too.  This solve serves
    solve_coefficients and the Laplace oracle, which thereby check the
    trace engine's closed form (_solve_structured) with an independent
    solver: the gates only accept or reject, so the values are LAPACK's.

    Returns the arrays (r, t_pf, t_ps, t_s); q_x and q_y serve only the
    error report (q_y may be scalar).
    """
    a, b = _scatter(e)
    try:
        x = np.linalg.solve(a, b[..., np.newaxis])[..., 0]
    except np.linalg.LinAlgError:
        with np.errstate(all="ignore"):  # a NaN entry makes det warn
            zero_det = np.linalg.det(a) == 0.0
        _fail(q_x, q_y, zero_det, "exactly singular")
    x = tuple(x.T)
    _check_solution(e, x, q_x, q_y)
    return x


def _solve_structured(e: InterfaceEntries, q_x, q_y):
    """Solve a batch of interface systems in closed form from their entries.

    Row 1 gives R = b1 - a11 t_pf - a12 t_ps.  Substituting it into rows
    0 and 3 leaves the 3x3 system M (t_pf, t_ps, t_s) = (c, 0, 0),

        M = [[a01 - a00 a11, a02 - a00 a12, a03],
             [a21,           a22,           a23],
             [a31 - a11,     a32 - a12,     a33]],   c = b0 - a00 b1,

    whose solution is c times the first column of the adjugate of M over
    its determinant.  A zero determinant raises SingularSystem "exactly
    singular" before any division; every solution then passes
    _check_solution, the gates of _solve_batch.  No (m, 4, 4) array is
    built.

    Returns the arrays (r, t_pf, t_ps, t_s); q_x and q_y serve only the
    error report (q_y may be scalar).
    """
    a00, a01, a02, a03, a11, a12, a21, a22, a23, a31, a32, a33, b0, b1 = e

    # Non-finite entries or an overflow show up as a non-finite solution,
    # reported by its gate rather than as a numpy warning.
    with np.errstate(all="ignore"):
        m00 = a01 - a00 * a11
        m01 = a02 - a00 * a12
        m20 = a31 - a11
        m21 = a32 - a12
        adj0 = a22 * a33 - a23 * m21
        adj1 = a23 * m20 - a21 * a33
        adj2 = a21 * m21 - a22 * m20
        det = m00 * adj0 + m01 * adj1 + a03 * adj2
        if np.any(det == 0.0):
            _fail(q_x, q_y, det == 0.0, "exactly singular")
        c_det = (b0 - a00 * b1) / det
        t_pf = c_det * adj0
        t_ps = c_det * adj1
        t_s = c_det * adj2
        r = b1 - a11 * t_pf - a12 * t_ps
    x = (r, t_pf, t_ps, t_s)
    _check_solution(e, x, q_x, q_y)
    return x


def _check_solution(e: InterfaceEntries, x, q_x, q_y):
    """The singularity gates of the interface solves, on the 4x4 system.

    x is the solution (r, t_pf, t_ps, t_s) of the systems with entries e.
    A batch passes at once when every system meets both inequalities of
    _certified,

        (a)  max(1, |a11|, |a12|) * max_j |x_j| < (_COND_LIMIT / 2) * |b1|,
        (b)  residual < (_RESIDUAL_BOUND / 2) * max(|b0|, |b1|).

    They are sound: every column scale of the equilibrated system is at
    most 1 and the full gates' condition denominator is at least
    |b1| / max(1, |a11|, |a12|), so (a) bounds their condition number by
    _COND_LIMIT / 2; their residual scale is at least max(|b0|, |b1|), so
    (b) bounds their relative residual by _RESIDUAL_BOUND / 2.  Any other
    batch goes through _full_gates, which raise SingularSystem at the first
    failing slowness pair.  x is never changed.
    """
    if not np.all(_certified(e, x)):
        _full_gates(e, x, q_x, q_y)


def _certified(e: InterfaceEntries, x):
    """Per system, whether inequalities (a) and (b) of _check_solution hold.

    The residual is that of the full gates (_residual).  A NaN anywhere, an
    inf in the solution or an infinite entry makes a system fail.
    """
    with np.errstate(all="ignore"):
        abs_b1 = np.abs(e.b1)
        ok = _max(1.0, np.abs(e.a11), np.abs(e.a12)) \
            * _max(*(np.abs(v) for v in x)) < (0.5 * _COND_LIMIT) * abs_b1
        ok &= _residual(e, x) \
            < (0.5 * _RESIDUAL_BOUND) * np.maximum(np.abs(e.b0), abs_b1)
    return ok


@np.errstate(all="ignore")
def _full_gates(e: InterfaceEntries, x, q_x, q_y):
    """The singularity gates on the row- and column-equilibrated system.

    The rows mix units (1/rho against stresses in Pa), so singularity is
    judged on the row- then column-equilibrated system R A C, in the spirit
    of LAPACK xGEEQU.  In order, a non-finite solution, a lower bound
    max|x_j / c_j| / max|r_i b_i| of the equilibrated condition number at
    or above _COND_LIMIT, and a relative residual on the original system
    not below _RESIDUAL_BOUND each raise SingularSystem at the first failing
    slowness pair.  Infinite entries make the scales inf / inf and the
    residual inf * 0; those NaNs raise no numpy warning.  An infinite entry
    makes the residual inf or NaN and its scale inf, which the strict
    residual inequality rejects.
    """
    a00, a01, a02, a03, a11, a12, a21, a22, a23, a31, a32, a33, b0, b1 = e
    r, t_pf, t_ps, t_s = x
    finite = np.isfinite(r) & np.isfinite(t_pf) & np.isfinite(t_ps) \
        & np.isfinite(t_s)
    if not np.all(finite):
        _fail(q_x, q_y, ~finite, "solution not finite")

    # Row maxima of |A| (rows 1 and 3 hold the unit coefficient of R), and
    # column maxima of the row-equilibrated |A|.
    g00, g01, g02, g03, g11, g12, g21, g22, g23, g31, g32, g33 = (
        np.abs(v) for v in e[:12])
    row0 = _max(g00, g01, g02, g03)
    row1 = _max(1.0, g11, g12)
    row2 = _max(g21, g22, g23)
    row3 = _max(1.0, g31, g32, g33)
    col0 = _max(g00 / row0, 1.0 / row1, 1.0 / row3)
    col1 = _max(g01 / row0, g11 / row1, g21 / row2, g31 / row3)
    col2 = _max(g02 / row0, g12 / row1, g22 / row2, g32 / row3)
    col3 = _max(g03 / row0, g23 / row2, g33 / row3)
    abs_x = [np.abs(v) for v in x]
    abs_b0, abs_b1 = np.abs(b0), np.abs(b1)
    cond = _max(abs_x[0] * col0, abs_x[1] * col1, abs_x[2] * col2,
                abs_x[3] * col3) \
        / _max(abs_b0 / row0, abs_b1 / row1, abs_b1 / row3)
    ill = cond >= _COND_LIMIT
    if np.any(ill):
        _fail(q_x, q_y, ill, "equilibrated condition number at least", cond)

    norm_a = _max(g00 + g01 + g02 + g03, 1.0 + g11 + g12, g21 + g22 + g23,
                  1.0 + g31 + g32 + g33)
    resid = _residual(e, x)
    scale = np.maximum(np.maximum(abs_b0, abs_b1), norm_a * _max(*abs_x))
    bad = ~(resid < _RESIDUAL_BOUND * scale)
    if np.any(bad):
        _fail(q_x, q_y, bad, "relative residual", resid / scale)


def _residual(e: InterfaceEntries, x):
    """Largest row residual |(A x - b)_i| of each system."""
    a00, a01, a02, a03, a11, a12, a21, a22, a23, a31, a32, a33, b0, b1 = e
    r, t_pf, t_ps, t_s = x
    return _max(
        np.abs(a00 * r + a01 * t_pf + a02 * t_ps + a03 * t_s - b0),
        np.abs(r + a11 * t_pf + a12 * t_ps - b1),
        np.abs(a21 * t_pf + a22 * t_ps + a23 * t_s),
        np.abs(r + a31 * t_pf + a32 * t_ps + a33 * t_s - b1))


def _fail(q_x, q_y, bad, detail, value=None):
    """Raise SingularSystem for the first system flagged in bad.

    q_y may be scalar; value, when given, is reported at that system.
    """
    i = int(np.argmax(bad))
    if value is not None:
        detail = f"{detail} {value[i]:.3e}"
    raise SingularSystem(q_x[i], np.broadcast_to(q_y, np.shape(q_x))[i],
                         detail)


def _max(*values):
    """Elementwise maximum of its arguments.

    numpy's own reduction over a short axis costs about twenty times as much
    as a chain of elementwise maxima.
    """
    return functools.reduce(np.maximum, values)

