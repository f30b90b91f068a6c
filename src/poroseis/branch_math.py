"""Square-root branch choices used along the deformed integration contours.

All vertical slownesses have the form kappa = sqrt(1/v^2 + q_x^2 + q_y^2).
The physical branch is the one with non-negative real part, so that
exp(-s*z*kappa) decays with depth; its cut runs along the negative real axis
of the argument.  Points that land exactly on the cut are resolved to the
upper rim (+i*sqrt(|arg|)), matching the limit from the upper half plane.

Everything here accepts scalars or numpy arrays.
"""

from __future__ import annotations

import numpy as np

# Arguments closer to the negative real axis than this are treated as lying
# exactly on the branch cut.
_CUT_WIDTH = 1e-300


def branch_sqrt(q):
    """Principal square root with the cut resolved to the upper rim.

    Off the negative real axis this is the principal branch (real part > 0).
    On the negative real axis, where the two rims disagree, the value is
    +i*sqrt(|q|).
    """
    arr = np.asarray(q, dtype=complex)
    out = np.sqrt(arr)
    on_cut = (np.abs(arr.imag) < _CUT_WIDTH) & (arr.real < 0.0)
    if np.any(on_cut):
        out = np.where(on_cut, 1j * np.sqrt(np.abs(arr.real)), out)
    if np.ndim(q) == 0:
        return complex(out)
    return out


def kappa(v: float, q_x, q_y):
    """Vertical slowness sqrt(1/v^2 + q_x^2 + q_y^2) on the physical branch."""
    q_x = np.asarray(q_x, dtype=complex)
    q_y = np.asarray(q_y, dtype=complex)
    return branch_sqrt(1.0 / (v * v) + q_x * q_x + q_y * q_y)


def kappa_below_cut(v: float, zeta, q_y):
    """Vertical slowness at q_x = -i*zeta, approached from Re(q_x) > 0.

    On the head-wave segment the contour runs down the negative imaginary
    q_x axis, on top of the cuts of every faster branch.  The deformed volume
    contour approaches that segment from Re(q_x) > 0, where
    Im(1/v^2 + q_x^2) < 0, i.e. from below the cut of the argument, so the
    consistent rim value is -i*sqrt(zeta^2 - 1/V^2 - q_y^2) when the argument
    is negative.  Real zeta and q_y only.
    """
    zeta = np.asarray(zeta, dtype=float)
    q_y = np.asarray(q_y, dtype=float)
    w = 1.0 / (v * v) + q_y * q_y - zeta * zeta
    out = np.where(w >= 0.0,
                   np.sqrt(np.abs(w)) + 0.0j,
                   -1j * np.sqrt(np.abs(w)))
    if out.ndim == 0:
        return complex(out)
    return out
