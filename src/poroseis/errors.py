"""Exception types shared across the package."""


class PoroseisError(Exception):
    """Base class for all package-specific errors."""


class NonPhysical(PoroseisError):
    """Material parameters violate a physical admissibility condition."""


class SingularSystem(PoroseisError):
    """The interface linear system is (numerically) singular at some slowness.

    Carries the horizontal slowness pair at which the pivot or the residual
    check failed, so a failing run can be reproduced directly.
    """

    def __init__(self, q_x, q_y, detail=""):
        self.q_x = q_x
        self.q_y = q_y
        msg = f"interface system singular at q_x={q_x!r}, q_y={q_y!r}"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)


class ConvergenceFailure(PoroseisError):
    """An iterative contour solve did not reach its residual target.

    Carries time, transverse slowness and branch tag for reproduction.
    """

    def __init__(self, t, q, branch, detail=""):
        self.t = t
        self.q = q
        self.branch = branch
        msg = f"contour solve failed at t={t!r}, q={q!r}, branch={branch}"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)


class DomainError(PoroseisError):
    """An operation was requested outside its admissible (t, q) domain.

    t, when given, is the offending time, so a vectorized caller can tell
    which of its samples failed.
    """

    def __init__(self, msg="", t=None):
        self.t = t
        super().__init__(msg)


class NonFiniteIntegrand(PoroseisError):
    """The quadrature integrand returned a non-finite value."""

    def __init__(self, q, value=None):
        self.q = q
        self.value = value
        super().__init__(f"integrand is not finite at q={q!r} (value={value!r})")


class GridTooCoarse(PoroseisError):
    """The time step cannot resolve the source wavelet."""


class NotConverged(PoroseisError):
    """A reference (oracle) computation failed its self-convergence check."""


class RealnessError(PoroseisError):
    """A quantity that must be real carried a non-negligible imaginary part."""


class InvariantViolation(PoroseisError):
    """A result breaks a property the computation guarantees by construction."""
