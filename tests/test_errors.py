"""Error messages carry plain numbers."""

import numpy as np

from poroseis.errors import ConvergenceFailure, SingularSystem


def test_messages_from_numpy_scalars_read_as_plain_numbers():
    """Errors built from numpy scalars print and keep plain complex and
    float values, so that a message reads as under numpy 1 and can be
    pasted back into a reproduction."""
    singular = SingularSystem(np.complex128(5e-4 - 2e-4j), np.float64(3e-4),
                              "relative residual")
    failure = ConvergenceFailure(np.float64(0.63374), np.float64(1.3985e-4),
                                 "transmitted_s", "stub")
    for err in (singular, failure):
        assert "np." not in str(err)
    assert "q_x=(0.0005-0.0002j), q_y=0.0003" in str(singular)
    assert "t=0.63374, q=0.00013985" in str(failure)
    assert type(singular.q_x) is complex and type(singular.q_y) is float
    assert type(failure.t) is float and type(failure.q) is float
