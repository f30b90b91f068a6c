"""Exact reference seismograms for a fluid layer over a poroelastic half-space.

A compressional point source in the fluid, a plane interface, and a lossless
porous solid below: for this configuration the package evaluates the exact
impulse response (incident, reflected and three transmitted waves) by
deforming the horizontal-slowness integration path, plus source-convolved
seismograms and an independent Laplace-domain oracle for end-to-end
verification.
"""

from .branch_math import branch_sqrt, kappa
from .cagniard import (ArrivalTimes, ContourPoint, Geometry, WaveBranch,
                       WaveKind, arrival_times, fictitious_arrival, gamma,
                       q0_of_t, q1_of_t, snell_time, upsilon)
from .coefficients import InterfaceCoefficients, assemble_system, solve_coefficients
from .errors import (ConvergenceFailure, DomainError, GridTooCoarse,
                     InvariantViolation, NonFiniteIntegrand, NonPhysical,
                     NotConverged, PoroseisError, SingularSystem)
from .green import (GreenTrace, HalfspaceModel, QuadratureConfig, Receiver,
                    green_trace, incident_trace, quadrature, reflected_trace,
                    rotate_to_3d, transmitted_trace)
from .media import (AcousticMedium, PoroelasticDerived, PoroelasticParams,
                    derive_poroelastic, validate)
from .oracle import (LaplaceProbe, default_probe, grid_min_arrival,
                     laplace_of_trace, laplace_reference)
from .seismogram import (Seismogram, SourceWavelet, convolve, wavelet_derivative,
                         wavelet_value)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
