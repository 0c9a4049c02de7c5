"""Closed-form Green functions for space-time fractional diffusion-wave
equations, with a spectral solver and an independent finite-difference
reference path."""

__version__ = "0.1.0"

from .fracmath import (HAccuracyError, HFunctionParams, h_function,
                       mittag_leffler, mittag_leffler_array)
from .operators import SymbolParams, gl_weights, riesz_feller_symbol
from .green import (FourierOnlyError, GreenKind, ProblemSpec, RegimeError,
                    SpecValidationError, ToleranceNotMetError, green_hat,
                    green_mass, green_point_closed, green_points)
from .solver import Field, SourceDescriptor, SpaceTimeGrid, solve
from .oracle import OracleConfig, OracleInstabilityError, oracle_solve

__all__ = [
    "__version__",
    "HAccuracyError", "HFunctionParams", "h_function",
    "mittag_leffler", "mittag_leffler_array",
    "SymbolParams", "gl_weights", "riesz_feller_symbol",
    "FourierOnlyError", "GreenKind", "ProblemSpec", "RegimeError",
    "ToleranceNotMetError", "green_hat", "green_mass",
    "green_point_closed", "green_points",
    "Field", "SourceDescriptor", "SpaceTimeGrid", "SpecValidationError",
    "solve", "OracleConfig", "OracleInstabilityError", "oracle_solve",
]
