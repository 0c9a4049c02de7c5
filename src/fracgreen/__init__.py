"""Closed-form Green functions for space-time fractional diffusion-wave
equations, with a spectral solver and an independent finite-difference
reference path.

The public names and the submodules load on first access, so importing
the package, or the CLI module alone, loads neither numpy nor any
library module."""

import importlib

__version__ = "0.1.0"

# each public name, in the order of __all__, and its defining module
_HOME = {
    "HAccuracyError": "fracmath", "HFunctionParams": "fracmath",
    "h_function": "fracmath", "mittag_leffler": "fracmath",
    "mittag_leffler_array": "fracmath",
    "SymbolParams": "operators", "gl_weights": "operators",
    "riesz_feller_symbol": "operators",
    "FourierOnlyError": "green", "GreenKind": "green",
    "ProblemSpec": "green", "RegimeError": "green",
    "ToleranceNotMetError": "green", "green_hat": "green",
    "green_mass": "green", "green_point_closed": "green",
    "green_points": "green",
    "Field": "solver", "SourceDescriptor": "solver",
    "SpaceTimeGrid": "solver", "SpecValidationError": "green",
    "solve": "solver", "OracleConfig": "oracle",
    "OracleInstabilityError": "oracle", "oracle_solve": "oracle",
}

__all__ = ["__version__", *_HOME]


def __getattr__(name):
    if name in _HOME.values():
        return importlib.import_module(f"{__name__}.{name}")
    if name in _HOME:
        return getattr(__getattr__(_HOME[name]), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
