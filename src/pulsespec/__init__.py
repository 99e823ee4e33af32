"""Absorption spectra of a periodically pulsed two-level emitter.

Two independent engines compute the weak-probe absorption spectrum of a
spontaneously decaying two-level system driven by a train of
instantaneous pi pulses: direct propagation of the master equation with
two-time correlators, and exact closed-form expressions for any train
length, the pulse-free run included. The analysis layer compares the two
and extracts peak structure.
"""
from .core import (DEFAULT_GAMMA, AliasedWindow, ConflictingFreeTime,
                   DriveParams, FrequencyGrid, GridMismatch, GridTooLarge,
                   MissingFreeTime, NonFiniteSpectrum, NonPositiveGamma,
                   NonPositiveTau, PulsespecError, Spectrum, TimeGrid,
                   TooManyPulses, build_meta, default_substeps,
                   make_frequency_grid, make_time_grid, refuse_aliasing,
                   validate_params)
from .lindblad import propagate_trajectory
from .correlators import build_correlator_grids
from .spectrum_numeric import compute_numeric_spectrum, numeric_spectrum
from .closed_form import closed_blocks, closed_spectrum
from .validation import (NegativeM, NegativeTheta, OutOfRangeT, f_analytic,
                         rho0, rho_gg_analytic)
from .analysis import (ZeroSpectrum, compare_spectra, find_peaks,
                       positive_weight_fraction, shape_l2_diff)

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_GAMMA", "AliasedWindow", "ConflictingFreeTime", "DriveParams",
    "FrequencyGrid", "GridMismatch", "GridTooLarge", "MissingFreeTime", "NonFiniteSpectrum",
    "NonPositiveGamma", "NonPositiveTau", "PulsespecError", "Spectrum",
    "TimeGrid", "TooManyPulses", "build_meta", "default_substeps",
    "make_frequency_grid", "make_time_grid", "refuse_aliasing",
    "validate_params",
    "propagate_trajectory",
    "build_correlator_grids",
    "compute_numeric_spectrum", "numeric_spectrum",
    "NegativeM", "NegativeTheta", "OutOfRangeT", "closed_blocks",
    "closed_spectrum", "f_analytic", "rho0", "rho_gg_analytic",
    "ZeroSpectrum", "compare_spectra", "find_peaks",
    "positive_weight_fraction", "shape_l2_diff",
    "__version__",
]
