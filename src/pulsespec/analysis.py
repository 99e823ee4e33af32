"""Spectrum comparison metrics, peak extraction, and spectral statistics."""
from __future__ import annotations

import numpy as np

from .core import GridMismatch, PulsespecError, Spectrum


class ZeroSpectrum(PulsespecError):
    pass


def _check_same_grid(a: Spectrum, b: Spectrum) -> None:
    if a.omegas.size != b.omegas.size or not np.array_equal(a.omegas, b.omegas):
        raise GridMismatch("spectra live on different frequency grids")


def compare_spectra(a: Spectrum, b: Spectrum) -> dict:
    """Symmetric difference metrics on the q arrays.

    l2_rel is ||q_a - q_b|| / max(||q_a||, ||q_b||); peak_amp_rel_diff
    compares max|q| the same way. Identical spectra give all zeros.
    """
    _check_same_grid(a, b)
    diff = a.q - b.q
    norm_a = float(np.linalg.norm(a.q))
    norm_b = float(np.linalg.norm(b.q))
    denom = max(norm_a, norm_b)
    amp_a = float(np.max(np.abs(a.q)))
    amp_b = float(np.max(np.abs(b.q)))
    amp_denom = max(amp_a, amp_b)
    return {
        "linf_abs": float(np.max(np.abs(diff))),
        "l2_rel": float(np.linalg.norm(diff)) / denom if denom > 0 else 0.0,
        "peak_amp_rel_diff": abs(amp_a - amp_b) / amp_denom if amp_denom > 0 else 0.0,
    }


def find_peaks(s: Spectrum, min_prominence: float | None = None
               ) -> list[tuple[float, float, int]]:
    """Local extrema of |q| with prominence above min_prominence.

    Returns (omega, q_value, sign) tuples sorted by |omega|; sign is the
    sign of q at the extremum. min_prominence defaults to 2 percent of
    max|q|, which suppresses quadrature ripple without discarding weak
    high-order features. Monotone spectra yield an empty list.
    """
    y = np.abs(s.q)
    if y.size < 3:
        return []
    if min_prominence is None:
        min_prominence = 0.02 * float(y.max())
    peaks = []
    for j in 1 + np.flatnonzero((y[1:-1] > y[:-2]) & (y[1:-1] > y[2:])):
        # prominence: height above the higher of the two base saddles, each
        # the minimum of y between the peak and the nearest strictly higher
        # point (or the array edge) on that side
        higher = np.flatnonzero(y > y[j])
        k = np.searchsorted(higher, j)
        lo = higher[k - 1] + 1 if k > 0 else 0
        hi = higher[k] if k < higher.size else y.size
        if y[j] - max(y[lo:j + 1].min(), y[j:hi].min()) >= min_prominence:
            qv = float(s.q[j])
            peaks.append((float(s.omegas[j]), qv, 1 if qv >= 0 else -1))
    peaks.sort(key=lambda item: abs(item[0]))
    return peaks


def positive_weight_fraction(s: Spectrum) -> float:
    """Fraction of |q| weight carried by the positive (absorbing) part.

    Trapezoidal integrals of max(q, 0) and |q|; invariant under uniform
    positive rescaling of q.
    """
    total = float(np.trapezoid(np.abs(s.q), s.omegas))
    if total == 0.0:
        raise ZeroSpectrum("q vanishes identically")
    positive = float(np.trapezoid(np.maximum(s.q, 0.0), s.omegas))
    return positive / total


def shape_l2_diff(a: Spectrum, b: Spectrum) -> float:
    """L2 distance between the unit-L2-normalized q curves.

    Scale-free lineshape comparison: 0 for proportional spectra, at most
    2 for opposite ones.
    """
    _check_same_grid(a, b)
    norm_a = float(np.linalg.norm(a.q))
    norm_b = float(np.linalg.norm(b.q))
    if norm_a == 0.0 or norm_b == 0.0:
        raise ZeroSpectrum("cannot shape-normalize a vanishing spectrum")
    return float(np.linalg.norm(a.q / norm_a - b.q / norm_b))
