"""40-digit mpmath tier for the spectrum kernel and the component derivatives.

Both spectrum regimes are covered: binomial coefficients accumulated in
doubles up to ``DIRECT_K_LIMIT`` photons, log-space evaluation above it.
Errors are measured relative to the largest reference entry.
"""

import math

import mpmath
import numpy as np
import pytest

from bsmaj import component_derivatives, spectrum
from bsmaj.beamsplitter import DIRECT_K_LIMIT

KS = (3, 30, 60, 61, 100, 300, 1000)
ANGLES = (0.0, 1e-3, 0.05, 0.3, 0.62, math.pi / 4, 1.0, 1.4, 1.55, math.pi / 2)


def reference(k: int, theta: float):
    """Spectrum and its angle derivatives at 40 digits, as mpf lists."""
    with mpmath.workdps(40):
        th = mpmath.mpf(theta)
        c, s = mpmath.cos(th), mpmath.sin(th)
        spec = [mpmath.binomial(k, n) * c ** (2 * n) * s ** (2 * (k - n))
                for n in range(k + 1)]
        if s == 0:
            return spec, [mpmath.mpf(0)] * (k + 1)
        deriv = [p * (2 * (k - n) * c / s - 2 * n * s / c) for n, p in enumerate(spec)]
    return spec, deriv


def norm_relative_error(got, want) -> float:
    with mpmath.workdps(40):
        scale = max(abs(w) for w in want)
        err = max(abs(mpmath.mpf(float(g)) - w) for g, w in zip(got, want))
        return float(err / scale)


def spectrum_tol(k: int) -> float:
    return 2e-15 if k <= DIRECT_K_LIMIT else 1.5e-15 * k


def derivative_tol(k: int) -> float:
    return 6e-15 if k <= DIRECT_K_LIMIT else 2e-15 * k


@pytest.mark.parametrize("k", KS)
def test_spectrum_matches_mpmath(k):
    for theta in ANGLES:
        want, _ = reference(k, theta)
        got = spectrum(k, theta).components
        assert norm_relative_error(got, want) <= spectrum_tol(k), theta


@pytest.mark.parametrize("k", KS)
def test_component_derivatives_match_mpmath(k):
    for theta in ANGLES:
        _, want = reference(k, theta)
        got = component_derivatives(k, theta)
        if theta == 0.0:
            assert np.array_equal(got, np.zeros(k + 1))
            continue
        assert norm_relative_error(got, want) <= derivative_tol(k), theta
