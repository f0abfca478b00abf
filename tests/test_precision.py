"""40-digit mpmath tier for the spectrum kernel, the component derivatives,
the accumulation derivatives and the crossover angles.

Both spectrum regimes are covered: binomial coefficients accumulated in
doubles up to 60 photons, log-space evaluation above it. Errors are
measured relative to the largest reference entry.
"""

import math

import mpmath
import numpy as np
import pytest

from bsmaj import accumulation_derivatives, component_derivatives, spectrum
from bsmaj.regions import QUARTER_PI, _crossings

KS = (3, 30, 60, 61, 100, 300, 1000)
REGION_KS = (3, 30, 100, 300)
REGION_ANGLES = (0.01, 0.05, 0.3, 0.62, 0.75, 0.78)
TOL = 1e-12
# 5e-324 and 1e-310 are subnormal: 2k cot(theta) overflows there, and every
# spectrum entry but the last underflows.
ANGLES = (0.0, 5e-324, 1e-310, 1e-3, 0.05, 0.3, 0.62, math.pi / 4, 1.0, 1.4, 1.55,
          math.pi / 2)


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


# The bounds branch on a literal 60, the direct kernel's range they were
# written for, not on ``DIRECT_K_LIMIT``: the log kernel is 4-40 times less
# accurate at k = 10 .. 60, so moving these k onto it fails the bounds
# rather than widening them.
def spectrum_tol(k: int) -> float:
    return 2e-15 if k <= 60 else 1.5e-15 * k


def derivative_tol(k: int) -> float:
    return 6e-15 if k <= 60 else 2e-15 * k


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
        assert np.all(np.isfinite(got)), theta
        if theta == 0.0:
            assert np.array_equal(got, np.zeros(k + 1))
            continue
        assert norm_relative_error(got, want) <= derivative_tol(k), theta


def accumulation_reference(k: int, theta: float):
    """Prefix sums of the derivatives in the exact descending order of the
    40-digit spectrum, the j+1 largest for j = 0 .. k-1."""
    spec, deriv = reference(k, theta)
    order = sorted(range(k + 1), key=lambda n: spec[n], reverse=True)
    with mpmath.workdps(40):
        return [mpmath.fsum(deriv[n] for n in order[: j + 1]) for j in range(k)]


def accumulation_tol(k: int) -> float:
    # k derivatives, each with an error growing as k in the log regime, are
    # summed: measured worst over 27 angles in (0, pi/4) is 5.8e-16, 9.8e-15,
    # 1.4e-13 and 9.8e-13 at k = 3, 30, 100 and 300, about 1.5e-17 k^2
    return 2e-15 + 4e-17 * k * k


def crossover_reference(k: int):
    """Crossover angles at 40 digits, kept and merged as ``_crossings`` does:
    pairs with C(k,n) < C(k,m) whose angle lies strictly inside (tol,
    pi/4 - tol), each within tol of the previous kept angle merged into it."""
    hits = []
    with mpmath.workdps(40):
        for n in range(1, k + 1):
            cn = math.comb(k, n)
            for m in range(n):
                cm = math.comb(k, m)
                if cn < cm:
                    theta = mpmath.atan((mpmath.mpf(cn) / cm) ** (mpmath.mpf(1) / (2 * (n - m))))
                    if TOL < theta < QUARTER_PI - TOL:
                        hits.append(theta)
        hits.sort()
        kept = []
        for theta in hits:
            if not kept or abs(theta - kept[-1]) > TOL:
                kept.append(theta)
    return kept


@pytest.mark.parametrize("k", REGION_KS)
def test_accumulation_derivatives_match_mpmath(k):
    for theta in REGION_ANGLES:
        got = accumulation_derivatives(k, theta).values
        want = accumulation_reference(k, theta)
        assert norm_relative_error(got, want) <= accumulation_tol(k), theta


@pytest.mark.parametrize("k", REGION_KS)
def test_crossover_angles_match_mpmath(k):
    want = crossover_reference(k)
    got = _crossings(k)[0]
    assert len(got) == len(want)
    # each angle is one correctly rounded quotient, a root and an arctangent:
    # measured worst 1.5e-16 relative to pi/4 or less
    assert norm_relative_error(got, want) <= 1e-15
