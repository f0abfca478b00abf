"""Schmidt spectra of Fock states mixed with vacuum on a beam splitter.

A k-photon Fock state in one port and vacuum in the other produce a
two-mode output whose Schmidt spectrum is the binomial distribution over
the number of transmitted photons: component n is

    C(k, n) * cos(theta)^(2n) * sin(theta)^(2(k-n)),

with transmittance tau = cos^2(theta).
"""

from __future__ import annotations

import math
import operator

import numpy as np

from .majorization import MajorizationVerdict, compare
from .vectors import TOL, ProbVector

#: Largest k for which binomial coefficients are accumulated directly in
#: doubles; above this the components are evaluated in log space.
DIRECT_K_LIMIT = 60


def as_photon_number(k) -> int:
    """Validate a nonnegative integer photon count (floats are rejected)."""
    try:
        k = operator.index(k)
    except TypeError:
        raise ValueError(f"photon number must be an integer, got {k!r}") from None
    if k < 0:
        raise ValueError(f"photon number must be nonnegative, got {k}")
    return k


def check_angle(theta: float) -> float:
    """Validate a coupling angle in [0, pi/2]."""
    theta = float(theta)
    if not 0.0 <= theta <= math.pi / 2:
        raise ValueError(f"theta must lie in [0, pi/2], got {theta!r}")
    return theta


def transmittance(theta: float) -> float:
    """Fraction of incident photons transmitted, cos^2(theta)."""
    return math.cos(check_angle(theta)) ** 2


def spectrum(k: int, theta: float) -> ProbVector:
    """Transmitted-photon distribution for k incident photons at angle theta."""
    k = as_photon_number(k)
    theta = check_angle(theta)
    c2 = math.cos(theta) ** 2
    s2 = math.sin(theta) ** 2
    if k == 0:
        return ProbVector([1.0])

    out = np.empty(k + 1)
    if k <= DIRECT_K_LIMIT:
        binom = 1.0
        for n in range(k + 1):
            out[n] = binom * c2**n * s2 ** (k - n)
            binom *= (k - n) / (n + 1)
    else:
        # Log-space evaluation keeps huge binomial coefficients finite.
        if c2 == 0.0 or s2 == 0.0:
            out[:] = 0.0
            out[k if s2 == 0.0 else 0] = 1.0
        else:
            lc2, ls2 = math.log(c2), math.log(s2)
            lgk = math.lgamma(k + 1)
            for n in range(k + 1):
                logp = (
                    lgk
                    - math.lgamma(n + 1)
                    - math.lgamma(k - n + 1)
                    + n * lc2
                    + (k - n) * ls2
                )
                out[n] = math.exp(logp)
    return ProbVector(out)


def photon_chain_check(
    k_max: int, theta: float, *, tol: float = TOL
) -> list[MajorizationVerdict]:
    """Compare consecutive photon-number spectra at a fixed angle.

    Returns one verdict per pair (k+1 photons vs k photons) for
    k = 0 .. k_max-1. Every verdict is expected to be MajorizedBy, or Equal
    in the degenerate fully-transmitting and fully-reflecting cases.
    """
    k_max = as_photon_number(k_max)
    if k_max < 1:
        raise ValueError("k_max must be at least 1")
    theta = check_angle(theta)
    return [
        compare(spectrum(k + 1, theta), spectrum(k, theta), tol=tol)
        for k in range(k_max)
    ]
