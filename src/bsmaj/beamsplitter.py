"""Schmidt spectra of Fock states mixed with vacuum on a beam splitter.

A k-photon Fock state in one port and vacuum in the other produce a
two-mode output whose Schmidt spectrum is the binomial distribution over
the number of transmitted photons: component n is

    C(k, n) * cos(theta)^(2n) * sin(theta)^(2(k-n)),

with transmittance tau = cos^2(theta).
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import threading

import numpy as np

from .majorization import MajorizationVerdict, compare
from .vectors import TOL, ProbVector, check_work, normalize_rows

#: Largest k for which binomial coefficients are accumulated directly in
#: doubles; above this the components are evaluated in log space.
DIRECT_K_LIMIT = 60

#: Largest photon number a spectrum may have; larger ones are rejected
#: before any component is allocated. Past k of about 6.7e5 the rounding of
#: lgamma(k+1) > 2^23 (ulp 1.9e-9) can push a sum past ``NORM_TOL``.
MAX_PHOTONS = 5 * 10**5

#: Most spectrum entries (angles times k+1) one block of rows may hold.
ROW_ENTRIES = 2**12

#: Most spectrum entries (angles times k+1) one call of ``spectrum_rows`` may
#: yield; longer sweeps are rejected before any row is computed.
MAX_SWEEP_ENTRIES = 2**23

#: Most spectrum entries, k_max^2 + 2 k_max, a photon chain may build; longer
#: chains are rejected before any spectrum is computed.
MAX_CHAIN_ENTRIES = 2**22


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


def spectrum(k: int, theta: float) -> ProbVector:
    """Transmitted-photon distribution for k incident photons at angle theta.

    The one-row case of :func:`spectrum_rows`: the same photon and angle
    checks and the same block function, given cos^2 and sin^2 as floats.
    """
    k = _check_photons(k)
    theta = check_angle(theta)
    row = _spectrum_block(k, _coefficients(k), math.cos(theta) ** 2, math.sin(theta) ** 2)
    return ProbVector._from_trusted(row)


def spectrum_rows(k: int, thetas):
    """Yield the spectra of k photons at consecutive angles, in blocks of rows.

    Each block is an array of shape (rows, k+1) holding at most
    ``ROW_ENTRIES`` entries, but always at least one row. Up to
    ``DIRECT_K_LIMIT`` photons the binomial coefficients are accumulated in
    doubles; above it every component is exp of its log, and theta = 0
    gives the point mass at n = k. Each row is normalized as
    ``ProbVector`` normalizes. The photon number is checked against
    ``MAX_PHOTONS``, the sweep against ``MAX_SWEEP_ENTRIES`` and every angle
    against [0, pi/2], before any row is computed.
    """
    k = _check_photons(k)
    thetas = np.ravel(thetas)
    entries = thetas.size * (k + 1)
    check_work(entries, MAX_SWEEP_ENTRIES,
               f"{thetas.size} spectra of k={k} hold {entries} entries")
    angles = [check_angle(t) for t in thetas.tolist()]
    coefficients = _coefficients(k)
    step = max(1, ROW_ENTRIES // (k + 1))
    for start in range(0, len(angles), step):
        cs = np.array(
            [(math.cos(t) ** 2, math.sin(t) ** 2) for t in angles[start : start + step]]
        )
        yield _spectrum_block(k, coefficients, cs[:, :1], cs[:, 1:])


def _check_photons(k) -> int:
    """A photon number checked by ``as_photon_number`` and against
    ``MAX_PHOTONS``."""
    k = as_photon_number(k)
    check_work(k, MAX_PHOTONS, f"photon number {k}")
    return k


def _spectrum_block(k: int, coefficients, c2, s2) -> np.ndarray:
    """Normalized spectra of k photons from the rows of :func:`_coefficients`
    and cos^2 and sin^2 of the angles: one row from two floats, a block of
    rows from two columns.
    """
    coeff, n, rest = coefficients  # rest = k - n
    if k <= DIRECT_K_LIMIT:
        rows = coeff * c2**n * s2**rest
    else:
        # cos^2 stays positive up to pi/2; sin^2 is zero only at theta = 0,
        # whose exponents are set before exp so none of them overflows
        at_zero = s2 == 0.0
        ls2 = np.log(np.where(at_zero, 1.0, s2))
        logs = coeff + n * np.log(c2) + rest * ls2
        np.copyto(logs, np.where(n == k, 0.0, -np.inf), where=at_zero)
        rows = np.exp(logs, out=logs)
    return normalize_rows(rows)


def _coefficients(k: int):
    """The binomial row of k photons, the exponent row n = 0..k and the
    exponent row k - n, all as floats: C(k, n) up to ``DIRECT_K_LIMIT``,
    log C(k, n) above it."""
    if k <= DIRECT_K_LIMIT:
        return _direct_coefficients(k)
    n = np.arange(k + 1.0)
    return _log_coefficients(k), n, n[::-1]


@functools.lru_cache(maxsize=DIRECT_K_LIMIT + 1)
def _direct_coefficients(k: int) -> np.ndarray:
    """Rows C(k, j), j and k - j for j = 0..k; each C(k, j) is the running
    product of (k-j)/(j+1).

    Built once per k and kept read-only, so every caller shares one array.
    """
    ratios = map(operator.truediv, range(k, 0, -1), range(1, k + 1))
    products = itertools.accumulate(ratios, operator.mul, initial=1.0)
    row = np.empty((3, k + 1))
    row[0] = np.fromiter(products, float, k + 1)
    row[1] = np.arange(k + 1)
    row[2] = row[1, ::-1]
    row.flags.writeable = False
    return row


#: lgamma(j + 1) for j = 0 .. size - 1, read-only. It grows geometrically to
#: the largest photon number asked for, never past MAX_PHOTONS + 1 entries
#: (4 MB), and keeps every entry it holds; the lock makes each growth one step.
_lgamma = np.empty(0)
_lgamma_lock = threading.Lock()


def _log_coefficients(k: int) -> np.ndarray:
    """log C(k, j) for j = 0..k, from the shared table of lgamma(j + 1)."""
    global _lgamma
    lg = _lgamma
    if lg.size <= k:
        with _lgamma_lock:
            lg = _lgamma
            if lg.size <= k:
                size = min(max(k + 1, 2 * lg.size), MAX_PHOTONS + 1)
                grown = np.empty(size)
                grown[: lg.size] = lg
                grown[lg.size :] = np.fromiter(
                    map(math.lgamma, range(lg.size + 1, size + 1)), float, size - lg.size)
                grown.flags.writeable = False
                _lgamma = lg = grown
    lg = lg[: k + 1]
    out = lg[k] - lg
    out -= lg[::-1]
    return out


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
    entries = k_max * (k_max + 2)  # spectra of k+1 and k photons, k < k_max
    check_work(entries, MAX_CHAIN_ENTRIES,
               f"a photon chain up to k_max={k_max} builds {entries} spectrum entries")
    theta = check_angle(theta)
    return [
        compare(spectrum(k + 1, theta), spectrum(k, theta), tol=tol)
        for k in range(k_max)
    ]
