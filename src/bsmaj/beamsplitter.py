"""Schmidt spectra of Fock states mixed with vacuum on a beam splitter.

A k-photon Fock state in one port and vacuum in the other produce a
two-mode output whose Schmidt spectrum is the binomial distribution over
the number of transmitted photons: component n is

    C(k, n) * cos(theta)^(2n) * sin(theta)^(2(k-n)),

with transmittance tau = cos^2(theta). Up to ``DIRECT_K_LIMIT`` photons the
components are products of the binomial coefficients and powers; above it
each row is built outward from 1 at its mode by the ratios of neighbouring
components, so no term overflows and no large logarithm cancels.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator

import numpy as np

from .majorization import MajorizationVerdict, compare
from .vectors import TOL, ProbVector, as_integer, as_real, as_real_array, check_work, normalize_rows

#: Largest k for which binomial coefficients are accumulated directly in
#: doubles; above this each row is a product of component ratios anchored at
#: its mode, which keeps every term in the float range at any k.
DIRECT_K_LIMIT = 60

#: Largest photon number a spectrum may have; larger ones are rejected
#: before any component is allocated. One row at this cap holds 8 MB.
MAX_PHOTONS = 10**6

#: Most spectrum entries (angles times k+1) one block of rows may hold.
ROW_ENTRIES = 2**12

#: Most spectrum entries (angles times k+1) one call of ``spectrum_rows`` may
#: yield; longer sweeps are rejected before any row is computed.
MAX_SWEEP_ENTRIES = 2**23

#: Most spectrum entries, k_max^2 + 2 k_max, a photon chain may build; longer
#: chains are rejected before any spectrum is computed.
MAX_CHAIN_ENTRIES = 2**22


def check_photons(k) -> int:
    """Validate a photon number: an integer (floats are rejected), nonnegative
    and at most ``MAX_PHOTONS``. Every photon-number argument of the package
    passes this one check, before any other."""
    k = as_integer(k, "photon number")
    if k < 0:
        raise ValueError(f"photon number must be nonnegative, got {k}")
    check_work(k, MAX_PHOTONS, f"photon number {k}")
    return k


def check_angle(theta, upper: float = math.pi / 2) -> float:
    """Validate a coupling angle in [0, upper]: pi/2, or pi/4 for the regions."""
    theta = as_real(theta, "theta")
    if not 0.0 <= theta <= upper:
        if upper == math.pi / 2:
            raise ValueError(f"theta must lie in [0, pi/2], got {theta!r}")
        raise ValueError(f"theta must lie in [0, pi/4], got {theta!r}; angles beyond pi/4 "
                         "mirror onto pi/2 - theta with transmittance and reflectance swapped")
    return theta


def angle_squares(thetas) -> tuple[np.ndarray, np.ndarray]:
    """cos^2 and sin^2 of every angle of the float array ``thetas``,
    flattened, after checking the angles as one array against [0, pi/2]:
    the first angle outside it (a NaN included) raises the ValueError of
    :func:`check_angle`.

    Each square is ``np.float_power`` to 2.0, which rounds as
    ``math.cos(t) ** 2`` and ``math.sin(t) ** 2`` do, bit for bit, where
    ``np.cos(t) ** 2`` (a multiply) does not always.
    """
    t = np.ravel(thetas)
    inside = (t >= 0.0) & (t <= math.pi / 2)
    if not inside.all():
        check_angle(t[inside.argmin()])
    return np.float_power(np.cos(t), 2.0), np.float_power(np.sin(t), 2.0)


def spectrum(k: int, theta: float) -> ProbVector:
    """Transmitted-photon distribution for k incident photons at angle theta.

    The one-row case of :func:`spectrum_rows`: the same photon and angle
    checks and the same block function, given cos^2 and sin^2 as floats.
    """
    k = check_photons(k)
    theta = check_angle(theta)
    row = _spectrum_block(k, _coefficients(k), math.cos(theta) ** 2, math.sin(theta) ** 2)
    return ProbVector._from_trusted(row)


def spectrum_rows(k: int, thetas):
    """Yield the spectra of k photons at consecutive angles, in blocks of rows.

    Each block is an array of shape (rows, k+1) holding at most
    ``ROW_ENTRIES`` entries, but always at least one row. Up to
    ``DIRECT_K_LIMIT`` photons the binomial coefficients are accumulated in
    doubles and each row is normalized as ``ProbVector`` normalizes; above
    it each row is 1 at its mode times the ratios of neighbouring components
    outward from it, divided by its sum, and theta = 0 gives the point mass
    at n = k. The photon number is checked against
    ``MAX_PHOTONS``, the sweep against ``MAX_SWEEP_ENTRIES`` and every angle
    against [0, pi/2], before any row is computed; cos^2 and sin^2 of every
    angle come from one :func:`angle_squares` pass, bit for bit those
    :func:`spectrum` takes.
    """
    k = check_photons(k)
    thetas = np.ravel(as_real_array(thetas, "theta"))
    entries = thetas.size * (k + 1)
    check_work(entries, MAX_SWEEP_ENTRIES,
               f"{thetas.size} spectra of k={k} hold {entries} entries")
    c2, s2 = angle_squares(thetas)
    coefficients = _coefficients(k)
    step = max(1, ROW_ENTRIES // (k + 1))
    for start in range(0, c2.size, step):
        block = slice(start, start + step)
        yield _spectrum_block(k, coefficients, c2[block, None], s2[block, None])


def _spectrum_block(k: int, coefficients, c2, s2) -> np.ndarray:
    """Normalized spectra of k photons from the rows of :func:`_coefficients`
    and cos^2 and sin^2 of the angles: one row from two floats, a block of
    rows from two columns.
    """
    if k <= DIRECT_K_LIMIT:
        coeff, n, rest = coefficients  # rest = k - n
        return normalize_rows(coeff * c2**n * s2**rest)
    # ratios[n] = P_n / P_(n+1), n = 0..k-1, rises through 1 at the mode;
    # tan^2 is finite, as cos^2 > 0 up to pi/2, and zero only at theta = 0.
    # Clipped at 1, the ratios and their reciprocals are 1 on the mode's
    # side, so the two running products leave each row 1 at its mode and
    # falling away from it on both sides: none overflows.
    ratios = coefficients * (s2 / c2)
    rows = np.ones(ratios.shape[:-1] + (k + 1,))
    up = rows[..., 1:]
    np.maximum(ratios, 1.0, out=up)
    np.divide(1.0, up, out=up)
    np.multiply.accumulate(up, axis=-1, out=up)
    down = np.minimum(ratios, 1.0, out=ratios)[..., ::-1]
    np.multiply.accumulate(down, axis=-1, out=down)
    rows[..., :-1] *= ratios  # now the products down from the mode
    return normalize_rows(rows)


def _coefficients(k: int):
    """Up to ``DIRECT_K_LIMIT`` photons, the cached rows C(k, n), n and k - n
    for n = 0..k. Above it, the binomial ratios (n+1)/(k-n) for n = 0..k-1,
    built per call: P_n / P_(n+1) = (n+1)/(k-n) tan^2(theta)."""
    if k <= DIRECT_K_LIMIT:
        return _direct_coefficients(k)
    n = np.arange(1.0, k + 1)
    return n / n[::-1]


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


def photon_chain_check(
    k_max: int, theta: float, *, tol: float = TOL
) -> list[MajorizationVerdict]:
    """Compare consecutive photon-number spectra at a fixed angle.

    Returns one verdict per pair (k+1 photons vs k photons) for
    k = 0 .. k_max-1. Every verdict is expected to be MajorizedBy, or Equal
    in the degenerate fully-transmitting and fully-reflecting cases.
    """
    k_max = check_photons(k_max)
    if k_max < 1:
        raise ValueError("k_max must be at least 1")
    entries = k_max * (k_max + 2)  # spectra of k+1 and k photons, k < k_max
    check_work(entries, MAX_CHAIN_ENTRIES,
               f"a photon chain up to k_max={k_max} builds {entries} spectrum entries")
    return [
        compare(spectrum(k + 1, theta), spectrum(k, theta), tol=tol)
        for k in range(k_max)
    ]
