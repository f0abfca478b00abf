"""Shannon, Renyi, and min-entropy of spectra, plus sweeps over the angle.

All values are in nats unless converted via ``bits=True``.
"""

from __future__ import annotations

import math

import numpy as np

from .beamsplitter import spectrum
from .vectors import TOL, ProbVector, tensor

#: Orders this close to 1 are routed to the Shannon branch; the 1/(1-alpha)
#: prefactor is numerically unusable nearer than this.
SHANNON_WINDOW = 1e-9

LN2 = math.log(2.0)


def parse_order(text) -> float:
    """Parse an entropy order: a nonnegative number or the string 'inf'."""
    if isinstance(text, str):
        token = text.strip().lower()
        alpha = math.inf if token in ("inf", "infinity", "oo") else float(token)
    else:
        alpha = float(text)
    if math.isnan(alpha) or alpha < 0:
        raise ValueError(f"entropy order must be nonnegative, got {text!r}")
    return alpha


def renyi(p: ProbVector, order, *, tol: float = TOL) -> float:
    """Renyi entropy of the given order, in nats.

    order 0 counts the support (entries above ``tol``), order 1 is the
    Shannon entropy with 0*log(0) taken as 0, order inf is -log of the
    largest component, and otherwise log(sum p_i^alpha) / (1 - alpha).
    """
    alpha = parse_order(order)
    x = p.components
    if math.isinf(alpha):
        return float(-math.log(x.max()))
    if abs(alpha - 1.0) <= SHANNON_WINDOW:
        pos = x[x > 0]
        return float(-(pos * np.log(pos)).sum())
    if alpha == 0.0:
        return float(math.log(int((x > tol).sum())))
    pos = x[x > 0]
    # log-sum-exp keeps large orders from underflowing the power sum
    return float(_logsumexp(alpha * np.log(pos)) / (1.0 - alpha))


def _logsumexp(a: np.ndarray) -> float:
    """log(sum(exp(a))) for a finite, non-empty 1-D array.

    The maximal terms are split out of the shifted sum and restored through
    log1p, which is more accurate than the plain max shift when the rest of
    the sum is small; the operation order is scipy.special.logsumexp's, so
    results agree with it bit for bit.
    """
    a_max = a.max()
    is_max = a == a_max
    m = is_max.sum()
    s = np.exp(np.where(is_max, -np.inf, a - a_max)).sum()
    if s != 0:
        s = s / m
    return np.log1p(s) + np.log(m) + a_max


def shannon(p: ProbVector) -> float:
    return renyi(p, 1.0)


def min_entropy(p: ProbVector) -> float:
    return renyi(p, math.inf)


def entropy_curve(k: int, orders, theta_grid, *, bits: bool = False) -> np.ndarray:
    """Entropies of the k-photon spectrum over an angle grid.

    Returns an array of shape (len(theta_grid), len(orders)), one row per
    angle and one column per order, in nats (or bits when requested).
    """
    alphas = [parse_order(a) for a in orders]
    grid = np.asarray(theta_grid, dtype=float)
    out = np.empty((grid.size, len(alphas)))
    for i, theta in enumerate(grid):
        spec = spectrum(k, float(theta))
        for j, alpha in enumerate(alphas):
            out[i, j] = renyi(spec, alpha)
    if bits:
        out /= LN2
    return out


def additivity_check(p: ProbVector, q: ProbVector, order) -> float:
    """Entropy of the product distribution minus the sum of entropies.

    Zero (up to roundoff) for every order: these entropies are additive
    over tensor products.
    """
    alpha = parse_order(order)
    return renyi(tensor(p, q), alpha) - renyi(p, alpha) - renyi(q, alpha)
