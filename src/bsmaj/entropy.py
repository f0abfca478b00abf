"""Shannon, Renyi, and min-entropy of spectra, plus sweeps over the angle.

All values are in nats unless converted via ``bits=True``.
"""

from __future__ import annotations

import math

import numpy as np

from .beamsplitter import spectrum_rows
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


def renyi(p: ProbVector, order) -> float:
    """Renyi entropy of the given order, in nats.

    order 0 counts the support (entries above ``TOL``), order 1 is the
    Shannon entropy with 0*log(0) taken as 0, order inf is -log of the
    largest component, and otherwise log(sum p_i^alpha) / (1 - alpha).
    """
    return float(_renyi_rows(p.components, parse_order(order)))


def _renyi_rows(x: np.ndarray, alpha: float) -> np.ndarray:
    """``renyi`` of every row (last axis) of an array of probability vectors."""
    if math.isinf(alpha):
        return -np.log(x.max(axis=-1))
    if alpha == 0.0:
        return np.log((x > TOL).sum(axis=-1))
    pos = x > 0
    logs = np.log(np.where(pos, x, 1.0))
    if abs(alpha - 1.0) <= SHANNON_WINDOW:
        return -(x * logs).sum(axis=-1)
    # log-sum-exp keeps large orders from underflowing the power sum
    return _logsumexp(np.where(pos, alpha * logs, -np.inf)) / (1.0 - alpha)


def _logsumexp(a: np.ndarray) -> np.ndarray:
    """log(sum(exp(a))) over the last axis; every row holds a finite entry.

    The maximal terms are split out of the shifted sum and restored through
    log1p, which is more accurate than the plain max shift when the rest of
    the sum is small; the operation order is scipy.special.logsumexp's, so
    results agree with it bit for bit.
    """
    a_max = a.max(axis=-1, keepdims=True)
    is_max = a == a_max
    m = is_max.sum(axis=-1)
    s = np.exp(np.where(is_max, -np.inf, a - a_max)).sum(axis=-1) / m
    return np.log1p(s) + np.log(m) + a_max[..., 0]


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
    grid = np.asarray(theta_grid, dtype=float).ravel()
    out = np.empty((grid.size, len(alphas)))
    start = 0
    for rows in spectrum_rows(k, grid):
        stop = start + len(rows)
        for j, alpha in enumerate(alphas):
            out[start:stop, j] = _renyi_rows(rows, alpha)
        start = stop
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
