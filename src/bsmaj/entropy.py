"""Shannon, Renyi, and min-entropy of spectra, plus sweeps over the angle.

All values are in nats unless converted via ``bits=True``.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from .beamsplitter import spectrum_rows
from .vectors import TOL, ProbVector, as_real, check_work

#: Orders this close to 1 are routed to the Shannon branch; the 1/(1-alpha)
#: prefactor is numerically unusable nearer than this.
SHANNON_WINDOW = 1e-9

#: Most power-sum terms (entries times orders) one log-sum-exp pass of
#: ``renyi_orders`` forms; further orders are taken in turn.
ORDER_ENTRIES = 2**16

#: Most entropy values, angles times orders, one ``entropy_curve`` may
#: return: the three default orders of ``entropy-curve`` at its largest
#: angle grid. Larger sweeps are rejected before any spectrum is computed.
MAX_CURVE_VALUES = 3 * 10**6

#: Orders above this may overflow a term alpha log p of ``renyi_orders``;
#: at or below it none can, since log p > -745 for every positive float p.
#: Above it the entropy is the min-entropy -log max p to float precision:
#: S_alpha - S_inf lies in [0, S_inf / (alpha - 1)], under 745 / float max
#: = 4.1e-306 of S_inf.
HUGE_ORDER = sys.float_info.max / 745.0

LN2 = math.log(2.0)


def parse_order(text) -> float:
    """Read an entropy order: a nonnegative number, or its text, 'inf' too."""
    if isinstance(text, str):
        token = text.strip().lower()
        alpha = math.inf if token in ("inf", "infinity", "oo") else float(token)
    else:
        alpha = as_real(text, "entropy order")
    if math.isnan(alpha) or alpha < 0:
        raise ValueError(f"entropy order must be nonnegative, got {text!r}")
    return alpha


def renyi(p: ProbVector, order) -> float:
    """Renyi entropy of the given order, in nats.

    order 0 counts the support (entries above ``TOL``), order 1 is the
    Shannon entropy with 0*log(0) taken as 0, order inf is -log of the
    largest component, and otherwise log(sum p_i^alpha) / (1 - alpha).
    """
    return float(renyi_orders(p.components, [parse_order(order)])[0])


def renyi_orders(x: np.ndarray, alphas) -> np.ndarray:
    """``renyi`` of every row (last axis) of an array of probability vectors
    at every order of ``alphas``, in one pass: shape ``x.shape[:-1] +
    (len(alphas),)``, one column per order.

    The logs are taken once. Orders 0, 1 (within ``SHANNON_WINDOW``) and inf
    have their own reductions, orders above ``HUGE_ORDER`` take that of inf,
    and every other order goes through one row-wise log-sum-exp,
    ``ORDER_ENTRIES`` power-sum terms at a time. Each column is bit for bit
    the value its order gives alone, since every reduction runs along the
    last axis of its own row.
    """
    out = np.empty(x.shape[:-1] + (len(alphas),))
    pos = x > 0
    logs = np.log(np.where(pos, x, 1.0))
    power = []
    for j, alpha in enumerate(alphas):
        if alpha > HUGE_ORDER:
            out[..., j] = -np.log(x.max(axis=-1))
        elif alpha == 0.0:
            out[..., j] = np.log((x > TOL).sum(axis=-1))
        elif abs(alpha - 1.0) <= SHANNON_WINDOW:
            out[..., j] = -(x * logs).sum(axis=-1)
        else:
            power.append(j)
    # log-sum-exp keeps large orders from underflowing the power sum
    step = max(1, ORDER_ENTRIES // x.size)
    for start in range(0, len(power), step):
        cols = power[start:start + step]
        a = np.array([alphas[j] for j in cols])
        terms = np.where(pos[..., None, :], a[:, None] * logs[..., None, :], -np.inf)
        out[..., cols] = _logsumexp(terms) / (1.0 - a)
    return out


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


def entropy_curve(k: int, orders, theta_grid, *, bits: bool = False) -> np.ndarray:
    """Entropies of the k-photon spectrum over an angle grid.

    Returns an array of shape (len(theta_grid), len(orders)), one row per
    angle and one column per order, in nats (or bits when requested). Each
    block of spectra from ``spectrum_rows`` takes every order in one
    :func:`renyi_orders` pass, so each entry is bit for bit
    ``renyi(spectrum(k, theta), order)``. More than ``MAX_CURVE_VALUES``
    values are refused before any spectrum is computed.
    """
    if isinstance(orders, (str, bytes)) or not np.iterable(orders):
        raise ValueError(f"orders must be a sequence of entropy orders, got {orders!r}")
    alphas = [parse_order(a) for a in orders]
    grid = np.ravel(theta_grid)  # read, and refused, by spectrum_rows
    values = grid.size * len(alphas)
    check_work(values, MAX_CURVE_VALUES,
               f"{grid.size} angles at {len(alphas)} orders make {values} entropy values")
    out = np.empty((grid.size, len(alphas)))
    start = 0
    for rows in spectrum_rows(k, grid):
        stop = start + len(rows)
        out[start:stop] = renyi_orders(rows, alphas)
        start = stop
    if bits:
        out /= LN2
    return out
