"""Doubly stochastic matrices and their decomposition into permutation mixtures.

Includes the banded transfer matrix that maps the zero-padded k-photon
output spectrum of a beam splitter onto the (k+1)-photon spectrum, which is
the constructive witness for the photon-number majorization chain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .beamsplitter import check_angle, check_photons
from .vectors import (NORM_TOL, TOL, ProbVector, as_real_array, check_tol, check_work,
                      checked_entries)

#: Most entries, (k+2)^2, a photon-chain witness matrix may have; larger
#: photon numbers are rejected before the matrix is allocated.
MAX_WITNESS_ENTRIES = 2**22


class DoublyStochasticMatrix:
    """Square nonnegative matrix whose rows and columns each sum to one
    within ``NORM_TOL``, the vector normalization window."""

    __slots__ = ("_entries",)

    def __init__(self, entries):
        arr = as_real_array(entries, "entries")
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.size == 0:
            raise ValueError("expected a non-empty square matrix")
        checked_entries(arr)
        row_err = float(np.max(np.abs(arr.sum(axis=1) - 1.0)))
        col_err = float(np.max(np.abs(arr.sum(axis=0) - 1.0)))
        if row_err > NORM_TOL or col_err > NORM_TOL:
            raise ValueError(
                f"row/column sums deviate from 1 by {max(row_err, col_err)!r}"
            )
        arr.setflags(write=False)
        self._entries = arr

    @property
    def entries(self) -> np.ndarray:
        return self._entries

    @property
    def d(self) -> int:
        return self._entries.shape[0]

    def __repr__(self) -> str:
        return f"DoublyStochasticMatrix(d={self.d})"


@dataclass(frozen=True)
class BirkhoffDecomposition:
    """Convex combination of permutation matrices.

    ``permutations[t][i]`` is the column carrying weight ``weights[t]`` in
    row ``i`` of the t-th permutation matrix.
    """

    permutations: tuple[tuple[int, ...], ...]
    weights: tuple[float, ...]

    def __len__(self) -> int:
        return len(self.weights)

    def reconstruct(self) -> np.ndarray:
        d = len(self.permutations[0])
        out = np.zeros((d, d))
        for perm, w in zip(self.permutations, self.weights):
            out[np.arange(d), list(perm)] += w
        return out

    def to_dict(self) -> dict:
        return {
            "weights": [float(w) for w in self.weights],
            "perms": [list(p) for p in self.permutations],
        }


def bs_witness_matrix(k: int, theta: float) -> DoublyStochasticMatrix:
    """Banded transfer matrix between consecutive photon-number spectra.

    The (k+2)x(k+2) matrix carries sin^2(theta) on the diagonal and
    cos^2(theta) on the subdiagonal; the top-right corner entry cos^2(theta)
    completes the row/column sums and multiplies the padded zero, so it
    never contributes. Applying it to the zero-padded k-photon spectrum
    yields the (k+1)-photon spectrum at the same angle.
    """
    k = check_photons(k)
    theta = check_angle(theta)
    d = k + 2
    check_work(d * d, MAX_WITNESS_ENTRIES, f"the witness of k={k} has {d * d} entries")
    s2 = math.sin(theta) ** 2
    c2 = math.cos(theta) ** 2
    m = np.zeros((d, d))
    np.fill_diagonal(m, s2)
    m[np.arange(1, d), np.arange(d - 1)] = c2
    m[0, d - 1] = c2
    return DoublyStochasticMatrix(m)


def apply(D: DoublyStochasticMatrix, q: ProbVector) -> ProbVector:
    """Matrix-vector product; the result is again a probability vector."""
    if D.d != q.dim:
        raise ValueError(f"dimension mismatch: matrix is {D.d}, vector is {q.dim}")
    return ProbVector(D.entries @ q.components)


def birkhoff_decompose(
    D: DoublyStochasticMatrix, *, tol: float = TOL
) -> BirkhoffDecomposition:
    """Peel a doubly stochastic matrix into a convex sum of permutations.

    Greedy peeling: find a perfect matching on the support graph of entries
    above ``tol``, routed through the smallest remaining positive entry,
    subtract that entry times the matched permutation, and repeat until the
    residual is entrywise below ``tol``. Each step zeroes at least one
    support entry, which keeps the term count within (d-1)^2 + 1.

    Entries that fall to ``tol`` or below leave the support without being
    zeroed, so after many peels the support's row and column sums can
    disagree by up to about d * tol, and a small entry can be left that lies
    on no perfect matching. A pivot of at most d * tol that lies on none is
    taken for that residue: it is zeroed, at the cost of one failed
    matching, and the step retried. A larger one means the input is not
    doubly stochastic, and the decomposition is refused. A NaN, infinite or
    negative ``tol`` raises ValueError.
    """
    tol = check_tol(tol)
    res = D.entries.copy()
    d = D.d
    max_terms = (d - 1) ** 2 + 1
    residue = d * tol
    rows_idx = np.arange(d)
    perms: list[tuple[int, ...]] = []
    weights: list[float] = []

    while float(res.max()) > tol:
        support = res > tol
        masked = np.where(support, res, np.inf)
        pivot = np.unravel_index(int(np.argmin(masked)), res.shape)
        perm = _perfect_matching(support, pivot)
        if perm is None:
            if res[pivot] > residue:
                raise ValueError(
                    "no perfect matching on the positive support; "
                    "the matrix violates the doubly stochastic invariant"
                )
            res[pivot] = 0.0
            continue
        cols = np.array(perm)
        weight = float(res[rows_idx, cols].min())
        perms.append(perm)
        weights.append(weight)
        res[rows_idx, cols] -= weight  # each entry is at least weight: none turns negative
        if len(perms) > max_terms:
            raise ValueError(
                f"decomposition exceeded {max_terms} terms; "
                "the matrix violates the doubly stochastic invariant"
            )

    if not perms:  # every entry is at most tol: nothing to peel
        perms.append(tuple(range(d)))
        weights.append(1.0)
    return BirkhoffDecomposition(tuple(perms), tuple(weights))


def _perfect_matching(support: np.ndarray, pivot) -> tuple[int, ...] | None:
    """Row-to-column perfect matching on a boolean support through ``pivot``.

    Augmenting-path (Kuhn) matching, one row at a time. The pivot row may
    only take the pivot column, which forces the edge into every matching
    found. Each row tries its free columns first, so a banded support is
    matched without long detours. The path search keeps its own stack, so
    the depth is not bounded by the interpreter's recursion limit. Returns
    ``perm`` with ``perm[row] = column``, or None when no perfect matching
    exists.
    """
    d = support.shape[0]
    adj: list[list[int]] = [[] for _ in range(d)]
    nz_rows, nz_cols = np.nonzero(support)
    for row, col in zip(nz_rows.tolist(), nz_cols.tolist()):
        adj[row].append(col)
    adj[pivot[0]] = [int(pivot[1])]
    owner = [-1] * d  # row currently matched to each column

    def free_first(row):
        return iter(sorted(adj[row], key=lambda c: owner[c] >= 0))

    for root in range(d):
        seen = [False] * d
        rows, edges = [root], [free_first(root)]
        cols: list[int] = []  # cols[i]: column tentatively taken by rows[i]
        while rows:
            col = next((c for c in edges[-1] if not seen[c]), None)
            if col is None:  # dead end: back up one row
                rows.pop()
                edges.pop()
                if cols:
                    cols.pop()
                continue
            seen[col] = True
            cols.append(col)
            if owner[col] < 0:  # free column: shift the path along it
                for r, c in zip(rows, cols):
                    owner[c] = r
                break
            rows.append(owner[col])
            edges.append(free_first(owner[col]))
        else:
            return None
    perm = [0] * d
    for col, row in enumerate(owner):
        perm[row] = col
    return tuple(perm)
