"""Probability vectors (Schmidt spectra) with deterministic ordering and products.

Everything downstream works on finite, unit-sum, nonnegative vectors. The
class below enforces those invariants once, at construction, so the rest of
the package can treat instances as trusted immutable values.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

#: Comparison tolerance for ordering and equality decisions.
TOL = 1e-12

#: Constructor acceptance window for the unit-sum invariant. Sums inside the
#: window are renormalized; anything further off is rejected as a bug.
NORM_TOL = 1e-9


class ProbVector:
    """Finite nonnegative real vector summing to one.

    Components within ``tol`` below zero are clamped to zero. A total sum
    within ``norm_tol`` of one is silently renormalized, which tolerates
    accumulated roundoff from upstream arithmetic while still catching
    genuinely unnormalized input.
    """

    __slots__ = ("_components",)

    def __init__(self, components, *, tol: float = TOL, norm_tol: float = NORM_TOL):
        arr = np.array(components, dtype=float)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("expected a non-empty 1-D sequence of probabilities")
        if not np.all(np.isfinite(arr)):
            raise ValueError("components must be finite")
        lowest = float(arr.min())
        if lowest < -tol:
            raise ValueError(f"negative component beyond tolerance: {lowest}")
        np.clip(arr, 0.0, None, out=arr)
        total = float(arr.sum())
        if abs(total - 1.0) > norm_tol:
            raise ValueError(f"components sum to {total!r}, not 1")
        arr /= total
        arr.setflags(write=False)
        self._components = arr

    @classmethod
    def _from_trusted(cls, arr: np.ndarray) -> "ProbVector":
        # Internal: wrap an array that already satisfies the invariants
        # bit-for-bit (reorderings, zero padding). Skips renormalization so
        # the components stay exactly identical to the source values.
        obj = object.__new__(cls)
        arr = np.asarray(arr, dtype=float)
        arr.setflags(write=False)
        obj._components = arr
        return obj

    @property
    def components(self) -> np.ndarray:
        return self._components

    @property
    def dim(self) -> int:
        return self._components.size

    def __len__(self) -> int:
        return self.dim

    def __iter__(self):
        return iter(self._components)

    def __getitem__(self, idx):
        return self._components[idx]

    def __repr__(self) -> str:
        inner = ", ".join(repr(float(x)) for x in self._components)
        return f"ProbVector([{inner}])"

    def allclose(self, other: "ProbVector", tol: float = TOL) -> bool:
        """Componentwise equality within ``tol`` (dimensions must match)."""
        if self.dim != other.dim:
            return False
        return bool(np.max(np.abs(self._components - other._components)) <= tol)

    def to_json(self) -> str:
        """Serialize as a JSON array of numbers."""
        return json.dumps([float(x) for x in self._components])

    def to_csv(self) -> str:
        """Serialize as a single-column CSV (one component per line)."""
        return "\n".join(repr(float(x)) for x in self._components) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "ProbVector":
        data = json.loads(text)
        if not isinstance(data, list):
            raise ValueError("expected a JSON array of numbers")
        return cls(data)

    @classmethod
    def from_csv(cls, text: str) -> "ProbVector":
        values = [float(line) for line in text.splitlines() if line.strip()]
        return cls(values)

    @classmethod
    def parse(cls, text: str) -> "ProbVector":
        """Parse either serialized form (JSON array or single-column CSV)."""
        stripped = text.strip()
        if stripped.startswith("["):
            return cls.from_json(stripped)
        return cls.from_csv(text)


@dataclass(frozen=True, eq=False)
class OscVector:
    """A spectrum sorted in non-increasing order plus the sorting permutation.

    ``perm[i]`` is the original index of the component now at sorted
    position ``i``, so ``source[perm] == sorted`` exactly.
    """

    sorted: ProbVector
    perm: tuple[int, ...]


def sort_desc(p: ProbVector) -> OscVector:
    """Sort components in non-increasing order.

    Ties are broken by ascending original index, so the permutation is
    deterministic and stable under repeated application.
    """
    order = np.argsort(-p.components, kind="stable")
    arranged = p.components[order].copy()
    return OscVector(ProbVector._from_trusted(arranged), tuple(order.tolist()))


def pad_to(p: ProbVector, d: int) -> ProbVector:
    """Append zeros until the vector has dimension ``d``.

    Padding changes no component and no prefix sum of the sorted vector.
    """
    if d < p.dim:
        raise ValueError(f"cannot pad dimension {p.dim} down to {d}")
    if d == p.dim:
        return p
    padded = np.concatenate([p.components, np.zeros(d - p.dim)])
    return ProbVector._from_trusted(padded)


def tensor(p: ProbVector, q: ProbVector) -> ProbVector:
    """Product distribution in row-major index order: entry (i, j) is p[i]*q[j]."""
    return ProbVector(np.outer(p.components, q.components).ravel())
