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

#: Most entries, p.dim times q.dim, a tensor product may have; larger ones
#: are rejected before the product is allocated.
MAX_TENSOR_ENTRIES = 2**23


def check_work(count, limit, what: str) -> None:
    """Refuse work of more than ``limit`` units before any of it is done.

    ``what`` names the work and its size, ``count``; the message appends the
    limit to it. A NaN count fails the comparison and is refused too.
    """
    if not count <= limit:
        raise ValueError(f"{what}, more than the limit of {limit}")


#: JSON names of the Python types ``json.loads`` returns, for error messages.
_JSON_KINDS = {bool: "a boolean", str: "a string", type(None): "null",
               dict: "an object", list: "an array"}


def json_array(text: str, ndim: int) -> np.ndarray:
    """Parse ``text`` as JSON holding a finite float array of rank ``ndim``.

    Only nested JSON arrays, ``ndim`` deep, of JSON numbers are accepted:
    a boolean, string, null or object anywhere, an array nested too deep or
    not deep enough, a ragged array, an integer too large for a float and a
    non-finite number (Python's ``json`` reads ``NaN`` and ``Infinity``) all
    raise ValueError, and so does nesting too deep for the parser itself.
    """
    try:
        data = json.loads(text)
    except RecursionError as exc:
        raise ValueError("JSON nested too deeply") from exc
    level = [data]
    for depth in range(ndim + 1):
        types = (int, float) if depth == ndim else (list,)
        bad = [x for x in level if type(x) not in types]
        if bad:
            found = _JSON_KINDS.get(type(bad[0]), "a number")
            raise ValueError(f"expected a {ndim}-D JSON array of numbers, found {found}")
        if depth < ndim:
            level = [x for row in level for x in row]
    try:
        arr = np.array(data, dtype=float)
    except OverflowError as exc:
        raise ValueError(f"a JSON number is too large for a float: {exc}") from exc
    if arr.ndim != ndim:  # an empty array at an outer level
        raise ValueError(f"expected a {ndim}-D JSON array of numbers")
    if not np.all(np.isfinite(arr)):
        raise ValueError("JSON numbers must be finite")
    return arr


def normalize_rows(arr: np.ndarray) -> np.ndarray:
    """Clip each row (last axis) at zero and divide it by its sum, in place.

    A row whose sum lies further than ``NORM_TOL`` from one is rejected as a
    bug rather than renormalized.
    """
    np.maximum(arr, 0.0, out=arr)
    totals = arr.sum(axis=-1, keepdims=True)
    off = np.abs(totals - 1.0)
    if off.max() > NORM_TOL:
        worst = float(totals.flat[off.argmax()])
        raise ValueError(f"components sum to {worst!r}, not 1")
    arr /= totals
    return arr


class ProbVector:
    """Finite nonnegative real vector summing to one.

    Components within ``TOL`` below zero are clamped to zero. A total sum
    within ``NORM_TOL`` of one is silently renormalized, which tolerates
    accumulated roundoff from upstream arithmetic while still catching
    genuinely unnormalized input.
    """

    __slots__ = ("_components",)

    def __init__(self, components):
        arr = np.array(components, dtype=float)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("expected a non-empty 1-D sequence of probabilities")
        if not np.all(np.isfinite(arr)):
            raise ValueError("components must be finite")
        lowest = float(arr.min())
        if lowest < -TOL:
            raise ValueError(f"negative component beyond tolerance: {lowest}")
        arr = normalize_rows(arr)
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

    def __repr__(self) -> str:
        inner = ", ".join(repr(float(x)) for x in self._components)
        return f"ProbVector([{inner}])"

    def allclose(self, other: "ProbVector", tol: float = TOL) -> bool:
        """Componentwise equality within ``tol`` (dimensions must match)."""
        if self.dim != other.dim:
            return False
        return bool(np.max(np.abs(self._components - other._components)) <= tol)

    @classmethod
    def from_json(cls, text: str) -> "ProbVector":
        return cls(json_array(text, 1))

    @classmethod
    def from_csv(cls, text: str) -> "ProbVector":
        values = [float(line) for line in text.splitlines() if line.strip()]
        return cls(values)

    @classmethod
    def parse(cls, text: str) -> "ProbVector":
        """Parse either text form (JSON array or single-column CSV)."""
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
    entries = p.dim * q.dim
    check_work(entries, MAX_TENSOR_ENTRIES,
               f"a tensor product of {p.dim} by {q.dim} has {entries} entries")
    return ProbVector(np.outer(p.components, q.components).ravel())
