"""Probability vectors (Schmidt spectra) with deterministic ordering and products.

Everything downstream works on finite, unit-sum, nonnegative vectors. The
class below enforces those invariants once, at construction, so the rest of
the package can treat instances as trusted immutable values.
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import dataclass

import numpy as np

#: Comparison tolerance for ordering and equality decisions.
TOL = 1e-12

#: ``ProbVector``'s acceptance window for the unit-sum invariant of its input.
#: Sums inside the window are renormalized; anything further off is rejected.
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


def as_integer(value, name: str) -> int:
    """``value`` as an int; a bool, a float or any other non-integer raises a
    ValueError that names it ``name``."""
    if not isinstance(value, (bool, np.bool_)):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ValueError(f"{name} must be an integer, got {value!r}")


def as_real(value, name: str) -> float:
    """``value`` as a float, NaN and infinities included; a bool, text, a
    complex number, an array (one element converts on numpy 1), or what
    ``float()`` refuses or cannot hold raises a ValueError naming ``name``."""
    if not isinstance(value, (bool, np.bool_, str, bytes, np.complexfloating, np.ndarray)):
        try:
            return float(value)
        except (TypeError, ValueError, OverflowError):
            pass
    raise ValueError(f"{name} must be a real number, got {value!r}")


def as_real_array(values, name: str) -> np.ndarray:
    """``values`` as a new float array; bool, text or complex entries, or any
    that ``float()`` refuses or cannot hold, raise a ValueError naming ``name``."""
    try:
        arr = np.array(values)
        if arr.dtype.kind in "iufO":
            return arr.astype(float, copy=False)
        problem = f"got an array of {arr.dtype}"
    except (TypeError, ValueError, OverflowError) as exc:
        problem = exc
    raise ValueError(f"{name} must hold real numbers, none too large for a float: {problem}")


def check_tol(tol) -> float:
    """``tol`` as a float, refused unless finite and nonnegative: a NaN or
    negative one would decide every comparison the same way."""
    tol = as_real(tol, "tolerance")
    if not 0.0 <= tol < math.inf:
        raise ValueError(f"tolerance must be finite and nonnegative, got {tol!r}")
    return tol


#: JSON names of the Python types ``json.loads`` returns, for error messages.
_JSON_KINDS = {bool: "a boolean", str: "a string", type(None): "null",
               dict: "an object", list: "an array"}


def checked_entries(arr: np.ndarray) -> np.ndarray:
    """Refuse a non-finite entry of ``arr`` or one below ``-TOL``, then clip
    the entries at zero, in place."""
    if not np.all(np.isfinite(arr)):
        raise ValueError("entries must be finite")
    lowest = float(arr.min())
    if lowest < -TOL:
        raise ValueError(f"negative entry beyond tolerance: {lowest}")
    return np.maximum(arr, 0.0, out=arr)


def normalize_rows(arr: np.ndarray) -> np.ndarray:
    """Divide each row (last axis) of nonnegative entries by its sum, in place.

    The one divider of the rows the package builds, so it checks no sum:
    direct binomial, tensor and catalyst rows sum to one within 1e-14 before
    the division, and mode-anchored rows are 1 at their mode and finite.
    Outside input is checked by :class:`ProbVector`.
    """
    arr /= np.add.reduce(arr, axis=-1, keepdims=True)
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
        arr = as_real_array(components, "components")
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("expected a non-empty 1-D sequence of probabilities")
        total = float(np.add.reduce(checked_entries(arr)))
        if abs(total - 1.0) > NORM_TOL:
            raise ValueError(f"components sum to {total!r}, not 1")
        arr /= total
        arr.setflags(write=False)
        self._components = arr

    @classmethod
    def _from_trusted(cls, arr: np.ndarray) -> "ProbVector":
        # Internal: wrap an array that already satisfies the invariants
        # bit-for-bit (reorderings, normalized products). Skips
        # renormalization so the components stay exactly identical to the
        # source values.
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
        tol = check_tol(tol)
        if self.dim != other.dim:
            return False
        return bool(np.max(np.abs(self._components - other._components)) <= tol)

    @classmethod
    def parse(cls, text: str) -> "ProbVector":
        """Parse a JSON array or a single-column CSV, one number a line.

        A JSON array may hold JSON numbers only: a boolean, string, null,
        object or nested array and an integer too large for a float raise
        ValueError, and so does nesting too deep for the parser itself. The
        text is dropped once ``json.loads`` has made its list, and the list
        once the constructor has made its floats.
        """
        text = text.strip()
        if not text.startswith("["):
            return cls([float(line) for line in text.splitlines() if line.strip()])
        try:
            data = json.loads(text)
        except RecursionError as exc:
            raise ValueError("JSON nested too deeply") from exc
        del text
        if not set(map(type, data)) <= {int, float}:
            bad = next(x for x in data if type(x) not in (int, float))
            raise ValueError(f"expected a 1-D JSON array of numbers, found {_JSON_KINDS[type(bad)]}")
        return cls(data)


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
    return OscVector(ProbVector._from_trusted(p.components[order]), tuple(order.tolist()))


def tensor(p: ProbVector, q: ProbVector) -> ProbVector:
    """Product distribution in row-major index order: entry (i, j) is p[i]*q[j]."""
    entries = p.dim * q.dim
    check_work(entries, MAX_TENSOR_ENTRIES,
               f"a tensor product of {p.dim} by {q.dim} has {entries} entries")
    return ProbVector._from_trusted(tensor_rows(p, q.components[None, :])[0])


def tensor_rows(p: ProbVector, cats: np.ndarray) -> np.ndarray:
    """Row i is ``tensor(p, c_i)`` for the rows c_i of ``cats``: the products
    in row-major index order, normalized as ``ProbVector`` normalizes them."""
    products = p.components[None, :, None] * cats[:, None, :]
    return normalize_rows(products.reshape(cats.shape[0], -1))
