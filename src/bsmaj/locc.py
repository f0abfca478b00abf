"""Deterministic two-outcome LOCC conversion lowering the photon number by one.

Alice measures her mode of the (k+1)-photon output state with a two-outcome
POVM whose Kraus operators have weights sqrt((k+1-n)/(k+1)) on |n><n| and
sqrt((n+1)/(k+1)) on |n><n+1|. Either outcome leaves the joint state with
the k-photon spectrum at the same angle, after Bob applies a cyclic index
shift (outcome 1) or nothing (outcome 2), so the conversion is
deterministic. All amplitudes involved are nonnegative reals, so the
simulation works directly on Schmidt amplitudes.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .beamsplitter import as_photon_number, check_angle, spectrum
from .majorization import Relation, compare
from .vectors import TOL, ProbVector

#: Tolerance for the Kraus completeness identity, which holds exactly as
#: rationals and must survive as doubles essentially to the last bit.
COMPLETENESS_TOL = 1e-15


@dataclass(frozen=True)
class KrausPair:
    """Diagonal and shift weights of the two measurement operators.

    ``f1_diag[n]`` weights |n><n| and ``f2_weights[n]`` weights |n><n+1|,
    for n = 0 .. k. Together they resolve the identity on the (k+2)
    dimensional support: for every input basis index the squared weights
    from both operators sum to one.
    """

    k: int
    f1_diag: tuple[float, ...]
    f2_weights: tuple[float, ...]


class BobCorrection(str, enum.Enum):
    CYCLIC_SHIFT = "CyclicShift"
    IDENTITY = "Identity"


@dataclass(frozen=True)
class LoccOutcomeReport:
    """One measurement branch: its probability, post state, and correction."""

    branch: int
    probability: float
    post_spectrum: ProbVector
    bob_correction: BobCorrection
    vacuous: bool = field(default=False)

    def to_dict(self) -> dict:
        return {
            "branch": self.branch,
            "probability": float(self.probability),
            "post_spectrum": [float(x) for x in self.post_spectrum.components],
            "bob_correction": self.bob_correction.value,
            "vacuous": self.vacuous,
        }


def build_kraus(k: int) -> KrausPair:
    """Construct the measurement pair and verify completeness on the spot."""
    k = as_photon_number(k)
    denom = k + 1
    f1 = tuple(math.sqrt((k + 1 - n) / denom) for n in range(k + 1))
    f2 = tuple(math.sqrt((n + 1) / denom) for n in range(k + 1))
    for m in range(k + 2):
        total = 0.0
        if m <= k:
            total += f1[m] ** 2
        if m >= 1:
            total += f2[m - 1] ** 2
        if abs(total - 1.0) > COMPLETENESS_TOL:
            raise AssertionError(
                f"completeness violated at basis index {m}: {total!r}"
            )
    return KrausPair(k=k, f1_diag=f1, f2_weights=f2)


def bob_permutation(k: int, branch: int) -> tuple[int, ...]:
    """Bob's correction as an index permutation on the (k+2) support.

    Branch 1 is the cyclic shift sending index m to m-1, with index 0
    wrapping to k+1 so the map stays a genuine permutation (the wrap image
    is never populated). Branch 2 is the identity.
    """
    k = as_photon_number(k)
    d = k + 2
    if branch == 1:
        return tuple((m - 1) % d for m in range(d))
    if branch == 2:
        return tuple(range(d))
    raise ValueError(f"branch must be 1 or 2, got {branch}")


def run_protocol(k: int, theta: float) -> tuple[LoccOutcomeReport, LoccOutcomeReport]:
    """Simulate both measurement branches on the (k+1)-photon output state.

    Each branch report carries the outcome probability, the renormalized
    post-measurement Schmidt spectrum (indexed by Alice's photon number),
    and Bob's correction. Both post spectra coincide with the k-photon
    spectrum at the same angle. A branch whose probability is exactly zero
    (fully transmitting or fully reflecting beam splitter) cannot be
    renormalized; by convention it reports the target spectrum and is
    flagged vacuous.
    """
    k = as_photon_number(k)
    theta = check_angle(theta)
    amps = np.sqrt(spectrum(k + 1, theta).components)
    pair = build_kraus(k)

    w1 = np.asarray(pair.f1_diag) * amps[: k + 1]
    w2 = np.asarray(pair.f2_weights) * amps[1:]
    p1 = float((w1**2).sum())
    p2 = float((w2**2).sum())

    target = spectrum(k, theta)
    reports = []
    for branch, weights, prob, correction in (
        (1, w1, p1, BobCorrection.CYCLIC_SHIFT),
        (2, w2, p2, BobCorrection.IDENTITY),
    ):
        if prob <= 0.0:
            post, vacuous = target, True
        else:
            post, vacuous = ProbVector(weights**2 / prob), False
        reports.append(
            LoccOutcomeReport(
                branch=branch,
                probability=prob,
                post_spectrum=post,
                bob_correction=correction,
                vacuous=vacuous,
            )
        )
    return reports[0], reports[1]


def verify_nielsen(k: int, theta: float, *, tol: float = TOL) -> bool:
    """Check that the majorization test and the explicit protocol agree.

    Deterministic LOCC convertibility of the (k+1)-photon output into the
    k-photon output is equivalent to the majorization of the former's
    spectrum by the latter's. Both sides are computed independently: the
    prefix-sum comparison on one hand, the simulated protocol on the other.
    """
    k = as_photon_number(k)
    theta = check_angle(theta)
    target = spectrum(k, theta)
    verdict = compare(spectrum(k + 1, theta), target, tol=tol)
    majorized = verdict.relation in (Relation.MAJORIZED_BY, Relation.EQUAL)

    branch1, branch2 = run_protocol(k, theta)
    protocol_ok = (
        abs(branch1.probability + branch2.probability - 1.0) <= tol
        and branch1.post_spectrum.allclose(target, tol)
        and branch2.post_spectrum.allclose(target, tol)
    )
    return majorized and protocol_ok
