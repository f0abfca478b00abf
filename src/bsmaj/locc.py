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

from .beamsplitter import MAX_PHOTONS, check_photons, spectrum
from .majorization import Relation, compare
from .vectors import TOL, ProbVector, check_work


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
    """The measurement pair for k photons, checked as ``spectrum`` checks them.

    Completeness, f1[m]^2 + f2[m-1]^2 = 1 at each basis index m, holds as
    rationals and within 2.2e-16 as doubles, so it is not re-checked.
    """
    k = check_photons(k)
    denom = k + 1
    f1 = tuple(math.sqrt((k + 1 - n) / denom) for n in range(k + 1))
    f2 = tuple(math.sqrt((n + 1) / denom) for n in range(k + 1))
    return KrausPair(k=k, f1_diag=f1, f2_weights=f2)


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
    return locc(k, theta)[:2]


def verify_nielsen(k: int, theta: float, *, tol: float = TOL) -> bool:
    """Check that the majorization test and the explicit protocol agree.

    Deterministic LOCC convertibility of the (k+1)-photon output into the
    k-photon output is equivalent to the majorization of the former's
    spectrum by the latter's. Both sides are computed independently: the
    prefix-sum comparison on one hand, the simulated protocol on the other.
    """
    return locc(k, theta, tol=tol)[3]


def locc(k: int, theta: float, *,
         tol: float = TOL) -> tuple[LoccOutcomeReport, LoccOutcomeReport, ProbVector, bool]:
    """Both branch reports of :func:`run_protocol`, the k-photon target
    spectrum and the agreement :func:`verify_nielsen` reports, from one
    (k+1)-photon and one k-photon spectrum. Its input carries k+1 photons,
    so k+1 is held to ``MAX_PHOTONS`` too; ``spectrum`` checks the angle."""
    k = check_photons(k)
    check_work(k + 1, MAX_PHOTONS, f"k={k} takes an input of {k + 1} photons")
    source, target = spectrum(k + 1, theta), spectrum(k, theta)
    amps = np.sqrt(source.components)
    pair = build_kraus(k)
    reports = []
    for branch, weights, correction in (
        (1, np.asarray(pair.f1_diag) * amps[: k + 1], BobCorrection.CYCLIC_SHIFT),
        (2, np.asarray(pair.f2_weights) * amps[1:], BobCorrection.IDENTITY),
    ):
        prob = float((weights**2).sum())
        if prob <= 0.0:
            post, vacuous = target, True
        else:
            post, vacuous = ProbVector(weights**2 / prob), False
        reports.append(LoccOutcomeReport(branch=branch, probability=prob, post_spectrum=post,
                                         bob_correction=correction, vacuous=vacuous))
    branch1, branch2 = reports
    protocol_ok = (
        abs(branch1.probability + branch2.probability - 1.0) <= tol
        and branch1.post_spectrum.allclose(target, tol)
        and branch2.post_spectrum.allclose(target, tol)
    )
    verdict = compare(source, target, tol=tol)
    majorized = verdict.relation in (Relation.MAJORIZED_BY, Relation.EQUAL)
    return branch1, branch2, target, majorized and protocol_ok
