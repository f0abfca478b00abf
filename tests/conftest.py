"""Shared oracles, strategies, and the CLI battery used by the test suite."""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import strategies as st

from bsmaj import (
    CatalystSpec,
    ProbVector,
    RegionPartition,
    Relation,
    check_catalysis,
    compare,
    necessary_conditions,
    sort_desc,
    spectrum,
)
from bsmaj.regions import QUARTER_PI

TOL = 1e-12


def oracle_relation(p_seq, q_seq, tol=TOL) -> str:
    """Independent majorization check: pure-Python sort and running sums."""
    p_list = [float(x) for x in p_seq]
    q_list = [float(x) for x in q_seq]
    d = max(len(p_list), len(q_list))
    ps = sorted(p_list + [0.0] * (d - len(p_list)), reverse=True)
    qs = sorted(q_list + [0.0] * (d - len(q_list)), reverse=True)
    cp = list(accumulate(ps))
    cq = list(accumulate(qs))
    if all(abs(a - b) <= tol for a, b in zip(ps, qs)):
        return "Equal"
    if all(b - a >= -tol for a, b in zip(cp, cq)):
        return "MajorizedBy"
    if all(b - a <= tol for a, b in zip(cp, cq)):
        return "Majorizes"
    return "Incomparable"


def sorted_prefix(vec, j: int) -> float:
    """Prefix sum j of the descending-sorted components (oracle side)."""
    comps = sorted((float(x) for x in vec.components), reverse=True)
    return sum(comps[: j + 1])


def central_difference(fn, x: float, h: float = 1e-6) -> float:
    return (fn(x + h) - fn(x - h)) / (2.0 * h)


@st.composite
def prob_vectors(draw, min_dim=1, max_dim=8):
    dim = draw(st.integers(min_dim, max_dim))
    raw = draw(
        st.lists(
            st.floats(0.0, 1.0, allow_nan=False, allow_infinity=False),
            min_size=dim,
            max_size=dim,
        )
    )
    total = sum(raw)
    if total <= 1e-3:
        raw = [x + 1.0 for x in raw]
        total = sum(raw)
    return ProbVector([x / total for x in raw])


def reference_search(p, q, family, grid, r_max=3.0, tol=TOL):
    """Catalyst search oracle: ``check_catalysis`` on every grid candidate.

    Yields the trivial catalyst when p is already majorized by q, nothing
    when the bare verdict or the entropy screen rules catalysis out, and
    otherwise every grid candidate that achieves catalysis, in scan order.
    """
    base = compare(p, q, tol=tol).relation
    if base in (Relation.MAJORIZED_BY, Relation.EQUAL):
        yield CatalystSpec.explicit(ProbVector([1.0]))
        return
    if base is Relation.MAJORIZES or not necessary_conditions(p, q, tol=tol):
        return
    single = family == "single-photon"
    limit = math.pi / 4 if single else r_max
    i = 1
    while i * grid <= limit + 1e-15:
        spec = CatalystSpec.single_photon(i * grid) if single else CatalystSpec.tmsv(i * grid)
        if check_catalysis(p, q, spec, tol=tol).catalysis_achieved:
            yield spec
        i += 1


def reference_partition(k: int) -> RegionPartition:
    """Region partition oracle: ``Fraction`` crossing ratios of factorials and
    ``sort_desc(spectrum(k, mid))`` at the midpoint of every region."""
    hits = []
    for n in range(1, k + 1):
        for m in range(n):
            ratio = Fraction(
                math.factorial(m) * math.factorial(k - m),
                math.factorial(n) * math.factorial(k - n),
            )
            theta = math.atan(float(ratio) ** (1.0 / (2 * (n - m))))
            if TOL < theta < QUARTER_PI - TOL:
                hits.append((theta, (n, m)))
    hits.sort(key=lambda item: item[0])

    crossovers, pairs = [], []
    for theta, pair in hits:
        if crossovers and abs(theta - crossovers[-1]) <= TOL:
            pairs[-1].append(pair)
        else:
            crossovers.append(theta)
            pairs.append([pair])

    boundaries = [0.0, *crossovers, QUARTER_PI]
    orderings = tuple(
        sort_desc(spectrum(k, 0.5 * (lo + hi))).perm
        for lo, hi in zip(boundaries[:-1], boundaries[1:])
    )
    return RegionPartition(k=k, crossovers=tuple(crossovers), orderings=orderings,
                           pairs=tuple(tuple(p) for p in pairs))


def spectrum_recurrence(k: int, theta: float) -> ProbVector:
    """Spectrum oracle built iteratively from the single-step update.

    Transmitting n photons out of k+1 means either n-1 of the first k went
    through and the extra photon was transmitted, or n went through and the
    extra photon was reflected:

        P[k+1][n] = P[k][n-1] * cos^2(theta) + P[k][n] * sin^2(theta).
    """
    c2 = math.cos(theta) ** 2
    s2 = math.sin(theta) ** 2
    cur = np.array([1.0])
    for _ in range(k):
        nxt = np.empty(cur.size + 1)
        nxt[0] = s2 * cur[0]
        nxt[1:-1] = c2 * cur[:-1] + s2 * cur[1:]
        nxt[-1] = c2 * cur[-1]
        cur = nxt
    return ProbVector(cur)


def random_mixture_matrix(rng: np.random.Generator, d: int, m: int) -> np.ndarray:
    """Random convex combination of m permutation matrices of size d."""
    weights = rng.dirichlet(np.ones(m))
    out = np.zeros((d, d))
    for w in weights:
        out[np.arange(d), rng.permutation(d)] += w
    return out


#: One invocation per CLI surface; used for determinism and round trips.
CLI_BATTERY = [
    ["spectrum", "--k", "3", "--theta", "0.62", "--sorted"],
    ["--out", "csv", "spectrum", "--k", "5", "--theta", "pi/4"],
    ["majorize", "--p", "bs:3,0.72", "--q", "bs:3,0.62"],
    ["photon-chain", "--k-max", "6", "--theta", "0.7"],
    ["regions", "--k", "4"],
    ["infinitesimal", "--k", "3", "--theta", "0.7"],
    ["entropy-curve", "--k", "2", "--alphas", "1,10,inf",
     "--theta-min", "0", "--theta-max", "pi/4", "--steps", "25"],
    ["--out", "csv", "entropy-curve", "--k", "2", "--alphas", "0.5,2",
     "--steps", "10", "--bits"],
    ["figure-data", "--figure", "fig4", "--steps", "50"],
    ["--out", "csv", "figure-data", "--figure", "fig5", "--steps", "50"],
    ["locc-verify", "--k", "4", "--theta", "0.9"],
    ["catalysis", "check", "--p", "bs:3,0.72", "--q", "bs:3,0.62",
     "--catalyst", "tmsv:1.38"],
    ["catalysis", "search", "--p", "bs:3,0.72", "--q", "bs:3,0.62",
     "--family", "single-photon", "--grid", "0.01", "--all"],
    ["birkhoff", "--witness", "2,0.5"],
]


@pytest.fixture
def cli_runner():
    from click.testing import CliRunner

    return CliRunner()
