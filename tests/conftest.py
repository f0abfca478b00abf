"""Shared oracles, strategies, and the CLI battery used by the test suite."""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import accumulate

import mpmath
import numpy as np
import pytest
from hypothesis import strategies as st

from bsmaj import (
    CatalystSpec,
    ProbVector,
    RegionPartition,
    Relation,
    catalyst_spectrum,
    compare,
    necessary_conditions,
    renyi,
    sort_desc,
    spectrum,
    tensor,
)
from bsmaj.regions import QUARTER_PI

TOL = 1e-12


def oracle_relation(p_seq, q_seq, tol=TOL) -> str:
    """Independent majorization check: pure-Python sort and running sums.

    Equal means that both directions hold within ``tol``.
    """
    p_list = [float(x) for x in p_seq]
    q_list = [float(x) for x in q_seq]
    d = max(len(p_list), len(q_list))
    ps = sorted(p_list + [0.0] * (d - len(p_list)), reverse=True)
    qs = sorted(q_list + [0.0] * (d - len(q_list)), reverse=True)
    gaps = [b - a for a, b in zip(accumulate(ps), accumulate(qs))]
    majorized = all(g >= -tol for g in gaps)
    majorizes = all(g <= tol for g in gaps)
    if majorized and majorizes:
        return "Equal"
    if majorized:
        return "MajorizedBy"
    if majorizes:
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
    """Catalyst search oracle: ``compare`` of the tensored pair for every grid
    candidate, one at a time.

    Yields the trivial catalyst when p is already majorized by q, nothing
    when the bare verdict or the entropy screen rules catalysis out, and
    otherwise every grid candidate whose tensored pair is MajorizedBy, in
    scan order. A squeezed-vacuum catalyst is the geometric spectrum
    truncated at tail mass 1e-12 and renormalized (``catalyst_spectrum``),
    so for that family this is the truncated test that the search used
    before it decided for the untruncated state.
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
        c = catalyst_spectrum(spec)
        if compare(tensor(p, c), tensor(q, c), tol=tol).relation is Relation.MAJORIZED_BY:
            yield spec
        i += 1


def exact_threshold_extremes(p, q, r):
    """Least and greatest threshold gap D(t) = F_q(t) - F_p(t) over t > 0,
    with F(t) = sum (x - t)_+ over the entries of p (x) c or q (x) c, for the
    untruncated squeezed vacuum c_j = (1 - rho) rho^j, rho = tanh^2 r.

    p and q are renormalized as exact rationals, and rho is the exact value
    of the float ``tanh(r)**2``. Every entry x rho^j of the window (powers
    down to the first below the smallest entry) is held as an integer over
    one common denominator, L 2^(e J), where rho = M / 2^e and L is the
    common denominator of the entries; so sorting, prefix sums and D at each
    product are exact. Below the window D(rho^m t) = rho^m (D(t) - m Delta t)
    with Delta = |supp q| - |supp p|; the exact minimizing m (the ceiling of
    D(t)/(Delta t) + rho/(1 - rho), at least 1) is found in rationals and
    its value evaluated at 50 digits. Returns two mpmath numbers.
    """
    rho = Fraction(math.tanh(r) ** 2)
    mult, shift = rho.numerator, rho.denominator.bit_length() - 1  # rho = M / 2^e
    entries = []
    for vec, weight in ((q, 1), (p, -1)):
        xs = [Fraction(float(x)) for x in vec.components if x > 0]
        total = sum(xs)
        entries += [(x / total, weight) for x in xs]
    common = math.lcm(*(x.denominator for x, _ in entries))
    low = min(x for x, _ in entries)
    top = max(math.floor(math.log(x / low) / -math.log(rho)) for x, _ in entries) + 3
    scale = 1 << (shift * top)
    floor = low.numerator * (common // low.denominator) * scale
    terms = []
    for x, weight in entries:
        value = x.numerator * (common // x.denominator) * scale
        while True:
            terms.append((value, weight))
            if value < floor:
                break
            assert value % (1 << shift) == 0, "window deeper than its estimate"
            value = value * mult >> shift
    terms.sort(key=lambda item: item[0], reverse=True)
    sums = list(accumulate(w * v for v, w in terms))
    counts = list(accumulate(w for _, w in terms))
    gaps = [s - v * c for s, (v, _), c in zip(sums, terms, counts)]
    denominator = common * scale
    lo, hi = Fraction(min(gaps), denominator), Fraction(max(gaps), denominator)

    delta = sum(w for _, w in entries)
    n = len(entries)
    tails = [(Fraction(d, denominator), Fraction(v, denominator))
             for d, (v, _) in zip(gaps[-n:], terms[-n:])]

    with mpmath.workdps(50):
        def mp(x: Fraction):
            return mpmath.mpf(x.numerator) / x.denominator

        def least_below(d, u):
            # least rho^m (d - m u) over m >= 1, for u > 0
            m = max(1, math.ceil(d / u + rho / (1 - rho)))
            return mp(rho) ** m * mp(d - m * u)

        least, greatest = mp(lo), mp(hi)
        if delta > 0:
            least = min([least] + [least_below(d, delta * t) for d, t in tails])
        elif delta < 0:
            greatest = max([greatest] + [-least_below(-d, -delta * t) for d, t in tails])
        return least * mp(1 - rho), greatest * mp(1 - rho)


def closed_form_extremes_mpmath(vals, weights, rho, dps: int = 60):
    """The segment extremes of ``catalysis._threshold_extremes`` for one
    float ratio ``rho``, evaluated one segment at a time at ``dps`` digits.

    The switch-on indices c_yx = ceil(ln(v_x / v_y) / lam) are exact here,
    so this checks the float kernel's rounding, not its derivation; the
    exact oracle above checks that, at squeezings where its window is small.
    Returns two mpmath numbers.
    """
    with mpmath.workdps(dps):
        rho = mpmath.mpf(float(rho))
        lam, rest = -mpmath.log(rho), 1 - rho
        vs = [mpmath.mpf(float(v)) for v in vals]
        ws = [int(w) for w in weights]
        least = greatest = mpmath.mpf(0)
        for vy in vs:
            cs = [int(mpmath.ceil(mpmath.log(vx / vy) / lam)) for vx in vs]
            s0 = s1 = mpmath.mpf(0)
            s2 = s3 = 0
            for k, (vx, wx, c) in enumerate(zip(vs, ws, cs)):
                s0 += wx * vx
                s1 += wx * mpmath.exp(mpmath.log(vx / vy) - lam * c)
                s2, s3 = s2 + wx * c, s3 + wx
                lower = max(1 - c, 0)
                upper = -cs[k + 1] if k + 1 < len(cs) else None
                if upper is not None and lower > upper:
                    continue
                js = [lower] + ([upper] if upper is not None else [])
                if s3:
                    jstar = 1 / lam - (s1 + rest * s2) / (rest * s3)
                    js += [int(mpmath.floor(jstar)), int(mpmath.ceil(jstar))]
                for j in js:
                    j = max(j, lower) if upper is None else min(max(j, lower), upper)
                    gap = s0 - vy * mpmath.exp(-lam * j) * (s1 + rest * (s2 + j * s3))
                    least, greatest = min(least, gap), max(greatest, gap)
        return least, greatest


def dense_threshold_extremes(vals, weights, rhos):
    """The four-point kernel that ``catalysis._threshold_extremes`` replaced:
    D at both ends and the clamped floor(j*) and ceil(j*) of every one of
    the n^2 segments for each ratio, empty ones masked to 0. The sparse
    kernel must return the same bits."""
    lam = -np.log(rhos)[:, None, None]
    rest = (1.0 - rhos)[:, None, None]
    logs = np.log(vals)
    delta = (logs - logs[:, None]) / lam  # [ratio, y, x]
    c = np.ceil(delta)
    s0, s3 = np.cumsum(weights * vals), np.cumsum(weights)
    s1 = np.cumsum(weights * np.exp(lam * (delta - c)), axis=-1)
    s2 = np.cumsum(weights * c, axis=-1)
    # segment k runs from j = max(0, 1 - c_k) to -c_(k+1); the last one has no end
    lower = np.maximum(1.0 - c, 0.0)
    upper = np.concatenate([-c[..., 1:], np.full_like(c[..., :1], np.inf)], axis=-1)
    valid = lower <= upper
    with np.errstate(divide="ignore", invalid="ignore"):
        jstar = np.where(s3 != 0.0, 1.0 / lam - (s1 + rest * s2) / (rest * s3), lower)
    upper = np.maximum(upper, lower)  # an empty segment is masked out below
    lo = hi = np.zeros(rhos.size)
    # the ends lie in [lower, upper] already; only the stationary points are clamped
    for j in (lower, np.where(np.isinf(upper), lower, upper),
              np.minimum(np.maximum(np.floor(jstar), lower), upper),
              np.minimum(np.maximum(np.ceil(jstar), lower), upper)):
        gap = s0 - vals[:, None] * np.exp(-lam * j) * (s1 + rest * (s2 + j * s3))
        gap = np.where(valid, gap, 0.0)
        lo = np.minimum(lo, gap.min(axis=(1, 2)))
        hi = np.maximum(hi, gap.max(axis=(1, 2)))
    return lo, hi


def sorted_threshold_gaps(p, q, r, floor):
    """D(t) = F_q(t) - F_p(t) at every product (1 - rho) v rho^j, rho =
    tanh^2 r, of the nonzero entries v of p and q down to ``floor``, in float.

    The products are sorted once in decreasing order z_1 >= z_2 >= ..., and
    with w = +1 on those of q and -1 on those of p, D(z_k) = sum_{l <= k}
    w_l (z_l - z_k): one cumsum of w z and one of w. Below ``floor`` nothing
    is evaluated; the caller chooses a floor below which D is known.
    """
    rho = math.tanh(r) ** 2
    zs, ws = [], []
    for vec, weight in ((q, 1.0), (p, -1.0)):
        for v in vec.components[vec.components > 0]:
            top = (1.0 - rho) * v
            count = max(0, math.floor(math.log(top / floor) / -math.log(rho))) + 2
            z = top * rho ** np.arange(count)
            zs.append(z[z >= floor])
            ws.append(np.full(zs[-1].size, weight))
    z, w = np.concatenate(zs), np.concatenate(ws)
    order = np.argsort(-z, kind="stable")
    z, w = z[order], w[order]
    return np.cumsum(w * z) - z * np.cumsum(w)


def reference_partition(k: int) -> RegionPartition:
    """Region partition oracle: ``Fraction`` crossing ratios of factorials and
    ``sort_desc(spectrum(k, mid))`` at the midpoint of every region.

    The orderings are exact only while no two float components at a
    midpoint underflow to 0.0 and tie (k <= 122): ``sort_desc`` puts tied
    zeros in index order, which need not be their true order. Above that, check orderings
    with ``descends_in_mpmath`` instead.
    """
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


def descends_in_mpmath(k: int, theta: float, ordering, dps: int = 50) -> bool:
    """Whether the spectrum at ``theta``, evaluated at ``dps`` digits, falls
    strictly along ``ordering``. No component underflows at that precision,
    so this tells apart the components that are 0.0 in float."""
    with mpmath.workdps(dps):
        th = mpmath.mpf(theta)
        c2, s2 = mpmath.cos(th) ** 2, mpmath.sin(th) ** 2
        p = [math.comb(k, n) * c2**n * s2 ** (k - n) for n in ordering]
        return all(a > b for a, b in zip(p, p[1:]))


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


def entropy_curve_reference(k: int, orders, theta_grid) -> np.ndarray:
    """Entropy sweep oracle: ``renyi(spectrum(k, theta), alpha)`` one angle
    and one order at a time."""
    return np.array(
        [[renyi(spectrum(k, float(theta)), alpha) for alpha in orders]
         for theta in theta_grid]
    )


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
