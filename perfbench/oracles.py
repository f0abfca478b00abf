"""Reference computations made apart from bsmaj, and the checks built on them.

Nothing here imports bsmaj or numpy. Spectra, crossover angles, accumulation
derivatives and entropies come from mpmath at 40 digits; majorization
verdicts come from exact prefix sums of the sorted components (every float
is an integer multiple of 2**-1074, so the sums are Python integers and carry
no rounding at all). Each ``check_*`` function raises :class:`CheckError`
with a short reason when an answer is wrong, and returns None otherwise.
"""

from __future__ import annotations

import functools
import math

import mpmath

DPS = 40

#: Tolerance the program decides with by default (``bsmaj.TOL``).
TOL = 1e-12

#: Default squeezed-vacuum tail mass; its value is part of the catalyst's
#: definition, so the oracle states it again rather than reading it.
TAIL_TOL = 1e-12

#: Rényi orders the program's entropy screen uses.
SCREEN_ALPHAS = (0.0, 0.5, 1.0, 2.0, 5.0, 10.0, 100.0, math.inf)

_EPS = 2.0**-52
_SCALE = 1074  # every finite double is an integer multiple of 2**-1074


class CheckError(AssertionError):
    """A program output disagrees with the independent reference."""


def require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckError(message)


# --------------------------------------------------------------------------
# spectra


@functools.lru_cache(maxsize=None)
def spectrum_mp(k: int, theta: float) -> tuple:
    """C(k,n) cos^2n(theta) sin^2(k-n)(theta) for n = 0..k, as mpf at 40 digits."""
    with mpmath.workdps(DPS):
        th = mpmath.mpf(theta)
        c2, s2 = mpmath.cos(th) ** 2, mpmath.sin(th) ** 2
        if s2 == 0:
            return tuple([mpmath.mpf(0)] * k + [mpmath.mpf(1)])
        out = []
        v = s2**k
        ratio = c2 / s2
        for n in range(k + 1):
            out.append(v)
            v = v * ratio * (k - n) / (n + 1)
        return tuple(out)


def spectrum_ref(k: int, theta: float) -> list[float]:
    return [float(x) for x in spectrum_mp(k, theta)]


def check_close(values, reference, *, rel: float, floor: float = 1e-300, what: str) -> None:
    values = [float(v) for v in values]
    reference = [float(r) for r in reference]
    require(len(values) == len(reference),
            f"{what}: {len(values)} values, expected {len(reference)}")
    for i, (v, r) in enumerate(zip(values, reference)):
        if not abs(v - r) <= rel * abs(r) + floor:
            raise CheckError(f"{what}[{i}] = {v!r}, reference {r!r}")


def check_spectrum(values, k: int, theta: float, *, sort: bool = False,
                   rel: float = 1e-10) -> None:
    ref = spectrum_ref(k, theta)
    if sort:
        ref = sorted(ref, reverse=True)
    check_close(values, ref, rel=rel, what=f"spectrum(k={k}, theta={theta!r})")


# --------------------------------------------------------------------------
# majorization by exact prefix sums


def _scaled(x: float) -> int:
    n, d = float(x).as_integer_ratio()
    return n << (_SCALE - d.bit_length() + 1)


def _sorted_padded(p, q) -> tuple[list[float], list[float]]:
    ps = sorted(map(float, p), reverse=True)
    qs = sorted(map(float, q), reverse=True)
    d = max(len(ps), len(qs))
    return ps + [0.0] * (d - len(ps)), qs + [0.0] * (d - len(qs))


def exact_gaps(p, q) -> list[float]:
    """Prefix-sum gaps (q minus p) of the descending-sorted, zero-padded vectors.

    Each gap is exact up to the final conversion to float.
    """
    acc = 0
    unit = 1 << _SCALE
    gaps = []
    for a, b in zip(*_sorted_padded(p, q)):
        acc += _scaled(b) - _scaled(a)
        gaps.append(acc / unit)
    return gaps


def relation(p, q, tol: float = TOL) -> str:
    """Majorization relation of p against q, decided on exact prefix sums."""
    ps, qs = _sorted_padded(p, q)
    if all(abs(a - b) <= tol for a, b in zip(ps, qs)):
        return "Equal"
    gaps = exact_gaps(ps, qs)
    if min(gaps) >= -tol:
        return "MajorizedBy"
    if max(gaps) <= tol:
        return "Majorizes"
    return "Incomparable"


def sum_error_bound(d: int) -> float:
    """A-priori error of a float64 running sum of d terms summing to one."""
    return 2.0 * d * _EPS


# --------------------------------------------------------------------------
# catalysts


def tmsv_terms(r: float, tail_tol: float = TAIL_TOL) -> int:
    """Smallest N with tanh(r)**(2N) below tail_tol (mass beyond N terms)."""
    with mpmath.workdps(DPS):
        q = mpmath.tanh(mpmath.mpf(r)) ** 2
        n = int(mpmath.ceil(mpmath.log(tail_tol) / mpmath.log(q)))
        while q**n >= tail_tol:
            n += 1
        return max(1, n)


def catalyst_vector(family: str, value: float) -> list[float]:
    if family == "single-photon":
        c2 = math.cos(value) ** 2
        return [c2, 1.0 - c2]
    if family == "tmsv":
        q = math.tanh(value) ** 2
        w = [(1.0 - q) * q**n for n in range(tmsv_terms(value))]
        total = math.fsum(w)
        return [x / total for x in w]
    raise ValueError(f"unknown catalyst family {family!r}")


def catalysis_margin(p, q, family: str, value: float) -> tuple[float, float]:
    """Minimum exact prefix gap of p(x)c against q(x)c, and its error allowance.

    The allowance covers the float64 running sums the program decides on and
    the ulp-level difference between this catalyst and the program's.
    """
    return _margin(tuple(map(float, p)), tuple(map(float, q)), family, float(value))


@functools.lru_cache(maxsize=None)
def _margin(p: tuple, q: tuple, family: str, value: float) -> tuple[float, float]:
    c = catalyst_vector(family, value)
    pc = [a * b for a in p for b in c]
    qc = [a * b for a in q for b in c]
    gaps = exact_gaps(pc, qc)
    return min(gaps[:-1] or gaps), sum_error_bound(len(pc)) + 1e-15


def catalysis_holds(p, q, family: str, value: float, tol: float = TOL) -> bool:
    """Bare p and q incomparable, and p(x)c majorized by q(x)c."""
    if relation(p, q, tol) != "Incomparable":
        return False
    margin, slack = catalysis_margin(p, q, family, value)
    return margin >= -(tol + slack)


def catalysis_fails(p, q, family: str, value: float, tol: float = TOL) -> bool:
    """The catalyst clearly does not work: some gap is beyond every allowance."""
    margin, slack = catalysis_margin(p, q, family, value)
    return margin < -(tol + slack)


# --------------------------------------------------------------------------
# entropies


def renyi_mp(probs, alpha: float, tol: float = TOL):
    """Rényi entropy in nats of an mpf or float vector, at 40 digits."""
    with mpmath.workdps(DPS):
        xs = [mpmath.mpf(x) for x in probs]
        if math.isinf(alpha):
            return -mpmath.log(max(xs))
        if alpha == 0.0:
            return mpmath.log(sum(1 for x in xs if x > tol))
        pos = [x for x in xs if x > 0]
        if alpha == 1.0:
            return -mpmath.fsum(x * mpmath.log(x) for x in pos)
        a = mpmath.mpf(alpha)
        return mpmath.log(mpmath.fsum(x**a for x in pos)) / (1 - a)


def entropy_ref(k: int, theta: float, alpha: float) -> float:
    return float(renyi_mp(spectrum_mp(k, theta), alpha))


def screen_failure(p, q, alphas=SCREEN_ALPHAS, tol: float = TOL, margin: float = 1e-13):
    """First order with S(p) < S(q) by more than ``margin``, or None.

    Returns the string "ambiguous" when some order sits within ``margin`` of
    the screen's decision threshold.
    """
    ambiguous = False
    for a in alphas:
        diff = float(renyi_mp(p, a) - renyi_mp(q, a)) + tol
        if diff < -margin:
            return a
        if diff < margin:
            ambiguous = True
    return "ambiguous" if ambiguous else None


# --------------------------------------------------------------------------
# crossovers and accumulation derivatives


@functools.lru_cache(maxsize=None)
def crossover_table(k: int) -> tuple:
    """All (theta, n, m), n > m, with components n and m equal inside (0, pi/4).

    tan(theta)^(2(n-m)) = C(k,n) / C(k,m), evaluated from exact integers.
    """
    quarter = math.pi / 4
    out = []
    with mpmath.workdps(DPS):
        for n in range(1, k + 1):
            for m in range(n):
                ratio = mpmath.mpf(math.comb(k, n)) / math.comb(k, m)
                theta = float(mpmath.atan(ratio ** (mpmath.mpf(1) / (2 * (n - m)))))
                if TOL < theta < quarter - TOL:
                    out.append((theta, n, m))
    out.sort()
    return tuple(out)


def crossover_angles(k: int) -> list[float]:
    """Distinct crossover angles, merged within TOL."""
    angles: list[float] = []
    for theta, _, _ in crossover_table(k):
        if not angles or theta - angles[-1] > TOL:
            angles.append(theta)
    return angles


def first_crossover(k: int) -> float:
    angles = crossover_angles(k)
    return angles[0] if angles else math.pi / 4


def component_mp(k: int, n: int, theta: float):
    with mpmath.workdps(DPS):
        th = mpmath.mpf(theta)
        return mpmath.binomial(k, n) * mpmath.cos(th) ** (2 * n) * mpmath.sin(th) ** (2 * (k - n))


def check_crossovers(k: int, crossovers, pairs, orderings, *, angle_tol: float,
                     at_reported: bool, max_regions: int = 40) -> None:
    """Reported crossovers against the exact integer-ratio angles.

    ``at_reported`` evaluates the coinciding components at the reported
    angle; CLI output is rounded to 12 digits, so there the angle itself is
    compared to ``angle_tol`` and coincidence is taken at the exact angle.
    Orderings are checked on at most ``max_regions`` evenly spaced regions.
    """
    what = f"crossovers(k={k})"
    ref = crossover_angles(k)
    require(len(crossovers) == len(ref),
            f"{what}: {len(crossovers)} crossovers, expected {len(ref)}")
    for got, want in zip(crossovers, ref):
        require(abs(got - want) <= angle_tol, f"{what}: {got!r} vs {want!r}")
    table = {(n, m): theta for theta, n, m in crossover_table(k)}
    require(len(pairs) == len(crossovers), f"{what}: pairs and crossovers differ in length")
    for cross, group in zip(crossovers, pairs):
        for n, m in group:
            n, m = int(n), int(m)
            require((n, m) in table, f"{what}: pair {(n, m)} never crosses")
            require(abs(table[(n, m)] - cross) <= angle_tol,
                    f"{what}: pair {(n, m)} crosses at {table[(n, m)]!r}, not {cross!r}")
            at = float(cross) if at_reported else table[(n, m)]
            diff = component_mp(k, n, at) - component_mp(k, m, at)
            require(abs(float(diff)) <= 1e-12, f"{what}: components {n},{m} differ at {cross!r}")
    require(sum(len(g) for g in pairs) == len(table), f"{what}: pairs missing")
    bounds = [0.0, *ref, math.pi / 4]
    require(len(orderings) == len(bounds) - 1, f"{what}: wrong number of orderings")
    step = max(1, -(-len(orderings) // max_regions))
    for r in range(0, len(orderings), step):
        spec = spectrum_mp(k, 0.5 * (bounds[r] + bounds[r + 1]))
        order = [int(i) for i in orderings[r]]
        require(sorted(order) == list(range(k + 1)), f"{what}: ordering {r} is no permutation")
        require(all(spec[a] >= spec[b] * (1 - 1e-12) for a, b in zip(order, order[1:])),
                f"{what}: region {r + 1} is not sorted in descending order")


@functools.lru_cache(maxsize=None)
def accumulation_ref(k: int, theta: float) -> tuple[float, ...]:
    """Central differences of the sorted prefix sums, sort order fixed at theta."""
    with mpmath.workdps(DPS):
        h = mpmath.mpf(10) ** -15
        spec = spectrum_mp(k, theta)
        order = sorted(range(k + 1), key=lambda n: (-spec[n], n))
        th = mpmath.mpf(theta)

        def comps(t):
            c2, s2 = mpmath.cos(t) ** 2, mpmath.sin(t) ** 2
            return [mpmath.binomial(k, n) * c2**n * s2 ** (k - n) for n in range(k + 1)]

        up, down = comps(th + h), comps(th - h)
        out, acc = [], mpmath.mpf(0)
        for n in order[:k]:
            acc += (up[n] - down[n]) / (2 * h)
            out.append(float(acc))
        return tuple(out)


def check_accumulation(values, k: int, theta: float, what: str) -> None:
    ref = accumulation_ref(k, theta)
    require(len(values) == len(ref), f"{what}: {len(values)} derivatives, expected {len(ref)}")
    for j, (v, r) in enumerate(zip(values, ref)):
        require(abs(float(v) - r) <= 1e-9 * max(1.0, abs(r)),
                f"{what}: derivative {j} = {v!r}, reference {r!r}")
        if abs(r) > 1e-9:
            require((float(v) > 0) == (r > 0), f"{what}: derivative {j} has the wrong sign")


def check_infinitesimal(status: str, first_violation, values, k: int, theta: float,
                        tol: float = TOL) -> None:
    what = f"infinitesimal(k={k}, theta={theta!r})"
    check_accumulation(values, k, theta, what)
    ref = accumulation_ref(k, theta)
    if theta < first_crossover(k):
        require(status == "Holds", f"{what}: {status} in region 1")
    positive = [j for j, r in enumerate(ref) if r > tol]
    if positive:
        require(status == "Violated" and first_violation == positive[0],
                f"{what}: {status}/{first_violation}, derivative {positive[0]} is positive")
    else:
        require(status == "Holds" and first_violation is None, f"{what}: {status}")


def well_separated(k: int, theta: float, gap: float = 1e-6) -> bool:
    """Theta is off every crossover, and no accumulation derivative sits
    near the tolerance that separates Holds from Violated."""
    if any(abs(theta - c) < gap for c in crossover_angles(k)):
        return False
    if math.pi / 4 - theta < gap:
        return False
    return all(r <= TOL / 2 or r >= 2 * TOL for r in accumulation_ref(k, theta))


# --------------------------------------------------------------------------
# photon chain witness and Birkhoff decomposition


def witness_matrix(k: int, theta: float) -> list[list[float]]:
    s2, c2 = math.sin(theta) ** 2, math.cos(theta) ** 2
    d = k + 2
    m = [[0.0] * d for _ in range(d)]
    for i in range(d):
        m[i][i] = s2
    for i in range(1, d):
        m[i][i - 1] = c2
    m[0][d - 1] = c2
    return m


def check_witness(matrix, k: int, theta: float, *, tol: float = 1e-15) -> None:
    """The banded matrix maps the padded k-photon spectrum onto the (k+1)-photon one."""
    what = f"witness(k={k}, theta={theta!r})"
    want = witness_matrix(k, theta)
    require(len(matrix) == len(want), f"{what}: dimension {len(matrix)}")
    for row, wrow in zip(matrix, want):
        for a, b in zip(row, wrow):
            require(abs(float(a) - b) <= tol, f"{what}: entry {a!r} vs {b!r}")
    with mpmath.workdps(DPS):
        src = list(spectrum_mp(k, theta)) + [mpmath.mpf(0)]
        out = [mpmath.fsum(mpmath.mpf(float(a)) * x for a, x in zip(row, src)) for row in matrix]
    check_close(out, spectrum_ref(k + 1, theta), rel=1e-10, floor=1e-15,
                what=f"{what} applied")


def check_birkhoff(matrix, perms, weights) -> None:
    d = len(matrix)
    require(len(perms) == len(weights) and perms, "birkhoff: no terms")
    require(abs(math.fsum(float(w) for w in weights) - 1.0) <= 1e-9, "birkhoff: weights do not sum to 1")
    require(all(float(w) > 0 for w in weights), "birkhoff: nonpositive weight")
    recon = [[0.0] * d for _ in range(d)]
    for perm, w in zip(perms, weights):
        require(sorted(int(c) for c in perm) == list(range(d)), f"birkhoff: {perm} is no permutation")
        for i, c in enumerate(perm):
            recon[i][int(c)] += float(w)
    err = max(abs(recon[i][j] - float(matrix[i][j])) for i in range(d) for j in range(d))
    require(err < 1e-9, f"birkhoff: reconstruction error {err!r}")


# --------------------------------------------------------------------------
# entropy sweeps


def check_entropy_table(rows, k: int, thetas, orders, *, bits: bool = False) -> None:
    """One row per angle, one column per order; Shannon must rise on (0, pi/4)."""
    what = f"entropy_curve(k={k})"
    require(len(rows) == len(thetas), f"{what}: {len(rows)} rows for {len(thetas)} angles")
    scale = math.log(2.0) if bits else 1.0
    for theta, row in zip(thetas, rows):
        require(len(row) == len(orders), f"{what}: row width {len(row)}")
        for alpha, v in zip(orders, row):
            ref = entropy_ref(k, theta, alpha) / scale
            require(abs(float(v) - ref) <= 1e-9 * abs(ref) + 1e-12,
                    f"{what}: S_{alpha}({theta!r}) = {v!r}, reference {ref!r}")
    if 1.0 in orders:
        col = orders.index(1.0)
        shannon = [float(row[col]) for row, t in zip(rows, thetas) if t <= math.pi / 4]
        require(all(b > a for a, b in zip(shannon, shannon[1:])),
                f"{what}: Shannon entropy does not rise on (0, pi/4)")


# --------------------------------------------------------------------------
# LOCC protocol


def check_locc(branches, target, k: int, theta: float) -> None:
    what = f"locc(k={k}, theta={theta!r})"
    big = spectrum_mp(k + 1, theta)
    with mpmath.workdps(DPS):
        p1 = mpmath.fsum((k + 1 - n) * big[n] for n in range(k + 1)) / (k + 1)
        p2 = mpmath.fsum((n + 1) * big[n + 1] for n in range(k + 1)) / (k + 1)
    for prob, want in zip([b["probability"] for b in branches], (p1, p2)):
        require(abs(float(prob) - float(want)) <= 1e-10, f"{what}: branch probability {prob!r}")
    for b in branches:
        check_spectrum(b["post_spectrum"], k, theta)
    check_spectrum(target, k, theta)
