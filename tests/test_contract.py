"""The number contract of the library: every numeric argument is read by
``vectors.as_integer``, ``vectors.as_real`` or ``vectors.as_real_array``, so
anything that is no number, or no number a float can hold, raises a
ValueError that names the argument, and no other exception escapes."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from bsmaj import (
    CatalystSpec,
    DoublyStochasticMatrix,
    ProbVector,
    accumulation_derivatives,
    birkhoff_decompose,
    bs_witness_matrix,
    build_kraus,
    check_catalysis,
    compare,
    component_derivatives,
    entropy_curve,
    find_crossovers,
    infinitesimal_verdict,
    necessary_conditions,
    photon_chain_check,
    positivity_bound,
    random_majorized,
    region1_closed_form,
    renyi,
    run_protocol,
    search_catalyst,
    search_catalyst_all,
    spectrum,
    tmsv_dimension,
    verify_nielsen,
)

P = spectrum(3, 0.72)
Q = spectrum(3, 0.62)
GRID = [0.1, 0.2]

#: Calls that were once accepted, escaped as TypeError or OverflowError, or
#: never checked their argument, with the name each refusal must give.
REFUSALS = [
    ("spectrum(True, 0.3)", lambda: spectrum(True, 0.3), "photon number"),
    ("spectrum(3, True)", lambda: spectrum(3, True), "theta"),
    ("spectrum(3, '0.3')", lambda: spectrum(3, "0.3"), "theta"),
    ("find_crossovers(True)", lambda: find_crossovers(True), "photon number"),
    ("positivity_bound(3, True)", lambda: positivity_bound(3, True), "n"),
    ("random_majorized(q, 2, True)", lambda: random_majorized(Q, 2, True), "seed"),
    ("compare(tol=True)", lambda: compare(P, Q, tol=True), "tolerance"),
    ("renyi(p, True)", lambda: renyi(P, True), "entropy order"),
    ("CatalystSpec.tmsv('1')", lambda: CatalystSpec.tmsv("1"), "squeezing parameter"),
    ("search_catalyst(r_max='3')",
     lambda: search_catalyst(P, Q, "tmsv", 0.1, r_max="3"), "squeezing parameter"),
    ("entropy_curve(3, '12', grid)", lambda: entropy_curve(3, "12", GRID), "orders"),
    ("entropy_curve(3, [1], '0.3')", lambda: entropy_curve(3, [1], "0.3"), "theta"),
    ("ProbVector(['0.5', '0.5'])", lambda: ProbVector(["0.5", "0.5"]), "components"),
    ("ProbVector([True])", lambda: ProbVector([True]), "components"),
    ("DoublyStochasticMatrix([[True]])", lambda: DoublyStochasticMatrix([[True]]), "entries"),
    ("compare(tol='0.1')", lambda: compare(P, Q, tol="0.1"), "tolerance"),
    ("compare(tol=None)", lambda: compare(P, Q, tol=None), "tolerance"),
    ("search_catalyst(grid='0.1')",
     lambda: search_catalyst(P, Q, "tmsv", "0.1"), "grid step"),
    ("region_of('0.1')", lambda: find_crossovers(3).region_of("0.1"), "theta"),
    ("entropy_curve(3, None, grid)", lambda: entropy_curve(3, None, GRID), "orders"),
    ("spectrum(3, None)", lambda: spectrum(3, None), "theta"),
    ("spectrum(3, 1+0j)", lambda: spectrum(3, 1 + 0j), "theta"),
    ("spectrum(3, 10**400)", lambda: spectrum(3, 10**400), "theta"),
    ("renyi(p, 10**400)", lambda: renyi(P, 10**400), "entropy order"),
    ("single-photon search r_max=nan",
     lambda: search_catalyst_all(P, Q, "single-photon", 0.1, r_max=math.nan),
     "squeezing parameter"),
]


@pytest.mark.parametrize("call,name", [(c, n) for _, c, n in REFUSALS],
                         ids=[label for label, _, _ in REFUSALS])
def test_a_refused_number_raises_a_value_error_that_names_it(call, name):
    with pytest.raises(ValueError, match=rf"^{re.escape(name)}\b"):
        call()


#: Where one drawn value goes: every numeric argument of the exported
#: callables, the others held at valid values.
D = bs_witness_matrix(2, 0.3)
SLOTS = {
    "spectrum.k": lambda v: spectrum(v, 0.3),
    "spectrum.theta": lambda v: spectrum(3, v),
    "photon_chain_check.k_max": lambda v: photon_chain_check(v, 0.3),
    "photon_chain_check.theta": lambda v: photon_chain_check(3, v),
    "photon_chain_check.tol": lambda v: photon_chain_check(3, 0.3, tol=v),
    "find_crossovers.k": find_crossovers,
    "region_of.theta": lambda v: find_crossovers(3).region_of(v),
    "component_derivatives.k": lambda v: component_derivatives(v, 0.3),
    "component_derivatives.theta": lambda v: component_derivatives(3, v),
    "accumulation_derivatives.k": lambda v: accumulation_derivatives(v, 0.3),
    "accumulation_derivatives.theta": lambda v: accumulation_derivatives(3, v),
    "accumulation_derivatives.tol": lambda v: accumulation_derivatives(3, 0.3, tol=v),
    "region1_closed_form.k": lambda v: region1_closed_form(v, 0, 0.3),
    "region1_closed_form.j": lambda v: region1_closed_form(3, v, 0.3),
    "region1_closed_form.theta": lambda v: region1_closed_form(3, 0, v),
    "infinitesimal_verdict.k": lambda v: infinitesimal_verdict(v, 0.3),
    "infinitesimal_verdict.theta": lambda v: infinitesimal_verdict(3, v),
    "infinitesimal_verdict.tol": lambda v: infinitesimal_verdict(3, 0.3, tol=v),
    "positivity_bound.k": lambda v: positivity_bound(v, 1),
    "positivity_bound.n": lambda v: positivity_bound(3, v),
    "renyi.order": lambda v: renyi(P, v),
    "entropy_curve.k": lambda v: entropy_curve(v, [1], GRID),
    "entropy_curve.orders": lambda v: entropy_curve(3, v, GRID),
    "entropy_curve.order": lambda v: entropy_curve(3, [v], GRID),
    "entropy_curve.theta_grid": lambda v: entropy_curve(3, [1], v),
    "compare.tol": lambda v: compare(P, Q, tol=v),
    "random_majorized.n_perms": lambda v: random_majorized(Q, v, 0),
    "random_majorized.seed": lambda v: random_majorized(Q, 2, v),
    "ProbVector.components": ProbVector,
    "ProbVector.allclose.tol": lambda v: P.allclose(Q, tol=v),
    "DoublyStochasticMatrix.entries": DoublyStochasticMatrix,
    "bs_witness_matrix.k": lambda v: bs_witness_matrix(v, 0.3),
    "bs_witness_matrix.theta": lambda v: bs_witness_matrix(2, v),
    "birkhoff_decompose.tol": lambda v: birkhoff_decompose(D, tol=v),
    "build_kraus.k": build_kraus,
    "run_protocol.k": lambda v: run_protocol(v, 0.3),
    "run_protocol.theta": lambda v: run_protocol(3, v),
    "verify_nielsen.k": lambda v: verify_nielsen(v, 0.3),
    "verify_nielsen.theta": lambda v: verify_nielsen(3, v),
    "verify_nielsen.tol": lambda v: verify_nielsen(3, 0.3, tol=v),
    "CatalystSpec.single_photon.theta_c": CatalystSpec.single_photon,
    "CatalystSpec.tmsv.r": CatalystSpec.tmsv,
    "tmsv_dimension.r": tmsv_dimension,
    "check_catalysis.tol": lambda v: check_catalysis(P, Q, CatalystSpec.tmsv(1.0), tol=v),
    "necessary_conditions.tol": lambda v: necessary_conditions(P, Q, tol=v),
    "search_catalyst.grid": lambda v: search_catalyst(P, Q, "single-photon", v),
    "search_catalyst.r_max": lambda v: search_catalyst(P, Q, "tmsv", 0.3, r_max=v),
    "search_catalyst.tol": lambda v: search_catalyst(P, Q, "tmsv", 0.3, tol=v),
    "search_catalyst_all.grid": lambda v: search_catalyst_all(P, Q, "tmsv", v),
    "search_catalyst_all.r_max":
        lambda v: search_catalyst_all(P, Q, "single-photon", 0.3, r_max=v),
    "search_catalyst_all.tol": lambda v: search_catalyst_all(P, Q, "single-photon", 0.3, tol=v),
}

#: Values that are no number, numbers at the edges of the float range, small
#: valid ones, and one-element lists of any of them.
SCALARS = st.one_of(
    st.booleans(),
    st.booleans().map(np.bool_),
    st.sampled_from([np.float64(0.3), np.float32(0.5), np.int64(2), np.uint8(1),
                     np.float64(math.nan), np.complex128(0.3)]),
    st.text(max_size=3),
    st.binary(max_size=3),
    st.none(),
    st.sampled_from([math.nan, math.inf, -math.inf, 5e-324, -0.0, 10**400]),
    st.complex_numbers(max_magnitude=2.0),
    st.sampled_from([0, 1, 2, 3, -1, 0.0, 0.3, 0.5, 1.0, 2.5]),
)
VALUES = SCALARS | st.lists(SCALARS, min_size=1, max_size=1)


@seed(20130)
@settings(max_examples=2000, deadline=None)
@given(slot=st.sampled_from(sorted(SLOTS)), value=VALUES)
def test_every_numeric_argument_returns_or_raises_a_value_error(slot, value):
    try:
        SLOTS[slot](value)
    except ValueError:
        pass
