"""Fock states on a beam splitter: output Schmidt spectra and majorization.

The package computes the two-mode output spectra of photon-number states
passing through a beam splitter and analyzes the majorization partial order
over them: the photon-number chain with its doubly stochastic witness, the
angle-parametric ordering regions with their crossovers and accumulation
derivatives, entropy monotones, an explicit deterministic LOCC conversion
protocol, and entanglement catalysis for incomparable spectra.
"""

__version__ = "0.1.0"

from .beamsplitter import photon_chain_check, spectrum
from .birkhoff import (
    BirkhoffDecomposition,
    DoublyStochasticMatrix,
    apply,
    birkhoff_decompose,
    bs_witness_matrix,
)
from .catalysis import (
    CatalystFamily,
    CatalystSpec,
    catalyst_spectrum,
    check_catalysis,
    necessary_conditions,
    search_catalyst,
    search_catalyst_all,
    tmsv_dimension,
)
from .entropy import entropy_curve, renyi
from .locc import (
    BobCorrection,
    bob_permutation,
    build_kraus,
    run_protocol,
    verify_nielsen,
)
from .majorization import MajorizationVerdict, Relation, compare, random_majorized
from .regions import (
    AmbiguousOrderingError,
    InfinitesimalStatus,
    RegionPartition,
    accumulation_derivatives,
    component_derivatives,
    find_crossovers,
    infinitesimal_verdict,
    positivity_bound,
    region1_closed_form,
)
from .vectors import NORM_TOL, TOL, ProbVector, pad_to, sort_desc, tensor

__all__ = [
    "__version__",
    "TOL",
    "NORM_TOL",
    "ProbVector",
    "sort_desc",
    "pad_to",
    "tensor",
    "Relation",
    "MajorizationVerdict",
    "compare",
    "random_majorized",
    "DoublyStochasticMatrix",
    "BirkhoffDecomposition",
    "bs_witness_matrix",
    "apply",
    "birkhoff_decompose",
    "spectrum",
    "photon_chain_check",
    "RegionPartition",
    "AmbiguousOrderingError",
    "InfinitesimalStatus",
    "find_crossovers",
    "component_derivatives",
    "accumulation_derivatives",
    "region1_closed_form",
    "infinitesimal_verdict",
    "positivity_bound",
    "renyi",
    "entropy_curve",
    "BobCorrection",
    "build_kraus",
    "bob_permutation",
    "run_protocol",
    "verify_nielsen",
    "CatalystFamily",
    "CatalystSpec",
    "tmsv_dimension",
    "catalyst_spectrum",
    "check_catalysis",
    "necessary_conditions",
    "search_catalyst",
    "search_catalyst_all",
]
