import math

import numpy as np
import pytest

from bsmaj import (
    BobCorrection,
    build_kraus,
    run_protocol,
    spectrum,
    verify_nielsen,
)
from bsmaj import locc
from bsmaj.beamsplitter import MAX_PHOTONS


def test_kraus_smallest_case():
    pair = build_kraus(0)
    assert pair.f1_diag == (1.0,)
    assert pair.f2_weights == (1.0,)


def test_kraus_single_photon_case():
    pair = build_kraus(1)
    assert pair.f1_diag == pytest.approx((1.0, math.sqrt(0.5)), abs=1e-15)
    assert pair.f2_weights == pytest.approx((math.sqrt(0.5), 1.0), abs=1e-15)


@pytest.mark.parametrize("k", [0, 1, 2, 5, 13, 30, 1000, 10**5])
def test_kraus_completeness(k):
    pair = build_kraus(k)
    for m in range(k + 2):
        total = 0.0
        if m <= k:
            total += pair.f1_diag[m] ** 2
        if m >= 1:
            total += pair.f2_weights[m - 1] ** 2
        assert abs(total - 1.0) <= 1e-15


def test_protocol_single_photon_balanced():
    branch1, branch2 = run_protocol(1, math.pi / 4)
    # input spectrum (1/4, 1/2, 1/4); both outcomes occur with probability 1/2
    assert branch1.probability == pytest.approx(0.5, abs=1e-12)
    assert branch2.probability == pytest.approx(0.5, abs=1e-12)
    assert np.allclose(branch1.post_spectrum.components, [0.5, 0.5], atol=1e-12)
    assert np.allclose(branch2.post_spectrum.components, [0.5, 0.5], atol=1e-12)
    assert branch1.bob_correction is BobCorrection.CYCLIC_SHIFT
    assert branch2.bob_correction is BobCorrection.IDENTITY


def test_protocol_two_photon_reference_angle():
    theta = 0.62
    branch1, branch2 = run_protocol(2, theta)
    target = spectrum(2, theta)
    assert branch1.probability == pytest.approx(math.sin(theta) ** 2, abs=1e-12)
    assert branch2.probability == pytest.approx(math.cos(theta) ** 2, abs=1e-12)
    for branch in (branch1, branch2):
        assert np.max(np.abs(branch.post_spectrum.components - target.components)) < 1e-12
        assert not branch.vacuous


def test_protocol_vacuous_branches_at_endpoints():
    branch1, branch2 = run_protocol(3, 0.0)
    assert branch1.probability == 0.0 and branch1.vacuous
    assert branch2.probability == pytest.approx(1.0, abs=1e-15)
    assert np.allclose(
        branch1.post_spectrum.components, spectrum(3, 0.0).components, atol=0.0
    )

    branch1, branch2 = run_protocol(3, math.pi / 2)
    assert branch1.probability == pytest.approx(1.0, abs=1e-15)
    assert branch2.probability == pytest.approx(0.0, abs=1e-30)


@pytest.mark.parametrize("k", [0, 1, 4, 11, 30])
def test_protocol_deterministic_on_grid(k):
    for theta in np.linspace(0.0, math.pi / 2, 9):
        theta = float(theta)
        branch1, branch2 = run_protocol(k, theta)
        target = spectrum(k, theta)
        assert branch1.probability + branch2.probability == pytest.approx(
            1.0, abs=1e-12
        )
        assert branch1.probability == pytest.approx(math.sin(theta) ** 2, abs=1e-12)
        for branch in (branch1, branch2):
            assert (
                np.max(np.abs(branch.post_spectrum.components - target.components))
                < 1e-12
            )


def test_branch1_correction_is_pure_relabeling():
    # A permutation of indices cannot change the sorted spectrum.
    theta = 0.8
    branch1, _ = run_protocol(2, theta)
    sorted_post = np.sort(branch1.post_spectrum.components)
    sorted_target = np.sort(spectrum(2, theta).components)
    assert np.max(np.abs(sorted_post - sorted_target)) < 1e-12


@pytest.mark.parametrize("k", range(0, 11))
def test_nielsen_agreement_on_grid(k):
    for theta in np.linspace(0.0, math.pi / 2, 9):
        assert verify_nielsen(k, float(theta))


def test_nielsen_agreement_at_endpoints():
    assert verify_nielsen(2, 0.0)
    assert verify_nielsen(2, math.pi / 2)


def test_nielsen_verification_builds_two_spectra(monkeypatch):
    # the verdict and the protocol share the (k+1)- and k-photon spectra
    calls = []

    def counted(k, theta):
        calls.append(k)
        return spectrum(k, theta)

    monkeypatch.setattr(locc, "spectrum", counted)
    assert verify_nielsen(4, 0.7)
    assert sorted(calls) == [4, 5]


def test_protocol_refuses_k_whose_input_is_above_the_photon_cap():
    # build_kraus accepts k = MAX_PHOTONS, but the protocol's input carries k+1
    message = (f"k={MAX_PHOTONS} takes an input of {MAX_PHOTONS + 1} photons, "
               f"more than the limit of {MAX_PHOTONS}")
    with pytest.raises(ValueError, match=f"^{message}$"):
        verify_nielsen(MAX_PHOTONS, 0.5)


def test_report_serialization():
    branch1, _ = run_protocol(1, 0.5)
    payload = branch1.to_dict()
    assert payload["branch"] == 1
    assert payload["bob_correction"] == "CyclicShift"
    assert len(payload["post_spectrum"]) == 2
