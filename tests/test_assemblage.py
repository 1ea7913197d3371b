import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from steerlab.assemblage import (
    Assemblage,
    apply_loss_to_assemblage,
    check_entries,
    filter_entries,
    filter_loss,
    lhs_model_residual,
    lossy_entries,
    steer,
    steer_entries,
)
from steerlab.linalg import frobenius
from steerlab.objects import DensityOperator, Povm, mub_pair, one_way_state, phi_plus

from corpus import random_density, random_povm


def _random_assemblage(d, n_settings, n_outcomes, rng):
    rho = random_density(d * d, rng, dims=(d, d))
    povms = [random_povm(d, n_outcomes, rng) for _ in range(n_settings)]
    return steer(rho, povms, measured_side=0)


def test_steer_perfect_correlations():
    rho = phi_plus(2).to_density()
    z_basis = Povm([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
    sigma = steer(rho, [z_basis], measured_side=1)
    assert frobenius(sigma.entry(0, 0) - np.diag([0.5, 0.0])) < 1e-12
    assert frobenius(sigma.entry(1, 0) - np.diag([0.0, 0.5])) < 1e-12


def test_steer_product_state_gives_scaled_marginal():
    rng = np.random.default_rng(0)
    rho_a = random_density(2, rng)
    rho_b = random_density(2, rng)
    rho = DensityOperator(np.kron(rho_a.mat, rho_b.mat), (2, 2))
    povm = random_povm(2, 3, rng)
    sigma = steer(rho, [povm], measured_side=1)
    for a, effect in enumerate(povm.effects):
        prob = np.trace(rho_b.mat @ effect).real
        assert frobenius(sigma.entry(a, 0) - prob * rho_a.mat) < 1e-12


def test_steer_sums_to_reduced_state():
    rng = np.random.default_rng(1)
    rho = one_way_state(3, 0.5, 0.8)
    sigma = steer(rho, list(mub_pair(3)), measured_side=0)
    reduced_b = rho.reduced(1)
    for x in range(2):
        total = sum(sigma.blocks[x])
        assert frobenius(total - reduced_b) < 1e-12


def test_steer_nonsignaling_random():
    rng = np.random.default_rng(2)
    for d in (2, 3, 5):
        rho = random_density(d * d, rng, dims=(d, d))
        povms = [random_povm(d, 1 + int(rng.integers(1, 4)), rng) for _ in range(4)]
        sigma = steer(rho, povms, measured_side=0)
        ref = sum(sigma.blocks[0])
        for x in range(1, 4):
            assert frobenius(sum(sigma.blocks[x]) - ref) < 1e-12


def test_steer_dimension_mismatch():
    rho = phi_plus(2).to_density()
    with pytest.raises(ValueError):
        steer(rho, [random_povm(3, 2, np.random.default_rng(0))], measured_side=0)


def test_assemblage_rejects_signaling():
    eye = np.eye(2) / 2
    blocks = (
        (eye / 2, eye / 2),
        (eye * 0.9 / 2, eye * 1.1 / 2 @ np.diag([1.2, 0.8])),
    )
    with pytest.raises(ValueError):
        Assemblage(blocks, (0, 1))


def test_assemblage_rejects_setting_without_outcomes():
    entry = np.eye(2) / 4
    with pytest.raises(ValueError, match=r"setting 1 has shape \(0, 2, 2\)"):
        Assemblage(((entry, entry), np.zeros((0, 2, 2))), (0, 1))


def test_apply_loss_direct_arithmetic():
    # uniform two-outcome assemblage, each entry I/4 with trace 1/2
    entry = np.eye(2) / 4
    sigma = Assemblage(((entry, entry), (entry, entry)), (0, 1))
    out = apply_loss_to_assemblage(sigma, 0.5)
    expected = np.diag([0.125, 0.125, 0.25])
    for x in range(2):
        for a in range(2):
            assert frobenius(out.entry(a, x) - expected) < 1e-14
    assert abs(np.trace(sum(out.blocks[0])).real - 1.0) < 1e-12


def test_apply_loss_eta_one_pads_only():
    rng = np.random.default_rng(3)
    sigma = _random_assemblage(2, 2, 2, rng)
    out = apply_loss_to_assemblage(sigma, 1.0)
    assert out.dim == 3
    for x in range(2):
        for a in range(2):
            mat = out.entry(a, x)
            assert frobenius(mat[:2, :2] - sigma.entry(a, x)) < 1e-14
            assert abs(mat[2, 2]) < 1e-14


def test_apply_loss_rejects_eta_zero():
    rng = np.random.default_rng(4)
    sigma = _random_assemblage(2, 2, 2, rng)
    with pytest.raises(ValueError):
        apply_loss_to_assemblage(sigma, 0.0)
    with pytest.raises(ValueError):
        filter_loss(apply_loss_to_assemblage(sigma, 0.5), 0.0)


def test_loss_filter_refuses_a_subnormal_eta_by_name():
    # numpy's complex division by a subnormal float overflows, so the filter
    # takes no transmission below the smallest normal float
    sigma = _random_assemblage(2, 2, 2, np.random.default_rng(4))
    message = ("transmission eta must be at least 2.2250738585072014e-308 "
               "(the smallest normal float), got 1e-320")
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        apply_loss_to_assemblage(sigma, 1e-320)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        filter_loss(apply_loss_to_assemblage(sigma, 0.5), 1e-320)
    assert filter_loss(apply_loss_to_assemblage(sigma, np.finfo(float).tiny),
                       np.finfo(float).tiny).dim == 2


def test_loss_roundtrip():
    rng = np.random.default_rng(5)
    for eta in (0.05, 0.3, 0.7, 1.0):
        for _ in range(5):
            sigma = _random_assemblage(3, 2, 3, rng)
            back = filter_loss(apply_loss_to_assemblage(sigma, eta), eta)
            for x in range(2):
                for a in range(3):
                    assert frobenius(back.entry(a, x) - sigma.entry(a, x)) < 1e-12


def test_filter_recovers_lossless_state_assemblage():
    # measuring the d-dimensional side of the lossy state equals loss applied
    # to the lossless-state assemblage, so the filter recovers the latter
    d, eta, p = 3, 0.4, 0.8
    mubs = list(mub_pair(d))
    lossy_sigma = steer(one_way_state(d, eta, p), mubs, measured_side=0)
    clean_sigma = steer(one_way_state(d, 1.0, p), mubs, measured_side=0)
    filtered = filter_loss(lossy_sigma, eta)
    for x in range(2):
        for a in range(d):
            # lossless assemblage lives on d+1 levels with an empty vacuum block
            clean_block = clean_sigma.entry(a, x)[:d, :d]
            assert frobenius(filtered.entry(a, x) - clean_block) < 1e-12


def test_filter_rejects_non_lossy_input():
    # coherences into the vacuum level are not of lossy form
    psi = np.array([1.0, 0.0, 1.0]) / np.sqrt(2)
    coherent = np.outer(psi, psi.conj())
    sigma = Assemblage(((coherent / 2, coherent / 2),), (0,))
    with pytest.raises(ValueError):
        filter_loss(sigma, 0.5)


def test_filter_detects_wrong_eta():
    rng = np.random.default_rng(6)
    sigma = _random_assemblage(2, 2, 2, rng)
    lossy_sigma = apply_loss_to_assemblage(sigma, 0.5)
    with pytest.raises(ValueError):
        filter_loss(lossy_sigma, 0.9)


def test_lhs_residual_product_state():
    rng = np.random.default_rng(7)
    rho_a = random_density(2, rng)
    rho_b = random_density(2, rng)
    rho = DensityOperator(np.kron(rho_a.mat, rho_b.mat), (2, 2))
    povms = [random_povm(2, 2, rng) for _ in range(2)]
    sigma = steer(rho, povms, measured_side=1)
    probs = [
        [np.trace(rho_b.mat @ e).real for e in povm.effects] for povm in povms
    ]
    assert lhs_model_residual(sigma, rho_a.mat[None], np.array(probs)[:, :, None]) < 1e-12


def test_lhs_residual_wrong_model_positive():
    rng = np.random.default_rng(8)
    sigma = steer(phi_plus(2).to_density(), [random_povm(2, 2, rng)], 1)
    res = lhs_model_residual(sigma, np.eye(2)[None] / 2, [[[1.0], [0.0]]])
    assert res > 0.1


def test_lhs_residual_rejects_malformed():
    rng = np.random.default_rng(9)
    sigma = _random_assemblage(2, 1, 2, rng)
    half = np.eye(2)[None] / 2
    with pytest.raises(ValueError, match="total trace 1"):
        lhs_model_residual(sigma, 0.7 * half, [[[0.5], [0.5]]])  # weights != 1
    with pytest.raises(ValueError, match="total trace 1"):
        lhs_model_residual(sigma, np.eye(2)[None], [[[0.5], [0.5]]])  # trace 2
    with pytest.raises(ValueError, match="not distributions"):
        lhs_model_residual(sigma, half, [[[0.5], [0.2]]])  # not normalized
    with pytest.raises(ValueError, match="not distributions"):
        lhs_model_residual(sigma, half, [[[1.5], [-0.5]]])  # negative entry
    with pytest.raises(ValueError, match="hidden state 0 is not Hermitian"):
        lhs_model_residual(sigma, np.nan * half, [[[0.5], [0.5]]])  # NaN weight
    with pytest.raises(ValueError, match="not distributions"):
        lhs_model_residual(sigma, half, [[[np.nan], [0.5]]])  # NaN response
    with pytest.raises(ValueError, match=r"response table 0 has shape \(2, 2\), expected \(2, 1\)"):
        lhs_model_residual(sigma, half, [np.full((2, 2), 0.5)])  # one column per hidden state
    with pytest.raises(ValueError, match=r"has shape \(3, 1\)"):
        lhs_model_residual(sigma, half, [np.full((3, 1), 1 / 3)])  # outcome count
    with pytest.raises(ValueError, match="2 response tables for 1 settings"):
        lhs_model_residual(sigma, half, [[[0.5], [0.5]]] * 2)
    with pytest.raises(ValueError, match=r"ensemble has shape \(2, 2\)"):
        lhs_model_residual(sigma, np.eye(2) / 2, [[[0.5], [0.5]]])  # no hidden-state axis
    with pytest.raises(ValueError, match=r"ensemble has shape \(1, 3, 3\)"):
        lhs_model_residual(sigma, np.eye(3)[None] / 3, [[[0.5], [0.5]]])  # dimension
    with pytest.raises(ValueError, match="nonempty"):
        lhs_model_residual(sigma, np.zeros((0, 2, 2)), [np.zeros((2, 0))])


def test_lhs_residual_names_the_hidden_state():
    sigma = _random_assemblage(2, 1, 2, np.random.default_rng(9))
    ensemble = [np.diag([0.3, 0.3]), np.diag([0.5, -0.1])]  # total trace 1
    with pytest.raises(ValueError, match=r"hidden state 1 is not PSD within 1e-10 \(eigenvalue"):
        lhs_model_residual(sigma, ensemble, [np.full((2, 2), 0.5)])


@settings(max_examples=60, deadline=None)
@given(d=st.integers(1, 4), counts=st.lists(st.integers(1, 4), min_size=1, max_size=3),
       n=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
def test_lhs_residual_matches_loop_oracle(d, counts, n, seed):
    # max over (a, x) of ||sigma_{a|x} - sum_lam p(a|x,lam) H_lam||_F, one term at a time
    rng = np.random.default_rng(seed)
    sigma = steer(random_density(2 * d, rng, dims=(2, d)),
                  [random_povm(2, k, rng) for k in counts], measured_side=0)
    states = [random_density(d, rng).mat for _ in range(n)]
    ensemble = rng.dirichlet(np.ones(n))[:, None, None] * np.array(states)
    responses = [rng.dirichlet(np.ones(k), size=n).T for k in counts]

    def predicted(a, x):
        return sum(responses[x][a, lam] * ensemble[lam] for lam in range(n))

    oracle = max(frobenius(sigma.entry(a, x) - predicted(a, x))
                 for x, k in enumerate(counts) for a in range(k))
    assert abs(lhs_model_residual(sigma, ensemble, responses) - oracle) <= 1e-14
    # the assemblage the model prepares has no deviation
    exact = Assemblage(tuple(np.array([predicted(a, x) for a in range(k)])
                             for x, k in enumerate(counts)), range(len(counts)))
    assert lhs_model_residual(exact, ensemble, responses) <= 1e-14


def _document_with_first_entry(kind, part, value):
    """A valid document of ``kind`` whose first matrix entry has ``value`` as
    its real (``part`` 0) or imaginary (``part`` 1) part, and its reader."""
    rng = np.random.default_rng(11)
    if kind == "povm":
        doc, read = random_povm(2, 2, rng).to_document(), Povm.from_document
        entries = doc["effects"][0]["entries"]
    elif kind == "density":
        doc, read = random_density(2, rng).to_document(), DensityOperator.from_document
        entries = doc["entries"]
    else:
        doc, read = _random_assemblage(2, 2, 2, rng).to_document(), Assemblage.from_document
        entries = doc["entries"][0]["matrix"]
    entries[0][part] = value
    return doc, read


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("part", [0, 1])
@pytest.mark.parametrize("kind", ["povm", "density", "assemblage"])
def test_documents_refuse_non_finite_entries(kind, part, value):
    doc, read = _document_with_first_entry(kind, part, value)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # refused before any arithmetic warns
        with pytest.raises(ValueError, match="matrix entry 0 is not finite"):
            read(doc)


def test_assemblage_document_roundtrip():
    rng = np.random.default_rng(10)
    sigma = _random_assemblage(3, 2, 2, rng)
    back = Assemblage.from_document(sigma.to_document())
    assert back.dim == sigma.dim and back.settings == sigma.settings
    for x in range(2):
        for a in range(2):
            assert frobenius(back.entry(a, x) - sigma.entry(a, x)) < 1e-14


def test_assemblage_document_entry_order_insensitive():
    rng = np.random.default_rng(11)
    sigma = _random_assemblage(2, 2, 3, rng)
    doc = sigma.to_document()
    doc["entries"] = doc["entries"][::-1]
    back = Assemblage.from_document(doc)
    for x in range(2):
        for a in range(3):
            assert frobenius(back.entry(a, x) - sigma.entry(a, x)) < 1e-14



def test_assemblage_document_refuses_renumbered_outcomes():
    # outcomes {0, 7} and a repeated a=0 were both loaded as outcomes 0, 1
    doc = _random_assemblage(2, 2, 2, np.random.default_rng(12)).to_document()
    for a_values in ((0, 7), (0, 0)):
        for entry, a in zip(doc["entries"][2:], a_values):  # the entries of setting 1
            entry["a"] = a
        with pytest.raises(ValueError, match=r"setting 1 must carry a = 0\.\.n-1 once each"):
            Assemblage.from_document(doc)


def test_assemblage_document_names_an_unknown_setting():
    doc = _random_assemblage(2, 2, 2, np.random.default_rng(13)).to_document()
    doc["entries"][3]["x"] = 5
    with pytest.raises(ValueError, match=r"setting 5, which is not in settings \[0, 1\]"):
        Assemblage.from_document(doc)


def test_assemblage_document_names_a_repeated_setting():
    doc = _random_assemblage(2, 2, 2, np.random.default_rng(14)).to_document()
    doc["settings"] = [0, 1, 1]
    with pytest.raises(ValueError, match="setting 1 appears twice in settings"):
        Assemblage.from_document(doc)


@pytest.mark.parametrize("dim", [2.7, "2", True])
def test_assemblage_document_refuses_a_dimension_that_is_not_an_integer(dim):
    # int() read 2.7 and "2" as 2, and true as 1
    doc = _random_assemblage(2, 2, 2, np.random.default_rng(16)).to_document()
    doc["dim"] = dim
    with pytest.raises(ValueError, match=f"dim must be an integer, got {dim!r}"):
        Assemblage.from_document(doc)


@pytest.mark.parametrize("a", [0.9, "0", False])
def test_assemblage_document_refuses_an_outcome_that_is_not_an_integer(a):
    # int() read 0.9 and "0" as outcome 0, and false as 0
    doc = _random_assemblage(2, 2, 2, np.random.default_rng(17)).to_document()
    doc["entries"][0]["a"] = a
    with pytest.raises(ValueError, match=f"entry a must be an integer, got {a!r}"):
        Assemblage.from_document(doc)


def test_assemblage_document_refuses_a_missing_outcome_number():
    doc = _random_assemblage(2, 2, 2, np.random.default_rng(15)).to_document()
    doc["entries"][1]["a"] = None
    with pytest.raises(ValueError, match="malformed assemblage document"):
        Assemblage.from_document(doc)


def test_assemblage_refuses_blocks_of_different_sides():
    with pytest.raises(ValueError, match=r"setting 1 has shape \(2, 3, 3\), expected \(n, 2, 2\)"):
        Assemblage((np.stack([np.eye(2) / 4] * 2), np.stack([np.eye(3) / 6] * 2)), (0, 1))

@settings(max_examples=60, deadline=None)
@given(d=st.integers(1, 4), outcomes=st.lists(st.integers(1, 4), min_size=1, max_size=3),
       eta=st.floats(1e-3, 1.0), side=st.sampled_from([0, 1]),
       seed=st.integers(0, 2**32 - 1))
def test_filter_undoes_loss_on_random_assemblages(d, outcomes, eta, side, seed):
    # Lemma 1: filter o loss = id, on assemblages of random states measured
    # on either side by random POVMs with differing outcome counts
    rng = np.random.default_rng(seed)
    rho = random_density(d * d, rng, dims=(d, d))
    sigma = steer(rho, [random_povm(d, n, rng) for n in outcomes], measured_side=side)
    lossy_sigma = apply_loss_to_assemblage(sigma, eta)
    back = filter_loss(lossy_sigma, eta)
    assert back.outcomes_per_setting == sigma.outcomes_per_setting == tuple(outcomes)
    for x, n in enumerate(outcomes):
        for a in range(n):
            assert frobenius(back.entry(a, x) - sigma.entry(a, x)) < 1e-12
            lossy_entry = lossy_sigma.entry(a, x)
            assert np.array_equal(lossy_entry[:d, d], np.zeros(d))
            assert abs(lossy_entry[d, d] - (1 - eta) * np.trace(sigma.entry(a, x))) < 1e-15


def test_filter_names_the_coherent_entry():
    rng = np.random.default_rng(12)
    lossy_sigma = apply_loss_to_assemblage(_random_assemblage(2, 2, 2, rng), 0.5)
    blocks = [np.array(row) for row in lossy_sigma.blocks]
    # opposite coherences on the two outcomes of setting 1 keep the sums equal
    for a, sign in ((0, 1.0), (1, -1.0)):
        blocks[1][a, 0, 2] += sign * 1e-6
        blocks[1][a, 2, 0] += sign * 1e-6
    coherent = Assemblage(tuple(blocks), lossy_sigma.settings)
    with pytest.raises(ValueError, match=r"entry \(a=0, x=1\) has signal-vacuum coherence"):
        filter_loss(coherent, 0.5)


def test_check_entries_names_the_offending_assemblage():
    # a (trials, entries, d, d) stack: each error names the entry and the trial
    rng = np.random.default_rng(13)
    counts = [2, 2]
    stack = np.array([np.concatenate(_random_assemblage(2, 2, 2, rng).blocks)
                      for _ in range(3)])
    assert np.array_equal(check_entries(stack, counts), stack)
    bad = stack.copy()
    bad[2, 3, 0, 1] += 1e-6
    with pytest.raises(ValueError,
                       match=r"entry 'a=1, x=1' in stack entry \(2,\) is not Hermitian"):
        check_entries(bad, counts)
    bad = stack.copy()
    bad[1, 2] += np.eye(2) * 1e-3
    with pytest.raises(ValueError, match=r"assemblage in stack entry \(1,\) signals: outcome "
                                         "sums of settings 0 and 1 differ"):
        check_entries(bad, counts)
    bad = stack * 1.01
    with pytest.raises(ValueError,
                       match=r"assemblage in stack entry \(0,\) does not have unit trace"):
        check_entries(bad, counts)


def test_stack_helpers_check_what_they_return():
    # steer_entries, lossy_entries and filter_entries make the checks of the
    # Assemblage that steer, apply_loss_to_assemblage and filter_loss build
    counts = [2, 2]
    basis = np.array([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])] * 2, dtype=complex)
    not_a_state = np.diag([1.5, -0.5, 0.0, 0.0]).reshape(2, 2, 2, 2)
    with pytest.raises(ValueError, match="entry 'a=0, x=0' is not PSD"):
        steer_entries(basis, not_a_state, 0, counts)
    with pytest.raises(ValueError, match="entry 'a=1, x=0' is not PSD"):
        lossy_entries(np.array([np.diag([1.0, 0.0]), np.diag([0.0, -0.5])] * 2), 0.5, counts)
    # lossy form and unit trace after filtering, but setting 1 sums to another state
    lossy = lossy_entries(np.concatenate([basis[:2] / 2] * 2), 0.5, counts).copy()
    lossy[2, :2, :2], lossy[3, :2, :2] = 0.25, 0.0
    with pytest.raises(ValueError, match="signals: outcome sums of settings 0 and 1 differ"):
        filter_entries(lossy, 0.5, counts)
