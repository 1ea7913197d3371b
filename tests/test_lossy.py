import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from steerlab.linalg import frobenius, is_psd
from steerlab.lossy import (
    LossyDecomposition,
    NoiseParams,
    check_vacuum,
    noisify_povm,
    pull_back,
    reduce_through_loss_dual,
)
from steerlab.objects import NO_CLICK, Povm, lossy_noisy_channel, mub_pair

from corpus import random_povm
from kraus_oracle import KrausChannel


def embed_with_vacuum(m: Povm) -> Povm:
    """Embed a POVM into the space with one extra vacuum level.

    Effects are padded with a zero vacuum row/column and a dedicated
    no-click effect |ø><ø| is appended, so the vacuum response of every
    original outcome vanishes.
    """
    if m.has_no_click:
        raise ValueError("input POVM already has a no-click outcome")
    d = m.dim
    effects = np.zeros((m.n_outcomes + 1, d + 1, d + 1), dtype=complex)
    effects[:-1, :d, :d] = m.effects
    effects[-1, d, d] = 1.0
    return Povm(effects, m.labels + (NO_CLICK,))


def coarse_grain(m: Povm, groups: dict) -> Povm:
    """Merge outcomes: ``groups`` maps each new label to the old labels it absorbs."""
    covered = [label for labels in groups.values() for label in labels]
    if len(set(covered)) != len(covered) or set(covered) != set(m.labels):
        raise ValueError("groups must partition the outcome labels")
    effects = [m.effects[[m.labels.index(label) for label in labels]].sum(axis=0)
               for labels in groups.values()]
    return Povm(effects, tuple(groups))


def _z_basis():
    return Povm([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])


def test_noise_params_validation():
    with pytest.raises(ValueError):
        NoiseParams(d=2, eta=1.5, p=0.5)
    with pytest.raises(ValueError):
        NoiseParams(d=2, eta=0.5, p=-0.1)
    with pytest.raises(ValueError):
        NoiseParams(d=0, eta=0.5, p=0.5)


def test_noisify_perfect_params():
    povm = _z_basis()
    out = noisify_povm(povm, NoiseParams(d=2, eta=1.0, p=1.0))
    assert out.labels == (0, 1, NO_CLICK)
    assert frobenius(out.effect(0) - povm.effect(0)) < 1e-14
    assert frobenius(out.effect(NO_CLICK)) < 1e-14


def test_noisify_fully_depolarized():
    out = noisify_povm(_z_basis(), NoiseParams(d=2, eta=1.0, p=0.0))
    assert frobenius(out.effect(0) - np.eye(2) / 2) < 1e-14
    assert frobenius(out.effect(1) - np.eye(2) / 2) < 1e-14
    assert frobenius(out.effect(NO_CLICK)) < 1e-14


def test_noisify_direct_arithmetic():
    out = noisify_povm(_z_basis(), NoiseParams(d=2, eta=0.5, p=0.5))
    assert frobenius(out.effect(0) - (0.25 * np.diag([1.0, 0.0]) + 0.125 * np.eye(2))) < 1e-14
    assert frobenius(out.effect(1) - (0.25 * np.diag([0.0, 1.0]) + 0.125 * np.eye(2))) < 1e-14
    assert frobenius(out.effect(NO_CLICK) - 0.5 * np.eye(2)) < 1e-14


def test_noisify_always_valid_povm():
    rng = np.random.default_rng(0)
    for d in (2, 4, 6):
        for n_out in (2, 5, 8):
            povm = random_povm(d, n_out, rng)
            params = NoiseParams(d=d, eta=float(rng.random()), p=float(rng.random()))
            out = noisify_povm(povm, params)
            total = sum(mat for mat in out.effects)
            assert frobenius(total - np.eye(d)) < 1e-12
            assert all(is_psd(mat, 1e-10) for mat in out.effects)


def test_noisify_rejects_no_click_collision():
    out = noisify_povm(_z_basis(), NoiseParams(d=2, eta=0.9, p=0.9))
    with pytest.raises(ValueError):
        noisify_povm(out, NoiseParams(d=2, eta=0.9, p=0.9))


def test_noisify_commutes_with_coarse_graining():
    rng = np.random.default_rng(1)
    povm = random_povm(3, 4, rng)
    params = NoiseParams(d=3, eta=0.7, p=0.3)
    groups = {"u": (0, 2), "v": (1, 3)}
    merged_first = noisify_povm(coarse_grain(povm, groups), params)
    noisy_first = noisify_povm(povm, params)
    merged_after = coarse_grain(
        noisy_first, {"u": (0, 2), "v": (1, 3), NO_CLICK: (NO_CLICK,)}
    )
    for label in ("u", "v", NO_CLICK):
        assert frobenius(merged_first.effect(label) - merged_after.effect(label)) < 1e-12


# ---------------------------------------------------------------------------
# pull-back through the channel dual
# ---------------------------------------------------------------------------


def test_reduce_projector_vacuum_povm():
    # M' = {signal projector, vacuum projector}: q = (0, 1) and the first
    # pulled-back effect is eta * I, independent of p
    d = 3
    signal = np.diag([1.0, 1.0, 1.0, 0.0])
    vacuum = np.diag([0.0, 0.0, 0.0, 1.0])
    m_prime = Povm([signal, vacuum])
    for p in (0.0, 0.4, 1.0):
        params = NoiseParams(d=d, eta=0.6, p=p)
        decomp = reduce_through_loss_dual(m_prime, params)
        assert np.allclose(decomp.vacuum_dist, [0.0, 1.0])
        assert frobenius(decomp.reconstructed.effect(0) - 0.6 * np.eye(d)) < 1e-12
        assert frobenius(decomp.reconstructed.effect(1) - 0.4 * np.eye(d)) < 1e-12
        assert decomp.identity_residual < 1e-12


def test_reduce_embedded_povm_reproduces_noisified():
    # vanishing vacuum response on the original outcomes: images equal the
    # noisified originals, and the dedicated no-click outcome scales by 1-eta
    rng = np.random.default_rng(2)
    povm = random_povm(3, 4, rng)
    embedded = embed_with_vacuum(povm)
    params = NoiseParams(d=3, eta=0.45, p=0.85)
    decomp = reduce_through_loss_dual(embedded, params)
    noisy = noisify_povm(povm, params)
    assert np.allclose(decomp.vacuum_dist, [0, 0, 0, 0, 1])
    for label in povm.labels:
        assert frobenius(decomp.reconstructed.effect(label) - noisy.effect(label)) < 1e-12
    # the dedicated no-click outcome pulls back to (1-eta) * I, which is the
    # no-click effect of the noisified original (verified against the
    # brute-force Kraus dual in test_reduce_matches_brute_force_kraus_dual)
    assert (
        frobenius(decomp.reconstructed.effect(NO_CLICK) - (1 - params.eta) * np.eye(3))
        < 1e-12
    )
    assert (
        frobenius(decomp.reconstructed.effect(NO_CLICK) - noisy.effect(NO_CLICK)) < 1e-12
    )


def test_reduce_matches_brute_force_kraus_dual():
    # oracle: explicit Kraus-operator sums for the whole channel
    rng = np.random.default_rng(3)
    for _ in range(20):
        d = int(rng.integers(2, 4))
        params = NoiseParams(d=d, eta=float(rng.random()), p=float(rng.random()))
        m_prime = random_povm(d + 1, int(rng.integers(2, 5)), rng)
        chain = KrausChannel(lossy_noisy_channel(d, params.eta, params.p).kraus_operators())
        decomp = reduce_through_loss_dual(m_prime, params)
        for label, mat in zip(m_prime.labels, m_prime.effects):
            oracle = chain.dual(mat)
            assert frobenius(decomp.reconstructed.effect(label) - oracle) < 1e-12


def test_decomposition_identity_random_grid():
    rng = np.random.default_rng(4)
    grid = (0.15, 0.5, 0.85)
    for d in (2, 3, 4):
        for _ in range(20):
            m_prime = random_povm(d + 1, int(rng.integers(2, d + 3)), rng)
            for eta in grid:
                for p in grid:
                    decomp = reduce_through_loss_dual(
                        m_prime, NoiseParams(d=d, eta=eta, p=p)
                    )
                    assert decomp.identity_residual < 1e-12


def test_reduce_rejects_wrong_dim():
    rng = np.random.default_rng(5)
    with pytest.raises(ValueError):
        reduce_through_loss_dual(random_povm(3, 2, rng), NoiseParams(d=3, eta=0.5, p=0.5))


def test_vacuum_dist_is_distribution():
    rng = np.random.default_rng(6)
    m_prime = random_povm(4, 5, rng)
    decomp = reduce_through_loss_dual(m_prime, NoiseParams(d=3, eta=0.3, p=0.3))
    assert np.all(decomp.vacuum_dist >= -1e-12)
    assert abs(decomp.vacuum_dist.sum() - 1.0) < 1e-12


def test_lossy_decomposition_rejects_bad_dist():
    z = _z_basis()
    with pytest.raises(ValueError):
        LossyDecomposition(z, np.array([0.7, 0.7]), z, 0.0)
    with pytest.raises(ValueError):
        LossyDecomposition(z, np.array([np.nan, np.nan]), z, 0.0)


# ---------------------------------------------------------------------------
# vacuum embedding
# ---------------------------------------------------------------------------


def test_embed_with_vacuum_shapes():
    embedded = embed_with_vacuum(_z_basis())
    assert embedded.dim == 3
    assert embedded.labels == (0, 1, NO_CLICK)
    assert frobenius(embedded.effect(NO_CLICK) - np.diag([0.0, 0.0, 1.0])) < 1e-14


def test_embed_with_vacuum_validates():
    mubs = mub_pair(3)
    out = embed_with_vacuum(mubs[0])
    total = sum(mat for mat in out.effects)
    assert frobenius(total - np.eye(4)) < 1e-12
    with pytest.raises(ValueError):
        embed_with_vacuum(out)  # already has a no-click outcome


def test_coarse_grain_requires_partition():
    povm = _z_basis()
    with pytest.raises(ValueError):
        coarse_grain(povm, {"u": (0,)})
    with pytest.raises(ValueError):
        coarse_grain(povm, {"u": (0, 1), "v": (1,)})
    # labels compare as themselves, not as their string forms
    mixed = Povm([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])], ("1", 2))
    with pytest.raises(ValueError):
        coarse_grain(mixed, {"a": [1, 2]})
    assert coarse_grain(mixed, {"a": ["1", 2]}).labels == ("a",)


@settings(max_examples=80, deadline=None)
@given(d=st.integers(1, 5), n=st.integers(1, 6), eta=st.floats(0.0, 1.0),
       p=st.floats(0.0, 1.0), seed=st.integers(0, 2**32 - 1))
@example(d=1, n=1, eta=0.0, p=0.0, seed=42386)  # an ill-conditioned Gram matrix
def test_decomposition_identity_on_random_povms(d, n, eta, p, seed):
    # Appendix C: the Kraus-sum image of each effect equals the noisified
    # reduced effect plus its vacuum response times the no-click effect
    rng = np.random.default_rng(seed)
    m_prime = random_povm(d + 1, n, rng)
    params = NoiseParams(d=d, eta=eta, p=p)
    decomp = reduce_through_loss_dual(m_prime, params)
    assert decomp.identity_residual < 1e-12
    chain = KrausChannel(lossy_noisy_channel(d, eta, p).kraus_operators())
    for a, mat in enumerate(m_prime.effects):
        reduced = mat[:d, :d]
        noisy = eta * p * reduced + eta * (1 - p) * np.trace(reduced).real * np.eye(d) / d
        expected = noisy + mat[d, d].real * (1 - eta) * np.eye(d)
        assert frobenius(chain.dual(mat) - expected) < 1e-12
        assert np.array_equal(decomp.reduced_povm.effects[a], reduced)
    assert np.array_equal(decomp.vacuum_dist, m_prime.effects[:, d, d].real)


def test_pull_back_maps_stacks_like_single_povms():
    rng = np.random.default_rng(6)
    params = NoiseParams(d=2, eta=0.3, p=0.6)
    effects = np.array([[random_povm(3, 3, rng).effects for _ in range(2)] for _ in range(2)])
    stacked = pull_back(effects, params, range(3))
    for i in np.ndindex(2, 2):
        single = pull_back(effects[i], params, range(3))
        for got, want in zip(stacked, single):
            assert np.array_equal(got[i], want)


def test_check_vacuum_names_the_stack():
    q = np.array([[0.5, 0.5], [0.2, 0.8], [0.7, 0.4]])
    with pytest.raises(ValueError,
                       match=r"vacuum response in stack entry \(2,\) is not a probability"):
        check_vacuum(q)
    with pytest.raises(ValueError, match=r"^vacuum response is not a probability"):
        check_vacuum(q[2])
    assert np.array_equal(check_vacuum(q[:2].tolist()), q[:2])
