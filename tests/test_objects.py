import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from steerlab.assemblage import steer
from steerlab.certifier import discretize_parent, exact_certificate
from steerlab.covariant import ResponseFunctionModel, mc_effect
from steerlab.linalg import frobenius, is_psd, matrix_to_entries, tensor
from steerlab.lossy import NoiseParams, reduce_through_loss_dual
from steerlab.objects import (
    NO_CLICK,
    Channel,
    Composition,
    DensityOperator,
    Loss,
    Povm,
    PureState,
    WhiteNoise,
    apply_channel,
    density_stack,
    lossy_noisy_channel,
    mub_pair,
    one_way_state,
    phi_plus,
)
from steerlab.rand import random_density, random_povm, random_unitary

from kraus_oracle import KrausChannel, choi_matrix, kraus_closure_residual


def test_phi_plus_d2():
    psi = phi_plus(2)
    expected = np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2)
    assert np.allclose(psi.vec, expected)
    assert psi.dims == (2, 2)


def test_phi_plus_reduced_maximally_mixed():
    for d in (2, 3, 5):
        rho = phi_plus(d).to_density()
        assert frobenius(rho.reduced(0) - np.eye(d) / d) < 1e-12
        assert frobenius(rho.reduced(1) - np.eye(d) / d) < 1e-12


def test_phi_plus_transpose_trick():
    # <phi+| U (x) conj(U) |phi+> = 1 for any unitary
    rng = np.random.default_rng(0)
    for d in (2, 3, 4):
        psi = phi_plus(d)
        u = random_unitary(d, rng)
        rotated = tensor(u, u.conj()) @ psi.vec
        assert abs(np.vdot(psi.vec, rotated) - 1.0) < 1e-12


def test_phi_plus_rejects_small_d():
    with pytest.raises(ValueError):
        phi_plus(1)


def test_pure_state_validation():
    with pytest.raises(ValueError):
        PureState(np.array([1.0, 1.0]), (2,))
    with pytest.raises(ValueError):
        PureState(np.array([1.0, 0.0]), (3,))


def test_density_operator_validation():
    with pytest.raises(ValueError):
        DensityOperator(np.diag([0.5, 0.6]), (2,))
    with pytest.raises(ValueError):
        DensityOperator(np.diag([1.5, -0.5]), (2,))


#: Subsystem dimensions no state may carry: negative, none at all, a zero.
_BAD_DIMS = [(-1, -2), (), (0, 3)]


@pytest.mark.parametrize("dims", _BAD_DIMS)
def test_states_refuse_bad_subsystem_dims(dims):
    side = max(int(np.prod(dims)), 1)
    with pytest.raises(ValueError, match="subsystem dimension"):
        PureState(np.eye(side)[0], dims)
    with pytest.raises(ValueError, match="subsystem dimension"):
        DensityOperator(np.eye(side) / side, dims)


@pytest.mark.parametrize("dims", [(2.9,), (True, 2), ("2",), (np.float64(2.0),)],
                         ids=["float", "bool", "str", "numpy-float"])
def test_states_refuse_subsystem_dims_that_are_not_integers(dims):
    # int() would read each of these as a valid dimension
    message = re.escape(f"subsystem dimension must be an integer, got {dims[0]!r}")
    with pytest.raises(ValueError, match=message):
        PureState(np.eye(2)[0], dims)
    with pytest.raises(ValueError, match=message):
        DensityOperator(np.eye(2) / 2, dims)


def test_states_take_numpy_integer_dims():
    dims = (np.int64(2), np.uint8(3))
    for state in (PureState(np.eye(6)[0], dims), DensityOperator(np.eye(6) / 6, dims)):
        assert state.dims == (2, 3) and all(type(d) is int for d in state.dims)


@pytest.mark.parametrize("dims", _BAD_DIMS)
def test_density_document_refuses_bad_subsystem_dims(dims):
    # (-1, -2) multiply to a valid side of 2 and () to a side of 1
    side = max(int(np.prod(dims)), 1)
    doc = {"dims": list(dims), "entries": matrix_to_entries(np.eye(side) / side)}
    message = (f"density-operator document dims entry must be >= 1, got {dims[0]}" if dims
               else "subsystem dimension")
    with pytest.raises(ValueError, match=message):
        DensityOperator.from_document(doc)


def test_density_operator_immutable():
    rho = phi_plus(2).to_density()
    with pytest.raises(ValueError):
        rho.mat[0, 0] = 9.0


def test_povm_validation():
    eye = np.eye(2)
    with pytest.raises(ValueError):
        Povm([eye, eye])  # sums to 2I
    with pytest.raises(ValueError):
        Povm([np.diag([1.0, -0.1]), np.diag([0.0, 1.1])])
    povm = Povm([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
    assert povm.labels == (0, 1) and not povm.has_no_click
    assert povm.effects.shape == (2, 2, 2) and povm.dim == 2
    with pytest.raises(ValueError):
        povm.effects[0, 0, 0] = 0.5  # read-only
    with pytest.raises(KeyError):
        povm.effect("missing")
    with pytest.raises(ValueError):
        Povm([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])], (0, 0))  # duplicate label


def test_povm_rejects_stacked_povms():
    # a (k, n, d, d) array of k POVMs is not one POVM, though psd_stack accepts it
    m1, m2 = mub_pair(2)
    for effects in (np.stack([m1.effects, m2.effects]), np.eye(2), np.ones(3)):
        with pytest.raises(ValueError, match="effects must form one"):
            Povm(effects)
    assert Povm(list(m1.effects)).dim == 2


# ---------------------------------------------------------------------------
# channels
# ---------------------------------------------------------------------------


def test_white_noise_limits():
    rng = np.random.default_rng(1)
    rho = random_density(3, rng)
    ident = WhiteNoise(1.0, 3).apply_to_matrix(rho.mat)
    assert frobenius(ident - rho.mat) < 1e-14
    mixed = WhiteNoise(0.0, 3).apply_to_matrix(rho.mat)
    assert frobenius(mixed - np.eye(3) / 3) < 1e-14


def test_loss_on_pure_state():
    rho = np.diag([1.0, 0.0]).astype(complex)
    out = Loss(0.4, 2).apply_to_matrix(rho)
    assert np.allclose(out, np.diag([0.4, 0.0, 0.6]))


def test_channel_kraus_closure_and_choi_psd():
    for val in (0.0, 0.25, 0.5, 0.75, 1.0):
        for chan in (WhiteNoise(val, 3), Loss(val, 3)):
            assert kraus_closure_residual(chan) < 1e-12
            assert is_psd(choi_matrix(chan), 1e-9)


def test_closed_forms_match_kraus():
    rng = np.random.default_rng(2)
    rho = random_density(3, rng)
    for chan in (WhiteNoise(0.3, 3), Loss(0.6, 3)):
        generic = KrausChannel(chan.kraus_operators())
        assert frobenius(chan.apply_to_matrix(rho.mat) - generic.apply_to_matrix(rho.mat)) < 1e-12
        effect = random_povm(chan.out_dim, 3, rng).effects[0]
        assert frobenius(chan.dual(effect) - generic.dual(effect)) < 1e-12


#: The closed-form channels, built from a dimension and a noise pair.
_CLOSED_FORMS = {
    "white noise": lambda d, eta, p: WhiteNoise(p, d),
    "loss": lambda d, eta, p: Loss(eta, d),
    "noise then loss": lossy_noisy_channel,
}


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(sorted(_CLOSED_FORMS)), d=st.integers(1, 4),
       eta=st.floats(0.0, 1.0), p=st.floats(0.0, 1.0),
       lead=st.lists(st.integers(1, 3), max_size=2), seed=st.integers(0, 2**32 - 1))
def test_closed_forms_match_kraus_on_complex_stacks(kind, d, eta, p, lead, seed):
    # apply_channel maps non-Hermitian blocks, whose traces are complex
    chan = _CLOSED_FORMS[kind](d, eta, p)
    generic = KrausChannel(chan.kraus_operators())
    rng = np.random.default_rng(seed)
    for side, closed, kraus in ((chan.in_dim, chan.apply_to_matrix, generic.apply_to_matrix),
                                (chan.out_dim, chan.dual, generic.dual)):
        shape = (*lead, side, side)
        m = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        got, want = closed(m), kraus(m)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) < 1e-12


def test_white_noise_keeps_its_bits():
    # white noise is the noisification at eta = 1, bit for bit p*M + (1-p)*tr(M)*I/d
    rng = np.random.default_rng(21)
    m = rng.standard_normal((2, 5, 3, 3)) + 1j * rng.standard_normal((2, 5, 3, 3))
    traces = np.trace(m, axis1=-2, axis2=-1)[..., None, None]
    for p in (0.0, 0.3, 0.7, 1.0):
        want = p * m + (1 - p) * traces * np.eye(3) / 3
        assert WhiteNoise(p, 3).apply_to_matrix(m).tobytes() == want.tobytes()


def test_dual_unitality():
    for chan in (WhiteNoise(0.3, 3), Loss(0.7, 2), lossy_noisy_channel(3, 0.4, 0.6)):
        out = chan.dual(np.eye(chan.out_dim))
        assert frobenius(out - np.eye(chan.in_dim)) < 1e-12


def test_dual_of_loss_on_vacuum_projector():
    # Kraus computation gives (1-eta) * I_d
    for eta in (0.1, 0.5, 0.9):
        chan = Loss(eta, 3)
        vac = np.zeros((4, 4))
        vac[3, 3] = 1.0
        assert frobenius(chan.dual(vac) - (1 - eta) * np.eye(3)) < 1e-14


def test_duality_pairing():
    # tr[rho . dual(E)] = tr[apply(rho) . E] on random pairs
    rng = np.random.default_rng(3)
    chan = lossy_noisy_channel(3, 0.35, 0.65)
    for _ in range(100):
        rho = random_density(3, rng)
        effect = random_povm(4, 2, rng).effects[0]
        lhs = np.trace(rho.mat @ chan.dual(effect))
        rhs = np.trace(chan.apply_to_matrix(rho.mat) @ effect)
        assert abs(lhs - rhs) < 1e-12


def test_dual_maps_povm_to_povm():
    rng = np.random.default_rng(4)
    chan = lossy_noisy_channel(2, 0.55, 0.45)
    povm = random_povm(3, 4, rng)
    images = [chan.dual(mat) for mat in povm.effects]
    assert all(is_psd(img, 1e-10) for img in images)
    assert frobenius(sum(images) - np.eye(2)) < 1e-10


def test_composition_dims_and_order():
    chain = lossy_noisy_channel(3, 0.5, 0.5)
    assert chain.in_dim == 3 and chain.out_dim == 4
    with pytest.raises(ValueError):
        Composition([Loss(0.5, 3), WhiteNoise(0.5, 3)])  # 4 -> 3 mismatch


def test_apply_channel_updates_dims():
    rho = phi_plus(3).to_density()
    out = apply_channel(Loss(0.5, 3), rho, on_subsystem=1)
    assert out.dims == (3, 4)
    with pytest.raises(ValueError):
        apply_channel(Loss(0.5, 2), rho, on_subsystem=1)


class _KrausListOnly(Channel):
    """A channel that lists Kraus operators and maps nothing itself."""

    in_dim = out_dim = 2

    def kraus_operators(self):
        return [np.eye(2, dtype=complex)]


def test_channel_has_no_kraus_sum_fallback():
    chan = _KrausListOnly()
    for method in (chan.apply_to_matrix, chan.dual):
        with pytest.raises(NotImplementedError):
            method(np.eye(2))
    with pytest.raises(NotImplementedError):
        apply_channel(chan, random_density(2, np.random.default_rng(0)), 0)


def _random_kraus_channel(d: int, out_dim: int, rng) -> KrausChannel:
    # Kraus operators are the blocks of a random isometry
    n_ops = -(-d // out_dim) + 1
    a = rng.standard_normal((n_ops * out_dim, d)) + 1j * rng.standard_normal((n_ops * out_dim, d))
    q, _ = np.linalg.qr(a)
    return KrausChannel([q[i * out_dim:(i + 1) * out_dim] for i in range(n_ops)])


def _channel(kind: str, d: int, eta: float, p: float, out_dim: int, rng):
    return {
        "white-noise": lambda: WhiteNoise(p, d),
        "loss": lambda: Loss(eta, d),
        "lossy-noisy": lambda: lossy_noisy_channel(d, eta, p),
        "kraus": lambda: _random_kraus_channel(d, out_dim, rng),
    }[kind]()


@pytest.mark.parametrize("n_parties, on_subsystem", [(2, 0), (2, 1), (3, 1)])
@settings(max_examples=25, deadline=None)
@given(
    dims=st.lists(st.integers(1, 3), min_size=3, max_size=3),
    kind=st.sampled_from(["white-noise", "loss", "lossy-noisy", "kraus"]),
    eta=st.floats(0.0, 1.0),
    p=st.floats(0.0, 1.0),
    out_dim=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
)
def test_apply_channel_matches_kraus_sum(n_parties, on_subsystem, dims, kind, eta, p,
                                         out_dim, seed):
    dims = tuple(dims[:n_parties])
    d = dims[on_subsystem]
    rng = np.random.default_rng(seed)
    chan = _channel(kind, d, eta, p, out_dim, rng)
    rho = random_density(int(np.prod(dims)), rng, dims=dims)
    before = np.eye(int(np.prod(dims[:on_subsystem])))
    after = np.eye(int(np.prod(dims[on_subsystem + 1:])))
    oracle = 0
    for k in chan.kraus_operators():
        k_full = np.kron(np.kron(before, k), after)
        oracle = oracle + k_full @ rho.mat @ k_full.conj().T
    out = apply_channel(chan, rho, on_subsystem)
    assert out.dims == dims[:on_subsystem] + (chan.out_dim,) + dims[on_subsystem + 1:]
    assert np.max(np.abs(out.mat - oracle)) < 1e-12


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(["white-noise", "loss", "lossy-noisy", "kraus"]),
    d=st.integers(1, 4),
    lead=st.lists(st.integers(1, 3), min_size=1, max_size=2),
    eta=st.floats(0.0, 1.0),
    p=st.floats(0.0, 1.0),
    out_dim=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
)
def test_channels_map_stacks(kind, d, lead, eta, p, out_dim, seed):
    rng = np.random.default_rng(seed)
    chan = _channel(kind, d, eta, p, out_dim, rng)
    kraus = chan.kraus_operators()

    def stack(n):
        shape = tuple(lead) + (n, n)
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    rhos, effects = stack(chan.in_dim), stack(chan.out_dim)
    images, pulled = chan.apply_to_matrix(rhos), chan.dual(effects)
    flat_rhos = rhos.reshape(-1, chan.in_dim, chan.in_dim)
    flat_effects = effects.reshape(-1, chan.out_dim, chan.out_dim)
    flat_images = images.reshape(flat_effects.shape)
    flat_pulled = pulled.reshape(flat_rhos.shape)
    # the stack maps exactly as its matrices one at a time
    assert np.array_equal(flat_images, np.stack([chan.apply_to_matrix(m) for m in flat_rhos]))
    assert np.array_equal(flat_pulled, np.stack([chan.dual(e) for e in flat_effects]))
    # Kraus-sum oracle
    for m, image in zip(flat_rhos, flat_images):
        assert np.max(np.abs(image - sum(k @ m @ k.conj().T for k in kraus))) < 1e-12
    for e, image in zip(flat_effects, flat_pulled):
        assert np.max(np.abs(image - sum(k.conj().T @ e @ k for k in kraus))) < 1e-12
    # pairing tr[rho dual(E)] = tr[apply(rho) E] for every rho and E of the stacks
    lhs = np.einsum("aij,bji->ab", flat_rhos, flat_pulled)
    rhs = np.einsum("aij,bji->ab", flat_images, flat_effects)
    assert np.max(np.abs(lhs - rhs)) < 1e-12
    # Choi matrix against its defining sum over matrix units
    units = np.eye(d * d).reshape(d, d, d, d)
    choi = sum(tensor(units[i, j], chan.apply_to_matrix(units[i, j]))
               for i in range(d) for j in range(d))
    assert np.max(np.abs(choi_matrix(chan) - choi)) < 1e-12


@pytest.mark.parametrize("kind", ["white-noise", "loss", "lossy-noisy", "kraus"])
def test_channel_operand_check(kind):
    chan = _channel(kind, 2, 0.4, 0.6, 3, np.random.default_rng(0))
    for method, n in ((chan.apply_to_matrix, chan.in_dim), (chan.dual, chan.out_dim)):
        for bad in (np.ones(()), np.ones(n), np.eye(n + 1), np.ones((2, n, n + 1)),
                    np.ones((2, n + 1, n))):
            with pytest.raises(ValueError):
                method(bad)


# ---------------------------------------------------------------------------
# the state family
# ---------------------------------------------------------------------------


def test_one_way_state_extremes():
    # full transmission, no noise = maximally entangled padded with a vacuum level
    rho = one_way_state(2, 1.0, 1.0)
    psi = np.zeros(6, dtype=complex)
    psi[0] = psi[4] = 1 / np.sqrt(2)  # |0,0> + |1,1> in (2,3) indexing
    assert frobenius(rho.mat - np.outer(psi, psi.conj())) < 1e-14
    # total loss = product with the vacuum
    rho0 = one_way_state(2, 0.0, 0.3)
    vac = np.zeros((3, 3))
    vac[2, 2] = 1.0
    assert frobenius(rho0.mat - tensor(np.eye(2) / 2, vac)) < 1e-14


def test_one_way_state_reduced_states():
    rho = one_way_state(3, 0.5, 0.5)
    assert frobenius(rho.reduced(0) - np.eye(3) / 3) < 1e-12
    expected_b = np.diag([0.5 / 3, 0.5 / 3, 0.5 / 3, 0.5])
    assert frobenius(rho.reduced(1) - expected_b) < 1e-12


def test_one_way_state_equals_channel_path():
    for d in (2, 3):
        for eta in (0.0, 0.3, 1.0):
            for p in (0.0, 0.7, 1.0):
                direct = one_way_state(d, eta, p)
                chained = apply_channel(
                    lossy_noisy_channel(d, eta, p), phi_plus(d).to_density(), 1
                )
                assert np.max(np.abs(direct.mat - chained.mat)) < 1e-12


def test_one_way_state_grid_validity():
    vals = (0.0, 0.25, 0.5, 0.75, 1.0)
    for d in (2, 3, 4, 5, 6):
        for eta in vals:
            for p in vals:
                rho = one_way_state(d, eta, p)  # constructor enforces invariants
                assert frobenius(rho.reduced(0) - np.eye(d) / d) < 1e-12


def test_one_way_state_rejects_bad_params():
    with pytest.raises(ValueError):
        one_way_state(3, 1.2, 0.5)
    with pytest.raises(ValueError):
        one_way_state(3, 0.5, -0.1)


# ---------------------------------------------------------------------------
# schmidt rank and mubs
# ---------------------------------------------------------------------------


def schmidt_rank(psi: PureState, tol: float = 1e-10) -> tuple[int, np.ndarray]:
    """Schmidt rank and descending Schmidt coefficients of a bipartite pure state.

    The rank counts singular values of the coefficient matrix above ``tol``.
    """
    if len(psi.dims) != 2:
        raise ValueError("schmidt_rank requires a bipartite state")
    da, db = psi.dims
    coeffs = np.linalg.svd(psi.vec.reshape(da, db), compute_uv=False)
    rank = int(np.sum(coeffs > tol))
    return rank, coeffs


def test_schmidt_rank_product_state():
    v = np.zeros(4, dtype=complex)
    v[0] = 1.0
    rank, coeffs = schmidt_rank(PureState(v, (2, 2)))
    assert rank == 1 and abs(coeffs[0] - 1.0) < 1e-12


def test_schmidt_rank_max_entangled():
    for d in (2, 4):
        rank, coeffs = schmidt_rank(phi_plus(d))
        assert rank == d
        assert np.allclose(coeffs, np.full(d, 1 / np.sqrt(d)))


def test_schmidt_rank_svd_oracle():
    v = np.zeros(4, dtype=complex)
    v[0], v[3] = 2 / np.sqrt(5), 1 / np.sqrt(5)
    rank, coeffs = schmidt_rank(PureState(v, (2, 2)))
    assert rank == 2
    assert np.allclose(coeffs, [2 / np.sqrt(5), 1 / np.sqrt(5)])
    # oracle: svd of the reshaped coefficient matrix
    oracle = np.linalg.svd(v.reshape(2, 2), compute_uv=False)
    assert np.allclose(coeffs, sorted(oracle, reverse=True))


def test_schmidt_rank_requires_bipartite():
    with pytest.raises(ValueError):
        schmidt_rank(PureState(np.array([1.0, 0.0]), (2,)))


def test_mub_pair_d2():
    comp, four = mub_pair(2)
    assert np.allclose(comp.effect(0), np.diag([1.0, 0.0]))
    assert np.allclose(four.effect(0), np.ones((2, 2)) / 2)


def test_mub_pair_overlaps():
    # the computational and Fourier bases are unbiased in every dimension
    for d in range(2, 14):
        comp, four = mub_pair(d)
        for i in range(d):
            for j in range(d):
                overlap = np.trace(comp.effect(i) @ four.effect(j)).real
                assert abs(overlap - 1.0 / d) < 1e-12


@pytest.mark.parametrize("d", [1, 0, -3])
def test_mub_pair_rejects_dimension_below_two(d):
    with pytest.raises(ValueError, match=f"dimension d must be >= 2, got {d}"):
        mub_pair(d)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def test_density_document_roundtrip():
    rho = one_way_state(2, 0.6, 0.4)
    doc = rho.to_document()
    assert doc["dims"] == [2, 3]
    back = DensityOperator.from_document(doc)
    assert np.max(np.abs(back.mat - rho.mat)) < 1e-15


def test_density_document_refuses_malformed_fields():
    for doc in ({"dims": [2], "entries": 5}, {"dims": 2, "entries": []}):
        with pytest.raises(ValueError, match="malformed density-operator document"):
            DensityOperator.from_document(doc)


@pytest.mark.parametrize("dims, bad", [([2.9, 3], 2.9), ([2, "3"], "3"), ([True, 2], True)])
def test_density_document_refuses_dims_that_are_not_integers(dims, bad):
    # int() read [2.9, "3"] as (2, 3), and true as 1
    doc = one_way_state(2, 0.6, 0.4).to_document()
    doc["dims"] = dims
    with pytest.raises(ValueError, match=f"dims entry must be an integer, got {bad!r}"):
        DensityOperator.from_document(doc)


def test_povm_document_roundtrip():
    rng = np.random.default_rng(5)
    povm = random_povm(3, 4, rng)
    back = Povm.from_document(povm.to_document())
    assert back.labels == povm.labels
    for label in povm.labels:
        assert np.max(np.abs(back.effect(label) - povm.effect(label))) < 1e-15


def test_no_click_label_reserved():
    assert NO_CLICK == "ø"


def test_array_holding_objects_compare_by_identity():
    # a field-wise == over array fields raises "truth value ... is ambiguous"
    params = NoiseParams(d=2, eta=0.25, p=0.5)
    rng = np.random.default_rng(3)
    makers = [
        lambda: phi_plus(2),
        lambda: one_way_state(2, 0.5, 0.5),
        lambda: mub_pair(2)[0],
        lambda: steer(phi_plus(2).to_density(), list(mub_pair(2)), measured_side=0),
        lambda: reduce_through_loss_dual(random_povm(3, 2, rng), params),
        lambda: discretize_parent(2, 16, seed=1),
        lambda: ResponseFunctionModel(mub_pair(2)[0], params),
        lambda: exact_certificate(ResponseFunctionModel(mub_pair(2)[0], params)),
        lambda: mc_effect(2, 0.3, PureState(np.eye(2)[0], (2,)), 100, seed=0),
    ]
    for make in makers:
        first, second = make(), make()
        assert (first == first) is True
        assert (first == second) is False
        assert (first != second) is True


def test_density_operator_validation_messages():
    good = np.diag([0.5, 0.5]).astype(complex)
    assert np.array_equal(DensityOperator(good, (2,)).mat, good)
    cases = [
        (np.array([[0.5, 1e-6], [0.0, 0.5]]), "density matrix is not Hermitian within 1e-10"),
        (np.diag([1.5, -0.5]), "density matrix is not PSD within 1e-10"),
        (np.diag([0.5, 0.6]), "density matrix trace differs from 1 by more than 1e-10"),
        (np.diag([np.nan, 0.5]), "density matrix is not Hermitian within 1e-10"),
    ]
    for mat, message in cases:
        with pytest.raises(ValueError, match=message):
            DensityOperator(mat, (2,))


def test_density_stack_agrees_with_density_operator():
    rng = np.random.default_rng(11)
    mats = np.array([[random_density(3, rng).mat for _ in range(2)] for _ in range(3)])
    stack = density_stack(mats)
    assert np.array_equal(stack, mats) and not stack.flags.writeable
    mats[2, 1, 0, 0] += 1e-3  # trace off, still Hermitian and PSD
    with pytest.raises(ValueError, match=r"density matrix in stack entry \(2, 1\) trace differs"):
        density_stack(mats)
    with pytest.raises(ValueError, match="trace differs"):
        DensityOperator(mats[2, 1], (3,))
