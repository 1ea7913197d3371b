import functools
import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from steerlab.analysis import (
    classify,
    eta_unsteerable_bound,
    p_threshold_all,
    p_threshold_two_mubs,
    phase_diagram,
)
from steerlab.assemblage import Assemblage, apply_loss_to_assemblage, filter_loss, steer
from steerlab.certifier import JmCertificate, discretize_parent
from steerlab.covariant import HaarSampler, ResponseFunctionModel, aligned_weight
from steerlab.linalg import (
    check_int,
    check_unit,
    dagger,
    frobenius,
    frobenius_each,
    inv_sqrt,
    is_psd,
    partial_trace,
    psd_stack,
)
from steerlab.lossy import NoiseParams
from steerlab.objects import (
    DensityOperator,
    Loss,
    Povm,
    PureState,
    WhiteNoise,
    mub_pair,
    one_way_state,
    phi_plus,
)

from corpus import random_povm, random_unitary


def _rand_complex(rng, rows, cols):
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


def test_partial_trace_product_state():
    v00 = np.zeros(4, dtype=complex)
    v00[0] = 1.0
    rho = np.outer(v00, v00.conj())
    assert np.allclose(partial_trace(rho, (2, 2), keep=0), np.diag([1.0, 0.0]))


def test_partial_trace_max_entangled():
    v = np.zeros(4, dtype=complex)
    v[0] = v[3] = 1 / np.sqrt(2)
    rho = np.outer(v, v.conj())
    assert np.allclose(partial_trace(rho, (2, 2), keep=0), np.eye(2) / 2)
    assert np.allclose(partial_trace(rho, (2, 2), keep=1), np.eye(2) / 2)


def test_partial_trace_matches_block_sum():
    rng = np.random.default_rng(2)
    g = _rand_complex(rng, 6, 6)
    rho = g @ dagger(g)
    rho /= np.trace(rho)
    # index-summation oracle for dims (2, 3)
    expected_a = np.zeros((2, 2), dtype=complex)
    expected_b = np.zeros((3, 3), dtype=complex)
    for i in range(2):
        for k in range(2):
            for j in range(3):
                expected_a[i, k] += rho[i * 3 + j, k * 3 + j]
    for j in range(3):
        for l in range(3):
            for i in range(2):
                expected_b[j, l] += rho[i * 3 + j, i * 3 + l]
    assert frobenius(partial_trace(rho, (2, 3), keep=0) - expected_a) < 1e-13
    assert frobenius(partial_trace(rho, (2, 3), keep=1) - expected_b) < 1e-13


def test_partial_trace_of_tensor():
    rng = np.random.default_rng(3)
    for _ in range(10):
        a = _rand_complex(rng, 3, 3)
        b = _rand_complex(rng, 2, 2)
        out = partial_trace(np.kron(a, b), (3, 2), keep=0)
        assert frobenius(out - np.trace(b) * a) < 1e-12


def test_partial_trace_preserves_trace():
    rng = np.random.default_rng(4)
    g = _rand_complex(rng, 12, 12)
    rho = g @ dagger(g)
    assert abs(np.trace(partial_trace(rho, (3, 4), keep=1)) - np.trace(rho)) < 1e-10


def test_partial_trace_rejects_bad_dims():
    with pytest.raises(ValueError):
        partial_trace(np.eye(5), (2, 3), keep=0)
    with pytest.raises(ValueError):
        partial_trace(np.eye(6), (2, 3), keep=2)


def _oracle_psd(m, tol):
    # Hermitian within tol and no eigenvalue of the Hermitian part below -tol,
    # computed directly rather than through the kernel under test
    m = np.asarray(m, dtype=complex)
    return bool(np.max(np.abs(m - dagger(m))) <= tol
                and np.linalg.eigvalsh((m + dagger(m)) / 2.0)[0] >= -tol)


def test_is_psd():
    assert is_psd(np.eye(3), 1e-10)
    assert not is_psd(np.diag([1.0, -1e-6]), 1e-10)
    rng = np.random.default_rng(5)
    for _ in range(20):
        a = _rand_complex(rng, 4, 4)
        assert is_psd(dagger(a) @ a, 1e-10)
    # non-Hermitian is never PSD
    assert not is_psd(np.array([[0.0, 1.0], [0.0, 0.0]]), 1e-10)


@settings(max_examples=200, deadline=None)
@given(
    d=st.integers(2, 4),
    n=st.integers(1, 4),
    kind=st.sampled_from(["none", "negative-eigenvalue", "anti-hermitian", "off-identity",
                          "nan"]),
    size=st.floats(2e-10, 1e-1),
    seed=st.integers(0, 2**32 - 1),
)
def test_psd_stack_agrees_with_per_matrix_oracle(d, n, kind, size, seed):
    # oracle: eigvalsh on each matrix plus a Frobenius test of the sum
    rng = np.random.default_rng(seed)
    effects = np.array(random_povm(d, n, rng).effects)
    labels = [f"out{k}" for k in range(n)]
    k = int(rng.integers(n))
    i, j = rng.choice(d, 2, replace=False)
    if kind == "negative-eigenvalue":
        evals, evecs = np.linalg.eigh(effects[k])
        effects[k] -= (evals[0] + size) * np.outer(evecs[:, 0], evecs[:, 0].conj())
    elif kind == "anti-hermitian":
        effects[k, i, j] += size
    elif kind == "off-identity":
        effects[k, i, i] += size  # stays Hermitian and PSD
    elif kind == "nan":
        effects[k, i, j] = np.nan
    oracle_ok = (all(_oracle_psd(e, 1e-10) for e in effects)
                 and frobenius(effects.sum(axis=0) - np.eye(d)) <= 1e-10)
    assert oracle_ok == (kind == "none")
    if oracle_ok:
        assert np.array_equal(psd_stack(effects, labels, "effect"), effects)
        return
    with pytest.raises(ValueError) as exc:
        psd_stack(effects, labels, "effect")
    if kind == "off-identity":
        # a sum off the identity belongs to no single effect
        assert "do not sum to the identity" in str(exc.value)
    else:
        assert f"effect {labels[k]!r} is not" in str(exc.value)


@settings(max_examples=150, deadline=None)
@given(
    d=st.integers(1, 4),
    n=st.integers(1, 4),
    batch=st.lists(st.integers(1, 3), min_size=1, max_size=2),
    kind=st.sampled_from(["none", "negative-eigenvalue", "anti-hermitian", "off-identity",
                          "nan"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_psd_stack_batches_agree_with_each_stack(d, n, batch, kind, seed):
    # a batched call accepts exactly when every stack passes on its own, and
    # its error names the first failing stack by its batch index
    rng = np.random.default_rng(seed)
    shape = tuple(batch)
    stacks = np.array([random_povm(d, n, rng).effects for _ in range(int(np.prod(shape)))])
    stacks = stacks.reshape(shape + (n, d, d))
    index = tuple(int(rng.integers(size)) for size in shape)
    k, i, j = int(rng.integers(n)), int(rng.integers(d)), int(rng.integers(d))
    if kind == "negative-eigenvalue":
        stacks[index + (k, i, i)] -= 2.0
    elif kind == "anti-hermitian" and d > 1:
        stacks[index + (k, i, (i + 1) % d)] += 1e-3
    elif kind == "off-identity":
        stacks[index + (k, i, i)] += 1e-3
    elif kind == "nan":
        stacks[index + (k, i, j)] = np.nan
    labels = [f"out{a}" for a in range(n)]
    failures = []
    for b in np.ndindex(shape):
        try:
            psd_stack(stacks[b], labels, "effect")
        except ValueError as exc:
            failures.append((b, str(exc)))
    if not failures:
        out = psd_stack(stacks, labels, "effect")
        assert np.array_equal(out, stacks) and not out.flags.writeable
        return
    with pytest.raises(ValueError) as exc:
        psd_stack(stacks, labels, "effect")
    # only the corrupted stack fails; the batched error is its error with
    # the batch index after the name
    (where, message), = failures
    assert where == index
    name, verb, rest = re.split(r" (is not|do not) ", message, maxsplit=1)
    assert str(exc.value) == f"{name} in stack entry {index} {verb} {rest}"


def test_psd_stack_names_batch_index():
    stacks = np.broadcast_to(np.eye(2) / 2, (3, 2, 2, 2)).copy()
    stacks[2, 1, 0, 0] = -1.0
    with pytest.raises(ValueError, match=r"effect 1 in stack entry \(2,\) is not PSD"):
        psd_stack(stacks, range(2), "effect")
    stacks[2, 1, 0, 0] = 0.6
    with pytest.raises(ValueError, match=r"effects in stack entry \(2,\) do not sum"):
        psd_stack(stacks, range(2), "effect")


@functools.lru_cache(maxsize=None)
def _haar_atoms(d):
    return discretize_parent(d, 4 * d * d, seed=0).effects


def _psd_member(kind, d, rng):
    # a PSD matrix of trace at most d: a full-rank Gram matrix of unit trace,
    # a projector of any rank (rank-deficient below d), the zero matrix, or
    # a rank-one atom of a Haar parent
    if kind == "gram":
        a = _rand_complex(rng, d, d)
        g = a @ dagger(a)
        return g / np.trace(g).real
    if kind == "projector":
        u = random_unitary(d, rng)[:, : int(rng.integers(d + 1))]
        return u @ dagger(u)
    if kind == "zero":
        return np.zeros((d, d), dtype=complex)
    atoms = _haar_atoms(d)
    return atoms[int(rng.integers(len(atoms)))]


@settings(max_examples=200, deadline=None)
@given(
    d=st.integers(1, 6),
    n=st.integers(1, 3),
    batch=st.lists(st.integers(1, 3), max_size=2),
    kinds=st.lists(st.sampled_from(["gram", "projector", "zero", "haar-atom"]),
                   min_size=1, max_size=4),
    tol=st.sampled_from([1e-10, 1e-8]),
    sign=st.sampled_from([-1.0, 1.0]),
    delta=st.floats(1e-3, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_psd_verdict_matches_eigvalsh_oracle(d, n, batch, kinds, tol, sign, delta, seed):
    # one matrix's smallest eigenvalue moves to -tol*(1 + sign*delta), just
    # inside or outside the tolerance; psd_stack (tol 1e-10) and is_psd
    # accept iff eigvalsh finds no eigenvalue below -tol, and a rejection
    # names the first failing matrix with its eigvalsh eigenvalue
    rng = np.random.default_rng(seed)
    shape = tuple(batch) + (n,)
    members = [_psd_member(kinds[i % len(kinds)], d, rng) for i in range(int(np.prod(shape)))]
    mats = np.array(members).reshape(shape + (d, d))
    moved = tuple(int(rng.integers(size)) for size in shape)
    evals, evecs = np.linalg.eigh(mats[moved])
    v = evecs[:, 0]
    mats[moved] += (-tol * (1.0 + sign * delta) - evals[0]) * np.outer(v, v.conj())
    min_eig = np.linalg.eigvalsh((mats + dagger(mats)) / 2.0)[..., 0]
    failing = np.argwhere(min_eig < -tol)
    assert [tuple(int(i) for i in f) for f in failing] == ([moved] if sign > 0 else [])
    for i in np.ndindex(shape):
        assert is_psd(mats[i], tol) == (min_eig[i] >= -tol)
    if tol != 1e-10:
        return
    labels = [f"m{k}" for k in range(n)]
    if sign < 0:
        assert np.array_equal(psd_stack(mats, labels, "matrix", sums_to_identity=False), mats)
        return
    where = f" in stack entry {moved[:-1]}" if batch else ""
    with pytest.raises(ValueError) as exc:
        psd_stack(mats, labels, "matrix", sums_to_identity=False)
    assert str(exc.value) == (f"matrix {labels[moved[-1]]!r}{where} is not PSD within 1e-10 "
                              f"(eigenvalue {min_eig[moved]:.2e})")


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_psd_stack_rejects_non_finite_entries(value):
    # a Cholesky factorization of a non-finite matrix returns a NaN factor
    # without failing; the Hermiticity check still rejects every entry of
    # every matrix of a batched stack, the diagonal included
    stacks = np.broadcast_to(np.eye(3) / 2, (2, 2, 3, 3)).copy()
    for index in np.ndindex(stacks.shape):
        bad = stacks.copy()
        bad[index] = value
        message = rf"^effect {index[1]} in stack entry \({index[0]},\) is not Hermitian within 1e-10$"
        with np.errstate(invalid="ignore"):
            with pytest.raises(ValueError, match=message):
                psd_stack(bad, range(2), "effect")
            assert not is_psd(bad[index[:2]], 1e-8)


def test_psd_stack_rejects_an_overflowing_hermitian_part():
    # finite and Hermitian, but (H + H^dagger)/2 overflows to infinity: only
    # a finite Cholesky factor accepts, so eigvalsh judges and rejects it
    stacks = np.broadcast_to(np.eye(2) / 2, (2, 2, 2)).copy()
    stacks[1] = 1e308 * np.eye(2)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ValueError, match=r"^effect 1 is not PSD within 1e-10 \(eigenvalue nan\)$"):
            psd_stack(stacks, range(2), "effect", sums_to_identity=False)
        assert not is_psd(stacks[1])


def test_accept_path_computes_no_eigenvalues(monkeypatch):
    rng = np.random.default_rng(8)
    stacks = np.array([random_povm(3, 4, rng).effects for _ in range(5)])

    def refuse(*args, **kwargs):
        raise AssertionError("called on the accept path")

    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    monkeypatch.setattr(np, "argwhere", refuse)
    assert np.array_equal(psd_stack(stacks, range(4), "effect"), stacks)
    assert is_psd(stacks[0, 0])


@settings(max_examples=60, deadline=None)
@given(d=st.integers(1, 6), shape=st.lists(st.integers(1, 3), max_size=2),
       seed=st.integers(0, 2**32 - 1))
def test_stacked_kernels_equal_per_matrix_calls(d, shape, seed):
    # inv_sqrt and frobenius_each on a stack give the per-matrix results bit for bit
    rng = np.random.default_rng(seed)
    g = rng.standard_normal(tuple(shape) + (2, d, d))
    a = g[..., 0, :, :] + 1j * g[..., 1, :, :]
    mats = a @ dagger(a) + np.eye(d)
    roots, norms = inv_sqrt(mats), frobenius_each(mats)
    for i in np.ndindex(tuple(shape)):
        assert np.array_equal(roots[i], inv_sqrt(mats[i]))
        assert norms[i] == frobenius(mats[i]) == np.linalg.norm(mats[i])
    assert norms.shape == tuple(shape)


def test_inv_sqrt_names_a_singular_matrix():
    mats = np.broadcast_to(np.eye(2), (2, 3, 2, 2)).copy()
    mats[1, 2] = np.diag([1.0, 0.0])
    with pytest.raises(ValueError, match=r"matrix in stack entry \(1, 2\) is singular"):
        inv_sqrt(mats)
    with pytest.raises(ValueError, match=r"^matrix is singular"):
        inv_sqrt(mats[1, 2])


# ---------------------------------------------------------------------------
# integer and probability arguments
# ---------------------------------------------------------------------------


def test_check_int_returns_a_python_int():
    for value in (3, np.int64(3), np.uint8(3)):
        assert type(check_int("n", value, 1)) is int and check_int("n", value, 1) == 3
    for value in (np.float64(3.0), np.bool_(True), "3", None):
        with pytest.raises(ValueError, match=f"n must be an integer, got {re.escape(repr(value))}"):
            check_int("n", value, 1)


def test_check_unit_refuses_any_entry_outside_the_unit_interval():
    check_unit("p", np.linspace(0.0, 1.0, 5))
    check_unit("p", 0.0)
    for bad in (np.array([0.5, np.nan]), np.array([[0.0], [-1e-300]]), 1.0 + 1e-15):
        with pytest.raises(ValueError, match=r"p must lie in \[0, 1\], got"):
            check_unit("p", bad)
    for bad in (True, np.bool_(False), np.array([True, False])):
        message = f"p must be a number, got {np.asarray(bad)}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            check_unit("p", bad)


@pytest.mark.parametrize("dims", [(2, 2, 2), (4,)])
def test_partial_trace_refuses_dims_that_are_not_a_pair(dims):
    message = f"dims must be a pair of subsystem dimensions, got {dims}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        partial_trace(np.eye(4) / 4, dims, 0)


def _assemblage_document(**changes):
    doc = steer(one_way_state(2, 0.6, 0.4), list(mub_pair(2)), 0).to_document()
    return dict(doc, **changes)


def _assemblage_document_with_a(a):
    doc = _assemblage_document()
    doc["entries"][0] = dict(doc["entries"][0], a=a)
    return doc


#: (name in the message, its least value, a valid value, call with the value)
_INT_ARGUMENTS = {
    "WhiteNoise-d": ("dimension d", 1, 2, lambda v: WhiteNoise(0.5, v)),
    "Loss-d": ("dimension d", 1, 2, lambda v: Loss(0.5, v)),
    "NoiseParams-d": ("dimension d", 1, 2, lambda v: NoiseParams(v, 0.5, 0.5)),
    "ResponseFunctionModel-d": ("dimension d", 1, 2, lambda v: ResponseFunctionModel(
        mub_pair(2)[0], NoiseParams(v, 0.1, 0.5))),
    "p_threshold_all-d": ("dimension d", 2, 3, p_threshold_all),
    "p_threshold_two_mubs-d": ("dimension d", 2, 3, p_threshold_two_mubs),
    "eta_unsteerable_bound-d": ("dimension d", 2, 3, lambda v: eta_unsteerable_bound(v, 0.5)),
    "phase_diagram-d": ("dimension d", 2, 3, lambda v: phase_diagram(v, 10)),
    "phase_diagram-grid_n": ("grid_n", 2, 10, lambda v: phase_diagram(3, v)),
    "partial_trace-dims": ("subsystem dimension", 1, 2,
                           lambda v: partial_trace(np.eye(4) / 4, (v, 2), 0)),
    "PureState-dims": ("subsystem dimension", 1, 2, lambda v: PureState(np.eye(2)[0], (v,))),
    "phi_plus-d": ("dimension d", 2, 3, phi_plus),
    "one_way_state-d": ("dimension d", 2, 3, lambda v: one_way_state(v, 0.5, 0.5)),
    "mub_pair-d": ("dimension d", 2, 3, mub_pair),
    "aligned_weight-d": ("dimension d", 2, 3, lambda v: aligned_weight(v, 0.4)),
    "HaarSampler-d": ("dimension d", 1, 3, HaarSampler),
    "HaarSampler-seed": ("seed", 0, 3, lambda v: HaarSampler(3, seed=v)),
    "discretize_parent-seed": ("seed", 0, 3, lambda v: discretize_parent(2, 10, seed=v)),
    "discretize_parent-d": ("dimension d", 1, 2, lambda v: discretize_parent(v, 10)),
    "discretize_parent-n_atoms": ("atom count n_atoms", 4, 10,
                                  lambda v: discretize_parent(2, v)),
    "Povm-document-dim": ("POVM document dim", 1, 2, lambda v: Povm.from_document(
        dict(mub_pair(2)[0].to_document(), dim=v))),
    "DensityOperator-document-dims": (
        "density-operator document dims entry", 1, 2, lambda v: DensityOperator.from_document(
            dict(one_way_state(2, 0.6, 0.4).to_document(), dims=[v, 3]))),
    "Assemblage-document-dim": ("malformed assemblage document: dim", 1, 3,
                                lambda v: Assemblage.from_document(_assemblage_document(dim=v))),
    "Assemblage-document-a": ("malformed assemblage document: entry a", 0, 0,
                              lambda v: Assemblage.from_document(_assemblage_document_with_a(v))),
}

#: (name in the message, call with the value)
_UNIT_ARGUMENTS = {
    "WhiteNoise-p": ("visibility p", lambda v: WhiteNoise(v, 2)),
    "Loss-eta": ("transmission eta", lambda v: Loss(v, 2)),
    "NoiseParams-eta": ("eta", lambda v: NoiseParams(2, v, 0.5)),
    "NoiseParams-p": ("p", lambda v: NoiseParams(2, 0.5, v)),
    "one_way_state-eta": ("eta", lambda v: one_way_state(2, v, 0.5)),
    "one_way_state-p": ("p", lambda v: one_way_state(2, 0.5, v)),
    "eta_unsteerable_bound-p": ("p", lambda v: eta_unsteerable_bound(2, v)),
    "classify-eta": ("eta", lambda v: classify(2, v, 0.5)),
    "classify-p": ("p", lambda v: classify(2, 0.5, v)),
    "aligned_weight-t": ("threshold t", lambda v: aligned_weight(2, v)),
    "apply_loss_to_assemblage-eta": ("transmission eta", lambda v: apply_loss_to_assemblage(
        steer(one_way_state(2, 0.6, 0.4), list(mub_pair(2)), 0), v)),
    "filter_loss-eta": ("transmission eta", lambda v: filter_loss(apply_loss_to_assemblage(
        steer(one_way_state(2, 0.6, 0.4), list(mub_pair(2)), 0), 0.5), v)),
}


def _argument_cases():
    for key, (name, least, good, call) in _INT_ARGUMENTS.items():
        yield pytest.param(call, good + 0.5, f"{name} must be an integer, got {good + 0.5!r}",
                           id=f"{key}-float")
        yield pytest.param(call, True, f"{name} must be an integer, got True", id=f"{key}-bool")
        yield pytest.param(call, least - 1, f"{name} must be >= {least}, got {least - 1}",
                           id=f"{key}-below")
        yield pytest.param(call, np.int64(good), None, id=f"{key}-numpy")
    for key, (name, call) in _UNIT_ARGUMENTS.items():
        for value in (np.nan, 1.5):
            yield pytest.param(call, value, f"{name} must lie in [0, 1], got {value}",
                               id=f"{key}-{value}")
        yield pytest.param(call, True, f"{name} must be a number, got True", id=f"{key}-bool")


@pytest.mark.parametrize("call, value, message", _argument_cases())
def test_arguments_are_refused_by_name(call, value, message):
    # a numpy integer is a valid argument; a float, a bool, a value below the
    # least one, and a probability that is a bool or outside [0, 1] are
    # refused by name
    if message is None:
        call(value)
        return
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(value)


def test_documents_from_numpy_integers_are_json():
    parent = discretize_parent(2, 10, seed=np.int64(3))
    cert = JmCertificate(parent, (np.full((2, 10), 0.5),), residual=0.0, tol=1e-4)
    assert json.loads(json.dumps(cert.to_document()))["seed"] == 3
    assert type(NoiseParams(np.int8(2), 0.5, 0.5).d) is int
