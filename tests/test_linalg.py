import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from steerlab.linalg import (
    dagger,
    eig_hermitian,
    frobenius,
    frobenius_each,
    inv_sqrt,
    is_psd,
    partial_trace,
    psd_stack,
    tensor,
)
from steerlab.rand import random_povm


def _rand_complex(rng, rows, cols):
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


def test_tensor_identities():
    assert np.allclose(tensor(np.eye(2), np.eye(2)), np.eye(4))
    out = tensor(np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))
    assert np.allclose(out, np.diag([0.0, 1.0, 0.0, 0.0]))


def test_tensor_matches_elementwise_loop():
    rng = np.random.default_rng(0)
    a = _rand_complex(rng, 2, 2)
    b = _rand_complex(rng, 2, 2)
    out = tensor(a, b)
    # brute-force oracle: entry (i*2+k, j*2+l) = a[i,j] * b[k,l]
    for i in range(2):
        for j in range(2):
            for k in range(2):
                for l in range(2):
                    assert abs(out[i * 2 + k, j * 2 + l] - a[i, j] * b[k, l]) < 1e-14


def test_tensor_associative_and_bilinear():
    rng = np.random.default_rng(1)
    for _ in range(20):
        a, b, c = (_rand_complex(rng, 2, 2) for _ in range(3))
        assert frobenius(tensor(tensor(a, b), c) - tensor(a, tensor(b, c))) < 1e-12
        x, y = rng.standard_normal(2)
        assert frobenius(tensor(x * a + y * b, c) - x * tensor(a, c) - y * tensor(b, c)) < 1e-12
        assert frobenius(tensor(c, x * a + y * b) - x * tensor(c, a) - y * tensor(c, b)) < 1e-12


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
        out = partial_trace(tensor(a, b), (3, 2), keep=0)
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
    # oracle: is_psd on each matrix plus a Frobenius test of the sum
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
    oracle_ok = (all(is_psd(e, 1e-10) for e in effects)
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


def test_eig_hermitian_diagonal():
    evals, evecs = eig_hermitian(np.diag([3.0, 1.0, 2.0]))
    assert np.allclose(evals, [3.0, 2.0, 1.0])
    assert np.allclose(np.abs(evecs), np.eye(3)[:, [0, 2, 1]])


def test_eig_hermitian_pauli_x():
    sx = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    evals, evecs = eig_hermitian(sx)
    assert np.allclose(evals, [1.0, -1.0])
    assert np.allclose(evecs[:, 0], np.array([1.0, 1.0]) / np.sqrt(2))
    assert np.allclose(evecs[:, 1], np.array([1.0, -1.0]) / np.sqrt(2))


def test_eig_hermitian_reconstruction():
    rng = np.random.default_rng(6)
    for _ in range(1000):
        d = rng.integers(2, 13)
        g = _rand_complex(rng, d, d)
        h = (g + dagger(g)) / 2
        evals, evecs = eig_hermitian(h)
        rebuilt = (evecs * evals) @ dagger(evecs)
        assert frobenius(rebuilt - h) < 1e-9
        assert frobenius(dagger(evecs) @ evecs - np.eye(d)) < 1e-10
        assert np.all(np.diff(evals) <= 1e-12)


def test_eig_hermitian_phase_fix_deterministic():
    rng = np.random.default_rng(7)
    g = _rand_complex(rng, 5, 5)
    h = (g + dagger(g)) / 2
    _, v1 = eig_hermitian(h)
    _, v2 = eig_hermitian(h.copy())
    assert np.array_equal(v1, v2)
    for i in range(5):
        lead = v1[np.flatnonzero(np.abs(v1[:, i]) > 1e-8)[0], i]
        assert abs(lead.imag) < 1e-12 and lead.real > 0


def test_eig_hermitian_rejects_non_hermitian():
    with pytest.raises(ValueError):
        eig_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))


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
