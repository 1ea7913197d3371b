"""Generators of generic quantum objects, used as the test corpus.

POVMs are drawn by normalizing Gram matrices: sample G_i = A_i A_i^dag,
set S = sum_i G_i and return S^{-1/2} G_i S^{-1/2}. This yields full-rank
generic POVMs (rank-one ones when the Gram factors are vectors).
"""

from __future__ import annotations

import numpy as np

from .linalg import check_int, dagger, inv_sqrt
from .objects import DensityOperator, Povm


def rng_from(seed) -> np.random.Generator:
    """Pass through an existing Generator, else construct one from a seed."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def _ginibre(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


def random_unitary(d: int, rng) -> np.ndarray:
    """Haar-distributed unitary via phase-fixed QR of a Ginibre matrix."""
    check_int("dimension d", d, 1)
    rng = rng_from(rng)
    q, r = np.linalg.qr(_ginibre(rng, d, d))
    phases = np.diag(r) / np.abs(np.diag(r))
    return q * phases


def gram_densities(normals: np.ndarray) -> np.ndarray:
    """Normalized Gram matrices G / tr G with G = A A^dag, one per (2, d, d)
    block of a (..., 2, d, d) array holding the real then the imaginary
    part of each Ginibre factor A."""
    a = normals[..., 0, :, :] + 1j * normals[..., 1, :, :]
    g = a @ dagger(a)
    return g / np.trace(g, axis1=-2, axis2=-1)[..., None, None]


def gram_povms(normals: np.ndarray) -> np.ndarray:
    """POVM effects S^{-1/2} G_i S^{-1/2} (symmetrized), one POVM per
    (n, 2, d, d) block of a (..., n, 2, d, d) array of Ginibre parts as in
    :func:`gram_densities`; S is the sum of each block's n Gram matrices.
    A one-outcome block is exactly the identity, which ``S^{-1/2} S S^{-1/2}``
    misses by rounding when S is ill-conditioned."""
    if normals.shape[-4] == 1:
        return np.tile(np.eye(normals.shape[-1], dtype=complex), normals.shape[:-3] + (1, 1))
    factors = normals[..., 0, :, :] + 1j * normals[..., 1, :, :]
    grams = factors @ dagger(factors)
    s_inv_root = inv_sqrt(grams.sum(axis=-3))[..., None, :, :]
    effects = s_inv_root @ grams @ dagger(s_inv_root)
    # symmetrize away roundoff
    return (effects + dagger(effects)) / 2.0


def random_density(d: int, rng, dims: tuple[int, ...] | None = None) -> DensityOperator:
    """Full-rank random density matrix from a normalized Gram matrix."""
    check_int("dimension d", d, 1)
    rng = rng_from(rng)
    return DensityOperator(gram_densities(rng.standard_normal((2, d, d))),
                           dims if dims is not None else (d,))


def random_povm(d: int, n_outcomes: int, rng) -> Povm:
    """Generic full-rank POVM with ``n_outcomes`` effects on dimension ``d``."""
    check_int("dimension d", d, 1)
    check_int("outcome count n_outcomes", n_outcomes, 1)
    rng = rng_from(rng)
    return Povm(gram_povms(rng.standard_normal((n_outcomes, 2, d, d))))


def random_rank1_targets(d: int, n_outcomes: int, rng) -> list[tuple[float, np.ndarray]]:
    """Random rank-one resolution of identity as (weight, unit vector) pairs.

    The weights sum to d and sum_i w_i |phi_i><phi_i| = I exactly (up to
    roundoff); requires ``n_outcomes >= d``.
    """
    check_int("dimension d", d, 1)
    if check_int("outcome count n_outcomes", n_outcomes, 1) < d:
        raise ValueError("need at least d rank-one effects to resolve the identity")
    rng = rng_from(rng)
    vecs = [_ginibre(rng, d, 1).ravel() for _ in range(n_outcomes)]
    s_inv_root = inv_sqrt(sum(np.outer(v, v.conj()) for v in vecs))
    targets = []
    for v in vecs:
        w = s_inv_root @ v
        alpha = float(np.linalg.norm(w) ** 2)
        targets.append((alpha, w / np.linalg.norm(w)))
    return targets

