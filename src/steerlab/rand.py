"""Generic quantum objects from stacked Ginibre normals, for the CLI's checks.

``appendixC-check`` and ``lemma1-roundtrip`` draw the normals of a block of
trials in one call and build every object of the block here at once.
POVMs are normalized Gram matrices: with G_i = A_i A_i^dag and
S = sum_i G_i, the effects are S^{-1/2} G_i S^{-1/2}. This yields full-rank
generic POVMs (rank-one ones when the Gram factors are vectors).
"""

from __future__ import annotations

import numpy as np

from .linalg import dagger, inv_sqrt


def gram_densities(normals: np.ndarray) -> np.ndarray:
    """Normalized Gram matrices G / tr G with G = A A^dag, one per (2, d, d)
    block of a (..., 2, d, d) array holding the real then the imaginary
    part of each Ginibre factor A."""
    a = normals[..., 0, :, :] + 1j * normals[..., 1, :, :]
    g = a @ dagger(a)
    return g / np.trace(g, axis1=-2, axis2=-1)[..., None, None]


def gram_povms(normals: np.ndarray) -> np.ndarray:
    """POVM effects S^{-1/2} G_i S^{-1/2} (symmetrized), one POVM per
    (n, 2, d, k) block of a (..., n, 2, d, k) array of Ginibre parts as in
    :func:`gram_densities`, with d x k factors (k = 1 for rank-one effects);
    S is the sum of each block's n Gram matrices. A one-outcome block is
    exactly the identity, which ``S^{-1/2} S S^{-1/2}`` misses by rounding
    when S is ill-conditioned."""
    if normals.shape[-4] == 1:
        return np.tile(np.eye(normals.shape[-2], dtype=complex), normals.shape[:-3] + (1, 1))
    factors = normals[..., 0, :, :] + 1j * normals[..., 1, :, :]
    grams = factors @ dagger(factors)
    s_inv_root = inv_sqrt(grams.sum(axis=-3))[..., None, :, :]
    effects = s_inv_root @ grams @ dagger(s_inv_root)
    # symmetrize away roundoff
    return (effects + dagger(effects)) / 2.0
