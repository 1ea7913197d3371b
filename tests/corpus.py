"""Random quantum objects for the tests, and the threshold-response oracle.

Each generator takes a seed or a ``numpy.random.Generator`` and draws its
Ginibre normals in one call, in the layout of :mod:`steerlab.rand`, so a
stacked check of the CLI and these per-object draws see the same numbers.
"""

import numpy as np

from steerlab.objects import DensityOperator, Povm
from steerlab.rand import gram_densities, gram_povms


def random_density(d, rng, dims=None) -> DensityOperator:
    """Full-rank density matrix: a normalized Gram matrix."""
    normals = np.random.default_rng(rng).standard_normal((2, d, d))
    return DensityOperator(gram_densities(normals), dims or (d,))


def random_povm(d, n_outcomes, rng) -> Povm:
    """Generic full-rank POVM with ``n_outcomes`` effects."""
    return Povm(gram_povms(np.random.default_rng(rng).standard_normal((n_outcomes, 2, d, d))))


def random_rank1_povm(d, n_outcomes, rng) -> Povm:
    """Rank-one POVM ``alpha_i |phi_i><phi_i|``; needs ``n_outcomes >= d``."""
    return Povm(gram_povms(np.random.default_rng(rng).standard_normal((n_outcomes, 2, d, 1))))


def random_unitary(d, rng) -> np.ndarray:
    """Haar unitary: the phase-fixed QR of a Ginibre matrix."""
    re, im = np.random.default_rng(rng).standard_normal((2, d, d))
    q, r = np.linalg.qr(re + 1j * im)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def threshold_responses(model, states) -> np.ndarray:
    """p(outcome | z) of a ``ResponseFunctionModel`` at each row z of ``states``.

    Each eigenpair (alpha, phi) of a target effect is hit with weight
    alpha / d when ``|<phi|z>|^2 >= t``; a hit reports its outcome with
    probability ``1 - vacuum_mix``, and the rest is no-click. Rows are the
    target's outcomes, then no-click.
    """
    evals, evecs = np.linalg.eigh(model.target.effects)
    overlaps = np.abs(np.einsum("aik,ni->akn", evecs.conj(), states)) ** 2
    weights = np.where(evals > 1e-12, evals, 0.0)[..., None] / model.d
    clicks = (1.0 - model.vacuum_mix) * (weights * (overlaps >= model.t)).sum(axis=1)
    return np.vstack([clicks, 1.0 - clicks.sum(axis=0)])
