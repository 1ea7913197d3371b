"""Noisy-lossy POVMs and their decomposition through the channel dual.

A POVM measured after white noise (visibility p) and loss (transmission
eta) picks up an extra no-click outcome; pulling a measurement on the
enlarged space back through the channel splits it into a reduced POVM on
the signal block plus a vacuum response distribution.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .linalg import check_int, check_unit, distributions, first_false, locate, psd_stack
from .objects import NO_CLICK, Povm, _noisify, lossy_noisy_channel


@dataclass(frozen=True)
class NoiseParams:
    """Dimension plus the (transmission, visibility) noise pair."""

    d: int
    eta: float
    p: float

    def __post_init__(self):
        object.__setattr__(self, "d", check_int("dimension d", self.d, 1))
        check_unit("eta", self.eta)
        check_unit("p", self.p)


@dataclass(frozen=True, eq=False)
class LossyDecomposition:
    """Split of a measurement pulled back through the noisy-lossy channel.

    ``reconstructed`` carries the pulled-back effects; they equal the
    noisified ``reduced_povm`` with its no-click effect redistributed
    according to ``vacuum_dist``. ``identity_residual`` is the largest
    Frobenius deviation of that identity, recomputed at construction.
    """

    reduced_povm: Povm
    vacuum_dist: np.ndarray
    reconstructed: Povm
    identity_residual: float

    def __post_init__(self):
        object.__setattr__(self, "vacuum_dist", check_vacuum(self.vacuum_dist))


def check_vacuum(q) -> np.ndarray:
    """``q`` as a float array, each of whose vacuum responses along the last
    axis must be a probability distribution (sum within 1e-12); errors locate
    a failing one in a stack as :func:`~steerlab.linalg.locate` does."""
    q = np.asarray(q, dtype=float)
    bad = first_false(distributions(q, 1e-12, axis=-1))
    if bad is not None:
        raise ValueError(f"vacuum response{locate(bad)} is not a probability distribution")
    return q


def _no_click(params: NoiseParams) -> np.ndarray:
    """The no-click effect ``(1-eta)*I`` of every noisified POVM."""
    return (1.0 - params.eta) * np.eye(params.d, dtype=complex)


def noisify_povm(m: Povm, params: NoiseParams) -> Povm:
    """Imperfect version of a POVM under white noise and loss.

    Each effect is mapped by :func:`~steerlab.objects._noisify` and a no-click
    effect ``(1-eta)*I`` is appended under the reserved label.
    """
    if m.has_no_click:
        raise ValueError("input POVM already has a no-click outcome")
    if m.dim != params.d:
        raise ValueError(f"POVM dim {m.dim} does not match params d={params.d}")
    return Povm(np.concatenate([_noisify(m.effects, params.eta, params.p),
                                _no_click(params)[None]]),
                m.labels + (NO_CLICK,))


class PullBack(NamedTuple):
    """Effects on d+1 levels pulled back through noise and loss, per effect."""

    reduced: np.ndarray  # (..., n, d, d) signal blocks P M'_a P
    vacuum: np.ndarray  # (..., n) vacuum responses q(a) = <ø|M'_a|ø>
    images: np.ndarray  # (..., n, d, d) Heisenberg images under the channel
    residuals: np.ndarray  # (..., n) Frobenius deviations of the identity below


def pull_back(effects: np.ndarray, params: NoiseParams, labels) -> PullBack:
    """Pull a (..., n, d+1, d+1) array of POVM effects back through noise and loss.

    For each effect M'_a (vacuum last) this computes the signal-block
    reduction ``M_a = P M'_a P``, the vacuum response ``q(a)``, the
    Heisenberg image of M'_a under the full channel, and the Frobenius norm
    of that image's deviation from

        noisified(M)_a + q(a) * noisified(M)_no_click,

    which vanishes for every input. Every check of a
    :class:`LossyDecomposition` is made here, per POVM: the reductions and
    then the images are POVMs (:func:`~steerlab.linalg.psd_stack`, effects
    named by ``labels``), and each vacuum response is a distribution
    (:func:`check_vacuum`).
    """
    d = params.d
    reduced = psd_stack(effects[..., :d, :d], labels, "effect")
    images = psd_stack(lossy_noisy_channel(d, params.eta, params.p).dual(effects), labels,
                       "effect")
    q = check_vacuum(effects[..., d, d].real)
    # noisified reduced effects, computed on the stack: the reduced labels
    # are pass-through names and may themselves include the no-click label
    deviations = images - (_noisify(reduced, params.eta, params.p)
                           + q[..., None, None] * _no_click(params))
    return PullBack(reduced, q, images, np.linalg.norm(deviations, axis=(-2, -1)))


def reduce_through_loss_dual(m_prime: Povm, params: NoiseParams) -> LossyDecomposition:
    """Pull a measurement on the enlarged space back through noise and loss.

    Splits and checks the effects as :func:`pull_back` does; the residual
    of the decomposition is the largest deviation.
    """
    if m_prime.dim != params.d + 1:
        raise ValueError(
            f"expected a POVM on dimension {params.d + 1}, got dimension {m_prime.dim}"
        )
    split = pull_back(m_prime.effects, params, m_prime.labels)
    return LossyDecomposition(
        reduced_povm=Povm._from_checked(split.reduced, m_prime.labels),
        vacuum_dist=split.vacuum,
        reconstructed=Povm._from_checked(split.images, m_prime.labels),
        identity_residual=float(np.max(split.residuals)),
    )
