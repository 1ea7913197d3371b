"""Steering assemblages, loss on assemblages, and the conditional filter
that undoes it, plus verification of explicit local-hidden-state models.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import (
    dagger,
    entries_to_matrix,
    frobenius,
    is_distribution,
    is_psd,
    matrix_to_entries,
    psd_stack,
)
from .objects import DensityOperator, Loss, Povm


@dataclass(frozen=True, eq=False)
class Assemblage:
    """Subnormalized conditional states sigma_{a|x} indexed by
    (outcome a, setting x).

    ``blocks[x]`` is a read-only complex (n_x, dim, dim) array whose entry
    ``a`` is the conditional state for outcome ``a`` of setting ``x``;
    settings may have different outcome counts. Valid assemblages are
    nonsignaling: the outcome sum is one common unit-trace state for every
    setting.
    """

    blocks: tuple[np.ndarray, ...]
    dim: int
    settings: tuple

    def __post_init__(self):
        dim = int(self.dim)
        rows = [np.asarray(row, dtype=complex) for row in self.blocks]
        if not rows:
            raise ValueError("assemblage needs at least one setting")
        for x, row in enumerate(rows):
            if row.ndim != 3 or row.shape[1:] != (dim, dim):
                raise ValueError(
                    f"setting {x} has shape {row.shape}, expected (n, {dim}, {dim})"
                )
        settings = tuple(self.settings)
        if len(settings) != len(rows):
            raise ValueError("settings list does not match number of blocks")
        names = [f"a={a}, x={x}" for x, row in enumerate(rows) for a in range(len(row))]
        stack = psd_stack(np.concatenate(rows), names, "entry", sums_to_identity=False)
        blocks = tuple(np.split(stack, np.cumsum([len(row) for row in rows])[:-1]))
        sums = [row.sum(axis=0) for row in blocks]
        for x in range(1, len(sums)):
            if frobenius(sums[x] - sums[0]) > 1e-10:
                raise ValueError(
                    f"assemblage signals: outcome sums of settings 0 and {x} differ"
                )
        if abs(np.trace(sums[0]).real - 1.0) > 1e-10:
            raise ValueError("outcome sum of the assemblage does not have unit trace")
        object.__setattr__(self, "blocks", blocks)
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "settings", settings)

    @property
    def n_settings(self) -> int:
        return len(self.blocks)

    @property
    def outcomes_per_setting(self) -> tuple[int, ...]:
        return tuple(len(row) for row in self.blocks)

    def entry(self, a: int, x: int) -> np.ndarray:
        return self.blocks[x][a]

    def to_document(self) -> dict:
        entries = []
        for x, row in enumerate(self.blocks):
            for a, mat in enumerate(row):
                entries.append(
                    {"a": a, "x": self.settings[x], "matrix": matrix_to_entries(mat)}
                )
        return {"dim": self.dim, "settings": list(self.settings), "entries": entries}

    @classmethod
    def from_document(cls, doc: dict) -> "Assemblage":
        dim = int(doc["dim"])
        settings = list(doc["settings"])
        rows: list[list] = [[] for _ in settings]
        for e in doc["entries"]:
            x = settings.index(e["x"])
            rows[x].append((int(e["a"]), entries_to_matrix(e["matrix"], dim, dim)))
        blocks = tuple(
            tuple(mat for _, mat in sorted(row, key=lambda t: t[0])) for row in rows
        )
        return cls(blocks, dim, tuple(settings))


def steer(
    rho: DensityOperator, measurements: list[Povm], measured_side: int
) -> Assemblage:
    """Assemblage prepared on the unmeasured side by measuring the other.

    ``sigma_{a|x} = tr_measured[(effect on measured side (x) identity) rho]``,
    one ``einsum`` over the effect stack of each setting.
    """
    if len(rho.dims) != 2:
        raise ValueError("steer requires a bipartite state")
    if measured_side not in (0, 1):
        raise ValueError(f"measured_side must be 0 or 1, got {measured_side}")
    d_meas = rho.dims[measured_side]
    d_keep = rho.dims[1 - measured_side]
    # rho as a (d0, d1, d0, d1) tensor; E_a contracts with the measured factor
    rho_t = rho.mat.reshape(rho.dims * 2)
    contraction = "aim,mjil->ajl" if measured_side == 0 else "ajm,imkj->aik"
    blocks = []
    for x, povm in enumerate(measurements):
        if povm.dim != d_meas:
            raise ValueError(
                f"measurement {x} acts on dim {povm.dim}, measured side has dim {d_meas}"
            )
        sigma = np.einsum(contraction, povm.effects, rho_t)
        blocks.append((sigma + dagger(sigma)) / 2.0)
    return Assemblage(tuple(blocks), d_keep, tuple(range(len(measurements))))


def apply_loss_to_assemblage(sigma: Assemblage, eta: float) -> Assemblage:
    """Send every conditional state through the transmission-eta loss channel.

    The output lives on dim+1 levels with the vacuum as the last index.
    Requires eta > 0 so that the mapping stays invertible by
    :func:`filter_loss`.
    """
    if not 0.0 < eta <= 1.0:
        raise ValueError(f"eta must lie in (0, 1], got {eta}")
    loss = Loss(eta, sigma.dim)
    blocks = tuple(loss.apply_to_matrix(row) for row in sigma.blocks)
    return Assemblage(blocks, sigma.dim + 1, sigma.settings)


def filter_loss(sigma_lossy: Assemblage, eta: float) -> Assemblage:
    """Undo :func:`apply_loss_to_assemblage`: rescale the leading block.

    Each entry is mapped to ``(1/eta) * (leading (d x d) block)``. The input
    must genuinely be of lossy form: conditional states may not carry
    coherences between the signal block and the vacuum level.
    """
    if not 0.0 < eta <= 1.0:
        raise ValueError(f"eta must lie in (0, 1], got {eta}")
    d = sigma_lossy.dim - 1
    if d < 1:
        raise ValueError("lossy assemblage must have dimension at least 2")
    for x, row in enumerate(sigma_lossy.blocks):
        coherence = np.maximum(np.abs(row[:, :d, d]).max(axis=1),
                               np.abs(row[:, d, :d]).max(axis=1))
        bad = np.flatnonzero(coherence > 1e-8)
        if bad.size:
            a = bad[0]
            raise ValueError(
                f"entry (a={a}, x={x}) has signal-vacuum coherence {coherence[a]:.2e}; "
                "input is not of lossy form"
            )
    blocks = tuple(row[:, :d, :d] / eta for row in sigma_lossy.blocks)
    if abs(np.trace(blocks[0].sum(axis=0)).real - 1.0) > 1e-8:
        raise ValueError(
            "filtered assemblage does not renormalize to unit trace; "
            "eta does not match the input's loss"
        )
    return Assemblage(blocks, d, sigma_lossy.settings)


def lhs_model_residual(sigma: Assemblage, model) -> float:
    """Worst-case deviation of an explicit local-hidden-state model.

    ``model`` is a list of ``(weight, hidden_state, response)`` triples where
    ``response[x][a]`` is the probability of outcome ``a`` given setting
    ``x`` and that hidden state. Returns the maximum Frobenius deviation
    between ``sigma_{a|x}`` and ``sum_lam weight * response[x][a] * hidden_state``;
    a residual at numerical tolerance certifies the assemblage unsteerable.
    """
    if not model:
        raise ValueError("model must contain at least one hidden state")
    weights = np.array([w for w, _, _ in model], dtype=float)
    if not is_distribution(weights, 1e-10):
        raise ValueError("model weights do not form a probability distribution")
    d = sigma.dim
    for i, (_, state, response) in enumerate(model):
        state = np.asarray(state, dtype=complex)
        if state.shape != (d, d):
            raise ValueError(f"hidden state {i} has wrong shape {state.shape}")
        if not is_psd(state, 1e-8) or abs(np.trace(state).real - 1.0) > 1e-8:
            raise ValueError(f"hidden state {i} is not a density operator")
        if len(response) != sigma.n_settings:
            raise ValueError(f"response table {i} does not cover all settings")
        for x, row in enumerate(response):
            row = np.asarray(row, dtype=float)
            if row.size != sigma.outcomes_per_setting[x]:
                raise ValueError(
                    f"response table {i} has wrong outcome count for setting {x}"
                )
            if not is_distribution(row, 1e-10):
                raise ValueError(
                    f"response table {i}, setting {x} is not a conditional distribution"
                )
    residual = 0.0
    for x in range(sigma.n_settings):
        for a in range(sigma.outcomes_per_setting[x]):
            predicted = np.zeros((d, d), dtype=complex)
            for w, state, response in model:
                predicted += w * float(response[x][a]) * np.asarray(state, dtype=complex)
            residual = max(residual, frobenius(sigma.entry(a, x) - predicted))
    return residual
