"""Steering assemblages, loss on assemblages, and the conditional filter
that undoes it, plus verification of explicit local-hidden-state models.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import (
    check_int,
    check_unit,
    dagger,
    distributions,
    entries_to_matrix,
    first_false,
    frobenius_each,
    locate,
    matrix_to_entries,
    psd_stack,
)
from .certifier import _reconstruction_residual
from .objects import DensityOperator, Loss, Povm


def _entry_names(counts) -> list[str]:
    """Names ``a=.., x=..`` of the entries of settings with ``counts[x]`` outcomes, in turn."""
    return [f"a={a}, x={x}" for x, n in enumerate(counts) for a in range(n)]


def check_entries(entries, counts) -> np.ndarray:
    """Read-only copy of validated (..., N, d, d) arrays of assemblage entries.

    These are all the value checks of an :class:`Assemblage`. The N entries
    along axis -3 hold the settings in turn, ``counts[x]`` outcomes each,
    named ``a=.., x=..`` in errors. Every entry must be Hermitian and PSD
    within 1e-10 (:func:`~steerlab.linalg.psd_stack`); the outcome sums of
    all settings must agree within 1e-10 in Frobenius norm (no signalling)
    and have unit trace within 1e-10. Leading axes index independent
    assemblages, located in errors as :func:`~steerlab.linalg.locate` does.
    """
    stack = psd_stack(entries, _entry_names(counts), "entry", sums_to_identity=False)
    sums = np.add.reduceat(stack, np.cumsum(counts) - counts, axis=-3)
    bad = first_false(frobenius_each(sums[..., 1:, :, :] - sums[..., :1, :, :]) <= 1e-10)
    if bad is not None:
        raise ValueError(f"assemblage{locate(bad[:-1])} signals: outcome sums of "
                         f"settings 0 and {bad[-1] + 1} differ")
    bad = first_false(np.abs(np.trace(sums[..., 0, :, :], axis1=-2, axis2=-1).real - 1.0)
                      <= 1e-10)
    if bad is not None:
        raise ValueError(f"outcome sum of the assemblage{locate(bad)} does not have unit trace")
    return stack


@dataclass(frozen=True, eq=False)
class Assemblage:
    """Subnormalized conditional states sigma_{a|x} indexed by
    (outcome a, setting x).

    ``blocks[x]`` is a read-only complex (n_x, dim, dim) array whose entry
    ``a`` is the conditional state for outcome ``a`` of setting ``x``;
    settings may have different outcome counts, but all blocks share one
    ``dim``. Valid assemblages are nonsignaling: the outcome sum is one
    common unit-trace state for every setting.
    """

    blocks: tuple[np.ndarray, ...]
    settings: tuple

    def __post_init__(self):
        rows = [np.asarray(row, dtype=complex) for row in self.blocks]
        if not rows:
            raise ValueError("assemblage needs at least one setting")
        dim = rows[0].shape[-1] if rows[0].ndim else 0
        for x, row in enumerate(rows):
            if row.ndim != 3 or row.shape[1:] != (dim, dim) or not len(row):
                raise ValueError(f"setting {x} has shape {row.shape}, "
                                 f"expected (n, {dim}, {dim}) with n >= 1")
        settings = tuple(self.settings)
        if len(settings) != len(rows):
            raise ValueError("settings list does not match number of blocks")
        counts = [len(row) for row in rows]
        stack = check_entries(np.concatenate(rows), counts)
        blocks = tuple(np.split(stack, np.cumsum(counts)[:-1]))
        object.__setattr__(self, "blocks", blocks)
        object.__setattr__(self, "settings", settings)

    @classmethod
    def _from_checked(cls, entries: np.ndarray, counts, settings) -> "Assemblage":
        """The assemblage of a (N, dim, dim) array that :func:`check_entries`
        returned for ``counts``, one setting per count, without running its
        checks again."""
        sigma = object.__new__(cls)
        object.__setattr__(sigma, "blocks", tuple(np.split(entries, np.cumsum(counts)[:-1])))
        object.__setattr__(sigma, "settings", tuple(settings))
        return sigma

    @property
    def dim(self) -> int:
        return self.blocks[0].shape[-1]

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
        """Inverse of :meth:`to_document`. The entries of each setting may
        come in any order, but their ``a`` must be exactly 0..n_x-1."""
        try:
            dim = check_int("malformed assemblage document: dim", doc["dim"], 1)
            settings = list(doc["settings"])
            for x, setting in enumerate(settings):
                if setting in settings[:x]:
                    raise ValueError(f"setting {setting!r} appears twice in settings")
            rows: list[list] = [[] for _ in settings]
            for e in doc["entries"]:
                if e["x"] not in settings:
                    raise ValueError(f"an entry has setting {e['x']!r}, which is not in "
                                     f"settings {settings}")
                x = settings.index(e["x"])
                a = check_int("malformed assemblage document: entry a", e["a"], 0)
                rows[x].append((a, entries_to_matrix(e["matrix"], dim, dim)))
        except TypeError as exc:
            raise ValueError(f"malformed assemblage document: {exc}") from exc
        for x, row in enumerate(rows):
            row.sort(key=lambda entry: entry[0])
            if [a for a, _ in row] != list(range(len(row))):
                raise ValueError(f"the entries of setting {settings[x]!r} must carry "
                                 f"a = 0..n-1 once each, got {[a for a, _ in row]}")
        return cls(tuple(tuple(mat for _, mat in row) for row in rows), settings)


def steer_entries(effects, rho_t, measured_side: int, counts) -> np.ndarray:
    """Checked conditional states ``tr_measured[(E_a (x) I) rho]``, Hermitian-symmetrized.

    ``effects`` is a (..., N, dm, dm) array of effects on the measured side,
    laid out by setting as in :func:`check_entries`, and ``rho_t`` a
    (..., d0, d1, d0, d1) array of bipartite states as tensors; leading axes
    broadcast. Returns (..., N, dk, dk), dk the unmeasured side's dimension,
    from one ``einsum`` and one :func:`check_entries`.
    """
    # E_a contracts with the measured factor of the (d0, d1, d0, d1) tensor
    contraction = "...aim,...mjil->...ajl" if measured_side == 0 else "...ajm,...imkj->...aik"
    sigma = np.einsum(contraction, effects, rho_t)
    return check_entries((sigma + dagger(sigma)) / 2.0, counts)


def steer(
    rho: DensityOperator, measurements: list[Povm], measured_side: int
) -> Assemblage:
    """Assemblage prepared on the unmeasured side by measuring the other.

    ``sigma_{a|x} = tr_measured[(effect on measured side (x) identity) rho]``,
    one :func:`steer_entries` over the effects of all settings.
    """
    if len(rho.dims) != 2:
        raise ValueError("steer requires a bipartite state")
    if measured_side not in (0, 1):
        raise ValueError(f"measured_side must be 0 or 1, got {measured_side}")
    if not measurements:
        raise ValueError("assemblage needs at least one setting")
    d_meas = rho.dims[measured_side]
    for x, povm in enumerate(measurements):
        if povm.dim != d_meas:
            raise ValueError(
                f"measurement {x} acts on dim {povm.dim}, measured side has dim {d_meas}"
            )
    counts = [povm.n_outcomes for povm in measurements]
    entries = steer_entries(np.concatenate([povm.effects for povm in measurements]),
                            rho.mat.reshape(rho.dims * 2), measured_side, counts)
    return Assemblage._from_checked(entries, counts, range(len(measurements)))


def _check_eta(eta: float) -> None:
    check_unit("transmission eta", eta)
    if eta == 0.0:
        raise ValueError(f"transmission eta must be > 0, got {eta}")


def lossy_entries(entries, eta: float, counts) -> np.ndarray:
    """Checked (..., N, d+1, d+1) arrays of assemblage entries, laid out as
    in :func:`check_entries`, from (..., N, d, d) ones sent through the
    transmission-eta loss channel, the vacuum as the last index. Requires
    eta > 0 so that :func:`filter_entries` can invert it."""
    _check_eta(eta)
    return check_entries(Loss(eta, entries.shape[-1]).apply_to_matrix(entries), counts)


def apply_loss_to_assemblage(sigma: Assemblage, eta: float) -> Assemblage:
    """Send every conditional state through the transmission-eta loss channel.

    The output lives on dim+1 levels with the vacuum as the last index
    (:func:`lossy_entries` on all entries).
    """
    counts = sigma.outcomes_per_setting
    entries = lossy_entries(np.concatenate(sigma.blocks), eta, counts)
    return Assemblage._from_checked(entries, counts, sigma.settings)


def filter_entries(entries, eta: float, counts) -> np.ndarray:
    """Undo :func:`lossy_entries` on (..., N, d+1, d+1) arrays of lossy entries.

    Entries are laid out and named as in :func:`check_entries`. Each is
    mapped to ``(1/eta) * (leading (d x d) block)``. Every entry must be of
    lossy form, with no coherence above 1e-8 between the signal block and
    the vacuum level, and the filtered outcome sum of setting 0 must
    renormalize to unit trace within 1e-8; the filtered entries are then
    checked as :func:`check_entries` does. Errors locate an entry of a
    stack as :func:`~steerlab.linalg.locate` does.
    """
    _check_eta(eta)
    d = check_int("lossy assemblage dimension", entries.shape[-1], 2) - 1
    coherence = np.maximum(np.abs(entries[..., :d, d]).max(axis=-1),
                           np.abs(entries[..., d, :d]).max(axis=-1))
    bad = first_false(coherence <= 1e-8)
    if bad is not None:
        raise ValueError(
            f"entry ({_entry_names(counts)[bad[-1]]}){locate(bad[:-1])} has "
            f"signal-vacuum coherence {coherence[bad]:.2e}; input is not of lossy form"
        )
    filtered = entries[..., :d, :d] / eta
    trace = np.trace(filtered[..., :counts[0], :, :].sum(axis=-3), axis1=-2, axis2=-1).real
    bad = first_false(np.abs(trace - 1.0) <= 1e-8)
    if bad is not None:
        raise ValueError(
            f"filtered assemblage{locate(bad)} does not renormalize to unit trace; "
            "eta does not match the input's loss"
        )
    return check_entries(filtered, counts)


def filter_loss(sigma_lossy: Assemblage, eta: float) -> Assemblage:
    """Undo :func:`apply_loss_to_assemblage`: rescale the leading block.

    Each entry is mapped to ``(1/eta) * (leading (d x d) block)``; the input
    must genuinely be of lossy form (see :func:`filter_entries`).
    """
    counts = sigma_lossy.outcomes_per_setting
    entries = filter_entries(np.concatenate(sigma_lossy.blocks), eta, counts)
    return Assemblage._from_checked(entries, counts, sigma_lossy.settings)


def lhs_model_residual(sigma: Assemblage, ensemble, responses) -> float:
    """Worst-case deviation of an explicit local-hidden-state model.

    ``ensemble`` is an (n, dim, dim) array of subnormalized hidden states
    ``p(lam) rho_lam``, each Hermitian and PSD within 1e-10, of total trace 1
    within 1e-10. ``responses[x]`` is an (outcomes of x, n) table whose column
    lam is the distribution p(.|x, lam): the layout of
    :attr:`~steerlab.certifier.JmCertificate.conditionals`. So a certificate
    of measurements pulled back through the channel of
    :func:`~steerlab.objects.one_way_state` is a model of the assemblage they
    steer on the other side as it stands:
    ``lhs_model_residual(sigma, parent.effects.transpose(0, 2, 1) / d, cert.conditionals)``.
    Returns the largest Frobenius deviation of ``sum_lam p(a|x,lam) p(lam) rho_lam``
    from ``sigma_{a|x}``, from the certificate's residual kernel; a residual
    at numerical tolerance certifies the assemblage unsteerable.
    """
    if np.ndim(ensemble) != 3 or np.shape(ensemble)[1:] != (sigma.dim, sigma.dim):
        raise ValueError(f"ensemble has shape {np.shape(ensemble)}, "
                         f"expected (n, {sigma.dim}, {sigma.dim})")
    ensemble = psd_stack(ensemble, range(len(ensemble)), "hidden state", sums_to_identity=False)
    if not abs(np.trace(ensemble.sum(axis=0)).real - 1.0) <= 1e-10:
        raise ValueError("hidden states do not have total trace 1 within 1e-10")
    if len(responses) != sigma.n_settings:
        raise ValueError(f"{len(responses)} response tables for {sigma.n_settings} settings")
    tables = [np.asarray(table, dtype=float) for table in responses]
    for x, table in enumerate(tables):
        if table.shape != (sigma.outcomes_per_setting[x], len(ensemble)):
            raise ValueError(f"response table {x} has shape {table.shape}, expected "
                             f"({sigma.outcomes_per_setting[x]}, {len(ensemble)})")
        if not distributions(table, 1e-10).all():
            raise ValueError(f"response table {x} columns are not distributions")
    return _reconstruction_residual(ensemble, tables, sigma.blocks)
