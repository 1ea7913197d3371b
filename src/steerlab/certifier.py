"""Joint-measurability certification against a fixed discrete parent POVM.

A set of target POVMs is certified jointly measurable by exhibiting
conditional distributions that post-process one parent POVM into every
target. With the parent fixed (here: a corrected Haar discretization of
the covariant parent), feasibility of the resulting linear program is a
*sufficient* criterion only; failure at tolerance is never proof of
incompatibility.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .covariant import HaarSampler, ResponseFunctionModel
from .linalg import dagger, inv_sqrt, is_distribution, psd_stack
from .lossy import NoiseParams, noisify_povm
from .objects import Povm

FEASIBLE = "feasible"
INFEASIBLE_AT_TOLERANCE = "infeasible-at-tolerance"

#: Default residual tolerance, sized for dense parents (>= 2000 atoms, d=2).
#: Discretization error dominates, so this is a mesh parameter, not an
#: exact joint-measurability claim.
DEFAULT_TOL = 1e-6


class SolverFailure(RuntimeError):
    """The LP solver did not converge; distinct from infeasibility at tolerance."""


def linprog(*args, **kwargs):
    """``scipy.optimize.linprog``, imported on call so that only the LP loads scipy."""
    from scipy import optimize

    return optimize.linprog(*args, **kwargs)


@dataclass(frozen=True, eq=False)
class DiscreteParent:
    """Finite parent POVM, optionally built from weighted pure-state atoms.

    For Haar discretizations, ``states`` holds the sampled atoms and
    ``correction`` the operator C with effects ``C ((d/n) |z><z|) C``
    making the sum exactly the identity. Parents given directly by their
    effects (for example the parent effects of an explicit model) leave the
    atom fields empty.
    """

    d: int
    effects: np.ndarray
    states: np.ndarray | None = None
    correction: np.ndarray | None = None
    seed: int | None = None

    def __post_init__(self):
        effects = np.asarray(self.effects, dtype=complex)
        if effects.ndim != 3 or effects.shape[1:] != (self.d, self.d):
            raise ValueError(
                f"effects must have shape (n, {self.d}, {self.d}), got {effects.shape}"
            )
        object.__setattr__(
            self, "effects", psd_stack(effects, range(len(effects)), "parent effect")
        )

    @property
    def n_atoms(self) -> int:
        return self.effects.shape[0]


def parent_from_states(states: np.ndarray, d: int, seed: int | None = None) -> DiscreteParent:
    """Parent POVM from explicit unit vectors with uniform weights.

    Raw effects ``(d/n) |z><z|`` are conjugated by S^(-1/2) (S the raw sum)
    so the corrected effects sum to the identity exactly. For symmetric
    frames (for example the qubit tetrahedron) the raw sum already is the
    identity and the correction is trivial.
    """
    states = np.asarray(states, dtype=complex)
    if states.ndim != 2 or states.shape[1] != d:
        raise ValueError(f"states must have shape (n, {d}), got {states.shape}")
    n_atoms = states.shape[0]
    # sum of |z><z| has entries sum_n z[j] conj(z[k])
    raw_sum = (d / n_atoms) * (states.T @ states.conj())
    correction = inv_sqrt(raw_sum)
    correction = (correction + dagger(correction)) / 2.0
    corrected = np.einsum("ij,nj,nk,kl->nil", correction, states * (d / n_atoms),
                          states.conj(), correction)
    corrected = (corrected + dagger(corrected)) / 2.0
    # absorb the final roundoff in the sum into the last atom
    corrected[-1] += np.eye(d) - corrected.sum(axis=0)
    return DiscreteParent(
        d=d, effects=corrected, states=states, correction=correction, seed=seed
    )


def discretize_parent(d: int, n_atoms: int, seed: int = 0) -> DiscreteParent:
    """Haar discretization of the covariant parent, corrected to an exact POVM.

    Samples ``n_atoms`` pure states with uniform weights ``1/n_atoms`` and
    corrects them via :func:`parent_from_states`.
    """
    if n_atoms < d * d:
        raise ValueError(f"need at least d^2 = {d * d} atoms, got {n_atoms}")
    sampler = HaarSampler(d=d, seed=seed)
    return parent_from_states(sampler.sample_array(n_atoms), d, seed=seed)


@dataclass(frozen=True, eq=False)
class JmCertificate:
    """Conditionals post-processing a fixed parent into the targets.

    ``conditionals[x]`` has shape (outcomes of setting x, n_atoms); its
    columns are probability distributions. ``residual`` is the largest
    Frobenius deviation over (outcome, setting) of the reconstruction from
    the target, recomputed from the stored conditionals.
    """

    parent: DiscreteParent
    conditionals: tuple[np.ndarray, ...]
    residual: float
    status: str
    tol: float

    def __post_init__(self):
        conds = []
        for x, table in enumerate(self.conditionals):
            table = np.asarray(table, dtype=float)
            if table.ndim != 2 or table.shape[1] != self.parent.n_atoms:
                raise ValueError(f"conditional table {x} has wrong shape {table.shape}")
            if not is_distribution(table, 1e-12):
                raise ValueError(f"conditional table {x} columns are not distributions")
            conds.append(table)
        object.__setattr__(self, "conditionals", tuple(conds))
        if self.status not in (FEASIBLE, INFEASIBLE_AT_TOLERANCE):
            raise ValueError(f"unknown status {self.status!r}")

    def to_document(self, emit_conditionals: bool = False) -> dict:
        doc = {
            "d": self.parent.d,
            "n_atoms": self.parent.n_atoms,
            "seed": self.parent.seed,
            "tol": self.tol,
            "residual": self.residual,
            "status": self.status,
        }
        if emit_conditionals:
            doc["conditionals"] = [table.tolist() for table in self.conditionals]
        return doc


def _reconstruction_residual(parent_effects, tables, target_stacks) -> float:
    """Largest Frobenius deviation of ``sum_n tables[x][a, n] parent_effects[n]``
    from ``target_stacks[x][a]``: of the targets' effects for a certificate,
    of an assemblage's settings for a hidden-state model."""
    residual = 0.0
    for table, effects in zip(tables, target_stacks):
        built = np.einsum("an,nij->aij", np.asarray(table, dtype=float), parent_effects)
        devs = np.linalg.norm(built - effects, axis=(1, 2))
        residual = np.maximum(residual, devs.max())  # carries a NaN forward
    return float(residual)


def _hermitian_components(mats) -> np.ndarray:
    """The d^2 real coordinates of each (..., d, d) Hermitian matrix.

    Real parts of the upper triangle (diagonal included, row-major), then
    imaginary parts of the strict upper triangle.
    """
    mats = np.asarray(mats)
    rows, cols = np.triu_indices(mats.shape[-1])
    strict = rows != cols
    return np.concatenate(
        [mats[..., rows, cols].real, mats[..., rows[strict], cols[strict]].imag], axis=-1
    )


def _certificate(parent, conditionals, targets, tol) -> JmCertificate:
    """Certificate whose status is decided by the recomputed residual."""
    residual = _reconstruction_residual(parent.effects, conditionals,
                                        [p.effects for p in targets])
    status = FEASIBLE if residual <= tol else INFEASIBLE_AT_TOLERANCE
    return JmCertificate(parent=parent, conditionals=tuple(conditionals),
                         residual=residual, status=status, tol=tol)


def _slack_outcomes(targets: list[Povm], parent: DiscreteParent) -> np.ndarray:
    """The slack outcome e_(x,lam) of each target x at each atom lam, as an (N, n) array.

    A discrete threshold response: for each target, the outcomes other than
    the heaviest take turns, lightest first. On its turn an outcome a takes
    the unassigned atoms with the largest ``tr(M_(a|x) E_lam) / tr(E_lam)``
    while their traces sum to at most ``tr M_(a|x)``. Every other atom keeps
    the heaviest outcome. The sorts are stable, so ties go to the lower index.
    """
    weights = np.trace(parent.effects, axis1=1, axis2=2).real
    slack = np.empty((len(targets), parent.n_atoms), dtype=int)
    for x, povm in enumerate(targets):
        traces = np.trace(povm.effects, axis1=1, axis2=2).real
        overlaps = np.einsum("aij,nji->an", povm.effects, parent.effects).real
        ratios = np.divide(overlaps, weights, out=np.zeros_like(overlaps), where=weights > 0)
        heaviest = np.argmax(traces)
        slack[x] = heaviest
        free = np.ones(parent.n_atoms, dtype=bool)
        for a in np.argsort(traces, kind="stable"):
            if a == heaviest:
                continue
            atoms = np.flatnonzero(free)
            atoms = atoms[np.argsort(-ratios[a, atoms], kind="stable")]
            atoms = atoms[: np.searchsorted(np.cumsum(weights[atoms]), traces[a], side="right")]
            slack[x, atoms] = a
            free[atoms] = False
    return slack


def _csc(n_rows, *columns):
    """CSC matrix from groups of columns, each (entries per column, rows, values).

    A group's entries are in column order, and its values broadcast to the
    shape of its rows. The groups are written into one int32 index array and
    one value array; the indices are then sorted within each column.
    """
    from scipy import sparse

    indptr = np.append(0, np.cumsum(np.concatenate([k for k, _, _ in columns])))
    indices, values = np.empty(indptr[-1], dtype=np.int32), np.empty(indptr[-1])
    start = 0
    for _, rows, vals in columns:
        stop = start + np.size(rows)
        indices[start:stop].reshape(np.shape(rows))[...] = rows
        values[start:stop].reshape(np.shape(rows))[...] = vals
        start = stop
    mat = sparse.csc_array((values, indices, indptr.astype(np.int32)),
                           shape=(n_rows, indptr.size - 1))
    mat.sort_indices()
    return mat


def _equality_rows(plus, minus, atom, comps, blocks):
    """A_eq = [S | -I | 0] of :func:`lp_feasibility`, with d^2 rows per block.

    Variable v has the column +C_(atom[v]) in row block plus[v] and
    -C_(atom[v]) in row block minus[v] of S; -1 marks no block.
    """
    d2 = comps.shape[0]
    ends = np.stack([plus, minus], axis=1)
    var, side = np.nonzero(ends >= 0)
    entries = comps.T[atom[var]]
    entries[side == 1] *= -1.0
    return _csc(blocks * d2,
                (d2 * np.count_nonzero(ends >= 0, axis=1),
                 d2 * ends[var, side][:, None] + np.arange(d2, dtype=ends.dtype), entries),
                (np.ones(blocks * d2, int), np.arange(blocks * d2), -1.0),
                ([0], np.zeros(0, int), 0.0))


def lp_feasibility(
    targets: list[Povm], parent: DiscreteParent, tol: float = DEFAULT_TOL
) -> JmCertificate:
    """Best post-processing of the parent into the targets, by linear program.

    Minimizes the largest deviation s over the d^2 Hermitian coordinates of
    ``sum_lam p(a|x,lam) E_lam - M_(a|x)`` (see :func:`_hermitian_components`)
    for all N outcomes, with the p(.|x,lam) distributions. At each atom lam,
    one outcome e_(x,lam) of each target is the slack of its normalization:
    p(e_(x,lam)|x,lam) = 1 - sum of the rest is no variable, so the LP starts
    from "atom lam reports e_(x,lam)". :func:`_slack_outcomes` chooses e_(x,lam)
    by the threshold rule of the covariant model: atoms with a large overlap
    with an outcome report it and the rest report the heaviest outcome h_x
    (largest trace, first on ties). Most atoms respond deterministically at
    the optimum, so this start lies near it and the dual simplex needs few
    pivots.

    The variables are the conditionals of the other outcomes, in target, slot
    and atom order: slot j < k_x - 1 of atom lam of target x holds p(a|x,lam)
    for the j-th outcome a != e_(x,lam). Then come the free deviations
    D_(a|x) = C p(a|x,.) - t_(a|x) of the f outcomes a != h_x; then s. With C
    and t the coordinates of the parent atoms (d^2 by n) and of the target
    effects, the LP is

        A_eq = [S | -I | 0],                            b_eq = t - C u of the free outcomes,
        A_ub = [0 | G (x) I_(d^2) (x) (1, -1)^T | -1],  b_ub = -o and o interleaved,
               [B (x) I_n | 0 | 0],                     b_ub = 1.

    Row block a of S gives the slot of p(b|x,lam) the column C_lam if b = a
    and -C_lam if a = e_(x,lam); u_(a,lam) is 1 where a = e_(x,lam), so the 1
    of p(e_(x,lam)|x,lam) = 1 - sum moves to b_eq. G (N by f) maps the free
    deviations to those of all N outcomes: 1 at each free outcome and -1 at
    its h_x, whose deviation is r_x - sum_(a != h_x) D_(a|x), with
    r_x = C 1 - sum_a t_(a|x) (round-off for valid POVMs) in o at h_x. B sums
    each atom's slots of every target that has any; each slack entry is
    rebuilt as clip(1 - sum, 0). Both matrices are built as CSC from index
    arrays. Another choice of e_(x,lam) is a change of variables of the same
    LP: the optimum is the same, only the starting vertex moves. Where the
    optimum is not unique, HiGHS returns one optimal vertex, so an infeasible
    instance's residual depends on that choice while the LP optimum does not.

    The certificate's recorded residual is the Frobenius-norm worst case
    recomputed from the cleaned conditionals; status is ``feasible`` iff it
    is at most ``tol``. Feasibility certifies joint measurability;
    infeasibility at tolerance proves nothing (the parent is fixed).

    Raises
    ------
    SolverFailure
        If the LP solver does not converge.
    """
    if not 0 <= tol < np.inf:
        raise ValueError(f"tol must be >= 0 and finite, got {tol}")
    if not targets:
        raise ValueError("at least one target POVM is required")
    d, n = parent.d, parent.n_atoms
    for x, povm in enumerate(targets):
        if povm.dim != d:
            raise ValueError(f"target {x} acts on dim {povm.dim}, parent on dim {d}")
    d2 = d * d
    counts = np.array([p.n_outcomes for p in targets])
    starts = np.cumsum(counts) - counts
    heaviest = starts + [np.argmax(np.trace(p.effects, axis1=1, axis2=2).real) for p in targets]
    slack = starts[:, None] + _slack_outcomes(targets, parent)  # e, as outcome indices
    kept = np.delete(np.arange(counts.sum()), heaviest)  # the f free outcomes
    f = kept.size
    owners = np.repeat(np.arange(len(targets), dtype=np.int32), counts - 1)  # their targets
    block = np.full(counts.sum(), -1, dtype=np.int32)
    block[kept] = np.arange(f)  # the A_eq row block of each free outcome
    comps = _hermitian_components(parent.effects).T  # C
    t = _hermitian_components(np.concatenate([p.effects for p in targets]))
    offset = np.zeros_like(t)  # o
    offset[heaviest] = comps.sum(axis=1) - np.add.reduceat(t, starts)

    slot, atom = np.divmod(np.arange(f * n, dtype=np.int32), n)  # of each conditional variable
    owner = owners[slot]
    outcome = slot + owner
    outcome += outcome >= slack[owner, atom]  # the slot-th outcome other than the slack one
    slack_block = block[slack]
    a_eq = _equality_rows(block[outcome], slack_block[owner, atom], atom, comps, f)
    b_eq = t[kept]
    moved = slack_block >= 0  # u: the atoms whose slack outcome has a row block
    np.subtract.at(b_eq, slack_block[moved], comps.T[np.nonzero(moved)[1]])
    # A_ub: each conditional in its <= 1 row; each coordinate of D_(a|x) +-1 in
    # the rows of outcome a and -+1 in those of h_x; s -1 in every +-D row
    n_dev = 2 * d2 * counts.sum()
    group = np.cumsum(counts > 1) - 1  # of the targets with a <= 1 row block
    dev_rows = d2 * np.stack([kept, heaviest[owners]], axis=1)[:, None, :, None]
    a_ub = _csc(n_dev + n * np.count_nonzero(counts > 1),
                (np.ones(f * n, int), n_dev + group[owner] * n + atom, 1.0),
                (np.full(f * d2, 4), 2 * (dev_rows + np.arange(d2)[:, None, None]) + [0, 1],
                 [[1.0, -1.0], [-1.0, 1.0]]),
                ([n_dev], np.arange(n_dev), -1.0))
    b_ub = np.append(np.stack([-offset, offset], axis=-1), np.ones(a_ub.shape[0] - n_dev))
    c = np.zeros(a_ub.shape[1])
    c[-1] = 1.0
    bounds = np.zeros((a_ub.shape[1], 2))  # conditionals and s >= 0, deviations free
    bounds[:, 1] = np.inf
    bounds[f * n:-1, 0] = -np.inf
    res = linprog(c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq.ravel(), bounds=bounds,
                  method="highs")
    if not res.success:
        raise SolverFailure(f"LP solver failed: {res.message}")

    tables = np.zeros((counts.sum(), n))
    tables[outcome, atom] = res.x[: f * n]
    tables[slack, np.arange(n)] = np.clip(1.0 - np.add.reduceat(tables, starts), 0.0, None)
    conditionals = []
    for table in np.split(tables, starts[1:]):
        table = np.clip(table, 0.0, None)
        col_sums = table.sum(axis=0)
        if np.any(col_sums < 0.5):
            raise SolverFailure("solver returned degenerate conditionals")
        conditionals.append(table / col_sums)
    return _certificate(parent, conditionals, targets, tol)


def verify_certificate(cert: JmCertificate, targets: list[Povm]) -> float:
    """Recompute the certificate's worst-case deviation, independent of the solver."""
    if len(targets) != len(cert.conditionals):
        raise ValueError("certificate does not cover the given number of targets")
    for x, (table, povm) in enumerate(zip(cert.conditionals, targets)):
        if table.shape[0] != povm.n_outcomes:
            raise ValueError(f"conditional table {x} does not match target outcomes")
        if povm.dim != cert.parent.d:
            raise ValueError(f"target {x} dimension does not match the parent")
    return _reconstruction_residual(cert.parent.effects, cert.conditionals,
                                    [p.effects for p in targets])


# ---------------------------------------------------------------------------
# Bridges from the explicit covariant model
# ---------------------------------------------------------------------------


def exact_certificate(
    model: ResponseFunctionModel, m: Povm, params: NoiseParams
) -> JmCertificate:
    """Exact finite certificate for one noisified target, from its model.

    The parent is the model's :meth:`~ResponseFunctionModel.parent_effects`
    and the conditionals its :meth:`~ResponseFunctionModel.relabelling`, so
    the reconstruction matches the noisified target analytically.
    """
    if model.target_labels != m.labels:
        raise ValueError(
            f"model outcome labels {model.target_labels} differ from the target's {m.labels}"
        )
    parent = DiscreteParent(d=model.d, effects=model.parent_effects())
    return _certificate(parent, [model.relabelling()], [noisify_povm(m, params)], DEFAULT_TOL)


def response_conditionals(
    model: ResponseFunctionModel, parent: DiscreteParent
) -> np.ndarray:
    """Evaluate the model's response probabilities at a parent's atom states.

    Gives a hand-built conditional table for the discretized parent; its
    reconstruction deviates from the target only by the parent's
    discretization (Monte Carlo) error.
    """
    if parent.states is None:
        raise ValueError("parent has no atom states to evaluate the response on")
    if parent.d != model.d:
        raise ValueError("model and parent dimensions differ")
    return model.response_probabilities(parent.states)
