"""Joint-measurability certification against a fixed discrete parent POVM.

A set of target POVMs is certified jointly measurable by exhibiting
conditional distributions that post-process one parent POVM into every
target. With the parent fixed (here: a corrected Haar discretization of
the covariant parent), feasibility of the resulting linear program is a
*sufficient* criterion only; failure at tolerance is never proof of
incompatibility.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import sparse
from scipy.optimize import linprog

from .covariant import HaarSampler, ResponseFunctionModel
from .linalg import dagger, frobenius, inv_sqrt
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


@dataclass(frozen=True)
class DiscreteParent:
    """Finite parent POVM, optionally built from weighted pure-state atoms.

    For Haar discretizations, ``states``/``weights`` hold the sampled atoms
    and ``correction`` the operator C with effects ``C (w d |z><z|) C``
    making the sum exactly the identity. Parents given directly by their
    effects (for example the fine-grained simulated effects of an explicit
    model) leave the atom fields empty.
    """

    d: int
    effects: np.ndarray
    states: np.ndarray | None = None
    weights: np.ndarray | None = None
    correction: np.ndarray | None = None
    seed: int | None = None

    def __post_init__(self):
        effects = np.asarray(self.effects, dtype=complex)
        if effects.ndim != 3 or effects.shape[1:] != (self.d, self.d):
            raise ValueError(
                f"effects must have shape (n, {self.d}, {self.d}), got {effects.shape}"
            )
        total = effects.sum(axis=0)
        if frobenius(total - np.eye(self.d)) > 1e-10:
            raise ValueError("parent effects do not sum to the identity within 1e-10")
        herm_dev = np.max(np.abs(effects - np.transpose(effects.conj(), (0, 2, 1))))
        if herm_dev > 1e-10:
            raise ValueError("parent effects are not Hermitian within 1e-10")
        min_eig = np.min(np.linalg.eigvalsh(effects))
        if min_eig < -1e-10:
            raise ValueError(f"parent effect has negative eigenvalue {min_eig:.2e}")
        object.__setattr__(self, "effects", effects)

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
    corrected = (corrected + np.transpose(corrected.conj(), (0, 2, 1))) / 2.0
    # absorb the final roundoff in the sum into the last atom
    corrected[-1] += np.eye(d) - corrected.sum(axis=0)
    weights = np.full(n_atoms, 1.0 / n_atoms)
    return DiscreteParent(
        d=d,
        effects=corrected,
        states=states,
        weights=weights,
        correction=correction,
        seed=seed,
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


@dataclass(frozen=True)
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
    target_labels: tuple[tuple, ...] = field(default=())

    def __post_init__(self):
        conds = []
        for x, table in enumerate(self.conditionals):
            table = np.asarray(table, dtype=float)
            if table.ndim != 2 or table.shape[1] != self.parent.n_atoms:
                raise ValueError(f"conditional table {x} has wrong shape {table.shape}")
            if np.any(table < -1e-12):
                raise ValueError(f"conditional table {x} has negative entries")
            if np.max(np.abs(table.sum(axis=0) - 1.0)) > 1e-12:
                raise ValueError(f"conditional table {x} columns do not sum to 1")
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


def _reconstruction_residual(
    parent: DiscreteParent, conditionals, targets: list[Povm]
) -> float:
    residual = 0.0
    for table, povm in zip(conditionals, targets):
        built = np.einsum("an,nij->aij", np.asarray(table, dtype=float), parent.effects)
        devs = np.linalg.norm(built - povm.matrices(), axis=(1, 2))
        residual = max(residual, float(devs.max()))
    return residual


def lp_feasibility(
    targets: list[Povm], parent: DiscreteParent, tol: float = DEFAULT_TOL
) -> JmCertificate:
    """Best post-processing of the parent into the targets, by linear program.

    Minimizes the largest entrywise deviation s subject to
    ``|(sum_lam p(a|x,lam) E_lam - M_(a|x))_ij| <= s`` for all real and
    imaginary parts, with the p(a|x,.) columns forming distributions.
    The certificate's recorded residual is the Frobenius-norm worst case
    recomputed from the cleaned conditionals; status is ``feasible`` iff it
    is at most ``tol``. Feasibility certifies joint measurability;
    infeasibility at tolerance proves nothing (the parent is fixed).

    Raises
    ------
    SolverFailure
        If the LP solver does not converge.
    """
    if not targets:
        raise ValueError("at least one target POVM is required")
    d = parent.d
    for x, povm in enumerate(targets):
        if povm.dim != d:
            raise ValueError(f"target {x} acts on dim {povm.dim}, parent on dim {d}")
    n = parent.n_atoms
    outcome_counts = [p.n_outcomes for p in targets]
    offsets = np.concatenate([[0], np.cumsum([c * n for c in outcome_counts])])
    n_p = int(offsets[-1])
    s_col = n_p  # the single objective variable

    # scalar components of the parent effects, per (i, j) entry
    iu, ju = np.triu_indices(d)
    strict = iu != ju
    comp_cols = []  # (coefficient vector over atoms, target value extractor)
    for i, j in zip(iu, ju):
        comp_cols.append(("re", i, j, parent.effects[:, i, j].real))
    for i, j in zip(iu[strict], ju[strict]):
        comp_cols.append(("im", i, j, parent.effects[:, i, j].imag))

    rows, cols, vals = [], [], []
    b_ub = []
    row = 0
    for x, povm in enumerate(targets):
        for a in range(outcome_counts[x]):
            var0 = int(offsets[x]) + a * n
            mat = povm.effects[a][1]
            for part, i, j, coeff in comp_cols:
                target_val = float(mat[i, j].real if part == "re" else mat[i, j].imag)
                idx = np.arange(var0, var0 + n)
                # + deviation <= s
                rows.extend([row] * (n + 1))
                cols.extend(idx.tolist() + [s_col])
                vals.extend(coeff.tolist() + [-1.0])
                b_ub.append(target_val)
                row += 1
                # - deviation <= s
                rows.extend([row] * (n + 1))
                cols.extend(idx.tolist() + [s_col])
                vals.extend((-coeff).tolist() + [-1.0])
                b_ub.append(-target_val)
                row += 1
    a_ub = sparse.coo_matrix((vals, (rows, cols)), shape=(row, n_p + 1)).tocsr()

    eq_rows, eq_cols = [], []
    r = 0
    for x in range(len(targets)):
        for lam in range(n):
            for a in range(outcome_counts[x]):
                eq_rows.append(r)
                eq_cols.append(int(offsets[x]) + a * n + lam)
            r += 1
    a_eq = sparse.coo_matrix(
        (np.ones(len(eq_rows)), (eq_rows, eq_cols)), shape=(r, n_p + 1)
    ).tocsr()
    b_eq = np.ones(r)

    c = np.zeros(n_p + 1)
    c[s_col] = 1.0
    res = linprog(
        c,
        A_ub=a_ub,
        b_ub=np.array(b_ub),
        A_eq=a_eq,
        b_eq=b_eq,
        bounds=(0, None),
        method="highs",
    )
    if not res.success:
        raise SolverFailure(f"LP solver failed: {res.message}")

    conditionals = []
    for x, count in enumerate(outcome_counts):
        table = res.x[int(offsets[x]): int(offsets[x]) + count * n].reshape(count, n)
        table = np.clip(table, 0.0, None)
        col_sums = table.sum(axis=0)
        if np.any(col_sums < 0.5):
            raise SolverFailure("solver returned degenerate conditionals")
        conditionals.append(table / col_sums)
    residual = _reconstruction_residual(parent, conditionals, targets)
    status = FEASIBLE if residual <= tol else INFEASIBLE_AT_TOLERANCE
    return JmCertificate(
        parent=parent,
        conditionals=tuple(conditionals),
        residual=residual,
        status=status,
        tol=tol,
        target_labels=tuple(p.labels for p in targets),
    )


def verify_certificate(cert: JmCertificate, targets: list[Povm]) -> float:
    """Recompute the certificate's worst-case deviation, independent of the solver."""
    if len(targets) != len(cert.conditionals):
        raise ValueError("certificate does not cover the given number of targets")
    for x, (table, povm) in enumerate(zip(cert.conditionals, targets)):
        if table.shape[0] != povm.n_outcomes:
            raise ValueError(f"conditional table {x} does not match target outcomes")
        if povm.dim != cert.parent.d:
            raise ValueError(f"target {x} dimension does not match the parent")
    return _reconstruction_residual(cert.parent, cert.conditionals, targets)


# ---------------------------------------------------------------------------
# Bridges from the explicit covariant model
# ---------------------------------------------------------------------------


def exact_certificate(
    model: ResponseFunctionModel, m: Povm, params: NoiseParams
) -> JmCertificate:
    """Exact finite certificate for one noisified target, from its model.

    The parent is the model's own fine-grained simulated POVM (the
    rank-one pieces' effects plus the no-click remainder); the
    conditionals are the deterministic relabeling the model prescribes.
    The reconstruction then matches the noisified target analytically.
    """
    fine = model.simulated_fine_effects()
    eye = np.eye(model.d, dtype=complex)
    effects = np.stack(fine + [eye - sum(fine)])
    parent = DiscreteParent(d=model.d, effects=effects)
    target = noisify_povm(m, params)
    labels = list(target.labels)
    table = np.zeros((len(labels), len(fine) + 1))
    keep = 1.0 - model.vacuum_mix
    for piece, label in enumerate(model.piece_labels):
        table[labels.index(label), piece] = keep
        table[-1, piece] = model.vacuum_mix
    table[-1, len(fine)] = 1.0
    residual = _reconstruction_residual(parent, [table], [target])
    return JmCertificate(
        parent=parent,
        conditionals=(table,),
        residual=residual,
        status=FEASIBLE if residual <= DEFAULT_TOL else INFEASIBLE_AT_TOLERANCE,
        tol=DEFAULT_TOL,
        target_labels=(target.labels,),
    )


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
