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


def _reconstruction_residual(
    parent: DiscreteParent, conditionals, targets: list[Povm]
) -> float:
    residual = 0.0
    for table, povm in zip(conditionals, targets):
        built = np.einsum("an,nij->aij", np.asarray(table, dtype=float), parent.effects)
        devs = np.linalg.norm(built - povm.effects, axis=(1, 2))
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
    residual = _reconstruction_residual(parent, conditionals, targets)
    status = FEASIBLE if residual <= tol else INFEASIBLE_AT_TOLERANCE
    return JmCertificate(parent=parent, conditionals=tuple(conditionals),
                         residual=residual, status=status, tol=tol)


def lp_feasibility(
    targets: list[Povm], parent: DiscreteParent, tol: float = DEFAULT_TOL
) -> JmCertificate:
    """Best post-processing of the parent into the targets, by linear program.

    Minimizes the largest deviation s over the d^2 Hermitian coordinates of
    ``sum_lam p(a|x,lam) E_lam - M_(a|x)`` (see :func:`_hermitian_components`)
    for all N outcomes, with the p(.|x,lam) distributions. Each target's
    heaviest outcome e_x (largest trace, first on ties) is the slack of its
    normalization: p(e_x|x,.) = 1 - sum of the rest is no variable, so the
    start "every atom reports e_x" is feasible. The variables are the
    conditionals p(a|x,.) of the f free outcomes a != e_x, in target and
    outcome order, each an n-vector over atoms; their free deviations
    D_(a|x) = C p(a|x,.) - t_(a|x); then s. With C and t the coordinates of
    the parent atoms (d^2 by n) and of the target effects, the LP is

        A_eq = [I_f (x) C | -I | 0],                    b_eq = t of the free outcomes,
        A_ub = [0 | G (x) I_(d^2) (x) (1, -1)^T | -1],  b_ub = -o and o interleaved,
               [B (x) I_n | 0 | 0],                     b_ub = 1.

    G (N by f) maps the free deviations to those of all N outcomes: 1 at
    each free outcome and -1 at its e_x, whose deviation is
    r_x - sum_(a != e_x) D_(a|x), with r_x = C 1 - sum_a t_(a|x) (round-off
    for valid POVMs) in o at e_x. B sums the free conditionals of each
    target that has any; each eliminated row is rebuilt as clip(1 - B p, 0).
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
    from scipy import sparse

    if not targets:
        raise ValueError("at least one target POVM is required")
    d, n = parent.d, parent.n_atoms
    for x, povm in enumerate(targets):
        if povm.dim != d:
            raise ValueError(f"target {x} acts on dim {povm.dim}, parent on dim {d}")
    counts = np.array([p.n_outcomes for p in targets])
    starts = np.cumsum(counts) - counts
    heaviest = starts + [np.argmax(np.trace(p.effects, axis1=1, axis2=2).real) for p in targets]
    kept = np.delete(np.arange(counts.sum()), heaviest)  # the f free outcomes
    owner = np.repeat(np.arange(len(targets)), counts - 1)  # their targets
    free = np.arange(kept.size)
    comps = _hermitian_components(parent.effects).T  # C
    t = _hermitian_components(np.concatenate([p.effects for p in targets]))
    offset = np.zeros_like(t)  # o
    offset[heaviest] = comps.sum(axis=1) - np.add.reduceat(t, starts)
    spread = sparse.csr_matrix(  # G
        (np.repeat([1.0, -1.0], kept.size), (np.append(kept, heaviest[owner]), np.tile(free, 2))),
        shape=(t.shape[0], kept.size))
    grouping = sparse.csr_matrix((np.ones(kept.size), (owner, free)),
                                 shape=(len(targets), kept.size))  # B
    signed = sparse.kron(spread, sparse.kron(sparse.identity(d * d), [[1.0], [-1.0]]))
    normalization = sparse.kron(grouping[counts > 1], sparse.identity(n))
    a_ub = sparse.bmat([[None, signed, np.full((signed.shape[0], 1), -1.0)],
                        [normalization, None, None]], format="csr")
    b_ub = np.append(np.stack([-offset, offset], axis=-1), np.ones(normalization.shape[0]))
    a_eq = sparse.hstack([sparse.kron(sparse.identity(kept.size), comps),
                          -sparse.identity(kept.size * d * d),
                          sparse.csr_matrix((kept.size * d * d, 1))], format="csr")
    c = np.zeros(a_ub.shape[1])
    c[-1] = 1.0
    bounds = np.zeros((a_ub.shape[1], 2))  # conditionals and s >= 0, deviations free
    bounds[:, 1] = np.inf
    bounds[kept.size * n:-1, 0] = -np.inf
    res = linprog(c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=t[kept].ravel(), bounds=bounds,
                  method="highs")
    if not res.success:
        raise SolverFailure(f"LP solver failed: {res.message}")

    tables = np.empty((counts.sum(), n))
    tables[kept] = res.x[: kept.size * n].reshape(-1, n)
    tables[heaviest] = np.clip(1.0 - grouping @ tables[kept], 0.0, None)
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
    return _reconstruction_residual(cert.parent, cert.conditionals, targets)


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
