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
from .linalg import dagger, inv_sqrt, psd_stack
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


@dataclass(frozen=True)
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
        devs = np.linalg.norm(built - povm.effects, axis=(1, 2))
        residual = max(residual, float(devs.max()))
    return residual


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
    ``sum_lam p(a|x,lam) E_lam - M_(a|x)`` (see :func:`_hermitian_components`),
    with the p(a|x,.) columns forming distributions. The variables are the
    conditionals, stacked target by target and outcome by outcome, each an
    n-vector over atoms, then s. With C the (d^2, n) coordinates of the
    parent atoms, S the rows of C and -C interleaved, and t the coordinates
    of all N target effects in the same order, the LP is the block build

        A_ub = [I_N (x) S | -1],   b_ub = t and -t interleaved,
        A_eq = [blockdiag_x(1_(n_x)^T (x) I_n) | 0],   b_eq = 1,

    where I_N (x) S is blockdiag_x(I_(n_x) (x) S). The certificate's
    recorded residual is the Frobenius-norm worst case recomputed from the
    cleaned conditionals; status is ``feasible`` iff it is at most ``tol``.
    Feasibility certifies joint measurability; infeasibility at tolerance
    proves nothing (the parent is fixed).

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
    counts = [p.n_outcomes for p in targets]
    comps = _hermitian_components(parent.effects).T
    signed = np.stack([comps, -comps], axis=1).reshape(-1, n)  # S: C and -C interleaved
    t = _hermitian_components(np.concatenate([p.effects for p in targets]))
    b_ub = np.stack([t, -t], axis=-1).ravel()
    a_ub = sparse.hstack([sparse.kron(sparse.identity(len(t)), signed),
                          np.full((b_ub.size, 1), -1.0)], format="csr")
    grouping = sparse.block_diag([np.ones((1, k)) for k in counts])
    a_eq = sparse.hstack([sparse.kron(grouping, sparse.identity(n)),
                          sparse.csr_matrix((grouping.shape[0] * n, 1))], format="csr")
    c = np.zeros(a_ub.shape[1])
    c[-1] = 1.0
    res = linprog(c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=np.ones(a_eq.shape[0]),
                  bounds=(0, None), method="highs")
    if not res.success:
        raise SolverFailure(f"LP solver failed: {res.message}")

    conditionals = []
    for table in np.split(res.x[:-1].reshape(-1, n), np.cumsum(counts)[:-1]):
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
