"""Joint-measurability certification against a fixed discrete parent POVM.

A set of target POVMs is certified jointly measurable by exhibiting
conditional distributions that post-process one parent POVM into every
target. With the parent fixed (here: a corrected Haar discretization of
the covariant parent), feasibility of the resulting linear program is a
*sufficient* criterion only; failure at tolerance is never proof of
incompatibility.

HiGHS's dual simplex solves the LP with no output, presolve off, scaling
off and a primal feasibility tolerance of 1e-9 (see :func:`linprog`); the
model goes over as arrays in one call. Only scipy's vendored HiGHS
extension loads, never ``scipy.optimize`` or ``scipy.sparse``.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .covariant import HaarSampler, ResponseFunctionModel
from .linalg import check_int, dagger, distributions, inv_sqrt, psd_stack
from .lossy import noisify_povm
from .objects import Povm

FEASIBLE = "feasible"
INFEASIBLE_AT_TOLERANCE = "infeasible-at-tolerance"

#: Default residual tolerance, sized for dense parents (>= 2000 atoms, d=2).
#: Discretization error dominates, so this is a mesh parameter, not an
#: exact joint-measurability claim.
DEFAULT_TOL = 1e-6


class SolverFailure(RuntimeError):
    """The LP solver did not converge; distinct from infeasibility at tolerance."""


#: The name of scipy's vendored HiGHS extension, under which it is loaded.
_HIGHS_MODULE = "scipy.optimize._highspy._core"

#: ``scipy.optimize._check_result``'s feasibility tolerance at its default ``tol``.
_RESULT_TOL = 10 * np.sqrt(1e-9)


@functools.cache
def _highspy():
    """scipy's vendored HiGHS extension, loaded alone on the first LP.

    The file is found through scipy's import spec and loaded under its own
    name, so neither ``scipy``, ``scipy.optimize`` nor ``scipy.sparse`` is
    imported, and a later ``import scipy.optimize`` still works.
    """
    spec = importlib.util.find_spec("scipy")
    if spec is None:
        raise SolverFailure("scipy is not installed, and the LP needs its HiGHS extension")
    folder = Path(spec.submodule_search_locations[0], "optimize", "_highspy")
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = folder / f"_core{suffix}"
        if path.is_file():
            loader = importlib.machinery.ExtensionFileLoader(_HIGHS_MODULE, str(path))
            module = importlib.util.module_from_spec(
                importlib.util.spec_from_file_location(_HIGHS_MODULE, path, loader=loader))
            loader.exec_module(module)
            return module
    raise SolverFailure(f"scipy's HiGHS extension _core is not in {folder}")


@functools.cache
def _highs_options():
    """The options of every :func:`linprog` solve, built once on the first
    LP; ``passOptions`` copies them into each solver."""
    h = _highspy()
    options = h.HighsOptions()
    options.presolve = "off"
    options.highs_debug_level = h.HighsDebugLevel.kHighsDebugLevelNone
    options.log_to_console = options.output_flag = False
    options.simplex_strategy = h.simplex_constants.SimplexStrategy.kSimplexStrategyDual
    options.simplex_scale_strategy = 0
    options.primal_feasibility_tolerance = 1e-9
    return options


class LpSolution(NamedTuple):
    """An optimal vertex: ``x``, objective ``fun`` and simplex iterations ``nit``."""

    x: np.ndarray
    fun: float
    nit: int


def linprog(c, *, A_ub, b_ub, A_eq, b_eq, bounds) -> LpSolution:
    """Minimize ``c x`` subject to ``A_ub x <= b_ub``, ``A_eq x = b_eq`` and
    ``bounds[:, 0] <= x <= bounds[:, 1]``.

    The matrices are :func:`_csc` records with the same columns. The rows
    ``A_ub`` over ``A_eq`` go to HiGHS as one column-wise model in one array
    ``passModel`` call; its dual simplex solves them with no output, as
    ``scipy.optimize.linprog(method="highs")`` does with the options
    ``presolve=False``, ``simplex_scale_strategy=0`` and
    ``primal_feasibility_tolerance=1e-9``. Presolve removed nothing from JM
    LPs of targets with more than two outcomes yet took a third of each
    solve; where it does reduce an LP, the vertex can differ while the
    optimum does not.

    Scaling is off because HiGHS's default equilibration scaling makes its
    dual simplex take many more iterations on JM LPs: 2,606 against 2,103
    over the benchmark's twelve LPs, 2,638 against 786 at d=3 with 1,000
    atoms, and 32,958 against 1,517 (about 50 s against 1 s on two vCPUs) at
    d=7 with 2,000 atoms. The optimum agrees within HiGHS's dual tolerance
    of 1e-7; the vertex can differ. The primal feasibility tolerance is
    1e-9, not HiGHS's 1e-7, to keep feasible certificates at round-off:
    unscaled at 1e-7, a conditional of a benchmark certificate ended 5e-8
    outside its bound and its residual read 7.7e-8. A solution that misses
    a bound or a row by more than ``10 sqrt(1e-9)`` is not accepted.

    Raises
    ------
    SolverFailure
        If HiGHS is missing, fails, or does not report an acceptable optimum.
    """
    h = _highspy()
    n_ub, n_cols = A_ub.shape
    # the column-wise stack: each column's entries of A_ub, then of A_eq
    start = A_ub.indptr + A_eq.indptr
    index, value = np.empty(start[-1], dtype=np.int32), np.empty(start[-1])
    for mat, before, shift in ((A_ub, A_eq.indptr[:-1], 0), (A_eq, A_ub.indptr[1:], n_ub)):
        at = np.arange(mat.nnz) + np.repeat(before, np.diff(mat.indptr))
        index[at], value[at] = mat.indices + shift, mat.values
    # an empty integrality array makes passModel fail, so it holds one 0 per column
    model = (n_cols, n_ub + A_eq.shape[0], start[-1], h.MatrixFormat.kColwise,
             h.ObjSense.kMinimize, 0.0, c, *np.ascontiguousarray(bounds.T),
             np.append(np.full(n_ub, -np.inf), b_eq), np.append(b_ub, b_eq),
             start[:-1], index, value, np.zeros(n_cols, np.int32))

    highs = h._Highs()
    for step, args in ((highs.passOptions, (_highs_options(),)), (highs.passModel, model),
                       (highs.run, ())):
        if step(*args) == h.HighsStatus.kError:
            raise SolverFailure(f"HiGHS {step.__name__} failed with model status "
                                f"{highs.modelStatusToString(highs.getModelStatus())}")
    if highs.getModelStatus() != h.HighsModelStatus.kOptimal:
        raise SolverFailure(
            f"LP solver failed: {highs.modelStatusToString(highs.getModelStatus())}")
    info, solution = highs.getInfo(), highs.getSolution()
    x, rows = np.array(solution.col_value), np.array(solution.row_value)
    fun = info.objective_function_value
    slack, con = b_ub - rows[:n_ub], b_eq - rows[n_ub:]
    # every comparison with a NaN is False, so a NaN fails the check
    if np.isnan(fun) or not (np.all(bounds[:, 0] - _RESULT_TOL <= x)
                             and np.all(x <= bounds[:, 1] + _RESULT_TOL)
                             and np.all(slack >= -_RESULT_TOL)
                             and np.all(np.abs(con) <= _RESULT_TOL)):
        raise SolverFailure("LP solver failed: the solution misses the constraints by "
                            f"more than {_RESULT_TOL:.2e}")
    return LpSolution(x, fun, info.simplex_iteration_count)


@dataclass(frozen=True, eq=False)
class DiscreteParent:
    """Finite parent POVM on d levels: one (n, d, d) stack of effects.

    For Haar discretizations, ``seed`` is the seed the atoms were drawn
    with: ``HaarSampler(d, seed).sample_array(n_atoms)`` draws them again.
    Parents given directly by their effects (for example the parent effects
    of an explicit model) leave it empty.
    """

    effects: np.ndarray
    seed: int | None = None

    def __post_init__(self):
        if np.ndim(self.effects) != 3:
            raise ValueError(f"parent effects must form one (n, d, d) stack, "
                             f"got shape {np.shape(self.effects)}")
        object.__setattr__(self, "effects", psd_stack(self.effects, range(len(self.effects)),
                                                      "parent effect"))
        if self.seed is not None:
            object.__setattr__(self, "seed", check_int("seed", self.seed, 0))

    @property
    def d(self) -> int:
        return self.effects.shape[-1]

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
    return DiscreteParent(corrected, seed)


def discretize_parent(d: int, n_atoms: int, seed: int = 0) -> DiscreteParent:
    """Haar discretization of the covariant parent, corrected to an exact POVM.

    Samples ``n_atoms`` pure states with uniform weights ``1/n_atoms`` and
    corrects them via :func:`parent_from_states`.
    """
    d = check_int("dimension d", d, 1)
    check_int("atom count n_atoms", n_atoms, d * d)
    sampler = HaarSampler(d=d, seed=seed)
    return parent_from_states(sampler.sample_array(n_atoms), d, seed=seed)


@dataclass(frozen=True, eq=False)
class JmCertificate:
    """Conditionals post-processing a fixed parent into the targets.

    ``conditionals[x]`` has shape (outcomes of setting x, n_atoms); its
    columns are probability distributions. ``residual`` is the largest
    Frobenius deviation over (outcome, setting) of the reconstruction from
    the target, recomputed from the stored conditionals; ``status`` is
    ``feasible`` iff it is at most ``tol`` (a NaN residual is not).
    """

    parent: DiscreteParent
    conditionals: tuple[np.ndarray, ...]
    residual: float
    tol: float

    def __post_init__(self):
        conds = []
        for x, table in enumerate(self.conditionals):
            table = np.asarray(table, dtype=float)
            if table.ndim != 2 or table.shape[1] != self.parent.n_atoms:
                raise ValueError(f"conditional table {x} has wrong shape {table.shape}")
            if not distributions(table, 1e-12).all():
                raise ValueError(f"conditional table {x} columns are not distributions")
            conds.append(table)
        object.__setattr__(self, "conditionals", tuple(conds))

    @property
    def status(self) -> str:
        return FEASIBLE if self.residual <= self.tol else INFEASIBLE_AT_TOLERANCE

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
    """Certificate carrying the residual recomputed from its conditionals."""
    residual = _reconstruction_residual(parent.effects, conditionals,
                                        [p.effects for p in targets])
    return JmCertificate(parent, tuple(conditionals), residual, tol)


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


class Csc(NamedTuple):
    """A sparse matrix in compressed sparse column form, row indices sorted
    within each column; ``shape`` holds Python ints."""

    shape: tuple[int, int]
    indptr: np.ndarray
    indices: np.ndarray
    values: np.ndarray

    @property
    def nnz(self) -> int:
        return int(self.indptr[-1])


def _csc(n_rows, *columns) -> Csc:
    """CSC matrix from groups of columns, each (entries per column, rows, values).

    A group's entries are in column order, and its values broadcast to the
    shape of its rows. The groups are written into one int32 index array and
    one value array; the indices are then sorted within each column.
    """
    indptr = np.append(0, np.cumsum(np.concatenate([k for k, _, _ in columns]))).astype(np.int32)
    indices, values = np.empty(indptr[-1], dtype=np.int32), np.empty(indptr[-1])
    start = 0
    for _, rows, vals in columns:
        stop = start + np.size(rows)
        indices[start:stop].reshape(np.shape(rows))[...] = rows
        values[start:stop].reshape(np.shape(rows))[...] = vals
        start = stop
    n_cols = indptr.size - 1
    order = np.argsort(np.repeat(np.arange(n_cols) * int(n_rows), np.diff(indptr)) + indices,
                       kind="stable")
    return Csc((int(n_rows), n_cols), indptr, indices[order], values[order])


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
    if isinstance(tol, (bool, np.bool_)):
        raise ValueError(f"tol must be a number, got {tol}")
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
    res = linprog(c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq.ravel(), bounds=bounds)

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
# The bridge from the explicit covariant model
# ---------------------------------------------------------------------------


def exact_certificate(model: ResponseFunctionModel) -> JmCertificate:
    """Exact finite certificate for the model's noisified target.

    The parent is the model's :meth:`~ResponseFunctionModel.parent_effects`
    and the conditionals its :meth:`~ResponseFunctionModel.relabelling`, so
    the reconstruction matches the noisified target analytically.
    """
    return _certificate(DiscreteParent(model.parent_effects()), [model.relabelling()],
                        [noisify_povm(model.target, model.params)], DEFAULT_TOL)
