"""Steering thresholds and classification of the (eta, p) parameter plane.

Both certification conditions are sufficient only, so the plane carries
four labels: both conditions hold (one-way steering with full dimension
certified on one side and unsteerability on the other), exactly one holds,
or neither does.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .linalg import check_int, check_unit


class RegionLabel(Enum):
    UNLIMITED_ONE_WAY = "UNLIMITED_ONE_WAY"
    D_STEERABLE_ONLY = "D_STEERABLE_ONLY"
    UNSTEERABLE_B_TO_A_ONLY = "UNSTEERABLE_B_TO_A_ONLY"
    UNDETERMINED = "UNDETERMINED"


def p_threshold_all(d: int) -> float:
    """Visibility above which full-dimension steering is certified with all
    measurements: (d sqrt(d/(d+1)) - 1)/(d - 1). The inequality is strict."""
    check_int("dimension d", d, 2)
    return (d * np.sqrt(d / (d + 1.0)) - 1.0) / (d - 1.0)


def p_threshold_two_mubs(d: int) -> float:
    """Visibility at which a pair of mutually unbiased bases certifies
    full-dimension steering: ((d + sqrt(d) - 1) sqrt(d-1) - 1) /
    ((d-1)(sqrt(d-1) + 1))."""
    check_int("dimension d", d, 2)
    rd = np.sqrt(float(d))
    rdm1 = np.sqrt(d - 1.0)
    return ((d + rd - 1.0) * rdm1 - 1.0) / ((d - 1.0) * (rdm1 + 1.0))


def eta_unsteerable_bound(d: int, p):
    """Transmission below which the lossy-noisy side is unsteerable: (1-p)^(d-1).
    The inequality is non-strict. ``p`` may be a float or an array."""
    check_int("dimension d", d, 2)
    check_unit("p", p)
    return (1.0 - p) ** (d - 1)


#: Relative slack on the transmission bound comparison. Boundary equality
#: certifies unsteerability, and points equal to the bound in exact
#: arithmetic can land a few ulp above it in floating point; the slack is
#: relative so the exponentially small bounds at large d stay sharp.
_BOUND_RTOL = 1e-12


def certified_unsteerable(d: int, eta, p):
    """Does the transmission satisfy eta <= (1-p)^(d-1) (boundary included)?
    Broadcasts over arrays of ``eta`` and ``p``."""
    return eta <= eta_unsteerable_bound(d, p) * (1.0 + _BOUND_RTOL)


def certified_d_steerable(d: int, eta, p):
    """Strict visibility threshold plus a positive transmission for the filter.
    Broadcasts over arrays of ``eta`` and ``p``."""
    return (p > p_threshold_all(d)) & (eta > 0.0)


#: The decision table: labels indexed by 2 * d-steerable + unsteerable.
_REGIONS = np.array(
    [RegionLabel.UNDETERMINED, RegionLabel.UNSTEERABLE_B_TO_A_ONLY,
     RegionLabel.D_STEERABLE_ONLY, RegionLabel.UNLIMITED_ONE_WAY], dtype=object)


def _region_code(d: int, eta, p):
    """Index into :data:`_REGIONS` of each point (or array of points)."""
    return 2 * certified_d_steerable(d, eta, p) + certified_unsteerable(d, eta, p)


def classify(d: int, eta: float, p: float) -> RegionLabel:
    """Apply both sufficient conditions to one parameter point.

    Full-dimension steering needs strict ``p > p_threshold_all(d)`` and a
    positive transmission (the loss filter requires eta > 0); the
    unsteerability certificate needs ``eta <= (1-p)^(d-1)``. Points
    satisfying neither are UNDETERMINED, not declared anything.
    """
    check_unit("eta", eta)
    check_unit("p", p)
    return _REGIONS[_region_code(d, eta, p)]


def eta_grid(d: int, grid_n: int) -> np.ndarray:
    """Transmission grid: uniform in u with eta = u^(d-1) (linear for d=2).

    The certified overlap region sits at transmissions of order
    (1-p)^(d-1), exponentially thin in d; gridding the transmission axis
    in the same power renders it at every dimension with the same
    resolution. For d=2 this is precisely the uniform grid on [0, 1].
    """
    u = np.linspace(0.0, 1.0, grid_n + 1)
    return u ** (d - 1)


@dataclass(frozen=True, eq=False)
class PhaseDiagram:
    """Region labels of the (eta, p) plane, held as its two axes and one code
    per cell.

    ``codes[i, j]`` indexes :data:`_REGIONS` (2 * d-steerable + unsteerable)
    at ``(etas[i], ps[j])``. The diagram is also the sequence of its cells:
    ``len()`` counts them and iteration yields ``(eta, p, RegionLabel)``
    row-major in eta then p, with Python floats.
    """

    etas: np.ndarray
    ps: np.ndarray
    codes: np.ndarray

    def __len__(self) -> int:
        return self.codes.size

    def __iter__(self):
        labels = _REGIONS.tolist()
        ps = self.ps.tolist()
        for eta, row in zip(self.etas.tolist(), self.codes.tolist()):
            for p, code in zip(ps, row):
                yield eta, p, labels[code]

    def cell_counts(self) -> dict[str, int]:
        """Cells per label value, keyed in row-major order of first occurrence."""
        flat = self.codes.ravel()
        counts = np.bincount(flat, minlength=len(_REGIONS))
        present = np.flatnonzero(counts).tolist()
        present.sort(key=lambda code: np.argmax(flat == code))
        return {_REGIONS[code].value: int(counts[code]) for code in present}


def phase_diagram(d: int, grid_n: int) -> PhaseDiagram:
    """Label the (eta, p) plane on a (grid_n+1)^2 grid.

    The p axis is the uniform grid on [0, 1]; the eta axis is the power
    grid of :func:`eta_grid`. For d <= 16 and grid_n >= 200 the tabulation
    is guaranteed to contain at least one UNLIMITED_ONE_WAY cell, and that
    is checked.
    """
    check_int("grid_n", grid_n, 2)
    check_int("dimension d", d, 2)
    etas = eta_grid(d, grid_n)
    ps = np.linspace(0.0, 1.0, grid_n + 1)
    codes = _region_code(d, etas[:, None], ps[None, :])
    # code 3: both conditions hold
    if d <= 16 and grid_n >= 200 and not np.any(codes == 3):
        raise RuntimeError(
            f"no UNLIMITED_ONE_WAY cell found for d={d} at grid {grid_n}; "
            "this contradicts the guaranteed nonempty overlap"
        )
    return PhaseDiagram(etas, ps, codes)


def phase_diagram_csv(diagram: PhaseDiagram) -> str:
    """Render a phase diagram as CSV with 17 significant digits.

    Each axis value and label is formatted once; a line is the text of its
    eta, its p and its label. Lines are joined one grid row at a time, so
    only one row of line strings is alive at once.
    """
    eta_text = [f"{eta:.17g}," for eta in diagram.etas.tolist()]
    p_text = [f"{p:.17g}," for p in diagram.ps.tolist()]
    label_text = [f"{label.value}\n" for label in _REGIONS]
    rows = ["".join([eta + p + label_text[code] for p, code in zip(p_text, row)])
            for eta, row in zip(eta_text, diagram.codes.tolist())]
    return "".join(["eta,p,label\n", *rows])
