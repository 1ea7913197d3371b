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


class RegionLabel(Enum):
    UNLIMITED_ONE_WAY = "UNLIMITED_ONE_WAY"
    D_STEERABLE_ONLY = "D_STEERABLE_ONLY"
    UNSTEERABLE_B_TO_A_ONLY = "UNSTEERABLE_B_TO_A_ONLY"
    UNDETERMINED = "UNDETERMINED"


def p_threshold_all(d: int) -> float:
    """Visibility above which full-dimension steering is certified with all
    measurements: (d sqrt(d/(d+1)) - 1)/(d - 1). The inequality is strict."""
    if d < 2:
        raise ValueError(f"dimension must be >= 2, got {d}")
    return (d * np.sqrt(d / (d + 1.0)) - 1.0) / (d - 1.0)


def p_threshold_two_mubs(d: int) -> float:
    """Visibility at which a pair of mutually unbiased bases certifies
    full-dimension steering: ((d + sqrt(d) - 1) sqrt(d-1) - 1) /
    ((d-1)(sqrt(d-1) + 1))."""
    if d < 2:
        raise ValueError(f"dimension must be >= 2, got {d}")
    rd = np.sqrt(float(d))
    rdm1 = np.sqrt(d - 1.0)
    return ((d + rd - 1.0) * rdm1 - 1.0) / ((d - 1.0) * (rdm1 + 1.0))


def _check_unit(name: str, x) -> None:
    """Reject any value outside [0, 1] (NaN included)."""
    x = np.asarray(x)
    if np.any(~((x >= 0.0) & (x <= 1.0))):
        raise ValueError(f"{name} must lie in [0, 1], got {x}")


def eta_unsteerable_bound(d: int, p):
    """Transmission below which the lossy-noisy side is unsteerable: (1-p)^(d-1).
    The inequality is non-strict. ``p`` may be a float or an array."""
    if d < 2:
        raise ValueError(f"dimension must be >= 2, got {d}")
    _check_unit("p", p)
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


def _region(d: int, eta, p):
    """Label of each point (or array of points) from both sufficient conditions."""
    return _REGIONS[2 * certified_d_steerable(d, eta, p) + certified_unsteerable(d, eta, p)]


@dataclass(frozen=True)
class ThresholdReport:
    """Certification thresholds for one dimension."""

    d: int
    p_all_meas: float
    p_two_mubs: float

    def eta_bound_at(self, p: float) -> float:
        return eta_unsteerable_bound(self.d, p)

    def to_document(self) -> dict:
        return {
            "d": self.d,
            "p_all_meas": self.p_all_meas,
            "p_two_mubs": self.p_two_mubs,
            "eta_bound_formula": "(1-p)^(d-1)",
        }


def threshold_report(d: int) -> ThresholdReport:
    return ThresholdReport(
        d=d, p_all_meas=p_threshold_all(d), p_two_mubs=p_threshold_two_mubs(d)
    )


def classify(d: int, eta: float, p: float) -> RegionLabel:
    """Apply both sufficient conditions to one parameter point.

    Full-dimension steering needs strict ``p > p_threshold_all(d)`` and a
    positive transmission (the loss filter requires eta > 0); the
    unsteerability certificate needs ``eta <= (1-p)^(d-1)``. Points
    satisfying neither are UNDETERMINED, not declared anything.
    """
    _check_unit("eta", eta)
    _check_unit("p", p)
    return _region(d, eta, p)


def eta_grid(d: int, grid_n: int) -> np.ndarray:
    """Transmission grid: uniform in u with eta = u^(d-1) (linear for d=2).

    The certified overlap region sits at transmissions of order
    (1-p)^(d-1), exponentially thin in d; gridding the transmission axis
    in the same power renders it at every dimension with the same
    resolution. For d=2 this is precisely the uniform grid on [0, 1].
    """
    u = np.linspace(0.0, 1.0, grid_n + 1)
    return u ** (d - 1)


def phase_diagram(d: int, grid_n: int) -> list[tuple[float, float, RegionLabel]]:
    """Label the (eta, p) plane on a (grid_n+1)^2 grid.

    Rows are ordered row-major in eta then p. The p axis is the uniform
    grid on [0, 1]; the eta axis is the power grid of :func:`eta_grid`.
    For d <= 16 and grid_n >= 200 the tabulation is guaranteed to contain
    at least one UNLIMITED_ONE_WAY cell, and that is checked.
    """
    if grid_n < 2:
        raise ValueError(f"grid_n must be >= 2, got {grid_n}")
    if d < 2:
        raise ValueError(f"dimension must be >= 2, got {d}")
    etas = eta_grid(d, grid_n)
    ps = np.linspace(0.0, 1.0, grid_n + 1)
    labels = _region(d, etas[:, None], ps[None, :])
    rows = [
        (float(eta), float(p), label)
        for eta, row in zip(etas, labels)
        for p, label in zip(ps, row)
    ]
    if d <= 16 and grid_n >= 200 and not np.any(labels == RegionLabel.UNLIMITED_ONE_WAY):
        raise RuntimeError(
            f"no UNLIMITED_ONE_WAY cell found for d={d} at grid {grid_n}; "
            "this contradicts the guaranteed nonempty overlap"
        )
    return rows


def phase_diagram_csv(rows: list[tuple[float, float, RegionLabel]]) -> str:
    """Render phase-diagram rows as CSV with 17 significant digits."""
    lines = ["eta,p,label"]
    for eta, p, label in rows:
        lines.append(f"{eta:.17g},{p:.17g},{label.value}")
    return "\n".join(lines) + "\n"
