from decimal import Decimal, getcontext

import numpy as np
import pytest

from steerlab.analysis import (
    RegionLabel,
    ThresholdReport,
    classify,
    eta_grid,
    eta_unsteerable_bound,
    p_threshold_all,
    p_threshold_two_mubs,
    phase_diagram,
    phase_diagram_csv,
)


def _decimal_p_all(d: int) -> Decimal:
    getcontext().prec = 50
    dd = Decimal(d)
    return (dd * (dd / (dd + 1)).sqrt() - 1) / (dd - 1)


def _decimal_p_mubs(d: int) -> Decimal:
    getcontext().prec = 50
    dd = Decimal(d)
    return ((dd + dd.sqrt() - 1) * (dd - 1).sqrt() - 1) / ((dd - 1) * ((dd - 1).sqrt() + 1))


# values frozen from the 50-digit oracles above
P_ALL_FROZEN = {2: 0.6329931618554521, 3: 0.7990381056766580, 4: 0.8592362546665545}
P_MUBS_FROZEN = {2: 0.7071067811865475, 3: 0.8859855926176457, 4: 0.9346158590977894}


def test_p_threshold_all_frozen_values():
    for d, want in P_ALL_FROZEN.items():
        assert abs(p_threshold_all(d) - want) < 1e-12
        assert abs(p_threshold_all(d) - float(_decimal_p_all(d))) < 1e-12


def test_p_threshold_two_mubs_frozen_values():
    for d, want in P_MUBS_FROZEN.items():
        assert abs(p_threshold_two_mubs(d) - want) < 1e-12
        assert abs(p_threshold_two_mubs(d) - float(_decimal_p_mubs(d))) < 1e-12


def test_thresholds_reject_small_d():
    with pytest.raises(ValueError):
        p_threshold_all(1)
    with pytest.raises(ValueError):
        p_threshold_two_mubs(1)


def test_thresholds_in_unit_interval_and_increasing():
    prev_all, prev_mubs = 0.0, 0.0
    for d in range(2, 51):
        a = p_threshold_all(d)
        m = p_threshold_two_mubs(d)
        assert 0.0 < a < 1.0
        assert 0.0 < m < 1.0
        assert a > prev_all
        assert m >= prev_mubs
        assert m >= a  # the practical witness is weaker
        prev_all, prev_mubs = a, m


def test_eta_bound_values():
    assert eta_unsteerable_bound(2, 0.0) == 1.0
    assert abs(eta_unsteerable_bound(3, 0.5) - 0.25) < 1e-15


def test_eta_bound_decreasing():
    ps = np.linspace(0.0, 0.99, 34)
    for d in range(2, 9):
        vals = [eta_unsteerable_bound(d, p) for p in ps]
        assert np.all(np.diff(vals) < 0)
    for p in (0.1, 0.5, 0.9):
        vals = [eta_unsteerable_bound(d, p) for d in range(2, 9)]
        assert np.all(np.diff(vals) < 0)


def test_threshold_report_document():
    report = ThresholdReport(3)
    doc = report.to_document()
    assert doc["d"] == 3
    assert abs(doc["p_all_meas"] - P_ALL_FROZEN[3]) < 1e-12
    assert abs(eta_unsteerable_bound(report.d, 0.5) - 0.25) < 1e-15


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------


def test_classify_examples():
    assert classify(3, 0.01, 0.9) is RegionLabel.UNLIMITED_ONE_WAY
    assert classify(3, 0.5, 0.9) is RegionLabel.D_STEERABLE_ONLY
    assert classify(3, 0.3, 0.2) is RegionLabel.UNSTEERABLE_B_TO_A_ONLY


def test_classify_boundaries():
    # threshold visibility is strict, the transmission bound is not
    d = 3
    p_star = p_threshold_all(d)
    assert classify(d, 1.0, p_star) is not RegionLabel.D_STEERABLE_ONLY
    p = 0.9
    bound = eta_unsteerable_bound(d, p)
    assert classify(d, bound, p) is RegionLabel.UNLIMITED_ONE_WAY
    assert classify(d, bound * (1 + 1e-9), p) is RegionLabel.D_STEERABLE_ONLY
    # zero transmission never certifies steering
    assert classify(d, 0.0, 0.99) is RegionLabel.UNSTEERABLE_B_TO_A_ONLY


def test_classify_consistent_with_inequalities():
    rng = np.random.default_rng(0)
    for d in (2, 3, 5, 8):
        thresh = p_threshold_all(d)
        for _ in range(10_000):
            eta, p = rng.random(), rng.random()
            label = classify(d, eta, p)
            d_steer = p > thresh and eta > 0.0
            unsteer = eta <= (1.0 - p) ** (d - 1)
            want = {
                (True, True): RegionLabel.UNLIMITED_ONE_WAY,
                (True, False): RegionLabel.D_STEERABLE_ONLY,
                (False, True): RegionLabel.UNSTEERABLE_B_TO_A_ONLY,
                (False, False): RegionLabel.UNDETERMINED,
            }[(d_steer, unsteer)]
            assert label is want


def test_classify_rejects_bad_params():
    with pytest.raises(ValueError):
        classify(3, -0.1, 0.5)
    with pytest.raises(ValueError):
        classify(3, 0.5, 1.1)


def test_nonempty_overlap_exists_analytically():
    # a point strictly above the visibility threshold, at the transmission
    # bound, is always classified as unlimited one-way
    for d in range(2, 17):
        p = (p_threshold_all(d) + 1.0) / 2.0
        eta = eta_unsteerable_bound(d, p)
        assert eta > 0.0
        assert classify(d, eta, p) is RegionLabel.UNLIMITED_ONE_WAY


# ---------------------------------------------------------------------------
# phase diagram
# ---------------------------------------------------------------------------


def test_eta_grid_linear_for_d2():
    grid = eta_grid(2, 10)
    assert np.allclose(grid, np.linspace(0.0, 1.0, 11))


def test_phase_diagram_shape_and_order():
    rows = phase_diagram(2, 10)
    assert len(rows) == 121
    # row-major in eta then p
    etas = eta_grid(2, 10)
    ps = np.linspace(0.0, 1.0, 11)
    for k, (eta, p, _) in enumerate(rows):
        assert eta == etas[k // 11]
        assert p == ps[k % 11]


def test_phase_diagram_d2_region_nonempty():
    rows = phase_diagram(2, 200)
    unlimited = [r for r in rows if r[2] is RegionLabel.UNLIMITED_ONE_WAY]
    assert unlimited
    # e.g. p slightly above the threshold with eta = 1 - p
    assert any(abs(eta - (1 - p)) < 1e-12 for eta, p, _ in unlimited)


def test_phase_diagram_eta_zero_never_unlimited():
    for d in (2, 3):
        rows = phase_diagram(d, 50 if d > 2 else 200)
        for eta, _, label in rows:
            if eta == 0.0:
                assert label is not RegionLabel.UNLIMITED_ONE_WAY


def test_phase_diagram_unlimited_fraction_shrinks():
    fractions = []
    for d in range(2, 9):
        rows = phase_diagram(d, 200)
        count = sum(1 for r in rows if r[2] is RegionLabel.UNLIMITED_ONE_WAY)
        fractions.append(count / len(rows))
    assert all(a > b for a, b in zip(fractions, fractions[1:]))


def test_phase_diagram_rejects_bad_grid():
    with pytest.raises(ValueError):
        phase_diagram(2, 1)


def test_phase_diagram_csv_format():
    rows = phase_diagram(2, 2)
    text = phase_diagram_csv(rows)
    lines = text.strip().split("\n")
    assert lines[0] == "eta,p,label"
    assert len(lines) == 10
    eta, p, label = lines[1].split(",")
    assert label in {lab.value for lab in RegionLabel}
    assert float(eta) == 0.0 and float(p) == 0.0
    # 17 significant digits are preserved bit-stably
    third = lines[5].split(",")[1]
    assert float(third) == 0.5
