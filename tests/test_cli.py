import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import steerlab
from steerlab import analysis, certifier
from steerlab.certifier import JmCertificate, discretize_parent, verify_certificate
from steerlab.cli import main
from steerlab.lossy import NoiseParams, noisify_povm
from steerlab.objects import mub_pair


def _run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_thresholds_command(capsys):
    code, out = _run(capsys, "thresholds", "--d", "2")
    assert code == 0
    doc = json.loads(out)
    assert abs(doc["p_all_meas"] - 0.6329931618554521) < 1e-12
    assert abs(doc["p_two_mubs"] - 0.7071067811865475) < 1e-12


def test_thresholds_validation_error(capsys):
    code = main(["thresholds", "--d", "1"])
    assert code == 2
    assert "error" in capsys.readouterr().err


def test_phase_diagram_command(tmp_path, capsys):
    out_path = tmp_path / "pd.csv"
    code, out = _run(capsys, "phase-diagram", "--d", "2", "--grid", "50",
                     "--out", str(out_path))
    assert code == 0
    lines = out_path.read_text().strip().split("\n")
    assert lines[0] == "eta,p,label"
    assert len(lines) == 51 * 51 + 1
    doc = json.loads(out)
    assert doc["rows"] == 51 * 51


@settings(max_examples=40, deadline=None)
@given(d=st.integers(2, 16), grid=st.integers(2, 60))
@example(d=2, grid=2)
@example(d=16, grid=60)  # eta spans 1e-27..1 at the largest d and grid
def test_phase_diagram_matches_per_cell_oracle(d, grid):
    diagram = analysis.phase_diagram(d, grid)
    rows = list(diagram)
    assert len(diagram) == len(rows) == (grid + 1) ** 2
    etas = analysis.eta_grid(d, grid)
    ps = np.linspace(0.0, 1.0, grid + 1)
    counts = {}
    for k, (eta, p, label) in enumerate(rows):
        assert type(eta) is float and type(p) is float
        assert eta == etas[k // (grid + 1)] and p == ps[k % (grid + 1)]
        assert label is analysis.classify(d, eta, p)
        counts[label.value] = counts.get(label.value, 0) + 1
    oracle = "eta,p,label\n" + "".join(f"{e:.17g},{p:.17g},{lab.value}\n"
                                        for e, p, lab in rows)
    assert analysis.phase_diagram_csv(diagram) == oracle

    with tempfile.TemporaryDirectory() as tmp:
        out_path = os.path.join(tmp, "pd.csv")
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = main(["phase-diagram", "--d", str(d), "--grid", str(grid),
                         "--out", out_path])
        assert code == 0
        with open(out_path, encoding="utf-8") as fh:
            assert fh.read() == oracle
    doc = json.loads(stdout.getvalue())
    # keys in row-major order of first occurrence, as the per-cell count made them
    assert list(doc["cells"].items()) == list(counts.items())


@pytest.mark.parametrize("d, grid, digest", [
    (7, 200, "764093849e3777f337820633d78ae6ba0e80c263ceaf9ac1da90e9c415442800"),
    (2, 1000, "12e8e442d1a226db1188b71c059c13a925563a428c3dc3df3ff300db1059904c"),
])
def test_phase_diagram_csv_digest(tmp_path, capsys, d, grid, digest):
    out_path = tmp_path / "pd.csv"
    code, _ = _run(capsys, "phase-diagram", "--d", str(d), "--grid", str(grid),
                   "--out", str(out_path))
    assert code == 0
    assert hashlib.sha256(out_path.read_bytes()).hexdigest() == digest


def test_phase_diagram_out_of_memory_exits_2(tmp_path, capsys, monkeypatch):
    def too_large(d, grid_n):
        raise MemoryError("Unable to allocate 9.31 GiB for an array")

    monkeypatch.setattr(analysis, "phase_diagram", too_large)
    code = main(["phase-diagram", "--d", "2", "--grid", "100000",
                 "--out", str(tmp_path / "pd.csv")])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "Unable to allocate" in captured.err


def test_worker_count_env_must_be_an_integer(capsys, monkeypatch):
    monkeypatch.setenv("STEERLAB_THREADS", "abc")
    code = main(["simulate-povm", "--d", "2", "--t", "0.3", "--samples", "10",
                 "--seed", "1"])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: STEERLAB_THREADS must be an integer >= 1, got 'abc'" in captured.err


def test_state_command(tmp_path, capsys):
    emit = tmp_path / "state.json"
    code, out = _run(capsys, "state", "--d", "2", "--eta", "0.5", "--p", "0.7",
                     "--emit", str(emit))
    assert code == 0
    doc = json.loads(out)
    assert doc["state"]["dims"] == [2, 3]
    assert doc["validity"]["trace_deviation"] < 1e-12
    assert doc["validity"]["min_eigenvalue"] > -1e-12
    assert doc["validity"]["reduced_a_vs_max_mixed"] < 1e-12
    on_disk = json.loads(emit.read_text())
    assert on_disk == doc


def test_state_rejects_bad_params(capsys):
    assert main(["state", "--d", "2", "--eta", "1.5", "--p", "0.5"]) == 2
    capsys.readouterr()


def test_simulate_povm_command(capsys):
    code, out = _run(capsys, "simulate-povm", "--d", "2", "--t", "0.3",
                     "--samples", "40000", "--seed", "5")
    assert code == 0
    doc = json.loads(out)
    assert doc["n"] == 40000
    assert doc["max_sigma_deviation"] < 4.0
    assert len(doc["estimate"]) == 4
    assert len(doc["stderr"]["real"]) == 4 and len(doc["stderr"]["imag"]) == 4
    assert len(doc["analytic"]) == 4


def _strict_json(text):
    """Parse JSON, refusing the non-standard constants NaN and Infinity."""
    def refuse(name):
        raise ValueError(f"non-standard JSON constant {name}")
    return json.loads(text, parse_constant=refuse)


def test_simulate_povm_reports_infinite_deviation_as_null(capsys):
    # no sample passes t=0.99, so every stderr is 0 while the analytic
    # effect is not: the deviation is infinite
    code, out = _run(capsys, "simulate-povm", "--d", "5", "--t", "0.99",
                     "--samples", "10", "--seed", "1")
    assert code == 0
    doc = _strict_json(out)
    assert doc["max_sigma_deviation"] is None
    assert doc["estimate"] == [[0.0, 0.0]] * 25


def test_jm_certify_requires_nonnegative_tol(capsys, monkeypatch):
    argv = ["jm-certify", "--d", "2", "--eta", "0.5", "--p", "0.5", "--atoms", "50",
            "--targets", "builtin:mubs", "--tol"]
    with monkeypatch.context() as mp:
        mp.setattr(certifier, "linprog", lambda *a, **k: pytest.fail("linprog was called"))
        for tol in ("nan", "-1", "inf"):
            assert main([*argv, tol]) == 2
            captured = capsys.readouterr()
            assert captured.out == "" and "tol must be >= 0" in captured.err
    code, out = _run(capsys, *argv, "0")
    assert code == 0
    assert _strict_json(out)["tol"] == 0.0


def test_jm_certify_builtin_mubs(capsys):
    code, out = _run(capsys, "jm-certify", "--d", "2", "--eta", "0.5", "--p", "0.5",
                     "--atoms", "300", "--targets", "builtin:mubs", "--tol", "1e-4")
    assert code == 0
    doc = json.loads(out)
    assert doc["status"] == "feasible"
    assert doc["residual"] <= 1e-4
    assert doc["n_atoms"] == 300 and doc["seed"] == 0
    assert "conditionals" not in doc
    assert abs(doc["verified_residual"] - doc["residual"]) < 1e-12


def test_jm_certify_emit_conditionals(capsys):
    code, out = _run(capsys, "jm-certify", "--d", "2", "--eta", "0.4", "--p", "0.6",
                     "--atoms", "150", "--targets", "builtin:mubs", "--tol", "1e-4",
                     "--emit-conditionals")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["conditionals"]) == 2
    table = np.array(doc["conditionals"][0])
    assert table.shape == (3, 150)
    assert np.max(np.abs(table.sum(axis=0) - 1.0)) < 1e-12


def test_jm_certificate_verifies_after_json_roundtrip(capsys):
    # the printed conditionals and a parent rebuilt from (d, atoms, seed)
    # reproduce the printed residual exactly
    d, atoms, seed = 2, 300, 3
    for eta, p, status in ((0.5, 0.5, "feasible"), (0.9, 0.9, "infeasible-at-tolerance")):
        code, out = _run(capsys, "jm-certify", "--d", str(d), "--eta", str(eta),
                         "--p", str(p), "--atoms", str(atoms), "--seed", str(seed),
                         "--targets", "builtin:mubs", "--tol", "1e-4",
                         "--emit-conditionals")
        assert code == 0
        doc = _strict_json(out)
        assert doc["status"] == status
        cert = JmCertificate(
            parent=discretize_parent(d, atoms, seed),
            conditionals=tuple(np.array(table) for table in doc["conditionals"]),
            residual=doc["residual"], status=doc["status"], tol=doc["tol"],
        )
        targets = [noisify_povm(b, NoiseParams(d=d, eta=eta, p=p)) for b in mub_pair(d)]
        assert verify_certificate(cert, targets) == doc["verified_residual"]


def test_jm_certify_targets_file(tmp_path, capsys):
    targets_path = tmp_path / "targets.json"
    docs = [b.to_document() for b in mub_pair(2)]
    targets_path.write_text(json.dumps(docs))
    code, out = _run(capsys, "jm-certify", "--d", "2", "--eta", "0.5", "--p", "0.5",
                     "--atoms", "200", "--targets", str(targets_path), "--tol", "1e-4")
    assert code == 0
    assert json.loads(out)["status"] == "feasible"


def test_jm_certify_malformed_targets_file(tmp_path, capsys):
    targets_path = tmp_path / "targets.json"
    list_label = {"label": [0], "entries": [[1, 0], [0, 0], [0, 0], [1, 0]]}
    for docs in ([5], [{"dim": 2, "effects": 5}],
                 [{"dim": 2, "effects": [{"label": 0, "entries": 5}]}],
                 [{"dim": [2], "effects": []}],
                 [{"dim": 2, "effects": [list_label]}]):
        targets_path.write_text(json.dumps(docs))
        code = main(["jm-certify", "--d", "2", "--eta", "0.5", "--p", "0.5",
                     "--atoms", "100", "--targets", str(targets_path)])
        assert code == 2
        assert "error" in capsys.readouterr().err


def test_jm_certify_missing_file(capsys):
    code = main(["jm-certify", "--d", "2", "--eta", "0.5", "--p", "0.5",
                 "--atoms", "100", "--targets", "/nonexistent.json"])
    assert code == 2
    capsys.readouterr()


def test_lemma1_roundtrip_command(capsys):
    code, out = _run(capsys, "lemma1-roundtrip", "--d", "2", "--eta", "0.3",
                     "--seed", "7")
    assert code == 0
    doc = json.loads(out)
    assert doc["max_roundtrip_residual"] < 1e-12


def test_appendix_c_check_command(capsys):
    code, out = _run(capsys, "appendixC-check", "--d", "2", "--eta", "0.6",
                     "--p", "0.4", "--trials", "10")
    assert code == 0
    doc = json.loads(out)
    assert doc["max_decomposition_residual"] < 1e-12


def test_count_and_dimension_flags_must_be_positive(tmp_path, capsys):
    pd_csv = str(tmp_path / "pd.csv")
    cases = [
        (["appendixC-check", "--d", "2", "--eta", "0.6", "--p", "0.4", "--trials", "0"],
         "--trials", 1),
        (["appendixC-check", "--d", "2", "--eta", "0.6", "--p", "0.4", "--trials", "-3"],
         "--trials", 1),
        (["lemma1-roundtrip", "--d", "0", "--eta", "0.3", "--seed", "7"], "--d", 1),
        (["simulate-povm", "--d", "2", "--t", "0.3", "--samples", "0", "--seed", "1"],
         "--samples", 1),
        (["jm-certify", "--d", "2", "--eta", "0.5", "--p", "0.5", "--atoms", "-1",
          "--targets", "builtin:mubs"], "--atoms", 1),
        (["phase-diagram", "--d", "2", "--grid", "0", "--out", pd_csv], "--grid", 2),
        (["state", "--d", "-2", "--eta", "0.5", "--p", "0.5"], "--d", 1),
        # seeds may be 0 and a phase grid needs two points
        (["simulate-povm", "--d", "2", "--t", "0.3", "--samples", "10", "--seed", "-1"],
         "--seed", 0),
        (["lemma1-roundtrip", "--d", "2", "--eta", "0.3", "--seed", "-1"], "--seed", 0),
        (["jm-certify", "--d", "2", "--eta", "0.5", "--p", "0.5", "--atoms", "50",
          "--targets", "builtin:mubs", "--seed", "-1"], "--seed", 0),
        (["phase-diagram", "--d", "2", "--grid", "1", "--out", pd_csv], "--grid", 2),
    ]
    for argv, flag, minimum in cases:
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and f"argument {flag}: must be >= {minimum}" in captured.err


def _child_env():
    """The environment with this package's ``src`` directory on PYTHONPATH."""
    src = str(Path(steerlab.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "steerlab.cli", "thresholds", "--d", "3"],
        capture_output=True,
        text=True,
        env=_child_env(),
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["d"] == 3


def test_commands_without_the_lp_run_without_scipy(tmp_path):
    child = """
import sys
sys.modules["scipy"] = None  # any import of scipy now raises ImportError
from steerlab import cli
commands = [
    ["thresholds", "--d", "3"],
    ["state", "--d", "2", "--eta", "0.5", "--p", "0.7"],
    ["phase-diagram", "--d", "2", "--grid", "20", "--out", sys.argv[1]],
    ["simulate-povm", "--d", "2", "--t", "0.3", "--samples", "1000", "--seed", "1"],
    ["appendixC-check", "--d", "2", "--eta", "0.6", "--p", "0.4", "--trials", "5"],
    ["lemma1-roundtrip", "--d", "2", "--eta", "0.3", "--seed", "7"],
]
codes = [cli.main(argv) for argv in commands]
assert codes == [0] * len(commands), codes
"""
    proc = subprocess.run(
        [sys.executable, "-c", child, str(tmp_path / "pd.csv")],
        capture_output=True,
        text=True,
        env=_child_env(),
    )
    assert proc.returncode == 0, proc.stderr
