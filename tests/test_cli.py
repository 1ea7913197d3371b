import contextlib
import hashlib
import importlib.machinery
import importlib.util
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
from steerlab import analysis, assemblage, certifier, cli, rand
from steerlab.assemblage import apply_loss_to_assemblage, filter_loss, steer
from steerlab.certifier import JmCertificate, discretize_parent, verify_certificate
from steerlab.cli import main
from steerlab.lossy import NoiseParams, noisify_povm, reduce_through_loss_dual
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


def test_usage_error_leaves_the_next_call_unchanged(capsys):
    # the parser is built once per process, so a usage error must not alter it
    argv = ["jm-certify", "--d", "2", "--eta", "0.5", "--p", "0.5", "--atoms", "50",
            "--targets", "builtin:mubs"]
    before = _run(capsys, *argv)
    for bad in (["jm-certify", "--d", "0"], [*argv, "--seed", "-1"], [*argv, "--bogus"],
                [*argv[:-2], "--emit-conditionals"], ["thresholds"]):
        with pytest.raises(SystemExit) as exc:
            main(bad)
        assert exc.value.code == 2
        assert "usage" in capsys.readouterr().err
    assert _run(capsys, *argv) == before
    assert cli.build_parser() is cli.build_parser()


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


def test_state_computes_eigenvalues_once(capsys, monkeypatch):
    # validating rho and its two reduced states computes no eigenvalues;
    # only the reported min_eigenvalue does, on the 156x156 state
    eigvalsh = np.linalg.eigvalsh
    shapes = []

    def counted(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    code, out = _run(capsys, "state", "--d", "12", "--eta", "0.4", "--p", "0.6")
    assert code == 0
    assert shapes == [(156, 156)]
    rho = steerlab.one_way_state(12, 0.4, 0.6)
    assert json.loads(out)["validity"]["min_eigenvalue"] == float(eigvalsh(rho.mat)[0])


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
            residual=doc["residual"], tol=doc["tol"],
        )
        assert cert.status == doc["status"]
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



def test_jm_certify_refuses_a_target_dimension_below_one(tmp_path, capsys):
    targets_path = tmp_path / "targets.json"
    for dim in (0, -1):
        targets_path.write_text(json.dumps([{"dim": dim, "effects": [{"label": 0,
                                                                      "entries": []}]}]))
        code = main(["jm-certify", "--d", "2", "--eta", "0.5", "--p", "0.5",
                     "--atoms", "100", "--targets", str(targets_path)])
        assert code == 2
        assert f"POVM document dim must be >= 1, got {dim}" in capsys.readouterr().err


@pytest.mark.parametrize("dim", [2.9, "2", True])
def test_jm_certify_refuses_a_target_dimension_that_is_not_an_integer(tmp_path, capsys, dim):
    # int() would read 2.9 and "2" as 2, and true as 1
    targets_path = tmp_path / "targets.json"
    targets_path.write_text(json.dumps([dict(b.to_document(), dim=dim) for b in mub_pair(2)]))
    code = main(["jm-certify", "--d", "2", "--eta", "0.5", "--p", "0.5",
                 "--atoms", "100", "--targets", str(targets_path)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.splitlines() == [
        f"error: POVM document dim must be an integer, got {dim!r}"]


def _with_bool_entry(doc):
    doc["effects"][0]["entries"][0] = [True, False]  # reads as 1+0j through complex()


def _with_triple_entry(doc):
    doc["effects"][0]["entries"][1] = [1, 0, 0]


def _with_scalar_entry(doc):
    doc["effects"][0]["entries"][2] = 0.5


def _with_bool_label(doc):
    doc["effects"][1]["label"] = True  # equals the label 1 it replaces


@pytest.mark.parametrize("spoil, message", [
    (_with_bool_entry, "matrix entry 0 has a boolean part: [True, False]"),
    (_with_bool_label, "effect labels must be integers or strings, got True"),
    (_with_triple_entry, "matrix entry 1 is not a [re, im] pair: [1, 0, 0]"),
    (_with_scalar_entry, "matrix entry 2 is not a [re, im] pair: 0.5"),
], ids=["entry", "label", "triple", "scalar"])
def test_jm_certify_refuses_json_booleans_in_targets(tmp_path, capsys, spoil, message):
    # JSON true is no number and no label, although Python's bool is an int;
    # an entry is an [re, im] pair, not three numbers or one
    docs = [b.to_document() for b in mub_pair(2)]
    spoil(docs[0])
    targets_path = tmp_path / "targets.json"
    targets_path.write_text(json.dumps(docs))
    code = main(["jm-certify", "--d", "2", "--eta", "0.5", "--p", "0.5",
                 "--atoms", "100", "--targets", str(targets_path)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.splitlines() == [f"error: {message}"]


def test_jm_certify_missing_file(capsys):
    code = main(["jm-certify", "--d", "2", "--eta", "0.5", "--p", "0.5",
                 "--atoms", "100", "--targets", "/nonexistent.json"])
    assert code == 2
    capsys.readouterr()


def test_jm_certify_refuses_non_finite_targets_without_warning(tmp_path):
    targets_path = tmp_path / "targets.json"
    effects = [{"label": 0, "entries": [[float("inf"), 0], [0, 0], [0, 0], [0.5, 0]]},
               {"label": 1, "entries": [[0, 0], [0, 0], [0, 0], [0.5, 0]]}]
    targets_path.write_text(json.dumps([{"dim": 2, "effects": effects}]))  # writes Infinity
    proc = subprocess.run(
        [sys.executable, "-m", "steerlab.cli", "jm-certify", "--d", "2", "--eta", "0.5",
         "--p", "0.5", "--atoms", "50", "--targets", str(targets_path)],
        capture_output=True, text=True, env=_child_env(),
    )
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.startswith("error: ") and "Warning" not in proc.stderr


@pytest.mark.parametrize("eta", ["0", "nan", "1.5"])
def test_lemma1_roundtrip_checks_eta_before_drawing(capsys, monkeypatch, eta):
    def no_draw(seed):
        raise AssertionError("drew trials for an invalid --eta")

    monkeypatch.setattr(rand, "rng_from", no_draw)
    code = main(["lemma1-roundtrip", "--d", "2", "--eta", eta, "--seed", "7"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == f"error: eta must lie in (0, 1], got {float(eta)}\n"


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


def test_jm_certify_loads_only_the_highs_extension():
    child = """
import sys
from steerlab import cli
code = cli.main(["jm-certify", "--d", "2", "--eta", "0.5", "--p", "0.5", "--atoms", "100",
                 "--targets", "builtin:mubs", "--emit-conditionals"])
assert code == 0, code
loaded = {"scipy.optimize", "scipy.sparse"} & set(sys.modules)
assert not loaded, loaded
from scipy.optimize import linprog
res = linprog([1.0, 2.0], A_ub=[[-1.0, -1.0]], b_ub=[-1.0], method="highs")
assert res.success and list(res.x) == [1.0, 0.0], res
"""
    proc = subprocess.run([sys.executable, "-c", child], capture_output=True, text=True,
                          env=_child_env())
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["status"] == "feasible"


def test_jm_certify_without_the_highs_extension_exits_3(tmp_path, capsys, monkeypatch):
    # a scipy whose package folder holds no HiGHS extension
    find_spec = importlib.util.find_spec
    scipy_spec = importlib.machinery.ModuleSpec("scipy", None, is_package=True)
    scipy_spec.submodule_search_locations.append(str(tmp_path))
    monkeypatch.setattr(importlib.util, "find_spec", lambda name, *args: (
        scipy_spec if name == "scipy" else find_spec(name, *args)))
    certifier._highspy.cache_clear()
    try:
        code = main(["jm-certify", "--d", "2", "--eta", "0.5", "--p", "0.5", "--atoms", "50",
                     "--targets", "builtin:mubs"])
    finally:
        certifier._highspy.cache_clear()
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert captured.err == (f"solver failure: scipy's HiGHS extension _core is not in "
                            f"{tmp_path / 'optimize' / '_highspy'}\n")


# Outputs of the stacked check commands and of `state`, recorded from the
# per-trial implementation these commands replaced: the benchmark's inputs
# for seeds 0-5, then the inputs of the tests and of CI. A `state` document
# is pinned by the sha256 of its parsed form re-encoded with sorted keys; a
# check command by its residual, compared with ==.
RECORDED = [
    ("state --d 12 --eta 0.6095693498571635 --p 0.31582937101109626",
     "438bdc0e2a3be391a105c2c5e6d212b2feaab50cc85e4a2fb5f40e9040a93f95"),
    ("appendixC-check --d 4 --eta 0.6095693498571635 --p 0.31582937101109626 --trials 200",
     2.9414690675170555e-16),
    ("lemma1-roundtrip --d 6 --eta 0.6095693498571635 --seed 661058652", 3.116623961872001e-17),
    ("state --d 12 --eta 0.5094572997602054 --p 0.8603709570607483",
     "92103e22d7008be7cdfd603cec5cb3f575ed6f695f1d9d4da5c8343d78b0091a"),
    ("appendixC-check --d 4 --eta 0.5094572997602054 --p 0.8603709570607483 --trials 200",
     2.231270158914028e-16),
    ("lemma1-roundtrip --d 6 --eta 0.5094572997602054 --seed 74845286", 1.4092960140259168e-17),
    ("state --d 12 --eta 0.30928970739945316 --p 0.3387929147312987",
     "ef3fc9d8f37f95fba0f75b125eb71281ffddcf4dd1c7aaa96bd2b4a92a074874"),
    ("appendixC-check --d 4 --eta 0.30928970739945316 --p 0.3387929147312987 --trials 200",
     2.7196286008498203e-16),
    ("lemma1-roundtrip --d 6 --eta 0.30928970739945316 --seed 888658063", 2.420273424433203e-17),
    ("state --d 12 --eta 0.1685193337148995 --p 0.28944840527687976",
     "4174c50214acd89696465c467a7cea7fb25ee237f5842abc9e11ca496f727209"),
    ("appendixC-check --d 4 --eta 0.1685193337148995 --p 0.28944840527687976 --trials 200",
     1.9231589015462868e-16),
    ("lemma1-roundtrip --d 6 --eta 0.1685193337148995 --seed 389477915", 2.4295807111699744e-17),
    ("state --d 12 --eta 0.8544448844578941 --p 0.5090620422514893",
     "79fd897754670d7f2b4d2c8bb8d1f7a0296ee3a03683f8cbc5bae8926887e8fb"),
    ("appendixC-check --d 4 --eta 0.8544448844578941 --p 0.5090620422514893 --trials 200",
     2.0158651201548846e-16),
    ("lemma1-roundtrip --d 6 --eta 0.8544448844578941 --seed 2019575649", 3.413018240881218e-17),
    ("state --d 12 --eta 0.7440023389963042 --p 0.746352631789195",
     "42b2a6ea8a0db365349d29fbd43cb5be8775ce553a06350dac97049b0b9fa3c7"),
    ("appendixC-check --d 4 --eta 0.7440023389963042 --p 0.746352631789195 --trials 200",
     2.5814177514652363e-16),
    ("lemma1-roundtrip --d 6 --eta 0.7440023389963042 --seed 1006851808", 3.419623001940413e-17),
    ("state --d 2 --eta 0.5 --p 0.7",
     "5e4615c300042d8a6196f7308077847550d0cb33d61f1363907d5aafaf0e9609"),
    ("state --d 4 --eta 0.5 --p 0.5",
     "9818e158f973c4176421730a1bc7b830b06a554ff4f2a2bc1e1f63c1bd28504a"),
    ("state --d 3 --eta 0.3 --p 0.9",
     "7f5df8bc368c64a13e206fe70100ff7848fe52b27d7763dbca8e18106d56b0c6"),
    ("appendixC-check --d 2 --eta 0.6 --p 0.4 --trials 10", 1.5700924586837752e-16),
    ("appendixC-check --d 2 --eta 0.6 --p 0.4 --trials 5", 1.2412670766236366e-16),
    ("appendixC-check --d 4 --eta 0.4 --p 0.6 --trials 50", 1.7555881559905333e-16),
    ("appendixC-check --d 3 --eta 1.0 --p 0.0 --trials 7", 0.0),
    ("lemma1-roundtrip --d 2 --eta 0.3 --seed 7", 5.887846720064156e-17),
    ("lemma1-roundtrip --d 4 --eta 0.4 --seed 1", 4.163336342344337e-17),
    ("lemma1-roundtrip --d 3 --eta 1.0 --seed 0", 0.0),
]


@pytest.mark.parametrize("command, expected", RECORDED)
def test_outputs_match_recorded_values(capsys, command, expected):
    argv = command.split()
    code, out = _run(capsys, *argv)
    assert code == 0
    doc = _strict_json(out)
    if argv[0] == "state":
        encoded = json.dumps(doc, sort_keys=True).encode()
        assert hashlib.sha256(encoded).hexdigest() == expected
        return
    flags = dict(zip(argv[1::2], argv[2::2]))
    key = ("max_decomposition_residual" if argv[0] == "appendixC-check"
           else "max_roundtrip_residual")
    assert doc.pop(key) == expected
    assert doc.pop("d") == int(flags["--d"]) and doc.pop("eta") == float(flags["--eta"])
    if argv[0] == "appendixC-check":
        assert doc == {"p": float(flags["--p"]), "trials": int(flags["--trials"])}
    else:
        assert doc == {"seed": int(flags["--seed"]), "trials": 50}


def test_output_is_compact_json(tmp_path, capsys):
    emit = tmp_path / "state.json"
    for argv in (["state", "--d", "2", "--eta", "0.5", "--p", "0.7", "--emit", str(emit)],
                 ["appendixC-check", "--d", "2", "--eta", "0.6", "--p", "0.4", "--trials", "3"],
                 ["lemma1-roundtrip", "--d", "2", "--eta", "0.3", "--seed", "7"],
                 ["thresholds", "--d", "2"]):
        code, out = _run(capsys, *argv)
        assert code == 0
        assert out.count("\n") == 1 and out.endswith("\n")
        assert out == json.dumps(json.loads(out), ensure_ascii=False) + "\n"
    assert emit.read_text(encoding="utf-8") == _run(capsys, "state", "--d", "2", "--eta", "0.5",
                                                    "--p", "0.7")[1]


def _appendix_c_per_trial(d, eta, p, trials):
    """``appendixC-check`` one trial at a time through the per-object API."""
    rng = rand.rng_from([d, trials])
    params = NoiseParams(d=d, eta=eta, p=p)
    worst = 0.0
    for k in range(trials):
        m_prime = rand.random_povm(d + 1, 2 + k % (d + 1), rng)
        worst = max(worst, reduce_through_loss_dual(m_prime, params).identity_residual)
    return worst


def _lemma1_per_trial(d, eta, seed):
    """``lemma1-roundtrip`` one trial at a time through the per-object API."""
    rng = rand.rng_from(seed)
    worst = 0.0
    for _ in range(50):
        rho = rand.random_density(d * d, rng, dims=(d, d))
        povms = [rand.random_povm(d, 2, rng) for _ in range(2)]
        sigma = steer(rho, povms, measured_side=0)
        recovered = filter_loss(apply_loss_to_assemblage(sigma, eta), eta)
        for x in range(sigma.n_settings):
            for a in range(sigma.outcomes_per_setting[x]):
                dev = np.linalg.norm(recovered.entry(a, x) - sigma.entry(a, x))
                worst = max(worst, float(dev))
    return worst


@settings(max_examples=25, deadline=None)
@given(d=st.integers(1, 5), eta=st.floats(0.0, 1.0), p=st.floats(0.0, 1.0),
       trials=st.integers(1, 40))
def test_appendix_c_stack_equals_per_trial_objects(d, eta, p, trials):
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = main(["appendixC-check", "--d", str(d), "--eta", repr(eta), "--p", repr(p),
                     "--trials", str(trials)])
    assert code == 0
    residual = json.loads(stdout.getvalue())["max_decomposition_residual"]
    assert residual == _appendix_c_per_trial(d, eta, p, trials)


@settings(max_examples=20, deadline=None)
@given(d=st.integers(1, 4), eta=st.floats(1e-3, 1.0), seed=st.integers(0, 2**32 - 1))
def test_lemma1_stack_equals_per_trial_objects(d, eta, seed):
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = main(["lemma1-roundtrip", "--d", str(d), "--eta", repr(eta), "--seed", str(seed)])
    assert code == 0
    residual = json.loads(stdout.getvalue())["max_roundtrip_residual"]
    assert residual == _lemma1_per_trial(d, eta, seed)


def test_blocks_do_not_change_the_stacked_residuals(capsys, monkeypatch):
    # one trial per block draws the same stream and gives the same residuals
    argvs = [["appendixC-check", "--d", "3", "--eta", "0.7", "--p", "0.2", "--trials", "9"],
             ["lemma1-roundtrip", "--d", "2", "--eta", "0.3", "--seed", "7"]]
    whole = [_run(capsys, *argv)[1] for argv in argvs]
    monkeypatch.setattr(cli, "_BLOCK_ENTRIES", 1)
    assert [_run(capsys, *argv)[1] for argv in argvs] == whole


def _corrupt_trial(monkeypatch, module, name, position, edits):
    """Add ``entry`` at ``index`` (for each pair of ``edits``) to what
    ``module.name`` returns for one trial: the trial at ``position`` of its
    first, stacked call, recognized by its input there and in any later
    call, stacked or not."""
    helper = getattr(module, name)
    marker = []

    def corrupted(first, *args):
        out = np.array(helper(first, *args))
        if not marker:
            marker.append(first[position].copy())
        trial = marker[0]
        if first.shape[first.ndim - trial.ndim:] != trial.shape:
            return out
        lead = first.shape[:first.ndim - trial.ndim]
        hits = np.all((first == trial).reshape(lead + (-1,)), axis=-1)
        view = out.reshape((-1,) + out.shape[len(lead):])
        for t in np.flatnonzero(hits):
            for index, entry in edits:
                view[(t,) + index] += entry
        return out

    monkeypatch.setattr(module, name, corrupted)


_APPENDIX_C = ["appendixC-check", "--d", "2", "--eta", "0.6", "--p", "0.4", "--trials", "9"]
_LEMMA1 = ["lemma1-roundtrip", "--d", "2", "--eta", "0.3", "--seed", "7"]


@pytest.mark.parametrize("argv, module, name, position, edits, message", [
    # appendixC-check with d=2 gives trial k 2 + k % 3 outcomes; its first
    # stack is the 2-outcome group of trials 0, 3, 6, so position 1 is trial 3
    (_APPENDIX_C, rand, "gram_povms", 1, [((1, 0, 1), 1e-3)],
     "trial 3: effect 1 is not Hermitian within 1e-10"),
    (_APPENDIX_C, rand, "gram_povms", 0, [((1, 2, 2), -1.0)], "trial 0: effect 1 is not PSD"),
    # shifts the vacuum response by 1e-11: within the identity-sum tolerance
    # of the POVM and its images, outside the 1e-12 of the distribution
    (_APPENDIX_C, rand, "gram_povms", 2, [((0, 2, 2), 1e-11)],
     "trial 6: vacuum response is not a probability distribution"),
    # lemma1-roundtrip runs its 50 trials as one stack
    (_LEMMA1, rand, "gram_povms", 4, [((1, 0, 0, 0), 1e-3)],
     "trial 4: effects in stack entry (1,) do not sum to the identity"),
    (_LEMMA1, rand, "gram_densities", 7, [((0, 0), 1e-3)],
     "trial 7: density matrix trace differs from 1"),
    (_LEMMA1, rand, "gram_densities", 3, [((0, 1), 1e-3)],
     "trial 3: density matrix is not Hermitian"),
    # opposite signal-vacuum coherences on the two outcomes of setting 1 keep
    # every entry Hermitian and PSD and the outcome sums equal
    (_LEMMA1, assemblage, "lossy_entries", 6,
     [((2, 0, 2), 1e-6), ((2, 2, 0), 1e-6), ((3, 0, 2), -1e-6), ((3, 2, 0), -1e-6)],
     "trial 6: entry (a=0, x=1) has signal-vacuum coherence 1.00e-06"),
])
def test_corrupted_stack_names_the_trial(capsys, monkeypatch, argv, module, name, position,
                                         edits, message):
    _corrupt_trial(monkeypatch, module, name, position, edits)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and message in captured.err


@pytest.mark.parametrize("argv, target", [
    (["appendixC-check", "--d", "2", "--eta", "0.6", "--p", "0.4", "--trials", "5"],
     "gram_povms"),
    (["lemma1-roundtrip", "--d", "2", "--eta", "0.3", "--seed", "7"], "gram_densities"),
])
def test_stacked_checks_out_of_memory_exit_2(capsys, monkeypatch, argv, target):
    def too_large(*args, **kwargs):
        raise MemoryError("Unable to allocate 9.31 GiB for an array")

    monkeypatch.setattr(rand, target, too_large)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "Unable to allocate" in captured.err
