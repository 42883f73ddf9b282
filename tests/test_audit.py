"""tools/audit.py: each of its checks passes on equal artifacts and fails
on the change it looks for; tools/artifacts.py: the runs it makes."""

import importlib
import json
import subprocess
from pathlib import Path

import pytest

from mupre import cli

TOOLS = Path(__file__).resolve().parents[1] / "tools"

CSV = "run_id,width,loss,layer\nr64,64,0.25,fc1\nr64,64,0.125,fc2\n"
RUN = {"run_id": "r64", "diverged": False, "final_loss": 0.125, "width": 64}
SUMMARY = {"experiment": "coordcheck", "slopes": {"10": {"fc1": [0.5, 0.99]}}}


@pytest.fixture
def audit(monkeypatch):
    monkeypatch.syspath_prepend(str(TOOLS))
    return importlib.import_module("audit")


def write(root: Path, csv_text=CSV, run=RUN, summary=SUMMARY, stdout="done\n"):
    (root / "cell").mkdir(parents=True, exist_ok=True)
    (root / "cell" / "coordcheck.csv").write_text(csv_text)
    (root / "cell" / "coordcheck.jsonl").write_text(
        json.dumps(run) + "\n" + json.dumps(summary) + "\n")
    (root / "cell" / "stdout.txt").write_text(stdout)
    return root


def run_audit(audit, tmp_path, tol=0.0, **change):
    parent = write(tmp_path / "parent")
    return audit.audit(parent, write(tmp_path / "change", **change), tol)


def test_equal_artifacts_pass(audit, tmp_path):
    lines, ok = run_audit(audit, tmp_path)
    assert ok
    assert lines == [
        "identical   cell/coordcheck.csv",
        "identical   cell/coordcheck.jsonl",
        "identical   cell/stdout.txt",
        "divergence flags match: 1 runs, 0 diverged",
    ]


def test_other_files_must_be_byte_identical(audit, tmp_path):
    lines, ok = run_audit(audit, tmp_path, stdout="done \n")
    assert not ok and "differs     cell/stdout.txt: bytes differ" in lines


def test_csv_column_gap_is_reported_and_held_to_tol(audit, tmp_path):
    moved = CSV.replace("0.125", "0.12500000000001")
    lines, ok = run_audit(audit, tmp_path, csv_text=moved)
    assert not ok
    i = lines.index("differs     cell/coordcheck.csv: largest relative gap 7.99e-14, "
                    "1 of 2 number keys moved")
    assert lines[i + 1] == "    loss: 7.99e-14 relative, 9.99e-15 absolute"
    _, ok = run_audit(audit, tmp_path, tol=1e-13, csv_text=moved)
    assert ok


@pytest.mark.parametrize("csv_text,message", [
    (CSV.replace("fc2", "fc3"), "line 3 column layer: 'fc2' against 'fc3'"),
    (CSV.replace("loss", "lost"), "headers differ"),
    (CSV + "r64,64,0.5,readout\n", "2 rows against 3"),
], ids=["text-cell", "header", "rows"])
def test_csv_structure_must_match(audit, tmp_path, csv_text, message):
    lines, ok = run_audit(audit, tmp_path, tol=1.0, csv_text=csv_text)
    assert not ok and f"differs     cell/coordcheck.csv: {message}" in lines


def test_jsonl_key_gap_is_reported_per_path(audit, tmp_path):
    summary = {"experiment": "coordcheck", "slopes": {"10": {"fc1": [0.5, 0.98]}}}
    lines, ok = run_audit(audit, tmp_path, summary=summary)
    assert not ok
    assert any(line.startswith("    slopes.10.fc1[1]: 0.0101 relative") for line in lines)
    _, ok = run_audit(audit, tmp_path, tol=0.02, summary=summary)
    assert ok


def test_jsonl_keys_must_match(audit, tmp_path):
    lines, ok = run_audit(audit, tmp_path, tol=1.0, summary={"experiment": "coordcheck"})
    assert not ok and "differs     cell/coordcheck.jsonl: line 2: keys differ" in lines


def test_divergence_flags_must_match(audit, tmp_path):
    # a diverged run with the same numbers: only the flag check fails
    lines, ok = run_audit(audit, tmp_path, tol=1.0, run=dict(RUN, diverged=True))
    assert not ok
    assert lines[-1] == "divergence flags differ: cell/coordcheck.jsonl:r64 False -> True"


def test_a_file_on_one_side_fails(audit, tmp_path):
    parent = write(tmp_path / "parent")
    change = write(tmp_path / "change")
    (change / "cell" / "stdout.txt").unlink()
    lines, ok = audit.audit(parent, change)
    assert not ok and "differs     cell/stdout.txt: only in parent" in lines


def test_main_exit_status(audit, tmp_path, capsys):
    parent = write(tmp_path / "parent")
    change = write(tmp_path / "change", csv_text=CSV.replace("0.25", "0.2500000000001"))
    assert audit.main([str(parent), str(change)]) == 1
    assert audit.main([str(parent), str(change), "--tol", "1e-12"]) == 0
    assert "close       cell/coordcheck.csv" in capsys.readouterr().out


@pytest.fixture
def artifacts(monkeypatch):
    monkeypatch.syspath_prepend(str(TOOLS))
    return importlib.import_module("artifacts")


def test_artifact_configs_build(artifacts):
    # tools/artifacts.py runs every bench config and every audit config,
    # each with a command its sweep can run; nothing is trained here
    root = artifacts.ROOT
    found = {str(p.relative_to(root)) for d in ("bench/configs", "tools/audit_configs")
             for p in (root / d).glob("*.json")}
    assert set(artifacts.RUNS) == found and len(found) == 12
    for config, command in artifacts.RUNS.items():
        _, _, sweep = cli.build_objects(cli.load_config(str(root / config)), 0)
        sweep.require(command)


def test_artifacts_runs_each_config_once(artifacts, monkeypatch, tmp_path):
    # one failing command fails the tool; every run's stdout is kept
    calls = []

    def run(argv, env, **_):
        calls.append((argv, env))
        code = 1 if "muon-40.json" in argv[argv.index("--config") + 1] else 0
        return subprocess.CompletedProcess(argv, code, stdout=f"ran {argv[3]}\n")

    monkeypatch.setattr(artifacts.subprocess, "run", run)
    assert artifacts.main([str(tmp_path / "checkout"), str(tmp_path / "out")]) == 1
    assert len(calls) == len(artifacts.RUNS)
    for argv, env in calls:
        assert argv[argv.index("--seed") + 1] == "0"
        assert env["PYTHONPATH"] == str(tmp_path / "checkout" / "src")
        assert env["OPENBLAS_NUM_THREADS"] == env["OMP_NUM_THREADS"] == "1"
    assert (tmp_path / "out" / "resmlp-muon" / "stdout.txt").read_text() == "ran depthcheck\n"
