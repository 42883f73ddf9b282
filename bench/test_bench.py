"""Each benchmark check passes on good outputs and fails on bad ones.

    python3 -m pytest bench -q
"""

from __future__ import annotations

import copy
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import checks  # noqa: E402
import reference  # noqa: E402
from mupre.optim import LayerState, OptimizerConfig, optimizer_step  # noqa: E402

# the two benchmark Shampoo configs; 4x4 tiles on a 10x7 gradient leave
# trailing tiles of 2 rows and 3 columns
BLOCKED = OptimizerConfig("shampoo", e_l=0.5, e_r=0.5, eps=1e-5, graft_rule="adam",
                          graft_eps=1e-12, block_in=4, block_out=4)
QUARTER = OptimizerConfig("shampoo", e_l=0.25, e_r=0.25, eps=1e-3)
WIDTHS = (64, 128, 256, 512)


def program_steps(cfg, shape, n, seed=0):
    """(state before, gradient, update) for n consecutive program steps."""
    rng = np.random.default_rng(seed)
    state = LayerState()
    out = []
    for _ in range(n):
        g = rng.standard_normal(shape)
        before = copy.deepcopy(state)
        out.append((before, g, optimizer_step(state, g, cfg).update))
    return out


@pytest.mark.parametrize("cfg", [BLOCKED, QUARTER], ids=["blocked", "quarter"])
def test_reference_agrees_with_program(cfg):
    for before, g, update in program_steps(cfg, (10, 7), 4):
        measure, gap, ok = reference.check_step(before, g, cfg, update)
        assert measure == "rel_gap" and ok, gap


def test_perturbed_update_fails_reference():
    before, g, update = program_steps(BLOCKED, (10, 7), 3)[-1]
    bad = update.copy()
    bad[9, 6] *= 1.0 + 1e-6
    _, gap, ok = reference.check_step(before, g, BLOCKED, bad)
    assert not ok and gap > reference.REL_TOL


def test_muon_spectral_band():
    cfg = OptimizerConfig("muon")
    before, g, update = program_steps(cfg, (12, 9), 2)[-1]
    assert reference.check_step(before, g, cfg, update)[2]
    assert not reference.check_step(before, g, cfg, 1.1 * update)[2]


def coordcheck_outputs(slopes: dict[str, float], steps: int = 10):
    """CSV rows, run summaries and experiment object with exact power laws."""
    rows, runs = [], []
    for w in WIDTHS:
        rid = f"w{w}"
        runs.append({"run_id": rid, "width": w, "diverged": False, "steps_completed": steps})
        for step, loss in ((1, 0.2), (steps, 0.1)):
            for layer, s in slopes.items():
                rows.append({"run_id": rid, "width": str(w), "step": str(step),
                             "loss": repr(loss), "layer": layer,
                             "delta_h_rms": repr(0.01 * (w / 64) ** s), "srank": "1.0"})
    experiment = {"slopes": {"10": {layer: [s, 1.0] for layer, s in slopes.items()}}}
    return rows, runs, experiment


def test_width_transfer_bounds():
    mup_like = {"fc1": 0.01, "fc2": -0.05, "readout": 0.1}
    sp_like = {"fc1": 0.0, "fc2": 0.05, "readout": 0.5}
    assert checks.check_slopes(*coordcheck_outputs(mup_like), "mup") == []
    assert checks.check_slopes(*coordcheck_outputs(sp_like), "sp") == []
    assert checks.check_slopes(*coordcheck_outputs(sp_like), "mup")
    assert checks.check_slopes(*coordcheck_outputs(mup_like), "sp")


def test_refit_must_match_reported_slopes():
    rows, runs, experiment = coordcheck_outputs({"fc1": 0.0, "fc2": 0.0, "readout": 0.0})
    assert checks.check_slopes(rows, runs, experiment, "mup") == []
    experiment["slopes"]["10"]["fc2"][0] = 1e-8
    assert checks.check_slopes(rows, runs, experiment, "mup")


def test_cell_checks():
    rows, runs, _ = coordcheck_outputs({"fc1": 0.0, "fc2": 0.0, "readout": 0.0})
    assert checks.check_cells(rows, runs, 10, "mup") == {}
    for row in rows:
        if row["run_id"] == "w128" and row["step"] == "10":
            row["loss"] = "0.3"
    runs[3]["steps_completed"] = 7
    assert set(checks.check_cells(rows, runs, 10, "mup")) == {"w128", "w512"}
    assert set(checks.check_cells(rows, runs, 10, "sp")) == {"w512"}


def test_srank_bound():
    rows = [{"run_id": "a", "width": "64", "layer": "fc2", "step": "1", "srank": "31.0"}]
    assert checks.check_srank(rows, 32) == {}
    rows[0]["srank"] = "32.5"
    assert set(checks.check_srank(rows, 32)) == {"a"}
    rows[0].update(layer="readout", srank="1.5", step="5")
    assert set(checks.check_srank(rows, 32)) == {"a"}


def test_plan_check():
    plan = {"fc1": {"eta": 0.002}, "readout": {"eta": 0.002}}
    assert checks.check_plan(json.dumps(plan), 0.002) == []
    plan["readout"]["eta"] = math.nextafter(0.002, 1.0)
    assert checks.check_plan(json.dumps(plan), 0.002)


def test_one_byte_difference_fails_neutrality(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for d in (a, b):
        d.mkdir()
        (d / "coordcheck.csv").write_text("run_id,loss\nx,0.125\n")
        (d / "coordcheck.jsonl").write_text('{"experiment": "coordcheck"}\n')
    assert checks.compare_artifacts(a, b) == []
    (b / "coordcheck.csv").write_text("run_id,loss\nx,0.126\n")
    assert checks.compare_artifacts(a, b)
