"""End-to-end acceptance gates.

Each test covers one numbered gate and prints a single
"ACCEPTANCE <n> (<name>): PASS/FAIL" line; run with -s to see them all.
The slow coordinate-check sweeps are shared through module-scoped
fixtures so each one trains only once. Every test here carries the
`acceptance` marker.
"""

import json
import math
import subprocess
import sys
import time
from contextlib import contextmanager

import numpy as np
import pytest

from mupre.config import OptimizerConfig, SweepConfig
from mupre.harness import (
    compute_multiplier,
    coord_check,
    dense_shampoo,
    depth_check,
    exponent_fit,
    gram_oracle_shampoo,
    mup_exponent_check,
    muon_svd_error,
    oracle_agreement,
    rank1_oracle,
    rank_scan,
)
from mupre.optim import (
    LayerState,
    PowerIterState,
    apply_weight_decay,
    optimizer_step,
    spectral_normalize,
)
from mupre.scaling import ScalingPlan, wd_scale

# `python3 -m pytest -m "not acceptance"` skips these gates for a fast loop
pytestmark = pytest.mark.acceptance

COORD_WIDTHS = (64, 128, 256, 512)
EXPONENT_WIDTHS = (64, 128, 256, 512, 1024)
DEPTHS = (3, 6, 12, 24)

MUON = OptimizerConfig("muon")
SHAMPOO_QUARTER = OptimizerConfig("shampoo", e_l=0.25, e_r=0.25, eps=1e-3)
SHAMPOO_HALF = OptimizerConfig("shampoo", e_l=0.5, e_r=0.5, eps=1e-3)
BLOCKED_GRAFT = OptimizerConfig(
    "shampoo", e_l=0.5, e_r=0.5, eps=1e-5,
    graft_rule="adam", graft_eps=1e-12, block_in=32, block_out=32,
)
BLOCKED_SOAP = OptimizerConfig(
    "soap", e_l=1.0, e_r=1.0, eps=1e-8, block_in=32, block_out=32,
)
# default relative damping: the deviation grows as the floor drops, since the
# inverse root amplifies barely-explored factor directions harder
UNBLOCKED_GRAFT = OptimizerConfig(
    "shampoo", e_l=0.5, e_r=0.5, graft_rule="adam", graft_eps=1e-12,
)
DEVIATION_BLOCKED = OptimizerConfig(
    "shampoo", e_l=0.5, e_r=0.5, graft_rule="adam", graft_eps=1e-12,
    block_in=32, block_out=32,
)
SPECTRAL_GRAFT = OptimizerConfig(
    "shampoo", e_l=0.5, e_r=0.5,
    graft_rule="adam", graft_eps=1e-12, normalize="spectral",
)

# eta_base per optimizer, chosen so the base width trains stably while the
# standard-parameterization variant still visibly blows up by step 10
COORD_CONFIGS = {
    "muon": (MUON, 0.05),
    "shampoo": (SHAMPOO_QUARTER, 0.002),
    "blocked shampoo+graft": (BLOCKED_GRAFT, 0.001),
    "blocked soap": (BLOCKED_SOAP, 0.0005),
}

# single-sample batches keep the preconditioner's explored subspace growing
# one direction per step, so min(D, t) binds by step 200 for the top widths.
# eta is small enough that no width converges within 200 steps; the deviation
# is driven by the accumulated factor spectrum, not the loss trajectory, and
# the measured slopes are eta-independent in this regime.
DEVIATION_WIDTHS = (64, 128, 256, 512)
DEVIATION_ETA = 1e-5
DEPTH_ETA = 0.005


@contextmanager
def gate(num: int, name: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num} ({name}): FAIL")
        raise
    print(f"ACCEPTANCE {num} ({name}): PASS")


def timed(fn, *args, **kwargs):
    t0 = time.monotonic()
    out = fn(*args, **kwargs)
    return out, time.monotonic() - t0


def coord_cfg(opt, plan, **kw):
    base = dict(
        opt=opt, plan=plan, widths=COORD_WIDTHS, steps=300,
        batch_size=32, probe_steps=(10, 200), probe_batch=16,
    )
    base.update(kw)
    return SweepConfig(**base)


@pytest.fixture(scope="module")
def coord_results():
    """All eight width coordinate checks: (optimizer, param) -> (result, secs)."""
    out = {}
    for name, (opt, eta) in COORD_CONFIGS.items():
        for param in ("mup", "sp"):
            cfg = coord_cfg(opt, ScalingPlan(param, 64, eta))
            out[name, param] = timed(coord_check, cfg)
    return out


@pytest.fixture(scope="module")
def deviation_results():
    """Single-sample-batch sweeps exposing the finite-width graft deviation."""
    out = {}
    for name, opt, plan in (
        ("unblocked", UNBLOCKED_GRAFT, ScalingPlan("mup", 64, DEVIATION_ETA)),
        ("blocked", DEVIATION_BLOCKED, ScalingPlan("mup", 64, DEVIATION_ETA)),
        ("spectral", SPECTRAL_GRAFT, ScalingPlan("spectral_norm", 64, DEVIATION_ETA)),
    ):
        cfg = coord_cfg(
            opt, plan, batch_size=1, widths=DEVIATION_WIDTHS, steps=200,
        )
        out[name] = timed(coord_check, cfg)
    return out


@pytest.fixture(scope="module")
def depth_results():
    out = {}
    for name, opt, alpha in (
        ("muon a1", MUON, 1.0),
        ("shampoo a1", SHAMPOO_HALF, 1.0),
        ("shampoo a0", SHAMPOO_HALF, 0.0),
    ):
        plan = ScalingPlan("mup", 64, DEPTH_ETA, base_depth=3, alpha_depth=alpha)
        cfg = SweepConfig(
            opt=opt, plan=plan, widths=(64,), depths=DEPTHS, arch="resmlp",
            steps=12, batch_size=32, probe_steps=(10,), probe_batch=16,
        )
        out[name] = timed(depth_check, cfg)
    return out


ORACLE_BATTERY = (
    OptimizerConfig("sgd"),
    OptimizerConfig("adam"),
    OptimizerConfig("shampoo", e_l=0.25, e_r=0.25, eps_mode="absolute"),
    OptimizerConfig("shampoo", e_l=0.25, e_r=0.25),
    OptimizerConfig("shampoo", e_l=0.5, e_r=0.5, eps_mode="absolute"),
    OptimizerConfig("shampoo", e_l=0.5, e_r=0.5),
    OptimizerConfig("shampoo", e_l=0.25, e_r=0.5),
    OptimizerConfig("shampoo", e_l=0.5, e_r=0.25, eps_mode="absolute"),
    OptimizerConfig("shampoo", e_l=0.0, e_r=0.0),  # degenerates to sgd
    OptimizerConfig("soap", e_l=1.0, e_r=1.0),
    OptimizerConfig("soap", e_l=1.0, e_r=0.0),
    OptimizerConfig("soap", e_l=0.0, e_r=1.0),
    OptimizerConfig("soap", e_l=0.0, e_r=0.0),  # degenerates to adam
    OptimizerConfig("muon"),
)


def test_1_update_rule_oracles():
    with gate(1, "rank-1 oracle equivalence"):
        t0 = time.monotonic()
        for opt in ORACLE_BATTERY:
            gap = oracle_agreement(opt, n_draws=100, seed=11)
            assert gap <= 1e-8, f"{opt.rule} e=({opt.e_l},{opt.e_r}): {gap:.3e}"
        svd_gap = muon_svd_error(MUON, n_draws=100, seed=11)
        assert svd_gap <= 0.05, f"muon vs svd: {svd_gap:.4f}"
        assert time.monotonic() - t0 < 10.0


def test_2_gram_route_matches_dense():
    with gate(2, "Gram-matrix route"):
        t0 = time.monotonic()
        for b in (1, 2, 4):
            for d in (8, 32):
                for e_l, e_r in ((0.25, 0.25), (0.5, 0.5), (0.25, 0.5)):
                    rng = np.random.default_rng(1000 * d + 10 * b + int(4 * e_l))
                    # unit-scale inputs keep the dense reference's own
                    # eigendecomposition rounding below the gap tolerance
                    delta = rng.standard_normal((d, b))
                    delta /= np.linalg.norm(delta)
                    x = rng.standard_normal((d, b))
                    x /= np.linalg.norm(x)
                    got = gram_oracle_shampoo(delta, x, eps=1e-6, e_l=e_l, e_r=e_r)
                    want = dense_shampoo(delta @ x.T / b, eps=1e-6, e_l=e_l, e_r=e_r)
                    gap = np.max(np.abs(got - want)) / np.max(np.abs(want))
                    assert gap < 1e-8, f"B={b} d={d} e=({e_l},{e_r}): {gap:.3e}"
        # duplicated samples force rank-deficient Gram matrices
        rng = np.random.default_rng(77)
        delta = rng.standard_normal((8, 4))
        x = rng.standard_normal((8, 4))
        delta[:, 3] = delta[:, 0]
        x[:, 3] = x[:, 0]
        got = gram_oracle_shampoo(delta, x, eps=1e-6, e_l=0.5, e_r=0.5)
        want = dense_shampoo(delta @ x.T / 4, eps=1e-6, e_l=0.5, e_r=0.5)
        assert np.max(np.abs(got - want)) / np.max(np.abs(want)) < 1e-6
        assert time.monotonic() - t0 < 10.0


EXPONENT_COLUMNS = (
    ("sgd", OptimizerConfig("sgd")),
    ("adam", OptimizerConfig("adam")),
    ("muon", OptimizerConfig("muon")),
    ("adamuon", OptimizerConfig("adamuon")),
    ("shampoo quarter", OptimizerConfig("shampoo", e_l=0.25, e_r=0.25)),
    ("shampoo half", OptimizerConfig("shampoo", e_l=0.5, e_r=0.5)),
    ("shampoo blocked", OptimizerConfig("shampoo", e_l=0.5, e_r=0.5,
                                        block_in=32, block_out=32)),
    ("soap", OptimizerConfig("soap", e_l=1.0, e_r=1.0)),
    ("soap blocked", OptimizerConfig("soap", e_l=1.0, e_r=1.0,
                                     block_in=32, block_out=32)),
    ("adam graft shampoo", OptimizerConfig("shampoo", e_l=0.5, e_r=0.5,
                                           graft_rule="adam")),
)


def test_3_width_exponents_match_lr_rules():
    with gate(3, "learning-rate exponents"):
        t0 = time.monotonic()
        plan = ScalingPlan("mup", 64, 1.0)
        checks = {}
        for name, opt in EXPONENT_COLUMNS:
            chk = mup_exponent_check(opt, plan, widths=EXPONENT_WIDTHS, seed=3)
            gap = abs(chk.measured_slope + chk.multiplier_slope)
            assert gap <= 0.1, f"{name}: measured {chk.measured_slope:+.3f} vs rule {chk.multiplier_slope:+.3f}"
            checks[name] = chk
        # fixed 32-blocking turns the half-exponent rule into 1/n_blk
        assert checks["shampoo blocked"].multiplier_slope == pytest.approx(-2.0, abs=1e-9)
        # grafting hands the learning-rate column to the norm reference
        assert checks["adam graft shampoo"].multiplier_slope == pytest.approx(
            checks["adam"].multiplier_slope, abs=1e-9
        )
        assert time.monotonic() - t0 < 120.0


def test_4_coordinate_check_width_transfer(coord_results):
    with gate(4, "width coordinate check"):
        total = 0.0
        for name in COORD_CONFIGS:
            res, secs = coord_results[name, "mup"]
            total += secs
            assert not res.excluded, f"{name} mup diverged: {res.excluded}"
            worst = max(abs(s) for s, _ in res.slopes[10].values())
            assert worst <= 0.15, f"{name} mup step-10 slope {worst:.3f}"

            res, secs = coord_results[name, "sp"]
            total += secs
            blowup = max(s for s, _ in res.slopes[10].values())
            assert blowup >= 0.4, f"{name} sp step-10 slope {blowup:.3f}"
        assert total < 900.0


def test_5_finite_width_graft_deviation(deviation_results):
    with gate(5, "finite-width graft deviation"):
        res, _ = deviation_results["unblocked"]
        assert not res.excluded
        slope = res.slopes[200]["fc2"][0]
        assert slope <= -0.15, f"unblocked step-200 slope {slope:+.3f}"

        # the deviation lives in the square hidden layer, the only one whose
        # preconditioner factors grow with width on both sides
        for fix in ("blocked", "spectral"):
            res, _ = deviation_results[fix]
            assert not res.excluded
            fixed = abs(res.slopes[200]["fc2"][0])
            assert fixed <= 0.2, f"{fix} step-200 slope {fixed:.3f}"


def test_5_update_rank_bounds():
    with gate(5, "update rank bounds"):
        cfg = SweepConfig(
            opt=UNBLOCKED_GRAFT, plan=ScalingPlan("mup", 64, DEVIATION_ETA),
            widths=(64,), steps=80, batch_size=1, probe_steps=(10,), probe_batch=16,
        )
        scan = rank_scan(cfg)
        run = scan.runs[0]
        assert not run.diverged
        by_step = {}
        for rec in run.records:
            by_step[rec.step, rec.layer] = rec.srank
            # a step-t momentum has seen at most t single-sample gradients
            assert rec.srank <= min(64, rec.step * cfg.batch_size) + 1e-6
        # the readout owns the only nonzero step-1 gradient (zero-init head);
        # hidden layers receive their first rank-1 gradient at step 2
        assert by_step[1, "readout"] == pytest.approx(1.0, abs=1e-6)
        assert by_step[1, "fc2"] == 0.0
        assert by_step[2, "fc2"] == pytest.approx(1.0, abs=1e-6)


def _last_block_slope(result):
    xs, ys = [], []
    for run in result.runs:
        for rec in run.records:
            if rec.step == 10 and rec.layer == f"block{run.depth}" and rec.delta_h_rms > 0:
                xs.append(float(run.depth))
                ys.append(rec.delta_h_rms)
    assert len(xs) == len(result.runs)
    return exponent_fit(xs, ys)[0]


def test_6_depth_transfer_residual(depth_results):
    with gate(6, "depth coordinate check"):
        total = 0.0
        # layers whose probe inputs are depth-invariant: the embedding, the
        # first block, the last block, and the readout
        for name in ("muon a1", "shampoo a1"):
            res, secs = depth_results[name]
            total += secs
            assert not res.excluded
            slopes = res.slopes[10]
            for layer in ("embed", "block1", "readout"):
                s = slopes[layer][0]
                assert abs(s) <= 0.2, f"{name} {layer} slope {s:+.3f}"
            s = _last_block_slope(res)
            assert abs(s) <= 0.2, f"{name} last block slope {s:+.3f}"

        res, secs = depth_results["shampoo a0"]
        total += secs
        s = res.slopes[10]["block1"][0]
        assert s == pytest.approx(-1.0, abs=0.2), f"a0 block1 slope {s:+.3f}"
        assert total < 600.0


def test_7_normalization_invariants():
    with gate(7, "normalization invariants"):
        rng = np.random.default_rng(21)
        # grafted norm equals the reference norm once the guard is removed
        graft_cfg = OptimizerConfig(
            "shampoo", e_l=0.5, e_r=0.5, graft_rule="adam", graft_eps=0.0,
        )
        adam_cfg = OptimizerConfig("adam")
        graft_state, adam_state = LayerState(), LayerState()
        for _ in range(6):
            g = rng.standard_normal((12, 9))
            grafted = optimizer_step(graft_state, g, graft_cfg)
            reference = optimizer_step(adam_state, g, adam_cfg)
            assert grafted.frob == pytest.approx(reference.frob, rel=1e-10)

        # dense-sigma substitution pins the spectral norm exactly
        d_out, d_in = 24, 16
        target = math.sqrt(d_out / d_in)
        update = rng.standard_normal((d_out, d_in))
        state = PowerIterState(v=np.ones(d_in) / math.sqrt(d_in))
        exact, _ = spectral_normalize(update, state, d_out, d_in, exact=True)
        assert np.linalg.norm(exact, 2) == pytest.approx(target, rel=1e-3)

        # online power iteration converges within 5% after 20 warm steps
        state = PowerIterState(v=np.ones(d_in) / math.sqrt(d_in))
        for _ in range(20):
            warmed, state = spectral_normalize(update, state, d_out, d_in)
        assert np.linalg.norm(warmed, 2) == pytest.approx(target, rel=0.05)


def test_8_weight_decay_rules():
    with gate(8, "weight decay scaling"):
        lam = 0.3
        for width in (128, 256, 512, 1024):
            assert wd_scale(width, 64, "inv_width") == 64 / width
            halved = wd_scale(2 * width, 64, "inv_width")
            assert halved == wd_scale(width, 64, "inv_width") / 2
        rng = np.random.default_rng(8)
        w = rng.standard_normal((6, 5))
        for eta in (0.5, 0.03125):
            coupled = apply_weight_decay(w, lam, "coupled", eta)
            independent = apply_weight_decay(w, eta * lam, "independent")
            assert np.array_equal(coupled, independent)


def test_9_compute_multiplier_power_law():
    with gate(9, "compute multiplier"):
        compute = np.logspace(13.0, 17.0, 9)
        loss = compute ** -0.05
        baseline = list(zip(compute, loss))
        for i in range(1, len(compute) - 1):
            est = compute_multiplier(baseline, (compute[i] / 1.4, loss[i]))
            assert est.value == pytest.approx(1.4, abs=0.02)
            assert not est.flagged
            assert not est.extrapolated


def test_10_seeded_reruns_are_byte_identical(tmp_path):
    with gate(10, "determinism"):
        config = {
            "model": {"arch": "mlp", "widths": [64, 128, 256], "seeds": [0]},
            "optimizer": {"rule": "muon"},
            "scaling": {"param": "mup", "base_width": 64, "eta_base": 0.05},
            "sweep": {"steps": 40, "batch_size": 32, "probe_steps": [10, 40]},
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        outputs = []
        for attempt in ("first", "second"):
            out_dir = tmp_path / attempt
            proc = subprocess.run(
                [sys.executable, "-m", "mupre", "coordcheck",
                 "--config", str(cfg_path), "--out", str(out_dir)],
                capture_output=True, text=True,
            )
            assert proc.returncode == 0, proc.stderr
            csvs = sorted(out_dir.glob("*.csv"))
            assert csvs
            outputs.append({p.name: p.read_bytes() for p in csvs})
        assert outputs[0] == outputs[1]
