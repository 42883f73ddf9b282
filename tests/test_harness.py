import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mupre import harness, optim
from mupre.harness import (
    CSV_HEADER,
    ExponentCheck,
    MetricRecord,
    RunResult,
    compute_multiplier,
    coordcheck,
    depthcheck,
    exponent_fit,
    lrsweep,
    mup_exponent_check,
    oracle_agreement,
    rank1_oracle,
    rankscan,
    records_csv,
    run_summary,
    run_training,
)
from mupre.config import ARCHS, EXPERIMENTS, FieldError, OptimizerConfig, SweepConfig
from mupre.linalg import NonFiniteError
from mupre.models import MlpModel
from mupre.optim import LayerState, optimizer_step
from mupre.scaling import (
    LayerHyper,
    LayerSpec,
    ModelManifest,
    ScalingPlan,
    build_plan,
    mlp_manifest,
    resmlp_manifest,
)

from .shampoo_reference import dense_shampoo, gram_oracle_shampoo


def hyper(eta=1.0, eps=1e-8):
    return LayerHyper(eta=eta, eps=eps, sigma_init=0.0, residual_mult=1.0, lambda_wd=0.0)


def mup(eta=0.05, **kw):
    return ScalingPlan("mup", base_width=8, eta_base=eta, **kw)


class TestRank1Oracle:
    def test_shampoo_quarter_powers_frozen_example(self):
        opt = OptimizerConfig("shampoo", e_l=0.25, e_r=0.25, eps_mode="absolute")
        out = rank1_oracle(opt, [1.0, 0.0], [1.0, 1.0], [1.0, 1.0], hyper(eps=1.0))
        assert out[0] == pytest.approx(1.1547005383792515, abs=1e-15)
        assert out[1] == 0.0

    def test_eta_scales_linearly(self):
        opt = OptimizerConfig("muon")
        a = rank1_oracle(opt, [1.0, 2.0], [3.0, 1.0], [1.0, 0.0], hyper(eta=1.0))
        b = rank1_oracle(opt, [1.0, 2.0], [3.0, 1.0], [1.0, 0.0], hyper(eta=2.5))
        np.testing.assert_allclose(b, 2.5 * a, rtol=1e-15)

    @pytest.mark.parametrize("bad_delta, bad_x", [([0.0, 0.0], [1.0, 1.0]), ([1.0, 1.0], [0.0, 0.0])])
    def test_zero_inputs_rejected(self, bad_delta, bad_x):
        opt = OptimizerConfig("adam")
        with pytest.raises(ValueError):
            rank1_oracle(opt, bad_delta, bad_x, [1.0, 1.0], hyper())

    def test_probe_length_mismatch_rejected(self):
        opt = OptimizerConfig("adam")
        with pytest.raises(ValueError):
            rank1_oracle(opt, [1.0, 1.0], [1.0, 1.0], [1.0], hyper())


AGREEMENT_CONFIGS = {
    "sgd": OptimizerConfig("sgd"),
    "adam": OptimizerConfig("adam"),
    "shampoo_quarter_abs": OptimizerConfig(
        "shampoo", e_l=0.25, e_r=0.25, eps_mode="absolute"
    ),
    "shampoo_half_rel": OptimizerConfig("shampoo", e_l=0.5, e_r=0.5),
    "shampoo_blocked": OptimizerConfig(
        "shampoo", e_l=0.5, e_r=0.5, eps_mode="absolute", block_in=4, block_out=5
    ),
    "soap_two_sided": OptimizerConfig("soap", e_l=1.0, e_r=1.0),
    "soap_left": OptimizerConfig("soap", e_l=1.0, e_r=0.0),
    "soap_right": OptimizerConfig("soap", e_l=0.0, e_r=1.0),
    "soap_neither": OptimizerConfig("soap", e_l=0.0, e_r=0.0),
    "soap_blocked": OptimizerConfig("soap", e_l=1.0, e_r=1.0, block_in=4, block_out=5),
    "muon": OptimizerConfig("muon"),
    "adamuon": OptimizerConfig("adamuon"),
    "adamuon_aligned": OptimizerConfig("adamuon", rms_align=True),
    "graft_adam_on_shampoo": OptimizerConfig(
        "shampoo", e_l=0.5, e_r=0.5, graft_rule="adam", graft_eps=1e-10
    ),
    "graft_sgd_on_blocked_shampoo": OptimizerConfig(
        "shampoo",
        e_l=0.25,
        e_r=0.25,
        eps_mode="absolute",
        graft_rule="sgd",
        graft_eps=1e-10,
        block_in=3,
        block_out=4,
    ),
}


class TestOracleAgreement:
    @pytest.mark.parametrize("name", sorted(AGREEMENT_CONFIGS))
    def test_oracle_matches_full_step(self, name):
        opt = AGREEMENT_CONFIGS[name]
        assert oracle_agreement(opt, n_draws=25, seed=3) < 1e-8

    def test_wide_and_tall_shapes(self):
        opt = OptimizerConfig("muon")
        assert oracle_agreement(opt, n_draws=10, seed=0, d_out=5, d_in=17) < 1e-8
        assert oracle_agreement(opt, n_draws=10, seed=0, d_out=17, d_in=5) < 1e-8


class TestGramOracle:
    @pytest.mark.parametrize("b", [1, 2, 4])
    @pytest.mark.parametrize("d", [8, 32])
    def test_matches_dense_path(self, b, d):
        rng = np.random.default_rng(100 * d + b)
        delta = rng.standard_normal((d, b))
        x = rng.standard_normal((d, b))
        g = delta @ x.T / b
        got = gram_oracle_shampoo(delta, x, eps=1e-6, e_l=0.25, e_r=0.25)
        want = dense_shampoo(g, eps=1e-6, e_l=0.25, e_r=0.25)
        assert np.max(np.abs(got - want)) / np.max(np.abs(want)) < 1e-8

    def test_rank_deficient_batch(self):
        rng = np.random.default_rng(5)
        delta = rng.standard_normal((8, 4))
        x = rng.standard_normal((8, 4))
        delta[:, 3] = delta[:, 0]
        x[:, 3] = x[:, 0]
        g = delta @ x.T / 4
        got = gram_oracle_shampoo(delta, x, eps=1e-6, e_l=0.5, e_r=0.5)
        want = dense_shampoo(g, eps=1e-6, e_l=0.5, e_r=0.5)
        assert np.max(np.abs(got - want)) / np.max(np.abs(want)) < 1e-6

    def test_zero_exponents_return_gradient(self):
        rng = np.random.default_rng(6)
        delta = rng.standard_normal((6, 3))
        x = rng.standard_normal((6, 3))
        got = gram_oracle_shampoo(delta, x, eps=1e-8, e_l=0.0, e_r=0.0)
        np.testing.assert_allclose(got, delta @ x.T / 3, rtol=1e-10, atol=1e-12)

    def test_batch_mismatch_rejected(self):
        with pytest.raises(ValueError):
            gram_oracle_shampoo(np.ones((4, 2)), np.ones((4, 3)), 1e-6, 0.5, 0.5)

    @pytest.mark.parametrize("e_l,e_r", [(0.25, 0.25), (0.5, 0.5), (0.25, 0.5)])
    @pytest.mark.parametrize("b", [2, 4])
    def test_matches_optimizer_step_given_factors(self, b, e_l, e_r):
        # step 1 with betas 0 and an absolute eps is Shampoo of the batch
        # gradient (1/B) Delta X^T alone; its factors (Delta / B, X) span
        # both sides of the 40 x 30 layer in B columns
        rng = np.random.default_rng(10 * b + int(8 * e_r))
        delta = rng.standard_normal((40, b))
        delta /= np.linalg.norm(delta)
        x = rng.standard_normal((30, b))
        x /= np.linalg.norm(x)
        c = OptimizerConfig("shampoo", e_l=e_l, e_r=e_r, eps=1e-6, eps_mode="absolute",
                            beta1=0.0, beta2=0.0)
        left = delta / b
        state = LayerState(factors=(left, x))
        got = optimizer_step(state, left @ x.T, c).update
        assert state.blocks[0].q_l.shape == (40, b) and state.blocks[0].q_r.shape == (30, b)
        want = gram_oracle_shampoo(delta, x, eps=1e-6, e_l=e_l, e_r=e_r)
        assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)


class TestExponentFit:
    def test_identity_relation(self):
        slope, r2 = exponent_fit([64, 128, 256], [64.0, 128.0, 256.0])
        assert slope == pytest.approx(1.0, abs=1e-12)
        assert r2 == pytest.approx(1.0, abs=1e-12)

    def test_constant_series_has_unit_r2(self):
        slope, r2 = exponent_fit([64, 128, 256], [3.0, 3.0, 3.0])
        assert slope == pytest.approx(0.0, abs=1e-12)
        assert r2 == 1.0

    def test_noisy_inverse_sqrt(self):
        widths = np.array([64, 128, 256, 512, 1024], dtype=float)
        rng = np.random.default_rng(0)
        values = widths**-0.5 * (1.0 + 0.01 * rng.standard_normal(widths.size))
        slope, _ = exponent_fit(widths, values)
        assert slope == pytest.approx(-0.5, abs=0.05)

    def test_rejects_short_or_nonpositive(self):
        with pytest.raises(ValueError):
            exponent_fit([64], [1.0])
        with pytest.raises(ValueError):
            exponent_fit([64, 128], [1.0, -1.0])
        with pytest.raises(ValueError):
            exponent_fit([64, 0], [1.0, 1.0])


class TestComputeMultiplier:
    def test_frozen_example(self):
        est = compute_multiplier([(1e15, 3.3), (2e15, 3.2)], (1.5e15, 3.2))
        assert est.value == pytest.approx(4.0 / 3.0, abs=1e-12)
        assert not est.flagged
        assert not est.extrapolated

    def test_point_on_curve_gives_one(self):
        est = compute_multiplier([(1e15, 3.3), (2e15, 3.2)], (1e15, 3.3))
        assert est.value == pytest.approx(1.0, abs=1e-12)

    def test_extrapolation_flagged(self):
        est = compute_multiplier([(1e15, 3.3), (2e15, 3.2)], (1e15, 3.0))
        assert est.extrapolated
        assert est.value > 2.0

    def test_non_monotone_envelope_flagged(self):
        est = compute_multiplier(
            [(1e15, 3.3), (2e15, 3.4), (4e15, 3.1)], (2e15, 3.2)
        )
        assert est.flagged
        assert est.value > 0.0

    def test_short_series_rejected(self):
        with pytest.raises(ValueError):
            compute_multiplier([(1e15, 3.3)], (1e15, 3.3))
        with pytest.raises(ValueError):
            compute_multiplier([(1e15, 3.3), (2e15, 3.3)], (1e15, 3.3))

    @pytest.mark.parametrize("cand_l", [1e-300, 1e300])
    def test_unrepresentable_extrapolation_rejected(self, cand_l):
        with pytest.raises(ValueError, match="outside float64 range"):
            compute_multiplier([(1e10, 10.0), (1e20, 0.1)], (1.0, cand_l))

    def test_log_log_exactness(self):
        # points on loss = C^-0.1: multiplier for a 1.4x-cheaper curve is 1.4
        base = [(c, c**-0.1) for c in (1e14, 1e15, 1e16)]
        cand_c = 2e15 / 1.4
        est = compute_multiplier(base, (cand_c, (2e15) ** -0.1))
        assert est.value == pytest.approx(1.4, rel=1e-10)


def plan_row(spec, opt, plan):
    manifest = ModelManifest(width=spec.d_in, layers=(spec,))
    return build_plan(manifest, opt, plan)[spec.name]


class TestLayerConfig:
    def test_eps_scales_with_rule_column(self):
        opt = OptimizerConfig("adam", eps=1e-8)
        spec = LayerSpec("h", "hidden", d_in=16, d_out=16, base_d_in=8, base_d_out=8)
        row = plan_row(spec, opt, mup())
        assert row.eps == pytest.approx(1e-8 * 0.5, rel=1e-12)

    def test_graft_knobs_scale_independently(self):
        opt = OptimizerConfig(
            "shampoo", e_l=0.5, e_r=0.5, eps=1e-8,
            graft_rule="adam", graft_eps=1e-10, graft_ref_eps=1e-8,
        )
        spec = LayerSpec("h", "hidden", d_in=16, d_out=16, base_d_in=8, base_d_out=8)
        row = plan_row(spec, opt, mup())
        # relative shampoo eps rides along unscaled
        assert row.eps == pytest.approx(1e-8, rel=1e-12)
        # guard column: sqrt(d_out/d_in) / lr formula, ratio vs base is 1 here
        assert row.graft_eps == pytest.approx(1e-10, rel=1e-12)
        assert row.graft_ref_eps == pytest.approx(1e-8 * 0.5, rel=1e-12)

    @pytest.mark.parametrize("opt", [
        OptimizerConfig("adam", eps=1e-8),
        OptimizerConfig(
            "shampoo", e_l=0.5, e_r=0.5, eps=1e-5, eps_mode="absolute",
            graft_rule="adam", graft_eps=1e-10, graft_ref_eps=1e-7,
            block_in=4, block_out=4,
        ),
    ], ids=["adam", "adam_graft_on_blocked_shampoo"])
    def test_training_runs_the_printed_plan(self, opt, monkeypatch):
        seen = []
        step = harness.optimizer_step

        def spy(state, g, cfg):
            seen.append(cfg)
            return step(state, g, cfg)

        monkeypatch.setattr(harness, "optimizer_step", spy)
        cfg = smoke_cfg(opt=opt, steps=2, probe_steps=(1,))
        res = run_training(cfg, 16, 1, 0.05, seed=0)
        table = build_plan(mlp_manifest(16, 8), opt, mup())
        assert len(seen) == 2 * len(res.layer_names)
        for name, used in zip(res.layer_names * 2, seen):
            row = table[name]
            assert (used.eps, used.graft_eps, used.graft_ref_eps) == (
                row.eps, row.graft_eps, row.graft_ref_eps
            )
            assert replace(used, eps=opt.eps, graft_eps=opt.graft_eps,
                           graft_ref_eps=opt.graft_ref_eps) == opt


@st.composite
def sweep_configs(draw):
    """Valid SweepConfigs over the four grid axes, the arch and the probe steps."""
    def entries(values, ascending, most=3):
        drawn = draw(st.lists(st.sampled_from(values), min_size=1, max_size=most, unique=True))
        return tuple(sorted(drawn) if ascending else drawn)

    return SweepConfig(
        OptimizerConfig("muon"), mup(),
        widths=entries((8, 16, 32, 64), True), depths=entries((1, 2, 4, 8), True),
        lr_grid=entries((0.25, 0.5, 1.0), False), seeds=entries((0, 1, 2), False),
        arch=draw(st.sampled_from(ARCHS)), steps=draw(st.sampled_from((6, 12))),
        probe_steps=entries((1, 6, 12), False, most=2),
    )


class TestSweepConfigValidation:
    def base(self, **kw):
        args = dict(
            opt=OptimizerConfig("muon"),
            plan=mup(),
            widths=(8, 16),
            steps=5,
            batch_size=4,
            probe_steps=(2, 4),
            probe_batch=4,
        )
        args.update(kw)
        return SweepConfig(**args)

    def test_valid_config_builds(self):
        cfg = self.base()
        assert cfg.widths == (8, 16)

    @pytest.mark.parametrize(
        "kw",
        [
            {"widths": ()},
            {"widths": (16, 8)},
            {"arch": "cnn"},
            {"lr_grid": ()},
            {"lr_grid": (0.0,)},
            {"probe_steps": (0,)},
            {"batch_size": 0},
            {"steps": 0},
            {"divergence_factor": 1.0},
            {"n_layers": 1},
            {"activation": "gelu"},
            {"wd_variant": "bogus"},
        ],
    )
    def test_invalid_configs_rejected(self, kw):
        with pytest.raises(ValueError):
            self.base(**kw)

    # command -> the axes whose every value it trains
    SWEPT = {"coordcheck": {"widths"}, "depthcheck": {"depths"},
             "lrsweep": {"widths", "lr_grid", "seeds"}, "rankscan": {"widths"}}

    @settings(max_examples=100, deadline=None)
    @given(cfg=sweep_configs())
    @example(cfg=SweepConfig(OptimizerConfig("muon"), mup(), widths=(8, 16, 32),
                             depths=(1, 2, 4), lr_grid=(0.5, 1.0), seeds=(3, 4)))
    @example(cfg=SweepConfig(OptimizerConfig("muon"), mup(), widths=(8, 16, 32), steps=10))
    @example(cfg=SweepConfig(OptimizerConfig("muon"), mup(), widths=(8,), depths=(1, 2, 4),
                             arch="resmlp", steps=200))
    @example(cfg=SweepConfig(OptimizerConfig("muon"), mup(), widths=(8, 16),
                             lr_grid=(0.5, 1.0), seeds=(3, 4), steps=1))
    def test_grid_follows_the_command(self, cfg):
        # cells: the (width, depth, eta, seed) product of the swept axes, the
        # others at their first value and eta at eta_base; require: the
        # row's preconditions, and one value on every axis not swept
        assert set(EXPERIMENTS) == set(self.SWEPT)
        for name, row in EXPERIMENTS.items():
            swept = self.SWEPT[name]
            assert set(row.sweeps) == swept and row.fit in swept

            def axis(field, first):
                return getattr(cfg, field) if field in swept else (first,)

            want = [(w, d, e, s)
                    for w in axis("widths", cfg.widths[0])
                    for d in axis("depths", cfg.depths[0])
                    for e in axis("lr_grid", cfg.plan.eta_base)
                    for s in axis("seeds", cfg.seeds[0])]
            cells = cfg.cells(name)
            assert cells == want and len(set(cells)) == len(cells)

            runnable = (
                len(getattr(cfg, row.fit)) >= row.min_points
                and not (row.probes_in_run and max(cfg.probe_steps) > cfg.steps)
                and row.arch in (None, cfg.arch)
                and all(len(getattr(cfg, f)) == 1 for f in
                        ("widths", "depths", "lr_grid", "seeds") if f not in swept)
            )
            try:
                cfg.require(name)
            except FieldError:
                assert not runnable, name
            else:
                assert runnable, name

    def test_manifest_follows_arch(self):
        plan = mup(base_depth=2)
        mlp = self.base(plan=plan, n_layers=4)
        assert mlp.manifest(16, 3) == mlp_manifest(16, 8, 4)
        res = self.base(plan=plan, arch="resmlp")
        assert res.manifest(16, 3) == resmlp_manifest(16, 3, 8)


def smoke_cfg(**kw):
    args = dict(
        opt=OptimizerConfig("muon"),
        plan=mup(),
        widths=(8, 16, 32),
        steps=12,
        batch_size=8,
        probe_steps=(5, 10),
        probe_batch=8,
    )
    args.update(kw)
    return SweepConfig(**args)


class TestRunTraining:
    def test_records_and_losses(self):
        cfg = smoke_cfg()
        res = run_training(cfg, 8, 1, 0.05, seed=0)
        assert not res.diverged
        assert res.steps_completed == 12
        assert res.layer_names == ("fc1", "fc2", "readout")
        steps = {r.step for r in res.records}
        assert steps == {5, 10}
        assert len(res.records) == 2 * 3
        for rec in res.records:
            assert math.isfinite(rec.delta_h_rms)
            assert rec.run_id == res.run_id
        assert math.isfinite(res.final_loss)

    def test_training_reduces_loss(self):
        cfg = smoke_cfg(steps=60)
        res = run_training(cfg, 16, 1, 0.05, seed=0)
        assert res.losses[-1] < res.losses[0]

    def test_determinism_byte_identical_csv(self):
        cfg = smoke_cfg()
        a = run_training(cfg, 16, 1, 0.05, seed=1)
        b = run_training(cfg, 16, 1, 0.05, seed=1)
        assert a.losses == b.losses
        assert records_csv(a.records) == records_csv(b.records)

    def test_seed_changes_trajectory(self):
        cfg = smoke_cfg()
        a = run_training(cfg, 16, 1, 0.05, seed=1)
        b = run_training(cfg, 16, 1, 0.05, seed=2)
        assert a.losses != b.losses

    def test_divergence_flags_run(self):
        cfg = smoke_cfg(opt=OptimizerConfig("sgd"), steps=40)
        res = run_training(cfg, 16, 1, 1e4, seed=0)
        assert res.diverged
        assert res.final_loss == math.inf

    def failing_step(self, monkeypatch, exc, at_call):
        """Make the at_call-th optimizer step raise exc."""
        calls = []
        step = harness.optimizer_step

        def flaky(state, g, cfg):
            calls.append(1)
            if len(calls) == at_call:
                raise exc
            return step(state, g, cfg)

        monkeypatch.setattr(harness, "optimizer_step", flaky)

    def test_non_finite_failure_is_a_divergence(self, monkeypatch):
        # the 7th layer step is step 3's first layer: its loss is recorded
        self.failing_step(monkeypatch, NonFiniteError("gradient contains non-finite entries"), 7)
        res = run_training(smoke_cfg(), 8, 1, 0.05, seed=0)
        assert res.diverged and res.final_loss == math.inf
        assert res.steps_completed == 3

    def test_other_value_errors_propagate(self, monkeypatch):
        self.failing_step(monkeypatch, ValueError("gradient factors do not multiply"), 7)
        with pytest.raises(ValueError, match="do not multiply"):
            run_training(smoke_cfg(), 8, 1, 0.05, seed=0)

    def test_non_finite_probe_spec_is_a_divergence(self, monkeypatch):
        # the exact spectral norm raises when an update's Gram overflows;
        # here the first report of the second probe step (step 10) does
        reports = []
        spec = optim.UpdateReport.spec

        def overflowing(report):
            if not any(r is report for r in reports):
                reports.append(report)
            if len(reports) > 3:
                raise NonFiniteError("spectral_norm Gram matrix overflowed")
            return spec.func(report)

        monkeypatch.setattr(optim.UpdateReport, "spec", property(overflowing))
        res = run_training(smoke_cfg(), 8, 1, 0.05, seed=0)
        assert res.diverged and res.final_loss == math.inf
        assert res.steps_completed == 10
        assert [(r.step, r.layer) for r in res.records] == [
            (5, "fc1"), (5, "fc2"), (5, "readout")
        ]

    def test_each_step_gets_its_gradients_factors(self, monkeypatch):
        seen = []
        step = harness.optimizer_step

        def watching(state, g, cfg):
            left, right = state.factors
            seen.append((left @ right.T).tobytes() == g.tobytes())
            report = step(state, g, cfg)
            seen.append(state.factors is None)
            return report

        monkeypatch.setattr(harness, "optimizer_step", watching)
        res = run_training(smoke_cfg(), 8, 1, 0.05, seed=0)
        assert not res.diverged and len(seen) == 2 * 3 * 12 and all(seen)

    def poison_factors(self, monkeypatch):
        """Make step 3's fc2 factors non-finite while its gradients stay finite."""
        calls = []
        backward = MlpModel.backward

        def poisoned(model, cache):
            grads, factors = backward(model, cache)
            calls.append(1)
            if len(calls) == 3:
                left, right = factors["fc2"]
                factors["fc2"] = (np.full_like(left, np.nan), right)
            return grads, factors

        monkeypatch.setattr(MlpModel, "backward", poisoned)

    def test_non_finite_factors_are_a_divergence(self, monkeypatch):
        self.poison_factors(monkeypatch)
        shampoo = OptimizerConfig("shampoo", e_l=0.25, e_r=0.25)
        res = run_training(smoke_cfg(opt=shampoo), 8, 1, 0.05, seed=0)
        assert res.diverged and res.steps_completed == 3

    def test_non_finite_muon_factors_are_a_divergence(self, monkeypatch):
        self.poison_factors(monkeypatch)
        res = run_training(smoke_cfg(), 8, 1, 0.05, seed=0)
        assert res.diverged and res.steps_completed == 3

    @staticmethod
    def muon_ns_shapes(monkeypatch, width, steps):
        """The input shape of every newton_schulz call of a Muon mup run at
        this width with batch 32, in call order, and the run's result."""
        shapes = []
        ns = optim.newton_schulz
        monkeypatch.setattr(optim, "newton_schulz", lambda m, *a: shapes.append(m.shape) or ns(m, *a))
        cfg = smoke_cfg(widths=(width,), steps=steps, batch_size=32, probe_steps=(2, steps))
        res = run_training(cfg, width, 1, 0.05, seed=0)
        assert not res.diverged and len(shapes) == 3 * steps
        return shapes, res

    def test_muon_takes_the_route_while_it_pays(self, monkeypatch):
        # at width 256 and batch 32, fc2's bases hold the numerical range of
        # its batch factors: the zero-init readout makes the left factor
        # zero at step 1, each step adds at most 32 columns a side, and the
        # tanh features of the scalar input are numerically rank deficient,
        # so neither basis fills its side in 6 steps and the route lasts
        # through all of them. fc1 (256 x 1) and readout (1 x 256) hold a
        # basis on their size-256 side only, spanned by the gradient's one
        # column, which adds one column a step (fc1's gradient is zero at
        # step 1, behind the zero-init readout); their side of 1 stays
        # dense. The route tiles nothing.
        def no_tiles(*args):
            raise AssertionError("muon_step called block_partition")

        monkeypatch.setattr(optim, "block_partition", no_tiles)
        shapes, res = self.muon_ns_shapes(monkeypatch, 256, 6)
        assert shapes[0::3] == [(t - 1, 1) for t in range(1, 7)]
        assert shapes[2::3] == [(1, t) for t in range(1, 7)]
        cores = shapes[1::3]
        assert cores[0][0] == 0 and 0 < cores[0][1] <= 32
        for before, after in zip([(0, 0)] + cores, cores):
            assert all(a <= b <= a + 32 for a, b in zip(before, after))
            assert max(after) < 256
        assert all(math.isfinite(r.spec_norm) for r in res.records)

    def test_muon_route_lasts_at_rankscan_shape(self, monkeypatch):
        # rankscan-muon's widest run, width 512 with batch 32 for 20 steps:
        # fc2 never orthogonalizes its 512 x 512 momentum, and each side of
        # its core grows by at most the 32 columns of a step's factors
        shapes, _ = self.muon_ns_shapes(monkeypatch, 512, 20)
        cores = shapes[1::3]
        assert (512, 512) not in cores
        for before, after in zip([(0, 0)] + cores, cores):
            assert all(a <= b <= a + 32 for a, b in zip(before, after))

    def test_consecutive_probes_share_a_forward_pass(self, monkeypatch):
        # probes at steps 3-6: step t's pre-update probe is step t - 1's
        # post-update one, so 6 steps take 6 training passes and 1 + 4
        # probe passes, and each record has the bits of a run that probes
        # that step alone, with two probe passes of its own
        calls = []
        forward = MlpModel.forward
        monkeypatch.setattr(MlpModel, "forward",
                            lambda model, batch: calls.append(batch) or forward(model, batch))
        cfg = smoke_cfg(steps=6, probe_steps=(3, 4, 5, 6))
        res = run_training(cfg, 8, 1, 0.05, seed=0)
        assert len(calls) == 6 + 1 + 4
        for step in (3, 4, 5, 6):
            alone = run_training(replace(cfg, probe_steps=(step,)), 8, 1, 0.05, seed=0)
            assert alone.records == [r for r in res.records if r.step == step]

    def test_weight_decay_changes_weights(self):
        a = run_training(smoke_cfg(), 8, 1, 0.05, seed=0)
        wd_plan = mup(wd_base=0.01)
        b = run_training(smoke_cfg(plan=wd_plan), 8, 1, 0.05, seed=0)
        assert a.losses[0] == b.losses[0]
        assert a.losses[-1] != b.losses[-1]

    def test_spectral_normalization_runs(self):
        cfg = smoke_cfg(opt=OptimizerConfig("muon", normalize="spectral"), steps=6)
        res = run_training(cfg, 8, 1, 0.05, seed=0)
        assert not res.diverged
        assert res.records


class TestCoordCheck:
    def test_structure_and_slopes(self):
        result = coordcheck(smoke_cfg())
        assert [r.width for r in result.runs] == [8, 16, 32]
        assert not result.excluded
        assert set(result.slopes) == {5, 10}
        for layer_slopes in result.slopes.values():
            assert set(layer_slopes) == {"fc1", "fc2", "readout"}
            for slope, r2 in layer_slopes.values():
                assert math.isfinite(slope) and math.isfinite(r2)

    def test_needs_three_widths(self):
        with pytest.raises(FieldError, match="at least 3 widths") as exc:
            coordcheck(smoke_cfg(widths=(8, 16)))
        assert exc.value.field == "widths"

    def test_diverged_runs_excluded(self):
        cfg = smoke_cfg(
            opt=OptimizerConfig("sgd"),
            plan=ScalingPlan("sp", base_width=8, eta_base=1e5),
            steps=30,
        )
        result = coordcheck(cfg)
        assert result.excluded


class TestDepthCheck:
    def test_requires_resmlp(self):
        with pytest.raises(FieldError, match="requires arch 'resmlp'") as exc:
            depthcheck(smoke_cfg(depths=(1, 2, 4)))
        assert exc.value.field == "arch"

    def test_needs_three_depths(self):
        with pytest.raises(FieldError, match="at least 3 depths") as exc:
            depthcheck(smoke_cfg(arch="resmlp", widths=(8,), depths=(1, 2)))
        assert exc.value.field == "depths"

    def test_structure(self):
        cfg = smoke_cfg(
            arch="resmlp",
            widths=(8,),
            depths=(1, 2, 4),
            plan=mup(alpha_depth=1.0),
        )
        result = depthcheck(cfg)
        assert [r.depth for r in result.runs] == [1, 2, 4]
        assert set(result.slopes) == {5, 10}
        layers = set(result.slopes[10])
        assert "embed" in layers and "readout" in layers


class TestLrSweep:
    def test_grid_and_argmin(self):
        cfg = smoke_cfg(widths=(8, 16), lr_grid=(0.01, 0.05), steps=20)
        result = lrsweep(cfg)
        assert set(result.losses) == {8, 16}
        for row in result.losses.values():
            assert set(row) == {0.01, 0.05}
            assert all(math.isfinite(v) or v == math.inf for v in row.values())
        assert set(result.argmin) == {8, 16}
        assert math.isfinite(result.drift_octaves)

    def test_divergent_cell_is_inf_and_avoided(self):
        cfg = smoke_cfg(
            opt=OptimizerConfig("sgd"), widths=(8, 16), lr_grid=(0.05, 1e5), steps=30
        )
        result = lrsweep(cfg)
        for width in (8, 16):
            assert result.losses[width][1e5] == math.inf
            assert result.argmin[width] == 0.05
        assert result.drift_octaves == 0.0

    @staticmethod
    def stub_mapper(optimum):
        """A mapper that trains nothing: each cell's final loss is its
        squared distance in octaves from its width's optimum (None: every
        eta diverges at that width)."""
        def run(cell):
            width, depth, eta, seed = cell
            best = optimum[width]
            loss = math.inf if best is None else math.log2(eta / best) ** 2
            return RunResult(
                run_id=f"w{width}-e{eta}", width=width, depth=depth, eta_base=eta,
                seed=seed, diverged=best is None, final_loss=loss, losses=(),
                records=[], layer_names=(),
            )
        return lambda fn, *axes: [run(cell) for cell in zip(*axes)]

    @pytest.mark.parametrize("optimum,drift", [
        ({8: 2**-6, 16: 2**-4, 32: 2**-6}, 2.0),
        ({8: 2**-6, 16: 2**-8, 32: 2**-6}, 2.0),
        ({8: 2**-6, 16: 2**-4, 32: 2**-8}, 4.0),
        ({8: 2**-5, 16: 2**-5, 32: 2**-5}, 0.0),
        ({8: 2**-6, 16: None, 32: 2**-6}, None),
    ])
    def test_drift_is_spread_over_all_widths(self, optimum, drift):
        cfg = smoke_cfg(widths=(8, 16, 32), lr_grid=tuple(2.0**k for k in range(-8, -3)))
        result = lrsweep(cfg, mapper=self.stub_mapper(optimum))
        assert result.argmin == optimum
        assert result.drift_octaves == drift

    def test_width_where_every_eta_diverged_has_no_argmin(self):
        cfg = smoke_cfg(
            opt=OptimizerConfig("sgd"), widths=(8, 16), lr_grid=(1e5, 1e6), steps=10
        )
        result = lrsweep(cfg)
        assert result.argmin == {8: None, 16: None}
        assert result.drift_octaves is None

    def test_depths_it_does_not_sweep_must_hold_one_value(self):
        with pytest.raises(FieldError, match="depths must hold one value") as exc:
            lrsweep(smoke_cfg(depths=(1, 2)))
        assert exc.value.field == "depths"


class TestRankScan:
    def test_summary_covers_probes(self):
        cfg = smoke_cfg(widths=(8, 16), steps=6, probe_steps=(1, 6))
        result = rankscan(cfg)
        assert set(result.summary) == {8, 16}
        for layer_summary in result.summary.values():
            assert set(layer_summary) == {"fc1", "fc2", "readout"}
            for first, last in layer_summary.values():
                assert first >= 0.0 and last >= 0.0
        # every step is recorded, not only the probe steps
        assert {r.step for r in result.runs[0].records} == set(range(1, 7))

    def test_batch_one_single_sample_rank_is_one(self):
        cfg = smoke_cfg(
            opt=OptimizerConfig("sgd"), widths=(8,), steps=2, batch_size=1,
            probe_steps=(1, 2),
        )
        result = rankscan(cfg)
        first, _ = result.summary[8]["readout"]
        assert first == pytest.approx(1.0, abs=1e-6)
        # hidden layers see their first nonzero (rank-1) gradient at step 2,
        # once the zero-initialized readout has moved
        recs = result.runs[0].records
        fc2_step2 = [r.srank for r in recs if r.step == 2 and r.layer == "fc2"]
        assert fc2_step2[0] == pytest.approx(1.0, abs=1e-6)


class TestMupExponentCheck:
    WIDTHS = (64, 128, 256, 512, 1024)

    def test_adam_measures_inverse_width(self):
        opt = OptimizerConfig("adam")
        check = mup_exponent_check(opt, mup(), widths=self.WIDTHS, seed=0)
        assert check.multiplier_slope == pytest.approx(-1.0, abs=1e-9)
        assert abs(check.measured_slope + check.multiplier_slope) < 0.1

    def test_muon_is_width_free(self):
        opt = OptimizerConfig("muon")
        check = mup_exponent_check(opt, mup(), widths=self.WIDTHS, seed=0)
        assert check.multiplier_slope == pytest.approx(0.0, abs=1e-9)
        assert abs(check.measured_slope) < 0.1


class TestCsvAndSummary:
    def test_header_exact(self):
        assert CSV_HEADER == (
            "run_id,width,depth,step,eta_base,loss,layer,delta_h_rms,srank,spec_norm"
        )
        assert records_csv([]) == CSV_HEADER + "\n"

    def test_row_uses_repr_floats(self):
        rec = MetricRecord(
            run_id="r", width=8, depth=1, step=3, eta_base=0.1, loss=1.0 / 3.0,
            layer="fc1", delta_h_rms=0.25, srank=1.5, spec_norm=2.0,
        )
        text = records_csv([rec])
        line = text.splitlines()[1]
        assert line == f"r,8,1,3,0.1,{1.0 / 3.0!r},fc1,0.25,1.5,2.0"

    def test_run_summary_fields(self):
        res = run_training(smoke_cfg(steps=4, probe_steps=(2,)), 8, 1, 0.05, seed=0)
        summary = run_summary(res)
        assert summary == {
            "run_id": res.run_id,
            "width": 8,
            "depth": 1,
            "eta_base": 0.05,
            "seed": 0,
            "diverged": False,
            "final_loss": res.final_loss,
            "steps_completed": 4,
        }
