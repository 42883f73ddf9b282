import json
import math
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mupre.config import EPS_MODES, GRAFT_RULES, RULES, OptimizerConfig, SweepConfig
from mupre.scaling import (
    ALT_MUON_PARAMS,
    PARAMS,
    WD_SCALINGS,
    LayerHyper,
    LayerSpec,
    ModelManifest,
    ScalingPlan,
    alt_muon_multiplier,
    build_plan,
    init_sigma,
    lr_multiplier,
    plan_to_json,
    residual_multiplier,
    resmlp_manifest,
    wd_scale,
)


def hidden(d_in, d_out, base_in=None, base_out=None, **kw):
    return LayerSpec("h", "hidden", d_in, d_out, base_d_in=base_in, base_d_out=base_out, **kw)


def mk_plan(param="mup", base_width=64, eta_base=1.0, **kw):
    return ScalingPlan(param=param, base_width=base_width, eta_base=eta_base, **kw)


def opt(rule, **kw):
    return OptimizerConfig(rule=rule, **kw)


def plan_eps(spec, c, plan):
    """The plan's eps for this one layer relative to a unit configured eps."""
    return plan_row(spec, replace(c, eps=1.0), plan).eps


def plan_row(spec, c, plan):
    manifest = ModelManifest(width=spec.d_in, layers=(spec,))
    return build_plan(manifest, c, plan)[spec.name]


class TestLayerSpec:
    """The tiling comes from the optimizer config; a base shape of one
    tile leaves the layer's own tiling factor as the multiplier."""

    def test_block_counts(self):
        s = hidden(70, 33, base_in=32, base_out=32)
        c = opt("shampoo", e_l=0.5, e_r=0.5, block_in=32, block_out=32)
        # 3 column tiles x 2 row tiles of 32: the half-exponent rule's 1/n_blk
        assert lr_multiplier(s, c, mk_plan(base_width=32)) == pytest.approx(1 / 6)

    def test_block_capped_at_dim(self):
        s = hidden(16, 16, base_in=64, base_out=64)
        c = opt("soap", e_l=1.0, e_r=1.0, block_in=32, block_out=32)
        # sqrt(b_out b_in) / d_in: 16 / 16 with the block clamped, 32 / 64 at base
        assert lr_multiplier(s, c, mk_plan()) == pytest.approx(2.0)

    def test_unset_blocks_tile_the_whole_layer(self):
        s = hidden(70, 33, base_in=1, base_out=1)
        c = opt("soap", e_l=1.0, e_r=1.0, block_out=8)
        # rows in blocks of 8, all 70 columns in one tile
        assert lr_multiplier(s, c, mk_plan()) == pytest.approx(math.sqrt(8 * 70) / 70)

    def test_unblocked_single_block(self):
        s = hidden(64, 64, base_in=1, base_out=1)
        assert lr_multiplier(s, opt("shampoo", e_l=0.5, e_r=0.5), mk_plan()) == 1.0

    def test_bias_is_not_a_role(self):
        # no manifest builds a bias layer, so the role was removed
        with pytest.raises(ValueError, match="role"):
            LayerSpec("b", "bias", d_in=1, d_out=4)

    def test_unknown_role(self):
        with pytest.raises(ValueError, match="role"):
            LayerSpec("w", "conv", d_in=4, d_out=4)

    def test_base_shape_explicit_wins(self):
        s = hidden(128, 128, base_in=16, base_out=48)
        assert s.base_shape() == (16, 48)

    def test_base_shape_without_width(self):
        assert hidden(128, 64).base_shape() == (128, 64)


class TestScalingPlan:
    def test_sp_rejects_depth_alpha(self):
        with pytest.raises(ValueError, match="alpha_depth"):
            mk_plan(param="sp", alpha_depth=1.0)

    def test_param_case_normalized(self):
        assert mk_plan(param="muP").param == "mup"
        assert mk_plan(param="SP").param == "sp"

    def test_unknown_param(self):
        with pytest.raises(ValueError, match="param"):
            mk_plan(param="ntk")

    def test_bad_wd_mode(self):
        with pytest.raises(ValueError, match="wd_mode"):
            mk_plan(wd_mode="linear")


class TestLrMultiplier:
    def test_muon_square_invariant(self):
        s = hidden(128, 128, base_in=64, base_out=64)
        assert lr_multiplier(s, opt("muon"), mk_plan()) == pytest.approx(1.0)

    def test_adamuon_fan_in_exponent(self):
        s = hidden(128, 64, base_in=64, base_out=64)
        assert lr_multiplier(s, opt("adamuon"), mk_plan()) == pytest.approx(0.5)

    def test_shampoo_fixed_block_width_squared(self):
        # square layer, block size b, base width b: multiplier (b/D)^2
        s = hidden(64, 64, base_in=16, base_out=16)
        c = opt("shampoo", e_l=0.5, e_r=0.5, block_in=16, block_out=16)
        assert lr_multiplier(s, c, mk_plan(base_width=16)) == pytest.approx((16 / 64) ** 2)

    def test_graft_uses_reference_rule(self):
        s = hidden(128, 64, base_in=64, base_out=64)
        c = opt("shampoo", e_l=0.5, e_r=0.5, graft_rule="adam")
        assert lr_multiplier(s, c, mk_plan()) == pytest.approx(0.5)

    def test_sgd_column(self):
        s = hidden(128, 64, base_in=64, base_out=64)
        assert lr_multiplier(s, opt("sgd"), mk_plan()) == pytest.approx(0.5)
        deep = hidden(64, 64, base_in=64, base_out=64, in_residual=True, depth_l=4)
        assert lr_multiplier(deep, opt("sgd"), mk_plan()) == pytest.approx(4.0)

    def test_sp_and_spectral_norm_always_one(self):
        s = hidden(512, 512, base_in=64, base_out=64)
        for param in ("sp", "spectral_norm"):
            for rule in ("sgd", "adam", "muon", "adamuon"):
                assert lr_multiplier(s, opt(rule), mk_plan(param=param)) == 1.0

    def test_base_shape_identity(self):
        s = hidden(64, 64, base_in=64, base_out=64)
        plan = mk_plan()
        for rule in ("sgd", "adam", "shampoo", "muon", "adamuon"):
            assert lr_multiplier(s, opt(rule), plan) == pytest.approx(1.0)
        c = opt("soap", e_l=1.0, e_r=1.0)
        assert lr_multiplier(s, c, plan) == pytest.approx(1.0)

    def test_shampoo_unit_blocks_match_adam(self):
        # e_L + e_R = 1/2 with 1x1 blocks collapses to the 1/d_in rule
        plan = mk_plan()
        c_sh = opt("shampoo", e_l=0.25, e_r=0.25, block_in=1, block_out=1)
        c_ad = opt("adam")
        for d_in, d_out in [(128, 64), (256, 256), (96, 512)]:
            s = hidden(d_in, d_out, base_in=64, base_out=64)
            assert lr_multiplier(s, c_sh, plan) == pytest.approx(
                lr_multiplier(s, c_ad, plan), rel=1e-12
            )

    def test_soap_full_block_matches_muon(self):
        plan = mk_plan()
        c_soap = opt("soap", e_l=1.0, e_r=1.0)
        for d_in, d_out in [(128, 64), (256, 256), (96, 512)]:
            s = hidden(d_in, d_out, base_in=64, base_out=64)
            assert lr_multiplier(s, c_soap, plan) == pytest.approx(
                lr_multiplier(s, opt("muon"), plan), rel=1e-12
            )

    def test_depth_neutral_rules(self):
        plan = mk_plan()
        shallow = hidden(128, 128, base_in=64, base_out=64, in_residual=True, depth_l=1)
        deep = hidden(128, 128, base_in=64, base_out=64, in_residual=True, depth_l=8)
        for c in (opt("muon"), opt("adamuon"), opt("soap", e_l=1.0, e_r=1.0)):
            assert lr_multiplier(shallow, c, plan) == lr_multiplier(deep, c, plan)
        c_sh = opt("shampoo", e_l=0.5, e_r=0.5)
        assert lr_multiplier(deep, c_sh, plan) == pytest.approx(
            lr_multiplier(shallow, c_sh, plan) / 8.0
        )

    def test_mup_hidden_lr_nonincreasing_in_width(self):
        plan = mk_plan()
        configs = [
            opt("adam"),
            opt("adamuon"),
            opt("soap", e_l=1.0, e_r=1.0, block_in=32, block_out=32),
            opt("shampoo", e_l=0.5, e_r=0.5, block_in=32, block_out=32),
            opt("muon"),
        ]
        for c in configs:
            mults = [
                lr_multiplier(hidden(d, d, base_in=64, base_out=64), c, plan)
                for d in (64, 128, 256, 512)
            ]
            assert all(a >= b - 1e-12 for a, b in zip(mults, mults[1:])), (c.rule, mults)

    def test_alt_param_requires_plain_muon(self):
        s = hidden(128, 128, base_in=64, base_out=64)
        plan = mk_plan(param="muon_kimi_theta1")
        with pytest.raises(ValueError, match="muon"):
            lr_multiplier(s, opt("adam"), plan)
        with pytest.raises(ValueError, match="muon"):
            lr_multiplier(s, opt("muon", graft_rule="adam"), plan)

    def test_alt_param_dispatch(self):
        s = hidden(256, 256, base_in=64, base_out=64)
        assert lr_multiplier(s, opt("muon"), mk_plan(param="muon_kimi_theta1")) == pytest.approx(2.0)


class TestEpsScale:
    def test_muon_depth_halving(self):
        s = hidden(64, 64, base_in=64, base_out=64, in_residual=True, depth_l=2)
        assert plan_eps(s, opt("muon"), mk_plan()) == pytest.approx(0.5)

    def test_adamuon_width_halving(self):
        s = hidden(128, 128, base_in=64, base_out=64)
        assert plan_eps(s, opt("adamuon"), mk_plan()) == pytest.approx(0.5)

    def test_shampoo_absolute_square_invariant(self):
        s = hidden(128, 128, base_in=64, base_out=64)
        c = opt("shampoo", e_l=0.5, e_r=0.5, eps_mode="absolute")
        assert plan_eps(s, c, mk_plan()) == pytest.approx(1.0)

    def test_shampoo_relative_always_one(self):
        s = hidden(512, 128, base_in=64, base_out=64)
        c = opt("shampoo", e_l=0.5, e_r=0.5, eps_mode="relative", block_in=32, block_out=32)
        assert plan_eps(s, c, mk_plan()) == 1.0

    def test_adam_column(self):
        s = hidden(64, 128, base_in=64, base_out=64)
        assert plan_eps(s, opt("adam"), mk_plan()) == pytest.approx(0.5)

    def test_soap_blocked_column(self):
        s = hidden(128, 128, base_in=64, base_out=64)
        c = opt("soap", e_l=1.0, e_r=1.0, block_in=4, block_out=4)
        # blocked factor stays 4, 1/d_out halves
        assert plan_eps(s, c, mk_plan()) == pytest.approx(0.5)

    def test_graft_guard_column(self):
        s = hidden(64, 64, base_in=32, base_out=32)
        c = opt("shampoo", e_l=0.5, e_r=0.5, graft_rule="adam", graft_eps=1.0,
                block_in=32, block_out=32)
        # guard = sqrt(d_out/d_in) / lr_formula(shampoo); n_blk grows 1 -> 4
        assert plan_row(s, c, mk_plan(base_width=32)).graft_eps == pytest.approx(4.0)

    def test_sgd_flat(self):
        s = hidden(512, 64, base_in=64, base_out=64)
        assert plan_eps(s, opt("sgd"), mk_plan()) == 1.0

    def test_sp_flat(self):
        s = hidden(512, 512, base_in=64, base_out=64)
        assert plan_eps(s, opt("adamuon"), mk_plan(param="sp")) == 1.0


class TestInitSigma:
    def test_hidden_inverse_root_fan_in(self):
        assert init_sigma(hidden(256, 256)) == pytest.approx(0.0625)

    def test_readout_zero(self):
        s = LayerSpec("r", "readout", d_in=64, d_out=1)
        assert init_sigma(s) == 0.0

    def test_embedding_fixed(self):
        s = LayerSpec("e", "embedding", d_in=1, d_out=64)
        assert init_sigma(s) == pytest.approx(0.1)


class TestResidualMultiplier:
    def test_values(self):
        assert residual_multiplier(8, 1.0) == pytest.approx(0.125)
        assert residual_multiplier(5, 0.0) == 1.0
        assert residual_multiplier(4, 0.5) == pytest.approx(0.5)

    def test_rejects_bad_depth(self):
        with pytest.raises(ValueError, match="depth"):
            residual_multiplier(0, 1.0)


class TestWdScale:
    def test_inv_width(self):
        assert wd_scale(128, 64, "inv_width") == pytest.approx(0.5)

    def test_constant(self):
        assert wd_scale(1024, 64, "constant") == 1.0

    def test_base_width_identity(self):
        assert wd_scale(64, 64, "inv_width") == 1.0
        assert wd_scale(64, 64, "constant") == 1.0

    def test_unknown_mode(self):
        with pytest.raises(ValueError, match="wd_mode"):
            wd_scale(64, 64, "sqrt")


class TestAltMuonMultiplier:
    def test_kimi_theta1_square(self):
        s = hidden(256, 256, base_in=64, base_out=64)
        assert alt_muon_multiplier(s, "muon_kimi_theta1") == pytest.approx(2.0)

    def test_adamexp(self):
        s = hidden(128, 64, base_in=64, base_out=64)
        assert alt_muon_multiplier(s, "muon_adamexp") == pytest.approx(0.5)

    def test_kimi_adamexp_combines(self):
        s = hidden(256, 256, base_in=64, base_out=64)
        assert alt_muon_multiplier(s, "muon_kimi_adamexp") == pytest.approx(0.5)

    def test_base_shape_identity(self):
        s = hidden(64, 64, base_in=64, base_out=64)
        for v in ("muon_kimi_theta1", "muon_kimi_adamexp", "muon_adamexp"):
            assert alt_muon_multiplier(s, v) == 1.0

    def test_unknown_variant(self):
        with pytest.raises(ValueError, match="variant"):
            alt_muon_multiplier(hidden(64, 64), "muon_exact")


class TestBuildPlan:
    def manifest(self, d=128, base=64):
        layers = (
            LayerSpec("fc1", "hidden", d_in=1, d_out=d, base_d_out=base),
            LayerSpec("fc2", "hidden", d_in=d, d_out=d, base_d_in=base, base_d_out=base),
            LayerSpec("readout", "readout", d_in=d, d_out=1, base_d_in=base),
        )
        return ModelManifest(width=d, layers=layers)

    def test_adam_mup_etas(self):
        table = build_plan(self.manifest(), opt("adam"), mk_plan(eta_base=0.1))
        assert table["fc1"].eta == pytest.approx(0.1)
        assert table["fc2"].eta == pytest.approx(0.05)
        assert table["readout"].eta == pytest.approx(0.05)

    def test_sigmas_follow_roles(self):
        table = build_plan(self.manifest(), opt("adam"), mk_plan())
        assert table["fc1"].sigma_init == pytest.approx(1.0)
        assert table["fc2"].sigma_init == pytest.approx(1 / math.sqrt(128))
        assert table["readout"].sigma_init == 0.0

    def test_weight_decay_scaled_once(self):
        plan = mk_plan(wd_base=0.02, wd_mode="inv_width")
        table = build_plan(self.manifest(), opt("adam"), plan)
        for h in table.values():
            assert h.lambda_wd == pytest.approx(0.01)

    def test_residual_multiplier_only_inside_blocks(self):
        layers = (
            LayerSpec("blk", "hidden", 64, 64, in_residual=True, depth_l=8,
                      base_d_in=64, base_d_out=64),
            LayerSpec("readout", "readout", 64, 1, base_d_in=64),
        )
        manifest = ModelManifest(width=64, layers=layers)
        table = build_plan(manifest, opt("adam"), mk_plan(alpha_depth=1.0))
        assert table["blk"].residual_mult == pytest.approx(0.125)
        assert table["readout"].residual_mult == 1.0

    def test_grafted_eps_base_is_guard(self):
        c = opt("shampoo", e_l=0.5, e_r=0.5, graft_rule="adam", graft_eps=1e-10)
        table = build_plan(self.manifest(d=64), c, mk_plan())
        # graft_eps starts from the guard; eps stays the rule's own damping
        assert table["fc2"].graft_eps == pytest.approx(1e-10)
        assert table["fc2"].graft_ref_eps == pytest.approx(1e-8)
        assert table["fc2"].eps == 1e-8

    def test_duplicate_layer_names_rejected(self):
        layers = (hidden(8, 8), hidden(8, 8))
        with pytest.raises(ValueError, match="unique"):
            ModelManifest(width=8, layers=layers)


class TestLayerHyper:
    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError, match="finite"):
            LayerHyper(eta=float("inf"), eps=0.0, sigma_init=0.0,
                       residual_mult=1.0, lambda_wd=0.0)

    def test_rejects_nonpositive_eta(self):
        with pytest.raises(ValueError, match="eta"):
            LayerHyper(eta=0.0, eps=0.0, sigma_init=0.0,
                       residual_mult=1.0, lambda_wd=0.0)


unit_floats = st.floats(0.0, 1.0)
blocks = st.one_of(st.none(), st.integers(1, 16))


@st.composite
def optimizer_configs(draw):
    rule = draw(st.sampled_from(RULES))
    sides = st.sampled_from((0.0, 1.0)) if rule == "soap" else st.floats(0.0, 2.0)
    blocked = rule in ("shampoo", "soap")
    # an adam reference would share adam's second-moment slot, and adamuon's
    # first moment is not the gradient a graft reference reads
    grafts = {"adam": (None, "sgd"), "adamuon": (None,)}.get(rule, (None, *GRAFT_RULES))
    return OptimizerConfig(
        rule,
        e_l=draw(sides),
        e_r=draw(sides),
        eps=draw(unit_floats),
        eps_mode=draw(st.sampled_from(EPS_MODES)),
        graft_rule=draw(st.sampled_from(grafts)),
        graft_eps=draw(unit_floats),
        graft_ref_eps=draw(unit_floats),
        block_in=draw(blocks) if blocked else None,
        block_out=draw(blocks) if blocked else None,
    )


@st.composite
def scaling_plans(draw):
    param = draw(st.sampled_from(PARAMS))
    return ScalingPlan(
        param,
        base_width=draw(st.integers(1, 64)),
        eta_base=draw(st.floats(1e-6, 10.0)),
        base_depth=draw(st.integers(1, 4)),
        wd_base=draw(st.floats(0.0, 0.1)),
        wd_mode=draw(st.sampled_from(WD_SCALINGS)),
        alpha_depth=0.0 if param == "sp" else draw(unit_floats),
    )


class TestPlanProperties:
    @settings(max_examples=300, deadline=None)
    @given(c=optimizer_configs(), plan=scaling_plans())
    def test_every_multiplier_is_one_at_base_shape(self, c, plan):
        assume(plan.param not in ALT_MUON_PARAMS or (c.rule == "muon" and not c.graft_rule))
        w = plan.base_width
        extra = (LayerSpec("fc1", "hidden", d_in=1, d_out=w, base_d_out=w),)
        model = resmlp_manifest(w, plan.base_depth, w)
        manifest = replace(model, layers=model.layers + extra)
        for name, row in build_plan(manifest, c, plan).items():
            assert row.eta == plan.eta_base, name
            assert (row.eps, row.graft_eps, row.graft_ref_eps) == (
                c.eps, c.graft_eps, c.graft_ref_eps
            ), name
            assert row.lambda_wd == plan.wd_base, name


# written by tests/data/make_plans.py; regenerate only for an intended rule change
GOLDEN_PLANS = Path(__file__).parent / "data" / "plans.json"


class TestGoldenPlans:
    def test_plans_match_recorded_text(self):
        cases = json.loads(GOLDEN_PLANS.read_text())
        assert len(cases) == 164
        for case in cases:
            opt = OptimizerConfig(**case["optimizer"])
            plan = ScalingPlan(**case["scaling"])
            width, depth = case["width"], case["depth"]
            sweep = SweepConfig(opt=opt, plan=plan, widths=(width,), depths=(depth,),
                                arch=case["arch"], n_layers=case["n_layers"])
            text = plan_to_json(build_plan(sweep.manifest(width, depth), opt, plan))
            label = {k: case[k] for k in ("optimizer", "scaling", "arch", "width", "depth")}
            assert text == case["plan"], label
