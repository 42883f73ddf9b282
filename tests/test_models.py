import numpy as np
import pytest

from mupre.models import (
    Batch,
    MlpModel,
    ResMlpModel,
    coord_probe,
    make_teacher,
    synth_batch,
)
from mupre.config import OptimizerConfig
from mupre.optim import UpdateReport
from mupre.scaling import ScalingPlan, build_plan, mlp_manifest, resmlp_manifest


def random_mlp(width=8, seed=0, activation="tanh"):
    # all layers nonzero so gradients flow everywhere
    rng = np.random.default_rng(seed)
    weights = {
        "fc1": rng.standard_normal((width, 1)),
        "fc2": rng.standard_normal((width, width)) / np.sqrt(width),
        "readout": rng.standard_normal((1, width)) / np.sqrt(width),
    }
    return MlpModel(weights, activation)


def random_resmlp(width=6, depth=3, seed=0):
    rng = np.random.default_rng(seed)
    weights = {"embed": 0.1 * rng.standard_normal((width, 1))}
    mults = {}
    for i in range(1, depth + 1):
        weights[f"block{i}"] = rng.standard_normal((width, width)) / np.sqrt(width)
        mults[f"block{i}"] = 1.0 / depth
    weights["readout"] = rng.standard_normal((1, width)) / np.sqrt(width)
    return ResMlpModel(weights, mults)


def numeric_grads(model, batch, step=1e-5):
    out = {}
    for name in model.layer_names:
        w = model.weights[name]
        g = np.zeros_like(w)
        for idx in np.ndindex(*w.shape):
            orig = w[idx]
            w[idx] = orig + step
            lp = model.forward(batch)[0]
            w[idx] = orig - step
            lm = model.forward(batch)[0]
            w[idx] = orig
            g[idx] = (lp - lm) / (2.0 * step)
        out[name] = g
    return out


class TestForward:
    def test_zero_weights_zero_targets(self):
        model = MlpModel({"fc1": np.zeros((4, 1)), "readout": np.zeros((1, 4))})
        loss, _ = model.forward(Batch(np.array([1.0, -2.0]), np.zeros(2), seed=0))
        assert loss == 0.0

    def test_hand_computed_relu_forward(self):
        # positive weights and input keep relu in its linear regime:
        # f = 1*relu(2*1) + 3*relu(1*1) = 5, loss = (5-1)^2 = 16
        model = MlpModel(
            {"fc1": np.array([[2.0], [1.0]]), "readout": np.array([[1.0, 3.0]])},
            activation="relu",
        )
        loss, cache = model.forward(Batch(np.array([1.0]), np.array([1.0]), seed=0))
        assert cache.f[0, 0] == pytest.approx(5.0)
        assert loss == pytest.approx(16.0)

    def test_loss_nonnegative(self):
        model = random_mlp()
        batch = synth_batch(3, 16, make_teacher(7))
        loss, _ = model.forward(batch)
        assert loss >= 0.0

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="fan-in"):
            MlpModel({"fc1": np.zeros((4, 2)), "readout": np.zeros((1, 4))})
        with pytest.raises(ValueError, match="scalar"):
            MlpModel({"fc1": np.zeros((4, 1)), "readout": np.zeros((2, 4))})

    def test_batch_validation(self):
        with pytest.raises(ValueError, match="equal-length"):
            Batch(np.zeros(3), np.zeros(2), seed=0)


class TestBackward:
    def test_single_sample_gradients_are_rank_one(self):
        model = random_mlp()
        batch = Batch(np.array([0.8]), np.array([1.5]), seed=0)
        _, cache = model.forward(batch)
        for g in model.backward(cache).values():
            assert UpdateReport(g).srank == pytest.approx(1.0, abs=1e-8)

    def test_finite_difference_mlp(self):
        model = random_mlp(width=8, seed=1)
        batch = synth_batch(5, 4, make_teacher(7))
        _, cache = model.forward(batch)
        grads = model.backward(cache)
        for name, ref in numeric_grads(model, batch).items():
            assert np.allclose(grads[name], ref, rtol=1e-5, atol=1e-7), name

    def test_finite_difference_mlp_relu(self):
        model = random_mlp(width=8, seed=2, activation="relu")
        batch = synth_batch(6, 4, make_teacher(7))
        _, cache = model.forward(batch)
        grads = model.backward(cache)
        for name, ref in numeric_grads(model, batch).items():
            assert np.allclose(grads[name], ref, rtol=1e-4, atol=1e-6), name

    def test_finite_difference_resmlp(self):
        model = random_resmlp(width=6, depth=3, seed=3)
        batch = synth_batch(8, 4, make_teacher(7))
        _, cache = model.forward(batch)
        grads = model.backward(cache)
        for name, ref in numeric_grads(model, batch).items():
            assert np.allclose(grads[name], ref, rtol=1e-5, atol=1e-7), name

    def test_zero_loss_zero_gradients(self):
        model = MlpModel({"fc1": np.ones((4, 1)), "readout": np.zeros((1, 4))})
        batch = Batch(np.array([1.0, 2.0]), np.zeros(2), seed=0)
        _, cache = model.forward(batch)
        for g in model.backward(cache).values():
            assert np.array_equal(g, np.zeros_like(g))

    def test_missing_cache_rejected(self):
        with pytest.raises(ValueError, match="cache"):
            random_mlp().backward(None)


class TestCoordProbe:
    def test_identical_caches(self):
        model = random_mlp()
        batch = synth_batch(1, 4, make_teacher(7))
        _, c1 = model.forward(batch)
        _, c2 = model.forward(batch)
        assert coord_probe(c1, c2, "fc2") == 0.0

    def test_frozen_example(self):
        # pre-activation moves by (3, 4) at width 2: rms = sqrt(25/2)
        before = MlpModel(
            {"fc1": np.array([[1.0], [1.0]]), "readout": np.zeros((1, 2))},
            activation="relu",
        )
        after = MlpModel(
            {"fc1": np.array([[4.0], [5.0]]), "readout": np.zeros((1, 2))},
            activation="relu",
        )
        batch = Batch(np.array([1.0]), np.array([0.0]), seed=0)
        _, c1 = before.forward(batch)
        _, c2 = after.forward(batch)
        assert coord_probe(c1, c2, "fc1") == pytest.approx(3.5355339059327378, rel=1e-12)

    def test_linear_in_perturbation(self):
        base = np.array([[1.0], [2.0]])
        batch = Batch(np.array([1.0]), np.array([0.0]), seed=0)
        ro = np.ones((1, 2))
        _, c0 = MlpModel({"fc1": base, "readout": ro}, "relu").forward(batch)
        step = np.array([[0.3], [0.4]])
        _, c1 = MlpModel({"fc1": base + step, "readout": ro}, "relu").forward(batch)
        _, c2 = MlpModel({"fc1": base + 2 * step, "readout": ro}, "relu").forward(batch)
        r1 = coord_probe(c0, c1, "fc1")
        r2 = coord_probe(c0, c2, "fc1")
        assert r2 == pytest.approx(2 * r1, rel=1e-12)

    def test_unknown_layer(self):
        model = random_mlp()
        batch = synth_batch(1, 2, make_teacher(7))
        _, c = model.forward(batch)
        with pytest.raises(ValueError, match="fc9"):
            coord_probe(c, c, "fc9")


class TestResMlp:
    def test_zero_blocks_identity_stream(self):
        width, depth = 4, 3
        rng = np.random.default_rng(4)
        weights = {"embed": rng.standard_normal((width, 1))}
        mults = {}
        for i in range(1, depth + 1):
            weights[f"block{i}"] = np.zeros((width, width))
            mults[f"block{i}"] = 1.0 / depth
        weights["readout"] = rng.standard_normal((1, width))
        model = ResMlpModel(weights, mults)
        batch = Batch(np.array([0.5, -1.0]), np.zeros(2), seed=0)
        loss, cache = model.forward(batch)
        assert np.array_equal(cache.xs["block3"], cache.xs["embed"])
        f_ref = weights["readout"] @ cache.xs["embed"]
        assert loss == pytest.approx(float(np.mean(f_ref**2)))

    def test_residual_update_rule_by_hand(self):
        # width 1, relu, positive everything: x1 = x0 + r*w*x0
        model = ResMlpModel(
            {
                "embed": np.array([[2.0]]),
                "block1": np.array([[3.0]]),
                "readout": np.array([[1.0]]),
            },
            {"block1": 0.5},
            activation="relu",
        )
        batch = Batch(np.array([1.0]), np.array([0.0]), seed=0)
        _, cache = model.forward(batch)
        # x0 = 2, h1 = 6, x1 = 2 + 0.5*6 = 5
        assert cache.xs["block1"][0, 0] == pytest.approx(5.0)
        assert cache.f[0, 0] == pytest.approx(5.0)

    def test_build_from_manifest(self):
        manifest = resmlp_manifest(width=8, depth=4, base_width=8)
        plan = ScalingPlan(param="mup", base_width=8, eta_base=0.1, alpha_depth=1.0)
        table = build_plan(manifest, OptimizerConfig(rule="adam"), plan)
        model = ResMlpModel.build(manifest, table, seed=0)
        assert model.block_names == ["block1", "block2", "block3", "block4"]
        assert model.residual_mults["block2"] == pytest.approx(0.25)
        assert model.weights["readout"].shape == (1, 8)
        assert np.array_equal(model.weights["readout"], np.zeros((1, 8)))


class TestManifests:
    def test_mlp_manifest_shapes(self):
        m = mlp_manifest(width=128, base_width=64, n_layers=3)
        names = [s.name for s in m.layers]
        assert names == ["fc1", "fc2", "readout"]
        assert (m.layers[0].d_in, m.layers[0].d_out) == (1, 128)
        assert (m.layers[1].d_in, m.layers[1].d_out) == (128, 128)
        assert (m.layers[2].d_in, m.layers[2].d_out) == (128, 1)
        assert m.layers[1].base_shape() == (64, 64)

    def test_resmlp_manifest_depth_tagging(self):
        m = resmlp_manifest(width=32, depth=6, base_width=32, base_depth=2)
        blocks = [s for s in m.layers if s.in_residual]
        assert len(blocks) == 6
        assert all(s.depth_l == 6 for s in blocks)
        assert m.layers[0].role == "embedding"
        assert m.layers[-1].role == "readout"

    def test_build_matches_plan_sigmas(self):
        manifest = mlp_manifest(width=64, base_width=64)
        plan = ScalingPlan(param="mup", base_width=64, eta_base=0.1)
        table = build_plan(manifest, OptimizerConfig(rule="adam"), plan)
        model = MlpModel.build(manifest, table, seed=11)
        assert np.array_equal(model.weights["readout"], np.zeros((1, 64)))
        observed = np.std(model.weights["fc2"])
        assert observed == pytest.approx(1 / 8, rel=0.1)


class TestSynthData:
    def test_deterministic_per_seed(self):
        teacher = make_teacher(7)
        b1 = synth_batch(42, 16, teacher)
        b2 = synth_batch(42, 16, teacher)
        assert np.array_equal(b1.inputs, b2.inputs)
        assert np.array_equal(b1.targets, b2.targets)

    def test_seed_changes_data(self):
        teacher = make_teacher(7)
        assert not np.array_equal(
            synth_batch(1, 8, teacher).inputs, synth_batch(2, 8, teacher).inputs
        )

    def test_teacher_fixed_architecture(self):
        teacher = make_teacher(7)
        assert teacher.weights["fc1"].shape == (8, 1)
        assert teacher.weights["fc2"].shape == (8, 8)
        assert teacher.weights["readout"].shape == (1, 8)
        # nonzero labels
        assert np.any(synth_batch(0, 8, teacher).targets != 0)

    def test_teacher_deterministic(self):
        a, b = make_teacher(7), make_teacher(7)
        for name in a.layer_names:
            assert np.array_equal(a.weights[name], b.weights[name])


class TestFeatureKernel:
    def test_kernel_concentration_with_width(self):
        # variance of x.x'/d across inits shrinks as width grows
        probe = Batch(np.array([0.7, -0.3]), np.zeros(2), seed=0)
        plan = ScalingPlan(param="mup", base_width=64, eta_base=0.1)
        opt = OptimizerConfig(rule="adam")
        cvs = []
        for width in (64, 256, 1024):
            manifest = mlp_manifest(width, base_width=64)
            table = build_plan(manifest, opt, plan)
            ks = []
            for seed in range(32):
                model = MlpModel.build(manifest, table, seed=seed)
                _, cache = model.forward(probe)
                feats = cache.xs["fc2"]
                ks.append(float(feats[:, 0] @ feats[:, 1]) / width)
            ks = np.array(ks)
            cvs.append(np.std(ks) / abs(np.mean(ks)))
        assert cvs[1] <= cvs[0] * 1.2
        assert cvs[2] <= cvs[1] * 1.2
