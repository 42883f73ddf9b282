import numpy as np
import pytest

from mupre.models import (
    Batch,
    MlpModel,
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
    return MlpModel(weights, residual_mults=mults)


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


def textbook_pass(weights, activation, batch, residual_mults=None):
    """The network's forward and backward passes written out one layer at a
    time, independent of MlpModel: {"loss", "f", "hs", "xs", "factors"}.

    plain:    h_l = W_l x_{l-1}, x_l = phi(h_l)
    residual: x_1 = h_1 = W_1 x_0, then x_l = x_{l-1} + r_l phi(h_l)
    both:     f = W_out x_{L-1}, loss = mean (f - y)^2
    """
    def phi(h):
        return np.tanh(h) if activation == "tanh" else np.maximum(h, 0.0)

    def dphi(h):
        if activation == "tanh":
            t = np.tanh(h)
            return 1.0 - t * t
        return (h > 0.0).astype(np.float64)

    names = list(weights)
    hidden, readout = names[:-1], names[-1]
    x0 = batch.inputs.reshape(1, -1)
    y = batch.targets.reshape(1, -1)
    hs, xs = {}, {}
    if residual_mults is None:
        x = x0
        for name in hidden:
            hs[name] = weights[name] @ x
            x = xs[name] = phi(hs[name])
    else:
        x = hs[hidden[0]] = xs[hidden[0]] = weights[hidden[0]] @ x0
        for name in hidden[1:]:
            hs[name] = weights[name] @ x
            x = xs[name] = x + residual_mults[name] * phi(hs[name])
    f = hs[readout] = xs[readout] = weights[readout] @ x
    loss = float(np.mean((f - y) ** 2))

    ins = dict(zip(names, [x0] + [xs[name] for name in hidden]))
    delta = 2.0 * (f - y) / f.shape[1]
    factors = {readout: (delta, ins[readout])}
    g = weights[readout].T @ delta
    if residual_mults is None:
        for name in reversed(hidden):
            d = g * dphi(hs[name])
            factors[name] = (d, ins[name])
            g = weights[name].T @ d
    else:
        for name in reversed(hidden[1:]):
            d = residual_mults[name] * dphi(hs[name]) * g
            factors[name] = (d, ins[name])
            g = g + weights[name].T @ d
        factors[hidden[0]] = (g, x0)
    return {"loss": loss, "f": f, "hs": hs, "xs": xs, "factors": factors}


def random_draw(residual, seed):
    """(weights, residual multipliers or None, batch) of random shape."""
    rng = np.random.default_rng(seed)
    width, depth, size = (int(v) for v in rng.integers((2, 1, 1), (10, 5, 7)))
    if residual:
        hidden = ["embed", *(f"block{i}" for i in range(1, depth + 1))]
    else:
        hidden = [f"fc{i}" for i in range(1, depth + 2)]
    weights = {name: rng.standard_normal((width, width)) / np.sqrt(width) for name in hidden}
    weights[hidden[0]] = rng.standard_normal((width, 1))
    weights["readout"] = rng.standard_normal((1, width)) / np.sqrt(width)
    mults = {name: float(rng.uniform(0.1, 1.0)) for name in hidden[1:]}
    batch = Batch(rng.standard_normal(size), rng.standard_normal(size))
    return weights, (mults if residual else None), batch


class TestForward:
    def test_zero_weights_zero_targets(self):
        model = MlpModel({"fc1": np.zeros((4, 1)), "readout": np.zeros((1, 4))})
        loss, _ = model.forward(Batch(np.array([1.0, -2.0]), np.zeros(2)))
        assert loss == 0.0

    def test_hand_computed_relu_forward(self):
        # positive weights and input keep relu in its linear regime:
        # f = 1*relu(2*1) + 3*relu(1*1) = 5, loss = (5-1)^2 = 16
        model = MlpModel(
            {"fc1": np.array([[2.0], [1.0]]), "readout": np.array([[1.0, 3.0]])},
            activation="relu",
        )
        loss, cache = model.forward(Batch(np.array([1.0]), np.array([1.0])))
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
            Batch(np.zeros(3), np.zeros(2))


class TestBackward:
    def test_single_sample_gradients_are_rank_one(self):
        model = random_mlp()
        batch = Batch(np.array([0.8]), np.array([1.5]))
        _, cache = model.forward(batch)
        for g in model.backward(cache)[0].values():
            assert UpdateReport(g).srank == pytest.approx(1.0, abs=1e-8)

    def test_finite_difference_mlp(self):
        model = random_mlp(width=8, seed=1)
        batch = synth_batch(5, 4, make_teacher(7))
        _, cache = model.forward(batch)
        grads, _ = model.backward(cache)
        for name, ref in numeric_grads(model, batch).items():
            assert np.allclose(grads[name], ref, rtol=1e-5, atol=1e-7), name

    def test_finite_difference_mlp_relu(self):
        model = random_mlp(width=8, seed=2, activation="relu")
        batch = synth_batch(6, 4, make_teacher(7))
        _, cache = model.forward(batch)
        grads, _ = model.backward(cache)
        for name, ref in numeric_grads(model, batch).items():
            assert np.allclose(grads[name], ref, rtol=1e-4, atol=1e-6), name

    def test_finite_difference_resmlp(self):
        model = random_resmlp(width=6, depth=3, seed=3)
        batch = synth_batch(8, 4, make_teacher(7))
        _, cache = model.forward(batch)
        grads, _ = model.backward(cache)
        for name, ref in numeric_grads(model, batch).items():
            assert np.allclose(grads[name], ref, rtol=1e-5, atol=1e-7), name

    def test_zero_loss_zero_gradients(self):
        model = MlpModel({"fc1": np.ones((4, 1)), "readout": np.zeros((1, 4))})
        batch = Batch(np.array([1.0, 2.0]), np.zeros(2))
        _, cache = model.forward(batch)
        for g in model.backward(cache)[0].values():
            assert np.array_equal(g, np.zeros_like(g))

    def test_missing_cache_rejected(self):
        with pytest.raises(ValueError, match="cache"):
            random_mlp().backward(None)

    @pytest.mark.parametrize("model", [random_mlp(), random_resmlp()], ids=["mlp", "resmlp"])
    def test_gradients_are_their_factor_products(self, model):
        # bit for bit: the factors are the operands of the gradient's product
        batch = synth_batch(9, 5, make_teacher(7))
        _, cache = model.forward(batch)
        grads, factors = model.backward(cache)
        assert list(factors) == list(grads)
        for name, (left, right) in factors.items():
            w = model.weights[name]
            assert left.shape == (w.shape[0], 5) and right.shape == (w.shape[1], 5)
            assert (left @ right.T).tobytes() == grads[name].tobytes()


class TestTextbook:
    """The one network matches the textbook passes of both architectures
    bit for bit: caches, loss, gradients and factors."""

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("activation", ["tanh", "relu"])
    @pytest.mark.parametrize("residual", [False, True], ids=["mlp", "resmlp"])
    def test_passes_match_bit_for_bit(self, residual, activation, seed):
        weights, mults, batch = random_draw(residual, seed)
        ref = textbook_pass(weights, activation, batch, mults)
        model = MlpModel(weights, activation, mults)
        loss, cache = model.forward(batch)
        grads, factors = model.backward(cache)
        assert loss == ref["loss"]
        assert np.array_equal(cache.f, ref["f"])
        for key in ("hs", "xs"):
            got = getattr(cache, key)
            assert list(got) == list(ref[key])
            for name, want in ref[key].items():
                assert np.array_equal(got[name], want), (key, name)
        assert list(factors) == list(grads) == list(ref["factors"])
        for name, (left, right) in ref["factors"].items():
            assert np.array_equal(factors[name][0], left), name
            assert np.array_equal(factors[name][1], right), name
            assert np.array_equal(grads[name], left @ right.T), name

    @pytest.mark.parametrize("seed", range(3))
    def test_teacher_labels_are_the_forward_pass(self, seed):
        teacher = make_teacher(7)
        batch = synth_batch(seed, 5, teacher)
        ref = textbook_pass(teacher.weights, "tanh", batch)
        assert np.array_equal(batch.targets, ref["f"].ravel())
        assert np.array_equal(batch.targets, teacher.forward(batch)[1].f.ravel())


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
        batch = Batch(np.array([1.0]), np.array([0.0]))
        _, c1 = before.forward(batch)
        _, c2 = after.forward(batch)
        assert coord_probe(c1, c2, "fc1") == pytest.approx(3.5355339059327378, rel=1e-12)

    def test_linear_in_perturbation(self):
        base = np.array([[1.0], [2.0]])
        batch = Batch(np.array([1.0]), np.array([0.0]))
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
        model = MlpModel(weights, residual_mults=mults)
        batch = Batch(np.array([0.5, -1.0]), np.zeros(2))
        loss, cache = model.forward(batch)
        assert np.array_equal(cache.xs["block3"], cache.xs["embed"])
        f_ref = weights["readout"] @ cache.xs["embed"]
        assert loss == pytest.approx(float(np.mean(f_ref**2)))

    def test_residual_update_rule_by_hand(self):
        # width 1, relu, positive everything: x1 = x0 + r*w*x0
        model = MlpModel(
            {
                "embed": np.array([[2.0]]),
                "block1": np.array([[3.0]]),
                "readout": np.array([[1.0]]),
            },
            activation="relu",
            residual_mults={"block1": 0.5},
        )
        batch = Batch(np.array([1.0]), np.array([0.0]))
        _, cache = model.forward(batch)
        # x0 = 2, h1 = 6, x1 = 2 + 0.5*6 = 5
        assert cache.xs["block1"][0, 0] == pytest.approx(5.0)
        assert cache.f[0, 0] == pytest.approx(5.0)

    def test_build_from_manifest(self):
        manifest = resmlp_manifest(width=8, depth=4, base_width=8)
        plan = ScalingPlan(param="mup", base_width=8, eta_base=0.1, alpha_depth=1.0)
        table = build_plan(manifest, OptimizerConfig(rule="adam"), plan)
        model = MlpModel.build(manifest, table, seed=0)
        assert list(model.residual_mults) == ["block1", "block2", "block3", "block4"]
        assert model.residual_mults["block2"] == pytest.approx(0.25)
        assert model.weights["readout"].shape == (1, 8)
        assert np.array_equal(model.weights["readout"], np.zeros((1, 8)))


    @pytest.mark.parametrize("mults,message", [
        ({"block1": 0.5}, "residual multipliers"),
        ({"block1": 0.5, "block2": 0.5, "embed": 0.5}, "residual multipliers"),
        ({"block1": 0.5, "block2": 0.5, "readout": 0.5}, "residual multipliers"),
    ], ids=["missing", "on-embedding", "on-readout"])
    def test_multipliers_name_exactly_the_blocks(self, mults, message):
        weights = {"embed": np.ones((3, 1)), "block1": np.ones((3, 3)),
                   "block2": np.ones((3, 3)), "readout": np.ones((1, 3))}
        with pytest.raises(ValueError, match=message):
            MlpModel(weights, residual_mults=mults)

    def test_blocks_must_be_square(self):
        weights = {"embed": np.ones((3, 1)), "block1": np.ones((4, 3)),
                   "readout": np.ones((1, 4))}
        MlpModel(weights)  # a plain layer may change width
        with pytest.raises(ValueError, match="square"):
            MlpModel(weights, residual_mults={"block1": 1.0})


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
        m = resmlp_manifest(width=32, depth=6, base_width=32)
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
        probe = Batch(np.array([0.7, -0.3]), np.zeros(2))
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
