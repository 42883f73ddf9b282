import importlib
import json
import os
import re
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import pytest

import mupre
from mupre.cli import build_objects, load_config, main
from mupre.config import RULES, OptimizerConfig, SweepConfig
from mupre.scaling import LayerHyper, ScalingPlan

BASE_CONFIG = {
    "model": {"arch": "mlp", "widths": [8, 16, 32], "seeds": [0]},
    "optimizer": {"rule": "muon"},
    "scaling": {"param": "mup", "base_width": 8, "eta_base": 0.05},
    "sweep": {"steps": 12, "batch_size": 8, "probe_steps": [5, 10], "probe_batch": 8},
}

# a value for every dataclass field, none of them the field's default but
# precond_freq's, which only soap may raise (test_precond_freq_is_soap_only),
# and rms_align's, which only adamuon may set (test_rms_align_is_adamuon_only)
FULL_CONFIG = {
    "model": {"arch": "resmlp", "widths": [8, 16], "depths": [1, 2], "n_layers": 4,
              "activation": "relu", "seeds": [3, 4]},
    "optimizer": {"rule": "shampoo", "e_l": 0.25, "e_r": 0.75, "beta1": 0.8, "beta2": 0.9,
                  "eps": 1e-6, "eps_mode": "absolute", "graft_rule": "adam",
                  "graft_eps": 1e-12, "graft_ref_eps": 1e-7, "block_in": 4, "block_out": 8,
                  "normalize": "spectral", "precond_freq": 1, "ns_iters": 3,
                  "rms_align": False},
    "scaling": {"param": "mup", "base_width": 8, "eta_base": 0.05, "base_depth": 2,
                "wd_base": 0.01, "wd_mode": "inv_width", "alpha_depth": 0.5},
    "sweep": {"steps": 7, "batch_size": 4, "lr_grid": [0.5, 1.0], "probe_steps": [2, 5],
              "probe_batch": 4, "teacher_seed": 1, "probe_seed": 2,
              "divergence_factor": 100.0, "wd_variant": "coupled"},
}

# (section, key, value, message): for each int field of OptimizerConfig,
# ScalingPlan and SweepConfig, a value of the right JSON shape that is no
# integer
NON_INTEGERS = [
    ("optimizer", "block_in", 2.0, "block_in must be an integer, got 2.0"),
    ("optimizer", "block_out", True, "block_out must be an integer, got True"),
    ("optimizer", "precond_freq", 1.5, "precond_freq must be an integer, got 1.5"),
    ("optimizer", "ns_iters", 2.5, "ns_iters must be an integer, got 2.5"),
    ("scaling", "base_width", 8.0, "base_width must be an integer, got 8.0"),
    ("scaling", "base_depth", True, "base_depth must be an integer, got True"),
    ("model", "widths", [8, 16.5, 32], "widths entries must be integers, got 16.5"),
    ("model", "depths", [True], "depths entries must be integers, got True"),
    ("model", "n_layers", 3.0, "n_layers must be an integer, got 3.0"),
    ("model", "seeds", [0.5], "seeds entries must be integers, got 0.5"),
    ("sweep", "steps", 3.5, "steps must be an integer, got 3.5"),
    ("sweep", "batch_size", True, "batch_size must be an integer, got True"),
    ("sweep", "probe_steps", [5, "10"], "probe_steps entries must be integers, got '10'"),
    ("sweep", "probe_batch", 8.0, "probe_batch must be an integer, got 8.0"),
    ("sweep", "teacher_seed", 7.5, "teacher_seed must be an integer, got 7.5"),
    ("sweep", "probe_seed", False, "probe_seed must be an integer, got False"),
]

# (section, key, value, message): for each float field of OptimizerConfig,
# ScalingPlan and SweepConfig, a value of the right JSON shape that is no
# number
NON_REALS = [
    ("optimizer", "e_l", True, "e_l must be a number, got True"),
    ("optimizer", "e_r", "0.5", "e_r must be a number, got '0.5'"),
    ("optimizer", "beta1", False, "beta1 must be a number, got False"),
    ("optimizer", "beta2", None, "beta2 must be a number, got None"),
    ("optimizer", "eps", True, "eps must be a number, got True"),
    ("optimizer", "graft_eps", True, "graft_eps must be a number, got True"),
    ("optimizer", "graft_ref_eps", "1e-8", "graft_ref_eps must be a number, got '1e-8'"),
    ("scaling", "eta_base", True, "eta_base must be a number, got True"),
    ("scaling", "wd_base", False, "wd_base must be a number, got False"),
    ("scaling", "alpha_depth", None, "alpha_depth must be a number, got None"),
    ("sweep", "lr_grid", [True], "lr_grid entries must be numbers, got True"),
    ("sweep", "divergence_factor", True, "divergence_factor must be a number, got True"),
]

# (section, key, value, message): for each str field of OptimizerConfig,
# ScalingPlan and SweepConfig, a value that is no string or none of its choices
NON_STRINGS = [
    ("optimizer", "rule", 1, "rule must be a string, got 1"),
    ("optimizer", "eps_mode", None, "eps_mode must be a string, got None"),
    ("optimizer", "graft_rule", "x", "unknown graft_rule 'x'; expected one of ('sgd', 'adam')"),
    ("optimizer", "normalize", True, "normalize must be a string, got True"),
    ("scaling", "param", 5, "param must be a string, got 5"),
    ("scaling", "wd_mode", "linear", "unknown wd_mode 'linear'"),
    ("model", "arch", [], "arch must be a string, got []"),
    ("model", "activation", {}, "activation must be a string, got {}"),
    ("sweep", "wd_variant", 0, "wd_variant must be a string, got 0"),
]

# (section, key, value, message): for each bool field, a value that is no bool
NON_BOOLS = [
    ("optimizer", "rms_align", "yes", "rms_align must be a boolean, got 'yes'"),
]

# one JSON value of every shape, at and past the edges of the fields' bounds
JSON_VALUES = [True, False, None, "x", -1, 0, 0.5, 1, 2, 1e308, float("nan"),
               [], [1], ["x"], {}, {"a": 1}]


CSV_HEADER = "run_id,width,depth,step,eta_base,loss,layer,delta_h_rms,srank,spec_norm"

SRC = Path(mupre.__file__).resolve().parents[1]
BENCH = SRC.parent / "bench"

# every config the repository ships: the benchmark's and the README's example
SHIPPED_CONFIGS = [*sorted(BENCH.glob("configs/*.json")), SRC.parent / "README.md"]


# adam under mup at widths below the base width: fc2's lr overflows float64
OVERFLOWING_PLAN = {
    "optimizer": {"rule": "adam"},
    "scaling": {"param": "mup", "base_width": 64, "eta_base": 1e308},
}


def write_config(tmp_path, name="cfg.json", **patches):
    cfg = json.loads(json.dumps(BASE_CONFIG))
    for section, fields in patches.items():
        cfg.setdefault(section, {}).update(fields)
    path = tmp_path / name
    path.write_text(json.dumps(cfg, indent=1))
    return str(path)


class TestConfigValidation:
    def test_valid_config_loads(self, tmp_path):
        cfg = load_config(write_config(tmp_path))
        assert cfg.sections["model"]["widths"] == [8, 16, 32]
        assert cfg.sections["sweep"]["steps"] == 12
        assert cfg.sections["output"]["directory"] == "."

    def test_unknown_section_rejected(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        cfg = dict(BASE_CONFIG, extra={"x": 1})
        path.write_text(json.dumps(cfg))
        assert main(["plan", "--config", str(path)]) == 2
        assert "unknown section" in capsys.readouterr().err

    def test_unknown_key_rejected_with_path(self, tmp_path, capsys):
        # a misspelt key, and keys that no run reads
        for section, key, value in [("sweep", "stepz", 5),
                                    ("scaling", "overrides", {"fc2": {"eta": 1.0}}),
                                    ("sweep", "record_every", 1),
                                    ("output", "formats", ["csv"])]:
            path = write_config(tmp_path, **{section: {key: value}})
            out = tmp_path / "out"
            assert main(["coordcheck", "--config", path, "--out", str(out)]) == 2
            line = next(i for i, text in enumerate(Path(path).read_text().splitlines(), 1)
                        if f'"{key}"' in text)
            err = capsys.readouterr().err
            assert err.startswith(f"{path}:{line}: {section}.{key}: unknown key; "), err
            assert not out.exists()

    def test_missing_required_key(self, tmp_path, capsys):
        cfg = json.loads(json.dumps(BASE_CONFIG))
        del cfg["scaling"]["eta_base"]
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert main(["plan", "--config", str(path)]) == 2
        assert "scaling.eta_base" in capsys.readouterr().err

    def test_missing_section(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"model": BASE_CONFIG["model"]}))
        assert main(["plan", "--config", str(path)]) == 2
        assert "missing required section" in capsys.readouterr().err

    def test_invalid_json_reports_line(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text('{\n  "model": {,}\n}')
        assert main(["plan", "--config", str(path)]) == 2
        assert f"{path}:2" in capsys.readouterr().err

    def test_negative_width_exits_2_with_line(self, tmp_path, capsys):
        path = write_config(tmp_path, model={"widths": [-8]})
        assert main(["coordcheck", "--config", path]) == 2
        err = capsys.readouterr().err
        assert "model.widths" in err
        assert re.search(r"cfg\.json:\d+:", err)

    def test_missing_file(self, tmp_path, capsys):
        assert main(["plan", "--config", str(tmp_path / "nope.json")]) == 2

    def test_bad_optimizer_rule(self, tmp_path, capsys):
        path = write_config(tmp_path, optimizer={"rule": "adagrad"})
        assert main(["plan", "--config", path]) == 2
        assert "optimizer" in capsys.readouterr().err

    def test_jobs_must_be_positive(self, tmp_path, capsys):
        path = write_config(tmp_path)
        assert main(["coordcheck", "--config", path, "--jobs", "0"]) == 2

    def test_required_keys_alone_build_dataclass_defaults(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({
            "model": {"widths": [8, 16]},
            "optimizer": {"rule": "muon"},
            "scaling": {"param": "mup", "base_width": 8, "eta_base": 0.05},
        }))
        opt, plan, sweep = build_objects(load_config(str(path)), seed=None)
        assert opt == OptimizerConfig("muon")
        assert plan == ScalingPlan("mup", base_width=8, eta_base=0.05)
        assert sweep == SweepConfig(opt=opt, plan=plan, widths=(8, 16))

    def test_every_dataclass_field_is_a_config_key(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(FULL_CONFIG))
        opt, plan, sweep = build_objects(load_config(str(path)), seed=None)
        sweep_keys = {**FULL_CONFIG["model"], **FULL_CONFIG["sweep"]}
        for obj, given in ((opt, FULL_CONFIG["optimizer"]), (plan, FULL_CONFIG["scaling"]),
                           (sweep, sweep_keys)):
            names = {f.name for f in fields(obj)} - {"opt", "plan"}
            assert names == set(given)
            for name in names:
                value = given[name]
                assert getattr(obj, name) == (tuple(value) if isinstance(value, list) else value)

    def test_any_json_value_at_any_key_exits_0_or_2_naming_the_key(self, tmp_path, capsys):
        out = str(tmp_path / "out")
        bad = []
        for section in ("model", "optimizer", "scaling", "sweep"):
            for key in FULL_CONFIG[section]:
                for value in JSON_VALUES:
                    path = write_config(tmp_path, **{section: {key: value}})
                    try:
                        code = main(["plan", "--config", path, "--out", out])
                    except Exception as exc:
                        bad.append((section, key, value, repr(exc)))
                        continue
                    err = capsys.readouterr().err
                    if code not in (0, 2) or (code == 2 and f": {section}.{key}: " not in err):
                        bad.append((section, key, value, code, err))
        assert not bad

    @pytest.mark.parametrize("path", SHIPPED_CONFIGS, ids=lambda path: path.name)
    def test_shipped_configs_build(self, tmp_path, path):
        text = path.read_text()
        if path.suffix == ".md":
            text = text.split("```json\n", 1)[1].split("```", 1)[0]
            path = tmp_path / "example.json"
            path.write_text(text)
        build_objects(load_config(str(path)), seed=None)

    @pytest.mark.parametrize("command", ["plan", "coordcheck"])
    @pytest.mark.parametrize("section,key,value", [
        ("model", "activation", "gelu"),
        ("sweep", "wd_variant", "bogus"),
    ])
    def test_unknown_activation_or_wd_variant_rejected(
        self, tmp_path, capsys, command, section, key, value
    ):
        # wd_base is 0, so a bad wd_variant would never reach the decay step
        path = write_config(tmp_path, **{section: {key: value}})
        out = tmp_path / "out"
        assert main([command, "--config", path, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"unknown {key} {value!r}" in err
        assert not out.exists()


    @pytest.mark.parametrize("section,key,value,message", [
        ("model", "activation", "gelu", "unknown activation 'gelu'"),
        ("model", "widths", [64, 32, 16], "widths must be ascending"),
        ("sweep", "steps", 0, "steps must be >= 1, got 0"),
        ("model", "seeds", [0, -1], "seeds must be >= 0, got -1"),
        ("sweep", "teacher_seed", -1, "teacher_seed must be >= 0, got -1"),
        ("sweep", "probe_seed", -5, "probe_seed must be >= 0, got -5"),
        *NON_INTEGERS,
        *NON_REALS,
        ("model", "widths", 8, "widths must be a list, got 8"),
        ("optimizer", "ns_iters", 0, "ns_iters must be >= 1, got 0"),
        ("optimizer", "beta2", 1, "beta2 must be < 1, got 1"),
        ("scaling", "base_width", 0, "base_width must be >= 1, got 0"),
        ("scaling", "alpha_depth", 2, "alpha_depth must be <= 1, got 2"),
        ("sweep", "divergence_factor", float("nan"), "divergence_factor must be > 1, got nan"),
        ("optimizer", "block_out", 2, "blocking is only defined for shampoo and soap"),
        *NON_STRINGS,
        *NON_BOOLS,
    ])
    def test_sweep_config_error_names_the_owning_key(
        self, tmp_path, capsys, section, key, value, message
    ):
        path = write_config(tmp_path, **{section: {key: value}})
        assert main(["plan", "--config", path]) == 2
        lines = Path(path).read_text().splitlines()
        line = next(i for i, text in enumerate(lines, 1) if f'"{key}"' in text)
        assert f"cfg.json:{line}: {section}.{key}: {message}" in capsys.readouterr().err

    def test_non_integer_table_covers_every_int_field(self):
        int_fields = {f.name for cls in (OptimizerConfig, ScalingPlan, SweepConfig)
                      for f in fields(cls) if "int" in f.type}
        assert {key for _, key, _, _ in NON_INTEGERS} == int_fields

    def test_non_real_table_covers_every_float_field(self):
        float_fields = {f.name for cls in (OptimizerConfig, ScalingPlan, SweepConfig)
                        for f in fields(cls) if "float" in f.type}
        assert {key for _, key, _, _ in NON_REALS} == float_fields

    @pytest.mark.parametrize("command,flag,value", [
        ("coordcheck", "--format", "csv"),
        ("plan", "--seed", "0"),
        ("plan", "--jobs", "1"),
        ("plan", "--format", "csv"),
        ("oracle", "--out", "out"),
        ("oracle", "--jobs", "1"),
        ("oracle", "--format", "csv"),
        ("multiplier", "--seed", "0"),
        ("multiplier", "--jobs", "1"),
        ("multiplier", "--format", "csv"),
    ])
    def test_flag_the_command_ignores_exits_2(self, tmp_path, capsys, command, flag, value):
        args = (["base.csv", "cand.csv"] if command == "multiplier"
                else ["--config", write_config(tmp_path)])
        with pytest.raises(SystemExit) as exc:
            main([command, *args, flag, value])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err

    @pytest.mark.parametrize("rule", RULES)
    def test_precond_freq_is_soap_only(self, tmp_path, capsys, rule):
        optimizer = {"rule": rule, "precond_freq": 2}
        if rule == "soap":
            optimizer.update(e_l=1.0, e_r=1.0)
        path = write_config(tmp_path, optimizer=optimizer)
        if rule == "soap":
            opt, _, _ = build_objects(load_config(path), seed=None)
            assert opt.precond_freq == 2
            return
        assert main(["plan", "--config", path]) == 2
        line = next(i for i, text in enumerate(Path(path).read_text().splitlines(), 1)
                    if '"precond_freq"' in text)
        assert capsys.readouterr().err == (
            f"{path}:{line}: optimizer.precond_freq: precond_freq 2 > 1 is only read "
            f"by soap, not {rule!r}\n"
        )

    @pytest.mark.parametrize("rule", RULES)
    def test_rms_align_is_adamuon_only(self, tmp_path, capsys, rule):
        optimizer = {"rule": rule, "rms_align": True}
        if rule == "soap":
            optimizer.update(e_l=1.0, e_r=1.0)
        path = write_config(tmp_path, optimizer=optimizer)
        if rule == "adamuon":
            opt, _, _ = build_objects(load_config(path), seed=None)
            assert opt.rms_align
            return
        assert main(["plan", "--config", path]) == 2
        line = next(i for i, text in enumerate(Path(path).read_text().splitlines(), 1)
                    if '"rms_align"' in text)
        assert capsys.readouterr().err == (
            f"{path}:{line}: optimizer.rms_align: rms_align is only read by adamuon, "
            f"not {rule!r}\n"
        )

    @pytest.mark.parametrize("section,key,value,message", [
        ("model", "widths", [8, 8, 16], "widths must be ascending with no repeats, got [8, 8, 16]"),
        ("model", "depths", [1, 2, 2], "depths must be ascending with no repeats, got [1, 2, 2]"),
        ("model", "seeds", [0, 3, 0], "seeds must have no repeats, got [0, 3, 0]"),
        ("sweep", "lr_grid", [0.5, 0.5], "lr_grid must have no repeats, got [0.5, 0.5]"),
    ])
    def test_repeated_grid_entry_exits_2_at_its_key(
        self, tmp_path, capsys, section, key, value, message
    ):
        # a repeated entry would train the same grid cell again
        path = write_config(tmp_path, **{section: {key: value}})
        out = tmp_path / "out"
        assert main(["lrsweep", "--config", path, "--out", str(out)]) == 2
        line = next(i for i, text in enumerate(Path(path).read_text().splitlines(), 1)
                    if f'"{key}"' in text)
        assert capsys.readouterr().err == f"{path}:{line}: {section}.{key}: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("command,model", [
        ("coordcheck", {}),
        ("depthcheck", {"arch": "resmlp", "widths": [8], "depths": [1, 2, 4]}),
    ])
    def test_probe_step_past_the_last_step_exits_2(self, tmp_path, capsys, command, model):
        # a probe after the last step would record nothing
        path = write_config(tmp_path, model=model, sweep={"steps": 8, "probe_steps": [5, 10]})
        out = tmp_path / "out"
        assert main([command, "--config", path, "--out", str(out)]) == 2
        line = next(i for i, text in enumerate(Path(path).read_text().splitlines(), 1)
                    if '"probe_steps"' in text)
        assert capsys.readouterr().err == (
            f"{path}:{line}: sweep.probe_steps: probe steps [10] come after the last step 8\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("command,section,key,model,sweep", [
        ("coordcheck", "model", "seeds", {"seeds": [0, 1]}, {}),
        ("depthcheck", "model", "widths", {"arch": "resmlp", "widths": [8, 16],
                                           "depths": [1, 2, 4]}, {}),
        ("rankscan", "sweep", "lr_grid", {}, {"lr_grid": [0.5, 1.0]}),
        ("lrsweep", "model", "depths", {"depths": [1, 2]}, {}),
    ], ids=["coordcheck-seeds", "depthcheck-widths", "rankscan-lr_grid", "lrsweep-depths"])
    def test_axis_the_command_does_not_sweep_must_hold_one_value(
        self, tmp_path, capsys, command, section, key, model, sweep
    ):
        # the command would train only the first value
        path = write_config(tmp_path, model=model, sweep=sweep)
        out = tmp_path / "out"
        assert main([command, "--config", path, "--out", str(out)]) == 2
        line = next(i for i, text in enumerate(Path(path).read_text().splitlines(), 1)
                    if f'"{key}"' in text)
        values = {**model, **sweep}[key]
        assert capsys.readouterr().err == (
            f"{path}:{line}: {section}.{key}: {key} must hold one value, since {command} "
            f"does not sweep it, got {values}\n"
        )
        assert not out.exists()

    def test_probe_steps_past_the_last_step_are_only_a_slope_fit_error(self, tmp_path):
        # rankscan and lrsweep fit no slope at the probe steps: the default
        # probe steps (10, 200) stay valid for a shorter run
        path = write_config(tmp_path, sweep={"steps": 3, "probe_steps": [10, 200]})
        _, _, sweep_cfg = build_objects(load_config(path), seed=None)
        for name in ("rankscan", "lrsweep"):
            sweep_cfg.require(name)

    @pytest.mark.parametrize("command,model", [
        ("coordcheck", {}),
        ("depthcheck", {"arch": "resmlp", "widths": [8], "depths": [1, 2, 4]}),
        ("rankscan", {}),
    ], ids=["coordcheck", "depthcheck", "rankscan"])
    def test_lr_grid_the_command_does_not_read_exits_2(self, tmp_path, capsys, command, model):
        # the command trains at scaling.eta_base, whatever lr_grid holds
        path = write_config(tmp_path, model=model, sweep={"lr_grid": [0.5]})
        out = tmp_path / "out"
        assert main([command, "--config", path, "--out", str(out)]) == 2
        line = next(i for i, text in enumerate(Path(path).read_text().splitlines(), 1)
                    if '"lr_grid"' in text)
        assert capsys.readouterr().err == (
            f"{path}:{line}: sweep.lr_grid: {command} reads no lr_grid; it trains at "
            "scaling.eta_base\n"
        )
        assert not out.exists()

    def test_negative_seed_flag_exits_2(self, tmp_path, capsys):
        assert main(["oracle", "--config", write_config(tmp_path), "--seed", "-1"]) == 2
        assert "model.seeds: seeds must be >= 0, got -1" in capsys.readouterr().err


class TestPlanCommand:
    def test_emits_table_and_file(self, tmp_path, capsys):
        path = write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["plan", "--config", path, "--out", str(out)]) == 0
        table = json.loads(capsys.readouterr().out)
        assert set(table) == {"fc1", "fc2", "readout"}
        assert table["fc2"]["eta"] == pytest.approx(0.05)
        on_disk = json.loads((out / "plan.json").read_text())
        assert on_disk == table

    def test_overflowing_plan_names_the_cell(self, tmp_path, capsys):
        path = write_config(tmp_path, **OVERFLOWING_PLAN)
        out = tmp_path / "out"
        assert main(["plan", "--config", path, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert re.fullmatch(
            r".*cfg\.json:\d+: scaling: plan at width 8, depth 1, eta_base 1e\+308: "
            r"eta must be finite, got inf\n", err
        ), err
        assert not out.exists()


class TestCoordcheckCommand:
    def test_artifacts_and_exit_zero(self, tmp_path, capsys):
        path = write_config(tmp_path, checks={"max_abs_slope": 0.5})
        out = tmp_path / "out"
        assert main(["coordcheck", "--config", path, "--out", str(out)]) == 0
        csv_text = (out / "coordcheck.csv").read_text()
        assert csv_text.splitlines()[0] == CSV_HEADER
        lines = (out / "coordcheck.jsonl").read_text().splitlines()
        assert len(lines) == 4
        tail = json.loads(lines[-1])
        assert tail["experiment"] == "coordcheck"
        assert set(tail["slopes"]) == {"5", "10"}
        assert not list(out.glob("*.tmp"))
        assert "PASS" in capsys.readouterr().out

    def test_failed_check_exits_one(self, tmp_path, capsys):
        path = write_config(tmp_path, checks={"max_abs_slope": 1e-9})
        assert main(["coordcheck", "--config", path, "--out", str(tmp_path / "o")]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_seed_determinism(self, tmp_path):
        path = write_config(tmp_path)
        a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
        for out, seed in ((a, "1"), (b, "1"), (c, "2")):
            assert main(["coordcheck", "--config", path, "--out", str(out),
                         "--seed", seed]) == 0
        assert (a / "coordcheck.csv").read_bytes() == (b / "coordcheck.csv").read_bytes()
        assert (a / "coordcheck.csv").read_bytes() != (c / "coordcheck.csv").read_bytes()

    def test_jobs_parallel_matches_serial(self, tmp_path):
        path = write_config(tmp_path)
        a, b = tmp_path / "serial", tmp_path / "par"
        assert main(["coordcheck", "--config", path, "--out", str(a)]) == 0
        assert main(["coordcheck", "--config", path, "--out", str(b), "--jobs", "2"]) == 0
        assert (a / "coordcheck.csv").read_bytes() == (b / "coordcheck.csv").read_bytes()
        assert (a / "coordcheck.jsonl").read_bytes() == (b / "coordcheck.jsonl").read_bytes()

    def test_env_overrides_out_flag(self, tmp_path, monkeypatch):
        path = write_config(tmp_path)
        env_dir = tmp_path / "env"
        monkeypatch.setenv("MUPRE_OUT", str(env_dir))
        assert main(["coordcheck", "--config", path, "--out", str(tmp_path / "flag")]) == 0
        assert (env_dir / "coordcheck.csv").exists()
        assert not (tmp_path / "flag").exists()

    def test_bad_config_format_list(self, tmp_path, capsys):
        path = write_config(tmp_path, output={"formats": ["yaml"]})
        assert main(["coordcheck", "--config", path, "--out", str(tmp_path)]) == 2
        assert "output.formats" in capsys.readouterr().err


class TestLrSweepCommand:
    def test_argmin_and_drift_emitted(self, tmp_path, capsys):
        path = write_config(
            tmp_path,
            model={"widths": [8, 16]},
            sweep={"lr_grid": [0.01, 0.05], "steps": 10},
        )
        out = tmp_path / "out"
        assert main(["lrsweep", "--config", path, "--out", str(out)]) == 0
        lines = (out / "lrsweep.jsonl").read_text().splitlines()
        runs = [json.loads(l) for l in lines[:-1]]
        assert len(runs) == 4
        assert all("argmin_eta" in r for r in runs)
        tail = json.loads(lines[-1])
        assert tail["experiment"] == "lrsweep"
        assert set(tail["argmin"]) == {"8", "16"}
        assert "drift_octaves" in tail

    def test_drift_check_can_fail(self, tmp_path, capsys):
        path = write_config(
            tmp_path,
            model={"widths": [8, 16]},
            sweep={"lr_grid": [0.01, 0.08], "steps": 25},
            checks={"max_drift_octaves": 1e-12},
        )
        code = main(["lrsweep", "--config", path, "--out", str(tmp_path / "o")])
        out = capsys.readouterr().out
        drift = [l for l in out.splitlines() if l.startswith("optimum drift")]
        assert drift
        assert code in (0, 1)


    @pytest.mark.parametrize("checks,code", [({}, 0), ({"max_drift_octaves": 1.0}, 1)])
    def test_width_where_every_eta_diverged_has_no_argmin(self, tmp_path, capsys, checks, code):
        path = write_config(
            tmp_path,
            model={"widths": [16, 32]},
            sweep={"lr_grid": [1e3, 1e4]},
            checks=checks,
        )
        out = tmp_path / "out"
        assert main(["lrsweep", "--config", path, "--out", str(out)]) == code
        printed = capsys.readouterr().out
        assert "argmin per width: {16: None, 32: None}" in printed
        assert "optimum drift: undefined" in printed
        assert ("CHECK max_drift_octaves: FAIL" in printed) == bool(checks)
        lines = (out / "lrsweep.jsonl").read_text().splitlines()
        runs = [json.loads(l) for l in lines[:-1]]
        assert runs and all(r["diverged"] and r["argmin_eta"] is None for r in runs)
        tail = json.loads(lines[-1])
        assert tail["argmin"] == {"16": None, "32": None}
        assert tail["drift_octaves"] is None


class TestRankScanCommand:
    def test_summary_artifact(self, tmp_path):
        path = write_config(
            tmp_path,
            model={"widths": [8, 16]},
            sweep={"steps": 6, "probe_steps": [1, 6]},
        )
        out = tmp_path / "out"
        assert main(["rankscan", "--config", path, "--out", str(out)]) == 0
        lines = (out / "rankscan.jsonl").read_text().splitlines()
        tail = json.loads(lines[-1])
        assert tail["experiment"] == "rankscan"
        assert set(tail["summary"]) == {"8", "16"}
        assert set(tail["summary"]["8"]) == {"fc1", "fc2", "readout"}


class TestDepthCheckCommand:
    def test_resmlp_depths(self, tmp_path):
        path = write_config(
            tmp_path,
            model={"arch": "resmlp", "widths": [8], "depths": [1, 2, 4]},
            scaling={"alpha_depth": 1.0},
        )
        out = tmp_path / "out"
        assert main(["depthcheck", "--config", path, "--out", str(out)]) == 0
        tail = json.loads((out / "depthcheck.jsonl").read_text().splitlines()[-1])
        assert tail["experiment"] == "depthcheck"
        assert "embed" in tail["slopes"]["10"]

    def test_mlp_arch_rejected(self, tmp_path, capsys):
        path = write_config(tmp_path, model={"depths": [1, 2, 4]})
        assert main(["depthcheck", "--config", path, "--out", str(tmp_path)]) == 2


class TestOracleCommand:
    def test_battery_passes(self, tmp_path, capsys):
        path = write_config(tmp_path)
        assert main(["oracle", "--config", path, "--seed", "0"]) == 0
        out = capsys.readouterr().out
        assert "oracle muon vs svd reference" in out
        assert "FAIL" not in out

    def test_eta_base_does_not_reach_the_exponent_check(self, tmp_path, capsys):
        # widths below base_width 4096: eta_base 1e308 overflows the lr there
        printed = {}
        for eta_base in (1.0, 1e308):
            path = write_config(tmp_path, optimizer={"rule": "adam"}, scaling={
                "param": "mup", "base_width": 4096, "eta_base": eta_base})
            assert main(["oracle", "--config", path, "--seed", "0"]) == 0
            printed[eta_base] = capsys.readouterr().out
        assert "mup exponent: measured" in printed[1.0]
        assert printed[1e308] == printed[1.0]

    def test_tightened_tolerance_fails(self, tmp_path, capsys):
        path = write_config(tmp_path, checks={"oracle_tol": 1e-18})
        assert main(["oracle", "--config", path, "--seed", "0"]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_second_seed_exits_2_without_the_seed_flag(self, tmp_path, capsys):
        # the battery runs one seed; --seed replaces the configured ones
        path = write_config(tmp_path, model={"seeds": [0, 1]})
        assert main(["oracle", "--config", path]) == 2
        line = next(i for i, text in enumerate(Path(path).read_text().splitlines(), 1)
                    if '"seeds"' in text)
        assert capsys.readouterr().err == (
            f"{path}:{line}: model.seeds: seeds must hold one value, since oracle does not "
            "sweep it, got [0, 1]\n"
        )
        assert main(["oracle", "--config", path, "--seed", "1"]) == 0
        flagged = capsys.readouterr().out
        one = write_config(tmp_path, name="one.json", model={"seeds": [1]})
        assert main(["oracle", "--config", one]) == 0
        assert capsys.readouterr().out == flagged


class TestMultiplierCommand:
    def write_series(self, tmp_path):
        base = tmp_path / "base.csv"
        base.write_text("compute,loss\n1e15,3.3\n2e15,3.2\n")
        cand = tmp_path / "cand.csv"
        cand.write_text("compute,loss\n1.5e15,3.2\n")
        return str(base), str(cand)

    def test_frozen_example(self, tmp_path, capsys):
        base, cand = self.write_series(tmp_path)
        assert main(["multiplier", base, cand]) == 0
        assert "1.3333" in capsys.readouterr().out

    def test_csv_artifact(self, tmp_path, capsys):
        base, cand = self.write_series(tmp_path)
        out = tmp_path / "out"
        assert main(["multiplier", base, cand, "--out", str(out)]) == 0
        lines = (out / "multiplier.csv").read_text().splitlines()
        assert lines[0] == "compute,loss,multiplier,flagged,extrapolated"
        compute, loss, mult, flagged, extrap = lines[1].split(",")
        assert float(compute) == 1.5e15
        assert float(mult) == pytest.approx(4.0 / 3.0, rel=1e-9)
        assert (flagged, extrap) == ("False", "False")

    def test_bad_header_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("flops,loss\n1,2\n")
        base, cand = self.write_series(tmp_path)
        assert main(["multiplier", str(bad), cand]) == 2
        assert "compute,loss" in capsys.readouterr().err

    def test_short_series_exits_2(self, tmp_path, capsys):
        short = tmp_path / "short.csv"
        short.write_text("compute,loss\n1e15,3.3\n")
        _, cand = self.write_series(tmp_path)
        assert main(["multiplier", str(short), cand]) == 2

    def test_overflowing_extrapolation_exits_2(self, tmp_path, capsys):
        base = tmp_path / "base.csv"
        base.write_text("compute,loss\n1e10,10.0\n1e20,0.1\n")
        cand = tmp_path / "cand.csv"
        cand.write_text("compute,loss\n1.0,1e-300\n")
        out = tmp_path / "out"
        assert main(["multiplier", str(base), str(cand), "--out", str(out)]) == 2
        assert "outside float64 range" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("which", ["baseline", "candidate"])
    @pytest.mark.parametrize("entry", ["inf,0.3", "1e15,nan", "-inf,3.0"])
    def test_non_finite_entry_exits_2(self, tmp_path, capsys, which, entry):
        base, cand = self.write_series(tmp_path)
        bad = Path(base if which == "baseline" else cand)
        bad.write_text(bad.read_text() + entry + "\n")
        assert main(["multiplier", base, cand]) == 2
        line = len(bad.read_text().splitlines())
        assert f"{bad}:{line}: non-finite entry" in capsys.readouterr().err


class TestNumericalFailure:
    """An overflow inside a run is a diverged cell, not a config error.

    SOAP at eta_base 1e4 overflows its factor accumulators before the loss
    check fires, because divergence_factor 1e300 lets the loss grow freely.
    """

    OVERFLOW = {
        "model": {"widths": [16, 32, 64], "activation": "relu"},
        "optimizer": {"rule": "soap", "e_l": 1.0, "e_r": 1.0},
        "scaling": {"param": "sp", "base_width": 16, "eta_base": 1e4},
        "sweep": {"steps": 25, "batch_size": 8, "probe_steps": [10, 25],
                  "probe_batch": 16, "divergence_factor": 1e300},
    }

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflow_marks_cells_diverged(self, tmp_path, capsys):
        path = write_config(tmp_path, **self.OVERFLOW)
        out = tmp_path / "out"
        assert main(["coordcheck", "--config", path, "--out", str(out)]) == 0
        *runs, tail = [json.loads(line) for line in
                       (out / "coordcheck.jsonl").read_text().splitlines()]
        assert [run["diverged"] for run in runs] == [False, True, True]
        assert tail["excluded"] == [run["run_id"] for run in runs[1:]]
        assert "excluded diverged runs" in capsys.readouterr().out

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflow_fails_a_configured_slope_check(self, tmp_path, capsys):
        path = write_config(tmp_path, checks={"max_abs_slope": 0.5}, **self.OVERFLOW)
        assert main(["coordcheck", "--config", path, "--out", str(tmp_path / "out")]) == 1
        assert "CHECK slopes: FAIL" in capsys.readouterr().out

    @pytest.mark.parametrize("command,patch", [
        ("coordcheck", OVERFLOWING_PLAN),
        ("rankscan", OVERFLOWING_PLAN),
        ("lrsweep", {"optimizer": {"rule": "adam"}, "scaling": {"base_width": 64},
                     "sweep": {"lr_grid": [1.0, 1e308]}}),
        ("depthcheck", {"model": {"arch": "resmlp", "widths": [8], "depths": [1, 2, 4]},
                        **OVERFLOWING_PLAN}),
    ], ids=["coordcheck", "rankscan", "lrsweep", "depthcheck"])
    def test_overflowing_plan_exits_2_before_any_cell(self, tmp_path, capsys, command, patch):
        path = write_config(tmp_path, **patch)
        out = tmp_path / "out"
        assert main([command, "--config", path, "--out", str(out)]) == 2
        assert capsys.readouterr().err.endswith(
            ": scaling: plan at width 8, depth 1, eta_base 1e+308: "
            "eta must be finite, got inf\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("optimizer,diverged", [
        ({"rule": "adam", "eps": 0}, False),
        ({"rule": "muon", "graft_rule": "adam", "graft_ref_eps": 0}, False),
        ({"rule": "shampoo", "eps": 0, "eps_mode": "relative"}, True),
        ({"rule": "shampoo", "eps": 0, "eps_mode": "absolute"}, True),
    ], ids=["adam", "muon-adam-graft", "shampoo-relative", "shampoo-absolute"])
    def test_zero_eps_finishes_the_sweep(self, tmp_path, optimizer, diverged):
        # every hidden layer's first gradient is zero, since the readout
        # starts at zero: adam's zero-history entries get a zero update, and
        # shampoo's root of a rank-deficient factor at eps' = 0 is singular
        path = write_config(tmp_path, optimizer=optimizer,
                            sweep={"steps": 3, "batch_size": 4, "probe_steps": [1, 3],
                                   "probe_batch": 4})
        out = tmp_path / "out"
        proc = subprocess.run(
            [sys.executable, "-m", "mupre", "coordcheck", "--config", path, "--out", str(out)],
            env=_env(), capture_output=True, text=True,
        )
        assert proc.returncode == 0 and "Traceback" not in proc.stderr, proc.stderr
        *runs, _ = [json.loads(line) for line in
                    (out / "coordcheck.jsonl").read_text().splitlines()]
        assert [run["diverged"] for run in runs] == [diverged] * 3
        assert all(run["steps_completed"] == (1 if diverged else 3) for run in runs)

    def test_two_widths_is_still_a_config_error(self, tmp_path, capsys):
        path = write_config(tmp_path, model={"widths": [8, 16]})
        out = tmp_path / "out"
        assert main(["coordcheck", "--config", path, "--out", str(out)]) == 2
        assert "model.widths: coordcheck needs at least 3 widths" in (
            capsys.readouterr().err
        )
        assert not out.exists()


# runs the CLI, then reports which heavy modules the process loaded
_LOADED = """
import json, sys
from mupre.cli import main
try:
    rc = main(sys.argv[1:])
except SystemExit as exc:
    rc = exc.code
heavy = [m for m in ("numpy", "concurrent.futures") if m in sys.modules]
print(json.dumps({"rc": rc, "loaded": heavy}))
"""


def _env() -> dict:
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


class TestModuleLayering:
    @pytest.mark.parametrize("argv,patch,rc", [
        (["plan"], {}, 0),
        (["--help"], None, 0),
        (["plan"], {"model": {"activation": "gelu"}}, 2),
        (["coordcheck"], {"model": {"widths": [8, 16]}}, 2),
        (["depthcheck"], {"model": {"depths": [1, 2, 4]}}, 2),
        (["lrsweep"], {"output": {"formats": ["yaml"]}}, 2),
        (["rankscan"], {"optimizer": {"rule": "adam"}, "scaling": {"param": "muon_adamexp"}}, 2),
        (["coordcheck"], OVERFLOWING_PLAN, 2),
        (["coordcheck"], {"model": {"seeds": [0, 1]}}, 2),
    ], ids=["plan", "help", "bad-activation", "two-widths", "mlp-depthcheck", "bad-format",
            "param-for-muon-only", "overflowing-plan", "pinned-seeds"])
    def test_config_layer_never_loads_numpy(self, tmp_path, argv, patch, rc):
        if patch is not None:
            argv = argv + ["--config", write_config(tmp_path, **patch),
                           "--out", str(tmp_path / "out")]
        proc = subprocess.run([sys.executable, "-c", _LOADED, *argv], env=_env(),
                              capture_output=True, text=True, check=True)
        report = json.loads(proc.stdout.splitlines()[-1])
        assert report == {"rc": rc, "loaded": []}

    def test_tracer_sees_every_layer(self, tmp_path):
        path = write_config(tmp_path)
        result = tmp_path / "result.json"
        proc = subprocess.run(
            [sys.executable, str(BENCH / "tracer.py"), "--result", str(result),
             "--spans", str(tmp_path / "spans.json"),
             "--", "coordcheck", "--config", path, "--out", str(tmp_path / "out")],
            env=_env(), capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        traced = json.loads(result.read_text())
        assert traced["rc"] == 0
        for span in ("cli.load_config", "cli.records_csv", "scaling.build_plan",
                     "harness.run_training", "optim.optimizer_step"):
            assert traced["metrics"].get(f"{span}.calls", 0) > 0, span

    def test_every_traced_name_resolves(self, monkeypatch):
        # the tracer wraps these names; resolving them installs no wrapper
        monkeypatch.syspath_prepend(str(BENCH))
        tracer = importlib.import_module("tracer")
        modules = {m: importlib.import_module(f"mupre.{m}") for m in tracer.LAYERS}
        targets = [*tracer.SPANS.items(),
                   *((name, entry[:2]) for name, entry in tracer.COUNTERS.items())]
        for name, (home, attr) in targets:
            owner, leaf = tracer._resolve(modules, home, attr)
            assert callable(getattr(owner, leaf, None)), f"{name}: {home}.{attr}"
