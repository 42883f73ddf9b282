"""Command-line entry point.

Parses a JSON run config, dispatches the harness experiments, and writes
plan files and metric artifacts. Exit codes: 0 success, 1 a configured
check failed its threshold, 2 usage or config error.

At import this module loads only the NumPy-free config layer (`config`,
`scaling`), so `mupre plan`, `--help` and config errors never load NumPy;
the experiment commands import `harness` when they run.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import MISSING, fields, replace
from functools import partial
from pathlib import Path

from .config import AXES, EXPERIMENTS, FieldError, OptimizerConfig, SweepConfig
from .scaling import ScalingPlan, build_plan, check_pair, plan_to_json


class ConfigError(Exception):
    pass


_MODEL_KEYS = ("arch", "widths", "depths", "n_layers", "activation", "seeds")


def _defaults(cls, where=lambda name: True) -> dict:
    """key -> default of the dataclass fields that where(name) selects;
    MISSING marks a field without a default, which the config must give."""
    return {f.name: f.default for f in fields(cls) if where(f.name)}


# section -> key -> default. Values construct dataclasses whose own
# validation checks them; here we gate the names.
_SCHEMA = {
    "model": _defaults(SweepConfig, lambda name: name in _MODEL_KEYS),
    "optimizer": _defaults(OptimizerConfig),
    "scaling": {**_defaults(ScalingPlan), "overrides": {}},
    "sweep": _defaults(SweepConfig, lambda name: name not in ("opt", "plan", *_MODEL_KEYS)),
    "output": {
        "directory": ".",
        "formats": ["csv", "jsonl"],
    },
    "checks": {
        "probe_step": None,
        "max_abs_slope": None,
        "min_max_slope": None,
        "max_drift_octaves": None,
        "max_srank_spread": None,
        "oracle_tol": 1e-8,
        "muon_svd_tol": 0.05,
    },
}

_REQUIRED_SECTIONS = ("model", "optimizer", "scaling")


def _key_line(text: str, dotted: str) -> str:
    """Best-effort line locator: walk the quoted keys of a dotted path."""
    pos = 0
    for part in dotted.split("."):
        part = part.split("[")[0]
        found = text.find(f'"{part}"', pos)
        if found < 0:
            return ""
        pos = found
    return f":{text.count(chr(10), 0, pos) + 1}"


class RunConfig:
    def __init__(self, sections: dict, path: str, text: str):
        self.sections = sections
        self.path = path
        self.text = text

    def error(self, dotted: str, message: str) -> ConfigError:
        return ConfigError(f"{self.path}{_key_line(self.text, dotted)}: {dotted}: {message}")


def load_config(path: str) -> RunConfig:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"{path}: cannot read config: {exc.strerror or exc}")
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}:{exc.lineno}: invalid JSON: {exc.msg}")
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: top level must be a JSON object")
    unknown = set(raw) - set(_SCHEMA)
    if unknown:
        raise ConfigError(
            f"{path}{_key_line(text, sorted(unknown)[0])}: unknown section(s) "
            f"{sorted(unknown)}; expected from {sorted(_SCHEMA)}"
        )
    missing = [s for s in _REQUIRED_SECTIONS if s not in raw]
    if missing:
        raise ConfigError(f"{path}: missing required section(s) {missing}")
    sections: dict = {}
    for name, schema in _SCHEMA.items():
        given = raw.get(name, {})
        if not isinstance(given, dict):
            raise ConfigError(
                f"{path}{_key_line(text, name)}: {name}: must be a JSON object"
            )
        bad = set(given) - set(schema)
        if bad:
            first = sorted(bad)[0]
            raise ConfigError(
                f"{path}{_key_line(text, f'{name}.{first}')}: {name}.{first}: "
                f"unknown key; expected from {sorted(schema)}"
            )
        merged = {}
        for key, default in schema.items():
            if key in given:
                merged[key] = given[key]
            elif default is MISSING:
                raise ConfigError(f"{path}: {name}.{key}: required key is missing")
            else:
                merged[key] = default
        sections[name] = merged
    return RunConfig(sections, path, text)


def _build(cfg: RunConfig, section: str, make, **kwargs):
    """make(**kwargs), its FieldError as the config error of that field's key
    in section."""
    try:
        return make(**kwargs)
    except FieldError as exc:
        raise _field_error(cfg, exc, section)


def build_objects(
    cfg: RunConfig, seed: int | None
) -> tuple[OptimizerConfig, ScalingPlan, SweepConfig]:
    opt = _build(cfg, "optimizer", OptimizerConfig, **cfg.sections["optimizer"])
    scale_kw = dict(cfg.sections["scaling"])
    scale_kw.pop("overrides")
    plan = _build(cfg, "scaling", ScalingPlan, **scale_kw)
    _build(cfg, "scaling", check_pair, opt=opt, plan=plan)
    model = dict(cfg.sections["model"])
    if seed is not None:
        model["seeds"] = (seed,)
    sweep = cfg.sections["sweep"]
    sweep_cfg = _build(cfg, "sweep", SweepConfig, opt=opt, plan=plan, **model, **sweep)
    return opt, plan, sweep_cfg


def _field_error(cfg: RunConfig, exc: FieldError, section: str = "sweep") -> ConfigError:
    """The config error for a dataclass field, at the key that owns it; the
    model keys of a SweepConfig live in their own section."""
    if section == "sweep" and exc.field in _MODEL_KEYS:
        section = "model"
    return cfg.error(f"{section}.{exc.field}", str(exc))


def _checked_overrides(cfg: RunConfig) -> dict:
    """scaling.overrides, which must map layer names to objects of field ->
    value; LayerHyper checks the values when the plan is built."""
    overrides = cfg.sections["scaling"]["overrides"]
    if not isinstance(overrides, dict):
        raise cfg.error(
            "scaling.overrides",
            f"must be an object of layer name -> {{field: number}}, got {overrides!r}",
        )
    for layer, row in overrides.items():
        if not isinstance(row, dict):
            raise cfg.error(
                "scaling.overrides",
                f"row {layer!r} must be an object of field -> number, got {row!r}",
            )
    return overrides


def _out_dir(args, cfg: RunConfig | None = None) -> Path | None:
    """MUPRE_OUT, then --out, then the config's output.directory; None
    without a config when neither is set."""
    env = os.environ.get("MUPRE_OUT")
    if env:
        return Path(env)
    if args.out:
        return Path(args.out)
    return None if cfg is None else Path(cfg.sections["output"]["directory"])


def _formats(cfg: RunConfig, args) -> tuple[str, ...]:
    if args.format:
        return (args.format,)
    formats = cfg.sections["output"]["formats"]
    if not isinstance(formats, list):
        raise cfg.error("output.formats", "must be a list")
    for f in formats:
        if f not in ("csv", "jsonl"):
            raise cfg.error("output.formats", f"unknown format {f!r}")
    return tuple(formats)


def write_atomic(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text)
    os.replace(tmp, path)


def _harness():
    """mupre.harness, imported on first use: it loads NumPy and the numeric
    layers, which `mupre plan` and config validation never need."""
    from . import harness

    return harness


def _dump_artifacts(name, runs, extra, per_run=lambda run: {}, *, out_dir, formats) -> None:
    """Write <name>.csv and <name>.jsonl; per_run adds fields to each run's summary."""
    harness = _harness()
    if "csv" in formats:
        records = [rec for run in runs for rec in run.records]
        write_atomic(out_dir / f"{name}.csv", harness.records_csv(records))
    if "jsonl" in formats:
        lines = [
            json.dumps({**harness.run_summary(r), **per_run(r)}, sort_keys=True) for r in runs
        ]
        lines.append(json.dumps({"experiment": name, **extra}, sort_keys=True))
        write_atomic(out_dir / f"{name}.jsonl", "\n".join(lines) + "\n")


def _cell_plan(cfg: RunConfig, sweep_cfg: SweepConfig, width: int, depth: int, eta: float,
               overrides: dict | None = None):
    """The plan of one grid cell. A value the scaling rules cannot represent
    there, such as an lr that overflows float64, is a config error that
    names the cell; an error that only the overrides cause names them."""
    plan = replace(sweep_cfg.plan, eta_base=eta)
    try:
        return build_plan(sweep_cfg.manifest(width, depth), sweep_cfg.opt, plan, overrides)
    except (ValueError, TypeError) as exc:
        if overrides:
            _cell_plan(cfg, sweep_cfg, width, depth, eta)
            raise cfg.error("scaling.overrides", str(exc))
        raise cfg.error(
            "scaling", f"plan at width {width}, depth {depth}, eta_base {eta!r}: {exc}"
        )


def _run_experiment(cfg: RunConfig, args):
    """(sweep config, result, artifact writer) of the experiment command
    args.command, whose harness function and artifacts share its name. Its
    preconditions (config.EXPERIMENTS), the plan of every cell and the output
    formats are config errors, checked before any cell runs or NumPy loads; a
    run that fails numerically is recorded as diverged by the harness."""
    name = args.command
    _, _, sweep_cfg = build_objects(cfg, args.seed)
    _build(cfg, "sweep", sweep_cfg.require, name=name)
    for width, depth, eta in dict.fromkeys(cell[:3] for cell in sweep_cfg.cells(name)):
        _cell_plan(cfg, sweep_cfg, width, depth, eta)
    write = partial(_dump_artifacts, name, out_dir=_out_dir(args, cfg), formats=_formats(cfg, args))
    fn = getattr(_harness(), name)
    if args.jobs > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            return sweep_cfg, fn(sweep_cfg, mapper=pool.map), write
    return sweep_cfg, fn(sweep_cfg), write


def _check(name: str, value: float, bound: float, *, upper: bool = True) -> bool:
    rel = "<=" if upper else ">="
    ok = value <= bound if upper else value >= bound
    print(f"CHECK {name}: {'PASS' if ok else 'FAIL'} ({value:.6g} {rel} {bound:.6g})")
    return ok


def cmd_plan(cfg: RunConfig, args) -> int:
    opt, plan, sweep_cfg = build_objects(cfg, None)
    overrides = cfg.sections["scaling"]["overrides"]
    table = _cell_plan(cfg, sweep_cfg, sweep_cfg.widths[0], sweep_cfg.depths[0],
                       plan.eta_base, overrides or None)
    text = plan_to_json(table)
    print(text)
    write_atomic(_out_dir(args, cfg) / "plan.json", text + "\n")
    return 0


def cmd_slopes(cfg: RunConfig, args) -> int:
    """coordcheck and depthcheck: log-log slopes along the command's fit axis."""
    sweep_cfg, result, write = _run_experiment(cfg, args)
    slopes = {str(step): {layer: list(fit) for layer, fit in layers.items()}
              for step, layers in result.slopes.items()}
    write(result.runs, {"slopes": slopes, "excluded": result.excluded})
    if result.excluded:
        print(f"excluded diverged runs: {', '.join(result.excluded)}")
    checks = cfg.sections["checks"]
    step = checks["probe_step"] if checks["probe_step"] is not None else sweep_cfg.probe_steps[0]
    if step not in result.slopes:
        if checks["max_abs_slope"] is not None or checks["min_max_slope"] is not None:
            print(f"CHECK slopes: FAIL (no records at probe step {step})")
            return 1
        return 0
    layer_slopes = result.slopes[step]
    peak = max(abs(s) for s, _ in layer_slopes.values())
    top = max(s for s, _ in layer_slopes.values())
    ok = True
    if checks["max_abs_slope"] is not None:
        ok &= _check(f"max_abs_slope@{step}", peak, checks["max_abs_slope"])
    if checks["min_max_slope"] is not None:
        ok &= _check(f"min_max_slope@{step}", top, checks["min_max_slope"], upper=False)
    return 0 if ok else 1


def cmd_lrsweep(cfg: RunConfig, args) -> int:
    _, result, write = _run_experiment(cfg, args)
    extra = {
        "losses": {str(w): {repr(e): v for e, v in row.items()}
                   for w, row in result.losses.items()},
        "argmin": {str(w): e for w, e in result.argmin.items()},
        "drift_octaves": result.drift_octaves,
    }
    key = AXES[EXPERIMENTS[args.command].fit]
    write(result.runs, extra, per_run=lambda run: {"argmin_eta": result.argmin[getattr(run, key)]})
    print(f"argmin per width: {result.argmin}")
    if result.drift_octaves is None:
        diverged = [w for w, eta in result.argmin.items() if eta is None]
        print(f"optimum drift: undefined (every eta diverged at widths {diverged})")
    else:
        print(f"optimum drift: {result.drift_octaves:+.3f} octaves")
    bound = cfg.sections["checks"]["max_drift_octaves"]
    if bound is None:
        return 0
    if result.drift_octaves is None:
        print("CHECK max_drift_octaves: FAIL (drift undefined)")
        return 1
    return 0 if _check("max_drift_octaves", abs(result.drift_octaves), bound) else 1


def cmd_rankscan(cfg: RunConfig, args) -> int:
    _, result, write = _run_experiment(cfg, args)
    summary = {str(w): {layer: list(pair) for layer, pair in layers.items()}
               for w, layers in result.summary.items()}
    write(result.runs, {"summary": summary})
    checks = cfg.sections["checks"]
    ok = True
    if checks["max_srank_spread"] is not None and result.summary:
        spread = 0.0
        for layer in result.runs[0].layer_names:
            finals = [row[layer][1] for row in result.summary.values()
                      if layer in row and row[layer][1] > 0]
            if len(finals) >= 2:
                spread = max(spread, max(finals) / min(finals))
        ok = _check("max_srank_spread", spread, checks["max_srank_spread"])
    return 0 if ok else 1


_ORACLE_BATTERY = {
    "sgd": OptimizerConfig("sgd"),
    "adam": OptimizerConfig("adam"),
    "shampoo_quarter": OptimizerConfig("shampoo", e_l=0.25, e_r=0.25, eps_mode="absolute"),
    "shampoo_half_relative": OptimizerConfig("shampoo", e_l=0.5, e_r=0.5),
    "shampoo_blocked": OptimizerConfig(
        "shampoo", e_l=0.5, e_r=0.5, eps_mode="absolute", block_in=4, block_out=5
    ),
    "soap_two_sided": OptimizerConfig("soap", e_l=1.0, e_r=1.0),
    "soap_left": OptimizerConfig("soap", e_l=1.0, e_r=0.0),
    "soap_right": OptimizerConfig("soap", e_l=0.0, e_r=1.0),
    "soap_neither": OptimizerConfig("soap", e_l=0.0, e_r=0.0),
    "muon": OptimizerConfig("muon"),
    "adamuon": OptimizerConfig("adamuon"),
    "adam_graft_on_shampoo": OptimizerConfig(
        "shampoo", e_l=0.5, e_r=0.5, graft_rule="adam", graft_eps=1e-10
    ),
}


def cmd_oracle(cfg: RunConfig, args) -> int:
    _, plan, sweep_cfg = build_objects(cfg, args.seed)
    harness = _harness()
    seed = args.seed if args.seed is not None else sweep_cfg.seeds[0]
    checks = cfg.sections["checks"]
    tol = checks["oracle_tol"]
    ok = True
    battery = dict(_ORACLE_BATTERY)
    battery["configured"] = sweep_cfg.opt
    for name, opt in battery.items():
        err = harness.oracle_agreement(opt, n_draws=100, seed=seed)
        print(f"oracle {name}: max relative error {err:.3e}")
        ok &= _check(f"oracle_tol[{name}]", err, tol)
    svd_err = harness.muon_svd_error(OptimizerConfig("muon"), n_draws=100, seed=seed)
    print(f"oracle muon vs svd reference: {svd_err:.3e}")
    ok &= _check("muon_svd_tol", svd_err, checks["muon_svd_tol"])
    if plan.param == "mup":
        check = harness.mup_exponent_check(
            sweep_cfg.opt, plan, widths=(64, 128, 256, 512, 1024), seed=seed
        )
        print(
            f"mup exponent: measured {check.measured_slope:+.4f}, "
            f"lr-multiplier {check.multiplier_slope:+.4f}"
        )
        ok &= _check(
            "mup_exponent_gap",
            abs(check.measured_slope + check.multiplier_slope),
            0.1,
        )
    else:
        print(f"mup exponent check skipped (param {plan.param!r})")
    return 0 if ok else 1


def _read_loss_csv(path: str) -> list[tuple[float, float]]:
    try:
        lines = Path(path).read_text().strip().splitlines()
    except OSError as exc:
        raise ConfigError(f"{path}: cannot read: {exc.strerror or exc}")
    if not lines or lines[0].strip() != "compute,loss":
        raise ConfigError(f"{path}: expected header 'compute,loss'")
    points = []
    for i, line in enumerate(lines[1:], start=2):
        parts = line.split(",")
        if len(parts) != 2:
            raise ConfigError(f"{path}:{i}: expected 'compute,loss' pair")
        try:
            point = (float(parts[0]), float(parts[1]))
        except ValueError:
            raise ConfigError(f"{path}:{i}: non-numeric entry")
        if not all(map(math.isfinite, point)):
            raise ConfigError(f"{path}:{i}: non-finite entry")
        points.append(point)
    return points


def cmd_multiplier(args) -> int:
    baseline = _read_loss_csv(args.baseline)
    candidates = _read_loss_csv(args.candidate)
    compute_multiplier = _harness().compute_multiplier
    try:
        estimates = [compute_multiplier(baseline, cand) for cand in candidates]
    except ValueError as exc:
        raise ConfigError(f"{args.baseline}: {exc}")
    rows = ["compute,loss,multiplier,flagged,extrapolated"]
    print(f"{'compute':>12} {'loss':>10} {'multiplier':>11} flags")
    for (c, l), est in zip(candidates, estimates):
        flags = ",".join(
            name for name, on in (("envelope", est.flagged), ("extrapolated", est.extrapolated)) if on
        )
        print(f"{c:>12.4g} {l:>10.4g} {est.value:>11.4f} {flags or '-'}")
        rows.append(f"{c!r},{l!r},{est.value!r},{est.flagged},{est.extrapolated}")
    out_dir = _out_dir(args)
    if out_dir is not None:
        write_atomic(out_dir / "multiplier.csv", "\n".join(rows) + "\n")
    return 0


# flag -> its argparse options
_FLAGS = {
    "--config": dict(required=True, help="JSON run config"),
    "--out": dict(default=None, help="output directory"),
    "--seed": dict(type=int, default=None, help="override every configured seed"),
    "--jobs": dict(type=int, default=1, help="parallel grid cells (default 1, deterministic)"),
    "--format": dict(choices=("csv", "jsonl"), default=None,
                     help="restrict artifacts to one format"),
    "baseline": dict(help="baseline CSV (compute,loss)"),
    "candidate": dict(help="candidate CSV (compute,loss)"),
}

_EXPERIMENT_FLAGS = ("--config", "--out", "--seed", "--jobs", "--format")

# subcommand -> (handler, help text, the flags it reads); a handler of a
# command with --config takes the loaded config and the parsed arguments,
# any other takes the arguments alone
_COMMANDS = {
    "plan": (cmd_plan, "emit the per-layer hyperparameter table", ("--config", "--out")),
    "coordcheck": (cmd_slopes, "feature-update growth across width", _EXPERIMENT_FLAGS),
    "lrsweep": (cmd_lrsweep, "final loss across the width x lr grid", _EXPERIMENT_FLAGS),
    "rankscan": (cmd_rankscan, "stable rank and spectral norm trajectories", _EXPERIMENT_FLAGS),
    "depthcheck": (cmd_slopes, "feature-update growth across depth", _EXPERIMENT_FLAGS),
    "oracle": (cmd_oracle, "closed-form oracle agreement report", ("--config", "--seed")),
    "multiplier": (cmd_multiplier, "compute-multiplier estimation",
                   ("baseline", "candidate", "--out")),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mupre",
        description="Matrix-preconditioned optimizers with width/depth scaling checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, flags) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for flag in flags:
            p.add_argument(flag, **_FLAGS[flag])
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    handler, _, flags = _COMMANDS[args.command]
    try:
        if "--config" not in flags:
            return handler(args)
        if "--jobs" in flags and args.jobs < 1:
            raise ConfigError("--jobs must be >= 1")
        cfg = load_config(args.config)
        if _checked_overrides(cfg) and args.command != "plan":
            raise cfg.error(
                "scaling.overrides",
                f"only `mupre plan` applies overrides; `mupre {args.command}` "
                "trains with the plan the scaling rules derive",
            )
        return handler(cfg, args)
    except ConfigError as exc:
        print(str(exc), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
