"""Command-line entry point.

Parses a JSON run config, dispatches the harness experiments, and writes
plan files and metric artifacts to --out, or to the working directory
without it. Exit codes: 0 success, 1 a check failed its threshold (a
`checks` bound the config sets, or one of the oracle's own), 2 usage or
config error.

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
    "scaling": _defaults(ScalingPlan),
    "sweep": _defaults(SweepConfig, lambda name: name not in ("opt", "plan", *_MODEL_KEYS)),
    "checks": {"max_abs_slope": None, "max_drift_octaves": None, "oracle_tol": 1e-8},
}

# oracle's bound on Muon's largest relative gap to the exact msign (harness.muon_svd_error)
MUON_SVD_TOL = 0.05

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
    def __init__(self, sections: dict, path: str, text: str, given: set[str]):
        self.sections = sections
        self.path = path
        self.text = text
        self.given = given  # the "section.key" names the file sets

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
    return RunConfig(sections, path, text, {f"{name}.{key}" for name in raw for key in raw[name]})


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
    plan = _build(cfg, "scaling", ScalingPlan, **cfg.sections["scaling"])
    _build(cfg, "scaling", check_pair, opt=opt, plan=plan)
    model = dict(cfg.sections["model"])
    if seed is not None:
        model["seeds"] = (seed,)
    sweep = cfg.sections["sweep"]
    sweep_cfg = _build(cfg, "sweep", SweepConfig, opt=opt, plan=plan, **model, **sweep)
    if sweep_cfg.arch == "resmlp" and "model.n_layers" in cfg.given:
        raise cfg.error("model.n_layers", "a resmlp reads no n_layers; depths sets its blocks")
    return opt, plan, sweep_cfg


def _field_error(cfg: RunConfig, exc: FieldError, section: str = "sweep") -> ConfigError:
    """The config error for a dataclass field, at the key that owns it; the
    model keys of a SweepConfig live in their own section."""
    if section == "sweep" and exc.field in _MODEL_KEYS:
        section = "model"
    return cfg.error(f"{section}.{exc.field}", str(exc))


def _out_dir(args) -> Path:
    """--out, or the working directory without it."""
    return Path(args.out or ".")


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


def _dump_artifacts(name, runs, extra, per_run=lambda run: {}, *, out_dir) -> None:
    """Write <name>.csv and <name>.jsonl; per_run adds fields to each run's summary."""
    harness = _harness()
    records = [rec for run in runs for rec in run.records]
    write_atomic(out_dir / f"{name}.csv", harness.records_csv(records))
    lines = [json.dumps({**harness.run_summary(r), **per_run(r)}, sort_keys=True) for r in runs]
    lines.append(json.dumps({"experiment": name, **extra}, sort_keys=True))
    write_atomic(out_dir / f"{name}.jsonl", "\n".join(lines) + "\n")


def _cell_plan(cfg: RunConfig, sweep_cfg: SweepConfig, width: int, depth: int, eta: float):
    """The plan of one grid cell. A value the scaling rules cannot represent
    there, such as an lr that overflows float64, is a config error that
    names the cell."""
    plan = replace(sweep_cfg.plan, eta_base=eta)
    try:
        return build_plan(sweep_cfg.manifest(width, depth), sweep_cfg.opt, plan)
    except ValueError as exc:
        raise cfg.error(
            "scaling", f"plan at width {width}, depth {depth}, eta_base {eta!r}: {exc}"
        )


def _run_experiment(cfg: RunConfig, args):
    """(sweep config, result, artifact writer) of the experiment command
    args.command, whose harness function and artifacts share its name; the
    writer writes both <name>.csv and <name>.jsonl. Its preconditions
    (config.EXPERIMENTS), an lr_grid that a command training at
    scaling.eta_base would not read, and the plan of every cell are config
    errors, and so is a probe_steps given to a command that records every
    step; all are checked before any cell runs or NumPy loads. A run that
    fails numerically is recorded as diverged by the harness."""
    name = args.command
    _, _, sweep_cfg = build_objects(cfg, args.seed)
    _build(cfg, "sweep", sweep_cfg.require, name=name)
    if "sweep.lr_grid" in cfg.given and "lr_grid" not in EXPERIMENTS[name].sweeps:
        raise cfg.error("sweep.lr_grid", f"{name} reads no lr_grid; it trains at scaling.eta_base")
    if "sweep.probe_steps" in cfg.given and EXPERIMENTS[name].every_step:
        raise cfg.error("sweep.probe_steps", f"{name} reads no probe_steps; it records every step")
    for width, depth, eta in dict.fromkeys(cell[:3] for cell in sweep_cfg.cells(name)):
        _cell_plan(cfg, sweep_cfg, width, depth, eta)
    write = partial(_dump_artifacts, name, out_dir=_out_dir(args))
    fn = getattr(_harness(), name)
    if args.jobs > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            return sweep_cfg, fn(sweep_cfg, mapper=pool.map), write
    return sweep_cfg, fn(sweep_cfg), write


def _check(name: str, value: float, bound: float) -> bool:
    ok = value <= bound
    print(f"CHECK {name}: {'PASS' if ok else 'FAIL'} ({value:.6g} <= {bound:.6g})")
    return ok


def cmd_plan(cfg: RunConfig, args) -> int:
    """The plan of widths[0] and depths[0] at scaling.eta_base."""
    _, plan, sweep_cfg = build_objects(cfg, None)
    table = _cell_plan(cfg, sweep_cfg, sweep_cfg.widths[0], sweep_cfg.depths[0], plan.eta_base)
    text = plan_to_json(table)
    print(text)
    write_atomic(_out_dir(args) / "plan.json", text + "\n")
    return 0


def cmd_slopes(cfg: RunConfig, args) -> int:
    """coordcheck and depthcheck: log-log slopes along the command's fit
    axis; checks.max_abs_slope bounds them at the first probe step."""
    sweep_cfg, result, write = _run_experiment(cfg, args)
    slopes = {str(step): {layer: list(fit) for layer, fit in layers.items()}
              for step, layers in result.slopes.items()}
    write(result.runs, {"slopes": slopes, "excluded": result.excluded})
    if result.excluded:
        print(f"excluded diverged runs: {', '.join(result.excluded)}")
    bound = cfg.sections["checks"]["max_abs_slope"]
    if bound is None:
        return 0
    step = sweep_cfg.probe_steps[0]
    if step not in result.slopes:
        print(f"CHECK slopes: FAIL (no records at probe step {step})")
        return 1
    peak = max(abs(s) for s, _ in result.slopes[step].values())
    return 0 if _check(f"max_abs_slope@{step}", peak, bound) else 1


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
    return 0


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
    if len(sweep_cfg.seeds) > 1:
        raise cfg.error("model.seeds", "seeds must hold one value, since oracle does not "
                                       f"sweep it, got {list(sweep_cfg.seeds)}")
    seed = sweep_cfg.seeds[0]
    harness = _harness()
    tol = cfg.sections["checks"]["oracle_tol"]
    ok = True
    battery = dict(_ORACLE_BATTERY)
    battery["configured"] = sweep_cfg.opt
    for name, opt in battery.items():
        err = harness.oracle_agreement(opt, n_draws=100, seed=seed)
        print(f"oracle {name}: max relative error {err:.3e}")
        ok &= _check(f"oracle_tol[{name}]", err, tol)
    svd_err = harness.muon_svd_error(OptimizerConfig("muon"), n_draws=100, seed=seed)
    print(f"oracle muon vs svd reference: {svd_err:.3e}")
    ok &= _check("muon_svd_tol", svd_err, MUON_SVD_TOL)
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
    if args.out:
        write_atomic(Path(args.out) / "multiplier.csv", "\n".join(rows) + "\n")
    return 0


# flag -> its argparse options
_FLAGS = {
    "--config": dict(required=True, help="JSON run config"),
    "--out": dict(default=None, help="output directory"),
    "--seed": dict(type=int, default=None, help="override every configured seed"),
    "--jobs": dict(type=int, default=1, help="parallel grid cells (default 1, deterministic)"),
    "baseline": dict(help="baseline CSV (compute,loss)"),
    "candidate": dict(help="candidate CSV (compute,loss)"),
}

_EXPERIMENT_FLAGS = ("--config", "--out", "--seed", "--jobs")

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
        return handler(load_config(args.config), args)
    except ConfigError as exc:
        print(str(exc), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
