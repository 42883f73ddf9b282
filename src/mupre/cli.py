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
import os
import sys
from dataclasses import MISSING, fields
from functools import partial
from pathlib import Path

from .config import FieldError, OptimizerConfig, SweepConfig
from .scaling import ScalingPlan, build_plan, check_pair, plan_to_json


class ConfigError(Exception):
    pass


_MODEL_KEYS = ("arch", "widths", "depths", "n_layers", "activation", "seeds")


def _defaults(cls, where=lambda name: True) -> dict:
    """key -> default of the dataclass fields that where(name) selects;
    MISSING marks a field without a default, which the config must give."""
    return {f.name: f.default for f in fields(cls) if where(f.name)}


# section -> key -> default. Values construct dataclasses whose own
# validation produces the semantic errors; here we gate names and shapes.
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


def _as_tuple(cfg: RunConfig, dotted: str, value) -> tuple:
    if not isinstance(value, (list, tuple)):
        raise cfg.error(dotted, "must be a list")
    return tuple(value)


def build_objects(
    cfg: RunConfig, seed: int | None
) -> tuple[OptimizerConfig, ScalingPlan, SweepConfig]:
    opt_kw = dict(cfg.sections["optimizer"])
    for key in ("block_in", "block_out"):
        if opt_kw[key] is not None and not isinstance(opt_kw[key], int):
            raise cfg.error(f"optimizer.{key}", "must be an integer or null")
    try:
        opt = OptimizerConfig(**opt_kw)
    except (ValueError, TypeError) as exc:
        raise cfg.error("optimizer", str(exc))
    scale_kw = dict(cfg.sections["scaling"])
    scale_kw.pop("overrides")
    try:
        plan = ScalingPlan(**scale_kw)
    except (ValueError, TypeError) as exc:
        raise cfg.error("scaling", str(exc))
    try:
        check_pair(opt, plan)
    except ValueError as exc:
        raise cfg.error("scaling.param", str(exc))
    model = dict(cfg.sections["model"])
    if seed is not None:
        model["seeds"] = (seed,)
    sweep = cfg.sections["sweep"]
    for key in ("widths", "depths"):
        for v in _as_tuple(cfg, f"model.{key}", model[key]):
            if not isinstance(v, int) or isinstance(v, bool) or v < 1:
                raise cfg.error(f"model.{key}", f"entry {v!r} must be a positive integer")
    _as_tuple(cfg, "model.seeds", model["seeds"])
    _as_tuple(cfg, "sweep.lr_grid", sweep["lr_grid"])
    _as_tuple(cfg, "sweep.probe_steps", sweep["probe_steps"])
    try:
        sweep_cfg = SweepConfig(opt=opt, plan=plan, **model, **sweep)
    except FieldError as exc:
        raise _field_error(cfg, exc)
    except (ValueError, TypeError) as exc:
        raise cfg.error("sweep", str(exc))
    return opt, plan, sweep_cfg


def _field_error(cfg: RunConfig, exc: FieldError) -> ConfigError:
    """The config error for a SweepConfig field, at the key that owns it."""
    section = "model" if exc.field in _MODEL_KEYS else "sweep"
    return cfg.error(f"{section}.{exc.field}", str(exc))


def _out_dir(cfg: RunConfig, args) -> Path:
    env = os.environ.get("MUPRE_OUT")
    if env:
        return Path(env)
    if args.out:
        return Path(args.out)
    return Path(cfg.sections["output"]["directory"])


def _formats(cfg: RunConfig, args) -> tuple[str, ...]:
    if args.format:
        return (args.format,)
    formats = _as_tuple(cfg, "output.formats", cfg.sections["output"]["formats"])
    for f in formats:
        if f not in ("csv", "jsonl"):
            raise cfg.error("output.formats", f"unknown format {f!r}")
    return formats


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


def _run_experiment(cfg: RunConfig, args, name: str):
    """(sweep config, result, artifact writer) of the harness experiment
    `name`. Its preconditions (architecture, axis sizes) and the output
    formats are config errors, checked before any cell runs or NumPy loads;
    a run that fails numerically is recorded as diverged by the harness."""
    _, _, sweep_cfg = build_objects(cfg, args.seed)
    try:
        sweep_cfg.require(name)
    except FieldError as exc:
        raise _field_error(cfg, exc)
    write = partial(_dump_artifacts, out_dir=_out_dir(cfg, args), formats=_formats(cfg, args))
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


def _slope_checks(result, checks, probe_steps) -> bool:
    ok = True
    step = checks["probe_step"] if checks["probe_step"] is not None else probe_steps[0]
    if step not in result.slopes:
        if checks["max_abs_slope"] is not None or checks["min_max_slope"] is not None:
            print(f"CHECK slopes: FAIL (no records at probe step {step})")
            return False
        return True
    layer_slopes = result.slopes[step]
    peak = max(abs(s) for s, _ in layer_slopes.values())
    top = max(s for s, _ in layer_slopes.values())
    if checks["max_abs_slope"] is not None:
        ok &= _check(f"max_abs_slope@{step}", peak, checks["max_abs_slope"])
    if checks["min_max_slope"] is not None:
        ok &= _check(f"min_max_slope@{step}", top, checks["min_max_slope"], upper=False)
    return ok


def _slopes_json(result) -> dict:
    return {
        str(step): {layer: list(fit) for layer, fit in layers.items()}
        for step, layers in result.slopes.items()
    }


def cmd_plan(cfg: RunConfig, args) -> int:
    opt, plan, sweep_cfg = build_objects(cfg, args.seed)
    manifest = sweep_cfg.manifest(sweep_cfg.widths[0], sweep_cfg.depths[0])
    overrides = cfg.sections["scaling"]["overrides"]
    try:
        table = build_plan(manifest, opt, plan, overrides or None)
    except (ValueError, TypeError) as exc:
        raise cfg.error("scaling.overrides", str(exc))
    text = plan_to_json(table)
    print(text)
    out_dir = _out_dir(cfg, args)
    write_atomic(out_dir / "plan.json", text + "\n")
    return 0


def _cmd_slope_experiment(cfg: RunConfig, args, fn: str, name: str) -> int:
    sweep_cfg, result, write = _run_experiment(cfg, args, fn)
    extra = {"slopes": _slopes_json(result), "excluded": result.excluded}
    write(name, result.runs, extra)
    if result.excluded:
        print(f"excluded diverged runs: {', '.join(result.excluded)}")
    ok = _slope_checks(result, cfg.sections["checks"], sweep_cfg.probe_steps)
    return 0 if ok else 1


def cmd_coordcheck(cfg: RunConfig, args) -> int:
    return _cmd_slope_experiment(cfg, args, "coord_check", "coordcheck")


def cmd_depthcheck(cfg: RunConfig, args) -> int:
    return _cmd_slope_experiment(cfg, args, "depth_check", "depthcheck")


def cmd_lrsweep(cfg: RunConfig, args) -> int:
    _, result, write = _run_experiment(cfg, args, "lr_sweep")
    extra = {
        "losses": {str(w): {repr(e): v for e, v in row.items()}
                   for w, row in result.losses.items()},
        "argmin": {str(w): e for w, e in result.argmin.items()},
        "drift_octaves": result.drift_octaves,
    }
    write("lrsweep", result.runs, extra,
          per_run=lambda run: {"argmin_eta": result.argmin[run.width]})
    print(f"argmin per width: {result.argmin}")
    if result.drift_octaves is None:
        diverged = [w for w, eta in result.argmin.items() if eta is None]
        print(f"optimum drift: undefined (every eta diverged at widths {diverged})")
    else:
        print(f"optimum drift: {result.drift_octaves:+.3f} octaves")
    checks = cfg.sections["checks"]
    ok = True
    if checks["max_drift_octaves"] is not None:
        if result.drift_octaves is None:
            print("CHECK max_drift_octaves: FAIL (drift undefined)")
            ok = False
        else:
            ok = _check("max_drift_octaves", abs(result.drift_octaves),
                        checks["max_drift_octaves"])
    return 0 if ok else 1


def cmd_rankscan(cfg: RunConfig, args) -> int:
    _, result, write = _run_experiment(cfg, args, "rank_scan")
    extra = {
        "summary": {
            str(w): {layer: list(pair) for layer, pair in layers.items()}
            for w, layers in result.summary.items()
        }
    }
    write("rankscan", result.runs, extra)
    checks = cfg.sections["checks"]
    ok = True
    if checks["max_srank_spread"] is not None and result.summary:
        layers = result.runs[0].layer_names
        spread = 0.0
        for layer in layers:
            finals = [
                result.summary[w][layer][1]
                for w in result.summary
                if layer in result.summary[w] and result.summary[w][layer][1] > 0
            ]
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
            points.append((float(parts[0]), float(parts[1])))
        except ValueError:
            raise ConfigError(f"{path}:{i}: non-numeric entry")
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
    if args.out or os.environ.get("MUPRE_OUT"):
        out_dir = Path(os.environ.get("MUPRE_OUT") or args.out)
        write_atomic(out_dir / "multiplier.csv", "\n".join(rows) + "\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mupre",
        description="Matrix-preconditioned optimizers with width/depth scaling checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help_text: str, needs_config: bool = True):
        p = sub.add_parser(name, help=help_text)
        if needs_config:
            p.add_argument("--config", required=True, help="JSON run config")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--seed", type=int, default=None,
                       help="override every configured seed")
        p.add_argument("--jobs", type=int, default=1,
                       help="parallel grid cells (default 1, deterministic)")
        p.add_argument("--format", choices=("csv", "jsonl"), default=None,
                       help="restrict artifacts to one format")
        return p

    add("plan", "emit the per-layer hyperparameter table")
    add("coordcheck", "feature-update growth across width")
    add("lrsweep", "final loss across the width x lr grid")
    add("rankscan", "stable rank and spectral norm trajectories")
    add("depthcheck", "feature-update growth across depth")
    add("oracle", "closed-form oracle agreement report")
    mult = add("multiplier", "compute-multiplier estimation", needs_config=False)
    mult.add_argument("baseline", help="baseline CSV (compute,loss)")
    mult.add_argument("candidate", help="candidate CSV (compute,loss)")
    return parser


_COMMANDS = {
    "plan": cmd_plan,
    "coordcheck": cmd_coordcheck,
    "lrsweep": cmd_lrsweep,
    "rankscan": cmd_rankscan,
    "depthcheck": cmd_depthcheck,
    "oracle": cmd_oracle,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "multiplier":
            return cmd_multiplier(args)
        if args.jobs < 1:
            raise ConfigError("--jobs must be >= 1")
        cfg = load_config(args.config)
        if cfg.sections["scaling"]["overrides"] and args.command != "plan":
            raise cfg.error(
                "scaling.overrides",
                f"only `mupre plan` applies overrides; `mupre {args.command}` "
                "trains with the plan the scaling rules derive",
            )
        return _COMMANDS[args.command](cfg, args)
    except ConfigError as exc:
        print(str(exc), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
