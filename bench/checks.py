"""Output checks on the artifacts the `mupre` CLI writes.

Every check returns a list of failure messages; an empty list is a pass.
Checks that concern one training cell return them keyed by run_id so the
benchmark can count failed cells. Nothing here imports mupre: the checks
restate the paper's properties from the artifact files alone.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

# gate 4's statement of width transfer, at probe step 10
SLOPE_STEP = 10
MUP_MAX_ABS_SLOPE = 0.15
SP_MIN_MAX_SLOPE = 0.4
# the refit and the program's np.polyfit differ only by rounding
REFIT_TOL = 1e-9
SRANK_SLACK = 1e-6


def read_artifacts(directory: Path, name: str) -> tuple[list[dict], list[dict], dict]:
    """(CSV rows, JSONL run summaries, trailing experiment object)."""
    with open(directory / f"{name}.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    lines = [json.loads(line) for line in (directory / f"{name}.jsonl").read_text().splitlines()]
    return rows, lines[:-1], lines[-1]


def check_cells(rows: list[dict], runs: list[dict], steps: int, param: str) -> dict[str, list[str]]:
    """Every cell trains all its steps; under muP the loss falls from step 1."""
    problems: dict[str, list[str]] = {}
    first: dict[str, float] = {}
    last: dict[str, float] = {}
    for row in rows:
        step = int(row["step"])
        if step == 1:
            first[row["run_id"]] = float(row["loss"])
        if step == steps:
            last[row["run_id"]] = float(row["loss"])
    for run in runs:
        rid = run["run_id"]
        bad = problems.setdefault(rid, [])
        if run["diverged"] or run["steps_completed"] != steps:
            bad.append(f"diverged={run['diverged']} after {run['steps_completed']}/{steps} steps")
            continue
        if param == "mup":
            if rid not in first or rid not in last:
                bad.append("no loss records at step 1 and the last step")
            elif not last[rid] < first[rid]:
                bad.append(f"loss did not fall: step 1 {first[rid]!r}, step {steps} {last[rid]!r}")
    return {rid: msgs for rid, msgs in problems.items() if msgs}


def loglog_slope(xs: list[float], ys: list[float]) -> float:
    """Least-squares slope of log(y) on log(x), in closed form."""
    lx = [math.log(x) for x in xs]
    ly = [math.log(y) for y in ys]
    mx = sum(lx) / len(lx)
    my = sum(ly) / len(ly)
    sxx = sum((a - mx) ** 2 for a in lx)
    sxy = sum((a - mx) * (b - my) for a, b in zip(lx, ly))
    return sxy / sxx


def refit_slopes(rows: list[dict], runs: list[dict], step: int) -> dict[str, float]:
    """Per-layer width slopes of delta_h_rms at one probe step, from the CSV."""
    diverged = {r["run_id"] for r in runs if r["diverged"]}
    points: dict[str, tuple[list[float], list[float]]] = {}
    for row in rows:
        rms = float(row["delta_h_rms"])
        if int(row["step"]) != step or rms <= 0 or row["run_id"] in diverged:
            continue
        xs, ys = points.setdefault(row["layer"], ([], []))
        xs.append(float(row["width"]))
        ys.append(rms)
    return {layer: loglog_slope(xs, ys) for layer, (xs, ys) in points.items() if len(xs) >= 2}


def check_slopes(rows: list[dict], runs: list[dict], experiment: dict, param: str) -> list[str]:
    """The CSV refit matches the JSONL slopes, and they obey the width-transfer bound."""
    refit = refit_slopes(rows, runs, SLOPE_STEP)
    reported = {layer: fit[0] for layer, fit in experiment["slopes"].get(str(SLOPE_STEP), {}).items()}
    problems = []
    if not refit or set(refit) != set(reported):
        return [f"step-{SLOPE_STEP} slopes cover layers {sorted(refit)} in the CSV, "
                f"{sorted(reported)} in the JSONL"]
    for layer, slope in refit.items():
        if abs(slope - reported[layer]) > REFIT_TOL:
            problems.append(f"{layer}: refit slope {slope!r} != reported {reported[layer]!r}")
    if param == "mup":
        worst = max(abs(s) for s in refit.values())
        if worst > MUP_MAX_ABS_SLOPE:
            problems.append(f"muP max |slope| {worst:.4f} > {MUP_MAX_ABS_SLOPE}")
    elif param == "sp":
        top = max(refit.values())
        if top < SP_MIN_MAX_SLOPE:
            problems.append(f"SP max slope {top:.4f} < {SP_MIN_MAX_SLOPE}")
    return problems


def mlp_shape(layer: str, width: int) -> tuple[int, int]:
    """(d_out, d_in) of a layer of the scalar-in, scalar-out testbed MLP."""
    if layer == "fc1":
        return width, 1
    if layer == "readout":
        return 1, width
    return width, width


def check_srank(rows: list[dict], batch_size: int) -> dict[str, list[str]]:
    """A step-t update has stable rank at most min(d_out, d_in, t * batch)."""
    problems: dict[str, list[str]] = {}
    for row in rows:
        d_out, d_in = mlp_shape(row["layer"], int(row["width"]))
        step = int(row["step"])
        bound = min(d_out, d_in, step * batch_size) + SRANK_SLACK
        if not float(row["srank"]) <= bound:
            problems.setdefault(row["run_id"], []).append(
                f"{row['layer']} step {step}: srank {row['srank']} > {bound}")
    return problems


def check_plan(plan_text: str, eta_base: float) -> list[str]:
    """At the base width every multiplier is 1, so every eta is eta_base."""
    plan = json.loads(plan_text)
    if not plan:
        return ["plan.json lists no layers"]
    return [f"{layer}: eta {h['eta']!r} != eta_base {eta_base!r}"
            for layer, h in plan.items() if h["eta"] != eta_base]


def compare_artifacts(expected: Path, actual: Path) -> list[str]:
    """Byte-for-byte equality of the CSV and JSONL files of two output directories."""
    names = sorted(p.name for p in expected.iterdir() if p.suffix in (".csv", ".jsonl"))
    got = sorted(p.name for p in actual.iterdir() if p.suffix in (".csv", ".jsonl"))
    if names != got:
        return [f"artifact sets differ: {names} vs {got}"]
    return [f"{actual / n} differs from {expected / n}"
            for n in names if (expected / n).read_bytes() != (actual / n).read_bytes()]
