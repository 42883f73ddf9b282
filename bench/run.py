"""Benchmark of the `mupre` CLI on three fixed experiment workloads.

    python3 bench/run.py --workload width-shampoo --seed 1 --seconds 20 --trace 0

Runs from the root of a source checkout and imports mupre from its `src/`.
Each `mupre` command runs in a fresh single-threaded process (BLAS and OpenMP
pinned to one thread, `--jobs` at its default of 1), one at a time.

  set-up     `mupre plan` on the workload's configs, SETUP_REPS times
  rounds     the workload's experiment commands, repeated as whole rounds
             until --seconds have passed (at least one round)
  --trace 1  after the rounds, two traced passes through bench/tracer.py;
             the first also recomputes sampled optimizer steps by the
             reference route in bench/reference.py

Every round's artifacts are checked (bench/checks.py) and compared byte for
byte with the first round's. The last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics"}; operations are training cells
(one width of one experiment command), and a cell counts as failed when it
diverges or any check covering it fails.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import checks

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_REPS = 5
COUNT_METRICS = ("linalg.sym_eig.n3", "linalg.newton_schulz.flop",
                 "optim.block_tiles", "cli.artifact_bytes")


@dataclass(frozen=True)
class Workload:
    command: str
    params: tuple[str, ...]


# Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    "width-shampoo": Workload("coordcheck", ("mup", "sp")),
    "width-blocked": Workload("coordcheck", ("mup", "sp")),
    "rankscan-muon": Workload("rankscan", ("mup",)),
}


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k != "MUPRE_OUT"}
    env.update(THREAD_ENV, PYTHONPATH=str(ROOT / "src"))
    return env


def spawn(args: list[str], log: Path, env: dict[str, str]) -> tuple[float, float, int]:
    """Run `python3 *args` to completion: (wall s, peak RSS MB, exit code)."""
    with open(log, "w") as fh:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *args], stdout=fh,
                                stderr=subprocess.STDOUT, env=env, cwd=ROOT)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024.0, proc.returncode


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def add(self, cells: int, failed: int, problems: list[str], where: str) -> None:
        self.attempted += cells
        self.failed += failed
        self.problems += [f"{where}: {p}" for p in problems]


def check_command(command: str, param: str, cfg: dict, out: Path) -> tuple[int, list[str]]:
    """(failed cells, messages) for one experiment command's artifacts."""
    widths = cfg["model"]["widths"]
    sweep = cfg["sweep"]
    try:
        rows, runs, experiment = checks.read_artifacts(out, command)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return len(widths), [f"unreadable artifacts: {exc}"]
    cells = checks.check_cells(rows, runs, sweep["steps"], param)
    if command == "rankscan":
        for rid, msgs in checks.check_srank(rows, sweep["batch_size"]).items():
            cells.setdefault(rid, []).extend(msgs)
    whole = [] if len(runs) == len(widths) else [f"{len(runs)} runs for {len(widths)} widths"]
    if command == "coordcheck":
        whole += checks.check_slopes(rows, runs, experiment, param)
    failed = len(widths) if whole else len(cells)
    return failed, whole + [f"{rid}: {m}" for rid, msgs in cells.items() for m in msgs]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Benchmark the mupre CLI.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "mupre" / "__init__.py").is_file():
        print(f"no mupre sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2

    wl = WORKLOADS[args.workload]
    seed = str(args.seed % 2**31)
    cfg_paths = {p: BENCH / "configs" / f"{args.workload}-{p}.json" for p in wl.params}
    cfgs = {p: json.loads(path.read_text()) for p, path in cfg_paths.items()}
    cells_per_command = len(cfgs[wl.params[0]]["model"]["widths"])
    work = ROOT / ".bench_out" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    env = child_env()
    tally = Tally()

    setup_s = []
    for i in range(SETUP_REPS):
        param = wl.params[i % len(wl.params)]
        out = work / "plan" / str(i)
        out.mkdir(parents=True)
        wall, _, rc = spawn(["-m", "mupre", "plan", "--config", str(cfg_paths[param]),
                             "--out", str(out)], out / "log.txt", env)
        setup_s.append(wall)
        problems = [f"exit code {rc}"] if rc else checks.check_plan(
            (out / "plan.json").read_text(), cfgs[param]["scaling"]["eta_base"])
        tally.problems += [f"plan {param}: {p}" for p in problems]

    round_s, peak_rss = [], []
    deadline = time.perf_counter() + args.seconds
    while not round_s or time.perf_counter() < deadline:
        k = len(round_s)
        total = 0.0
        for param in wl.params:
            out = work / f"round{k}" / param
            out.mkdir(parents=True)
            wall, rss, rc = spawn(["-m", "mupre", wl.command, "--config", str(cfg_paths[param]),
                                   "--out", str(out), "--seed", seed], out / "log.txt", env)
            total += wall
            peak_rss.append(rss)
            failed, problems = check_command(wl.command, param, cfgs[param], out)
            if rc:
                failed, problems = cells_per_command, [f"exit code {rc}"] + problems
            if k and not problems:
                problems = checks.compare_artifacts(work / "round0" / param, out)
                failed = cells_per_command if problems else 0
            tally.add(cells_per_command, failed, problems, f"round {k} {param}")
        round_s.append(total)
    run_s = statistics.median(round_s)
    print(f"{args.workload} seed {seed}: {len(round_s)} rounds, "
          + ", ".join(f"{s:.3f}" for s in round_s) + " s")

    if args.trace:
        metrics = traced_passes(wl, cfg_paths, cfgs, seed, work, env, tally, run_s)
    else:
        metrics = {
            "run_s": {"value": run_s, "unit": "s"},
            "setup_s": {"value": statistics.median(setup_s), "unit": "s"},
            "peak_rss_mb": {"value": max(peak_rss), "unit": "MB"},
        }
    for problem in tally.problems:
        print(f"CHECK FAIL {problem}")
    print(json.dumps({"correct": not tally.problems, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


def traced_passes(wl, cfg_paths, cfgs, seed, work, env, tally, run_s) -> dict:
    """Two traced passes, each checked against the first untraced round.

    The first also runs the reference check; per-layer metrics come from the
    second, and trace.overhead_s is its wall time less the untraced run_s.
    Computed counts must repeat exactly between the passes.
    """
    counts: dict[str, dict[str, float]] = {}
    for n in (1, 2):
        totals: dict[str, float] = {}
        traced_s = 0.0
        for param in wl.params:
            cfg = cfgs[param]
            cells = len(cfg["model"]["widths"])
            out = work / f"trace{n}" / param
            out.mkdir(parents=True)
            check_steps = ""
            if n == 1:
                # muon's spectral band is one SVD per call; the Shampoo
                # reference route costs two SVDs per tile, so it is sampled
                steps = cfg["sweep"]["steps"]
                sample = (range(1, steps + 1) if cfg["optimizer"]["rule"] == "muon"
                          else (2, steps // 2, steps))
                check_steps = ",".join(str(s) for s in sample)
            wall, _, rc = spawn(
                [str(BENCH / "tracer.py"), "--result", str(out / "trace.json"),
                 "--spans", str(out / "spans.json"), "--check-steps", check_steps, "--",
                 wl.command, "--config", str(cfg_paths[param]), "--out", str(out),
                 "--seed", seed], out / "log.txt", env)
            if rc:
                tally.add(cells, cells, [f"exit code {rc}"], f"trace pass {n} {param}")
                continue
            result = json.loads((out / "trace.json").read_text())
            metrics = result["metrics"]
            problems = [f"cli exit code {result['rc']}"] if result["rc"] else []
            problems += checks.compare_artifacts(work / "round0" / param, out)
            if n == 1:
                counts[param] = metrics
                problems += [f"reference: {f}" for f in result["failures"]]
                if not result["checked"]:
                    problems.append("reference check saw no optimizer steps")
                for measure, values in result["values"].items():
                    print(f"trace {param} {measure}: {len(values)} calls, "
                          f"min {min(values):.3e}, max {max(values):.3e}")
            else:
                first = counts.get(param, {})
                problems += [f"{name} {first.get(name, 0)} in pass 1, {metrics.get(name, 0)} in pass 2"
                             for name in COUNT_METRICS if first.get(name, 0) != metrics.get(name, 0)]
            tally.add(cells, cells if problems else 0, problems, f"trace pass {n} {param}")
            traced_s += wall - result["check_s"]
            for name, value in metrics.items():
                totals[name] = totals.get(name, 0) + value
    units = {m["name"]: m["unit"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    report = {name: {"value": totals.get(name, 0), "unit": unit} for name, unit in units.items()}
    report["trace.overhead_s"]["value"] = traced_s - run_s
    return report


if __name__ == "__main__":
    sys.exit(main())
