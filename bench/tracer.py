"""Run one `mupre` CLI command with per-layer spans and counters.

    python3 bench/tracer.py --result R.json --spans S.json [--check-steps 2,5,10] \
        -- coordcheck --config CFG --out DIR --seed N

Wrappers replace public functions of mupre.linalg, optim, models, scaling,
harness and cli in every module namespace that binds them, so calls between
and inside layers are both seen. Spans are kept in memory and written to
--spans when the command ends; --result gets per-name call counts, total and
self seconds, computed counters, and the outcome of the reference check.

With --check-steps, optimizer_step calls at those steps are recomputed from
deep copies of their inputs by bench/reference.py. The copy and the check
run on a paused clock, so they add no time to any span; their wall time is
reported as check_s for the caller to subtract.
"""

from __future__ import annotations

import argparse
import copy
import importlib
import json
import sys
import time
from collections import Counter
from contextlib import contextmanager
from functools import partial

import reference
from mupre.linalg import NS_POLISH_STEPS

LAYERS = ("linalg", "optim", "models", "scaling", "harness", "cli")

# span name -> (defining module, attribute); records_csv renders the CLI's
# artifact text, so it is reported with the cli layer
SPANS = {
    "linalg.sym_eig": ("linalg", "sym_eig"),
    "linalg.mat_inv_power": ("linalg", "mat_inv_power"),
    "linalg.newton_schulz": ("linalg", "newton_schulz"),
    "linalg.spectral_norm_exact": ("linalg", "spectral_norm_exact"),
    "optim.optimizer_step": ("optim", "optimizer_step"),
    "models.forward": ("models", "MlpModel.forward"),
    "models.backward": ("models", "MlpModel.backward"),
    "models.synth_batch": ("models", "synth_batch"),
    "models.coord_probe": ("models", "coord_probe"),
    "harness.run_training": ("harness", "run_training"),
    "harness.exponent_fit": ("harness", "exponent_fit"),
    "scaling.build_plan": ("scaling", "build_plan"),
    "cli.load_config": ("cli", "load_config"),
    "cli.records_csv": ("harness", "records_csv"),
    "cli.write_atomic": ("cli", "write_atomic"),
}


def _ns_flop(m, iters: int = 5, eps: float = 0.0) -> int:
    """Matmul flops of linalg.newton_schulz on an r x c input: the Gram
    X^T X and the update product every iteration, plus the Gram square on
    the quintic iterations; X is n x k with n >= k after transposing."""
    r, c = m.shape
    if not m.any():
        return 0
    n, k = max(r, c), min(r, c)
    quintic = max(iters - NS_POLISH_STEPS, 1) if iters > NS_POLISH_STEPS else iters
    return quintic * (4 * n * k * k + 2 * k**3) + (iters - quintic) * 4 * n * k * k


# counter name -> (defining module, attribute, amount from (args, result))
COUNTERS = {
    "linalg.as_matrix.calls": ("linalg", "as_matrix", lambda args, out: 1),
    "linalg.sym_eig.n3": ("linalg", "sym_eig", lambda args, out: len(args[0]) ** 3),
    "linalg.newton_schulz.flop": ("linalg", "newton_schulz", lambda args, out: _ns_flop(*args)),
    "optim.block_tiles": ("optim", "block_partition", lambda args, out: len(out)),
    "cli.artifact_bytes": ("cli", "write_atomic", lambda args, out: len(args[1].encode())),
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.open: list[int] = []
        self.counts: Counter = Counter()
        self.paused_s = 0.0

    def now(self) -> float:
        return time.perf_counter() - self.paused_s

    @contextmanager
    def paused(self):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.paused_s += time.perf_counter() - t0

    def span(self, name: str, fn):
        def traced(*args, **kwargs):
            idx = len(self.spans)
            self.spans.append([name, self.now(), None, self.open[-1] if self.open else -1])
            self.open.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                self.open.pop()
                self.spans[idx][2] = self.now()

        return traced

    def counter(self, name: str, amount, fn):
        def counted(*args, **kwargs):
            out = fn(*args, **kwargs)
            self.counts[name] += amount(args, out)
            return out

        return counted

    def summary(self) -> dict[str, float]:
        """calls, total seconds and self seconds per span name, plus counters."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = Counter()
        for (name, start, end, _), inner in zip(self.spans, child):
            out[f"{name}.calls"] += 1
            out[f"{name}.s"] += end - start
            out[f"{name}.self_s"] += end - start - inner
        out.update(self.counts)
        return dict(out)


class StepChecker:
    """Compares sampled optimizer_step calls with the reference route."""

    def __init__(self, tracer: Tracer, steps: set[int]) -> None:
        self.tracer = tracer
        self.steps = steps
        self.checked = 0
        self.values: dict[str, list[float]] = {}
        self.failures: list[str] = []

    def wrap(self, fn):
        def step(state, g, cfg):
            if state.t + 1 not in self.steps:
                return fn(state, g, cfg)
            with self.tracer.paused():
                before = copy.deepcopy((state, g, cfg))
            report = fn(state, g, cfg)
            with self.tracer.paused():
                measure, value, ok = reference.check_step(*before, report.update)
                self.checked += 1
                self.values.setdefault(measure, []).append(value)
                if not ok:
                    self.failures.append(
                        f"step {before[0].t + 1} shape {before[1].shape}: {measure} {value!r}")
            return report

        return step


def _resolve(modules: dict, home: str, attr: str):
    owner = modules[home]
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


def install(tracer: Tracer, checker: StepChecker | None) -> dict:
    """Replace every binding of each traced function with its wrapper."""
    modules = {m: importlib.import_module(f"mupre.{m}") for m in LAYERS}
    wraps = [("optim", "optimizer_step", checker.wrap)] if checker is not None else []
    wraps += [(home, attr, partial(tracer.span, name)) for name, (home, attr) in SPANS.items()]
    wraps += [(home, attr, partial(tracer.counter, name, amount))
              for name, (home, attr, amount) in COUNTERS.items()]
    for home, attr, wrap in wraps:
        owner, name = _resolve(modules, home, attr)
        original = getattr(owner, name)
        wrapped = wrap(original)
        setattr(owner, name, wrapped)
        for module in modules.values():
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapped)
    return modules


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--result", required=True)
    parser.add_argument("--spans", required=True)
    parser.add_argument("--check-steps", default="")
    parser.add_argument("command", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    command = args.command[1:] if args.command[:1] == ["--"] else args.command

    tracer = Tracer()
    steps = {int(s) for s in args.check_steps.split(",") if s}
    checker = StepChecker(tracer, steps) if steps else None
    modules = install(tracer, checker)
    rc = modules["cli"].main(command)

    result = {"rc": rc, "metrics": tracer.summary(), "check_s": tracer.paused_s}
    if checker is not None:
        result.update(checked=checker.checked, values=checker.values, failures=checker.failures)
    with open(args.spans, "w") as fh:
        json.dump(tracer.spans, fh)
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
