"""Peak traced memory of one `mupre` command, run in this process.

    python3 tools/mempeak.py [--top N] COMMAND [ARGS...]

for example, from the root of a source checkout,

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python3 tools/mempeak.py coordcheck \\
        --config bench/configs/width-shampoo-mup.json --out /tmp/mempeak

It imports every mupre module, then runs `mupre.cli.main([COMMAND,
*ARGS])` under tracemalloc, which counts NumPy's array buffers as well as
Python objects, so the figures are what the command allocates, not module
code. A peak of live allocations does not move with the allocator's heap
layout, as a process's peak RSS can. The command's own output goes to
stderr, and stdout gets:

  peak_mib P             the largest traced total during the command
  sampled_mib S          the largest total seen between two calls of
                         Python code, near which the site lines were taken
  minflt N               the minor page faults of the process during the
                         command, from getrusage before and after it:
                         pages touched for the first time, such as those
                         of a large array mapped fresh by the allocator
  site FILE:LINE X MiB   the N source lines (default 1) holding the most
                         memory at that point, most first; an allocation
                         made inside NumPy's Python code counts at the
                         line that called into NumPy

Faults, unlike the traced figures, follow the allocator's heap layout,
and they count tracemalloc's own bookkeeping too. A temporary that lives
only inside one call, such as one of an expression's intermediate arrays,
counts toward P but is never seen between calls, so S <= P. The snapshot
behind the site lines is retaken whenever the total between calls grows
past the last snapshot's by SAMPLE_STEP, so it holds within that fraction
of S. The exit status is the command's.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import pkgutil
import resource
import sys
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np

MIB = 2.0**20
# relative growth of the traced total, seen between calls, that retakes the snapshot
SAMPLE_STEP = 0.02
# frames kept per allocation, enough to reach the caller of a NumPy function
FRAMES = 16
NUMPY_DIR = str(Path(np.__file__).parent)


class Sampler:
    """A profile hook that keeps the largest traced total it sees between
    calls, and a snapshot taken near it."""

    def __init__(self):
        self.best = 0
        self.snapshot_at = 0
        self.snapshot: tracemalloc.Snapshot | None = None

    def __call__(self, frame, event, arg) -> None:
        current = tracemalloc.get_traced_memory()[0]
        if current <= self.best:
            return
        self.best = current
        if current > self.snapshot_at * (1.0 + SAMPLE_STEP):
            self.snapshot_at = current
            self.snapshot = tracemalloc.take_snapshot()

    def sites(self, top: int) -> list[tuple[str, float]]:
        """The top source lines of the snapshot with the MiB each holds."""
        sizes = Counter()
        for trace in self.snapshot.traces if self.snapshot is not None else ():
            sizes[site(trace.traceback)] += trace.size
        return [(where, size / MIB) for where, size in sizes.most_common(top)]


def site(traceback: tracemalloc.Traceback) -> str:
    """FILE:LINE of the innermost frame outside NumPy's package, or of the
    innermost frame when every frame is inside it."""
    frames = list(reversed(traceback))  # innermost first
    frame = next((f for f in frames if not f.filename.startswith(NUMPY_DIR)), frames[0])
    return f"{frame.filename}:{frame.lineno}"


def minor_faults() -> int:
    """The minor page faults of this process so far."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def run(argv: list[str]) -> tuple[int, float, int, Sampler]:
    """Run the mupre command argv under tracemalloc: (exit status, peak
    MiB, minor page faults, the sampler's record)."""
    import mupre

    for module in pkgutil.iter_modules(mupre.__path__):
        if module.name != "__main__":
            importlib.import_module(f"mupre.{module.name}")
    from mupre import cli

    sampler = Sampler()
    tracemalloc.start(FRAMES)
    sys.setprofile(sampler)
    faults = minor_faults()
    try:
        with contextlib.redirect_stdout(sys.stderr):
            status = cli.main(argv)
    finally:
        faults = minor_faults() - faults
        sys.setprofile(None)
        peak = tracemalloc.get_traced_memory()[1] / MIB
        tracemalloc.stop()
    return status, peak, faults, sampler


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Peak traced memory of one mupre command.")
    parser.add_argument("--top", type=int, default=1, help="source lines to list (default 1)")
    parser.add_argument("command", nargs=argparse.REMAINDER,
                        help="the mupre command and its arguments")
    args = parser.parse_args(argv)
    if not args.command or args.top < 1:
        parser.error("give a mupre command, and --top of at least 1")
    status, peak, faults, sampler = run(args.command)
    print(f"peak_mib {peak:.3f}")
    print(f"sampled_mib {sampler.best / MIB:.3f}")
    print(f"minflt {faults}")
    for where, mib in sampler.sites(args.top):
        print(f"site {where} {mib:.3f} MiB")
    return status


if __name__ == "__main__":
    sys.exit(main())
