"""Write the artifact set that tools/audit.py compares, from one checkout.

    python3 tools/artifacts.py CHECKOUT OUT_DIR

runs every config of RUNS once with the `mupre` of CHECKOUT/src, at
`--seed 0` with one BLAS and OpenMP thread, into OUT_DIR/NAME, and writes
the command's stdout there as stdout.txt. NAME is the config's file name
without `.json`. The configs are read from this tool's own source tree
(bench/configs and tools/audit_configs), so two checkouts run the same
ones:

    python3 tools/artifacts.py PARENT /tmp/parent
    python3 tools/artifacts.py . /tmp/change
    python3 tools/audit.py /tmp/parent /tmp/change --tol 0

It prints one line per run and exits 1 if any command fails.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# config, relative to the source tree -> the mupre command that runs it
RUNS = {
    "bench/configs/width-shampoo-mup.json": "coordcheck",
    "bench/configs/width-shampoo-sp.json": "coordcheck",
    "bench/configs/width-blocked-mup.json": "coordcheck",
    "bench/configs/width-blocked-sp.json": "coordcheck",
    "bench/configs/rankscan-muon-mup.json": "rankscan",
    # widths 64-256 for 40 steps: each side of Muon's fc2 leaves the
    # range-basis route, the left side at steps 5, 9 and 16 and the right
    # one at steps 6, 12 and 23, so fc2 keeps m Q_r for a stretch between
    "tools/audit_configs/muon-40.json": "coordcheck",
    "tools/audit_configs/soap-blocked.json": "coordcheck",
    # e_r = 0: the first moment is kept as Q_l^T m, one side in a basis
    "tools/audit_configs/shampoo-left.json": "coordcheck",
    # 32 x 32 tiles at batch 4 take the route; the SGD graft reads the
    # dense first moment that their rotated moments are expanded into
    "tools/audit_configs/shampoo-blocked-sgd-graft.json": "coordcheck",
    # 40 x 48 tiles that do not divide the widths: band slices on trailing
    # tile groups, whose bases are held once per band
    "tools/audit_configs/shampoo-blocked-uneven.json": "coordcheck",
    "tools/audit_configs/resmlp-muon.json": "depthcheck",
    # Adam under muP over widths 64-256 and three etas, 50 steps: the width
    # x eta grid, its argmin per width and the optimum drift. --seed 0 pins
    # the two configured seeds to one, so the seed average is left to
    # tests/test_harness.py::TestLrSweep
    "tools/audit_configs/lrsweep-adam.json": "lrsweep",
}

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("checkout", type=Path, help="source checkout whose src/ is run")
    parser.add_argument("out_dir", type=Path, help="directory that gets one folder per config")
    args = parser.parse_args(argv)
    env = dict(os.environ, PYTHONPATH=str(args.checkout.resolve() / "src"),
               **dict.fromkeys(THREAD_VARS, "1"))
    failed = 0
    for config, command in RUNS.items():
        out = args.out_dir / Path(config).stem
        out.mkdir(parents=True, exist_ok=True)
        run = subprocess.run(
            [sys.executable, "-m", "mupre", command, "--config", str(ROOT / config),
             "--seed", "0", "--out", str(out)],
            env=env, stdout=subprocess.PIPE, text=True,
        )
        (out / "stdout.txt").write_text(run.stdout)
        failed += run.returncode != 0
        print(f"{Path(config).stem}: {command} exit {run.returncode}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
