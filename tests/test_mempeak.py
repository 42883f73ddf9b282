"""tools/mempeak.py: its figures follow the memory a command holds, and
its site lines name the line that allocated it."""

import importlib
import json
import os
import resource
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

TOOLS = Path(__file__).resolve().parents[1] / "tools"


@pytest.fixture
def mempeak(monkeypatch):
    monkeypatch.syspath_prepend(str(TOOLS))
    return importlib.import_module("mempeak")


def config(root: Path, width: int) -> Path:
    path = root / f"w{width}.json"
    path.write_text(json.dumps({
        "model": {"arch": "mlp", "widths": [width // 4, width // 2, width], "seeds": [0]},
        "optimizer": {"rule": "shampoo", "e_l": 0.25, "e_r": 0.25, "eps": 1e-3},
        "scaling": {"param": "mup", "base_width": width // 4, "eta_base": 0.002},
        "sweep": {"steps": 2, "batch_size": 8, "probe_steps": [2], "probe_batch": 8},
    }))
    return path


def parse(lines):
    """(peak, sampled, minflt, sites) from the tool's stdout lines."""
    assert lines[0].startswith("peak_mib ") and lines[1].startswith("sampled_mib ")
    assert lines[2].startswith("minflt ")
    peak, sampled = (float(line.split()[1]) for line in lines[:2])
    faults = int(lines[2].split()[1])
    assert all(line.startswith("site ") and line.endswith(" MiB") for line in lines[3:])
    # a file name may hold spaces, as "<frozen importlib._bootstrap>" does
    sites = [line[len("site "):].rsplit(" ", 2)[:2] for line in lines[3:]]
    return peak, sampled, faults, sites


def measure(mempeak, capsys, tmp_path, width, top=2):
    """Run a coordcheck up to one width: (exit status, peak, sampled, sites)."""
    out = tmp_path / f"out{width}"
    status = mempeak.main(["--top", str(top), "coordcheck",
                           "--config", str(config(tmp_path, width)), "--out", str(out)])
    peak, sampled, _, sites = parse(capsys.readouterr().out.splitlines())
    return status, peak, sampled, sites


def test_prints_peak_sampled_point_and_sites(mempeak, capsys, tmp_path):
    status, peak, sampled, sites = measure(mempeak, capsys, tmp_path, 16)
    assert status == 0
    assert 0.0 < sampled <= peak
    assert len(sites) == 2
    sizes = [float(mib) for _, mib in sites]
    assert sizes == sorted(sizes, reverse=True) and sizes[0] <= sampled
    # the command's own output went to stderr, and its artifacts were written
    assert (tmp_path / "out16").is_dir()


def test_peak_grows_with_the_arrays_the_command_holds(mempeak, capsys, tmp_path):
    # a 256 x 256 hidden layer holds its weights, gradient, factors and
    # moment, each 0.5 MiB, where a 16 x 16 one holds 2 KiB each
    small = measure(mempeak, capsys, tmp_path, 16)[1]
    large = measure(mempeak, capsys, tmp_path, 256)[1]
    assert large - small > 2.0


def test_minflt_covers_the_pages_of_the_peak(tmp_path):
    # in a fresh process, whose heap has not yet held the command's
    # arrays, the pages behind a width-256 coordcheck's peak are touched
    # for the first time during the command: measured at 2.9k faults for a
    # 3.1 MiB peak
    path = [str(TOOLS.parent / "src"), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path)),
           "OPENBLAS_NUM_THREADS": "1"}
    done = subprocess.run(
        [sys.executable, str(TOOLS / "mempeak.py"), "coordcheck",
         "--config", str(config(tmp_path, 256)), "--out", str(tmp_path / "out")],
        capture_output=True, text=True, env=env, check=True,
    )
    peak, _, faults, _ = parse(done.stdout.splitlines())
    assert faults * resource.getpagesize() >= peak * 2**20


def test_failed_command_passes_its_status_through(mempeak, capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{}")
    assert mempeak.main(["coordcheck", "--config", str(bad), "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().out.startswith("peak_mib ")


def test_sites_name_the_caller_of_numpy(mempeak):
    # np.ones allocates inside NumPy's Python code; the site is this line
    sampler = mempeak.Sampler()
    tracemalloc.start(mempeak.FRAMES)
    sys.setprofile(sampler)
    try:
        held = np.ones((256, 256)); line = sys._getframe().f_lineno  # noqa: E702
        held.sum()  # a call after the allocation, where the sampler looks
    finally:
        sys.setprofile(None)
        tracemalloc.stop()
    ((where, mib),) = sampler.sites(1)
    assert where == f"{__file__}:{line}"
    assert 0.5 <= mib < 0.6
