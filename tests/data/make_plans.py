"""Write plans.json: the golden plans that tests/test_scaling.py rebuilds.

Each case is one optimizer config, one scaling plan and one model cell, with
the `plan_to_json` text of its plan. The grid covers every update rule, each
SOAP side pair, each graft rule, both Shampoo eps modes, three tilings (none,
32x32, 8 rows x 5 columns), every parameterization that applies, and mlp and
resmlp cells at widths 1 and 37 (a multiple of no block size) against base
width 16.

Run it only to record an intended change of the scaling rules:

    PYTHONPATH=src python tests/data/make_plans.py
"""

from __future__ import annotations

import json
from pathlib import Path

from mupre.config import OptimizerConfig, SweepConfig
from mupre.scaling import ALT_MUON_PARAMS, ScalingPlan, build_plan, plan_to_json

TILINGS = ({}, {"block_out": 32, "block_in": 32}, {"block_out": 8, "block_in": 5})

# arch, width, depth, n_layers
CELLS = (("mlp", 1, 1, 3), ("mlp", 37, 1, 3), ("resmlp", 37, 3, 3))
# sp and spectral_norm keep every ratio at 1; one cell shows it
WIDTH_ONE_RESMLP = (("resmlp", 1, 2, 3),)

# mup with every plan field off its default
FULL_MUP = {"param": "mup", "base_width": 16, "eta_base": 0.1, "base_depth": 2,
            "wd_base": 0.01, "wd_mode": "inv_width", "alpha_depth": 0.5}


def optimizers() -> list[dict]:
    """Keyword sets of the OptimizerConfigs in the grid."""
    out = [
        {"rule": "sgd"},
        {"rule": "sgd", "graft_rule": "sgd"},
        {"rule": "sgd", "graft_rule": "adam"},
        {"rule": "adam", "eps": 1e-6},
        {"rule": "adam", "graft_rule": "sgd"},
        {"rule": "muon"},
        {"rule": "muon", "graft_rule": "sgd"},
        {"rule": "muon", "graft_rule": "adam", "graft_eps": 1e-10},
        {"rule": "adamuon"},
        {"rule": "shampoo", "e_l": 0.25, "e_r": 0.25, "eps_mode": "absolute"},
        {"rule": "shampoo", "e_l": 1.0, "e_r": 0.0, **TILINGS[2]},
        {"rule": "shampoo", "graft_rule": "sgd", **TILINGS[1]},
    ]
    for tiling in TILINGS:
        for eps_mode in ("absolute", "relative"):
            for graft in ({}, {"graft_rule": "adam", "graft_eps": 1e-12}):
                out.append({"rule": "shampoo", "eps": 1e-5, "eps_mode": eps_mode,
                            **graft, **tiling})
        for e_l in (0.0, 1.0):
            for e_r in (0.0, 1.0):
                out.append({"rule": "soap", "e_l": e_l, "e_r": e_r, **tiling})
    out.append({"rule": "soap", "graft_rule": "adam", "e_l": 1.0, "e_r": 1.0, **TILINGS[1]})
    out.append({"rule": "soap", "graft_rule": "sgd", "e_l": 1.0, "e_r": 0.0, **TILINGS[2]})
    return out


def plans(opt: OptimizerConfig) -> list[tuple[dict, tuple]]:
    """(plan keywords, cells): FULL_MUP for every optimizer, and every other
    parameterization that applies for the ungrafted, unblocked ones."""
    out = [(FULL_MUP, CELLS)]
    if opt.graft_rule is None and opt.block_in is None:
        default_mup = {"param": "mup", "base_width": 16, "eta_base": 0.1}
        out += [(default_mup, WIDTH_ONE_RESMLP + CELLS[1:2]),
                ({"param": "sp", "base_width": 16, "eta_base": 0.1, "wd_base": 0.01,
                  "wd_mode": "inv_width"}, WIDTH_ONE_RESMLP),
                ({"param": "spectral_norm", "base_width": 16, "eta_base": 0.1},
                 WIDTH_ONE_RESMLP)]
        if opt.rule == "muon":
            out += [({**default_mup, "param": p}, WIDTH_ONE_RESMLP + CELLS[1:2])
                    for p in ALT_MUON_PARAMS]
    return out


def cases() -> list[dict]:
    out = []
    for opt_kw in optimizers():
        opt = OptimizerConfig(**opt_kw)
        for plan_kw, cells in plans(opt):
            plan = ScalingPlan(**plan_kw)
            for arch, width, depth, n_layers in cells:
                sweep = SweepConfig(opt=opt, plan=plan, widths=(width,), depths=(depth,),
                                    arch=arch, n_layers=n_layers)
                table = build_plan(sweep.manifest(width, depth), opt, plan)
                out.append({"optimizer": opt_kw, "scaling": plan_kw, "arch": arch,
                            "width": width, "depth": depth, "n_layers": n_layers,
                            "plan": plan_to_json(table)})
    return out


if __name__ == "__main__":
    path = Path(__file__).with_name("plans.json")
    lines = ",\n".join(json.dumps(case) for case in cases())
    path.write_text(f"[\n{lines}\n]\n")
