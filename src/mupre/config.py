"""Run configuration: the optimizer and sweep dataclasses that a `mupre`
config file builds, and the option tuples they validate against.

Pure Python on top of `scaling`: nothing here imports NumPy, so `mupre plan`
and config validation never load it. The numeric layers (`linalg`, `optim`,
`models`, `harness`) import these names from here.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import NamedTuple

from .scaling import (
    FieldError,
    ModelManifest,
    ScalingPlan,
    check_fields,
    checked,
    mlp_manifest,
    resmlp_manifest,
)

RULES = ("sgd", "adam", "shampoo", "soap", "muon", "adamuon")
GRAFT_RULES = ("sgd", "adam")
# rules whose own step keeps LayerState.v, the slot an adam graft reference uses
SECOND_MOMENT_RULES = ("adam", "adamuon")
NORMALIZE_MODES = ("none", "spectral", "rms")
EPS_MODES = ("absolute", "relative")
WD_MODES = ("independent", "coupled")
ACTIVATIONS = ("relu", "tanh")
ARCHS = ("mlp", "resmlp")

# the grid axes in cell order: SweepConfig field -> the RunResult attribute
AXES = {"widths": "width", "depths": "depth", "lr_grid": "eta_base", "seeds": "seed"}


class Experiment(NamedTuple):
    """One sweep command's grid; every axis it does not sweep holds one value."""

    sweeps: tuple[str, ...]
    fit: str  # the swept axis its result is keyed and fitted by
    min_points: int = 1  # the least number of values on the fit axis
    probes_in_run: bool = False  # every probe step must fall within the run
    every_step: bool = False  # every step is probed, so it reads no probe_steps
    arch: str | None = None  # the architecture it requires


# command -> its grid
EXPERIMENTS = {
    "coordcheck": Experiment(("widths",), "widths", 3, probes_in_run=True),
    "depthcheck": Experiment(("depths",), "depths", 3, probes_in_run=True, arch="resmlp"),
    "lrsweep": Experiment(("widths", "lr_grid", "seeds"), "widths"),
    "rankscan": Experiment(("widths",), "widths", every_step=True),
}


@dataclass
class OptimizerConfig:
    """Static description of one optimizer.

    rule         one of sgd | adam | shampoo | soap | muon | adamuon
    e_l, e_r     inverse-power exponents per side (shampoo) or 0/1 side
                 indicators selecting which eigenbases are tracked (soap)
    beta1/beta2  first/second-moment EMA coefficients
    eps          damping; for shampoo interpreted per eps_mode, either an
                 absolute shift or a fraction of the factor's top eigenvalue.
                 0 is allowed: an Adam entry with a zero history then gets a
                 zero update, and a Shampoo factor whose shifted root is
                 singular makes the run diverge
    graft_rule   optional reference rule whose update norm is grafted onto
                 this rule's direction (full-matrix norms); an adam reference
                 is rejected for the adam and adamuon rules, which own the
                 same second-moment slot, and adamuon takes no graft at all,
                 since its first moment is not the gradient's
    graft_eps    guard added to the direction norm in the graft ratio
    graft_ref_eps damping used inside the reference rule's own step
    block_in/out tile sizes for blocked preconditioning (shampoo/soap only)
    normalize    post-step update normalization applied by the trainer
    precond_freq soap eigenbasis refresh period, in steps; the other rules
                 refresh every step, so they reject a period above 1
    ns_iters     orthogonalization iteration count for muon/adamuon
    rms_align    adamuon option: rescale the update to a fixed entrywise RMS
                 of 0.2 with a sqrt(d_in * d_out) norm target; the other
                 rules reject it
    """

    rule: str = checked(choices=RULES)
    e_l: float = checked(0.5, ge=0)
    e_r: float = checked(0.5, ge=0)
    beta1: float = checked(0.9, ge=0, lt=1)
    beta2: float = checked(0.95, ge=0, lt=1)
    eps: float = checked(1e-8, ge=0)
    eps_mode: str = checked("relative", choices=EPS_MODES)
    graft_rule: str | None = checked(None, choices=GRAFT_RULES)
    graft_eps: float = checked(0.0, ge=0)
    graft_ref_eps: float = checked(1e-8, ge=0)
    block_in: int | None = checked(None, ge=1)
    block_out: int | None = checked(None, ge=1)
    normalize: str = checked("none", choices=NORMALIZE_MODES)
    precond_freq: int = checked(1, ge=1)
    ns_iters: int = checked(5, ge=1)
    rms_align: bool = False

    def __post_init__(self):
        check_fields(self)
        for name in ("e_l", "e_r"):
            value = getattr(self, name)
            if self.rule == "soap" and value not in (0.0, 1.0):
                raise FieldError(
                    name, f"soap side exponents must be 0 or 1 (side indicators), got {value!r}"
                )
        if self.graft_rule == "adam" and self.rule in SECOND_MOMENT_RULES:
            raise FieldError(
                "graft_rule",
                f"graft_rule 'adam' cannot graft onto rule {self.rule!r}: both "
                "would advance the layer's one second-moment slot",
            )
        if self.graft_rule is not None and self.rule == "adamuon":
            raise FieldError(
                "graft_rule",
                "rule 'adamuon' takes no graft_rule: its first moment holds the "
                "orthogonalized gradient, not the gradient a graft reference reads",
            )
        for name in ("block_in", "block_out"):
            if getattr(self, name) is not None and self.rule not in ("shampoo", "soap"):
                raise FieldError(name, "blocking is only defined for shampoo and soap")
        if self.precond_freq > 1 and self.rule != "soap":
            raise FieldError(
                "precond_freq",
                f"precond_freq {self.precond_freq} > 1 is only read by soap, not {self.rule!r}",
            )
        if self.rms_align and self.rule != "adamuon":
            raise FieldError("rms_align", f"rms_align is only read by adamuon, not {self.rule!r}")


@dataclass(frozen=True)
class SweepConfig:
    """A grid of training runs, one EXPERIMENTS row per command, and how
    each run trains and is probed.

    widths       ascending model widths; coordcheck, lrsweep and rankscan
                 sweep them
    depths       ascending residual depths, which an mlp ignores; depthcheck
                 sweeps them
    lr_grid      base learning rates; lrsweep sweeps them, and the other
                 commands train at plan.eta_base (scaling.eta_base)
    seeds        run seeds; lrsweep sweeps them and averages over them
    probe_steps  steps whose feature updates are recorded; coordcheck and
                 depthcheck fit their slopes there, and rankscan records
                 every step in their place

    A command trains widths[0], depths[0] or seeds[0] on an axis it does not
    sweep, and rejects a second value there.
    """

    opt: OptimizerConfig
    plan: ScalingPlan
    widths: tuple[int, ...] = checked(ge=1)
    depths: tuple[int, ...] = checked((1,), ge=1)
    arch: str = checked("mlp", choices=ARCHS)
    n_layers: int = checked(3, ge=2)
    activation: str = checked("tanh", choices=ACTIVATIONS)
    steps: int = checked(300, ge=1)
    batch_size: int = checked(32, ge=1)
    lr_grid: tuple[float, ...] = checked((1.0,), gt=0)
    seeds: tuple[int, ...] = checked((0,), ge=0)
    probe_steps: tuple[int, ...] = checked((10, 200), ge=1)
    probe_batch: int = checked(16, ge=1)
    teacher_seed: int = checked(7, ge=0)
    probe_seed: int = checked(9999, ge=0)
    divergence_factor: float = checked(1e4, gt=1)
    wd_variant: str = checked("independent", choices=WD_MODES)

    def __post_init__(self) -> None:
        check_fields(self)
        for name in ("widths", "depths", "lr_grid", "seeds", "probe_steps"):
            object.__setattr__(self, name, tuple(getattr(self, name)))
            if not getattr(self, name):
                raise FieldError(name, f"{name} must be nonempty")
        # a repeated entry would train the same cell again
        for name in ("widths", "depths"):
            values = getattr(self, name)
            if any(a >= b for a, b in zip(values, values[1:])):
                raise FieldError(
                    name, f"{name} must be ascending with no repeats, got {list(values)}"
                )
        for name in ("lr_grid", "seeds"):
            values = getattr(self, name)
            if len(set(values)) < len(values):
                raise FieldError(name, f"{name} must have no repeats, got {list(values)}")

    def require(self, name: str) -> None:
        """Raise FieldError unless this sweep can run the command of that
        name: its probe steps, architecture and fit-axis size as its
        EXPERIMENTS row asks, and one value on each axis it does not sweep."""
        row = EXPERIMENTS[name]
        late = [p for p in self.probe_steps if p > self.steps]
        if row.probes_in_run and late:
            raise FieldError(
                "probe_steps", f"probe steps {late} come after the last step {self.steps}"
            )
        if row.arch is not None and self.arch != row.arch:
            raise FieldError("arch", f"{name} requires arch {row.arch!r}, got {self.arch!r}")
        if len(getattr(self, row.fit)) < row.min_points:
            raise FieldError(row.fit, f"{name} needs at least {row.min_points} {row.fit}")
        for axis in AXES:
            values = getattr(self, axis)
            if axis not in row.sweeps and len(values) > 1:
                raise FieldError(axis, f"{axis} must hold one value, since {name} does not "
                                       f"sweep it, got {list(values)}")

    def cells(self, name: str) -> list[tuple[int, int, float, int]]:
        """The (width, depth, eta_base, seed) grid cells that the command of
        that name trains: the product of the axes it sweeps, with widths[0],
        depths[0], plan.eta_base and seeds[0] on the others."""
        sweeps = EXPERIMENTS[name].sweeps
        pins = (self.widths[0], self.depths[0], self.plan.eta_base, self.seeds[0])
        return list(product(*(
            getattr(self, axis) if axis in sweeps else (pin,) for axis, pin in zip(AXES, pins)
        )))

    def manifest(self, width: int, depth: int) -> ModelManifest:
        """The model of one grid cell; an mlp ignores depth."""
        if self.arch == "mlp":
            return mlp_manifest(width, self.plan.base_width, self.n_layers)
        return resmlp_manifest(width, depth, self.plan.base_width)
