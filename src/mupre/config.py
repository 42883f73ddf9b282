"""Run configuration: the optimizer and sweep dataclasses that a `mupre`
config file builds, and the option tuples they validate against.

Pure Python on top of `scaling`: nothing here imports NumPy, so `mupre plan`
and config validation never load it. The numeric layers (`linalg`, `optim`,
`models`, `harness`) import these names from here.
"""

from __future__ import annotations

from dataclasses import dataclass

from .scaling import (
    FieldError,
    ModelManifest,
    ScalingPlan,
    check_numeric_fields,
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
                 of 0.2 with a sqrt(d_in * d_out) norm target
    """

    rule: str
    e_l: float = 0.5
    e_r: float = 0.5
    beta1: float = 0.9
    beta2: float = 0.95
    eps: float = 1e-8
    eps_mode: str = "relative"
    graft_rule: str | None = None
    graft_eps: float = 0.0
    graft_ref_eps: float = 1e-8
    block_in: int | None = None
    block_out: int | None = None
    normalize: str = "none"
    precond_freq: int = 1
    ns_iters: int = 5
    rms_align: bool = False

    def __post_init__(self):
        check_numeric_fields(self)
        if self.rule not in RULES:
            raise ValueError(f"unknown rule {self.rule!r}, expected one of {RULES}")
        if self.rule == "soap" and not (
            self.e_l in (0.0, 1.0) and self.e_r in (0.0, 1.0)
        ):
            raise ValueError("soap side exponents must be 0 or 1 (side indicators)")
        if min(self.e_l, self.e_r) < 0:
            raise ValueError("side exponents must be >= 0")
        if not (0.0 <= self.beta1 < 1.0 and 0.0 <= self.beta2 < 1.0):
            raise ValueError("betas must lie in [0, 1)")
        if self.eps < 0 or self.graft_eps < 0 or self.graft_ref_eps < 0:
            raise ValueError("eps values must be >= 0")
        if self.eps_mode not in EPS_MODES:
            raise ValueError(f"eps_mode must be one of {EPS_MODES}")
        if self.graft_rule is not None and self.graft_rule not in GRAFT_RULES:
            raise ValueError(f"graft_rule must be one of {GRAFT_RULES}")
        if self.graft_rule == "adam" and self.rule in SECOND_MOMENT_RULES:
            raise ValueError(
                f"graft_rule 'adam' cannot graft onto rule {self.rule!r}: both "
                "would advance the layer's one second-moment slot"
            )
        if self.graft_rule is not None and self.rule == "adamuon":
            raise ValueError(
                "rule 'adamuon' takes no graft_rule: its first moment holds the "
                "orthogonalized gradient, not the gradient a graft reference reads"
            )
        if (self.block_in or self.block_out) and self.rule not in ("shampoo", "soap"):
            raise ValueError("blocking is only defined for shampoo and soap")
        for b in (self.block_in, self.block_out):
            if b is not None and b < 1:
                raise ValueError("block sizes must be >= 1")
        if self.normalize not in NORMALIZE_MODES:
            raise ValueError(f"normalize must be one of {NORMALIZE_MODES}")
        if self.precond_freq < 1:
            raise ValueError("precond_freq must be >= 1")
        if self.precond_freq > 1 and self.rule != "soap":
            raise FieldError(
                "precond_freq",
                f"precond_freq {self.precond_freq} > 1 is only read by soap, not {self.rule!r}",
            )
        if self.ns_iters < 1:
            raise ValueError("ns_iters must be >= 1")


@dataclass(frozen=True)
class SweepConfig:
    opt: OptimizerConfig
    plan: ScalingPlan
    widths: tuple[int, ...]
    depths: tuple[int, ...] = (1,)
    arch: str = "mlp"
    n_layers: int = 3
    activation: str = "tanh"
    steps: int = 300
    batch_size: int = 32
    lr_grid: tuple[float, ...] = (1.0,)
    seeds: tuple[int, ...] = (0,)
    probe_steps: tuple[int, ...] = (10, 200)
    probe_batch: int = 16
    teacher_seed: int = 7
    probe_seed: int = 9999
    record_every: int = 0
    divergence_factor: float = 1e4
    wd_variant: str = "independent"

    def __post_init__(self) -> None:
        if self.arch not in ARCHS:
            raise FieldError("arch", f"unknown arch {self.arch!r}; expected one of {ARCHS}")
        if self.activation not in ACTIVATIONS:
            raise FieldError(
                "activation",
                f"unknown activation {self.activation!r}; expected one of {ACTIVATIONS}",
            )
        if self.wd_variant not in WD_MODES:
            raise FieldError(
                "wd_variant",
                f"unknown wd_variant {self.wd_variant!r}; expected one of {WD_MODES}",
            )
        for name in ("widths", "depths", "lr_grid", "seeds", "probe_steps"):
            vals = getattr(self, name)
            object.__setattr__(self, name, tuple(vals))
            if not getattr(self, name):
                raise FieldError(name, f"{name} must be nonempty")
        check_numeric_fields(self)
        for name in ("seeds", "teacher_seed", "probe_seed"):
            value = getattr(self, name)
            lowest = min(value) if name == "seeds" else value
            if lowest < 0:
                raise FieldError(name, f"{name} must be >= 0, got {lowest}")
        for name in ("widths", "depths"):
            if list(getattr(self, name)) != sorted(getattr(self, name)):
                raise FieldError(name, f"{name} must be ascending")
            if min(getattr(self, name)) < 1:
                raise FieldError(name, f"{name} must be positive")
        for name in ("steps", "batch_size", "probe_batch"):
            if getattr(self, name) < 1:
                raise FieldError(name, f"{name} must be positive")
        if min(self.probe_steps) < 1:
            raise FieldError("probe_steps", "probe steps count from 1")
        if min(self.lr_grid) <= 0:
            raise FieldError("lr_grid", "lr grid entries must be positive")
        if self.record_every < 0:
            raise FieldError("record_every", "record_every must be >= 0")
        if self.n_layers < 2:
            raise FieldError("n_layers", "need at least two layers")
        if self.divergence_factor <= 1:
            raise FieldError("divergence_factor", "divergence_factor must exceed 1")

    def require(self, experiment: str) -> None:
        """Raise FieldError unless this sweep can run the harness experiment
        of that name: a slope fit needs 3 points along its axis, and
        depth_check needs the residual architecture."""
        if experiment == "coord_check" and len(self.widths) < 3:
            raise FieldError("widths", "coordinate check needs at least 3 widths")
        if experiment == "depth_check":
            if self.arch != "resmlp":
                raise FieldError("arch", "depth check requires the residual architecture")
            if len(self.depths) < 3:
                raise FieldError("depths", "depth check needs at least 3 depths")

    def cells(self, experiment: str) -> list[tuple[int, int, float, int]]:
        """The (width, depth, eta_base, seed) grid cells that the harness
        experiment of that name trains."""
        eta, seed = self.plan.eta_base, self.seeds[0]
        if experiment == "lr_sweep":
            return [(w, self.depths[0], e, s)
                    for w in self.widths for e in self.lr_grid for s in self.seeds]
        if experiment == "depth_check":
            return [(self.widths[0], d, eta, seed) for d in self.depths]
        if experiment in ("coord_check", "rank_scan"):
            return [(w, self.depths[0], eta, seed) for w in self.widths]
        raise ValueError(f"unknown experiment {experiment!r}")

    def manifest(self, width: int, depth: int) -> ModelManifest:
        """The model of one grid cell; an mlp ignores depth."""
        if self.arch == "mlp":
            return mlp_manifest(width, self.plan.base_width, self.n_layers)
        return resmlp_manifest(width, depth, self.plan.base_width)
