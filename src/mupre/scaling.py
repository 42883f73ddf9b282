"""Per-layer hyperparameter scaling rules.

Maps layer geometry (fan-in, fan-out, residual depth) and the optimizer's
block tiling to learning rate, damping, initialization, residual and
weight-decay multipliers under each parameterization. Multipliers are
ratios of a closed-form formula evaluated at the layer's shape over the
same formula at the base shape, so a base-shaped layer always gets exactly
1.

Pure Python: this module imports nothing from mupre at runtime and never
loads NumPy, so building and printing a plan stays cheap.
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import MISSING, asdict, dataclass, field, fields, replace
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np

    from .config import OptimizerConfig

ROLES = ("embedding", "hidden", "readout")
PARAMS = (
    "sp",
    "mup",
    "spectral_norm",
    "muon_kimi_theta1",
    "muon_kimi_adamexp",
    "muon_adamexp",
)
ALT_MUON_PARAMS = ("muon_kimi_theta1", "muon_kimi_adamexp", "muon_adamexp")
WD_SCALINGS = ("constant", "inv_width")

# Hidden layers initialize at c/sqrt(d_in); embeddings at a fixed scale.
HIDDEN_INIT_C = 1.0
EMBEDDING_INIT_SIGMA = 0.1

# a field's annotation, less any "tuple[...]" and "| None", -> (accepted types,
# what one value must be, what every entry must be); a bool counts only as a bool
_KINDS = {
    "int": (int, "an integer", "integers"),
    "float": ((int, float), "a number", "numbers"),
    "str": (str, "a string", "strings"),
    "bool": (bool, "a boolean", "booleans"),
}
_BOUNDS = {
    "ge": (operator.ge, ">="),
    "gt": (operator.gt, ">"),
    "le": (operator.le, "<="),
    "lt": (operator.lt, "<"),
}


class FieldError(ValueError):
    """A config dataclass value that fails validation; field names its owner."""

    def __init__(self, field: str, message: str):
        super().__init__(message)
        self.field = field


def checked(default=MISSING, **rules):
    """A dataclass field whose values check_fields tests against rules:
    choices (the allowed values) and the bounds ge, gt, le and lt."""
    return field(default=default, metadata=rules)


def check_fields(obj) -> None:
    """Raise FieldError unless every field of the dataclass obj holds a value
    of its annotated type (a tuple field a list or tuple of such entries, an
    optional field also None) that is one of the field's choices and
    satisfies each of its bounds, entry by entry; NaN satisfies no bound, and
    an infinite bound asks for a finite value."""
    for f in fields(obj):
        name, value, kind = f.name, getattr(obj, f.name), f.type
        if kind.endswith(" | None"):
            if value is None:
                continue
            kind = kind.removesuffix(" | None")
        many = kind.startswith("tuple[")
        if many:
            if not isinstance(value, (list, tuple)):
                raise FieldError(name, f"{name} must be a list, got {value!r}")
            kind = kind.removeprefix("tuple[").removesuffix(", ...]")
        if kind not in _KINDS:
            continue
        types, one, every = _KINDS[kind]
        what = f"entries must be {every}" if many else f"must be {one}"
        choices = f.metadata.get("choices")
        for v in value if many else (value,):
            if isinstance(v, bool) != (kind == "bool") or not isinstance(v, types):
                raise FieldError(name, f"{name} {what}, got {v!r}")
            if choices is not None and v not in choices:
                raise FieldError(name, f"unknown {name} {v!r}; expected one of {choices}")
            for rule, bound in f.metadata.items():
                if rule in _BOUNDS and not _BOUNDS[rule][0](v, bound):
                    need = "finite" if math.isinf(bound) else f"{_BOUNDS[rule][1]} {bound}"
                    raise FieldError(name, f"{name} must be {need}, got {v!r}")


@dataclass
class BlockPartition:
    """Index map for the b_out x b_in tiling of a (rows x cols) matrix.

    A block size of None means one full-extent tile on that side, and a
    block larger than its dimension is clamped to it, so b_out and b_in
    hold the size of a full tile as used; trailing tiles keep their natural
    (smaller) size.
    """

    rows: int
    cols: int
    b_out: int | None = None
    b_in: int | None = None

    def __post_init__(self):
        if self.rows < 1 or self.cols < 1:
            raise ValueError("cannot partition an empty matrix")
        for b in (self.b_out, self.b_in):
            if b is not None and b < 1:
                raise ValueError("block sizes must be >= 1")
        self.b_out = self.rows if self.b_out is None else min(self.b_out, self.rows)
        self.b_in = self.cols if self.b_in is None else min(self.b_in, self.cols)
        self.row_edges = list(range(0, self.rows, self.b_out)) + [self.rows]
        self.col_edges = list(range(0, self.cols, self.b_in)) + [self.cols]

    @property
    def n_out(self) -> int:
        return len(self.row_edges) - 1

    @property
    def n_in(self) -> int:
        return len(self.col_edges) - 1

    def __len__(self) -> int:
        return self.n_out * self.n_in

    @property
    def row_spans(self) -> list[tuple[int, int]]:
        return list(zip(self.row_edges, self.row_edges[1:]))

    @property
    def col_spans(self) -> list[tuple[int, int]]:
        return list(zip(self.col_edges, self.col_edges[1:]))

    def groups(self) -> list[TileGroup]:
        """The tiles split by shape: full tiles, the trailing column, the
        trailing row and the corner, each group in row-major tile order."""

        def runs(n: int, b: int) -> list[tuple[int, int, int]]:
            # (first block, block count, block size) per run of equal blocks
            full, rest = divmod(n, b)
            out = [(0, full, b)] if full else []
            if rest:
                out.append((full, 1, rest))
            return out

        groups = []
        for i0, n_down, b_out in runs(self.rows, self.b_out):
            for j0, n_across, b_in in runs(self.cols, self.b_in):
                indices = tuple(
                    (i0 + i) * self.n_in + j0 + j
                    for i in range(n_down)
                    for j in range(n_across)
                )
                groups.append(TileGroup(
                    i0 * self.b_out, j0 * self.b_in, (n_down, n_across), (b_out, b_in), indices
                ))
        return groups


@dataclass(frozen=True)
class TileGroup:
    """A grid of equal-shape tiles with its top-left corner at (row, col)."""

    row: int
    col: int
    grid: tuple[int, int]  # tiles down, tiles across
    shape: tuple[int, int]  # rows, cols of one tile
    indices: tuple[int, ...]  # row-major tile indices in the partition

    def view(self, a: np.ndarray) -> np.ndarray:
        """The grid + shape view of a's tiles in this group; writes go to a."""
        (n_down, n_across), (b_out, b_in) = self.grid, self.shape
        block = a[self.row:self.row + n_down * b_out, self.col:self.col + n_across * b_in]
        return block.reshape(n_down, b_out, n_across, b_in).swapaxes(1, 2)


@dataclass(frozen=True)
class LayerSpec:
    """Geometry of one weight matrix, plus its base-shape counterpart.

    The manifest sets base_d_in / base_d_out; an unset base dim is the
    layer's own dim, which never rescales. Block tiling is not geometry: it
    comes from the optimizer config.
    """

    name: str
    role: str
    d_in: int
    d_out: int
    in_residual: bool = False
    depth_l: int = 1
    base_d_in: int | None = None
    base_d_out: int | None = None

    def __post_init__(self) -> None:
        if self.role not in ROLES:
            raise ValueError(f"unknown role {self.role!r}; expected one of {ROLES}")
        if self.d_in < 1 or self.d_out < 1:
            raise ValueError(f"layer {self.name!r}: dims must be positive")
        if self.depth_l < 1:
            raise ValueError(f"layer {self.name!r}: depth_l must be >= 1")
        for b in (self.base_d_in, self.base_d_out):
            if b is not None and b < 1:
                raise ValueError(f"layer {self.name!r}: base dims must be positive")

    def base_shape(self) -> tuple[int, int]:
        """(base_d_in, base_d_out), an unset dim standing for the layer's own."""
        return (
            self.d_in if self.base_d_in is None else self.base_d_in,
            self.d_out if self.base_d_out is None else self.base_d_out,
        )


@dataclass(frozen=True)
class ScalingPlan:
    param: str = checked(choices=PARAMS)
    base_width: int = checked(ge=1)
    eta_base: float = checked(gt=0)
    base_depth: int = checked(1, ge=1)
    wd_base: float = checked(0.0, ge=0)
    wd_mode: str = checked("constant", choices=WD_SCALINGS)
    alpha_depth: float = checked(0.0, ge=0, le=1)

    def __post_init__(self) -> None:
        if isinstance(self.param, str):  # a non-string is check_fields' to reject
            object.__setattr__(self, "param", self.param.lower())
        check_fields(self)
        if self.param == "sp" and self.alpha_depth != 0.0:
            raise FieldError("alpha_depth", "sp fixes alpha_depth = 0")


@dataclass(frozen=True)
class LayerHyper:
    """One layer's row of the plan: everything per-layer that training uses.

    eps is the update rule's own damping, graft_eps the guard on the
    direction norm in the graft ratio and graft_ref_eps the damping inside
    the graft reference rule; the graft fields default to OptimizerConfig's
    defaults and are unused by ungrafted optimizers. Every value is finite.
    """

    eta: float = checked(gt=0, lt=math.inf)
    eps: float = checked(ge=0, lt=math.inf)
    sigma_init: float = checked(ge=0, lt=math.inf)
    residual_mult: float = checked(gt=-math.inf, lt=math.inf)
    lambda_wd: float = checked(ge=0, lt=math.inf)
    graft_eps: float = checked(0.0, ge=0, lt=math.inf)
    graft_ref_eps: float = checked(1e-8, ge=0, lt=math.inf)

    def __post_init__(self) -> None:
        check_fields(self)

    def optimizer(self, opt: OptimizerConfig) -> OptimizerConfig:
        """opt with every damping value taken from this row."""
        return replace(
            opt, eps=self.eps, graft_eps=self.graft_eps, graft_ref_eps=self.graft_ref_eps
        )


@dataclass(frozen=True)
class ModelManifest:
    width: int
    layers: tuple[LayerSpec, ...]

    def __post_init__(self) -> None:
        if self.width < 1:
            raise ValueError("width must be positive")
        if not self.layers:
            raise ValueError("manifest needs at least one layer")
        names = [s.name for s in self.layers]
        if len(set(names)) != len(names):
            raise ValueError("layer names must be unique")


def mlp_manifest(width: int, base_width: int, n_layers: int = 3) -> ModelManifest:
    """Scalar input, n_layers-1 hidden matrices of width d, scalar readout."""
    if n_layers < 2:
        raise ValueError("need at least two layers")
    layers = [LayerSpec("fc1", "hidden", d_in=1, d_out=width, base_d_out=base_width)]
    for i in range(2, n_layers):
        layers.append(
            LayerSpec(
                f"fc{i}", "hidden", d_in=width, d_out=width,
                base_d_in=base_width, base_d_out=base_width,
            )
        )
    layers.append(
        LayerSpec("readout", "readout", d_in=width, d_out=1, base_d_in=base_width)
    )
    return ModelManifest(width=width, layers=tuple(layers))


def resmlp_manifest(width: int, depth: int, base_width: int) -> ModelManifest:
    """Scalar embedding, depth residual blocks, scalar readout."""
    if depth < 1:
        raise ValueError("depth must be positive")
    layers = [
        LayerSpec("embed", "embedding", d_in=1, d_out=width, base_d_out=base_width)
    ]
    for i in range(1, depth + 1):
        layers.append(
            LayerSpec(
                f"block{i}", "hidden", d_in=width, d_out=width,
                in_residual=True, depth_l=depth,
                base_d_in=base_width, base_d_out=base_width,
            )
        )
    layers.append(
        LayerSpec("readout", "readout", d_in=width, d_out=1, base_d_in=base_width)
    )
    return ModelManifest(width=width, layers=tuple(layers))


def _base_geometry(spec: LayerSpec, plan: ScalingPlan) -> LayerSpec:
    """The same layer as it would appear in the base model."""
    base_in, base_out = spec.base_shape()
    return replace(
        spec,
        d_in=base_in,
        d_out=base_out,
        depth_l=plan.base_depth,
        base_d_in=base_in,
        base_d_out=base_out,
    )


def _depth(spec: LayerSpec) -> int:
    return spec.depth_l if spec.in_residual else 1


def _lr_formula(
    rule: str, e_l: float, e_r: float, spec: LayerSpec, opt: OptimizerConfig
) -> float:
    d_in, d_out, l = spec.d_in, spec.d_out, _depth(spec)
    if rule == "sgd":
        return l * d_out / d_in
    if rule in ("adam", "adamuon"):
        return 1.0 / d_in
    if rule == "muon":
        return math.sqrt(d_out / d_in)
    if rule == "shampoo":
        s = e_l + e_r
        n_blk = len(BlockPartition(d_out, d_in, opt.block_out, opt.block_in))
        return (d_out / d_in) ** (1.0 - s) / (l ** (2.0 * s - 1.0) * n_blk**s)
    if rule == "soap":
        tiles = BlockPartition(d_out, d_in, opt.block_out, opt.block_in)
        return tiles.b_out ** (e_l / 2.0) * tiles.b_in ** (e_r / 2.0) / d_in
    raise ValueError(f"no learning-rate rule for {rule!r}")


def _eps_formula(
    rule: str, e_l: float, e_r: float, spec: LayerSpec, opt: OptimizerConfig
) -> float:
    d_in, d_out, l = spec.d_in, spec.d_out, _depth(spec)
    if rule == "sgd":
        return 1.0
    if rule == "adam":
        return 1.0 / (l * d_out)
    if rule == "muon":
        return math.sqrt(d_in / d_out) / l
    if rule == "adamuon":
        return 1.0 / math.sqrt(d_in * d_out)
    if rule == "shampoo":
        n_blk = len(BlockPartition(d_out, d_in, opt.block_out, opt.block_in))
        return d_in / (l**2 * d_out * n_blk)
    if rule == "soap":
        tiles = BlockPartition(d_out, d_in, opt.block_out, opt.block_in)
        return tiles.b_out ** (e_l / 2.0) * tiles.b_in ** (e_r / 2.0) / (l * d_out)
    raise ValueError(f"no damping rule for {rule!r}")


def _lr_column(opt: OptimizerConfig) -> tuple[str, float, float]:
    """Pick (rule, e_l, e_r) governing the learning-rate column."""
    if opt.graft_rule is not None:
        # norm comes from the reference optimizer, so its rule sets the lr
        return opt.graft_rule, 0.0, 0.0
    return opt.rule, opt.e_l, opt.e_r


def _ratio(
    formula, column: tuple[str, float, float], spec: LayerSpec, opt: OptimizerConfig,
    plan: ScalingPlan,
) -> float:
    """formula at the layer's shape over formula at its base shape."""
    return formula(*column, spec, opt) / formula(*column, _base_geometry(spec, plan), opt)


def check_pair(opt: OptimizerConfig, plan: ScalingPlan) -> None:
    """Reject a parameterization that does not apply to the optimizer."""
    if plan.param in ALT_MUON_PARAMS and (opt.rule != "muon" or opt.graft_rule):
        raise FieldError(
            "param",
            f"parameterization {plan.param!r} applies only to plain muon, "
            f"got rule {opt.rule!r}"
            + (f" grafted onto {opt.graft_rule!r}" if opt.graft_rule else "")
        )


def lr_multiplier(spec: LayerSpec, opt: OptimizerConfig, plan: ScalingPlan) -> float:
    """Per-layer learning-rate factor relative to the base shape."""
    check_pair(opt, plan)
    if plan.param in ("sp", "spectral_norm"):
        return 1.0
    if plan.param in ALT_MUON_PARAMS:
        return alt_muon_multiplier(spec, plan.param)
    return _ratio(_lr_formula, _lr_column(opt), spec, opt, plan)


def _guard_formula(
    rule: str, e_l: float, e_r: float, spec: LayerSpec, opt: OptimizerConfig
) -> float:
    """Graft guard on the direction norm: sqrt(d_out/d_in) / lr_formula(Q2)."""
    return math.sqrt(spec.d_out / spec.d_in) / _lr_formula(rule, e_l, e_r, spec, opt)


def _damping(spec: LayerSpec, opt: OptimizerConfig, plan: ScalingPlan) -> dict[str, float]:
    """The layer's eps, graft_eps and graft_ref_eps: opt's values times their
    ratio to the base shape.

    Every ratio is 1 under sp and spectral_norm. Relative-mode Shampoo damping
    already tracks the factor spectrum, so its eps ratio is 1 too, and
    ungrafted configs leave the graft values at ratio 1.
    """
    scale = {"eps": 1.0, "graft_eps": 1.0, "graft_ref_eps": 1.0}
    own = (opt.rule, opt.e_l, opt.e_r)
    if plan.param not in ("sp", "spectral_norm"):
        if not (opt.rule == "shampoo" and opt.eps_mode == "relative"):
            scale["eps"] = _ratio(_eps_formula, own, spec, opt, plan)
        if opt.graft_rule is not None:
            scale["graft_eps"] = _ratio(_guard_formula, own, spec, opt, plan)
            ref = (opt.graft_rule, 0.0, 0.0)
            scale["graft_ref_eps"] = _ratio(_eps_formula, ref, spec, opt, plan)
    return {name: getattr(opt, name) * ratio for name, ratio in scale.items()}


def init_sigma(spec: LayerSpec) -> float:
    if spec.role == "hidden":
        return HIDDEN_INIT_C / math.sqrt(spec.d_in)
    if spec.role == "embedding":
        return EMBEDDING_INIT_SIGMA
    # readout is zero-initialized
    return 0.0


def residual_multiplier(depth: int, alpha: float) -> float:
    if depth < 1:
        raise ValueError("depth must be positive")
    return float(depth) ** (-alpha)


def wd_scale(width: int, base_width: int, mode: str) -> float:
    if mode not in WD_SCALINGS:
        raise ValueError(f"unknown wd_mode {mode!r}")
    if width < 1 or base_width < 1:
        raise ValueError("widths must be positive")
    if mode == "constant":
        return 1.0
    return base_width / width


def alt_muon_multiplier(spec: LayerSpec, variant: str) -> float:
    """Learning-rate factor under the published Muon heuristics.

    muon_kimi_theta1 rescales by gamma = 0.2 sqrt(max(d_in, d_out));
    muon_kimi_adamexp additionally carries Adam's 1/d_in exponent;
    muon_adamexp uses the 1/d_in exponent alone.
    """
    if variant not in ALT_MUON_PARAMS:
        raise ValueError(f"unknown muon variant {variant!r}")
    base_in, base_out = spec.base_shape()
    gamma_ratio = math.sqrt(max(spec.d_in, spec.d_out) / max(base_in, base_out))
    if variant == "muon_kimi_theta1":
        return gamma_ratio
    if variant == "muon_kimi_adamexp":
        return gamma_ratio * base_in / spec.d_in
    return base_in / spec.d_in


def build_plan(
    manifest: ModelManifest,
    opt: OptimizerConfig,
    plan: ScalingPlan,
) -> dict[str, LayerHyper]:
    """Assemble the per-layer hyperparameter table for one model."""
    lam = plan.wd_base * wd_scale(manifest.width, plan.base_width, plan.wd_mode)
    table: dict[str, LayerHyper] = {}
    for spec in manifest.layers:
        table[spec.name] = LayerHyper(
            eta=plan.eta_base * lr_multiplier(spec, opt, plan),
            **_damping(spec, opt, plan),
            sigma_init=init_sigma(spec),
            residual_mult=(
                residual_multiplier(spec.depth_l, plan.alpha_depth)
                if spec.in_residual
                else 1.0
            ),
            lambda_wd=lam,
        )
    return table


def plan_to_json(table: dict[str, LayerHyper]) -> str:
    return json.dumps({name: asdict(h) for name, h in table.items()}, indent=2)
