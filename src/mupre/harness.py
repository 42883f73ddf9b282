"""Verification experiments over the testbed models.

Coordinate checks and learning-rate sweeps across width, depth-scaling
checks, stable-rank scans, closed-form rank-1 oracles for the optimizer
updates, log-log exponent regression, and compute-multiplier estimation.
Every run is deterministic given its seeds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from .config import AXES, EXPERIMENTS, OptimizerConfig, SweepConfig
from .linalg import (
    NS_DEFAULT_EPS,
    NS_QUINTIC,
    NonFiniteError,
    PowerIterState,
    ns_schedule,
)
from .models import MlpModel, coord_probe, make_teacher, synth_batch
from .optim import (
    LayerState,
    UpdateReport,
    apply_weight_decay,
    optimizer_step,
    rms_normalize,
    spectral_normalize,
)
from .scaling import (
    BlockPartition,
    LayerHyper,
    LayerSpec,
    ModelManifest,
    ScalingPlan,
    build_plan,
    lr_multiplier,
)

CSV_HEADER = "run_id,width,depth,step,eta_base,loss,layer,delta_h_rms,srank,spec_norm"

# stride separating per-step batch seeds between runs
_SEED_STRIDE = 1_000_003


@dataclass(frozen=True)
class MetricRecord:
    run_id: str
    width: int
    depth: int
    step: int
    eta_base: float
    loss: float
    layer: str
    delta_h_rms: float
    srank: float
    spec_norm: float


@dataclass
class RunResult:
    run_id: str
    width: int
    depth: int
    eta_base: float
    seed: int
    diverged: bool
    final_loss: float
    losses: tuple[float, ...]
    records: list[MetricRecord]
    layer_names: tuple[str, ...]

    @property
    def steps_completed(self) -> int:
        return len(self.losses)


@dataclass(frozen=True)
class CoordCheckResult:
    slopes: dict[int, dict[str, tuple[float, float]]]
    runs: list[RunResult]
    excluded: list[str]


@dataclass(frozen=True)
class LrSweepResult:
    """argmin is None at a width where every eta diverged. drift_octaves is
    the largest spread of log2(argmin) over all widths, None when any width
    has no argmin."""

    losses: dict[int, dict[float, float]]
    argmin: dict[int, float | None]
    drift_octaves: float | None
    runs: list[RunResult]


@dataclass(frozen=True)
class RankScanResult:
    summary: dict[int, dict[str, tuple[float, float]]]
    runs: list[RunResult]


@dataclass(frozen=True)
class MultiplierEstimate:
    value: float
    flagged: bool
    extrapolated: bool


@dataclass(frozen=True)
class ExponentCheck:
    measured_slope: float
    multiplier_slope: float
    r2: float


def _opt_tag(opt: OptimizerConfig) -> str:
    if opt.graft_rule is None:
        return opt.rule
    return f"{opt.graft_rule}.graft.{opt.rule}"


def _run_id(cfg: SweepConfig, width: int, depth: int, eta_base: float, seed: int) -> str:
    return (
        f"{cfg.arch}_{cfg.plan.param}_{_opt_tag(cfg.opt)}"
        f"_w{width}_d{depth}_lr{eta_base!r}_s{seed}"
    )


def run_training(
    cfg: SweepConfig, width: int, depth: int, eta_base: float, seed: int
) -> RunResult:
    """Train one model, recording probes. A NonFiniteError or LinAlgError
    from any step, probes included, stops the run as diverged; any other
    error propagates."""
    plan = replace(cfg.plan, eta_base=eta_base)
    manifest = cfg.manifest(width, depth)
    table = build_plan(manifest, cfg.opt, plan)
    specs = {s.name: s for s in manifest.layers}
    model = MlpModel.build(manifest, table, seed=seed, activation=cfg.activation)

    layer_cfgs = {n: table[n].optimizer(cfg.opt) for n in specs}
    states = {n: LayerState() for n in specs}
    pi_states = {
        n: PowerIterState(v=np.ones(specs[n].d_in) / math.sqrt(specs[n].d_in))
        for n in specs
    }
    teacher = make_teacher(cfg.teacher_seed)
    probe = synth_batch(cfg.probe_seed, cfg.probe_batch, teacher)
    run_id = _run_id(cfg, width, depth, eta_base, seed)
    probe_set = set(cfg.probe_steps)

    records: list[MetricRecord] = []
    losses: list[float] = []
    diverged = False
    cache_post = None  # the probe cache of the current weights, if taken
    try:
        for t in range(1, cfg.steps + 1):
            batch = synth_batch(seed * _SEED_STRIDE + t, cfg.batch_size, teacher)
            loss, cache = model.forward(batch)
            limit = cfg.divergence_factor * max(losses[0] if losses else loss, 1e-12)
            if not (math.isfinite(loss) and loss <= limit):
                raise NonFiniteError(f"step {t} loss {loss!r} is non-finite or past {limit!r}")
            losses.append(loss)
            grads, factors = model.backward(cache)
            recording = t in probe_set or (cfg.record_every > 0 and t % cfg.record_every == 0)
            cache_pre = None
            if recording:
                # the weights have not changed since step t - 1's probe, if
                # that step took one
                cache_pre = model.forward(probe)[1] if cache_post is None else cache_post
            cache_post = None
            applied: dict[str, UpdateReport] = {}
            for name in model.layer_names:
                spec = specs[name]
                state = states[name]
                state.factors = factors.pop(name)  # the step reads and clears them
                report = optimizer_step(state, grads.pop(name), layer_cfgs[name])
                update = report.update
                if cfg.opt.normalize == "spectral":
                    update, pi_states[name] = spectral_normalize(
                        update, pi_states[name], spec.d_out, spec.d_in
                    )
                elif cfg.opt.normalize == "rms":
                    update = rms_normalize(update, spec.d_out, spec.d_in)
                hyper = table[name]
                w = model.weights[name]
                if hyper.lambda_wd > 0:
                    w = apply_weight_decay(w, hyper.lambda_wd, cfg.wd_variant, hyper.eta)
                model.weights[name] = w - hyper.eta * update
                del w  # the replaced weights must not outlive this layer's step
                if recording:
                    applied[name] = report if update is report.update else UpdateReport(update)
            if not recording:
                continue
            cache_post = model.forward(probe)[1]
            step_records = []  # kept only once every layer's probe is finite
            for name in model.layer_names:
                rms = coord_probe(cache_pre, cache_post, name)
                rep = applied[name]
                if not (math.isfinite(rms) and math.isfinite(rep.frob)):
                    raise NonFiniteError(f"step {t} {name} probe or update is non-finite")
                step_records.append(
                    MetricRecord(
                        run_id=run_id, width=width, depth=depth, step=t,
                        eta_base=eta_base, loss=loss, layer=name,
                        delta_h_rms=rms, srank=rep.srank, spec_norm=rep.spec,
                    )
                )
            records.extend(step_records)
    except (np.linalg.LinAlgError, NonFiniteError):
        # a blown-up loss, an overflowed gradient, accumulator, update or
        # probe, or a failed solver
        diverged = True
    final_loss = math.inf if diverged else losses[-1]
    return RunResult(
        run_id=run_id, width=width, depth=depth, eta_base=eta_base, seed=seed,
        diverged=diverged, final_loss=final_loss, losses=tuple(losses),
        records=records, layer_names=tuple(model.layer_names),
    )


def _run_cells(cfg: SweepConfig, name: str, mapper) -> list[RunResult]:
    """Train every cell of the command `name`, once its preconditions hold;
    mapper(fn, widths, depths, etas, seeds) works as the builtin map."""
    cfg.require(name)
    return list((mapper or map)(partial(run_training, cfg), *zip(*cfg.cells(name))))


def _probe_slopes(cfg: SweepConfig, name: str, mapper) -> CoordCheckResult:
    """Run the command's cells and fit log-log slopes of delta_h_rms
    against each undiverged run's value on the fit axis."""
    runs = _run_cells(cfg, name, mapper)
    key = AXES[EXPERIMENTS[name].fit]
    excluded = [r.run_id for r in runs if r.diverged]
    valid = [r for r in runs if not r.diverged]
    slopes: dict[int, dict[str, tuple[float, float]]] = {}
    for step in cfg.probe_steps:
        per_layer: dict[str, tuple[list[float], list[float]]] = {}
        for run in valid:
            for rec in run.records:
                if rec.step == step and rec.delta_h_rms > 0:
                    xs, ys = per_layer.setdefault(rec.layer, ([], []))
                    xs.append(float(getattr(run, key)))
                    ys.append(rec.delta_h_rms)
        fitted = {layer: exponent_fit(xs, ys)
                  for layer, (xs, ys) in per_layer.items() if len(xs) >= 2}
        if fitted:
            slopes[step] = fitted
    return CoordCheckResult(slopes=slopes, runs=runs, excluded=excluded)


def coordcheck(cfg: SweepConfig, mapper=None) -> CoordCheckResult:
    """Feature-update growth across width at fixed eta_base."""
    return _probe_slopes(cfg, "coordcheck", mapper)


def depthcheck(cfg: SweepConfig, mapper=None) -> CoordCheckResult:
    """Feature-update growth across depth at fixed width (residual model)."""
    return _probe_slopes(cfg, "depthcheck", mapper)


def lrsweep(cfg: SweepConfig, mapper=None) -> LrSweepResult:
    """Final loss over the width x eta_base grid, averaged over seeds, plus
    optimum drift."""
    runs = _run_cells(cfg, "lrsweep", mapper)
    fit = EXPERIMENTS["lrsweep"].fit
    totals = {value: dict.fromkeys(cfg.lr_grid, 0.0) for value in getattr(cfg, fit)}
    for run in runs:
        totals[getattr(run, AXES[fit])][run.eta_base] += run.final_loss
    losses = {value: {eta: total / len(cfg.seeds) for eta, total in row.items()}
              for value, row in totals.items()}
    argmin = {value: min(row, key=lambda eta: (row[eta], eta))
              if any(math.isfinite(loss) for loss in row.values()) else None
              for value, row in losses.items()}
    drift = None
    if None not in argmin.values():
        octaves = [math.log2(eta) for eta in argmin.values()]
        drift = max(octaves) - min(octaves)
    return LrSweepResult(losses=losses, argmin=argmin, drift_octaves=drift, runs=runs)


def rankscan(cfg: SweepConfig, mapper=None) -> RankScanResult:
    """Per-step stable rank and spectral norm of every layer's update."""
    runs = _run_cells(replace(cfg, record_every=1), "rankscan", mapper)
    key = AXES[EXPERIMENTS["rankscan"].fit]
    summary: dict[int, dict[str, tuple[float, float]]] = {}
    for run in runs:
        if run.records:  # in step order, each step with every layer
            srank = {(r.step, r.layer): r.srank for r in run.records}
            first, last = run.records[0].step, run.records[-1].step
            summary[getattr(run, key)] = {
                layer: (srank[first, layer], srank[last, layer]) for layer in run.layer_names
            }
    return RankScanResult(summary=summary, runs=runs)


# ---------------------------------------------------------------------------
# closed-form oracles


def _ns_scalar(s: float, iters: int, eps: float) -> float:
    """Scalar shadow of the orthogonalization iteration on a rank-1 input.

    A rank-1 matrix stays rank-1 through the iteration, so the whole matrix
    recursion collapses to this recursion on its single singular value.
    """
    a, b, c = NS_QUINTIC
    y = s / (s + eps)
    for polish in ns_schedule(iters):
        g = y * y
        if polish:
            y = 1.5 * y - 0.5 * y * g
        else:
            y = a * y + b * y * g + c * y * g * g
    return y


def _elementwise_adam(delta, x, x_probe, eps):
    g = np.outer(delta, x)
    q = np.divide(g, np.abs(g) + eps, out=np.zeros_like(g), where=g != 0)
    return q @ x_probe, float(np.linalg.norm(q))


def _rank1_shampoo(opt, delta, x, x_probe, eps):
    s = opt.e_l + opt.e_r
    out = np.zeros_like(delta)
    frob2 = 0.0
    tiles = BlockPartition(delta.size, x.size, opt.block_out, opt.block_in)
    for r0, r1 in tiles.row_spans:
        di = delta[r0:r1]
        ndi = float(di @ di)
        if ndi == 0.0:
            continue
        acc = 0.0
        for c0, c1 in tiles.col_spans:
            xj = x[c0:c1]
            lam = ndi * float(xj @ xj)
            if lam == 0.0:
                continue
            eff = eps * lam if opt.eps_mode == "relative" else eps
            coeff = (lam + eff) ** (-s)
            acc += coeff * float(xj @ x_probe[c0:c1])
            frob2 += coeff * coeff * lam
        out[r0:r1] = acc * di
    return out, math.sqrt(frob2)


def _rank1_soap(opt, delta, x, x_probe, eps):
    out = np.zeros_like(delta)
    frob2 = 0.0
    two_sided = opt.e_l == 1.0 and opt.e_r == 1.0
    tiles = BlockPartition(delta.size, x.size, opt.block_out, opt.block_in)
    for r0, r1 in tiles.row_spans:
        di = delta[r0:r1]
        ndi = float(np.linalg.norm(di))
        for c0, c1 in tiles.col_spans:
            xj = x[c0:c1]
            xpj = x_probe[c0:c1]
            nxj = float(np.linalg.norm(xj))
            if ndi == 0.0 or nxj == 0.0:
                continue
            if two_sided:
                sv = ndi * nxj
                coeff = sv / (sv + eps)
                out[r0:r1] += coeff * float(xj @ xpj) / (ndi * nxj) * di
                frob2 += coeff * coeff
            elif opt.e_r == 1.0:
                # right basis rotated; rows stay elementwise
                h = di * nxj / (np.abs(di) * nxj + eps)
                out[r0:r1] += h * (float(xj @ xpj) / nxj)
                frob2 += float(h @ h)
            elif opt.e_l == 1.0:
                h = xj * ndi / (np.abs(xj) * ndi + eps)
                out[r0:r1] += (di / ndi) * float(h @ xpj)
                frob2 += float(h @ h)
            else:
                block_out, block_frob = _elementwise_adam(di, xj, xpj, eps)
                out[r0:r1] += block_out
                frob2 += block_frob * block_frob
    return out, math.sqrt(frob2)


def _rank1_direction(opt: OptimizerConfig, rule: str, delta, x, x_probe, eps):
    """(Q(delta x^T) @ x_probe, frobenius(Q)) for one rule at t=1, betas=0."""
    if rule == "sgd":
        return delta * float(x @ x_probe), float(np.linalg.norm(delta) * np.linalg.norm(x))
    if rule == "adam":
        return _elementwise_adam(delta, x, x_probe, eps)
    if rule == "muon":
        nd, nx = float(np.linalg.norm(delta)), float(np.linalg.norm(x))
        c = _ns_scalar(nd * nx, opt.ns_iters, eps)
        return (c / (nd * nx)) * delta * float(x @ x_probe), c
    if rule == "adamuon":
        nd, nx = float(np.linalg.norm(delta)), float(np.linalg.norm(x))
        c = _ns_scalar(nd * nx, opt.ns_iters, NS_DEFAULT_EPS)
        o = np.outer((c / nd) * delta, x / nx)
        q = np.divide(o, np.abs(o) + eps, out=np.zeros_like(o), where=o != 0)
        frob = float(np.linalg.norm(q))
        if opt.rms_align and frob > 0.0:
            target = 0.2 * math.sqrt(o.shape[0] * o.shape[1])
            q *= target / frob
            frob = target
        return q @ x_probe, frob
    if rule == "shampoo":
        return _rank1_shampoo(opt, delta, x, x_probe, eps)
    if rule == "soap":
        return _rank1_soap(opt, delta, x, x_probe, eps)
    raise ValueError(f"no closed form for rule {rule!r}")


def rank1_oracle(
    opt: OptimizerConfig,
    delta: np.ndarray,
    x: np.ndarray,
    x_probe: np.ndarray,
    hyper: LayerHyper,
) -> np.ndarray:
    """Analytic eta * Q(delta x^T) @ x_probe from inner products and scalars.

    Evaluates the update rule at step 1 with zero momentum constants, the
    regime where the single-sample gradient is exactly rank 1. opt supplies
    the rule and its shape; every damping value comes from hyper.
    """
    delta = np.asarray(delta, dtype=np.float64).ravel()
    x = np.asarray(x, dtype=np.float64).ravel()
    x_probe = np.asarray(x_probe, dtype=np.float64).ravel()
    if x.shape != x_probe.shape:
        raise ValueError("x and x_probe must have the same length")
    if not np.any(delta) or not np.any(x):
        raise ValueError("delta and x must be nonzero")
    out, frob = _rank1_direction(opt, opt.rule, delta, x, x_probe, hyper.eps)
    if opt.graft_rule is None:
        return hyper.eta * out
    _, ref_frob = _rank1_direction(opt, opt.graft_rule, delta, x, x_probe, hyper.graft_ref_eps)
    if frob == 0.0:
        return np.zeros_like(out)
    return hyper.eta * (ref_frob / (frob + hyper.graft_eps)) * out


def exponent_fit(xs, ys) -> tuple[float, float]:
    """Least-squares slope and r^2 of log(ys) against log(xs)."""
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    if xs.shape != ys.shape or xs.ndim != 1 or xs.size < 2:
        raise ValueError("need at least two matching points")
    if np.any(xs <= 0) or np.any(ys <= 0):
        raise ValueError("log-log fit needs positive values")
    lx, ly = np.log(xs), np.log(ys)
    slope, intercept = np.polyfit(lx, ly, 1)
    resid = ly - (slope * lx + intercept)
    ss_tot = float(np.sum((ly - ly.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - float(np.sum(resid**2)) / ss_tot
    return float(slope), r2


def compute_multiplier(
    baseline: list[tuple[float, float]], candidate: tuple[float, float]
) -> MultiplierEstimate:
    """How much more compute the baseline needs to reach the candidate's loss.

    Interpolates the baseline (compute, loss) series linearly in log-log
    space; outside the observed range the two nearest points extrapolate.
    Non-monotone series are reduced to their strictly-improving envelope
    and the estimate is flagged. A baseline compute that overflows or
    underflows float64 raises ValueError.
    """
    if len(baseline) < 2:
        raise ValueError("baseline series needs at least two points")
    cand_c, cand_l = candidate
    if cand_c <= 0 or cand_l <= 0:
        raise ValueError("candidate compute and loss must be positive")
    pts = sorted(baseline)
    if any(c <= 0 or l <= 0 for c, l in pts):
        raise ValueError("baseline points must be positive")
    envelope: list[tuple[float, float]] = []
    flagged = False
    best = math.inf
    for c, l in pts:
        if l < best:
            envelope.append((c, l))
            best = l
        else:
            flagged = True
    if len(envelope) < 2:
        raise ValueError("monotone envelope has fewer than two points")
    log_c = np.log([c for c, _ in envelope])
    log_l = np.log([l for _, l in envelope])
    # losses fall as compute grows; reverse for an ascending interpolation axis
    xs, ys = log_l[::-1], log_c[::-1]
    target = math.log(cand_l)
    # the segment holding target, or the end segment nearest it
    i = min(max(int(np.searchsorted(xs, target)), 1), len(xs) - 1)
    slope = (ys[i] - ys[i - 1]) / (xs[i] - xs[i - 1])
    with np.errstate(over="ignore"):
        base_c = float(np.exp(slope * (target - xs[i - 1]) + ys[i - 1]))
    if not 0.0 < base_c < math.inf:
        raise ValueError(
            f"baseline compute extrapolated to loss {cand_l!r} is outside float64 range"
        )
    extrapolated = bool(target < log_l[-1] or target > log_l[0])
    return MultiplierEstimate(value=base_c / cand_c, flagged=flagged,
                              extrapolated=extrapolated)


def mup_exponent_check(
    opt: OptimizerConfig,
    plan: ScalingPlan,
    widths: tuple[int, ...],
    seed: int = 0,
    n_draws: int = 8,
) -> ExponentCheck:
    """End-to-end check that measured update growth matches the lr formula.

    Feeds rank-1 gradients delta x^T with delta entries ~ 1/D to the oracle
    at eta=1 and regresses rms(Q x') against width; the negative of that
    slope should equal the learning-rate multiplier's slope.
    """
    rng = np.random.default_rng(seed)
    # eta is pinned to 1 below, so eta_base must not overflow the probe plan
    probe_plan = replace(plan, eta_base=1.0)
    rms_means = []
    mults = []
    for width in widths:
        spec = LayerSpec(
            "probe", "hidden", d_in=width, d_out=width,
            base_d_in=plan.base_width, base_d_out=plan.base_width,
        )
        manifest = ModelManifest(width=width, layers=(spec,))
        hyper = replace(build_plan(manifest, opt, probe_plan)["probe"], eta=1.0)
        vals = []
        for _ in range(n_draws):
            delta = rng.standard_normal(width) / width
            x = rng.standard_normal(width)
            z = rng.standard_normal(width)
            x_probe = 0.5 * x + math.sqrt(1.0 - 0.25) * z
            v = rank1_oracle(opt, delta, x, x_probe, hyper)
            vals.append(float(np.linalg.norm(v)) / math.sqrt(width))
        rms_means.append(float(np.mean(vals)))
        mults.append(lr_multiplier(spec, opt, plan))
    measured, r2 = exponent_fit(widths, rms_means)
    predicted, _ = exponent_fit(widths, mults)
    return ExponentCheck(measured_slope=measured, multiplier_slope=predicted, r2=r2)


def oracle_agreement(
    opt: OptimizerConfig,
    n_draws: int = 100,
    seed: int = 0,
    d_out: int = 12,
    d_in: int = 9,
) -> float:
    """Max relative gap between rank1_oracle and the full optimizer step.

    eps draws stay above 1e-5: the dense eigendecomposition reference itself
    carries rounding noise of order (lambda / eps) * machine epsilon, so
    smaller guards would drown a 1e-8 comparison in reference error.
    """
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_draws):
        delta = rng.standard_normal(d_out)
        x = rng.standard_normal(d_in)
        x_probe = rng.standard_normal(d_in)
        eta = 10.0 ** rng.uniform(-1, 1)
        eps = 10.0 ** rng.uniform(-5, -2)
        hyper = LayerHyper(eta=eta, eps=eps, sigma_init=0.0, residual_mult=1.0,
                           lambda_wd=0.0, graft_eps=opt.graft_eps,
                           graft_ref_eps=opt.graft_ref_eps)
        analytic = rank1_oracle(opt, delta, x, x_probe, hyper)
        cfg = replace(hyper.optimizer(opt), beta1=0.0, beta2=0.0)
        report = optimizer_step(LayerState(), np.outer(delta, x), cfg)
        full = eta * (report.update @ x_probe)
        scale = max(float(np.linalg.norm(full)), 1e-30)
        worst = max(worst, float(np.linalg.norm(analytic - full)) / scale)
    return worst


def muon_svd_error(
    opt: OptimizerConfig,
    n_draws: int = 100,
    seed: int = 0,
    d_out: int = 12,
    d_in: int = 9,
) -> float:
    """Max relative gap between rank1_oracle for muon and exact msign.

    The reference orthogonalization comes from an SVD, an independent route
    from the polynomial iteration; the gap bounds how far the iteration sits
    from the true nearest semi-orthogonal matrix on these inputs.
    """
    if opt.rule != "muon":
        raise ValueError("the SVD reference is defined for the muon rule")
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_draws):
        delta = rng.standard_normal(d_out)
        x = rng.standard_normal(d_in)
        x_probe = rng.standard_normal(d_in)
        hyper = LayerHyper(eta=1.0, eps=opt.eps, sigma_init=0.0, residual_mult=1.0,
                           lambda_wd=0.0)
        got = rank1_oracle(opt, delta, x, x_probe, hyper)
        u, _, vt = np.linalg.svd(np.outer(delta, x), full_matrices=False)
        want = (u[:, :1] @ vt[:1]) @ x_probe
        scale = max(float(np.linalg.norm(want)), 1e-30)
        worst = max(worst, float(np.linalg.norm(got - want)) / scale)
    return worst


def records_csv(records: list[MetricRecord]) -> str:
    """Render records with a fixed header; floats via repr for determinism."""
    lines = [CSV_HEADER]
    for r in records:
        lines.append(
            f"{r.run_id},{r.width},{r.depth},{r.step},{float(r.eta_base)!r},"
            f"{float(r.loss)!r},{r.layer},{float(r.delta_h_rms)!r},"
            f"{float(r.srank)!r},{float(r.spec_norm)!r}"
        )
    return "\n".join(lines) + "\n"


def run_summary(result: RunResult) -> dict:
    return {
        "run_id": result.run_id,
        "width": result.width,
        "depth": result.depth,
        "eta_base": result.eta_base,
        "seed": result.seed,
        "diverged": result.diverged,
        "final_loss": result.final_loss,
        "steps_completed": result.steps_completed,
    }
