"""Monte Carlo harness: memory trials, lifetime simulation, threshold scans,
iteration statistics, and the logical-error-rate scaling fit.

Trials are independent work items; each draws its own generator from
(seed, trial index), so results are bit-identical for a fixed seed
regardless of how trials are partitioned across processes.  Shared state
(layout, circuit, decoding graphs) is built once and inherited read-only
by forked workers.
"""

from __future__ import annotations

import math
import os
from collections import Counter
from dataclasses import asdict, dataclass, field

import numpy as np

from .code import build_layout, build_se_circuit, ideal_syndrome
from .graph import MIN_DECODING_DISTANCE, build_decoder_graphs
from .irmwpm import STOPPING_MODES, decode
from .matcher import events_to_nodes
from .noise import NoiseParams, sample_faults, simulate
from .pauli import PauliOperator, commutation_parity, multiply

DECODERS = ("mwpm", "irmwpm")


class FitError(ValueError):
    """The scaling fit is ill-posed for the supplied data."""


@dataclass(frozen=True)
class SimConfig:
    """One Monte Carlo configuration."""

    L: int
    p: float
    trials: int
    seed: int = 0
    T: int | None = None  # rounds per decoding window; default L
    decoder: str = "irmwpm"
    max_iterations: int = 10
    stopping: str = "consecutive"
    check_period: int | None = None  # lifetime check period, multiple of T; default L
    threads: int | None = None  # default: available parallelism
    idle_noise: bool = True
    reweight_boundary: bool = True
    lifetime_cap: int = 1_000_000
    # keep only each event's m nearest partners in matching (None = exact)
    prune_neighbors: int | None = None

    def __post_init__(self):
        if self.L < MIN_DECODING_DISTANCE:
            raise ValueError(
                f"decoding needs distance >= {MIN_DECODING_DISTANCE}, got {self.L}: "
                "below it, faults with one detection signature act differently "
                "on the logical qubit"
            )
        if not 0.0 < self.p < 1.0:
            raise ValueError("p must be in (0, 1)")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.rounds < 1:
            raise ValueError("rounds must be >= 1")
        if self.decoder not in DECODERS:
            raise ValueError(f"decoder must be one of {DECODERS}")
        if self.max_iterations < 0:
            raise ValueError("max_iterations must be >= 0")
        if self.stopping not in STOPPING_MODES:
            raise ValueError(f"stopping must be one of {STOPPING_MODES}")
        for name in ("check_period", "threads", "prune_neighbors"):
            if getattr(self, name) is not None and getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.lifetime_cap < 1:
            raise ValueError("lifetime_cap must be >= 1")

    @property
    def rounds(self) -> int:
        return self.T if self.T is not None else self.L

    @property
    def n_threads(self) -> int:
        return self.threads or max(1, os.cpu_count() or 1)


@dataclass
class RateEstimate:
    """Logical error rate per decoding window with a Wilson 95% interval."""

    L: int
    T: int
    p: float
    decoder: str
    trials: int
    failures: int
    mean_extra_iterations: float
    monotonicity_violations: int
    ci_low: float
    ci_high: float
    nonconverged: int = 0
    iteration_histogram: dict = field(default_factory=dict)

    @property
    def rate(self) -> float:
        return self.failures / self.trials

    def to_row(self) -> dict:
        return {
            "distance": self.L,
            "rounds": self.T,
            "p": self.p,
            "decoder": self.decoder,
            "trials": self.trials,
            "failures": self.failures,
            "rate": self.rate,
            "ci_low": self.ci_low,
            "ci_high": self.ci_high,
            "mean_extra_iterations": self.mean_extra_iterations,
            "monotonicity_violations": self.monotonicity_violations,
            "nonconverged": self.nonconverged,
        }


#: the normal quantile of a two-sided 95% interval
WILSON_Z = 1.959964


def wilson_interval(failures: int, trials: int) -> tuple[float, float]:
    """Wilson score interval (95%) for a binomial proportion.

    The bounds are exactly 0 with no failures and exactly 1 when every
    trial fails, where rounding would leave them a few ulps inside.
    """
    if trials == 0:
        return (0.0, 1.0)
    z = WILSON_Z
    phat = failures / trials
    denom = 1 + z * z / trials
    center = (phat + z * z / (2 * trials)) / denom
    half = (z / denom) * math.sqrt(
        phat * (1 - phat) / trials + z * z / (4 * trials * trials)
    )
    lo = 0.0 if failures == 0 else max(0.0, center - half)
    hi = 1.0 if failures == trials else min(1.0, center + half)
    return (lo, hi)


@dataclass
class _Context:
    """Shared immutable per-configuration state."""

    config: SimConfig
    layout: object
    circuit: object
    gx: object
    gz: object


def _build_context(config: SimConfig) -> _Context:
    layout = build_layout(config.L)
    circuit = build_se_circuit(layout)
    gx, gz = build_decoder_graphs(config.L, config.rounds, config.p, config.idle_noise)
    return _Context(config, layout, circuit, gx, gz)


def _run_window(ctx: _Context, rng: np.random.Generator, initial_error=None):
    """T noisy rounds from ``initial_error`` plus a perfect readout, decoded.

    The sampler's (row, round) faults go as they are to both consumers.  A
    memory window (no ``initial_error``) reads its detection events and
    residual from the graphs' one-round single-fault table: frames are
    linear, so they are the XOR of its faults' signatures shifted to their
    rounds.  A window that starts from an initial error reads the same
    table through ``simulate``, which adds the error.
    Returns (residual after correction, trace).
    """
    cfg = ctx.config
    faults = sample_faults(
        ctx.circuit, NoiseParams(cfg.p), cfg.rounds, rng, cfg.idle_noise
    )
    if initial_error is None:
        ev_x, x_mask = ctx.gx.window_events(faults)
        ev_z, z_mask = ctx.gz.window_events(faults)
        residual = PauliOperator(ctx.layout.n_data, x_mask, z_mask)
    else:
        hist = simulate(
            ctx.layout, ctx.circuit, faults, cfg.rounds, initial_error=initial_error
        )
        ev_x = events_to_nodes(ctx.gx, hist.x_lattice_events)
        ev_z = events_to_nodes(ctx.gz, hist.z_lattice_events)
        residual = hist.residual
    e_x, e_z, trace = decode(
        ctx.gx,
        ctx.gz,
        ev_x,
        ev_z,
        ctx.layout,
        max_iterations=0 if cfg.decoder == "mwpm" else cfg.max_iterations,
        stopping=cfg.stopping,
        reweight_boundary=cfg.reweight_boundary,
        raise_on_violation=False,
        prune_neighbors=cfg.prune_neighbors,
    )
    return multiply(multiply(residual, e_x), e_z), trace


def _logical_failure(layout, residual: PauliOperator) -> bool:
    return bool(
        commutation_parity(residual, layout.logical_x)
        or commutation_parity(residual, layout.logical_z)
    )


def run_memory_trial(ctx: _Context, rng: np.random.Generator):
    """One decoding window: T noisy rounds plus a perfect readout round.

    Returns (failed, extra_iterations, monotone, converged).
    """
    residual, trace = _run_window(ctx, rng)
    failed = _logical_failure(ctx.layout, residual)
    converged = trace.stop_reason != "max_iters" or ctx.config.decoder == "mwpm"
    return failed, trace.extra_iterations, trace.monotonic, converged


def _check_period(config: SimConfig) -> int:
    """The lifetime check period; checks run only at window ends."""
    period, T = config.check_period or config.L, config.rounds
    if period % T:
        near = " or ".join(str(k * T) for k in (period // T, period // T + 1) if k)
        raise ValueError(f"check period {period} not a multiple of T={T}; use {near}")
    return period


def run_lifetime_trial(ctx: _Context, rng: np.random.Generator):
    """Memory windows, each started from the last one's residual; rounds
    until a check finds a logical failure.

    Returns (rounds_survived, capped).  At every check period (a multiple
    of T) the residual must have no syndrome, since every edge's correction
    has the syndrome of its endpoints (RuntimeError otherwise); the trial
    fails when the residual anticommutes with a logical operator.
    """
    cfg = ctx.config
    period = _check_period(cfg)
    residual = PauliOperator.identity(ctx.layout.n_data)
    rounds = 0
    while rounds < cfg.lifetime_cap:
        residual, _ = _run_window(ctx, rng, residual)
        rounds += cfg.rounds
        if rounds % period == 0:
            if any(ideal_syndrome(ctx.layout, residual)):
                raise RuntimeError(f"the residual after round {rounds} has a syndrome")
            if _logical_failure(ctx.layout, residual):
                return rounds, False
    return rounds, True


# ---------------------------------------------------------------------------
# parallel execution

_WORKER_CTX: _Context | None = None


def _run_chunk(args):
    trial_fn, lo, hi = args
    ctx = _WORKER_CTX
    return [
        trial_fn(ctx, np.random.default_rng([ctx.config.seed, trial]))
        for trial in range(lo, hi)
    ]


def _run_trials(ctx: _Context, trial_fn) -> list:
    """Each trial's ``trial_fn(ctx, rng)``, in trial order, run in-process
    or in chunks across forked workers."""
    global _WORKER_CTX
    n_trials, threads = ctx.config.trials, ctx.config.n_threads
    chunk = max(1, min(512, (n_trials + 4 * threads - 1) // (4 * threads)))
    spans = [
        (trial_fn, lo, min(lo + chunk, n_trials)) for lo in range(0, n_trials, chunk)
    ]
    _WORKER_CTX = ctx
    try:
        if threads == 1 or len(spans) == 1:
            chunks = [_run_chunk(s) for s in spans]
        else:
            import multiprocessing as mp

            with mp.get_context("fork").Pool(min(threads, len(spans))) as pool:
                chunks = pool.map(_run_chunk, spans)
    finally:
        _WORKER_CTX = None
    return [result for results in chunks for result in results]


def estimate_rate(config: SimConfig) -> RateEstimate:
    """Memory-trial logical error rate for one configuration."""
    results = _run_trials(_build_context(config), run_memory_trial)
    failures = sum(failed for failed, _, _, _ in results)
    extras = [extra for _, extra, _, _ in results]
    lo, hi = wilson_interval(failures, config.trials)
    return RateEstimate(
        L=config.L,
        T=config.rounds,
        p=config.p,
        decoder=config.decoder,
        trials=config.trials,
        failures=failures,
        mean_extra_iterations=sum(extras) / config.trials,
        monotonicity_violations=sum(not monotone for _, _, monotone, _ in results),
        nonconverged=sum(not converged for _, _, _, converged in results),
        ci_low=lo,
        ci_high=hi,
        iteration_histogram=Counter(extras),
    )


@dataclass
class LifetimeEstimate:
    L: int
    p: float
    decoder: str
    trials: int
    mean_rounds: float
    capped: int
    rounds: list[int] = field(repr=False, default_factory=list)

    def to_row(self) -> dict:
        return {
            "distance": self.L,
            "p": self.p,
            "decoder": self.decoder,
            "trials": self.trials,
            "mean_rounds": self.mean_rounds,
            "capped": self.capped,
        }


def estimate_lifetime(config: SimConfig) -> LifetimeEstimate:
    """Average logical-qubit lifetime in SE rounds."""
    _check_period(config)
    results = _run_trials(_build_context(config), run_lifetime_trial)
    rounds = [r for r, _ in results]
    return LifetimeEstimate(
        L=config.L,
        p=config.p,
        decoder=config.decoder,
        trials=config.trials,
        mean_rounds=sum(rounds) / len(rounds),
        capped=sum(capped for _, capped in results),
        rounds=rounds,
    )


# ---------------------------------------------------------------------------
# threshold estimation

def _fit_rate_curve(ps, rates):
    """Quadratic fit of log10(rate) against log10(p); returns coefficients."""
    lp = np.log10(ps)
    lr = np.log10(rates)
    return np.polyfit(lp, lr, 2)


def _pair_crossing(ps, r1, r2):
    """Crossing of two fitted rate curves within the scanned p range."""
    valid = (np.asarray(r1) > 0) & (np.asarray(r2) > 0)
    if valid.sum() < 3:
        return None
    ps = np.asarray(ps)[valid]
    c1 = _fit_rate_curve(ps, np.asarray(r1)[valid])
    c2 = _fit_rate_curve(ps, np.asarray(r2)[valid])
    diff = np.polysub(c1, c2)
    roots = np.roots(diff)
    lo, hi = math.log10(ps.min()), math.log10(ps.max())
    real = [
        10 ** r.real
        for r in roots
        if abs(r.imag) < 1e-9 and lo - 1e-12 <= r.real <= hi + 1e-12
    ]
    if not real:
        return None
    return min(real, key=lambda x: abs(math.log10(x) - (lo + hi) / 2))


@dataclass
class ThresholdEstimate:
    decoder: str
    crossing: float | None
    crossing_std: float | None
    pairwise: dict
    no_crossing: bool

    def to_dict(self) -> dict:
        return {
            "decoder": self.decoder,
            "crossing": self.crossing,
            "crossing_std": self.crossing_std,
            "pairwise": {f"{a}-{b}": v for (a, b), v in self.pairwise.items()},
            "no_crossing": self.no_crossing,
        }


def check_threshold_grid(distances, ps) -> tuple[list[int], list[float]]:
    """The distinct distances and rates of a threshold grid, ascending.

    Raises ValueError unless there are at least 2 distances and 4 rates.
    """
    Ls, ps = sorted(set(distances)), sorted(set(ps))
    if len(Ls) < 2 or len(ps) < 4:
        raise ValueError("need >= 2 distances and >= 4 p points")
    return Ls, ps


def threshold_scan(
    rates: dict[tuple[int, float], RateEstimate],
    bootstrap: int = 1000,
    seed: int = 0,
) -> ThresholdEstimate:
    """Crossing point of logical-error-rate curves across distances.

    ``rates`` maps (L, p) to estimates for a single decoder over a common
    p grid.  Pairwise crossings between adjacent distances are combined;
    uncertainty comes from binomial bootstrap resampling of the failure
    counts.  Absence of a crossing is reported, not raised.
    """
    Ls, ps = check_threshold_grid([L for L, _p in rates], [p for _L, p in rates])
    decoder = next(iter(rates.values())).decoder
    curves = {L: [rates[(L, p)].rate for p in ps] for L in Ls}

    pairwise = {}
    centers = []
    for a, b in zip(Ls, Ls[1:]):
        x = _pair_crossing(ps, curves[a], curves[b])
        pairwise[(a, b)] = x
        if x is not None:
            centers.append(x)
    if not centers:
        return ThresholdEstimate(decoder, None, None, pairwise, True)

    rng = np.random.default_rng(seed)
    boots = []
    for _ in range(bootstrap):
        sampled = {}
        for L in Ls:
            row = []
            for p in ps:
                est = rates[(L, p)]
                row.append(rng.binomial(est.trials, est.rate) / est.trials)
            sampled[L] = row
        vals = []
        for a, b in zip(Ls, Ls[1:]):
            x = _pair_crossing(ps, sampled[a], sampled[b])
            if x is not None:
                vals.append(x)
        if vals:
            boots.append(float(np.mean(vals)))
    crossing = float(np.mean(centers))
    std = float(np.std(boots)) if boots else None
    return ThresholdEstimate(decoder, crossing, std, pairwise, False)


# ---------------------------------------------------------------------------
# scaling fit

@dataclass
class FitParams:
    """Parameters of log10 P = (a L^2 + b L + c) + (e L^2 + f L + g) log10 p."""

    a: float
    b: float
    c: float
    e: float
    f: float
    g: float
    residual_rms: float = 0.0

    def predict(self, p: float, L: float) -> float:
        """The fitted rate at (p, L); raises ValueError naming the point
        unless 0 < p < 1 and L is an integral distance >= 2."""
        if not (0 < p < 1 and L >= 2 and float(L).is_integer()):
            raise ValueError(
                f"{p:g} {L:g}: need 0 < p < 1 and an integer distance >= 2"
            )
        lp = math.log10(p)
        exponent = (self.a * L * L + self.b * L + self.c) + (
            self.e * L * L + self.f * L + self.g
        ) * lp
        return 10.0 ** exponent

    def to_dict(self) -> dict:
        return asdict(self)


def fit_scaling(points: list[tuple[float, int, float]]) -> FitParams:
    """Least-squares fit of rate data (p, L, rate) in log10 space.

    Every point needs 0 < p < 1, an integral distance >= 2 and a finite
    rate in [0, 1], as ``FitParams.predict`` needs of its points; the first
    point that has not raises FitError naming it.  Zero rates are skipped.
    Requires at least 6 points spanning at least 2 distances; raises
    FitError with diagnostics when the design matrix is rank deficient.
    """
    for i, (p, L, r) in enumerate(points, 1):
        if not (0 < p < 1 and L >= 2 and float(L).is_integer() and 0 <= r <= 1):
            raise FitError(
                f"point {i} (p={p:g}, distance={L:g}, rate={r:g}): need 0 < p < 1, "
                "an integer distance >= 2 and a finite rate in [0, 1]"
            )
    pts = [(p, L, r) for (p, L, r) in points if r > 0]
    if len(pts) < 6 or len({L for _, L, _ in pts}) < 2:
        raise FitError(
            f"need >= 6 positive-rate points over >= 2 distances, got {len(pts)}"
        )
    rows = []
    ys = []
    for p, L, r in pts:
        lp = math.log10(p)
        rows.append([L * L, L, 1.0, L * L * lp, L * lp, lp])
        ys.append(math.log10(r))
    A = np.array(rows)
    y = np.array(ys)
    rank = np.linalg.matrix_rank(A)
    if rank < 6:
        raise FitError(
            f"design matrix rank {rank} < 6; vary both p and L "
            f"(got {sorted({L for _, L, _ in pts})} distances, "
            f"{sorted({p for p, _, _ in pts})} rates)"
        )
    sol, _res, _rank, _sv = np.linalg.lstsq(A, y, rcond=None)
    resid = A @ sol - y
    rms = float(np.sqrt(np.mean(resid**2)))
    a, b, c, e, f, g = (float(v) for v in sol)
    return FitParams(a, b, c, e, f, g, rms)
