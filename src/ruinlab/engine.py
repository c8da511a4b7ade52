"""Importance-sampling estimator of the ruin probability.

Each replication simulates the claim-time random walk Z_n = Z_{n-1} + X_n -
c*W_n under the tilted measure until Z_n >= u (ruin) and accumulates the
log importance weight -sum(gamma(X_j)) - sum(delta(W_j)) over the steps taken;
the estimate is the average of exp(log-weight) across replications. In
finite-horizon mode a replication also stops, with zero contribution, as soon
as a claim arrives after the horizon. A solvency threshold b shifts the
barrier: the walk targets u - b, bit-identical to an infinite-time run started
at that capital.

Infinite-time runs require a ruin-inducing pair with a positive tilted drift;
finite-horizon runs accept any pair. A replication still live after
_MAX_STEPS steps raises StepCapExceeded rather than truncating the estimate.

Determinism contract (one stream per run): replication i is lane i of the
run, and all K lanes draw from one SFC64 generator seeded by
``SeedSequence([master seed, 0])``. SeedSequence hashes the pair to the
generator's three 64-bit state words; every stream starts with the same value
in its fourth, a counter that each draw advances by one, so two streams with
distinct starting states cannot overlap within 2^64 draws. A run's outcomes
are a function of its seed, K, model, tilt and capital alone; K sets how the
lanes fill the row blocks, so runs at different K share no paths.
_BLOCK_ELEMS and the chunk schedule's _FIRST_DIV and _GROW_DIV are stream
constants: changing any of them changes every stream. The reduction is an
index-ordered array sum.

A run advances in chunks of steps: every live lane takes the same chunk,
split into row blocks of about _BLOCK_ELEMS variates, and each row block draws
its waits with one ``sample_n`` call and then its claims with another, both
laid out row by row; where the pair weighs a component by the standard
exponentials behind its draws (``TiltingPair.weighs_std_exp``), that call
returns them too. The walk and the stop tests then run along the rows.
gamma + delta is evaluated on every variate of the block, used or not, and
one ``reduceat`` over the flat block sums each row's used steps where the row
lies: its bounds alternate a row's start and that start plus the steps the
row used, and the segments over the unused rest of each row are discarded.
The waits' time sum is the same reduction. Each row's sums thus add the same
elements in the same order as its used steps summed alone, and no step mask
or compacted copy is built. A lane's draws therefore depend on which lanes of
the run are still live.
The first chunk is a quarter of the mean step count u_eff / drift, plus 16
(64 without a positive drift), and each later chunk grows by a quarter, so a
lane that stops early throws few drawn variates away. Chunk sizes are a
fixed function of (model, tilt, effective capital), never of the horizon, but
a horizon stops lanes early and so shifts the draws of the lanes after them:
runs at different horizons do not share paths.
"""

from __future__ import annotations

import functools
import math
import numbers
import time
from dataclasses import dataclass, replace

import numpy as np

from .errors import StepCapExceeded
from .model import RiskModel
from .tilts import TiltingPair, require_ruin_inducing

__all__ = [
    "SimConfig",
    "ReplicationOutcome",
    "EstimateReport",
    "run_replication",
    "estimate_psi",
]

# the chunk schedule: the first chunk is 1/_FIRST_DIV of the mean step count
# u_eff / drift, plus 16, and each later one grows by 1/_GROW_DIV of itself up
# to _CHUNK_MAX; stream constants, since the chunks set which variates a lane
# draws
_FIRST_DIV = 4
_GROW_DIV = 4
_CHUNK_MAX = 65536
# variates per row block of the walk (rows x chunk); a stream constant, since
# the row blocks set the order in which a run's lanes draw
_BLOCK_ELEMS = 1 << 14
# A row block's temporaries, arrays of up to _BLOCK_ELEMS floats, are freed at
# the end of the block. glibc's malloc returns free memory at the top of its
# heap to the system above a trim threshold that starts at 128 KiB, so every
# block would page its arrays back in; it raises that threshold to twice the
# size of any mmap'd block freed. Freeing one array of 8 * _BLOCK_ELEMS floats
# (1 MiB) here keeps the blocks' memory in the heap; under another allocator it
# is one short-lived allocation.
np.empty(8 * _BLOCK_ELEMS)
# steps per replication before StepCapExceeded
_MAX_STEPS = 10**8


@dataclass(frozen=True)
class SimConfig:
    """Replication count, master seed and termination settings for one run."""

    u: float
    k: int
    seed: int
    horizon: float | None = None
    threshold: float | None = None

    def __post_init__(self):
        if not 0 <= self.u < math.inf:
            raise ValueError("initial reserve u must be finite and nonnegative")
        for name in ("k", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, not {value!r}")
        if self.k < 1:
            raise ValueError("replication count K must be at least 1")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must lie in [0, 2^64), an unsigned 64-bit integer")
        if self.horizon is not None and not 0 <= self.horizon < math.inf:
            raise ValueError("horizon must be finite and nonnegative")
        if self.threshold is not None and not 0 <= self.threshold <= self.u:
            raise ValueError("threshold must lie in [0, u]")


@dataclass(frozen=True)
class ReplicationOutcome:
    """Result of one simulated path.

    ``log_weight`` is -sum(gamma(X_j)) - sum(delta(W_j)) over the claims up to
    termination; ``overshoot`` is Z_N - u_eff >= 0 at ruin (nan otherwise).
    """

    ruined: bool
    n_claims: int
    ruin_time: float
    log_weight: float
    overshoot: float


@dataclass(frozen=True)
class EstimateReport:
    """Point estimate with sampling diagnostics.

    ``std_error`` is the weight-sample standard deviation (1/K normalization,
    which makes rse^2 = (K/ess - 1)/K an exact identity) divided by sqrt(K).
    Estimates above 1 are reported as-is.
    """

    estimate: float
    std_error: float
    rse: float
    ess: float
    max_norm_weight: float
    k: int
    seed: int
    runtime_seconds: float


@dataclass(frozen=True)
class _RunContext:
    """Immutable per-run bundle shared by all replications."""

    premium: float
    u_eff: float
    horizon: float | None
    qx: object  # tilted claim law
    qw: object  # tilted wait law
    pair: TiltingPair
    first_chunk: int


def _prepare(model: RiskModel, pair: TiltingPair, cfg: SimConfig) -> _RunContext:
    u_eff = cfg.u - (cfg.threshold or 0.0)
    drift = pair.tilted_claim_mean() - model.premium * pair.tilted_wait_mean()
    if math.isfinite(drift) and drift > 0 and u_eff > 0:
        first_chunk = int(u_eff / (_FIRST_DIV * drift)) + 16
    else:
        first_chunk = 64
    first_chunk = min(max(first_chunk, 16), 16384)
    return _RunContext(
        premium=model.premium,
        u_eff=u_eff,
        horizon=cfg.horizon,
        qx=pair.tilted_claim_law(),
        qw=pair.tilted_wait_law(),
        pair=pair,
        first_chunk=first_chunk,
    )


def _chunks(ctx: _RunContext):
    """Chunk sizes of every walk: growing by a quarter to _CHUNK_MAX, cut at _MAX_STEPS."""
    n, chunk = 0, ctx.first_chunk
    while n < _MAX_STEPS:
        m = min(chunk, _MAX_STEPS - n)
        yield m
        n += m
        chunk = min(chunk + chunk // _GROW_DIV, _CHUNK_MAX)


@dataclass(frozen=True)
class _Walked:
    """Per-lane outcomes of a run's walk; position j is replication j."""

    ruined: np.ndarray
    n_claims: np.ndarray
    ruin_time: np.ndarray
    log_weight: np.ndarray
    overshoot: np.ndarray


def _walk(ctx: _RunContext, seed: int, k: int) -> _Walked:
    """Walk replications 0, ..., k - 1 of the run on its one stream until each stops.

    Every live lane takes the same chunk, so a chunk is walked for all of them,
    in row blocks of about _BLOCK_ELEMS variates, before the next.
    """
    out = _Walked(
        ruined=np.zeros(k, dtype=bool),
        n_claims=np.zeros(k, dtype=np.int64),
        ruin_time=np.full(k, math.nan),
        log_weight=np.zeros(k),
        overshoot=np.full(k, math.nan),
    )
    gen = np.random.Generator(np.random.SFC64(np.random.SeedSequence([seed, 0])))
    # the live lanes, their walk position z, elapsed time t and log-weight
    live, z, t, log_w = np.arange(k), np.zeros(k), np.zeros(k), np.zeros(k)
    n = 0
    for m in _chunks(ctx):
        if not live.size:
            break
        rows = max(1, _BLOCK_ELEMS // m)
        go = np.empty(live.size, dtype=bool)
        for lo in range(0, live.size, rows):
            b = slice(lo, lo + rows)
            go[b] = _walk_block(ctx, gen, out, n, m, live[b], z[b], t[b], log_w[b])
        live, z, t, log_w = live[go], z[go], t[go], log_w[go]
        n += m
    if live.size:
        raise StepCapExceeded(int(live[0]), _MAX_STEPS)
    return out


def _walk_block(ctx: _RunContext, gen, out: _Walked, n, m, pos, z, t, log_w):
    """Advance lanes ``pos``, ``n`` steps in, by one chunk of ``m``.

    One ``sample_n`` call draws the block's waits and one its claims, row by
    row, each with its standard exponentials where the pair weighs those; the
    walk and the stop tests run once along the rows. One ``path_log_weight``
    call weighs the whole flat block and one ``reduceat`` sums its waits, both
    over the bounds of ``_row_prefix_bounds``, whose even segments are each
    row's used steps; the odd ones are dropped. Stopped lanes are written to
    ``out``; ``z``, ``t`` and ``log_w`` are advanced in place. Returns which
    rows go on.
    """
    ex_on, ew_on = ctx.pair.weighs_std_exp
    w, ew = _draw(ctx.qw, gen, len(pos), m, ew_on)
    x, ex = _draw(ctx.qx, gen, len(pos), m, ex_on)
    # z + cumsum(x - c w) along each row, every pass in the c w buffer
    zc = ctx.premium * w
    np.subtract(x, zc, out=zc)
    np.cumsum(zc, axis=1, out=zc)
    zc += z[:, None]
    j_stop = _first_true(zc >= ctx.u_eff)
    late = np.zeros(len(pos), dtype=bool)
    if ctx.horizon is not None:
        tc = np.cumsum(w, axis=1)
        tc += t[:, None]
        j_late = _first_true(tc > ctx.horizon)
        late = j_late <= j_stop
        j_stop = np.minimum(j_stop, j_late)

    # each row's sums over the steps it used, taken where the row lies
    used = np.minimum(j_stop + 1, m)
    bounds = _row_prefix_bounds(used, m)
    if ctx.pair.variant != "identity":
        ex, ew = (None if e is None else e.ravel() for e in (ex, ew))
        log_w -= ctx.pair.path_log_weight(x.ravel(), w.ravel(), bounds, ex, ew)[::2]
    t += np.add.reduceat(w.ravel(), bounds)[::2]

    stop = j_stop < m
    p, late_s, ruined = pos[stop], late[stop], ~late[stop]
    out.ruined[p] = ruined
    out.n_claims[p] = n + used[stop] - late_s
    out.log_weight[p] = log_w[stop]
    out.ruin_time[p[ruined]] = t[stop][ruined]
    rows_r = np.flatnonzero(stop)[ruined]
    out.overshoot[p[ruined]] = zc[rows_r, j_stop[rows_r]] - ctx.u_eff
    z[:] = zc[:, -1]
    return ~stop


def _row_prefix_bounds(used: np.ndarray, m: int) -> np.ndarray:
    """``reduceat`` bounds over a flat block of rows of ``m`` whose even
    segments are each row's first ``used`` elements, 1 <= used <= m.

    Bounds 2i and 2i + 1 are row i's start and start + used; the odd segments
    run over the gaps to the next rows and are discarded. A row that uses all
    m steps leaves an empty gap, where ``reduceat`` gives one element rather
    than 0, and the last row's bound at the block's end is dropped, since
    ``reduceat`` rejects an index equal to the length. Each even segment is a
    contiguous run of the row's own elements, so its sum is bit-identical to
    that run summed alone.
    """
    starts = np.arange(0, len(used) * m, m)
    bounds = np.stack((starts, starts + used), axis=1).ravel()
    return bounds[:-1] if used[-1] == m else bounds


def _draw(law, gen, rows: int, m: int, std_exp: bool):
    """``rows`` x ``m`` draws of ``law`` from one ``sample_n`` call, and the
    standard exponentials behind them if ``std_exp`` (else None)."""
    if std_exp:
        z, e = law.sample_n(gen, rows * m, return_std_exp=True)
        return z.reshape(-1, m), e.reshape(-1, m)
    return law.sample_n(gen, rows * m).reshape(-1, m), None


def _first_true(flags: np.ndarray) -> np.ndarray:
    """Per row, the index of the first True, or the row length if none is."""
    j = flags.argmax(axis=1)
    return np.where(flags[np.arange(len(j)), j], j, flags.shape[1])


def run_replication(
    model: RiskModel, pair: TiltingPair, cfg: SimConfig, index: int
) -> ReplicationOutcome:
    """Replication ``index`` of the run defined by ``cfg``.

    For ``index < cfg.k`` the outcome is bit-identical to that replication's
    part of ``estimate_psi``; past K it is that replication of the same run
    with K doubled until it covers ``index``. No admissibility gate applies.
    The last run walked is kept, so replaying indices in order walks each run
    once.
    """
    k = cfg.k
    while k <= index:
        k *= 2
    walked = _walk_run(model, pair, replace(cfg, k=k))
    return ReplicationOutcome(
        bool(walked.ruined[index]),
        int(walked.n_claims[index]),
        float(walked.ruin_time[index]),
        float(walked.log_weight[index]),
        float(walked.overshoot[index]),
    )


@functools.lru_cache(maxsize=1)
def _walk_run(model, pair, cfg) -> _Walked:
    return _walk(_prepare(model, pair, cfg), cfg.seed, cfg.k)


def estimate_psi(
    model: RiskModel,
    pair: TiltingPair,
    cfg: SimConfig,
    workers: int | None = None,
) -> EstimateReport:
    """Estimate psi(u), or its finite-horizon / solvency-threshold variant, per ``cfg``.

    With ``cfg.horizon`` unset the pair must be ruin-inducing with a positive
    tilted drift, else NotRuinInducing (or NonFiniteMoment) is raised before
    any draw. A threshold b targets u - b; with b = 0 the run is bit-identical
    to one without a threshold. ``workers`` is accepted for compatibility and
    ignored.
    """
    start = time.perf_counter()
    if cfg.horizon is None:
        require_ruin_inducing(pair)
    ctx = _prepare(model, pair, cfg)
    walked = _walk(ctx, cfg.seed, cfg.k)
    weights = np.zeros(cfg.k)
    weights[walked.ruined] = np.exp(walked.log_weight[walked.ruined])

    total = float(weights.sum())
    estimate = total / cfg.k
    std_error = float(weights.std()) / math.sqrt(cfg.k)
    rse = std_error / estimate if estimate > 0 else math.nan
    sum_sq = float((weights**2).sum())
    ess = total * total / sum_sq if sum_sq > 0 else 0.0
    max_norm = float(weights.max()) / total if total > 0 else math.nan
    return EstimateReport(
        estimate=estimate,
        std_error=std_error,
        rse=rse,
        ess=ess,
        max_norm_weight=max_norm,
        k=cfg.k,
        seed=cfg.seed,
        runtime_seconds=time.perf_counter() - start,
    )


# Names for callers that pick the estimator by mode. They must stay bound to
# the same function object: code that replaces estimate_psi by identity (a
# tracer, a mock) then covers these names too.
estimate_psi_finite = estimate_psi_threshold = estimate_psi
