import dataclasses
import itertools
import math

import numpy as np
import pytest

from ruinlab import (
    EsscherTilt,
    Exponential,
    Gamma,
    GenGamma,
    HazardTwist,
    IdentityTilt,
    InvGamma,
    InvWeibull,
    LinearTilt,
    LogNormal,
    Pareto,
    RiskModel,
    SimConfig,
    TargetTilt,
    Weibull,
    check_admissible,
    estimate_psi,
    exact_psi,
    hazard_r_max,
    hazard_twisted,
    lundberg_root,
    tilt_from_config,
    xi_hat,
)
from ruinlab import engine, laws
from ruinlab.engine import run_replication
from ruinlab.errors import NotRuinInducing, StepCapExceeded
from ruinlab.tables import table_spec


@pytest.fixture
def linear_pair(model_exp_exp):
    return LinearTilt(model_exp_exp, 1.95 * xi_hat(model_exp_exp))


def within_se(estimate, target, std_error, mult=4.0):
    return abs(estimate - target) <= mult * std_error


def _stream(seed, b):
    # SFC64(seed, b) below: SFC64 seeded by SeedSequence([seed, b]); a run
    # walks all its replications on SFC64(seed, 0)
    return np.random.Generator(np.random.SFC64(np.random.SeedSequence([seed, b])))


def _linear_claims(claim):
    model = RiskModel.from_safety_loading(claim, Exponential(1.0), 0.5)
    return LinearTilt(model, 1.95 * xi_hat(model)).tilted_claim_law()


BLOCK_LAWS = [
    Exponential(1.3),
    Gamma(0.7, 2.5),
    Weibull(0.75, 1.68),
    InvGamma(3.0, 4.0),
    InvWeibull(3.0, 1.48),
    GenGamma(1.5, 2.0, 0.8),
    GenGamma(-2.0, 1.3, 2.2),
    LogNormal(0.3, 0.5),
    Pareto(1.5, 3.0),
    hazard_twisted(Exponential(1.0), 0.55),
    hazard_twisted(Weibull(0.375, 0.5), 1.3),
    hazard_twisted(Pareto(1.5, 3.0), 0.8),
    _linear_claims(Exponential(1.0)),
    _linear_claims(Weibull(0.75, 1.68)),
    _linear_claims(LogNormal(0.0, 1.0)),
]


@pytest.mark.parametrize("law", BLOCK_LAWS, ids=[law.label() for law in BLOCK_LAWS])
def test_block_rows_equal_sample_n(law):
    # a row block walks one flat sample_n of waits, then one of claims, from
    # the run's stream, laid out row by row
    model = RiskModel.from_safety_loading(Exponential(1.0), Exponential(1.0), 0.5)
    cfg = SimConfig(u=1.0, k=1, seed=99)
    ctx = engine._prepare(model, IdentityTilt(model), cfg)
    ctx = dataclasses.replace(ctx, qw=law, qx=law, u_eff=math.inf)  # no row stops
    rows = 200
    for m in (1, 2, 64):
        out = engine._Walked(*(np.zeros(rows) for _ in range(5)))
        z, t, log_w = np.zeros(rows), np.zeros(rows), np.zeros(rows)
        go = engine._walk_block(ctx, _stream(99, 5), out, 0, m, np.arange(rows), z, t, log_w)
        rng = _stream(99, 5)
        w = law.sample_n(rng, rows * m).reshape(rows, m)
        x = law.sample_n(rng, rows * m).reshape(rows, m)
        assert go.all()
        assert np.array_equal(t, np.add.reduceat(w.ravel(), np.arange(0, rows * m, m)))
        assert np.array_equal(z, np.cumsum(x - model.premium * w, axis=1)[:, -1])


# m = 300 steps per row, so a full row's sum runs numpy's blocked pairwise loop
ROW_M = 300
ROW_USED = {
    "used_1": [1, 1, 1],
    "first_row_full": [ROW_M, 137, 1],
    "last_row_full": [9, 1, ROW_M],
    "all_full": [ROW_M, ROW_M, ROW_M],
    "one_row": [150],
    "one_row_full": [ROW_M],
}


@pytest.mark.parametrize("used", ROW_USED.values(), ids=ROW_USED.keys())
@pytest.mark.parametrize("stride", [1, 3], ids=["contiguous", "strided"])
def test_row_prefix_sums_match_each_row_alone(used, stride):
    # the even segments of reduceat over _row_prefix_bounds are each row's
    # first `used` elements, summed bit for bit as that run alone
    used = np.array(used)
    rng = np.random.default_rng(5)
    size = stride * len(used) * ROW_M
    flat = (rng.standard_normal(size) * 10.0 ** rng.integers(-6, 7, size))[::stride]
    assert flat.flags.c_contiguous == (stride == 1)
    bounds = engine._row_prefix_bounds(used, ROW_M)
    assert len(bounds) == 2 * len(used) - (used[-1] == ROW_M)
    got = np.add.reduceat(flat, bounds)[::2]
    want = np.array([
        np.add.reduceat(flat[r * ROW_M: r * ROW_M + u], [0])[0] for r, u in enumerate(used)
    ])
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("field, bad", [("k", 2000.0), ("seed", 1.5), ("k", True), ("seed", "3")])
def test_sim_config_rejects_a_non_integer_k_or_seed(field, bad):
    with pytest.raises(ValueError, match=f"^{field} must be an integer"):
        SimConfig(**{"u": 1.0, "k": 10, "seed": 1, field: bad})


def test_sim_config_accepts_numpy_integers(model_exp_exp, linear_pair):
    cfg = SimConfig(u=1.0, k=np.int64(10), seed=np.uint64(3))
    got = estimate_psi(model_exp_exp, linear_pair, cfg)
    want = estimate_psi(model_exp_exp, linear_pair, SimConfig(u=1.0, k=10, seed=3))
    assert (got.estimate, got.std_error) == (want.estimate, want.std_error)


def test_sim_config_validation():
    with pytest.raises(ValueError):
        SimConfig(u=-1.0, k=10, seed=1)
    with pytest.raises(ValueError):
        SimConfig(u=1.0, k=0, seed=1)
    with pytest.raises(ValueError):
        SimConfig(u=1.0, k=10, seed=1, threshold=2.0)
    for bad in (math.inf, math.nan):
        with pytest.raises(ValueError):
            SimConfig(u=bad, k=10, seed=1)
        with pytest.raises(ValueError):
            SimConfig(u=1.0, k=10, seed=1, horizon=bad)


def test_seed_outside_uint64_rejected(model_exp_exp, linear_pair):
    # seeds are uint64
    for bad in (-1, 2**64):
        with pytest.raises(ValueError, match="seed"):
            SimConfig(u=1.0, k=10, seed=bad)
    rep = estimate_psi(model_exp_exp, linear_pair, SimConfig(u=1.0, k=10, seed=2**64 - 1))
    assert rep.seed == 2**64 - 1


def test_replication_replay_oracle(model_exp_exp, linear_pair):
    cfg = SimConfig(u=5.0, k=1, seed=3)
    out = run_replication(model_exp_exp, linear_pair, cfg, 9)  # past K: the run at K = 16
    assert out.ruined
    m = engine._prepare(model_exp_exp, linear_pair, cfg).first_chunk
    assert out.n_claims <= m
    # replay the first row block of SFC64(3, 0): waits, then claims, row by row
    rows = min(engine._BLOCK_ELEMS // m, 16)
    rng = _stream(3, 0)
    waits = linear_pair.tilted_wait_law().sample_n(rng, rows * m).reshape(rows, m)
    claims = linear_pair.tilted_claim_law().sample_n(rng, rows * m).reshape(rows, m)
    waits, claims = waits[9, : out.n_claims], claims[9, : out.n_claims]
    replay = -(float(np.sum(linear_pair.gamma(claims)))
               + float(np.sum(linear_pair.delta(waits))))
    assert out.log_weight == pytest.approx(replay, abs=1e-12)
    assert out.ruin_time == pytest.approx(float(waits.sum()), abs=1e-12)
    assert out.overshoot >= 0.0
    # the walk ruins exactly at the last claim and not before
    z = np.cumsum(claims - model_exp_exp.premium * waits)
    assert np.all(z[:-1] < 5.0) and z[-1] >= 5.0
    assert out.overshoot == pytest.approx(float(z[-1]) - 5.0, abs=1e-12)


def test_identity_replication_has_unit_weight(model_exp_exp):
    cfg = SimConfig(u=1.0, k=1, seed=4, horizon=100.0)
    out = run_replication(model_exp_exp, IdentityTilt(model_exp_exp), cfg, 0)
    assert out.log_weight == 0.0


def test_step_cap_exceeded(model_exp_exp, monkeypatch):
    # identity tilt cannot reach a high barrier: the cap must trip, not hang,
    # and it names the lowest live replication of the run, here its first
    monkeypatch.setattr(engine, "_MAX_STEPS", 2000)
    cfg = SimConfig(u=500.0, k=1, seed=5)
    pair = IdentityTilt(model_exp_exp)
    with pytest.raises(StepCapExceeded) as err:
        run_replication(model_exp_exp, pair, cfg, 7)  # past K: the run at K = 8
    assert (err.value.replication, err.value.steps) == (0, 2000)
    # the replay oracle below walks to the same cap
    with pytest.raises(StepCapExceeded) as err:
        reference_walk(model_exp_exp, pair, dataclasses.replace(cfg, k=8))
    assert (err.value.replication, err.value.steps) == (0, 2000)


def reference_walk(model, pair, cfg):
    """Replications 0, ..., K - 1 of the run, each row walked on 1-D arrays.

    Replays the run's draw order on SFC64(seed, 0): chunk by chunk, the live
    lanes in row blocks, each block's waits and then its claims, row by row.
    Returns one (ruined, n_claims, ruin_time, log_weight, overshoot) per
    replication; the block walk must reproduce them bit for bit.
    """
    ctx = engine._prepare(model, pair, cfg)
    rng = _stream(cfg.seed, 0)
    ex_on, ew_on = pair.weighs_std_exp
    outs = [None] * cfg.k
    live = [(lane, 0.0, 0.0, 0.0) for lane in range(cfg.k)]  # (lane, z, t, log_w)
    n = 0
    for m in engine._chunks(ctx):
        if not live:
            break
        rows = max(1, engine._BLOCK_ELEMS // m)
        still = []
        for lo in range(0, len(live), rows):
            block = live[lo : lo + rows]
            ws, ews = _rows(ctx.qw, rng, len(block), m, ew_on)
            xs, exs = _rows(ctx.qx, rng, len(block), m, ex_on)
            for (lane, z, t, log_w), w, x, ew, ex in zip(block, ws, xs, ews, exs):
                zc = z + np.cumsum(x - model.premium * w)
                hits = np.flatnonzero(zc >= ctx.u_eff)
                j = hits[0] if hits.size else m
                late = False
                if cfg.horizon is not None:
                    overs = np.flatnonzero(t + np.cumsum(w) > cfg.horizon)
                    if overs.size and overs[0] <= j:
                        j, late = overs[0], True
                used = min(j + 1, m)
                # the block walk's segmented sums, on this row's one segment
                if pair.variant != "identity":
                    ex, ew = (None if e is None else e[:used] for e in (ex, ew))
                    log_w -= pair.path_log_weight(x[:used], w[:used], [0], ex, ew)[0]
                t += np.add.reduceat(w[:used], [0])[0]
                if late:
                    outs[lane] = (False, n + used - 1, math.nan, log_w, math.nan)
                elif j < m:
                    outs[lane] = (True, n + used, t, log_w, zc[j] - ctx.u_eff)
                else:
                    still.append((lane, zc[-1], t, log_w))
        live = still
        n += m
    if live:
        raise StepCapExceeded(live[0][0], engine._MAX_STEPS)
    return outs


def _rows(law, rng, rows, m, std_exp):
    """``rows`` x ``m`` draws of ``law``, and per row the standard exponentials
    behind them if ``std_exp``, else None."""
    if std_exp:
        z, e = law.sample_n(rng, rows * m, return_std_exp=True)
        return z.reshape(-1, m), e.reshape(-1, m)
    return law.sample_n(rng, rows * m).reshape(-1, m), [None] * rows


def _same(a, b):
    return all(p == q or (p != p and q != q) for p, q in zip(a, b))


# (tilt, config, whether some replications need a third chunk); K is more
# than one block and not a multiple of the block rows in every case. The
# linear and identity cases run on Exp/Exp; "hazard" is table4's Pa(2,3)
# column, whose twist weighs both components by their standard exponentials
WALK_CASES = {
    "infinite": ("linear", SimConfig(u=5.0, k=1000, seed=3), True),
    "k_1500": ("linear", SimConfig(u=5.0, k=1500, seed=3), True),
    "threshold": ("linear", SimConfig(u=10.0, k=1000, seed=3, threshold=5.0), True),
    "horizon_crude": ("identity", SimConfig(u=1.0, k=600, seed=3, horizon=300.0), True),
    "horizon_tilted": ("linear", SimConfig(u=2.0, k=1000, seed=3, horizon=20.0), False),
    "hazard": ("hazard", SimConfig(u=2.0, k=1000, seed=3), True),
}


def _walk_case_pair(tilt, model_exp_exp, linear_pair):
    if tilt == "linear":
        return linear_pair
    if tilt == "identity":
        return IdentityTilt(model_exp_exp)
    col = table_spec("table4").columns[1]
    assert col.label == "Pa(2,3)"
    pair = tilt_from_config(col.tilt_config, col.model)
    assert pair.weighs_std_exp == (True, True)
    return pair


@pytest.mark.parametrize("case", list(WALK_CASES))
def test_block_walk_matches_replications_walked_alone(model_exp_exp, linear_pair, case):
    tilt, cfg, deep = WALK_CASES[case]
    pair = _walk_case_pair(tilt, model_exp_exp, linear_pair)
    model = pair.model
    first, second = itertools.islice(engine._chunks(engine._prepare(model, pair, cfg)), 2)
    rows = engine._BLOCK_ELEMS // first
    assert cfg.k > rows and cfg.k % rows  # several blocks, the last one partial
    outs = [run_replication(model, pair, cfg, i) for i in range(cfg.k)]
    assert (max(o.n_claims for o in outs) > first + second) == deep
    for i, (o, ref) in enumerate(zip(outs, reference_walk(model, pair, cfg))):
        got = (o.ruined, o.n_claims, o.ruin_time, o.log_weight, o.overshoot)
        assert _same(got, ref), (case, i)

    # estimate_psi is the index-ordered reduction of the replications' weights,
    # each exponentiated by numpy as the engine does
    weights = np.zeros(cfg.k)
    for i, o in enumerate(outs):
        if o.ruined:
            weights[i] = np.exp(o.log_weight)
    total = weights.sum()
    rep = estimate_psi(model, pair, cfg)
    assert rep.estimate == total / cfg.k
    assert rep.std_error == weights.std() / math.sqrt(cfg.k)
    assert rep.ess == total * total / (weights**2).sum()
    assert rep.max_norm_weight == weights.max() / total


def test_run_stream_is_fresh_sfc64_of_seed(model_exp_exp, linear_pair):
    # one stream per (seed, run): every replication draws from SFC64(seed, 0)
    for seed in (0, 1, 987654321, 2**64 - 1):
        cfg = SimConfig(u=5.0, k=50, seed=seed)
        walked = engine._walk(engine._prepare(model_exp_exp, linear_pair, cfg), seed, cfg.k)
        got = zip(walked.ruined, walked.n_claims, walked.ruin_time, walked.log_weight,
                  walked.overshoot)
        ref = reference_walk(model_exp_exp, linear_pair, cfg)
        assert all(_same(g, r) for g, r in zip(got, ref)), seed


def test_stream_layout_is_pinned(model_exp_exp):
    # the run's stream, chunk schedule and row blocks fix every estimate bit
    # for bit (numpy 2.4.6 on x86-64): a change to any of them must edit these
    t1, t4 = table_spec("table1").columns[0], table_spec("table4").columns[1]
    assert (t1.label, t4.label) == ("Exp(1)", "Pa(2,3)")
    t1_pair = tilt_from_config(t1.tilt_config, t1.model)
    rho = lundberg_root(model_exp_exp)
    points = [
        (t1.model, t1_pair, 5.0, 1000, "0x1.00e1bd7b3e10fp-3"),
        (t1.model, t1_pair, 5.0, 2048, "0x1.01d0896604ef1p-3"),
        (t4.model, tilt_from_config(t4.tilt_config, t4.model), 20.0, 2048, "0x1.3180d4f7fd54ap-1"),
        (model_exp_exp, EsscherTilt(model_exp_exp, rho), 10.0, 2048, "0x1.8786910909cb9p-6"),
    ]
    for model, pair, u, k, want in points:
        rep = estimate_psi(model, pair, SimConfig(u=u, k=k, seed=1))
        assert rep.estimate.hex() == want, (pair.label(), k)


def test_replay_walks_each_run_once(model_exp_exp, linear_pair, monkeypatch):
    cfg = SimConfig(u=5.0, k=1500, seed=3)
    walks = []
    walk = engine._walk
    monkeypatch.setattr(engine, "_walk", lambda *a: walks.append(a[2:]) or walk(*a))
    engine._walk_run.cache_clear()
    for i in range(cfg.k):
        run_replication(model_exp_exp, linear_pair, cfg, i)
    assert walks == [(1500,)]
    # past K an index is that replication of the run at 2K, walked once
    past = [run_replication(model_exp_exp, linear_pair, cfg, i) for i in range(1500, 3000)]
    assert walks == [(1500,), (3000,)]
    engine._walk_run.cache_clear()
    assert past[100] == run_replication(model_exp_exp, linear_pair, SimConfig(5.0, 3000, 3), 1600)
    assert walks[-1] == (3000,)


def test_step_cap_names_lowest_live_replication(model_exp_exp, linear_pair, monkeypatch):
    cfg = SimConfig(u=5.0, k=600, seed=3)
    # the end of the fourth chunk, a cap that the first lanes stop before
    cap = sum(itertools.islice(engine._chunks(engine._prepare(model_exp_exp, linear_pair, cfg)), 4))
    steps = [run_replication(model_exp_exp, linear_pair, cfg, i).n_claims for i in range(cfg.k)]
    lowest = next(i for i, n in enumerate(steps) if n > cap)
    assert lowest > 1
    monkeypatch.setattr(engine, "_MAX_STEPS", cap)
    with pytest.raises(StepCapExceeded) as err:
        estimate_psi(model_exp_exp, linear_pair, cfg)
    assert err.value.replication == lowest


def test_chunks_start_at_a_quarter_mean_and_grow_by_a_quarter(model_exp_exp, linear_pair):
    cfg = SimConfig(u=50.0, k=1, seed=1)
    ctx = engine._prepare(model_exp_exp, linear_pair, cfg)
    drift = linear_pair.tilted_claim_mean() - model_exp_exp.premium * linear_pair.tilted_wait_mean()
    assert ctx.first_chunk == int(50.0 / (4 * drift)) + 16
    # no positive drift: 64; a tiny capital: at least 16; a huge one: at most 16384
    crude = engine._prepare(model_exp_exp, IdentityTilt(model_exp_exp), cfg)
    assert crude.first_chunk == 64
    assert engine._prepare(model_exp_exp, linear_pair, SimConfig(1e-9, 1, 1)).first_chunk == 16
    assert engine._prepare(model_exp_exp, linear_pair, SimConfig(1e9, 1, 1)).first_chunk == 16384
    sizes = list(itertools.islice(engine._chunks(dataclasses.replace(ctx, first_chunk=16)), 7))
    assert sizes == [16, 20, 25, 31, 38, 47, 58]
    top = dataclasses.replace(ctx, first_chunk=16384)
    sizes = list(itertools.islice(engine._chunks(top), 9))
    assert sizes == [16384, 20480, 25600, 32000, 40000, 50000, 62500, 65536, 65536]


def test_chunks_sum_to_the_step_cap(model_exp_exp, linear_pair, monkeypatch):
    monkeypatch.setattr(engine, "_MAX_STEPS", 100)
    ctx = dataclasses.replace(
        engine._prepare(model_exp_exp, linear_pair, SimConfig(5.0, 1, 1)), first_chunk=16
    )
    assert list(engine._chunks(ctx)) == [16, 20, 25, 31, 8]


def test_lanes_walk_most_of_the_steps_they_draw(monkeypatch):
    # the chunk schedule's purpose: on a heavy-tailed table4 point, lanes that
    # stop early leave little of their last chunk drawn and unwalked
    col = table_spec("table4").columns[2]  # Pa(2.5,3) claims, hazard twist
    assert col.label == "Pa(2.5,3)"
    pair = tilt_from_config(col.tilt_config, col.model)
    cfg = SimConfig(u=250.0, k=1024, seed=7)
    drawn = []
    walk_block = engine._walk_block

    def counted(ctx, gen, out, n, m, pos, *rest):
        drawn.append(len(pos) * m)
        return walk_block(ctx, gen, out, n, m, pos, *rest)

    monkeypatch.setattr(engine, "_walk_block", counted)
    walked = engine._walk(engine._prepare(col.model, pair, cfg), cfg.seed, cfg.k)
    assert walked.ruined.all()
    assert walked.n_claims.sum() / sum(drawn) >= 0.75


def test_weight_overflow_gives_an_infinite_estimate(model_exp_exp, linear_pair, monkeypatch):
    # exp of a log-weight above log(max float) is inf, not an OverflowError
    def walk(ctx, seed, k):
        lw = np.full(k, 800.0)
        return engine._Walked(np.ones(k, dtype=bool), np.ones(k, dtype=np.int64), np.ones(k),
                              lw, np.zeros(k))

    monkeypatch.setattr(engine, "_walk", walk)
    with np.errstate(over="ignore", invalid="ignore"):
        rep = estimate_psi(model_exp_exp, linear_pair, SimConfig(u=1.0, k=10, seed=1))
    assert rep.estimate == math.inf


def test_step_cap_propagates_from_a_run(model_exp_exp, linear_pair, monkeypatch):
    monkeypatch.setattr(engine, "_MAX_STEPS", 5)
    with pytest.raises(StepCapExceeded) as err:
        estimate_psi(model_exp_exp, linear_pair, SimConfig(u=50.0, k=50, seed=5))
    assert 0 <= err.value.replication < 50


def test_estimate_rejects_pairs_that_are_not_ruin_inducing(model_exp_exp):
    # Ga(40,20)/Exp(0.5) targets: c*E[W e^delta] = 1.5 * 2 > E[X e^gamma] = 2;
    # simulated, each replication would walk until the step cap
    target = TargetTilt(model_exp_exp, Gamma(40.0, 20.0), Exponential(0.5))
    for pair, sides in ((IdentityTilt(model_exp_exp), (1.5, 1.0)), (target, (3.0, 2.0))):
        with pytest.raises(NotRuinInducing) as err:
            estimate_psi(model_exp_exp, pair, SimConfig(u=1.0, k=10, seed=1))
        assert (err.value.lhs, err.value.rhs) == pytest.approx(sides, rel=1e-12)
        # a horizon ends every path, so any pair may run
        rep = estimate_psi(model_exp_exp, pair, SimConfig(u=1.0, k=200, seed=1, horizon=5.0))
        assert rep.estimate > 0.0


def test_zero_drift_pairs_fail_fast(model_exp_exp, monkeypatch):
    # boundary pairs are ruin-inducing, but their tilted walk has zero drift and
    # an infinite mean ruin time; a started run would meet this cap, not an end
    monkeypatch.setattr(engine, "_MAX_STEPS", 10**5)
    pa_wei = table_spec("table4").columns[1].model  # Pa(2,3) claims
    hazard = HazardTwist(pa_wei, hazard_r_max(pa_wei, 1.0), 1.0)
    linear = LinearTilt(model_exp_exp, xi_hat(model_exp_exp))
    # float rounding leaves one drift a hair above zero, the other below
    for pair, sign in ((hazard, 1.0), (linear, -1.0)):
        report = check_admissible(pair)
        assert report.in_c_p  # still in the class
        drift = (report.rhs - report.lhs) / report.rhs
        assert 0.0 < sign * drift < 1e-15
        with pytest.raises(NotRuinInducing, match="tilted drift"):
            estimate_psi(pair.model, pair, SimConfig(u=100.0, k=100, seed=1))
        rep = estimate_psi(pair.model, pair, SimConfig(u=1.0, k=200, seed=1, horizon=5.0))
        assert rep.estimate > 0.0


def test_mode_named_entry_points_are_estimate_psi():
    assert engine.estimate_psi_finite is engine.estimate_psi
    assert engine.estimate_psi_threshold is engine.estimate_psi


def test_weights_positive_and_diagnostics(model_exp_exp, linear_pair):
    cfg = SimConfig(u=5.0, k=20_000, seed=2)
    rep = estimate_psi(model_exp_exp, linear_pair, cfg)
    assert 0.0 < rep.estimate <= 1.0
    assert rep.ess <= cfg.k
    assert 0.0 < rep.max_norm_weight < 1.0
    assert rep.rse > 0.0
    # algebraic identity between the two dispersion diagnostics
    assert rep.rse**2 == pytest.approx((cfg.k / rep.ess - 1.0) / cfg.k, rel=1e-10)


def test_estimate_within_four_se_of_closed_form(model_exp_exp, linear_pair):
    for u in (0.0, 1.0, 2.0, 5.0):
        cfg = SimConfig(u=u, k=100_000, seed=31)
        rep = estimate_psi(model_exp_exp, linear_pair, cfg)
        exact = exact_psi(model_exp_exp, u)
        assert within_se(rep.estimate, exact, rep.std_error), (u, rep.estimate, exact)


def test_all_three_tilt_families_unbiased(model_exp_exp):
    rho = lundberg_root(model_exp_exp)
    pairs = [
        LinearTilt(model_exp_exp, 1.95 * xi_hat(model_exp_exp)),
        EsscherTilt(model_exp_exp, rho),
        HazardTwist(model_exp_exp, 0.55, 0.9),  # admissible: 1.5/0.9 <= 1/0.55
    ]
    for pair in pairs:
        assert check_admissible(pair).in_c_p
        for u in (0.0, 1.0, 2.0, 5.0):
            cfg = SimConfig(u=u, k=100_000, seed=13)
            rep = estimate_psi(model_exp_exp, pair, cfg)
            exact = exact_psi(model_exp_exp, u)
            assert within_se(rep.estimate, exact, rep.std_error), (
                pair.label(), u, rep.estimate, exact, rep.std_error,
            )


def test_esscher_at_lundberg_root_weight_bound(model_exp_exp):
    # each weight is exp(-rho * Z_N) = exp(-rho u) * exp(rho * R_ruin) <= exp(-rho u)
    rho = lundberg_root(model_exp_exp)
    pair = EsscherTilt(model_exp_exp, rho)
    u = 5.0
    bound = math.exp(-rho * u)
    cfg = SimConfig(u=u, k=1, seed=23)
    weights = []
    overshoots = []
    for i in range(2_000):
        out = run_replication(model_exp_exp, pair, cfg, i)
        weights.append(math.exp(out.log_weight))
        overshoots.append(out.overshoot)
    weights = np.array(weights)
    overshoots = np.array(overshoots)
    assert np.all(weights <= bound * (1 + 1e-12))
    # estimator identity: weight = exp(-rho u) * exp(-rho * overshoot)
    assert np.allclose(weights, bound * np.exp(-rho * overshoots), rtol=1e-10)


def test_tilt_family_agreement(model_exp_exp):
    linear = LinearTilt(model_exp_exp, 1.95 * xi_hat(model_exp_exp))
    hazard = HazardTwist(model_exp_exp, 0.55, 0.9)
    for u in (0.0, 5.0, 10.0):
        cfg_a = SimConfig(u=u, k=50_000, seed=41)
        cfg_b = SimConfig(u=u, k=50_000, seed=42)
        ra = estimate_psi(model_exp_exp, linear, cfg_a)
        rb = estimate_psi(model_exp_exp, hazard, cfg_b)
        combined = math.hypot(ra.std_error, rb.std_error)
        assert abs(ra.estimate - rb.estimate) <= 4 * combined


def test_tilted_walk_moments_match_analytics(model_exp_exp, linear_pair, rng):
    qx = linear_pair.tilted_claim_law()
    qw = linear_pair.tilted_wait_law()
    for law, mean in (
        (qx, linear_pair.tilted_claim_mean()),
        (qw, linear_pair.tilted_wait_mean()),
    ):
        draws = law.sample_n(rng, 100_000)
        se = draws.std() / math.sqrt(draws.size)
        assert within_se(draws.mean(), mean, se)


# -- finite horizon --------------------------------------------------------------


def test_finite_horizon_zero_is_zero(model_exp_exp):
    cfg = SimConfig(u=1.0, k=500, seed=9, horizon=0.0)
    rep = estimate_psi(model_exp_exp, IdentityTilt(model_exp_exp), cfg)
    assert rep.estimate == 0.0


def test_identity_finite_time_is_crude_frequency(model_exp_exp):
    cfg = SimConfig(u=1.0, k=20_000, seed=9, horizon=10.0)
    rep = estimate_psi(model_exp_exp, IdentityTilt(model_exp_exp), cfg)
    count = rep.estimate * cfg.k
    assert count == pytest.approx(round(count), abs=1e-9)
    assert rep.ess == pytest.approx(round(count), abs=1e-6)


def test_finite_horizon_monotone_under_common_seed(model_exp_exp):
    # the horizons do not share paths (a horizon shifts which lanes draw
    # what): the order holds because neighbouring estimates lie more than
    # 3 SE apart, not by coupling
    ident = IdentityTilt(model_exp_exp)
    estimates = []
    for y in (5.0, 20.0, 60.0):
        cfg = SimConfig(u=1.0, k=20_000, seed=9, horizon=y)
        estimates.append(estimate_psi(model_exp_exp, ident, cfg).estimate)
    assert estimates[0] <= estimates[1] <= estimates[2]


def test_finite_horizon_approaches_infinite_time(model_exp_exp, linear_pair):
    # 50 mean interarrival scales: the truncation error is far below noise at u=1
    exact = exact_psi(model_exp_exp, 1.0)
    cfg = SimConfig(u=1.0, k=100_000, seed=15, horizon=50.0)
    crude = estimate_psi(model_exp_exp, IdentityTilt(model_exp_exp), cfg)
    assert within_se(crude.estimate, exact, crude.std_error)
    tilted = estimate_psi(model_exp_exp, linear_pair, cfg)
    combined = math.hypot(crude.std_error, tilted.std_error)
    assert abs(crude.estimate - tilted.estimate) <= 4 * combined


def test_estimate_psi_accepts_every_mode(model_exp_exp, linear_pair):
    for cfg in (
        SimConfig(u=2.0, k=200, seed=1, horizon=5.0),
        SimConfig(u=2.0, k=200, seed=1, threshold=1.0),
        SimConfig(u=2.0, k=200, seed=1, horizon=5.0, threshold=1.0),
    ):
        rep = estimate_psi(model_exp_exp, linear_pair, cfg)
        assert 0.0 < rep.estimate and rep.rse > 0.0


# -- threshold shift --------------------------------------------------------------


def test_threshold_zero_reproduces_estimate_bit_exactly(model_exp_exp, linear_pair):
    cfg_plain = SimConfig(u=10.0, k=20_000, seed=5)
    cfg_b0 = SimConfig(u=10.0, k=20_000, seed=5, threshold=0.0)
    a = estimate_psi(model_exp_exp, linear_pair, cfg_plain)
    b = estimate_psi(model_exp_exp, linear_pair, cfg_b0)
    assert a.estimate == b.estimate and a.ess == b.ess


def test_threshold_full_capital_targets_psi_zero(model_exp_exp, linear_pair):
    cfg = SimConfig(u=10.0, k=100_000, seed=5, threshold=10.0)
    rep = estimate_psi(model_exp_exp, linear_pair, cfg)
    assert within_se(rep.estimate, 2.0 / 3.0, rep.std_error)


def test_threshold_half_capital_targets_shifted_psi(model_exp_exp, linear_pair):
    cfg = SimConfig(u=20.0, k=100_000, seed=5, threshold=10.0)
    rep = estimate_psi(model_exp_exp, linear_pair, cfg)
    exact = exact_psi(model_exp_exp, 10.0)  # 2.378e-02
    assert within_se(rep.estimate, exact, rep.std_error)


# -- draws of exactly 0 -------------------------------------------------------------


@pytest.mark.parametrize("case", ["table1 linear", "Exp/Exp esscher at rho"])
def test_a_std_exp_of_zero_is_weighed(case, model_exp_exp, monkeypatch):
    # Generator.random gives U = 0 with probability 2^-53; E = -log1p(-U) is
    # then 0 and so is the Exponential draw made from it, which the tilting
    # functions must weigh rather than reject mid-run
    if case == "table1 linear":
        col = table_spec("table1").columns[0]
        model, pair = col.model, tilt_from_config(col.tilt_config, col.model)
    else:
        model = model_exp_exp
        pair = EsscherTilt(model, lundberg_root(model))
    std_exp, zeroed = laws._std_exp, []

    def first_e_zero(rng, n):
        e = std_exp(rng, n)
        if not zeroed:
            e[0] = 0.0  # the first step of the first lane: always walked
            zeroed.append(n)
        return e

    monkeypatch.setattr(laws, "_std_exp", first_e_zero)
    rep = estimate_psi(model, pair, SimConfig(u=5.0, k=200, seed=1))
    assert zeroed
    assert within_se(rep.estimate, exact_psi(model, 5.0), rep.std_error)
