"""ruinlab benchmark: one workload per run, a closed loop with one caller.

    python3 perfbench/run.py --workload short_paths --seed 1 --seconds 20 --trace 0

Run it from the repository root; it imports the package from ``src``. The
caller issues the workload's operations back to back and repeats the whole
list (a pass) at least twice, then while another pass fits in ``--seconds``.
Reported times take each operation's fastest pass. Every pass uses
the same ``SimConfig``s, so its estimates must repeat bit for bit; the first
pass is checked against the references in ``workloads``.

With ``--trace 0`` the last line reports the end-to-end metrics of
BENCHMARK.json. With ``--trace 1`` it reports the per-layer metrics: one
untraced pass, one traced pass (spans around every public library call,
written to ``perfbench/out``), a replay of 1000 replications per point for
path statistics, a workers=1 against workers=2 comparison and two CLI calls.
Earlier lines print every metric by name and unit for people.

``correct`` is false when a pass does not reproduce the first one, or when an
operation returned a usable-looking result (finite estimate, positive rse)
that disagrees with its reference. ``failed`` counts every operation that
fails the check, including those whose output says it is unusable (an
exception, a non-finite estimate, rse 0 or nan).
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
SETUP_RUNS = 3
MIN_PASSES = 2  # so every run checks that a pass reproduces the first
REPLAY_REPS = 1000
POOL_K = 4096  # two of the engine's 2048-replication batches, so the pool has work for 2 threads
CLI_K = 200
FAMILIES = ("Exponential", "Gamma", "Weibull", "InvGamma", "InvWeibull", "GenGamma",
            "LogNormal", "Pareto", "Mixture")
ESTIMATORS = ("engine.estimate_psi", "engine.estimate_psi_finite", "engine.estimate_psi_threshold")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("short_paths", "long_paths", "finite_horizon", "analytic"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", type=float, default=None, metavar="T0",
                   help=argparse.SUPPRESS)  # child mode: time.time() at spawn
    return p.parse_args(argv)


# -- set-up -------------------------------------------------------------------


def setup_probe(args) -> None:
    """Child process: import, build the workload, report seconds since spawn."""
    t_import = time.perf_counter()
    sys.path.insert(0, str(HERE.parent / "src"))
    import workloads

    import_s = time.perf_counter() - t_import
    workloads.build(args.workload, args.seed)
    print(json.dumps({"setup_s": time.time() - args.setup_probe, "import_s": import_s}))


def measure_setup(args) -> list[dict]:
    """Fresh-process set-up, SETUP_RUNS times in sequence."""
    out = []
    for _ in range(SETUP_RUNS):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
               "--seed", str(args.seed), "--setup-probe", repr(time.time())]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        out.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return out


# -- passes -------------------------------------------------------------------


def run_pass(wl):
    """Run every operation once; return (wall seconds, [(output, error, seconds)])."""
    results = []
    start = time.perf_counter()
    for op in wl.ops:
        t = time.perf_counter()
        try:
            results.append((op.run(), None, time.perf_counter() - t))
        except Exception as exc:  # an operation that raises is a failed operation
            results.append((None, f"{type(exc).__name__}: {exc}", time.perf_counter() - t))
    return time.perf_counter() - start, results


def wall_seconds(passes) -> float:
    """Sum over operations of each one's fastest time across passes.

    The host's speed switches between states up to twice apart, each lasting
    a few seconds, and a slow state only ever adds time. An operation's
    fastest pass is its time outside interference; the median over a run
    lands on whichever state held longest.
    """
    per_op = zip(*(p[1] for p in passes))
    return sum(min(r[2] for r in rs) for rs in per_op)


def _signature(out):
    if out is None or isinstance(out, dict):
        return out
    return (out.estimate, out.std_error)


def _inf_if_nan(x: float) -> float:
    return math.inf if math.isnan(x) else x


def sim_metrics(wl, passes) -> dict:
    """Median over points of us per replication, RSE^2 x seconds and RSE^2 x K."""
    us, wnv, relvar = [], [], []
    for i, op in enumerate(wl.ops):
        reps = [p[1][i][0] for p in passes]
        if None in reps:  # the operation raised
            continue
        seconds = min(r.runtime_seconds for r in reps)
        rse2 = _inf_if_nan(reps[0].rse) ** 2
        us.append(seconds / op.cfg.k * 1e6)
        wnv.append(rse2 * seconds)
        relvar.append(rse2 * op.cfg.k)
    return {
        "us_per_rep_p50": statistics.median(us),
        "wnv_p50": statistics.median(wnv),
        "relvar_p50": statistics.median(relvar),
    }


# -- traced run ---------------------------------------------------------------


def replay_steps(wl) -> list[int]:
    from ruinlab import engine

    steps = []
    for op in wl.ops:
        for i in range(REPLAY_REPS):
            steps.append(engine.run_replication(op.model, op.pair, op.cfg, i).n_claims)
    return steps


def pool_points(wl) -> list:
    if wl.name == "short_paths":
        return [op for op in wl.ops if op.cfg.u == 5.0]
    if wl.name == "long_paths":
        return [op for op in wl.ops if op.label.startswith("table4/") and op.cfg.u == 250.0]
    return []


def workers2_speedup(points) -> tuple[float, bool]:
    """Replications per second at workers=2 over workers=1, timed ABBA."""
    def side(workers):
        t = time.perf_counter()
        sigs = [_signature(op.run(workers=workers, k=POOL_K)) for op in points]
        return time.perf_counter() - t, sigs

    t1a, s1 = side(1)
    t2a, s2 = side(2)
    t2b, _ = side(2)
    t1b, _ = side(1)
    return (t1a + t1b) / (t2a + t2b), s1 == s2


def cli_self_s(seed: int) -> float:
    import spans

    from ruinlab import cli

    OUT.mkdir(exist_ok=True)
    model_path = OUT / "cli_model.json"
    model_path.write_text(json.dumps({
        "claim": {"family": "exp", "params": {"rate": 1.0}},
        "wait": {"family": "exp", "params": {"rate": 1.0}},
        "safety_loading": 0.5,
    }))
    tracer = spans.Tracer()
    tracer.install(cli=True)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            codes = [
                cli.main(["table", "table1", "--K", str(CLI_K), "--seed", str(seed),
                          "--out", str(OUT / "cli_table1.csv")]),
                cli.main(["check", "--model", str(model_path)]),
            ]
    finally:
        tracer.restore()
    if codes != [0, 0]:
        raise RuntimeError(f"cli exit codes {codes}")
    stats = spans.SpanStats(tracer)
    return float(stats.self_s[stats.mask(lambda n: n == "cli.main")].sum())


def layer_metrics(wl, stats) -> dict:
    m = {}
    is_est = stats.mask(lambda n: n in ESTIMATORS)
    is_sample = stats.mask(lambda n: n.startswith("laws.sample_n."))
    is_plw = stats.mask(lambda n: n == "tilts.path_log_weight")
    under_est = stats.parent_mask(lambda n: n in ESTIMATORS)
    under_sample = stats.parent_mask(lambda n: n.startswith("laws.sample_n."))

    # engine: estimate spans minus their sampling and log-weight children
    direct = under_est & (is_sample | is_plw)
    m["engine.self_s"] = float(stats.dur[is_est].sum() - stats.dur[direct].sum())
    sim_k = sum(op.cfg.k for op in wl.ops) if wl.sim else 0
    chunk_draws = under_est & is_sample
    m["engine.chunks_per_rep"] = int(chunk_draws.sum()) / 2 / sim_k if sim_k else 0.0
    # claims consumed over claims drawn, on estimates that weigh paths
    weighted = set(stats.parent[under_est & is_plw].tolist())
    in_weighted = chunk_draws & [p in weighted for p in stats.parent]
    drawn = stats.count[in_weighted].sum() / 2
    m["engine.draw_use"] = float(stats.count[is_plw].sum() / drawn) if drawn else 0.0

    outer_sample = is_sample & ~under_sample
    draws = int(stats.count[outer_sample].sum())
    sample_s = float(stats.self_s[is_sample].sum())
    m["laws.sample_n.calls"] = int(outer_sample.sum())
    m["laws.sample_n.draws"] = draws
    m["laws.sample_n.self_s"] = sample_s
    m["laws.sample_n.ns_per_draw"] = sample_s / draws * 1e9 if draws else 0.0
    for fam in FAMILIES:
        fam_mask = stats.mask(lambda n, f=fam: n == f"laws.sample_n.{f}")
        m[f"laws.sample_n.{fam}.self_s"] = float(stats.self_s[fam_mask].sum())

    is_exp = stats.mask(lambda n: n == "laws.expectation")
    m["laws.expectation.calls"] = int(is_exp.sum())
    m["laws.expectation.self_s"] = float(stats.self_s[is_exp].sum())

    elems = int(stats.count[is_plw].sum())
    plw_s = float(stats.self_s[is_plw].sum())
    m["tilts.path_log_weight.calls"] = int(is_plw.sum())
    m["tilts.path_log_weight.elems"] = elems
    m["tilts.path_log_weight.self_s"] = plw_s
    m["tilts.path_log_weight.ns_per_elem"] = plw_s / elems * 1e9 if elems else 0.0
    for fn in ("tilt_from_config", "check_admissible", "normalization_residuals"):
        m[f"tilts.{fn}.s"] = stats.outer_s(f"tilts.{fn}")

    m["lundberg.theta_of_r.calls"] = int(stats.mask(lambda n: n == "lundberg.theta_of_r").sum())
    for fn in ("theta_of_r", "lundberg_root", "memm_point"):
        m[f"lundberg.{fn}.s"] = stats.outer_s(f"lundberg.{fn}")
    in_lundberg = stats.mask(lambda n: n.startswith("lundberg."))
    m["lundberg.self_s"] = float(stats.self_s[in_lundberg].sum())
    m["tables.table_spec.s"] = stats.outer_s("tables.table_spec")
    return m


# -- reporting ----------------------------------------------------------------

def unit_of(name: str) -> str:
    if name.startswith("us_"):
        return "us"
    if name.endswith(("_s", ".s")) or name == "wnv_p50":
        return "s"
    if ".ns_per_" in name:
        return "ns"
    if name.endswith(("calls", "draws", "elems", "_rep", "_mean", "_p99")):
        return "count"
    if name == "peak_rss_mb":
        return "MB"
    return "ratio" if name.endswith(("speedup", "draw_use", "overhead")) else "1"


def report(args, metrics: dict, attempted: int, failures: list, correct: bool, notes: list) -> None:
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for note in notes:
        print(f"  {note}")
    for name, value in metrics.items():
        print(f"  {name:40s} {value:>16.6g} {unit_of(name)}")
    print(f"  attempted {attempted}  failed {len(failures)}  "
          f"fail_frac {len(failures) / attempted:.4g}  correct {correct}")
    for f in failures:
        print(f"  FAILED [{f.kind}] {f.label}: {f.reason}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    }))


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_probe is not None:
        setup_probe(args)
        return 0
    sys.path.insert(0, str(HERE.parent / "src"))
    import spans

    import workloads

    setups = measure_setup(args)
    wl = workloads.build(args.workload, args.seed)
    notes = []

    # at least MIN_PASSES, then passes until the next one would overrun --seconds
    start = time.perf_counter()
    passes = [run_pass(wl)]
    while args.trace == 0 and (len(passes) < MIN_PASSES or
                               time.perf_counter() - start + passes[-1][0] <= args.seconds):
        passes.append(run_pass(wl))
    sigs = [[_signature(r[0]) for r in p[1]] for p in passes]
    correct = all(s == sigs[0] for s in sigs)
    if not correct:
        notes.append("a pass did not reproduce the first pass")
    failures = workloads.check(wl, passes[0][1])
    correct = correct and not any(f.kind == "wrong" for f in failures)
    wall_s = wall_seconds(passes)
    notes.append(f"passes {len(passes)}  pass wall_s {[round(p[0], 3) for p in passes]}")

    e2e = {
        "wall_s": wall_s,
        "setup_s": statistics.median(s["setup_s"] for s in setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    extra = sim_metrics(wl, passes) if wl.sim else {}
    extra["fail_frac"] = len(failures) / len(wl.ops)

    if args.trace == 0:
        if not wl.sim:
            notes.append("us_per_rep_p50, wnv_p50, relvar_p50: not applicable (no simulation)")
        for name, value in extra.items():
            notes.append(f"{name:40s} {value:>16.6g} {unit_of(name)}")
        report(args, e2e, len(wl.ops), failures, correct, notes)
        return 0

    tracer = spans.Tracer()
    tracer.install()
    try:
        traced_wl = workloads.build(args.workload, args.seed)
        traced_wall, traced_results = run_pass(traced_wl)
    finally:
        tracer.restore()
    if [_signature(r[0]) for r in traced_results] != sigs[0]:
        correct = False
        notes.append("the traced pass did not reproduce the untraced one")
    OUT.mkdir(exist_ok=True)
    tracer.save(OUT / f"trace-{args.workload}-{args.seed}.npz")
    stats = spans.SpanStats(tracer)

    metrics = layer_metrics(traced_wl, stats)
    steps = replay_steps(wl) if wl.sim else []
    m_steps = {"engine.steps_per_rep_mean": statistics.fmean(steps) if steps else 0.0,
               "engine.steps_per_rep_p99": (statistics.quantiles(steps, n=100)[98]
                                            if steps else 0.0)}
    pool = pool_points(wl)
    speedup, same = workers2_speedup(pool) if pool else (0.0, True)
    if not same:
        correct = False
        notes.append("workers=2 did not reproduce workers=1")
    metrics.update(m_steps)
    metrics["engine.workers2_speedup"] = speedup
    metrics["setup.import_s"] = statistics.median(s["import_s"] for s in setups)
    metrics["cli.self_s"] = cli_self_s(args.seed)
    metrics["trace.overhead"] = traced_wall / wall_s - 1.0
    for name in ("us_per_rep_p50", "wnv_p50", "relvar_p50"):
        metrics[name] = extra.get(name, 0.0)
    metrics["fail_frac"] = extra["fail_frac"]
    notes.append(f"spans {len(stats.dur)}  replayed replications {len(steps)}  "
                 f"untraced wall_s {wall_s:.4g}  traced wall_s {traced_wall:.4g}")
    report(args, metrics, len(wl.ops), failures, correct, notes)
    return 0


if __name__ == "__main__":
    sys.exit(main())
