"""sha256 over the outputs a behaviour-preserving change must keep bit-identical.

    python tools/output_digest.py <repo root>

Imports ``ruinlab`` from ``<repo root>/src`` and the benchmark's workloads from
``<repo root>/perfbench`` (read, never edited), so the same script digests any
checkout: run it on a copy of the parent commit and on the change, and compare
the last lines. It hashes

* the ``table1``..``table5`` CSVs at ``--K 1000 --seed 42``;
* ``check`` on five light-tailed models, each without a tilt, with a claims-only
  hazard twist and with an Esscher tilt; without a tilt on five models whose
  claims are inverse gamma, inverse Weibull, Pareto, log-normal and
  generalized gamma, so every family's moments are hashed, on three models
  with gamma or inverse gamma laws of rate or scale other than 1, and on
  GGa(2,1,0.05)/Exp and Exp/LN(0,2) for the x-space quadrature knots; and
  without a tilt and with an Esscher tilt on Ga(0.7,2.5)/Exp; and without a
  tilt on GGa(1.5,1,2)/LN(0,0.5) at safety loading 1e6 and on
  GGa(1,1e-13,1e14)/Exp (exit code, stdout and stderr);
* ``estimate`` runs with ``--exact`` on four exponential-claim models (up to
  u = 2300, where the closed form underflows and ``are`` reads nan), one with
  ``--threshold``, one without ``--exact`` and two with ``--horizon 10``,
  without a tilt and with the linear one; and two without a tilt at
  ``--horizon 10`` on Exp claims over Ga(4,2) and Ga(5,2) waits, the first
  drawn as an Erlang product of uniforms and the second from numpy's
  ``standard_gamma``; table4's Pa(2,3)/Wei(0.375,0.5) model with its hazard
  pair at ``--horizon 50``, whose weights read the standard exponentials on
  lanes that stop late; and Exp/Exp with the linear tilt at ``--threshold 2
  --horizon 10``, the barrier u - b together with a horizon (exit code,
  stdout, stderr and the CSV without its ``runtime_seconds`` column);
* every operation of every benchmark workload built at seeds 1 and 11, each
  estimate at ``K_SIM`` replications (every report field but its run time and,
  where a report still carries one, its ``are``) and each analytic check's
  output dict;
* every operation of the simulation workloads built at seed 1, each estimate
  at the operation's own K (500 to 8000), so a change to how a run past 1024
  replications draws shows here;
* the bits of ``laplace(0.5)``, ``laplace(2)`` and the quadrature mean
  ``expectation(law, np.log)`` of five laws integrated over x, where a change
  to the x-space knots or the rule moves a last bit that ``check``'s 11
  printed digits hide;
* the bits of ``raw_moment(k)`` for k in ``STACY_ORDERS``, ``mgf_radius()``
  and the size-biased law's label and mean (or the error it raises) for
  twelve laws of Stacy's gamma type: Weibull with shape below, at and above
  1, inverse Weibull with and without a size bias, gamma, inverse gamma and
  generalized gamma.

Each part's digest is printed on its own line (a ``bits`` part prints its
``float.hex`` values instead), then the digest of them all.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

TABLE_ARGS = ["--K", "1000", "--seed", "42"]
WORKLOAD_SEEDS = (1, 11)
K_SIM = 200
OWN_K_WORKLOADS = ("short_paths", "long_paths", "finite_horizon")
OWN_K_SEED = 1
_EXP = {"family": "exp", "params": {"rate": 1.0}}
CHECK_MODELS = {
    "Exp/Exp": (_EXP, _EXP),
    "Ga(2,1)/Exp": ({"family": "gamma", "params": {"shape": 2.0, "rate": 1.0}}, _EXP),
    "Exp/Ga(2,1)": (_EXP, {"family": "gamma", "params": {"shape": 2.0, "rate": 1.0}}),
    "Wei(2,1)/Exp": ({"family": "weibull", "params": {"shape": 2.0, "scale": 1.0}}, _EXP),
    "Exp/Wei(0.375,0.5)": (_EXP, {"family": "weibull", "params": {"shape": 0.375, "scale": 0.5}}),
}
_GA_07 = {"family": "gamma", "params": {"shape": 0.7, "rate": 2.5}}
_GA_35 = {"family": "gamma", "params": {"shape": 3.5, "rate": 0.3}}
_INVGA = {"family": "invgamma", "params": {"shape": 3.0, "scale": 4.0}}
# checked without a tilt only
UNTILTED_CHECK_MODELS = {
    "InvGa(3,4)/Exp": (_INVGA, _EXP),
    "InvWei(3,1.48)/Exp": (
        {"family": "invweibull", "params": {"shape": 3.0, "scale": 1.48}}, _EXP),
    "Pa(2.5,3)/Exp": ({"family": "pareto", "params": {"shape": 2.5, "scale": 3.0}}, _EXP),
    "LN(0,1)/Exp": ({"family": "lognormal", "params": {"mu": 0.0, "sigma": 1.0}}, _EXP),
    "GGa(1.5,1,2)/LN(0,0.5)": (
        {"family": "gengamma", "params": {"alpha": 1.5, "scale": 1.0, "shape": 2.0}},
        {"family": "lognormal", "params": {"mu": 0.0, "sigma": 0.5}},
    ),
    "Exp/Ga(3.5,0.3)": (_EXP, _GA_35),
    "Exp/InvGa(3,4)": (_EXP, _INVGA),
    # x-space quadrature knots: a gamma quantile from the small-shape start,
    # and log-normal waits
    "GGa(2,1,0.05)/Exp": (
        {"family": "gengamma", "params": {"alpha": 2.0, "scale": 1.0, "shape": 0.05}}, _EXP),
    "Exp/LN(0,2)": (_EXP, {"family": "lognormal", "params": {"mu": 0.0, "sigma": 2.0}}),
}
# checked without a tilt and with an Esscher tilt
ESSCHER_CHECK_MODELS = {"Ga(0.7,2.5)/Exp": (_GA_07, _EXP)}
# checked without a tilt: L_W near e^-619 at the adjustment root, and a
# generalized gamma density 1e-6 wide
SPIKE_CHECK_MODELS = {
    "GGa(1.5,1,2)/LN(0,0.5) eta 1e6": UNTILTED_CHECK_MODELS["GGa(1.5,1,2)/LN(0,0.5)"],
    "GGa(1,1e-13,1e14)/Exp": (
        {"family": "gengamma", "params": {"alpha": 1.0, "scale": 1e-13, "shape": 1e14}}, _EXP),
}
# every other check is at safety loading 1/2
SAFETY_LOADINGS = {"GGa(1.5,1,2)/LN(0,0.5) eta 1e6": 1e6}
_HAZARD = {"family": "hazard", "params": {"theta": 1.0, "r_factor": 0.9}}
_LINEAR = {"family": "linear", "params": {"xi_factor": 1.95}}
# (label, claim, wait, tilt, extra CLI arguments); every run at K 200, seed 42
ESTIMATE_RUNS = [
    ("Exp/Exp exact", _EXP, _EXP, _LINEAR, ["--u", "0,5,2300", "--exact"]),
    ("Exp/Ga(2,1) exact", *CHECK_MODELS["Exp/Ga(2,1)"], _HAZARD, ["--u", "0,5", "--exact"]),
    ("Exp/Wei(0.375,0.5) exact", *CHECK_MODELS["Exp/Wei(0.375,0.5)"], _HAZARD,
     ["--u", "0,5", "--exact"]),
    ("Exp/Ga(3.5,0.3) exact", _EXP, _GA_35, _HAZARD, ["--u", "0,2,10", "--exact"]),
    ("Exp/Exp threshold exact", _EXP, _EXP, _LINEAR,
     ["--u", "5", "--threshold", "2", "--exact"]),
    ("Exp/Exp", _EXP, _EXP, _LINEAR, ["--u", "0,5"]),
    ("Exp/Exp identity horizon", _EXP, _EXP, {"family": "identity"},
     ["--u", "0,5", "--horizon", "10"]),
    ("Exp/Exp horizon", _EXP, _EXP, _LINEAR, ["--u", "0,5", "--horizon", "10"]),
    # either side of laws._ERLANG_MAX: Erlang waits, then standard_gamma waits
    ("Exp/Ga(4,2) identity horizon", _EXP,
     {"family": "gamma", "params": {"shape": 4.0, "rate": 2.0}}, {"family": "identity"},
     ["--u", "0,5", "--horizon", "10"]),
    ("Exp/Ga(5,2) identity horizon", _EXP,
     {"family": "gamma", "params": {"shape": 5.0, "rate": 2.0}}, {"family": "identity"},
     ["--u", "0,5", "--horizon", "10"]),
    # table4's middle column and pair: E-weights on lanes that stop late
    ("Pa(2,3)/Wei(0.375,0.5) hazard horizon",
     {"family": "pareto", "params": {"shape": 2.0, "scale": 3.0}},
     CHECK_MODELS["Exp/Wei(0.375,0.5)"][1],
     {"family": "hazard", "params": {"theta": 1.2, "r_factor": 0.95}},
     ["--u", "0,20", "--horizon", "50"]),
    ("Exp/Exp threshold horizon", _EXP, _EXP, _LINEAR,
     ["--u", "5", "--threshold", "2", "--horizon", "10"]),
]
_GGA_INV = {"family": "gengamma", "params": {"alpha": -3.0, "scale": 1.48, "shape": 2.0 / 3.0}}
# laws whose transforms and mean are printed bit for bit
BIT_LAWS = [
    _GA_07,
    _INVGA,
    UNTILTED_CHECK_MODELS["GGa(1.5,1,2)/LN(0,0.5)"][0],
    _GGA_INV,
    UNTILTED_CHECK_MODELS["GGa(1.5,1,2)/LN(0,0.5)"][1],
]
# gamma-type laws whose moments, mgf radius and size bias are printed bit for bit
STACY_LAWS = [
    CHECK_MODELS["Exp/Wei(0.375,0.5)"][1],
    CHECK_MODELS["Wei(2,1)/Exp"][0],
    {"family": "weibull", "params": {"shape": 1.0, "scale": 2.0}},
    UNTILTED_CHECK_MODELS["InvWei(3,1.48)/Exp"][0],
    # shape below 1: no mean, and no size-biased law
    {"family": "invweibull", "params": {"shape": 0.8, "scale": 1.48}},
    _GA_07,
    _GA_35,
    _INVGA,
    {"family": "invgamma", "params": {"shape": 1.5, "scale": 2.0}},
    UNTILTED_CHECK_MODELS["GGa(1.5,1,2)/LN(0,0.5)"][0],
    _GGA_INV,
    {"family": "gengamma", "params": {"alpha": 0.5, "scale": 2.0, "shape": 3.0}},
]
STACY_ORDERS = (-0.5, 0.5, 1.0, 2.0, 3.0)
CHECK_TILTS = {
    "none": None,
    "hazard": {"family": "hazard", "params": {"theta": 1.0, "r_factor": 0.9}},
    "esscher": {"family": "esscher", "params": {"r": 0.1}},
}


def _run_cli(cli, argv) -> bytes:
    """Exit code, stdout and stderr of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return f"{code}\n{out.getvalue()}\n{err.getvalue()}".encode()


def _tables(cli, tmp: Path):
    for name in ("table1", "table2", "table3", "table4", "table5"):
        path = tmp / f"{name}.csv"
        code = _run_cli(cli, ["table", name, *TABLE_ARGS, "--out", str(path)])
        yield name, code + (path.read_bytes() if path.exists() else b"")


def _checks(cli, tmp: Path):
    for models, tilts in ((CHECK_MODELS, CHECK_TILTS), (UNTILTED_CHECK_MODELS, ("none",)),
                          (ESSCHER_CHECK_MODELS, ("none", "esscher")),
                          (SPIKE_CHECK_MODELS, ("none",))):
        for mname, (claim, wait) in models.items():
            eta = SAFETY_LOADINGS.get(mname, 0.5)
            model = tmp / "model.json"
            model.write_text(json.dumps({"claim": claim, "wait": wait, "safety_loading": eta}))
            for tname in tilts:
                argv = ["check", "--model", str(model)]
                if CHECK_TILTS[tname] is not None:
                    (tmp / "tilt.json").write_text(json.dumps(CHECK_TILTS[tname]))
                    argv += ["--tilt", str(tmp / "tilt.json")]
                yield f"check {mname} {tname}", _run_cli(cli, argv)


def _estimates(cli, tmp: Path):
    for label, claim, wait, tilt, extra in ESTIMATE_RUNS:
        model, tilt_path, path = tmp / "model.json", tmp / "tilt.json", tmp / "est.csv"
        model.write_text(json.dumps({"claim": claim, "wait": wait, "safety_loading": 0.5}))
        tilt_path.write_text(json.dumps(tilt))
        path.unlink(missing_ok=True)
        argv = ["estimate", "--model", str(model), "--tilt", str(tilt_path),
                "--K", "200", "--seed", "42", "--out", str(path), *extra]
        data = _run_cli(cli, argv)
        if path.exists():
            lines = path.read_text(encoding="utf-8").splitlines()
            header = [line for line in lines if line.startswith("#")]
            rows = list(csv.reader(line for line in lines if not line.startswith("#")))
            drop = rows[0].index("runtime_seconds")
            kept = [",".join(c for i, c in enumerate(row) if i != drop) for row in rows]
            data += "\n".join(header + kept).encode()
        yield f"estimate {label}", data


def _output(workloads, op, k=K_SIM) -> bytes:
    """``op``'s output at ``k`` replications (None: the operation's own K)."""
    try:
        out = op.run(k=k) if isinstance(op, workloads.SimOp) else op.run()
    except Exception as exc:  # a raising operation is an output too
        return f"{type(exc).__name__}: {exc}".encode()
    if isinstance(out, dict):
        return repr(sorted(out.items())).encode()
    fields = dataclasses.asdict(out)
    fields.pop("runtime_seconds")
    fields.pop("are", None)
    return repr(sorted(fields.items())).encode()


def _workload_digest(workloads, name, seed, k=K_SIM) -> bytes:
    digest = hashlib.sha256()
    for op in workloads.build(name, seed).ops:
        digest.update(op.label.encode() + b"\0" + _output(workloads, op, k) + b"\0")
    return digest.digest()


def _workloads(workloads):
    for seed in WORKLOAD_SEEDS:
        for name in workloads.WORKLOADS:
            yield f"{name} seed {seed}", _workload_digest(workloads, name, seed)


def _workloads_own_k(workloads):
    for name in OWN_K_WORKLOADS:
        yield (f"{name} seed {OWN_K_SEED} own K",
               _workload_digest(workloads, name, OWN_K_SEED, k=None))


def _bits(laws):
    for config in BIT_LAWS:
        law = laws.law_from_config(config)
        values = (law.laplace(0.5), law.laplace(2.0), laws.expectation(law, np.log))
        yield f"bits {law.label()}", " ".join(float(v).hex() for v in values).encode()


def _stacy_bits(laws, tilts):
    for config in STACY_LAWS:
        law = laws.law_from_config(config)
        values = [law.raw_moment(k) for k in STACY_ORDERS] + [law.mgf_radius()]
        try:
            biased = tilts.size_biased(law)
            bias = f"{biased.label()} {biased.mean().hex()}"
        except ValueError as exc:  # a law with no size-biased law: its error is the output
            bias = f"{type(exc).__name__}: {exc}"
        data = " ".join(float(v).hex() for v in values) + " " + bias
        yield f"bits stacy {law.label()}", data.encode()


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    root = Path(argv[0]).resolve()
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    from ruinlab import cli, laws, tilts

    import workloads

    total = hashlib.sha256()
    with tempfile.TemporaryDirectory() as tmp:
        parts = [
            *_tables(cli, Path(tmp)),
            *_checks(cli, Path(tmp)),
            *_estimates(cli, Path(tmp)),
            *_workloads(workloads),
            *_workloads_own_k(workloads),
            *_bits(laws),
            *_stacy_bits(laws, tilts),
        ]
    for label, data in parts:
        part = data.decode() if label.startswith("bits ") else hashlib.sha256(data).hexdigest()
        print(f"{part}  {label}")
        total.update(part.encode())
    print(f"{total.hexdigest()}  all")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
