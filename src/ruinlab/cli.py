"""Command-line front end: estimate over reserve grids, run benchmark tables,
and print analytic diagnostics for a model/tilt configuration.

Exit codes: 0 success, 2 configuration error (a tilted law with no sampler
included, a K whose per-replication state does not fit in memory, and any
other library error an estimate or table cannot run past),
3 admissibility failure, 4 step cap exceeded (``engine._MAX_STEPS``, 10^8 steps
per replication). ``check`` prints a quantity the library cannot compute as
``unavailable (<reason>)`` and still exits 0.

Every setting is checked and every row computed before the one CSV write, so a
command that exits non-zero leaves no ``--out`` file; an ``--out`` whose
directory does not exist or is not writable fails with the settings, before
any replication. ``estimate --exact`` takes psi(u - b) for every reserve from
``lundberg.exact_psi`` before the first replication too, so a model with no
closed form exits 2; an ``are`` cell is |exact - estimate| / exact, and nan
where the closed form underflows to 0.

Admissibility has one rule, applied by ``estimate_psi``: without a horizon the
pair must be ruin-inducing with a positive tilted drift (exit 3); with
``--horizon`` every pair runs.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys

from .engine import SimConfig, estimate_psi
from .errors import ConfigError, NonFiniteMoment, NotRuinInducing, RuinlabError, StepCapExceeded
from .lundberg import exact_psi, lundberg_root, memm_point, xi_hat
from .model import model_from_config
from .tables import TABLES, table_spec
from .tilts import check_admissible, hazard_r_max, tilt_from_config

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_ADMISSIBILITY = 3
EXIT_STEP_CAP = 4

# the report fields every estimate row carries, in CSV order
_REPORT_COLUMNS = ["estimate", "std_error", "rse", "are", "ess", "max_norm_weight", "K", "seed"]
_ESTIMATE_COLUMNS = ["u", *_REPORT_COLUMNS, "runtime_seconds"]
_TABLE_COLUMNS = ["table", "config", "u", "exact", *_REPORT_COLUMNS]


def _fmt(value) -> str:
    """Locale-independent cell formatting; floats keep 11 significant digits."""
    if value is None:
        return ""
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        if not math.isfinite(value):
            return str(value)  # inf, -inf or nan
        if value == int(value) and abs(value) < 1e15:
            return f"{value:g}"
        return f"{value:.10e}"
    return str(value)


def _report_cells(rep, exact: float | None) -> list[str]:
    """The ``_REPORT_COLUMNS`` cells of one estimate report; ``are`` is
    |exact - estimate| / exact, blank without an exact value."""
    are = None
    if exact is not None:
        # a closed form that underflows to 0 leaves no relative error to report
        are = abs(exact - rep.estimate) / exact if exact else math.nan
    fields = (
        rep.estimate, rep.std_error, rep.rse, are, rep.ess, rep.max_norm_weight, rep.k, rep.seed
    )
    return [_fmt(v) for v in fields]


def _load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc


def _write_csv(path: str | None, header_lines, columns, rows) -> None:
    """Write ``# `` header lines, the column row and ``rows`` to ``path``
    (stdout when None or "-"); the one place an output file is opened."""
    to_stdout = path is None or path == "-"
    try:
        out = sys.stdout if to_stdout else open(path, "w", encoding="utf-8", newline="")
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from exc
    try:
        for line in header_lines:
            out.write(f"# {line}\n")
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows(rows)
    finally:
        if not to_stdout:
            out.close()


def _parse_u_grid(text: str) -> list[float]:
    try:
        grid = [float(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError as exc:
        raise ConfigError(f"cannot parse reserve grid {text!r}") from exc
    if not grid:
        raise ConfigError("reserve grid is empty")
    if grid != sorted(grid):
        raise ConfigError("reserve grid must be sorted ascending")
    return grid


def cmd_estimate(args) -> int:
    model = model_from_config(_load_json(args.model))
    pair = tilt_from_config(_load_json(args.tilt), model)
    cfgs = [
        SimConfig(u=u, k=args.K, seed=args.seed, horizon=args.horizon, threshold=args.threshold)
        for u in _parse_u_grid(args.u)
    ]
    if args.exact and args.horizon is not None:
        raise ConfigError("--exact requested but finite-horizon psi has no closed form")
    # a threshold b moves the barrier to u - b: the estimate targets psi(u - b)
    exacts = [exact_psi(model, cfg.u - (cfg.threshold or 0.0)) if args.exact else None
              for cfg in cfgs]
    rows = []
    for cfg, exact in zip(cfgs, exacts):
        rep = estimate_psi(model, pair, cfg)
        rows.append([_fmt(cfg.u), *_report_cells(rep, exact), _fmt(rep.runtime_seconds)])
    _write_csv(
        args.out, [f"model: {model.label()}", f"tilt: {pair.label()}"], _ESTIMATE_COLUMNS, rows
    )
    return EXIT_OK


def cmd_table(args) -> int:
    spec = table_spec(args.name)
    cfgs = [SimConfig(u=float(u), k=args.K, seed=args.seed) for u in spec.u_grid]
    pairs = [tilt_from_config(col.tilt_config, col.model) for col in spec.columns]
    header_lines = [
        f"{spec.name} {col.label}: {col.model.label()}; tilt {pair.label()}"
        for col, pair in zip(spec.columns, pairs)
    ]
    rows = []
    for col, pair in zip(spec.columns, pairs):
        for cfg in cfgs:
            exact = col.exact(col.model, cfg.u) if col.exact else None
            rep = estimate_psi(col.model, pair, cfg)
            cells = _report_cells(rep, exact)
            rows.append([spec.name, col.label, _fmt(cfg.u), _fmt(exact), *cells])
    _write_csv(args.out, header_lines, _TABLE_COLUMNS, rows)
    return EXIT_OK


def _quantity(lines, key, fn, show=_fmt, failed="unavailable ({})"):
    """Append ``(key, show(fn()))`` to ``lines`` and return fn(); when fn raises
    a RuinlabError, append ``(key, failed.format(exc))`` and return None."""
    try:
        value = fn()
    except RuinlabError as exc:
        lines.append((key, failed.format(exc)))
        return None
    lines.append((key, show(value)))
    return value


def cmd_check(args) -> int:
    model = model_from_config(_load_json(args.model))
    lines: list[tuple[str, str]] = []
    lines.append(("model", model.label()))
    lines.append(("E[X]", _fmt(model.claim_mean)))
    lines.append(("E[W]", _fmt(model.wait_mean)))
    lines.append(("premium", _fmt(model.premium)))
    lines.append(("safety_loading", _fmt(model.safety_loading)))
    lines.append(("npc", "holds"))  # construction rejects violations

    _quantity(lines, "rho", lambda: lundberg_root(model))
    mp = _quantity(lines, "r_memm", lambda: memm_point(model), lambda point: _fmt(point.r))
    if mp is not None and mp.premium is not None:
        lines.append(("memm_premium", _fmt(mp.premium)))
    _quantity(lines, "xi_hat", lambda: xi_hat(model))
    _quantity(lines, "exact_psi_0", lambda: exact_psi(model, 0.0))

    if args.tilt:
        pair = tilt_from_config(_load_json(args.tilt), model)
        lines.append(("tilt", pair.label()))
        if pair.variant == "hazard":
            _quantity(lines, "r_max", lambda: hazard_r_max(model, pair.theta))
        report = _quantity(lines, "in_c_p", lambda: check_admissible(pair),
                           lambda rep: str(rep.in_c_p), "False (non-finite tilted moment: {})")
        if report is not None:
            lines.append(("lhs_c_E_W_tilted", _fmt(report.lhs)))
            lines.append(("rhs_E_X_tilted", _fmt(report.rhs)))
            lines.append(("moment_method", report.method))

    for key, value in lines:
        print(f"{key}: {value}")
    if args.out:
        _write_csv(args.out, [], ["key", "value"], lines)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ruinlab",
        description="Importance-sampling estimation of ruin probabilities "
        "in Sparre Andersen risk models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    est = sub.add_parser("estimate", help="estimate psi(u) over a reserve grid")
    est.add_argument("--model", required=True, help="model config (JSON)")
    est.add_argument("--tilt", required=True, help="tilt config (JSON)")
    est.add_argument("--u", required=True, help="comma-separated ascending reserves")
    est.add_argument("--K", type=int, required=True, help="replications per reserve")
    est.add_argument("--seed", type=int, required=True, help="master seed")
    est.add_argument("--horizon", type=float, default=None, help="finite time horizon")
    est.add_argument("--threshold", type=float, default=None, help="solvency threshold b")
    est.add_argument("--out", default=None, help="CSV output path (default stdout)")
    est.add_argument("--exact", action="store_true", help="add ARE from the closed form")
    est.set_defaults(fn=cmd_estimate)

    tab = sub.add_parser("table", help="run a named benchmark configuration")
    tab.add_argument("name", choices=sorted(TABLES), help="benchmark name")
    tab.add_argument("--K", type=int, required=True)
    tab.add_argument("--seed", type=int, required=True)
    tab.add_argument("--out", default=None, help="CSV output path (default stdout)")
    tab.set_defaults(fn=cmd_table)

    chk = sub.add_parser("check", help="print analytic diagnostics for a model")
    chk.add_argument("--model", required=True, help="model config (JSON)")
    chk.add_argument("--tilt", default=None, help="optional tilt config (JSON)")
    chk.add_argument("--out", default=None, help="optional CSV output path")
    chk.set_defaults(fn=cmd_check)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # an --out directory that is missing or unwritable fails before anything
        # runs (_write_csv opens the file)
        directory = os.path.dirname(args.out or "-") or "."
        if not os.path.isdir(directory):
            raise ConfigError(f"cannot write {args.out}: no directory {directory}")
        if not os.access(directory, os.W_OK):
            raise ConfigError(f"cannot write {args.out}: directory {directory} is not writable")
        return args.fn(args)
    except (NotRuinInducing, NonFiniteMoment) as exc:
        print(f"admissibility failure: {exc}", file=sys.stderr)
        return EXIT_ADMISSIBILITY
    except StepCapExceeded as exc:
        print(f"step cap exceeded: {exc}", file=sys.stderr)
        return EXIT_STEP_CAP
    except (ValueError, RuinlabError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MemoryError:
        # a run holds the state of all K replications at once (check takes no --K)
        k = getattr(args, "K", None)
        print(f"configuration error: out of memory with --K {k} replications per run",
              file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
