"""Command-line front end.

    filmhomog potential --config scenario.json [--out DIR]
    filmhomog converge  --config scenario.json [--assert]
    filmhomog gauge     --config scenario.json [--assert]
    filmhomog moments   --config scenario.json

Exit codes: 0 success; 2 bad input (config parse/validation failure,
including map parameters a factory rejects and an out-of-range regime or
motif, standoff violation, incommensurate unit cells, any other library
error); 3 numerical failure, an ``errors.NumericalError``
(QuadratureNotConverged, DegenerateFrame, SingularEvaluation); 4 threshold
failure under --assert.

This module is the only writer of files; the library returns reports.
Output CSVs are bitwise reproducible for a given config (fixed summation
order, repr-formatted floats, no wall-clock data) and start with a comment
line carrying the scenario hash and the Green's convention.  Under
--green-4pi every potential-valued column (phi, phi_a, phi_b, diff,
err_max, err_rms) is scaled by 1/(4 pi); summary.json and the --assert
thresholds stay in the 1/r convention.  summary.json is built here from
report data; undefined (non-finite) values are written as null.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from pathlib import Path

import numpy as np

from .config import ScenarioConfig, parse_config
from .errors import ConfigError, FilmHomogError, NumericalError
from .lattice import tessellate
from .moments import MomentTable, moment_table
from .study import ConvergenceReport, rebin_motif, run_convergence, run_gauge

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_ASSERT = 4

_POTENTIAL_COLUMNS = frozenset({"phi", "phi_a", "phi_b", "diff", "err_max", "err_rms"})
_STEP_HEADER = ["l", "h", "err_max", "err_rms", "taylor_ok"]
_MOMENT_HEADER = ["index1", "index2", "corner_x1", "corner_x2", "kind", "q", "p_p1", "p_p2", "p3", "sigma"]


def _open(out_dir: Path, name: str):
    """Open ``out_dir / name`` for writing; commands call it only after every
    result is computed, so a failed run creates no directory and no file."""
    out_dir.mkdir(parents=True, exist_ok=True)
    return open(out_dir / name, "w")


def _cell(value) -> str:
    """Text as is, ints and flags as digits, floats by repr, NaN (undefined) as empty."""
    if isinstance(value, str):
        return value
    if isinstance(value, int):  # bool included
        return str(int(value))
    return "" if math.isnan(value) else repr(value)


def _write_csv(cfg: ScenarioConfig, out_dir: Path, name: str, header: list, rows) -> None:
    """The scenario line, the header, then ``rows``; potential-valued columns
    are rescaled to the config's Green's convention."""
    scale = 1.0 / (4.0 * math.pi) if cfg.green_4pi else 1.0
    scaled = [col in _POTENTIAL_COLUMNS for col in header]
    with _open(out_dir, name) as fh:
        fh.write(f"# scenario={cfg.scenario_hash} green={'1/(4pi r)' if cfg.green_4pi else '1/r'}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_cell(scale * v if s else v) for v, s in zip(row, scaled)])


def _write_moments(cfg: ScenarioConfig, out_dir: Path, name: str, table: MomentTable) -> None:
    kind = np.where(table.is_full, "full", "partial")
    columns = [*table.indices.T, *table.corners.T, kind, table.q, *table.p_p.T, table.p3, table.sigma]
    _write_csv(cfg, out_dir, name, _MOMENT_HEADER, zip(*(c.tolist() for c in columns)))


def _write_summary(cfg: ScenarioConfig, out_dir: Path, **fields) -> None:
    """``fields`` plus the scenario hash as sorted JSON; NaN and infinities
    (undefined results) are written as null."""
    payload = json.loads(json.dumps({"scenario": cfg.scenario_hash, **fields}), parse_constant=lambda _: None)
    with _open(out_dir, "summary.json") as fh:
        fh.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _convergence(cfg: ScenarioConfig) -> ConvergenceReport:
    return run_convergence(
        cfg.motif,
        cfg.pmap,
        cfg.choice_a,
        cfg.regime,
        cfg.schedule,
        cfg.grid,
        tol=cfg.tol,
        max_depth=cfg.max_depth,
        order_threshold=cfg.thresholds.order_min,
    )


def _cmd_potential(cfg: ScenarioConfig, out_dir: Path) -> int:
    report = _convergence(cfg)
    rows = [
        (*p, v, s.provenance)
        for s in report.micro + [report.homogenized]
        for p, v in zip(s.grid.points.tolist(), s.values.tolist())
    ]
    _write_csv(cfg, out_dir, "potential.csv", ["x", "y", "z", "phi", "provenance"], rows)
    return EXIT_OK


def _cmd_moments(cfg: ScenarioConfig, out_dir: Path) -> int:
    l, h = cfg.schedule[0]
    tess = tessellate(cfg.pmap.domain, l, cfg.choice_a)
    tables = {"moments.csv": moment_table(tess, cfg.motif, cfg.pmap, l=l, h=h)}
    if cfg.choice_b is not None:
        motif_b = rebin_motif(cfg.motif, cfg.choice_a, cfg.choice_b, l)
        tess_b = tessellate(cfg.pmap.domain, l, cfg.choice_b)
        tables["moments_b.csv"] = moment_table(tess_b, motif_b, cfg.pmap, l=l, h=h)
    for name, table in tables.items():
        _write_moments(cfg, out_dir, name, table)
    return EXIT_OK


def _cmd_converge(cfg: ScenarioConfig, out_dir: Path, assert_: bool) -> int:
    report = _convergence(cfg)
    rows = [(s.l, s.h, s.err_max, s.err_rms, s.taylor_ok) for s in report.steps]
    _write_csv(cfg, out_dir, "convergence.csv", _STEP_HEADER, rows)
    _write_summary(
        cfg,
        out_dir,
        regime=report.regime.label(),
        fitted_order=report.fitted_order,
        order_threshold=report.order_threshold,
        errors_decrease=report.errors_decrease,
        converged=report.converged,
        steps=[dict(zip(_STEP_HEADER, row)) for row in rows],
    )
    if assert_ and not report.converged:
        print(
            f"convergence assertion failed: p_hat={report.fitted_order:.3f}, "
            f"errors_decrease={report.errors_decrease}",
            file=sys.stderr,
        )
        return EXIT_ASSERT
    return EXIT_OK


def _cmd_gauge(cfg: ScenarioConfig, out_dir: Path, assert_: bool) -> int:
    if cfg.choice_b is None:
        raise ConfigError("gauge run needs a cell_b entry in the config")
    l, h = cfg.schedule[0]
    report = run_gauge(
        cfg.motif,
        cfg.pmap,
        cfg.choice_a,
        cfg.choice_b,
        l,
        h,
        cfg.regime,
        cfg.grid,
        tol=cfg.tol,
        max_depth=cfg.max_depth,
    )
    phi_a, phi_b = report.field_a.values, report.field_b.values
    rows = zip(*report.field_a.grid.points.T.tolist(), phi_a.tolist(), phi_b.tolist(), (phi_a - phi_b).tolist())
    _write_csv(cfg, out_dir, "gauge.csv", ["x", "y", "z", "phi_a", "phi_b", "diff"], rows)
    _write_moments(cfg, out_dir, "gauge_moments_a.csv", report.moments_a)
    _write_moments(cfg, out_dir, "gauge_moments_b.csv", report.moments_b)
    _write_summary(
        cfg,
        out_dir,
        max_moment_diff=report.max_moment_diff,
        max_potential_diff=report.max_potential_diff,
        atoms_consistent=report.atoms_consistent,
    )
    ok = (
        report.atoms_consistent
        and report.max_potential_diff <= cfg.thresholds.gauge_phi_tol
        and report.max_moment_diff >= cfg.thresholds.gauge_moment_min
    )
    if assert_ and not ok:
        print(
            f"gauge assertion failed: max|dPhi|={report.max_potential_diff:.3e}, "
            f"max|dp|={report.max_moment_diff:.3e}, atoms_consistent={report.atoms_consistent}",
            file=sys.stderr,
        )
        return EXIT_ASSERT
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="filmhomog",
        description="Homogenized electrostatics of lattice charges on thin films",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in [
        ("potential", "microscopic and homogenized potentials on the grid"),
        ("converge", "convergence study along the (l, h) schedule"),
        ("gauge", "unit-cell (gauge) invariance study"),
        ("moments", "per-cell moment tables"),
    ]:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="scenario JSON file")
        p.add_argument("--out", default=None, help="output directory (default from config)")
        p.add_argument("--tolerance", type=float, default=None, help="override quadrature tolerance")
        p.add_argument("--green-4pi", action="store_true", help="report potentials in the 1/(4 pi r) convention")
        if name in ("converge", "gauge"):
            p.add_argument("--assert", dest="assert_", action="store_true", help="exit 4 if thresholds fail")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = parse_config(args.config, tol=args.tolerance)
    except ConfigError as exc:
        if hasattr(exc, "violations"):
            for v in exc.violations:
                print(f"config violation: {v}", file=sys.stderr)
        else:
            print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    if args.green_4pi:
        cfg.green_4pi = True

    try:
        out_dir = Path(args.out) if args.out else cfg.out_dir
        if args.command == "potential":
            return _cmd_potential(cfg, out_dir)
        if args.command == "moments":
            return _cmd_moments(cfg, out_dir)
        if args.command == "converge":
            return _cmd_converge(cfg, out_dir, args.assert_)
        if args.command == "gauge":
            return _cmd_gauge(cfg, out_dir, args.assert_)
    except NumericalError as exc:
        print(f"numerical failure ({type(exc).__name__}): {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (FilmHomogError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    raise AssertionError(f"unhandled command {args.command}")


if __name__ == "__main__":
    sys.exit(main())
