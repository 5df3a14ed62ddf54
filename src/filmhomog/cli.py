"""Command-line front end.

    filmhomog potential --config scenario.json [--out DIR]
    filmhomog converge  --config scenario.json [--assert]
    filmhomog gauge     --config scenario.json [--assert]
    filmhomog moments   --config scenario.json

Exit codes: 0 success, 2 config parse/validation failure, 3 numerical
failure (quadrature depth cap, bad Jacobian, singular evaluation, ...),
4 threshold failure under --assert.

Output CSVs are bitwise reproducible for a given config (fixed summation
order, repr-formatted floats, no wall-clock data) and start with a comment
line carrying the scenario hash.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from .config import ScenarioConfig, parse_config
from .errors import (
    ConfigError,
    DegenerateFrame,
    NonPositiveJacobian,
    QuadratureNotConverged,
    RegimeMismatch,
    SingularEvaluation,
    StandoffViolation,
)
from .lattice import tessellate
from .moments import moment_table, moments_to_csv
from .potential import FieldSample, field_to_csv
from .study import ConvergenceReport, rebin_motif, run_convergence, run_gauge

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_ASSERT = 4

_NUMERICAL_ERRORS = (
    QuadratureNotConverged,
    NonPositiveJacobian,
    DegenerateFrame,
    SingularEvaluation,
    StandoffViolation,
    RegimeMismatch,
)


def _green_scale(cfg: ScenarioConfig) -> float:
    return 1.0 / (4.0 * math.pi) if cfg.green_4pi else 1.0


def _comment(cfg: ScenarioConfig) -> str:
    convention = "1/(4pi r)" if cfg.green_4pi else "1/r"
    return f"scenario={cfg.scenario_hash} green={convention}"


def _scaled(sample: FieldSample, scale: float) -> FieldSample:
    if scale == 1.0:
        return sample
    return FieldSample(grid=sample.grid, values=scale * sample.values, provenance=sample.provenance)


def _open(out_dir: Path, name: str):
    """Open ``out_dir / name`` for writing; commands call it only after every
    result is computed, so a failed run creates no directory and no file."""
    out_dir.mkdir(parents=True, exist_ok=True)
    return open(out_dir / name, "w")


def _write_summary(cfg: ScenarioConfig, out_dir: Path, payload: dict) -> None:
    payload = {"scenario": cfg.scenario_hash, **payload}
    with _open(out_dir, "summary.json") as fh:
        fh.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _convergence(cfg: ScenarioConfig) -> ConvergenceReport:
    cfg.pmap.check_valid()
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
    scale = _green_scale(cfg)
    samples = [_scaled(s, scale) for s in report.micro + [report.homogenized]]
    with _open(out_dir, "potential.csv") as fh:
        field_to_csv(samples, fh, comment=_comment(cfg))
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
        with _open(out_dir, name) as fh:
            moments_to_csv(table, fh, comment=_comment(cfg))
    return EXIT_OK


def _cmd_converge(cfg: ScenarioConfig, out_dir: Path, assert_: bool) -> int:
    report = _convergence(cfg)
    with _open(out_dir, "convergence.csv") as fh:
        report.to_csv(fh, comment=_comment(cfg))
    _write_summary(cfg, out_dir, report.summary())
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
    with _open(out_dir, "gauge.csv") as fh:
        report.to_csv(fh, comment=_comment(cfg))
    with _open(out_dir, "gauge_moments_a.csv") as fh:
        moments_to_csv(report.moments_a, fh, comment=_comment(cfg))
    with _open(out_dir, "gauge_moments_b.csv") as fh:
        moments_to_csv(report.moments_b, fh, comment=_comment(cfg))
    _write_summary(cfg, out_dir, report.summary())
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
    except _NUMERICAL_ERRORS as exc:
        print(f"numerical failure ({type(exc).__name__}): {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ConfigError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    raise AssertionError(f"unhandled command {args.command}")


if __name__ == "__main__":
    sys.exit(main())
