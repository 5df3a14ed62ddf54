"""filmhomog study benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  It builds the workload's scenario dict from
the seed.  For a share of the time it builds the scenario config repeatedly
(``setup_s``).  For the rest it runs the study (``run_convergence`` or
``run_gauge``) repeatedly (``study_s``) and checks every result outside the
timed region.  A fixed calibration kernel runs between consecutive timed
calls, and every timing is scaled to a host of fixed speed
(``hostspeed.py``): other tenants of a shared machine slow whole runs down by
up to 2x, and the kernel slows down with them.  ``setup_s`` is the median of
the scaled builds, ``study_s`` the mean of the scaled study calls.

With ``--trace 0`` it prints the end-to-end metrics.  With ``--trace 1`` it
alternates untraced and traced study calls and prints the per-layer metrics,
medians over the traced calls of one run.  The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` (study runs;
failed = raised or failed a check) and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SETUP_SHARE = 0.08  # share of --seconds spent timing build_config
SETUP_MIN_REPS = 5
SPANS_DIR = BENCH_DIR / "out"  # spans of the last traced calls

sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import hostspeed  # noqa: E402
import scenarios  # noqa: E402
import spans  # noqa: E402


def import_library():
    """The checkout's own filmhomog, never one installed elsewhere."""
    import filmhomog
    import filmhomog.config
    import filmhomog.study

    if Path(filmhomog.__file__).resolve().parent != ROOT / "src" / "filmhomog":
        raise ImportError(f"filmhomog imported from {filmhomog.__file__}, not from this checkout")
    return filmhomog


def run_study(fh, cfg):
    """The study the scenario asks for, as ``filmhomog converge/gauge`` runs it."""
    if cfg.choice_b is None:
        return fh.study.run_convergence(
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
    l, h = cfg.schedule[0]
    return fh.study.run_gauge(
        cfg.motif, cfg.pmap, cfg.choice_a, cfg.choice_b, l, h, cfg.regime, cfg.grid,
        tol=cfg.tol, max_depth=cfg.max_depth,
    )


class Outcomes:
    """Attempted and failed study runs; the first failure is shown in full."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            if not self.failed:
                print("study run failed:\n  " + "\n  ".join(problems), file=sys.stderr)
            self.failed += 1

    @property
    def fail_frac(self) -> float:
        return self.failed / self.attempted


def timed_study(fh, cfg, direct_check, outcomes: Outcomes, tracer=None) -> tuple[float, float, bool]:
    """One study call: its wall seconds, the calibration kernel's seconds right
    after it, and whether it passed (checked after both clocks stop)."""
    traced = tracer is not None
    gc.collect()
    report = None
    with spans.hooks(tracer) if traced else contextlib.nullcontext():
        t0 = time.perf_counter()
        try:
            with tracer.span("study") if traced else contextlib.nullcontext():
                report = run_study(fh, cfg)
        except Exception:  # a raising study is a failed run, not a crashed benchmark
            problems = [traceback.format_exc()]
        dt = time.perf_counter() - t0
    kernel_s = hostspeed.timed_kernel()
    if report is not None:
        problems = checks.study_problems(report, cfg)
        if direct_check is not None:
            problems += direct_check.problems(report.micro)
    outcomes.record(problems)
    return dt, kernel_s, not problems


def passing_mean(calls: list[tuple[float, bool]]) -> float:
    """Mean of the passing calls (a call that fails early must not look fast).

    The mean, not the median: the host-scaled calls of one run hold no far
    outliers (in 76 runs on a shared 2-CPU VM the slowest was under 1.5x the
    median), and over ten runs on a busy host the mean spread about two
    thirds as much."""
    passed = [dt for dt, ok in calls if ok]
    return statistics.fmean(passed or [dt for dt, _ in calls])


def measure(fh, raw: dict, seconds: float, trace: bool, spans_path: Path) -> tuple[Outcomes, dict]:
    start = time.perf_counter()
    setup_times, setup_layers = [], []
    setup_kernel = [hostspeed.timed_kernel()]
    while len(setup_times) < SETUP_MIN_REPS or time.perf_counter() - start < SETUP_SHARE * seconds:
        setup_tracer = spans.Tracer() if trace else None
        with spans.hooks(setup_tracer) if trace else contextlib.nullcontext():
            t0 = time.perf_counter()
            cfg = fh.config.build_config(raw)
            setup_times.append(time.perf_counter() - t0)
        setup_kernel.append(hostspeed.timed_kernel())
        if trace:
            setup_layers.append(spans.setup_metrics(setup_tracer))

    direct_check = None if cfg.choice_b is not None else checks.DirectSumCheck(raw, cfg.schedule, cfg.grid.points)
    deadline = start + seconds
    outcomes = Outcomes()
    calls, study_kernel, study_layers = [], [hostspeed.timed_kernel()], []
    n_traced = 0
    while True:
        if trace and n_traced < len(calls) - n_traced:
            study_tracer = spans.Tracer()
            dt, kernel_s, ok = timed_study(fh, cfg, direct_check, outcomes, study_tracer)
            study_layers.append(spans.study_metrics(study_tracer))
            n_traced += 1
            calls.append((True, dt, ok))
        else:
            dt, kernel_s, ok = timed_study(fh, cfg, direct_check, outcomes)
            calls.append((False, dt, ok))
        study_kernel.append(kernel_s)
        if time.perf_counter() + dt > deadline and (n_traced or not trace):
            break

    scaled = hostspeed.scaled([dt for _, dt, _ in calls], study_kernel)
    plain = [(s, ok) for (tr, _, ok), s in zip(calls, scaled) if not tr]
    traced = [(s, ok) for (tr, _, ok), s in zip(calls, scaled) if tr]
    print(f"study calls: {len(plain)} untraced, {len(traced)} traced")
    print("untraced study wall seconds: " + " ".join(f"{dt:.3f}" for tr, dt, _ in calls if not tr))
    print("calibration kernel seconds: " + " ".join(f"{k:.4f}" for k in setup_kernel + study_kernel))
    if not trace:
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        setup_scaled = hostspeed.scaled(setup_times, setup_kernel)
        return outcomes, {
            "setup_s": (statistics.median(setup_scaled), "s"),
            "study_s": (passing_mean(plain), "s"),
            "peak_rss_mb": (peak_kib / 1024.0, "MB"),
        }

    metrics = {}
    for layers in (setup_layers, study_layers):
        for name in layers[0]:
            metrics[name] = (statistics.median(run[name] for run in layers), spans.metric_unit(name))
    metrics["trace.overhead_s"] = (passing_mean(traced) - passing_mean(plain), "s")
    missing = sorted(study_tracer.missing)
    if missing:
        print(f"absent layers (hook target not found): {', '.join(missing)}")
    spans_path.parent.mkdir(exist_ok=True)
    spans_path.write_text(json.dumps({"setup": setup_tracer.to_json(), "study": study_tracer.to_json()}))
    return outcomes, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(scenarios.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        fh = import_library()
    except ImportError as exc:
        print(f"cannot import filmhomog from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2

    raw = scenarios.scenario(args.workload, args.seed)
    spans_path = SPANS_DIR / f"spans-{args.workload}-seed{args.seed}.json"
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    outcomes, metrics = measure(fh, raw, args.seconds, bool(args.trace), spans_path)
    print(f"fail_frac = {outcomes.fail_frac:g} ({outcomes.failed} of {outcomes.attempted} study runs)")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    result = {
        "correct": outcomes.failed == 0,
        "attempted": outcomes.attempted,
        "failed": outcomes.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
