import itertools
import json

import numpy as np
import pytest
from reference import loop_rebin

from filmhomog import (
    Modulation,
    Motif,
    MotifPoint,
    ObservationGrid,
    ParametricMap,
    Rectangle,
    Regime,
    UnitCellChoice,
    fit_order,
    make_schedule,
    moment_table,
    rebin_motif,
    run_convergence,
    run_gauge,
    tessellate,
)
from filmhomog import potential, quadrature
from filmhomog.cli import main
from filmhomog.config import build_config, parse_config

UNIT = Rectangle((0.0, 0.0), (1.0, 1.0))
SQUARE = UnitCellChoice()
HALF_SHIFT = UnitCellChoice(f=(0.5, 0.5))
IDENT = ParametricMap.identity(UNIT)
PLANAR_DIPOLE = Motif(points=(MotifPoint(+1.0, (0.75, 0.5), 0.0), MotifPoint(-1.0, (0.25, 0.5), 0.0)))


def run_cli(tmp_path, command, **entries):
    """Run ``command`` on the planar dipole (R2, alpha = 1, the ``grid``
    fixture's 5x5 points) plus ``entries``; returns the output directory and
    the scenario hash."""
    config = tmp_path / "scenario.json"
    payload = {
        "motif": {"points": [{"w": p.w, "y": list(p.y), "z": p.z} for p in PLANAR_DIPOLE.points]},
        "regime": {"kind": "R2", "alpha": 1.0},
        "grid": {"kind": "offset_surface", "n": [5, 5], "distance": 1.0},
        "output": {"dir": str(tmp_path / "out")},
        **entries,
    }
    config.write_text(json.dumps(payload))
    assert main([command, "--config", str(config)]) == 0
    return tmp_path / "out", parse_config(config).scenario_hash


@pytest.fixture(scope="module")
def grid():
    return ObservationGrid.offset_surface(IDENT, 5, 5, 1.0)


class TestSchedules:
    def test_r1_default_coupling(self):
        sched = make_schedule(Regime("R1"), l_values=[0.25, 0.125])
        assert sched == [(0.25, 0.0625), (0.125, 0.015625)]

    def test_r2_coupling(self):
        sched = make_schedule(Regime("R2", alpha=2.0), l_values=[0.25])
        assert sched == [(0.25, 0.5)]

    def test_r3_coupling(self):
        sched = make_schedule(Regime("R3"), h_values=[0.25, 0.125])
        assert sched == [(0.0625, 0.25), (0.015625, 0.125)]

    def test_explicit_pairs(self):
        sched = make_schedule(Regime("R1"), l_values=[0.25, 0.25], h_values=[0.1, 0.05])
        assert sched == [(0.25, 0.1), (0.25, 0.05)]


class TestFitOrder:
    def test_exact_power_law(self):
        ls = [0.25, 0.125, 0.0625, 0.03125]
        errs = [0.3 * l**1.7 for l in ls]
        assert fit_order(ls, errs) == pytest.approx(1.7, abs=1e-12)

    def test_uses_last_points_only(self):
        ls = [0.5, 0.25, 0.125, 0.0625]
        errs = [10.0] + [0.3 * l for l in ls[1:]]  # pre-asymptotic junk first
        assert fit_order(ls, errs) == pytest.approx(1.0, abs=1e-12)


class TestConvergence:
    def test_r2_planar_dipole(self, grid):
        regime = Regime("R2", alpha=1.0)
        sched = make_schedule(regime, l_values=[1 / 4, 1 / 8, 1 / 16])
        rep = run_convergence(PLANAR_DIPOLE, IDENT, SQUARE, regime, sched, grid)
        assert rep.errors_decrease
        assert rep.fitted_order >= 0.9
        assert rep.converged

    def test_degenerate_schedule_flagged(self, grid):
        # fixed l, shrinking h: errors plateau at the O(l) floor
        regime = Regime("R1")
        sched = [(0.25, 0.0625), (0.25, 0.03125), (0.25, 0.015625)]
        rep = run_convergence(PLANAR_DIPOLE, IDENT, SQUARE, regime, sched, grid)
        assert not rep.converged
        assert rep.fitted_order != rep.fitted_order or rep.fitted_order < 0.5  # nan or tiny

    def test_report_csv_and_summary(self, grid, tmp_path):
        """The CLI's convergence.csv and summary.json carry the report's steps and verdicts."""
        regime = Regime("R2", alpha=1.0)
        sched = make_schedule(regime, l_values=[1 / 4, 1 / 8])
        rep = run_convergence(PLANAR_DIPOLE, IDENT, SQUARE, regime, sched, grid)
        out, scenario = run_cli(tmp_path, "converge", schedule={"l": [1 / 4, 1 / 8]})
        lines = (out / "convergence.csv").read_text().splitlines()
        assert lines[0] == f"# scenario={scenario} green=1/r"
        assert lines[1] == "l,h,err_max,err_rms,taylor_ok"
        assert len(lines) == 2 + len(sched)
        for line, s in zip(lines[2:], rep.steps):
            row = line.split(",")
            assert [float(x) for x in row[:4]] == [s.l, s.h, s.err_max, s.err_rms]
            assert row[4] == str(int(s.taylor_ok))
        assert json.loads((out / "summary.json").read_text()) == {
            "scenario": scenario,
            "regime": "R2(alpha=1)",
            "fitted_order": rep.fitted_order,
            "order_threshold": rep.order_threshold,
            "errors_decrease": rep.errors_decrease,
            "converged": rep.converged,
            "steps": [
                {"l": s.l, "h": s.h, "err_max": s.err_max, "err_rms": s.err_rms, "taylor_ok": s.taylor_ok}
                for s in rep.steps
            ],
        }
        # one step fits no order: NaN is written as null
        (tmp_path / "one").mkdir()
        out, _ = run_cli(tmp_path / "one", "converge", schedule={"l": [1 / 4]})
        summary = json.loads((out / "summary.json").read_text())
        assert summary["fitted_order"] is None and summary["converged"] is False
        assert [step["l"] for step in summary["steps"]] == [0.25]

    def test_r2_mixed_motif_on_cylinder(self):
        """All three source pieces at once (bound charge, edge charge, double
        layer) against the microscopic sums on a curved film."""
        cyl = ParametricMap.cylinder(UNIT, 2.0)
        cyl_grid = ObservationGrid.offset_surface(cyl, 4, 4, 1.0)
        mixed = Motif(
            points=PLANAR_DIPOLE.points
            + (MotifPoint(+0.5, (0.5, 0.5), 0.5), MotifPoint(-0.5, (0.5, 0.5), -0.5))
        )
        regime = Regime("R2", alpha=1.0)
        sched = make_schedule(regime, l_values=[1 / 4, 1 / 8, 1 / 16])
        rep = run_convergence(mixed, cyl, SQUARE, regime, sched, cyl_grid)
        assert rep.converged

    def test_taylor_flag_records_coarse_steps(self, grid):
        regime = Regime("R2", alpha=1.0)
        rep = run_convergence(
            PLANAR_DIPOLE, IDENT, SQUARE, regime, make_schedule(regime, l_values=[1 / 4, 1 / 16]), grid
        )
        assert [s.taylor_ok for s in rep.steps] == [False, True]


class TestRebin:
    def test_half_shift_flips_sharing(self):
        motif_b = rebin_motif(PLANAR_DIPOLE, SQUARE, HALF_SHIFT, 0.25)
        got = sorted((p.w, p.y) for p in motif_b.points)
        assert got == [(-1.0, (0.75, 0.0)), (1.0, (0.25, 0.0))]

    def test_identity_rebin(self):
        motif = rebin_motif(PLANAR_DIPOLE, SQUARE, SQUARE, 0.25)
        got = sorted((p.w, p.y, p.z) for p in motif.points)
        exp = sorted((p.w, p.y, p.z) for p in PLANAR_DIPOLE.points)
        assert got == exp

    def test_modulated_rebin_exact(self):
        mod = Modulation(kind="sinusoid", value=1.0, coef=(2.0, 0.5), phase=0.1)
        motif = Motif(
            points=(
                MotifPoint(+1.0, (0.75, 0.5), 0.0, modulation=mod),
                MotifPoint(-1.0, (0.25, 0.5), 0.0, modulation=mod),
            )
        )
        motif_b = rebin_motif(motif, SQUARE, HALF_SHIFT, 0.25)
        # the shifted modulations evaluated at a B corner reproduce the weights
        # the original atoms carry at their own A corners
        corner_b = HALF_SHIFT.corner((2, 2), 0.25)
        weights_b = sorted(float(p.weight_at(corner_b)) for p in motif_b.points)
        # B cell (2,2) = [0.625, 0.875)^2 contains: + atom of A cell (0.5, 0.625+...)...
        # enumerate A atoms directly instead
        atoms = []
        for m1 in range(-1, 6):
            for m2 in range(-1, 6):
                corner_a = SQUARE.corner((m1, m2), 0.25)
                for pt in motif.points:
                    pos = corner_a + 0.25 * np.asarray(pt.y)
                    if np.all(pos >= corner_b - 1e-12) and np.all(pos < corner_b + 0.25 - 1e-12):
                        atoms.append(float(pt.weight_at(corner_a)))
        assert weights_b == pytest.approx(sorted(atoms), abs=1e-14)

    def test_incommensurate_rejected(self):
        rotated = UnitCellChoice(e1=(0.8, 0.0), e2=(0.0, 0.8))
        with pytest.raises(ValueError):
            rebin_motif(PLANAR_DIPOLE, SQUARE, rotated, 0.25)

    def test_incommensurate_basis_step_rejected(self):
        # e1 + e2 = (1, 1) is an A-lattice vector, so B cells (0, 0) and (1, 1)
        # collect the same points; e1 alone is not, and (1, 0) differs
        skew = UnitCellChoice(e1=(1.5, 0.5), e2=(-0.5, 0.5))
        with pytest.raises(ValueError, match="not commensurate"):
            rebin_motif(PLANAR_DIPOLE, SQUARE, skew, 0.25)


REBIN_CHOICES = {
    "square": SQUARE,
    "half-shift": HALF_SHIFT,
    "f-0.3": UnitCellChoice(f=(0.3, 0.0)),
    "origin": UnitCellChoice(origin=(0.07, -0.03)),
    "sheared": UnitCellChoice(e2=(0.5, 1.0)),
    "sheared-f": UnitCellChoice(e2=(0.5, 1.0), f=(0.3, 0.0)),
    "2x1": UnitCellChoice(e1=(2.0, 0.0)),
    "scaled-0.8": UnitCellChoice(e1=(0.8, 0.0), e2=(0.0, 0.8)),
    # inverse bases with inexact products; "oblique-sum" spans the same lattice by e1 + e2 and e2
    "oblique": UnitCellChoice(e1=(1.0, 0.3), e2=(-0.2, 1.1), f=(0.3, 0.1), origin=(0.05, -0.02)),
    "oblique-sum": UnitCellChoice(e1=(0.8, 1.4), e2=(-0.2, 1.1)),
}
REBIN_PAIRS = list(itertools.product(list(REBIN_CHOICES)[:8], repeat=2)) + [
    ("oblique", "oblique-sum"),
    ("oblique-sum", "oblique"),
    ("square", "oblique"),
]
LINEAR = Modulation(kind="linear", value=1.0, coef=(0.5, 0.2))
SINUSOID = Modulation(kind="sinusoid", value=1.0, coef=(2.0, 0.5), phase=0.1)
MODULATED_FREE = Motif(
    points=(
        MotifPoint(+1.0, (0.7, 0.35), 0.2, LINEAR),
        MotifPoint(-1.0, (0.15, 0.6), -0.3, SINUSOID),
        MotifPoint(0.5, (0.45, 0.9), 0.0, LINEAR),
    ),
    free_points=(MotifPoint(0.3, (0.33, 0.21), 0.1, SINUSOID),),
)


@pytest.mark.parametrize("name_a, name_b", REBIN_PAIRS)
def test_rebin_matches_loop_oracle(name_a, name_b):
    """The array pass re-bins bitwise as the per-point loop, and raises exactly
    when B's basis vectors are not A-lattice vectors."""
    choice_a, choice_b = REBIN_CHOICES[name_a], REBIN_CHOICES[name_b]
    steps = np.linalg.solve(choice_a.basis, choice_b.basis)  # B's basis in A's basis coordinates
    commensurate = np.allclose(steps, np.round(steps), atol=1e-9, rtol=0.0)
    for motif in (PLANAR_DIPOLE, MODULATED_FREE):
        for l in (0.25, 1.0 / 64.0, 0.13, 0.1):
            if not commensurate:
                for rebin in (rebin_motif, loop_rebin):
                    with pytest.raises(ValueError, match="not commensurate"):
                        rebin(motif, choice_a, choice_b, l)
                continue
            got, exp = rebin_motif(motif, choice_a, choice_b, l), loop_rebin(motif, choice_a, choice_b, l)
            assert got == exp
            assert repr(got) == repr(exp)  # signed zeros too
            assert len(got.points) == len(motif.points) * round(abs(np.linalg.det(steps)))


class TestGauge:
    def test_half_shift_invariance(self, grid):
        rep = run_gauge(
            PLANAR_DIPOLE, IDENT, SQUARE, HALF_SHIFT, 0.25, 0.25, Regime("R2", alpha=1.0), grid
        )
        assert rep.max_moment_diff >= 0.1
        assert rep.max_potential_diff <= 1e-6
        assert rep.atoms_consistent

    def test_same_choice_zero_diffs(self, grid):
        rep = run_gauge(PLANAR_DIPOLE, IDENT, SQUARE, SQUARE, 0.25, 0.25, Regime("R2", alpha=1.0), grid)
        assert rep.max_moment_diff <= 1e-12
        assert rep.max_potential_diff <= 1e-12

    def test_vertical_pair_trivially_invariant(self, grid):
        # a neutral vertical pair at one planar point: each choice's partial cells keep both
        # charges or neither, so every sigma is 0; the half-shifted cells have 16 partial rows
        stacked = Motif(points=(MotifPoint(+1.0, (0.5, 0.5), 0.5), MotifPoint(-1.0, (0.5, 0.5), -0.5)))
        rep = run_gauge(stacked, IDENT, SQUARE, HALF_SHIFT, 0.25, 0.25, Regime("R2", alpha=1.0), grid)
        assert rep.max_potential_diff <= 1e-12
        partial_rows = []
        for choice, motif in ((SQUARE, stacked), (HALF_SHIFT, rebin_motif(stacked, SQUARE, HALF_SHIFT, 0.25))):
            table = moment_table(tessellate(UNIT, 0.25, choice), motif, IDENT, 0.25)
            sigmas = table.sigma[~table.is_full]
            partial_rows.append(len(sigmas))
            assert np.all(sigmas == 0.0)
        assert partial_rows == [0, 16]

    def test_r3_rejected(self, grid):
        with pytest.raises(ValueError):
            run_gauge(PLANAR_DIPOLE, IDENT, SQUARE, HALF_SHIFT, 0.25, 0.0625, Regime("R3"), grid)

    def test_gauge_csv(self, grid, tmp_path):
        """The CLI's gauge.csv: scenario line, header, and per point both limit potentials and their difference."""
        rep = run_gauge(PLANAR_DIPOLE, IDENT, SQUARE, SQUARE, 0.25, 0.25, Regime("R2", alpha=1.0), grid)
        out, scenario = run_cli(tmp_path, "gauge", cell_b={"f": [0.0, 0.0]}, schedule={"l": [0.25]})
        lines = (out / "gauge.csv").read_text().splitlines()
        assert lines[0] == f"# scenario={scenario} green=1/r"
        assert lines[1] == "x,y,z,phi_a,phi_b,diff"
        assert len(lines) == 2 + grid.n_points
        for line, p, va, vb in zip(lines[2:], grid.points, rep.field_a.values, rep.field_b.values):
            assert [float(x) for x in line.split(",")] == [*p, va, vb, va - vb]


# configs/gauge_half_shift.json (planar dipole, square against half-shifted cells,
# R2 alpha = 1, l = 1/4) with one change each; name: (entries, max_moment_diff,
# relative tolerance).  max_moment_diff compares J0 p_p, which is constant for
# constant weights on every map; values through sin or cos get 1e-14 for another libm.
_GAUGE_SINUSOID = {"kind": "sinusoid", "value": 1.0, "coef": [6.28, 3.14], "phase": 0.3}
_GAUGE_POINTS = [{"w": p.w, "y": list(p.y), "z": p.z} for p in PLANAR_DIPOLE.points]
GAUGE_HALF_SHIFT = {
    "motif": {"points": _GAUGE_POINTS},
    "cell_b": {"f": [0.5, 0.5]},
    "regime": {"kind": "R2", "alpha": 1.0},
    "schedule": {"l": [0.25]},
}
GAUGE_VARIANTS = {
    "scaled": ({"map": {"kind": "scaled", "factors": [2.0, 1.0, 1.0]}}, 1.0, 0.0),
    "sheared": (
        {"cell": {"e2": [0.5, 1.0]}, "cell_b": {"e2": [0.5, 1.0], "f": [0.5, 0.5]}, "schedule": {"l": [0.125]}},
        1.0,
        0.0,
    ),
    "two_by_one": (
        {"cell": {"e1": [2.0, 0.0]}, "cell_b": {"e1": [2.0, 0.0], "f": [0.5, 0.5]}, "schedule": {"l": [0.125]}},
        1.0,
        0.0,
    ),
    "free_point": ({"motif": {"points": _GAUGE_POINTS, "free_points": [{"w": 0.5, "y": [0.5, 0.4]}]}}, 1.0, 0.0),
    "cylinder": ({"map": {"kind": "cylinder", "radius": 2.0}}, 1.0, 0.0),
    # on the polar disk J0 = x1 is l/2 at the full-cell corners nearest the axis,
    # where |p_p(A) - p_p(B)| = |J0 dp_p| / J0 would read 2/l
    **{
        f"disk_l{round(1 / l)}": (
            {"map": {"kind": "disk"}, "schedule": {"l": [l]}, "grid": {"kind": "plane", "n": [3, 3], "height": 1.0}},
            1.0,
            0.0,
        )
        for l in (1 / 8, 1 / 16, 1 / 32)
    },
    "sinusoid": (
        {"motif": {"points": [dict(p, modulation=_GAUGE_SINUSOID) for p in _GAUGE_POINTS]}},
        1.1412809464127993,
        1e-14,
    ),
}


@pytest.mark.parametrize("name", list(GAUGE_VARIANTS))
def test_gauge_max_moment_diff_of_variants(name):
    """The two choices' J0-premultiplied planar polarization fields differ by these
    amounts at B's full-cell corners."""
    entries, expected, rel = GAUGE_VARIANTS[name]
    cfg = build_config({**GAUGE_HALF_SHIFT, **entries})
    l, h = cfg.schedule[0]
    rep = run_gauge(cfg.motif, cfg.pmap, cfg.choice_a, cfg.choice_b, l, h, cfg.regime, cfg.grid)
    assert rep.max_moment_diff == pytest.approx(expected, rel=rel, abs=0.0)


class TestLimitIndependentOfSchedule:
    def test_modulated_half_shift_limit_bitwise_equal(self):
        """The homogenized reference is the same whether the schedule ends at l = 1/32 or 1/64."""
        mod = Modulation(kind="sinusoid", value=1.0, coef=(2.0, 0.5), phase=0.1)
        motif = Motif(points=tuple(MotifPoint(p.w, p.y, p.z, mod) for p in PLANAR_DIPOLE.points))
        regime = Regime("R2", alpha=1.0)
        grid = ObservationGrid.offset_surface(IDENT, 3, 3, 1.0)
        limits = [
            run_convergence(motif, IDENT, HALF_SHIFT, regime, make_schedule(regime, l_values=[1 / 8, l]), grid)
            for l in (1 / 32, 1 / 64)
        ]
        np.testing.assert_array_equal(limits[0].homogenized.values, limits[1].homogenized.values)


class TestPolarDisk:
    def test_r3_study_runs(self):
        """Partial cells on the polar axis (J0 = 0 at their corners) do not enter the limit fields."""
        disk = ParametricMap.polar_disk(1.0)
        vertical = Motif(points=(MotifPoint(+1.0, (0.5, 0.5), 0.5), MotifPoint(-1.0, (0.5, 0.5), -0.5)))
        grid = ObservationGrid.plane(disk, 3, 3, Rectangle((-0.5, -0.5), (0.5, 0.5)), 1.0)
        regime = Regime("R3")
        rep = run_convergence(vertical, disk, SQUARE, regime, make_schedule(regime, h_values=[1 / 4, 1 / 8]), grid)
        assert rep.errors_decrease


# the benchmark's near-film R2 scenario at seed 1, written out: a sinusoid-modulated
# planar dipole and a 5 x 5 grid 0.02 above the unit square
_SINUSOID = {"kind": "sinusoid", "value": 1.0, "coef": [6.064975476038687, 3.24458292300584], "phase": 0.37990987408248034}
NEAR_FILM_R2_SEED_1 = {
    "map": {"kind": "identity"},
    "motif": {
        "points": [
            {"w": 1.0335503176475869, "y": [0.7691213121216359, 0.4565092367147251], "z": 0.0, "modulation": _SINUSOID},
            {"w": -1.0335503176475869, "y": [0.20483789829034538, 0.4565092367147251], "z": 0.0, "modulation": _SINUSOID},
        ]
    },
    "regime": {"kind": "R2", "alpha": 1.0},
    "schedule": {"l": [0.25, 0.125, 0.0625, 0.03125]},
    "grid": {"kind": "offset_surface", "n": [5, 5], "distance": 0.02},
    "quadrature": {"tol": 1e-09},
    "thresholds": {"order_min": 0.9},
}


class TestNearFilmTree:
    """In rounds, each panel refined for its own live columns, the near-film study
    evaluates the panels of one call per panel: the panels and depth that the
    benchmark's traced run counts, each panel once, in the same order, with the same
    bytes, in one integrand call per round."""

    @staticmethod
    def study(monkeypatch, stacked):
        """The study's report and the (nodes, columns, columns per panel) of every bulk and
        edge integrand call, the integrands declared for stacked panels or not (called
        f(x): one panel, every column)."""
        calls = {2: [], 1: []}

        def recording(engine, d):
            def run(f, *args, **kwargs):
                def g(x, *rest):
                    cols, counts = rest if rest else (np.arange(f.columns), np.array([f.columns]))
                    calls[d].append((np.array(x), np.array(cols), np.array(counts)))
                    return f(x, *rest)

                if stacked:
                    g.columns = f.columns
                return engine(g, *args, **kwargs)

            return run

        monkeypatch.setattr(potential, "adaptive_rectangle", recording(quadrature.adaptive_rectangle, 2))
        monkeypatch.setattr(potential, "adaptive_segment", recording(quadrature.adaptive_segment, 1))
        cfg = build_config(NEAR_FILM_R2_SEED_1)
        report = run_convergence(
            cfg.motif, cfg.pmap, cfg.choice_a, cfg.regime, cfg.schedule, cfg.grid, tol=cfg.tol, max_depth=cfg.max_depth
        )
        return report, calls

    @pytest.mark.parametrize("cap", [quadrature.STACK_PAIRS, 2**7], ids=["cap", "cap_2^7"])
    def test_panels_depth_and_bytes_of_one_call_per_panel(self, monkeypatch, cap):
        default = cap == quadrature.STACK_PAIRS
        monkeypatch.setattr(quadrature, "STACK_PAIRS", cap)
        report, calls = self.study(monkeypatch, stacked=True)
        bulk = [x[k : k + 64, 0] for x, *_ in calls[2] for k in range(0, len(x), 64)]
        widths = np.array([np.ptp(nodes) for nodes in bulk])
        assert len(bulk) == 2389
        assert round(float(np.log2(widths.max() / widths.min()))) == 6  # depth
        assert sum(len(x) for x, *_ in calls[1]) // 8 == 260
        # kernel evaluations, node x live column: 0.29 M, not 25 columns on every panel (3 874 400)
        assert sum(64 * len(cols) for _, cols, _ in calls[2]) == 291648  # 4 557 panel x column pairs
        assert sum(8 * len(cols) for _, cols, _ in calls[1]) == 6784
        assert all(len(x) // len(counts) * len(cols) <= cap or len(counts) == 1 for d in (1, 2) for x, cols, counts in calls[d])
        if default:
            # one call per round, the first with the roots' own panels: 15 rounds of the bulk,
            # 22 of the four edges (one call per split took 151 and 70)
            assert (len(calls[2]), len(calls[1])) == (15, 22)

        plain, plain_calls = self.study(monkeypatch, stacked=False)
        assert {len(x) for x, *_ in plain_calls[2]} == {64} and len(plain_calls[2]) == 2389
        assert 25 * 64 * 2389 + 25 * 8 * 260 == 3874400  # the traced benchmark counts every column of a plain call
        assert [x.tobytes() for x in bulk] == [x[:, 0].tobytes() for x, *_ in plain_calls[2]]
        edges = [x[k : k + 8].tobytes() for x, *_ in calls[1] for k in range(0, len(x), 8)]
        assert edges == [x.tobytes() for x, *_ in plain_calls[1]]
        assert report.homogenized.values.tobytes() == plain.homogenized.values.tobytes()

