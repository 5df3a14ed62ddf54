import json
import math
from pathlib import Path

import pytest

from filmhomog import cli, errors
from filmhomog.cli import main
from filmhomog.config import parse_config

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
GOLDEN = Path(__file__).resolve().parent / "golden"

LIBRARY_ERRORS = sorted(
    (c for c in vars(errors).values() if isinstance(c, type) and issubclass(c, errors.FilmHomogError)),
    key=lambda c: c.__name__,
)
DIPOLE_POINTS = [
    {"w": 1.0, "y": [0.75, 0.5], "z": 0.0},
    {"w": -1.0, "y": [0.25, 0.5], "z": 0.0},
]


def write_config(tmp_path, payload, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


@pytest.fixture
def r2_config(tmp_path):
    return write_config(
        tmp_path,
        {
            "motif": {"points": DIPOLE_POINTS},
            "regime": {"kind": "R2", "alpha": 1.0},
            "schedule": {"l": [0.25, 0.125, 0.0625]},
            "grid": {"kind": "offset_surface", "n": [3, 3], "distance": 1.0},
            "output": {"dir": str(tmp_path / "out")},
        },
    )


class TestConverge:
    def test_assert_passes_and_errors_monotone(self, tmp_path, r2_config):
        assert main(["converge", "--config", r2_config, "--assert"]) == 0
        lines = (tmp_path / "out" / "convergence.csv").read_text().splitlines()
        assert lines[0].startswith("# scenario=")
        errs = [float(row.split(",")[2]) for row in lines[2:]]
        assert errs == sorted(errs, reverse=True)
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["converged"] is True

    def test_assert_fails_on_degenerate_schedule(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {
                "motif": {"points": DIPOLE_POINTS},
                "regime": {"kind": "R1"},
                "schedule": {"l": [0.25, 0.25], "h": [0.0625, 0.03125]},
                "grid": {"kind": "offset_surface", "n": [3, 3], "distance": 1.0},
                "output": {"dir": str(tmp_path / "out")},
            },
        )
        assert main(["converge", "--config", cfg, "--assert"]) == 4
        assert main(["converge", "--config", cfg]) == 0  # without --assert just reports

    def test_reproducible_output(self, tmp_path, r2_config):
        assert main(["converge", "--config", r2_config, "--out", str(tmp_path / "o1")]) == 0
        assert main(["converge", "--config", r2_config, "--out", str(tmp_path / "o2")]) == 0
        a = (tmp_path / "o1" / "convergence.csv").read_bytes()
        b = (tmp_path / "o2" / "convergence.csv").read_bytes()
        assert a == b


class TestToleranceNearRoundoff:
    """One error budget per integral, refined per value column: no panel is asked for an
    error below its roundoff."""

    def test_converge_at_1e_15_exit_0(self, tmp_path):
        cfg = str(CONFIGS / "converge_r2.json")
        assert main(["converge", "--config", cfg, "--tolerance", "1e-15", "--out", str(tmp_path)]) == 0

    def test_converge_at_1e_16_exit_0(self, tmp_path):
        # each observation point's edge integral stops once its own summed error is within
        # the edge's share tol / 8, where a shared tree split on for the others' errors
        cfg = str(CONFIGS / "converge_r2.json")
        assert main(["converge", "--config", cfg, "--tolerance", "1e-16", "--out", str(tmp_path)]) == 0

    def test_converge_at_1e_20_stops_at_the_depth_cap_exit_3(self, tmp_path, capsys):
        cfg = str(CONFIGS / "converge_r2.json")
        assert main(["converge", "--config", cfg, "--tolerance", "1e-20", "--out", str(tmp_path)]) == 3
        err = capsys.readouterr().err
        assert "QuadratureNotConverged" in err
        assert "at depth 12 (the cap)" in err
        assert "1D panel [" in err and "largest in value column" in err
        assert "summed error" in err and "> 1.250e-21" in err  # edges get tol / 2, one integral per edge of 4


class TestScenarioHash:
    @staticmethod
    def first_line(tmp_path, *args):
        out = tmp_path / "_".join(args or ("default",))
        assert main(["potential", "--config", str(CONFIGS / "converge_r2.json"), "--out", str(out), *args]) == 0
        return (out / "potential.csv").read_text().splitlines()[0]

    def test_tolerance_override_changes_the_hash(self, tmp_path):
        default = self.first_line(tmp_path)
        assert default == "# scenario=9c3c0143854f green=1/r"  # the hash of the file itself
        assert self.first_line(tmp_path, "--tolerance", "1e-9") == default  # the file's own tol
        assert self.first_line(tmp_path, "--tolerance", "1e-10") != default


class TestGauge:
    def test_identical_choices_zero_rows(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {
                "motif": {"points": DIPOLE_POINTS},
                "cell": {"f": [0.0, 0.0]},
                "cell_b": {"f": [0.0, 0.0]},
                "regime": {"kind": "R2", "alpha": 1.0},
                "schedule": {"l": [0.25]},
                "grid": {"kind": "offset_surface", "n": [3, 3], "distance": 1.0},
                "output": {"dir": str(tmp_path / "out")},
            },
        )
        assert main(["gauge", "--config", cfg]) == 0
        rows = (tmp_path / "out" / "gauge.csv").read_text().splitlines()[2:]
        assert all(float(r.split(",")[-1]) == 0.0 for r in rows)

    def test_half_shift_asserts_invariance(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {
                "motif": {"points": DIPOLE_POINTS},
                "cell_b": {"f": [0.5, 0.5]},
                "regime": {"kind": "R2", "alpha": 1.0},
                "schedule": {"l": [0.25]},
                "grid": {"kind": "offset_surface", "n": [3, 3], "distance": 1.0},
                "output": {"dir": str(tmp_path / "out")},
            },
        )
        assert main(["gauge", "--config", cfg, "--assert"]) == 0
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["max_moment_diff"] >= 0.1
        assert summary["max_potential_diff"] <= 1e-6

    def test_nan_threshold_is_bad_input(self, tmp_path, capsys):
        raw = json.loads((CONFIGS / "gauge_half_shift.json").read_text())
        raw["thresholds"] = {"gauge_phi_tol": float("nan")}
        raw["output"] = {"dir": str(tmp_path / "out")}
        assert main(["gauge", "--config", write_config(tmp_path, raw), "--assert"]) == 2
        assert "gauge_phi_tol must not be NaN" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_gauge_tables_are_the_moments_tables(self, tmp_path):
        """gauge writes the moment tables of the first schedule step that moments writes,
        byte for byte, also with a free point: its dipole times l enters p_p, so row (0, 0)
        of choice A reads p_p1 = 0.5 + 0.5 * 0.5 * 0.25."""
        payload = json.loads((CONFIGS / "gauge_half_shift.json").read_text())
        payload["motif"]["free_points"] = [{"w": 0.5, "y": [0.5, 0.4]}]
        cfg = write_config(tmp_path, payload)
        for command in ("moments", "gauge"):
            assert main([command, "--config", cfg, "--out", str(tmp_path / command)]) == 0
        pairs = [("gauge_moments_a.csv", "moments.csv"), ("gauge_moments_b.csv", "moments_b.csv")]
        for gauge_name, moments_name in pairs:
            assert (tmp_path / "gauge" / gauge_name).read_bytes() == (tmp_path / "moments" / moments_name).read_bytes()
        _, header, rows = read_table(tmp_path / "gauge" / "gauge_moments_a.csv")
        (origin,) = [row for row in rows if row[:2] == ["0", "0"]]
        assert float(origin[header.index("p_p1")]) == 0.5625


class TestPotential:
    def test_writes_micro_and_homogenized(self, tmp_path, r2_config):
        assert main(["potential", "--config", r2_config]) == 0
        lines = (tmp_path / "out" / "potential.csv").read_text().splitlines()
        tags = {row.rsplit(",", 1)[-1] for row in lines[2:]}
        assert "homogenized(R2 alpha=1)" in tags
        assert any(t.startswith("microscopic(l=0.25") for t in tags)

    def test_zero_scaled_factor_is_a_map_violation_exit_2(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            {
                "map": {"kind": "scaled", "factors": [0.0, 1.0, 1.0]},
                "motif": {"points": DIPOLE_POINTS},
                "regime": {"kind": "R2", "alpha": 1.0},
                "schedule": {"l": [0.25]},
                "grid": {"kind": "points", "points": [[5.0, 5.0, 5.0]]},
                "output": {"dir": str(tmp_path / "out")},
            },
        )
        assert main(["potential", "--config", cfg]) == 2
        assert "config violation: map: scaled map needs three finite, non-zero factors, got [0.0, 1.0, 1.0]" in (
            capsys.readouterr().err
        )
        assert not (tmp_path / "out").exists()

    def test_green_4pi_scales_values(self, tmp_path, r2_config):
        assert main(["potential", "--config", r2_config, "--out", str(tmp_path / "plain")]) == 0
        assert main(
            ["potential", "--config", r2_config, "--out", str(tmp_path / "scaled"), "--green-4pi"]
        ) == 0

        def read_vals(d):
            rows = (tmp_path / d / "potential.csv").read_text().splitlines()[2:]
            return [float(r.split(",")[3]) for r in rows]

        plain = read_vals("plain")
        scaled = read_vals("scaled")
        for a, b in zip(plain, scaled):
            assert b == pytest.approx(a / (4 * math.pi), rel=1e-12, abs=1e-300)

    @pytest.mark.parametrize("name", ["converge_r2", "converge_r3"])
    def test_golden_microscopic_rows(self, tmp_path, name):
        """The exactly rounded direct sums of the committed tables, byte for byte.

        On the identity map the charges, the grid and each sum are built from
        correctly rounded IEEE operations and one exact rounding per point,
        so these rows do not depend on the platform.  The homogenized row
        goes through BLAS and is left out.
        """
        assert main(["potential", "--config", str(CONFIGS / f"{name}.json"), "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "potential.csv").read_bytes().splitlines(keepends=True)
        micro = b"".join(line for line in lines if b",microscopic(" in line)
        assert micro == (GOLDEN / name / "potential_microscopic.csv").read_bytes()


class TestMoments:
    def test_moment_csv(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {
                "motif": {"points": DIPOLE_POINTS},
                "cell_b": {"f": [0.5, 0.5]},
                "regime": {"kind": "R2", "alpha": 1.0},
                "schedule": {"l": [0.25]},
                "grid": {"kind": "offset_surface", "n": [3, 3], "distance": 1.0},
                "output": {"dir": str(tmp_path / "out")},
            },
        )
        assert main(["moments", "--config", cfg]) == 0
        lines_a = (tmp_path / "out" / "moments.csv").read_text().splitlines()
        assert len(lines_a) == 2 + 16  # aligned grid: 16 full cells
        lines_b = (tmp_path / "out" / "moments_b.csv").read_text().splitlines()
        assert len(lines_b) == 2 + 9 + 16  # shifted grid: 9 full + 16 partial

    @pytest.mark.parametrize("name", ["moments.csv", "moments_b.csv"])
    def test_golden_bytes(self, tmp_path, name):
        """Row order, signed zeros and repr formatting of the committed tables.

        Every value of this scenario is dyadic, so the bytes do not depend
        on the platform's floating-point library.
        """
        assert main(["moments", "--config", str(CONFIGS / "gauge_half_shift.json"), "--out", str(tmp_path)]) == 0
        assert (tmp_path / name).read_bytes() == (GOLDEN / "gauge_half_shift" / name).read_bytes()

    def test_golden_bytes_sheared_cells(self, tmp_path):
        """Parallelogram full and partial cells: converge_r2 with e2 = (0.5, 1), at l = 1/8.

        The config is built as the CI's sheared variant builds it, so the
        scenario hash is fixed too.  J0 = 1, p_p = (0.5, 0) and sigma is 0
        or +-1: every value is dyadic and the bytes do not depend on the
        platform.
        """
        payload = json.loads((CONFIGS / "converge_r2.json").read_text())
        payload["cell"]["e2"] = [0.5, 1.0]
        payload["schedule"] = {"l": [0.125, 0.0625, 0.03125, 0.015625]}
        assert main(["moments", "--config", write_config(tmp_path, payload), "--out", str(tmp_path)]) == 0
        got = (tmp_path / "moments.csv").read_bytes()
        assert got == (GOLDEN / "converge_r2_sheared" / "moments.csv").read_bytes()
        kinds = [row[4] for row in read_table(tmp_path / "moments.csv")[2]]
        assert (kinds.count("full"), kinds.count("partial")) == (56, 16)


    def test_polar_disk_axis_rows_are_empty(self, tmp_path):
        """J0 vanishes on the x1 = 0 axis: full rows with their corner there are undefined, not a
        numerical failure; partial rows are normalized inside T, so they stay defined."""
        payload = json.loads((CONFIGS / "gauge_half_shift.json").read_text())
        payload["map"] = {"kind": "disk", "radius": 1.0}
        payload["grid"] = {"kind": "plane", "n": [3, 3], "extent": [[-0.5, -0.5], [0.5, 0.5]], "height": 1.0}
        cfg = write_config(tmp_path, payload)
        for command in ("moments", "gauge"):
            assert main([command, "--config", cfg, "--out", str(tmp_path / command)]) == 0
        paths = [*(tmp_path / "moments").glob("moments*.csv"), *(tmp_path / "gauge").glob("gauge_moments_*.csv")]
        assert len(paths) == 4
        axis_rows = 0
        for path in paths:
            for row in read_table(path)[2]:
                if float(row[2]) == 0.0 and row[4] == "full":  # corner on the axis
                    assert row[5:] == [""] * 5, (path.name, row)
                    axis_rows += 1
                else:
                    defined = row[5:9] if row[4] == "full" else row[9:]
                    assert all(math.isfinite(float(v)) for v in defined), (path.name, row)
        assert axis_rows > 0
        summary = json.loads((tmp_path / "gauge" / "summary.json").read_text())
        assert math.isfinite(summary["max_moment_diff"]) and summary["max_moment_diff"] > 0.0


MOMENT_HEADER = "index1,index2,corner_x1,corner_x2,kind,q,p_p1,p_p2,p3,sigma"
HEADERS = {
    "potential.csv": "x,y,z,phi,provenance",
    "convergence.csv": "l,h,err_max,err_rms,taylor_ok",
    "gauge.csv": "x,y,z,phi_a,phi_b,diff",
    "moments.csv": MOMENT_HEADER,
    "moments_b.csv": MOMENT_HEADER,
    "gauge_moments_a.csv": MOMENT_HEADER,
    "gauge_moments_b.csv": MOMENT_HEADER,
}


def read_table(path):
    """(scenario line, header, rows of fields) of a CSV the CLI wrote."""
    lines = path.read_text().splitlines()
    return lines[0], lines[1].split(","), [row.split(",") for row in lines[2:]]


class TestOutputFiles:
    @pytest.mark.parametrize(
        "command, names",
        [
            ("potential", {"potential.csv"}),
            ("converge", {"convergence.csv"}),
            ("moments", {"moments.csv", "moments_b.csv"}),
            ("gauge", {"gauge.csv", "gauge_moments_a.csv", "gauge_moments_b.csv"}),
        ],
    )
    def test_every_csv_starts_with_the_scenario_line_then_its_header(self, tmp_path, command, names):
        config = CONFIGS / "gauge_half_shift.json"
        assert main([command, "--config", str(config), "--out", str(tmp_path)]) == 0
        assert {p.name for p in tmp_path.glob("*.csv")} == names
        scenario_line = f"# scenario={parse_config(config).scenario_hash} green=1/r"
        for name in names:
            assert (tmp_path / name).read_text().splitlines()[:2] == [scenario_line, HEADERS[name]]

    def test_green_4pi_scales_exactly_the_potential_columns(self, tmp_path):
        """Under --green-4pi each potential-valued column is the plain run's
        value times 1/(4 pi); every other column, the moment tables (but for
        their scenario line) and summary.json stay in the 1/r convention."""
        config = str(CONFIGS / "gauge_half_shift.json")
        for command in ("converge", "gauge"):
            assert main([command, "--config", config, "--out", str(tmp_path / command)]) == 0
            assert main([command, "--config", config, "--out", str(tmp_path / f"{command}_4pi"), "--green-4pi"]) == 0
        scale = 1.0 / (4.0 * math.pi)
        for command, name, scaled in [
            ("converge", "convergence.csv", {"err_max", "err_rms"}),
            ("gauge", "gauge.csv", {"phi_a", "phi_b", "diff"}),
        ]:
            line, header, plain = read_table(tmp_path / command / name)
            line_4pi, header_4pi, fourpi = read_table(tmp_path / f"{command}_4pi" / name)
            assert line_4pi == line.replace("green=1/r", "green=1/(4pi r)") != line
            assert header_4pi == header and scaled <= set(header)
            for k, column in enumerate(header):
                a, b = [row[k] for row in plain], [row[k] for row in fourpi]
                if column in scaled:
                    assert [float(x) for x in b] == pytest.approx([float(x) * scale for x in a], rel=1e-15, abs=0.0)
                else:
                    assert b == a
            summary = (tmp_path / command / "summary.json").read_bytes()
            assert (tmp_path / f"{command}_4pi" / "summary.json").read_bytes() == summary
        assert any(float(row[2]) != 0.0 for row in read_table(tmp_path / "converge" / "convergence.csv")[2])
        for name in ("gauge_moments_a.csv", "gauge_moments_b.csv"):
            assert read_table(tmp_path / "gauge" / name)[1:] == read_table(tmp_path / "gauge_4pi" / name)[1:]


class TestExitCodes:
    def test_validation_exit_2(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            {
                "motif": {"points": DIPOLE_POINTS},
                "regime": {"kind": "R2", "alpha": 1.0},
                "schedule": {"l": [0.25], "h": [0.1]},
            },
        )
        assert main(["converge", "--config", cfg]) == 2
        assert "violation" in capsys.readouterr().err

    def test_missing_config_exit_2(self, tmp_path):
        assert main(["converge", "--config", str(tmp_path / "missing.json")]) == 2

    @pytest.mark.parametrize("tol", ["0", "-1", "nan", "inf"])
    def test_bad_tolerance_override_exit_2(self, tmp_path, r2_config, tol, capsys):
        assert main(["converge", "--config", r2_config, "--tolerance", tol]) == 2
        assert "tol must be finite and positive" in capsys.readouterr().err

    def test_tolerance_override_on_a_malformed_quadrature_entry_exit_2(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            {
                "motif": {"points": DIPOLE_POINTS},
                "regime": {"kind": "R2", "alpha": 1.0},
                "schedule": {"l": [0.25]},
                "quadrature": "fine",
            },
        )
        assert main(["converge", "--config", cfg, "--tolerance", "1e-9"]) == 2
        assert "config violation: quadrature" in capsys.readouterr().err

    def test_threads_flag_is_unknown_exit_2(self, r2_config):
        with pytest.raises(SystemExit) as exc:
            main(["converge", "--config", r2_config, "--threads", "2"])
        assert exc.value.code == 2

    def test_self_overlapping_cylinder_exit_2(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            {
                "map": {"kind": "cylinder", "radius": 0.1},
                "motif": {"points": DIPOLE_POINTS},
                "regime": {"kind": "R2", "alpha": 1.0},
                "schedule": {"l": [0.25]},
                "output": {"dir": str(tmp_path / "out")},
            },
        )
        assert main(["converge", "--config", cfg]) == 2
        assert "overlaps itself" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "key,value",
        [
            ("map", {"kind": "scaled", "factors": [1.0, 1.0, 0.0]}),
            ("map", {"kind": "cylinder", "radius": 2.0, "h_max": 6.0}),
            *[("regime", {"kind": "R2", "alpha": a}) for a in (math.nan, math.inf, -math.inf, 0.0, -1.0, 2e154)],
            *[("motif", {"points": DIPOLE_POINTS, "free_charge_order": o}) for o in ([1], [1, 0, 2])],
        ],
        ids=[
            "scaled-a3-zero",
            "cylinder-h_max-above-radius",
            *(f"alpha-{a}" for a in ("nan", "inf", "-inf", "0", "-1", "2e154")),
            "order-one-value",
            "order-three-values",
        ],
    )
    def test_bad_parameter_listed_before_any_study_exit_2(self, tmp_path, monkeypatch, capsys, key, value):
        def no_study(*args, **kwargs):
            raise AssertionError("the study ran on a rejected config")

        monkeypatch.setattr(cli, "run_convergence", no_study)
        payload = {
            "motif": {"points": DIPOLE_POINTS},
            "regime": {"kind": "R2", "alpha": 1.0},
            "schedule": {"l": [0.25]},
            "grid": {"kind": "offset_surface", "n": [3, 3], "distance": 1.0},
            "output": {"dir": str(tmp_path / "out")},
            key: value,
        }
        assert main(["converge", "--config", write_config(tmp_path, payload)]) == 2
        assert f"config violation: {key}:" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_gauge_without_cell_b_exit_2(self, tmp_path, r2_config):
        assert main(["gauge", "--config", r2_config]) == 2

    @pytest.mark.parametrize("section,key,value", [("quadrature", "max_depth", "x"), ("thresholds", "order_min", "high")])
    def test_unparsable_number_listed_exit_2(self, tmp_path, section, key, value, capsys):
        cfg = write_config(
            tmp_path,
            {
                "motif": {"points": DIPOLE_POINTS},
                "regime": {"kind": "R2", "alpha": 1.0},
                "schedule": {"l": [0.25]},
                "grid": {"kind": "offset_surface", "n": [3, 3], "distance": 1.0},
                section: {key: value},
                "output": {"dir": str(tmp_path / "out")},
            },
        )
        assert main(["converge", "--config", cfg]) == 2
        assert f"config violation: {section}:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "key,value",
        [("green_4pi", "false"), ("green_4pi", 1), ("output", "x"), ("output", {"dir": 5})],
        ids=["green_4pi-string", "green_4pi-number", "output-string", "output-dir-number"],
    )
    def test_mistyped_field_listed_exit_2(self, tmp_path, key, value, capsys):
        payload = {
            "motif": {"points": DIPOLE_POINTS},
            "regime": {"kind": "R2", "alpha": 1.0},
            "schedule": {"l": [0.25]},
            "grid": {"kind": "offset_surface", "n": [3, 3], "distance": 1.0},
            "output": {"dir": str(tmp_path / "out")},
        }
        payload[key] = value
        assert main(["converge", "--config", write_config(tmp_path, payload)]) == 2
        assert f"config violation: {key}:" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["gauge", "moments", "converge", "potential"])
    def test_empty_schedule_exit_2(self, tmp_path, command, capsys):
        cfg = write_config(
            tmp_path,
            {
                "motif": {"points": DIPOLE_POINTS},
                "cell_b": {"f": [0.5, 0.5]},
                "regime": {"kind": "R2", "alpha": 1.0},
                "schedule": {"l": []},
                "grid": {"kind": "offset_surface", "n": [3, 3], "distance": 1.0},
                "output": {"dir": str(tmp_path / "out")},
            },
        )
        assert main([command, "--config", cfg]) == 2
        assert "config violation: schedule: schedule is empty" in capsys.readouterr().err

    def test_nan_observation_point_exit_2(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            {
                "motif": {"points": DIPOLE_POINTS},
                "regime": {"kind": "R2", "alpha": 1.0},
                "schedule": {"l": [0.25]},
                "grid": {"kind": "points", "points": [[0.5, 0.5, 1.0], [math.nan, 0.5, 1.0]]},
                "output": {"dir": str(tmp_path / "out")},
            },
        )
        assert main(["converge", "--config", cfg]) == 2
        assert "config violation: grid:" in capsys.readouterr().err


    def test_point_on_film_exit_2(self, tmp_path, capsys):
        # the first point lies on the flat film; a 201^2 surface sample put it 0.0035 away
        payload = json.loads((CONFIGS / "converge_r2.json").read_text())
        payload["grid"] = {"kind": "points", "points": [[0.5025, 0.5025, 0.0], [0.5, 0.5, 1.0]]}
        payload["output"] = {"dir": str(tmp_path / "out")}
        assert main(["converge", "--config", write_config(tmp_path, payload)]) == 2
        err = capsys.readouterr().err
        assert "config violation: grid: observation point 0 at (0.5025, 0.5025, 0.0)" in err
        assert "(standoff rule: observation points must keep a positive distance from the film)" in err
        assert not (tmp_path / "out").exists()

    def test_edge_without_lattice_period_exit_2(self, tmp_path, capsys):
        # e2 = (sqrt(2) - 1, 1): the vertical edges cut the lattice at no period
        payload = json.loads((CONFIGS / "converge_r2.json").read_text())
        payload["cell"]["e2"] = [math.sqrt(2.0) - 1.0, 1.0]
        payload["output"] = {"dir": str(tmp_path / "out")}
        assert main(["converge", "--config", write_config(tmp_path, payload)]) == 2
        assert "edge 'left' has no lattice period" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "grid",
        [{"kind": "points", "points": []}, {"kind": "offset_surface", "n": [0, 5], "distance": 1.0}],
        ids=["no-points", "empty-offset-grid"],
    )
    def test_empty_grid_exit_2(self, tmp_path, grid, capsys):
        cfg = write_config(
            tmp_path,
            {
                "motif": {"points": DIPOLE_POINTS},
                "regime": {"kind": "R2", "alpha": 1.0},
                "schedule": {"l": [0.25]},
                "grid": grid,
                "output": {"dir": str(tmp_path / "out")},
            },
        )
        assert main(["converge", "--config", cfg]) == 2
        assert "config violation: grid: observation points must be a non-empty (M, 3) array" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "update, message",
        [
            ({"grid": {"kind": "nope"}}, "config violation: grid: unknown grid kind 'nope'"),
            ({"grid": {"kind": "points", "points": []}}, "config violation: grid: observation points must be a non-empty"),
            (
                {"map": {"kind": "disk"}, "grid": {"kind": "offset_surface", "n": [3, 3], "distance": 1.0}},
                "config violation: grid: surface tangents are parallel",  # the grid's first row is on the polar axis
            ),
        ],
        ids=["unknown-kind", "no-points", "disk-axis"],
    )
    def test_grid_error_of_another_cause_carries_no_standoff_note(self, tmp_path, update, message, capsys):
        payload = json.loads((CONFIGS / "converge_r2.json").read_text())
        payload.update(update, output={"dir": str(tmp_path / "out")})
        assert main(["converge", "--config", write_config(tmp_path, payload)]) == 2
        err = capsys.readouterr().err
        assert message in err
        assert "standoff rule" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("radius", [-1.0, 0.0, math.inf, math.nan])
    def test_bad_disk_radius_exit_2(self, tmp_path, radius, capsys):
        payload = json.loads((CONFIGS / "converge_r2.json").read_text())
        payload.update(map={"kind": "disk", "radius": radius}, output={"dir": str(tmp_path / "out")})
        assert main(["converge", "--config", write_config(tmp_path, payload)]) == 2
        assert "config violation: map: polar disk radius must be finite and positive" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


    @pytest.mark.parametrize("error", LIBRARY_ERRORS, ids=lambda c: c.__name__)
    def test_exit_code_follows_the_error_type(self, tmp_path, r2_config, error, monkeypatch):
        def fail(*args, **kwargs):
            raise error("raised inside the study")

        monkeypatch.setattr(cli, "run_convergence", fail)
        assert main(["converge", "--config", r2_config]) == (3 if issubclass(error, errors.NumericalError) else 2)
        assert not (tmp_path / "out").exists()


class TestGaugeUsageErrors:
    @pytest.mark.parametrize("command", ["gauge", "moments"])
    def test_incommensurate_cell_b_exit_2(self, tmp_path, command, capsys):
        # B cells (0, 0) and (1, 1) differ by the A-lattice vector e1 + e2 = (1, 1); e1 is not one
        payload = json.loads((CONFIGS / "gauge_half_shift.json").read_text())
        payload["cell_b"] = {"e1": [1.5, 0.5], "e2": [-0.5, 0.5]}
        payload["output"] = {"dir": str(tmp_path / "out")}
        assert main([command, "--config", write_config(tmp_path, payload)]) == 2
        assert "unit-cell choices are not commensurate" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()  # not even choice A's moments.csv

    def test_r3_gauge_exit_2(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {
                "motif": {"points": DIPOLE_POINTS},
                "cell_b": {"f": [0.5, 0.5]},
                "regime": {"kind": "R3"},
                "schedule": {"h": [0.25]},
                "grid": {"kind": "offset_surface", "n": [3, 3], "distance": 1.0},
                "output": {"dir": str(tmp_path / "out")},
            },
        )
        assert main(["gauge", "--config", cfg]) == 2
