import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import factorlab as fl
from factorlab import cli
from factorlab.cli import (
    MAX_DIMENSION,
    MAX_QUDIT,
    MAX_SWEEP_POINTS,
    CliParseError,
    SweepSpec,
    build_state,
    classification_report,
    main,
    run_sweep,
)
from conftest import ginibre_density, random_density


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestClassify:
    def test_werner_report(self, capsys):
        code, out, _ = run(capsys, "classify", "werner", "0.5")
        assert code == 0
        report = json.loads(out)
        assert report["ppt"]["classification"] == "NPT"
        rho = fl.werner(0.5)
        assert report["concurrence"] == pytest.approx(fl.concurrence(rho), abs=1e-10)
        assert report["concurrence"] == pytest.approx(0.25, abs=1e-10)
        assert report["bmax"] == pytest.approx(np.sqrt(2) / 2, abs=1e-10)
        # detected weight of the maximally entangled projector: (1 + 3 alpha)/4
        assert report["split_bound"]["beta"] == pytest.approx(0.625, abs=1e-9)
        assert report["split_bound"]["entangled"] is True

    def test_tracial_report(self, capsys):
        code, out, _ = run(capsys, "classify", "tracial", "4")
        report = json.loads(out)
        assert code == 0
        assert report["ppt"]["classification"] == "PPT"
        assert report["concurrence"] == 0.0
        assert report["kz_ball_member"] is True
        assert report["abs_separable_spectrum"] is True

    def test_gisin_report_delegates_to_library(self, capsys):
        code, out, _ = run(capsys, "classify", "gisin", "0.8", "0.35")
        report = json.loads(out)
        assert code == 0
        rho = fl.gisin(0.8, 0.35)
        assert report["concurrence"] == pytest.approx(fl.concurrence(rho), abs=1e-10)
        assert report["bmax"] <= 1.0
        assert report["purity"] == pytest.approx(fl.purity(rho), abs=1e-10)

    def test_file_source(self, capsys, tmp_path, rng):
        rho = random_density(rng, (2, 2))
        path = tmp_path / "state.json"
        path.write_text(json.dumps(fl.state_to_dict(rho)))
        code, out, _ = run(capsys, "classify", "file", str(path))
        assert code == 0
        report = json.loads(out)
        assert report["purity"] == pytest.approx(fl.purity(rho), abs=1e-9)
        # bare path works too
        code2, out2, _ = run(capsys, "classify", str(path))
        assert code2 == 0 and json.loads(out2) == report

    def test_malformed_file_is_parse_error(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code, _, err = run(capsys, "classify", "file", str(path))
        assert code == 2
        assert "line" in err

    def test_invalid_density_is_validation_error(self, capsys, tmp_path):
        data = {
            "split": [2, 2],
            "re": np.diag([0.8, 0.4, -0.1, -0.1]).tolist(),
            "im": np.zeros((4, 4)).tolist(),
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        code, _, err = run(capsys, "classify", "file", str(path))
        assert code == 1
        assert "positive" in err

    def test_unknown_family(self, capsys):
        code, _, err = run(capsys, "classify", "no-such-family", "1")
        assert code == 2
        assert "werner" in err  # lists valid names

    def test_out_of_range_parameter_is_validation_error(self, capsys):
        code, _, err = run(capsys, "classify", "werner", "1.5")
        assert code == 1

    def test_deterministic_output(self, capsys):
        _, out1, _ = run(capsys, "classify", "gisin", "0.8", "0.35")
        _, out2, _ = run(capsys, "classify", "gisin", "0.8", "0.35")
        assert out1 == out2

    def test_csv_format(self, capsys):
        code, out, _ = run(capsys, "classify", "narnhofer", "--format", "csv")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "key,value"
        keys = {line.split(",")[0] for line in lines[1:]}
        assert "purity" in keys and "ppt.classification" in keys

    def test_tol_env_override(self, capsys, tmp_path, monkeypatch, rng):
        rho = random_density(rng, (2, 2))
        data = fl.state_to_dict(rho)
        data["re"][0][0] += 2e-7  # breaks unit trace at default tolerance
        path = tmp_path / "state.json"
        path.write_text(json.dumps(data))
        code, _, _ = run(capsys, "classify", "file", str(path))
        assert code == 1
        monkeypatch.setenv("FACTORLAB_TOL", "1e-5")
        code_env, _, _ = run(capsys, "classify", "file", str(path))
        assert code_env == 0
        monkeypatch.delenv("FACTORLAB_TOL")
        code_flag, _, _ = run(capsys, "--tol", "1e-5", "classify", "file", str(path))
        assert code_flag == 0


class TestSweep:
    def test_rho_theta_columns(self, capsys):
        code, out, _ = run(
            capsys,
            "sweep",
            "rho_theta",
            "--start", "0", "--stop", str(np.pi / 2), "--num", "21",
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "theta,C,C_after_u_switch"
        assert len(lines) == 22
        for line in lines[1:]:
            theta, c, c_sw = (float(x) for x in line.split(","))
            assert c == pytest.approx(abs(np.sin(2 * theta)), abs=1e-8)
            assert c_sw == pytest.approx(abs(np.cos(2 * theta)), abs=1e-8)

    def test_werner_sign_flips(self, capsys):
        code, out, _ = run(
            capsys, "sweep", "werner", "--start", "0", "--stop", "1", "--num", "101"
        )
        assert code == 0
        rows = [line.split(",") for line in out.strip().split("\n")[1:]]
        alphas = np.array([float(r[0]) for r in rows])
        ppt_min = np.array([float(r[1]) for r in rows])
        bmax = np.array([float(r[2]) for r in rows])
        flip_ppt = alphas[np.argmax(ppt_min < 0)]
        assert abs(flip_ppt - 1 / 3) < 0.02
        flip_bell = alphas[np.argmax(bmax > 1)]
        assert abs(flip_bell - 1 / np.sqrt(2)) < 0.02

    def test_gisin_compare_values(self, capsys):
        code, out, _ = run(
            capsys,
            "sweep", "gisin_compare",
            "--theta", "0.35",
            "--start", "0.8", "--stop", "0.8", "--num", "1",
            "--format", "json",
        )
        assert code == 0
        row = json.loads(out)[0]
        plain = fl.gisin(0.8, 0.35)
        filtered = fl.apply_filter(plain, fl.gisin_filter(0.35))
        unitary = fl.gisin_unitary_family(0.8, 0.35)
        assert row["C_gisin"] == pytest.approx(fl.concurrence(plain), abs=1e-9)
        assert row["C_filtered"] == pytest.approx(fl.concurrence(filtered), abs=1e-9)
        assert row["C_unitary"] == pytest.approx(fl.concurrence(unitary), abs=1e-9)

    def test_unknown_family_and_measure(self, capsys):
        code, _, err = run(
            capsys, "sweep", "nope", "--start", "0", "--stop", "1", "--num", "2"
        )
        assert code == 2 and "valid" in err
        code2, _, err2 = run(
            capsys,
            "sweep", "werner",
            "--start", "0", "--stop", "1", "--num", "2",
            "--outputs", "C,unheard_of",
        )
        assert code2 == 2 and "unheard_of" in err2

    def test_requires_theta_for_gisin(self, capsys):
        code, _, err = run(
            capsys, "sweep", "gisin", "--start", "0", "--stop", "1", "--num", "3"
        )
        assert code == 2 and "theta" in err

    def test_deterministic_bytes(self, tmp_path):
        spec = dict(family="ghz_traced", start=0.0, stop=np.pi / 2, num=17)
        paths = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            code = main(
                [
                    "sweep", spec["family"],
                    "--start", str(spec["start"]),
                    "--stop", str(spec["stop"]),
                    "--num", str(spec["num"]),
                    "--out", str(out),
                ]
            )
            assert code == 0
            paths.append(out.read_bytes())
        assert paths[0] == paths[1]
        assert paths[0].endswith(b"\n") and b"\r" not in paths[0]

    def test_spec_validation(self):
        with pytest.raises(Exception):
            SweepSpec(family="werner", start=0.0, stop=1.0, num=0)

    def test_empty_grid_exits_2(self, capsys):
        code, _, _ = run(
            capsys, "sweep", "werner", "--start", "0", "--stop", "1", "--num", "0"
        )
        assert code == 2

    def test_run_sweep_api(self):
        columns, rows = run_sweep(
            SweepSpec(family="werner", start=0.0, stop=1.0, num=3, outputs=["ppt", "C"])
        )
        assert columns == ["alpha", "ppt", "C"]
        assert len(rows) == 3 and set(rows[0]) == {"alpha", "ppt", "C"}


class TestProtocolCommand:
    @pytest.mark.parametrize("d,n_outcomes", [(2, 4), (3, 9)])
    def test_teleport_trace(self, capsys, d, n_outcomes):
        code, out, _ = run(capsys, "protocol", "teleport", "--d", str(d), "--seed", "7")
        assert code == 0
        trace = json.loads(out)
        assert trace["kind"] == "teleport" and trace["d"] == d
        assert len(trace["outcomes"]) == n_outcomes
        for row in trace["outcomes"]:
            assert row["probability"] == pytest.approx(1 / d**2, abs=1e-9)
            assert row["fidelity"] == pytest.approx(1.0, abs=1e-9)
            assert row["correction"].startswith("W[")

    def test_swap_trace(self, capsys):
        code, out, _ = run(capsys, "protocol", "swap", "--d", "2", "--seed", "5")
        assert code == 0
        trace = json.loads(out)
        assert len(trace["outcomes"]) == 4
        assert all(r["fidelity"] == pytest.approx(1.0, abs=1e-9) for r in trace["outcomes"])

    def test_deterministic_for_seed(self, capsys):
        _, out1, _ = run(capsys, "protocol", "teleport", "--d", "3", "--seed", "11")
        _, out2, _ = run(capsys, "protocol", "teleport", "--d", "3", "--seed", "11")
        assert out1 == out2

    def test_bad_dimension(self, capsys):
        code, _, err = run(capsys, "protocol", "teleport", "--d", "1")
        assert code == 2

    def test_failed_assertion_exits_3_with_label(self, capsys, monkeypatch):
        from factorlab.protocols import BellMeasurementOutcome, Isometry

        def broken_outcomes(phi):
            return [
                BellMeasurementOutcome((0, 1), 0.3, phi, Isometry.identity(2), 1.0)
            ]

        monkeypatch.setattr("factorlab.cli.teleport_outcomes", broken_outcomes)
        code, _, err = run(capsys, "protocol", "teleport", "--d", "2")
        assert code == 3
        assert "[0, 1]" in err


class TestTransformCommand:
    def test_u_switch_on_werner(self, capsys):
        code, out, _ = run(capsys, "transform", "u-switch", "werner", "0.8")
        assert code == 0
        payload = json.loads(out)
        assert payload["transform"] == "u-switch"
        assert payload["report"]["concurrence"] == pytest.approx(0.0, abs=1e-9)
        assert payload["report"]["ppt"]["classification"] == "PPT"
        moved = fl.state_from_dict(payload["state"])
        expected = fl.conjugate(fl.werner(0.8), fl.u_switch())
        np.testing.assert_allclose(moved.matrix, expected.matrix, atol=1e-9)

    def test_theta_transform(self, capsys):
        code, out, _ = run(
            capsys, "transform", "u-theta", "--theta", "0.6", "rho-theta", "0.6"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["report"]["concurrence"] == pytest.approx(1.0, abs=1e-9)

    def test_unknown_transform(self, capsys):
        code, _, err = run(capsys, "transform", "rotate-everything", "werner", "0.5")
        assert code == 2 and "valid names" in err


class TestReportHelpers:
    def test_classification_report_fields(self, rng):
        report = classification_report(random_density(rng, (2, 2)))
        expected = {
            "split", "purity", "mixedness", "entropy", "ppt",
            "concurrence", "bmax", "abs_separable_spectrum",
            "kz_ball_member", "split_bound",
        }
        assert expected <= set(report)

    def test_non_square_split_skips_two_qubit_measures(self, rng):
        report = classification_report(random_density(rng, (2, 3)))
        assert "concurrence" not in report
        assert "kz_ball_member" not in report

    @given(seed=st.integers(0, 2**32 - 1), weight=st.floats(0.0, 1.0), rank=st.integers(1, 4))
    @settings(max_examples=200, deadline=None)
    def test_kz_ball_member_is_abs_separable(self, seed, weight, rank):
        # the purity ball (Kus-Zyczkowski) lies inside the absolutely separable
        # set (Verstraete-Audenaert-De Moor)
        m = weight * ginibre_density(np.random.default_rng(seed), 4, rank)
        report = classification_report(fl.DensityMatrix(m + (1.0 - weight) * np.eye(4) / 4, (2, 2)))
        if report["kz_ball_member"]:
            assert report["abs_separable_spectrum"]

    def test_build_state_weyl(self):
        rho = build_state(["weyl", "1", "0", "3"], 1e-9)
        assert rho.split == (3, 3)
        assert fl.purity(rho) == pytest.approx(1.0, abs=1e-12)


class TestInputBoundary:
    @staticmethod
    def state_file(tmp_path, entry):
        re = (np.eye(4) / 4).tolist()
        re[0][0] = entry
        path = tmp_path / "state.json"
        path.write_text(json.dumps({"split": [2, 2], "re": re, "im": np.zeros((4, 4)).tolist()}))
        return str(path)

    @pytest.mark.parametrize("entry", [float("nan"), float("inf")])
    def test_non_finite_state_file_is_validation_error(self, capsys, tmp_path, entry):
        code, _, err = run(capsys, "classify", "file", self.state_file(tmp_path, entry))
        assert code == 1
        assert err.startswith("validation error: finite: entry (0, 0)")

    def test_string_split_is_parse_error(self, capsys, tmp_path):
        path = tmp_path / "state.json"
        path.write_text(json.dumps({"split": "22", "re": (np.eye(4) / 4).tolist(),
                                    "im": np.zeros((4, 4)).tolist()}))
        code, _, err = run(capsys, "classify", "file", str(path))
        assert code == 2
        assert "split" in err

    @pytest.mark.parametrize("tol", ["-1", "nan", "inf", "-inf"])
    def test_bad_tol_flag_is_parse_error(self, capsys, tol):
        code, out, err = run(capsys, f"--tol={tol}", "classify", "werner", "0.5")
        assert code == 2 and out == ""
        assert "--tol must be a finite non-negative number" in err

    @pytest.mark.parametrize("tol", ["-1", "nan", "1e-3x"])
    def test_bad_tol_env_is_parse_error(self, capsys, monkeypatch, tol):
        monkeypatch.setenv("FACTORLAB_TOL", tol)
        code, out, err = run(capsys, "classify", "werner", "0.5")
        assert code == 2 and out == ""
        assert "FACTORLAB_TOL" in err

    def test_zero_tol_is_accepted(self, capsys):
        code, _, _ = run(capsys, "--tol", "0", "classify", "tracial", "4")
        assert code == 0

    def test_sweep_num_cap(self, capsys):
        SweepSpec(family="werner", start=0.0, stop=1.0, num=MAX_SWEEP_POINTS)
        with pytest.raises(CliParseError, match=str(MAX_SWEEP_POINTS)):
            SweepSpec(family="werner", start=0.0, stop=1.0, num=MAX_SWEEP_POINTS + 1)
        code, out, err = run(capsys, "sweep", "werner", "--start", "0", "--stop", "1",
                             "--num", str(MAX_SWEEP_POINTS + 1))
        assert code == 2 and out == ""
        assert "at most" in err

    @pytest.mark.parametrize("start,stop", [("nan", "1"), ("0", "nan"), ("0", "inf"), ("-inf", "0")])
    def test_sweep_non_finite_grid_is_parse_error(self, capsys, start, stop):
        code, out, err = run(capsys, "sweep", "rho_theta", f"--start={start}", f"--stop={stop}",
                             "--num", "5")
        assert code == 2 and out == ""
        assert err.startswith("parse error: grid bounds must be finite")

    @pytest.mark.parametrize("argv,builder,message", [
        (("classify", "tracial", str(MAX_DIMENSION + 1)), "tracial",
         f"parameter 'dim' must lie in [1, {MAX_DIMENSION}], got {MAX_DIMENSION + 1}"),
        (("classify", "weyl", "0", "0", str(MAX_QUDIT + 1)), "weyl_basis_state",
         f"parameter 'd' must lie in [1, {MAX_QUDIT}], got {MAX_QUDIT + 1}"),
        (("protocol", "swap", "--d", str(MAX_QUDIT + 1)), "swap_outcomes",
         f"protocol --d must lie in [2, {MAX_QUDIT}], got {MAX_QUDIT + 1}"),
    ])
    def test_dimension_cap(self, capsys, monkeypatch, argv, builder, message):
        def must_not_build(*args, **kwargs):
            raise AssertionError(f"{builder} called above the cap")

        target = cli if builder == "swap_outcomes" else fl.states
        monkeypatch.setattr(target, builder, must_not_build)
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err == f"parse error: {message}\n"

    @pytest.mark.parametrize("argv,code,message", [
        (("classify", "tracial", "-4"), 1, "validation error: dim must be positive, got -4"),
        (("transform", "u-theta", "--theta", "inf", "werner", "0.5"), 2,
         "parse error: transform 'u-theta' requires a finite theta, got inf"),
        (("classify", "rho-theta", "inf"), 1, "validation error: finite: entry (0, 1) is (nan+nanj)"),
        (("classify", "ghz-traced", "inf"), 1, "validation error: finite: entry (0, 0) is (nan+nanj)"),
        (("classify", "gisin", "0.5", "inf"), 1, "validation error: finite: entry (0, 1) is (nan+nanj)"),
    ])
    def test_bad_value_gives_one_error_line(self, capsys, argv, code, message):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(capsys, *argv) == (code, "", message + "\n")

    def test_sweep_nan_theta_is_validation_error(self, capsys):
        code, out, err = run(capsys, "sweep", "gisin_compare", "--theta", "nan",
                             "--start", "0", "--stop", "1", "--num", "5")
        assert code == 1 and out == ""
        assert err == "validation error: finite: entry (0, 1) is (nan+nanj) at lambda = 0.0\n"

    def test_sweep_failure_names_grid_value(self, capsys):
        code, _, err = run(capsys, "sweep", "gisin", "--theta", "nan",
                           "--start", "0.25", "--stop", "0.75", "--num", "3")
        assert code == 1
        assert err.rstrip().endswith("at lambda = 0.25")
