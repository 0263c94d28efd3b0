import argparse
import contextlib
import dataclasses
import io
import json
import os
import pathlib
import runpy
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import factorlab as fl
from factorlab import DEFAULT_TOL, cli
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
from conftest import ginibre_density, haar_unitary, haar_vector, random_density, solver_calls

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"


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

    @pytest.mark.parametrize("field,value", [
        ("re", [[0.25, 0, 0, 0], [0, 0.25, 0], [0, 0, 0.25, 0], [0, 0, 0, 0.25]]),
        ("re", "abc"),
        ("re", [["0.25", 0, 0, 0], [0, 0.25, 0, 0], [0, 0, 0.25, 0], [0, 0, 0, 0.25]]),
        ("im", [[False] * 4] * 4),
        ("re", [[True, 0, 0, 0], [0, 0.25, 0, 0], [0, 0, 0.25, 0], [0, 0, 0, 0.25]]),
        ("re", [[None, 0, 0, 0], [0, 0.25, 0, 0], [0, 0, 0.25, 0], [0, 0, 0, 0.25]]),
        ("re", [[{}, 0, 0, 0], [0, 0.25, 0, 0], [0, 0, 0.25, 0], [0, 0, 0, 0.25]]),
    ])
    def test_malformed_matrix_is_parse_error(self, capsys, tmp_path, field, value):
        data = {"split": [2, 2], "re": (np.eye(4) / 4).tolist(), "im": np.zeros((4, 4)).tolist()}
        data[field] = value
        path = tmp_path / "state.json"
        path.write_text(json.dumps(data))
        code, out, err = run(capsys, "classify", "file", str(path))
        assert code == 2 and out == ""
        assert err.startswith(f"parse error: {path}: missing or malformed field re/im must be "
                              "rectangular arrays of numbers (")

    @pytest.mark.parametrize("d", [8, 9])
    def test_file_split_respects_dimension_cap(self, capsys, monkeypatch, tmp_path, d):
        path = tmp_path / "state.json"
        path.write_text(json.dumps(fl.state_to_dict(fl.tracial(d * d))))
        if d * d <= MAX_DIMENSION:
            assert run(capsys, "classify", "file", str(path))[0] == 0
            return

        def must_not_convert(*args, **kwargs):
            raise AssertionError("state_from_dict called above the cap")

        monkeypatch.setattr(cli.states, "state_from_dict", must_not_convert)
        assert run(capsys, "classify", "file", str(path)) == (
            2, "", f"parse error: {path}: split [9, 9] gives dimension 81, above the cap 64\n")

    @pytest.mark.parametrize("pad", [0, 1])
    def test_file_size_cap_is_checked_before_parsing(self, capsys, monkeypatch, tmp_path, pad):
        # a valid state padded with blanks to the cap loads; one byte more is refused unread
        path = tmp_path / "state.json"
        text = json.dumps(fl.state_to_dict(fl.tracial(4)))
        path.write_text(text + " " * (cli.MAX_STATE_FILE_BYTES - len(text) + pad))
        if not pad:
            assert run(capsys, "classify", "file", str(path))[0] == 0
            return

        def must_not_parse(*args, **kwargs):
            raise AssertionError("json.loads called above the cap")

        monkeypatch.setattr(cli.json, "loads", must_not_parse)
        assert run(capsys, "classify", "file", str(path)) == (
            2, "", f"parse error: {path}: longer than the cap of {cli.MAX_STATE_FILE_BYTES} bytes\n")

    def test_file_size_cap_bounds_a_pipe(self):
        # a pipe has no size to check up front: the read itself stops past the cap
        text = " " * (2 << 20) + json.dumps(fl.state_to_dict(fl.tracial(4)))
        done = subprocess.run([sys.executable, "-m", "factorlab.cli", "classify", "file", "/dev/stdin"],
                              input=text, capture_output=True, text=True, timeout=60,
                              env={**os.environ, "PYTHONPATH": str(SRC)})
        assert (done.returncode, done.stdout) == (2, "")
        assert done.stderr == (f"parse error: /dev/stdin: longer than the cap of "
                               f"{cli.MAX_STATE_FILE_BYTES} bytes\n")

    def test_file_not_utf8_is_a_validation_error(self, capsys, tmp_path):
        path = tmp_path / "state.json"
        path.write_bytes(b'\xff{"split": [2, 2]}')
        assert run(capsys, "classify", "file", str(path)) == (
            1, "", "validation error: 'utf-8' codec can't decode byte 0xff in position 0: "
                   "invalid start byte\n")

    def test_file_state_checked_at_the_given_tol(self, capsys, tmp_path):
        # Hermitian to 1e-7 only: accepted at --tol 1e-6, and every spectral
        # measure then works on the state as accepted.
        im = np.zeros((4, 4))
        im[0, 1] = 1e-7
        path = tmp_path / "state.json"
        path.write_text(json.dumps({"split": [2, 2], "re": (np.eye(4) / 4).tolist(), "im": im.tolist()}))
        code, out, err = run(capsys, "--tol", "1e-6", "classify", "file", str(path))
        assert (code, err) == (0, "")
        assert json.loads(out)["entropy"] == pytest.approx(np.log(4), abs=1e-12)
        assert run(capsys, "classify", "file", str(path)) == (
            1, "", "validation error: hermitian: deviation 1.000e-07 exceeds 1.0e-09\n")

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

    @staticmethod
    def verdicts(out: str, fmt: str) -> dict:
        """abs_separable_spectrum and kz_ball_member of a classify report, as printed."""
        if fmt == "json":
            report = json.loads(out)
            return {k: json.dumps(report[k]) for k in ("abs_separable_spectrum", "kz_ball_member")}
        rows = dict(line.split(",", 1) for line in out.splitlines()[1:])
        return {k: rows[k] for k in ("abs_separable_spectrum", "kz_ball_member")}

    # For werner alpha, p1 - p3 - 2 sqrt(p2 p4) = (3 alpha - 1)/2, 0.025 at 0.35, so
    # the spectral verdict flips between the default tol and 0.1.
    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_abs_separable_spectrum_reads_tol(self, capsys, monkeypatch, fmt):
        monkeypatch.delenv("FACTORLAB_TOL", raising=False)
        argv = ("classify", "werner", "0.35", "--format", fmt)
        code, out, err = run(capsys, *argv)
        assert (code, err, self.verdicts(out, fmt)["abs_separable_spectrum"]) == (0, "", "false")
        code, out, err = run(capsys, "--tol", "0.1", *argv)
        assert (code, err, self.verdicts(out, fmt)["abs_separable_spectrum"]) == (0, "", "true")
        monkeypatch.setenv("FACTORLAB_TOL", "0.1")
        assert run(capsys, *argv) == (0, out, "")

    # The two verdicts apply tol to different quantities: werner 0.35's purity exceeds
    # the ball's 1/3 by (9 alpha^2 - 1)/12 = 0.0085, below 0.01, while its spectral
    # expression is 0.025.  Above the default tol a member need not pass the spectral test.
    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_kz_ball_member_need_not_be_abs_separable_above_the_default_tol(self, capsys, fmt):
        code, out, err = run(capsys, "--tol", "0.01", "classify", "werner", "0.35", "--format", fmt)
        assert (code, err) == (0, "")
        assert self.verdicts(out, fmt) == {"abs_separable_spectrum": "false", "kz_ball_member": "true"}

    @pytest.mark.parametrize("source", [("tracial", "1"), ("weyl", "0", "0", "1")])
    def test_one_dimensional_state_is_kz_member(self, capsys, source):
        code, out, err = run(capsys, "classify", *source)
        assert (code, err) == (0, "")
        report = json.loads(out)
        assert report["split"] == [1, 1]
        assert report["kz_ball_member"] is True


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

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_repeated_measure_is_parse_error(self, capsys, fmt):
        code, out, err = run(
            capsys,
            "sweep", "werner",
            "--start", "0", "--stop", "1", "--num", "2",
            "--outputs", "C,ppt,C", "--format", fmt,
        )
        assert (code, out) == (2, "")
        assert err == "parse error: repeated measure(s) ['C'] for family 'werner'\n"
        with pytest.raises(CliParseError, match="repeated"):
            run_sweep(SweepSpec(family="werner", start=0.0, stop=1.0, num=2, outputs=["C", "C"]))

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
        columns, table = run_sweep(
            SweepSpec(family="werner", start=0.0, stop=1.0, num=3, outputs=["ppt", "C"])
        )
        assert columns == ["alpha", "ppt", "C"]
        # column-major: one list of three Python floats per column, the grid first
        assert len(table) == 3 and all(len(column) == 3 for column in table)
        assert all(type(x) is float for column in table for x in column)
        assert table[0] == [0.0, 0.5, 1.0]


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

    def test_negative_seed_is_parse_error(self, capsys):
        code, out, err = run(capsys, "protocol", "teleport", "--seed", "-1")
        assert (code, out) == (2, "")
        assert err == "parse error: protocol --seed must be a non-negative integer, got -1\n"

    def test_unknown_protocol_lists_the_protocol_table(self):
        with pytest.raises(CliParseError, match=r"^unknown protocol 'x'; valid: teleport, swap$"):
            cli.run_protocol("x", 2, 0)

    def test_failed_assertion_exits_3_with_label(self, capsys, monkeypatch):
        from factorlab.protocols import OutcomeStack

        def broken_stack(phi, k, l):
            return OutcomeStack(
                2, np.array([[0, 1]]), np.array([0.3]), phi[None], np.eye(2)[None],
                np.array([1.0]), ("W[0,1]",),
            )

        monkeypatch.setattr("factorlab.cli.teleport_stack", broken_stack)
        code, _, err = run(capsys, "protocol", "teleport", "--d", "2")
        assert code == 3
        assert "[0, 1]" in err

    def test_failed_fidelity_names_first_failing_outcome(self, capsys, monkeypatch):
        from factorlab.protocols import swap_stack

        def low_fidelity(k, l, i12, i34):
            stack = swap_stack(k, l, i12, i34)
            fidelities = stack.fidelities.copy()
            fidelities[[5, 7]] = 0.5
            return dataclasses.replace(stack, fidelities=fidelities)

        monkeypatch.setattr("factorlab.cli.swap_stack", low_fidelity)
        code, out, err = run(capsys, "protocol", "swap", "--d", "3")
        assert (code, out) == (3, "")
        assert err == "protocol assertion failed: outcome [1, 2]: fidelity 0.5 != 1\n"

    @pytest.mark.parametrize("kind, field, message", [
        ("swap", "fidelities", "outcome [1, 2]: fidelity nan != 1"),
        ("teleport", "probabilities", "outcome [1, 2]: probability nan != 1/d^2"),
    ])
    def test_nan_outcome_fails_its_check(self, capsys, monkeypatch, kind, field, message):
        stack_of = getattr(cli, f"{kind}_stack")

        def nan_row(*args):
            stack = stack_of(*args)
            values = getattr(stack, field).copy()
            values[[5, 7]] = np.nan
            return dataclasses.replace(stack, **{field: values})

        monkeypatch.setattr(f"factorlab.cli.{kind}_stack", nan_row)
        code, out, err = run(capsys, "protocol", kind, "--d", "3")
        assert (code, out) == (3, "")
        assert err == f"protocol assertion failed: {message}\n"

    def test_non_unitary_resource_is_validation_error(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "_haar_unitary", lambda rng, d: np.ones((d, d)))
        code, out, err = run(capsys, "protocol", "swap", "--d", "2")
        assert (code, out) == (1, "")
        assert err == "validation error: isometry matrix must be unitary\n"


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

    @given(seed=st.integers(0, 2**32 - 1), weight=st.floats(0.0, 1.0),
           tol=st.sampled_from([DEFAULT_TOL, 1e-3, 0.05, 0.1]))
    @settings(max_examples=200, deadline=None)
    def test_abs_separable_spectrum_is_abs_sep_2x2_at_tol(self, seed, weight, tol):
        # as on the spectrum clipped at 0 and renormalized, which the report once read
        m = weight * ginibre_density(np.random.default_rng(seed), 4) + (1.0 - weight) * np.eye(4) / 4
        rho = fl.DensityMatrix(m, (2, 2))
        p = np.clip(rho.spectrum.values, 0.0, None)
        expected = fl.abs_sep_2x2(p / p.sum(), tol)
        assert classification_report(rho, tol)["abs_separable_spectrum"] is expected

    @given(seed=st.integers(0, 2**32 - 1), weight=st.floats(0.0, 1.0), rank=st.integers(1, 4),
           tol=st.sampled_from([0.0, DEFAULT_TOL, 0.1]))
    @settings(max_examples=300, deadline=None)
    def test_abs_separable_spectrum_is_abs_sep_2x2_of_the_spectrum(self, seed, weight, rank, tol):
        # the report reads the spectrum as validated at its tol, which passes abs_sep_2x2's checks
        m = weight * ginibre_density(np.random.default_rng(seed), 4, rank) + (1.0 - weight) * np.eye(4) / 4
        try:
            rho = fl.DensityMatrix(m, (2, 2), tol=tol)
        except fl.StateValidationError:
            assume(False)
        expected = fl.abs_sep_2x2(rho.spectrum.values, tol)
        assert classification_report(rho, tol)["abs_separable_spectrum"] is expected

    def test_build_state_weyl(self):
        rho = build_state(["weyl", "1", "0", "3"], 1e-9)
        assert rho.split == (3, 3)
        assert fl.purity(rho) == pytest.approx(1.0, abs=1e-12)


# (classify source, parse error): every state family's malformed parameters
STATE_SOURCE_ERRORS = [
    (("no-such-family", "1"), "unknown state family 'no-such-family'; valid: bell, "
     "ghz-traced, gisin, narnhofer, rho-theta, tracial, werner, weyl, file"),
    # wrong parameter count, for every family
    (("werner",), "family 'werner' takes 1 parameter(s) ('alpha',), got 0"),
    (("gisin", "0.5"), "family 'gisin' takes 2 parameter(s) ('lambda', 'theta'), got 1"),
    (("bell", "psi+", "phi+"), "family 'bell' takes 1 parameter(s) ('kind',), got 2"),
    (("ghz-traced",), "family 'ghz-traced' takes 1 parameter(s) ('theta',), got 0"),
    (("narnhofer", "1"), "family 'narnhofer' takes 0 parameter(s) (), got 1"),
    (("tracial", "4", "4"), "family 'tracial' takes 1 parameter(s) ('dim',), got 2"),
    (("weyl", "0", "0"), "family 'weyl' takes 3 parameter(s) ('k', 'l', 'd'), got 2"),
    (("rho-theta",), "family 'rho-theta' takes 1 parameter(s) ('theta',), got 0"),
    # a non-number for every float parameter, the first bad one reported
    (("werner", "x"), "parameter 'alpha' must be a number, got 'x'"),
    (("gisin", "x", "0.3"), "parameter 'lambda' must be a number, got 'x'"),
    (("gisin", "0.5", "y"), "parameter 'theta' must be a number, got 'y'"),
    (("gisin", "x", "y"), "parameter 'lambda' must be a number, got 'x'"),
    (("ghz-traced", "x"), "parameter 'theta' must be a number, got 'x'"),
    (("rho-theta", "x"), "parameter 'theta' must be a number, got 'x'"),
    # a non-integer for every integer parameter, in order k, l, d
    (("tracial", "2.5"), "parameter 'dim' must be an integer, got '2.5'"),
    (("weyl", "x", "y", "z"), "parameter 'k' must be an integer, got 'x'"),
    (("weyl", "0", "y", "z"), "parameter 'l' must be an integer, got 'y'"),
    (("weyl", "0", "0", "z"), "parameter 'd' must be an integer, got 'z'"),
    (("weyl", "x", "0", str(MAX_QUDIT + 1)), "parameter 'k' must be an integer, got 'x'"),
    (("bell", "psi0"), "unknown Bell kind 'psi0'"),
    # a state file that is not named, or cannot be read
    (("file",), "'file' requires a path argument"),
    (("file", "/no/such.json"),
     "cannot read /no/such.json: [Errno 2] No such file or directory: '/no/such.json'"),
]


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

    @pytest.mark.parametrize("source,message", STATE_SOURCE_ERRORS,
                             ids=[" ".join(source) for source, _ in STATE_SOURCE_ERRORS])
    def test_state_source_parse_errors(self, capsys, source, message):
        assert run(capsys, "classify", *source) == (2, "", f"parse error: {message}\n")

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

    def test_unwritable_out_is_parse_error(self, capsys, tmp_path):
        path = tmp_path / "missing" / "x.json"
        code, out, err = run(capsys, "classify", "werner", "0.5", "--out", str(path))
        assert (code, out) == (2, "")
        assert err.startswith(f"parse error: cannot write {path}: ")
        assert err.count("\n") == 1
        assert not path.parent.exists()

    def test_zero_tol_is_accepted(self, capsys):
        code, _, _ = run(capsys, "--tol", "0", "classify", "tracial", "4")
        assert code == 0

    def test_zero_pt_minimum_is_ppt_at_zero_tol(self, capsys):
        # |00><00|: its partial transpose has minimum exactly 0.0, which is not below -0
        code, out, _ = run(capsys, "--tol", "0", "classify", "ghz-traced", "0", "--format", "csv")
        assert code == 0
        assert "ppt.classification,PPT\nppt.min_pt_eigenvalue,0\n" in out

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
        (("protocol", "swap", "--d", str(MAX_QUDIT + 1)), "swap_stack",
         f"protocol --d must lie in [2, {MAX_QUDIT}], got {MAX_QUDIT + 1}"),
        (("classify", "tracial", "6"), "tracial", "parameter 'dim' must be a perfect square, got 6"),
    ])
    def test_dimension_cap(self, capsys, monkeypatch, argv, builder, message):
        def must_not_build(*args, **kwargs):
            raise AssertionError(f"{builder} called above the cap")

        target = cli if builder == "swap_stack" else fl.states
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
        (("sweep", "werner", "--start", "1", "--stop", "0", "--num", "3"), 2,
         "parse error: grid stop must not be below start"),
        (("sweep", "rho_theta", "--start=-1e308", "--stop", "1e308", "--num", "3"), 2,
         "parse error: grid span must be finite, got -1e+308 to 1e+308"),
    ])
    def test_bad_value_gives_one_error_line(self, capsys, argv, code, message):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(capsys, *argv) == (code, "", message + "\n")

    @pytest.mark.parametrize("family", ["rho_theta", "werner", "gisin", "gisin_compare", "ghz_traced"])
    @pytest.mark.parametrize("theta", ["nan", "inf", "-inf"])
    def test_sweep_non_finite_theta_is_parse_error(self, capsys, family, theta):
        code, out, err = run(capsys, "sweep", family, f"--theta={theta}",
                             "--start", "0", "--stop", "1", "--num", "5")
        assert (code, out) == (2, "")
        assert err == f"parse error: --theta must be finite, got {float(theta)}\n"
        with pytest.raises(CliParseError, match="--theta"):
            SweepSpec(family, 0.0, 1.0, 5, theta=float(theta))

    @pytest.mark.parametrize("switch", [name for name, (_, needs_theta)
                                        in fl.transforms.SWITCH_BUILDERS.items() if not needs_theta])
    @pytest.mark.parametrize("theta", ["nan", "inf", "-inf"])
    def test_transform_non_finite_theta_is_parse_error(self, capsys, switch, theta):
        # a switch that takes no theta still rejects a non-finite one, as sweep does
        assert run(capsys, "transform", switch, f"--theta={theta}", "werner", "0.5") == (
            2, "", f"parse error: transform {switch!r} requires a finite theta, got {float(theta)}\n")

    def test_sweep_failure_names_grid_value(self, capsys, monkeypatch):
        werner_matrices = fl.states.werner_matrices

        def broken(alpha):  # the states at alpha = 0.5 and 0.75 are not positive
            m = werner_matrices(alpha)
            m[1:3] = np.diag([0.5, 0.5, 0.5, -0.5])
            return m

        monkeypatch.setattr(fl.states, "werner_matrices", broken)
        code, out, err = run(capsys, "sweep", "werner", "--start", "0.25", "--stop", "0.75",
                             "--num", "3")
        assert (code, out) == (1, "")
        assert err.startswith("validation error: positive")
        assert err.endswith(" at alpha = 0.5\n")

    @pytest.mark.parametrize("split", [[-10, -10], [0, 4]])
    def test_non_positive_split_is_parse_error(self, capsys, tmp_path, split):
        path = tmp_path / "state.json"
        path.write_text(json.dumps({"split": split, "re": [[1]], "im": [[0]]}))
        assert run(capsys, "classify", "file", str(path)) == (2, "", (
            f"parse error: {path}: missing or malformed field "
            f"split must be a list of two positive integers, got {split}\n"))


class TestParserReuse:
    """``main`` builds its parser once per process; nothing a call reads from
    its environment may carry over to the next call."""

    @staticmethod
    def exit_text(capsys, parse, argv):
        """(exit code, stdout, stderr) of an argparse exit from parse(argv)."""
        with pytest.raises(SystemExit) as info:
            parse(argv)
        captured = capsys.readouterr()
        return info.value.code, captured.out, captured.err

    def test_parser_is_built_once(self):
        assert cli._build_parser() is cli._build_parser()

    def test_tol_env_read_on_every_call(self, capsys, tmp_path, monkeypatch, rng):
        data = fl.state_to_dict(random_density(rng, (2, 2)))
        data["re"][0][0] += 2e-7  # breaks unit trace at the default tolerance
        path = tmp_path / "state.json"
        path.write_text(json.dumps(data))
        monkeypatch.setenv("FACTORLAB_TOL", "1e-5")
        assert run(capsys, "classify", "file", str(path))[0] == 0
        monkeypatch.setenv("FACTORLAB_TOL", "1e-9")
        assert run(capsys, "classify", "file", str(path))[0] == 1
        monkeypatch.setenv("FACTORLAB_TOL", "nan")
        assert run(capsys, "classify", "file", str(path))[0] == 2
        monkeypatch.delenv("FACTORLAB_TOL")
        assert run(capsys, "--tol", "1e-5", "classify", "file", str(path))[0] == 0
        assert run(capsys, "classify", "file", str(path))[0] == 1

    @pytest.mark.parametrize("argv", [
        ["--help"],
        ["classify", "--help"],
        ["transform", "--help"],
        ["sweep", "--help"],
        ["protocol", "--help"],
        [],
        ["classify"],
        ["sweep", "werner", "--start", "0"],
        ["protocol", "bounce"],
        ["--tol", "x", "classify", "werner", "0.5"],
    ], ids=lambda argv: " ".join(argv) or "no-args")
    def test_help_and_usage_match_fresh_parser(self, capsys, argv):
        fresh, _ = cli._build_parser.__wrapped__()
        want = self.exit_text(capsys, fresh.parse_args, argv)
        assert want[0] in (0, 2) and (want[1] or want[2]).startswith("usage: factorlab")
        assert run(capsys, "classify", "werner", "0.5")[0] == 0
        for _ in range(2):
            assert self.exit_text(capsys, main, argv) == want


_CLI_DIFF = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "cli_diff.py"


class TestOnePassParse:
    """``main`` parses a command that names its subcommand first with that
    subcommand's parser alone.  Every argv must give what argparse's full
    parse gives: the same namespace, or the same exit code and text."""

    # beyond the argparse-level cases of cli_diff's failing list
    EDGES = [
        [], ["--help"], ["-h", "classify"], ["classify", "--help"], ["transform", "-h"],
        ["protocol", "teleport", "--d", "3", "--h"],
        ["classify", "--tol", "0.1", "werner", "0.5"], ["classify", "werner", "0.5", "--tol=0.1"],
        ["classify", "werner", "0.5", "--f", "csv"], ["classify", "werner", "0.5", "--o", "x.json"],
        ["classify", "werner", "0.5", "--format", "csv", "--format", "json"],
        ["classify", "werner", "0.5", "--out"], ["classify", "werner", "-0.5"],
        ["classify", "werner", "0.5", "-"], ["classify", "werner", "0.5", "-x"],
        ["transform", "u-theta", "--t", "0.6", "werner", "0.5"],
        ["transform", "u-theta", "werner", "0.5", "--theta=0.6", "--form=csv"],
        ["transform", "u-theta", "--theta"],
        ["sweep", "werner", "--start", "0", "--stop", "1", "--num", "3", "--o", "C"],
        ["sweep", "gisin", "--th", "0.35", "--start", "0", "--stop", "1", "--num", "3"],
        ["sweep", "werner", "--start", "0", "--stop", "1", "--num", "3", "extra"],
        ["sweep", "werner", "--start", "-1e-3", "--stop", "1", "--num", "3"],
        ["protocol", "teleport", "--d", "3", "--d", "4"], ["protocol", "swap", "--seed=-1"],
        ["protocol", "swap", "teleport"], ["protocol", "--d", "3"],
        ["classify", "werner", "0.5", "--", "--format", "csv"], ["--", "classify", "werner", "0.5"],
        ["--tol", "0.1", "--tol", "0.2", "classify", "werner", "0.5"], ["--tol=0.1", "classify", "werner", "0.5"],
    ]

    @staticmethod
    def outcome(parse, argv):
        """(namespace or argparse exit, stdout, stderr) of parse(argv); the namespace
        as the repr of its sorted items, which tells -0.0 from 0.0 and equals itself at nan."""
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                result = repr(sorted(vars(parse(list(argv))).items()))
            except SystemExit as exc:
                result = f"SystemExit({exc.code})"
        return result, out.getvalue(), err.getvalue()

    def test_same_as_the_full_parse(self):
        parser, _ = cli._build_parser()
        commands = runpy.run_path(str(_CLI_DIFF))["default_commands"](150) + self.EDGES
        differing = [argv for argv in commands
                     if self.outcome(cli.parse_args, argv) != self.outcome(parser.parse_args, argv)]
        assert differing == []

    def test_argv_none_reads_sys_argv(self, monkeypatch):
        monkeypatch.setattr(sys, "argv", ["factorlab", "protocol", "swap", "--d", "3"])
        parser, _ = cli._build_parser()
        assert cli.parse_args(None) == parser.parse_args() == argparse.Namespace(
            tol=None, command="protocol", kind="swap", d=3, seed=0, out=None)


class TestSolveBudget:
    """The numpy solver calls of whole commands: each state, or a sweep's
    stacks joined into one, is decomposed once, by validation, and the
    concurrence reads that solve."""

    @pytest.mark.parametrize("argv,budget", [
        (("classify", "werner", "0.5"), {"eigh": 1, "eigvalsh": 2, "svd": 1}),
        (("transform", "u-switch", "werner", "0.8"), {"eigh": 2, "eigvalsh": 2, "svd": 1}),
        (("sweep", "ghz_traced", "--start", "0", "--stop", "1.5707963", "--num", "11",
          "--outputs", "C_u1,C_u2,C_best,C_after_u_switch,mixedness"),
         {"eigh": 1, "eigvalsh": 0, "svd": 1}),
        (("sweep", "gisin_compare", "--theta", "0.35", "--start", "0", "--stop", "1", "--num", "11",
          "--outputs", "C_gisin,C_filtered,C_unitary,B_gisin,B_filtered,B_unitary,"
          "purity_gisin,purity_filtered,purity_unitary"),
         {"eigh": 1, "eigvalsh": 1, "svd": 1}),
        (("sweep", "werner", "--start", "0", "--stop", "1", "--num", "11"),
         {"eigh": 1, "eigvalsh": 2, "svd": 0}),
        (("protocol", "swap", "--d", "8"), {"svd": 0, "qr": 2}),
        (("protocol", "teleport", "--d", "8"), {"svd": 0, "qr": 0}),
        *((("protocol", "swap", "--d", str(d)), {"svd": 0}) for d in range(2, 8)),
    ], ids=["classify", "transform", "sweep-every-measure", "sweep-compare-every-measure",
            "sweep-default-outputs", "protocol-swap", "protocol-teleport",
            *(f"protocol-swap-d{d}" for d in range(2, 8))])
    def test_solver_calls_per_command(self, capsys, monkeypatch, argv, budget):
        calls = solver_calls(monkeypatch, budget)
        assert run(capsys, *argv)[0] == 0
        assert calls == budget

    @pytest.mark.parametrize("weylized", [False, True], ids=["state", "weylized"])
    def test_qudit_report_runs_no_svd(self, monkeypatch, rng, weylized):
        # a (3, 3) state has no concurrence, and its top eigenvector is tested
        # for maximal entanglement by its map's unitarity; weylize makes it chi_00
        rho = random_density(rng, (3, 3))
        if weylized:
            rho = fl.conjugate(rho, fl.weylize(rho))
        calls = solver_calls(monkeypatch, {"svd": 0})
        report = cli.classification_report(rho)
        assert calls == {"svd": 0}
        assert (report["split_bound"] is not None) == weylized

    def test_isometry_of_maxent_runs_no_svd(self, monkeypatch):
        v = fl.weyl_basis_state(1, 1, 3)
        calls = solver_calls(monkeypatch, {"svd": 0})
        fl.isometry_of_maxent(v, 3)
        assert calls == {"svd": 0}


_EVERY_GISIN_COMPARE = ("sweep", "gisin_compare", "--theta", "0.35", "--start", "0", "--stop", "1",
                        "--num", "11", "--outputs", "C_gisin,C_filtered,C_unitary,B_gisin,B_filtered,"
                        "B_unitary,purity_gisin,purity_filtered,purity_unitary")
_EVERY_GHZ_TRACED = ("sweep", "ghz_traced", "--start", "0", "--stop", "1.5707963", "--num", "11",
                     "--outputs", "C_u1,C_u2,C_best,C_after_u_switch,mixedness")


class TestWorkBudget:
    """Each fact is checked, and each stack built, once per command: the Hermitian
    screen runs once per validation, a gisin_compare sweep builds its Gisin stack
    once, and an outcome's map is checked for unitarity only by its kernel."""

    @staticmethod
    def counted(monkeypatch, name):
        """A list that grows by one at each call of the factorlab function ``name``,
        patched in every module that holds it by name."""
        modules = (fl, fl.linalg, fl.states, fl.measures, fl.transforms, fl.protocols,
                   fl.witness_bell, cli)
        original = next(getattr(m, name) for m in modules if hasattr(m, name))
        calls = []

        def count(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        for module in modules:
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, count)
        return calls

    @pytest.mark.parametrize("argv,name,count", [
        (("classify", "werner", "0.5"), "hermitian_deviation", 1),
        (("transform", "u-switch", "werner", "0.8"), "hermitian_deviation", 2),
        (_EVERY_GISIN_COMPARE, "hermitian_deviation", 1),
        (_EVERY_GISIN_COMPARE, "gisin_matrices", 1),
        (_EVERY_GISIN_COMPARE, "psi_theta", 1),
        (_EVERY_GISIN_COMPARE, "mix_with_diagonal", 2),
        (_EVERY_GISIN_COMPARE, "unit_interval", 1),
        (_EVERY_GHZ_TRACED, "hermitian_deviation", 1),
    ], ids=["classify", "transform", "compare-hermitian", "compare-gisin", "compare-psi-theta",
            "compare-mix", "compare-unit-interval", "ghz-traced-hermitian"])
    def test_calls_per_command(self, capsys, monkeypatch, argv, name, count):
        calls = self.counted(monkeypatch, name)
        assert run(capsys, *argv)[0] == 0
        assert len(calls) == count

    @pytest.mark.parametrize("call,name,count", [
        ("isometry_of_maxent", "unitary_deviation", 1),
        ("isometry_of_maxent", "require_dimension", 1),
        ("gisin_unitary_family", "unit_interval", 1),
    ])
    def test_calls_per_library_call(self, monkeypatch, call, name, count):
        v = fl.weyl_basis_state(1, 1, 3)
        calls_of = {"isometry_of_maxent": lambda: fl.isometry_of_maxent(v, 3),
                    "gisin_unitary_family": lambda: fl.gisin_unitary_family(0.8, 0.35)}
        calls = self.counted(monkeypatch, name)
        calls_of[call]()
        assert len(calls) == count

    @pytest.mark.parametrize("argv,count", [
        (("classify", "werner", "0.5"), 1),
        (("protocol", "swap", "--d", "8"), 1),
        (_EVERY_GISIN_COMPARE, 1),
        (("--tol", "0.1", "classify", "werner", "0.35"), 2),
    ], ids=["classify", "protocol-swap", "sweep-every-measure", "tol-first"])
    def test_argparse_passes_per_command(self, capsys, monkeypatch, argv, count):
        calls, original = [], argparse.ArgumentParser.parse_known_args

        def count_pass(*args, **kwargs):
            calls.append(args[1:])
            return original(*args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", count_pass)
        assert run(capsys, *argv)[0] == 0
        assert len(calls) == count

    @pytest.mark.parametrize("kind,count", [("teleport", 1), ("swap", 1)])
    def test_unitarity_checks_per_trace(self, monkeypatch, kind, count):
        rng = np.random.default_rng(5)
        d = 8
        if kind == "teleport":
            phi = haar_vector(rng, d)
            trace = lambda: fl.teleport_outcomes(phi)
        else:
            i12, i34 = (fl.Isometry(haar_unitary(rng, d), d) for _ in range(2))
            trace = lambda: fl.swap_outcomes(i12, i34)
        calls = self.counted(monkeypatch, "unitary_deviation")
        assert len(trace()) == d * d
        assert len(calls) == count
