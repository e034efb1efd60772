import dataclasses
import itertools
import json
import re
import warnings

import numpy as np
import pytest

from csaop import AntiunitaryOp, antieig, csa, decomp, generate_csa, serialize
from csaop.cli import main
from csaop.modelspaces import example2_conjugation, example2_matrix
from csaop.serialize import (
    antiunitary_to_json,
    dump_json,
    load_json,
    matrix_from_json,
    matrix_to_json,
    symbol_to_json,
)

from conftest import conj_k, hadamard_conjugation, overflowing_csa, overflowing_diagonal, random_antiunitary


@pytest.fixture
def fixture_pair(tmp_path, rng):
    """Example-2 structured matrix with its conjugation, on disk."""
    params = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    H = example2_matrix(*params)
    C = example2_conjugation(4)
    h_path, c_path = tmp_path / "h.json", tmp_path / "c.json"
    dump_json(matrix_to_json(H), h_path)
    dump_json(antiunitary_to_json(C), c_path)
    return h_path, c_path


class TestCheck:
    def test_example2_fixture(self, fixture_pair, capsys):
        h_path, c_path = fixture_pair
        assert main(["check", "--H", str(h_path), "--C", str(c_path)]) == 0
        out = capsys.readouterr().out
        assert "is_csa=true" in out
        residual = float(out.split("residual=")[1].split()[0])
        assert residual <= 1e-12

    def test_report_written(self, fixture_pair, tmp_path):
        h_path, c_path = fixture_pair
        report = tmp_path / "report.json"
        assert main(["check", "--H", str(h_path), "--C", str(c_path), "--out", str(report)]) == 0
        payload = json.loads(report.read_text())
        assert payload["is_csa"] is True

    def test_real_flag(self, tmp_path, capsys):
        dump_json(matrix_to_json(np.eye(2)), tmp_path / "h.json")
        dump_json(antiunitary_to_json(conj_k(2)), tmp_path / "c.json")
        code = main(
            ["check", "--H", str(tmp_path / "h.json"), "--C", str(tmp_path / "c.json"), "--real"]
        )
        assert code == 0
        assert "c_real" in capsys.readouterr().out

    def test_tolerance_override(self, tmp_path, capsys):
        # the nilpotent 2x2 has residual sqrt(2) against plain conjugation,
        # so an absolute tolerance of 10 flips the verdict
        dump_json(matrix_to_json(np.array([[0.0, 1.0], [0.0, 0.0]])), tmp_path / "h.json")
        dump_json(antiunitary_to_json(conj_k(2)), tmp_path / "c.json")
        args = ["check", "--H", str(tmp_path / "h.json"), "--C", str(tmp_path / "c.json")]
        assert main(args) == 0
        assert "is_csa=false" in capsys.readouterr().out
        assert main(args + ["--tol-abs", "10", "--tol-rel", "0"]) == 0
        assert "is_csa=true" in capsys.readouterr().out

    @pytest.mark.parametrize("case", ["exact", "ones"])
    def test_overflowing_norm_is_domain_error(self, case, tmp_path, capsys):
        if case == "exact":
            H, C = overflowing_csa()
        else:  # not C-self-adjoint either; ||H||_F = 2e308
            H, C = np.full((2, 2), 1e308), hadamard_conjugation(2)
        h, c, out = tmp_path / "h.json", tmp_path / "c.json", tmp_path / "r.json"
        dump_json(matrix_to_json(H), h)
        dump_json(antiunitary_to_json(C), c)
        assert main(["check", "--H", str(h), "--C", str(c), "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error:")
        assert not out.exists()

    def test_non_finite_output_writes_no_file(self, fixture_pair, tmp_path, monkeypatch, capsys):
        h_path, c_path = fixture_pair
        report = csa.CsaReport(residual=float("nan"), is_csa=False)
        monkeypatch.setattr(csa, "check_c_selfadjoint", lambda *args: report)
        out = tmp_path / "r.json"
        assert main(["check", "--H", str(h_path), "--C", str(c_path), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error:")
        assert not out.exists()

    def test_missing_file_is_io_error(self, tmp_path):
        assert main(["check", "--H", str(tmp_path / "nope.json"), "--C", str(tmp_path / "c.json")]) == 2

    def test_malformed_json_is_parse_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["check", "--H", str(bad), "--C", str(bad)]) == 2

    @pytest.mark.parametrize(
        "obj",
        [
            {"rows": 1},
            {"rows": 1, "cols": 1, "data": [["a", "b"]]},
            {"rows": 1, "cols": 1, "data": 5},
            {"rows": 1, "cols": 1, "data": [None]},
            {"rows": 1, "cols": 1, "data": [[[1], [2]]]},
            {"rows": -1, "cols": -1, "data": [0]},
            {"rows": 1.9, "cols": 1, "data": [[1, 0]]},
            {"rows": True, "cols": True, "data": [[1, 0]]},
            {"rows": "1", "cols": 1, "data": [[1, 0]]},
            {"rows": 1, "cols": 1, "data": [[10**400, 0]]},
        ],
        ids=[
            "rows-only", "strings", "scalar-data", "null-entry", "nested-lists", "negative-dims",
            "float-dims", "bool-dims", "string-dims", "huge-int",
        ],
    )
    def test_wrong_schema_is_parse_error(self, obj, tmp_path):
        (tmp_path / "h.json").write_text(json.dumps(obj))  # dump_json refuses 10**400 itself
        dump_json(antiunitary_to_json(conj_k(1)), tmp_path / "c.json")
        assert main(["check", "--H", str(tmp_path / "h.json"), "--C", str(tmp_path / "c.json")]) == 2

    @pytest.mark.parametrize("entry", ["[NaN, 0]", "[0, -Infinity]", "[1e400, 0]"])
    @pytest.mark.parametrize("file", ["H", "C"])
    def test_non_finite_number_is_parse_error(self, entry, file, tmp_path, capsys):
        # non-standard constants and literals that overflow to inf
        matrix = f'{{"rows": 1, "cols": 1, "data": [{entry}]}}'
        h, c = tmp_path / "h.json", tmp_path / "c.json"
        dump_json(matrix_to_json(np.eye(1)), h)
        dump_json(antiunitary_to_json(conj_k(1)), c)
        if file == "H":
            h.write_text(matrix)
            assert main(["pseudospec", "--H", str(h), "--epsilon", "0.1", "--grid=-1,1,-1,1",
                         "--res", "2"]) == 2
        else:
            c.write_text(f'{{"kind": "antiunitary", "unitary_part": {matrix}}}')
        assert main(["check", "--H", str(h), "--C", str(c)]) == 2
        assert "finite" in capsys.readouterr().err


class TestGenCsa:
    def test_round_trip(self, tmp_path, capsys):
        c_path = tmp_path / "c.json"
        dump_json(antiunitary_to_json(random_antiunitary(4, seed=3)), c_path)
        out_path = tmp_path / "h.json"
        assert main(["gen-csa", "--C", str(c_path), "--seed", "7", "--out", str(out_path)]) == 0
        H = matrix_from_json(json.loads(out_path.read_text()))
        assert H.shape == (4, 4)
        assert main(["check", "--H", str(out_path), "--C", str(c_path)]) == 0
        assert "is_csa=true" in capsys.readouterr().out

    def test_deterministic(self, tmp_path):
        c_path = tmp_path / "c.json"
        dump_json(antiunitary_to_json(conj_k(3)), c_path)
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        main(["gen-csa", "--C", str(c_path), "--seed", "1", "--out", str(a)])
        main(["gen-csa", "--C", str(c_path), "--seed", "1", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()


class TestDecompositions:
    def test_polar_and_svd(self, fixture_pair, tmp_path, capsys):
        h_path, c_path = fixture_pair
        polar_out = tmp_path / "polar.json"
        assert main(["polar", "--H", str(h_path), "--C", str(c_path), "--out", str(polar_out)]) == 0
        payload = json.loads(polar_out.read_text())
        assert set(payload) == {"absH", "U", "J"}
        # example2 conjugation is anti-involutive: refined SVD must refuse
        assert main(["refined-svd", "--H", str(h_path), "--C", str(c_path)]) == 1

    def test_refined_svd_with_conjugation(self, tmp_path, capsys):
        h_path, c_path = tmp_path / "h.json", tmp_path / "c.json"
        dump_json(matrix_to_json(np.diag([1.0, 2.0])), h_path)
        dump_json(antiunitary_to_json(conj_k(2)), c_path)
        out_path = tmp_path / "svd.json"
        code = main(["refined-svd", "--H", str(h_path), "--C", str(c_path), "--out", str(out_path)])
        assert code == 0
        payload = json.loads(out_path.read_text())
        assert payload["sigmas"] == [2.0, 1.0]

    def test_not_csa_is_domain_error(self, tmp_path):
        dump_json(matrix_to_json(np.array([[0.0, 1.0], [0.0, 0.0]])), tmp_path / "h.json")
        dump_json(antiunitary_to_json(conj_k(2)), tmp_path / "c.json")
        assert main(["polar", "--H", str(tmp_path / "h.json"), "--C", str(tmp_path / "c.json")]) == 1

    def test_prints_the_certified_residuals(self, tmp_path, capsys, monkeypatch):
        # the CLI reports what the library certified instead of recomputing it
        C = random_antiunitary(6, seed=2)
        C = AntiunitaryOp(C.unitary_part @ C.unitary_part.T)  # involutive
        h_path, c_path = tmp_path / "h.json", tmp_path / "c.json"
        dump_json(matrix_to_json(generate_csa(C, 1)), h_path)
        dump_json(antiunitary_to_json(C), c_path)
        marked = {"polar": 1.5e-3, "commutation": 2.5e-4, "reconstruction": 3.5e-5}
        for name in ("refined_polar", "refined_svd"):
            run = getattr(decomp, name)
            monkeypatch.setattr(
                decomp, name, lambda *a, run=run: dataclasses.replace(run(*a), residuals=marked)
            )
        assert main(["polar", "--H", str(h_path), "--C", str(c_path)]) == 0
        assert "polar residual=1.500000e-03 commutation=2.500000e-04 rank=6" in capsys.readouterr().out
        assert main(["refined-svd", "--H", str(h_path), "--C", str(c_path)]) == 0
        assert "reconstruction=3.500000e-05" in capsys.readouterr().out

    @pytest.mark.parametrize("flag, value", [("--tol-abs", "nan"), ("--tol-rel", "inf")])
    def test_non_finite_tolerance_is_parse_error(self, fixture_pair, flag, value):
        h_path, c_path = fixture_pair
        assert main(["polar", "--H", str(h_path), "--C", str(c_path), flag, value]) == 2


class TestOutputRoundTrip:
    """``--out`` payloads parse back to exactly the library's arrays."""

    @pytest.fixture
    def paths(self, tmp_path):
        U = random_antiunitary(8, seed=11).unitary_part
        C = AntiunitaryOp(U @ U.T)  # involutive, so refined-svd and anti-eig apply
        h_path, c_path = tmp_path / "h.json", tmp_path / "c.json"
        dump_json(matrix_to_json(generate_csa(C, 4)), h_path)
        dump_json(antiunitary_to_json(C), c_path)
        H = matrix_from_json(load_json(h_path))
        C = AntiunitaryOp(matrix_from_json(load_json(c_path)["unitary_part"]))
        return h_path, c_path, H, C

    def _run(self, command, paths, tmp_path, *extra):
        h_path, c_path = paths[:2]
        out = tmp_path / "out.json"
        assert main([command, "--H", str(h_path), "--C", str(c_path), *extra, "--out", str(out)]) == 0
        return load_json(out)

    def test_polar(self, paths, tmp_path):
        payload = self._run("polar", paths, tmp_path)
        polar = decomp.refined_polar(*paths[2:])
        for key, expected in (("absH", polar.absH), ("U", polar.U), ("J", polar.J.matrix)):
            assert np.array_equal(matrix_from_json(payload[key]), expected)

    def test_refined_svd(self, paths, tmp_path):
        payload = self._run("refined-svd", paths, tmp_path)
        expansion = decomp.refined_svd(*paths[2:])
        assert np.array_equal(np.array(payload["sigmas"]), expansion.sigmas)
        assert np.array_equal(matrix_from_json(payload["phis"]), expansion.phis)
        assert np.array_equal(matrix_from_json(payload["etas"]), expansion.etas)

    def test_anti_eig(self, paths, tmp_path):
        payload = self._run("anti-eig", paths, tmp_path, "--z", "0.25,-1.5")
        system = antieig.antilinear_eigensystem(*paths[2:], complex(0.25, -1.5))
        assert complex(*payload["z"]) == system.z
        assert np.array_equal(np.array(payload["lambdas"]), system.lambdas)
        assert np.array_equal(matrix_from_json(payload["psis"]), system.psis)


class TestAntiEig:
    def test_happy_path(self, tmp_path, capsys):
        dump_json(matrix_to_json(np.diag([1.0, 4.0])), tmp_path / "h.json")
        dump_json(antiunitary_to_json(conj_k(2)), tmp_path / "c.json")
        out_path = tmp_path / "eig.json"
        code = main(
            [
                "anti-eig",
                "--H", str(tmp_path / "h.json"),
                "--C", str(tmp_path / "c.json"),
                "--z", "0,0",
                "--out", str(out_path),
            ]
        )
        assert code == 0
        payload = json.loads(out_path.read_text())
        assert payload["lambdas"] == [1.0, 4.0]
        assert "lambda1=1.0" in capsys.readouterr().out

    def test_shift_in_spectrum_is_domain_error(self, tmp_path):
        dump_json(matrix_to_json(np.diag([1.0, 4.0])), tmp_path / "h.json")
        dump_json(antiunitary_to_json(conj_k(2)), tmp_path / "c.json")
        code = main(
            ["anti-eig", "--H", str(tmp_path / "h.json"), "--C", str(tmp_path / "c.json"), "--z", "1,0"]
        )
        assert code == 1

    @pytest.mark.parametrize("z", ["nan,0", "inf,0", "0,-inf"])
    def test_non_finite_shift_is_parse_error(self, z, tmp_path, capsys):
        dump_json(matrix_to_json(np.diag([1.0, 4.0])), tmp_path / "h.json")
        dump_json(antiunitary_to_json(conj_k(2)), tmp_path / "c.json")
        code = main(
            ["anti-eig", "--H", str(tmp_path / "h.json"), "--C", str(tmp_path / "c.json"), "--z", z]
        )
        assert code == 2
        assert "z must be finite" in capsys.readouterr().err


class TestOverflowingShift:
    """||H - zI||_F overflows for H = [[1.5e308]] at a shift of 1.5e308 i."""

    @pytest.fixture
    def paths(self, tmp_path):
        dump_json(matrix_to_json(np.array([[1.5e308]])), tmp_path / "h.json")
        dump_json(antiunitary_to_json(conj_k(1)), tmp_path / "c.json")
        return str(tmp_path / "h.json"), str(tmp_path / "c.json")

    @pytest.mark.parametrize("command", ["anti-eig", "pseudospec"])
    def test_is_domain_error(self, command, paths, capsys):
        h, c = paths
        if command == "anti-eig":
            argv = ["anti-eig", "--H", h, "--C", c, "--z", "0,1.5e308"]
        else:
            grid = "-1,1,1.4e308,1.5e308"
            argv = ["pseudospec", "--H", h, "--epsilon", "0.1", "--grid", grid, "--res", "2"]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and "overflows" in captured.err


@pytest.mark.filterwarnings("error")
def test_overflowing_norm_of_a_two_by_two_block_is_a_domain_error(tmp_path, capsys):
    # the closed form's path: finite entries, ||H - zI||_F past the range
    dump_json(matrix_to_json(np.array([[1e308, 1.0], [1.0, 1e308]])), tmp_path / "h.json")
    argv = ["pseudospec", "--H", str(tmp_path / "h.json"), "--epsilon", "0.1", "--grid", "-1,1,1.4e308,1.5e308", "--res", "2"]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and "overflows" in captured.err


@pytest.mark.filterwarnings("error")
def test_overflowing_entry_of_the_shift_is_a_domain_error(tmp_path, capfd):
    # ||H||_F is finite, each diagonal entry of H - zI is not: NonFinite,
    # exit 1, and LAPACK never runs on the overflowed matrix
    h, c = tmp_path / "h.json", tmp_path / "c.json"
    dump_json(matrix_to_json(overflowing_diagonal(8, 8)), h)
    dump_json(antiunitary_to_json(conj_k(8)), c)
    assert main(["anti-eig", "--H", str(h), "--C", str(c), "--z", "0,1.797e308"]) == 1
    captured = capfd.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and "overflows" in captured.err
    assert "DLASCL" not in captured.err


class TestEmptyMatrix:
    """A 0x0 H and C: the refined SVD is the empty expansion, and the
    eigensystem, which has no lambda_1, is a domain error, not a crash."""

    @pytest.fixture
    def paths(self, tmp_path):
        dump_json(matrix_to_json(np.zeros((0, 0))), tmp_path / "h.json")
        dump_json(antiunitary_to_json(AntiunitaryOp(np.zeros((0, 0)))), tmp_path / "c.json")
        return ["--H", str(tmp_path / "h.json"), "--C", str(tmp_path / "c.json")]

    def test_refined_svd_is_empty(self, paths, tmp_path, capsys):
        out_path = tmp_path / "svd.json"
        assert main(["refined-svd", *paths, "--out", str(out_path)]) == 0
        assert "count=0" in capsys.readouterr().out
        assert json.loads(out_path.read_text())["sigmas"] == []

    def test_anti_eig_is_domain_error(self, paths, capsys):
        assert main(["anti-eig", *paths, "--z", "1,0"]) == 1
        assert capsys.readouterr().err.startswith("error:")


class TestPseudospec:
    def test_csv_row_count(self, tmp_path, capsys):
        dump_json(matrix_to_json(np.array([[0.0, 1.0], [0.0, 0.0]])), tmp_path / "h.json")
        out_path = tmp_path / "grid.csv"
        code = main(
            [
                "pseudospec",
                "--H", str(tmp_path / "h.json"),
                "--epsilon", "0.1",
                "--grid", "-2,2,-2,2",
                "--res", "20",
                "--out", str(out_path),
            ]
        )
        assert code == 0
        lines = out_path.read_text().strip().split("\n")
        assert lines[0] == "re,im,resolvent_norm,in_pseudospectrum"
        assert len(lines) == 401

    def test_documented_invocation_row_count(self, tmp_path):
        dump_json(matrix_to_json(np.diag([1.0, 1j])), tmp_path / "h.json")
        out_path = tmp_path / "grid.csv"
        code = main(
            ["pseudospec", "--H", str(tmp_path / "h.json"), "--epsilon", "0.1",
             "--grid", "-2,2,-2,2", "--res", "100", "--out", str(out_path)]
        )
        assert code == 0
        assert len(out_path.read_text().strip().split("\n")) == 10001

    def test_byte_identical_reruns(self, tmp_path):
        dump_json(matrix_to_json(np.diag([1.0, 1j])), tmp_path / "h.json")
        args = [
            "pseudospec",
            "--H", str(tmp_path / "h.json"),
            "--epsilon", "0.3",
            "--grid", "-2,2,-2,2",
            "--res", "15",
        ]
        main(args + ["--out", str(tmp_path / "a.csv")])
        main(args + ["--out", str(tmp_path / "b.csv")])
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_spectrum_point_is_inside_at_a_subnormal_epsilon(self, tmp_path):
        # 1 / 1e-310 overflows; z = 0, in the spectrum, is still inside
        dump_json(matrix_to_json(np.zeros((1, 1))), tmp_path / "h.json")
        out_path = tmp_path / "grid.csv"
        argv = ["pseudospec", "--H", str(tmp_path / "h.json"), "--epsilon", "1e-310",
                "--grid", "-1,1,-1,1", "--res", "3", "--out", str(out_path)]
        assert main(argv) == 0
        rows = out_path.read_text().strip().split("\n")[1:]
        assert rows[4] == "0.0,0.0,inf,1"
        assert [row.endswith(",0") for row in rows] == [i != 4 for i in range(9)]

    @pytest.mark.parametrize("epsilon", ["-1", "nan", "inf"])
    def test_bad_epsilon_is_parse_error(self, epsilon, tmp_path):
        dump_json(matrix_to_json(np.eye(2)), tmp_path / "h.json")
        code = main(
            ["pseudospec", "--H", str(tmp_path / "h.json"), "--epsilon", epsilon,
             "--grid", "-1,1,-1,1", "--res", "5"]
        )
        assert code == 2

    @pytest.mark.parametrize("grid", ["nan,1,-1,1", "-1,1,-1,inf"])
    def test_non_finite_grid_is_parse_error(self, grid, tmp_path, capsys):
        dump_json(matrix_to_json(np.eye(2)), tmp_path / "h.json")
        code = main(
            ["pseudospec", "--H", str(tmp_path / "h.json"), "--epsilon", "0.1",
             "--grid", grid, "--res", "5"]
        )
        assert code == 2
        assert "bounds must be finite" in capsys.readouterr().err


class TestPauliSpectrum:
    def test_parabola_csv(self, tmp_path, capsys):
        out_path = tmp_path / "spec.csv"
        code = main(
            ["pauli-spectrum", "--alpha", "-1", "--kmax", "3", "--n", "601", "--out", str(out_path)]
        )
        assert code == 0
        rows = np.loadtxt(out_path, delimiter=",", skiprows=1)
        assert rows.shape == (601, 5)
        for re, im in [(rows[:, 1], rows[:, 2]), (rows[:, 3], rows[:, 4])]:
            assert np.max(np.abs(im**2 - re)) <= 1e-12

    def test_half_line_summary(self, capsys):
        assert main(["pauli-spectrum", "--alpha", "4", "--kmax", "3", "--n", "601"]) == 0
        out = capsys.readouterr().out
        assert float(out.split("min_re=")[1]) == pytest.approx(-1.0, abs=1e-4)

    @pytest.mark.parametrize(
        "alpha, kmax", [("nan", "3"), ("inf", "3"), ("1", "inf"), ("1", "nan")]
    )
    def test_non_finite_input_is_parse_error(self, alpha, kmax, capsys):
        assert main(["pauli-spectrum", "--alpha", alpha, "--kmax", kmax, "--n", "5"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "must be finite" in captured.err

    @pytest.mark.parametrize("kmax", ["1e200", "1e308"])
    def test_overflowing_momenta_are_parse_errors(self, kmax, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["pauli-spectrum", "--alpha", "1", "--kmax", kmax, "--n", "5"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")


class TestModelSpace:
    def test_example_fixture(self, tmp_path, capsys):
        out_path = tmp_path / "pair.json"
        assert main(["model-space", "--example", "2", "--seed", "5", "--out", str(out_path)]) == 0
        payload = json.loads(out_path.read_text())
        assert set(payload) == {"H", "C"}
        assert "residual=" in capsys.readouterr().out

    def test_gamma_mode(self, tmp_path):
        out_path = tmp_path / "c.json"
        assert main(["model-space", "--gamma", "5", "--out", str(out_path)]) == 0
        payload = json.loads(out_path.read_text())
        assert payload["C"]["kind"] == "antiunitary"

    def test_toeplitz_mode(self, tmp_path, capsys):
        p1, p2 = tmp_path / "p1.json", tmp_path / "p2.json"
        dump_json(symbol_to_json({2: 1.0}), p1)
        dump_json(symbol_to_json({-2: 1.0}), p2)
        out_path = tmp_path / "T.json"
        code = main(
            ["model-space", "--toeplitz", "--phi1", str(p1), "--phi2", str(p2),
             "--N", "6", "--out", str(out_path)]
        )
        assert code == 0
        assert "residual=" in capsys.readouterr().out

    def test_toeplitz_needs_symbols(self):
        assert main(["model-space", "--toeplitz"]) == 2

    def test_toeplitz_zero_dimension_is_reported(self, tmp_path, capsys):
        path = tmp_path / "p.json"
        dump_json(symbol_to_json({0: 1.0}), path)
        code = main(
            ["model-space", "--toeplitz", "--phi1", str(path), "--phi2", str(path), "--N", "0"]
        )
        assert code == 2
        assert "N must be at least 1" in capsys.readouterr().err

    def test_malformed_symbol_is_parse_error(self, tmp_path):
        dump_json({"fourier": {"1": 5}}, tmp_path / "p.json")
        path = str(tmp_path / "p.json")
        assert main(["model-space", "--toeplitz", "--phi1", path, "--phi2", path, "--N", "4"]) == 2

    @pytest.mark.parametrize("fourier", ['{"1": [1, 0], "01": [2, 0]}', '{"1": [true, 0]}'])
    def test_lax_symbol_is_parse_error(self, fourier, tmp_path, capsys):
        (tmp_path / "p.json").write_text(f'{{"fourier": {fourier}}}')
        path = str(tmp_path / "p.json")
        assert main(["model-space", "--toeplitz", "--phi1", path, "--phi2", path, "--N", "4"]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_duplicate_symbol_index_is_parse_error(self, tmp_path, capsys):
        (tmp_path / "p.json").write_text('{"fourier": {"1": [1, 0], "1": [2, 0]}}')
        path = str(tmp_path / "p.json")
        assert main(["model-space", "--toeplitz", "--phi1", path, "--phi2", path, "--N", "4"]) == 2
        assert capsys.readouterr().err.startswith("error: duplicate key '1'")

    @pytest.mark.parametrize("coefficient", ["[1e400, 0]", "[0, NaN]"])
    def test_non_finite_symbol_is_parse_error(self, coefficient, tmp_path):
        (tmp_path / "p.json").write_text(f'{{"fourier": {{"1": {coefficient}}}}}')
        path = str(tmp_path / "p.json")
        assert main(["model-space", "--toeplitz", "--phi1", path, "--phi2", path, "--N", "4"]) == 2


#: Every CsaopError subclass a file can lead the CLI to: (subcommand, H,
#: C or its raw JSON, extra arguments, stderr fragment). ``None`` for H and C
#: takes the files of ``fixture_pair``, whose C is anti-involutive.
DOMAIN_ERRORS = {
    "NotCsa": ("polar", np.array([[0.0, 1.0], [0.0, 0.0]]), conj_k(2), [], "exceeds tolerance"),
    "NotUnitary": (
        "check", np.eye(2), {"kind": "antiunitary", "unitary_part": matrix_to_json(np.diag([1.0, 2.0]))},
        [], "unitarity",
    ),
    "UnsupportedDegeneracy": ("refined-svd", None, None, [], "multiplicity"),
    "ZInSpectrum": ("anti-eig", np.diag([1.0, 4.0]), conj_k(2), ["--z", "1,0"], "in the spectrum"),
    "NonFinite": ("check", *overflowing_csa(), [], "overflows"),
    "DimMismatch": ("check", np.eye(2), conj_k(3), [], "dim 2 vs operator dim 3"),
}


@pytest.mark.parametrize("error", DOMAIN_ERRORS)
def test_domain_errors_exit_one(error, request, tmp_path, capsys):
    command, H, C, extra, fragment = DOMAIN_ERRORS[error]
    if H is None:
        h_path, c_path = request.getfixturevalue("fixture_pair")
    else:
        h_path, c_path = tmp_path / "h.json", tmp_path / "c.json"
        dump_json(matrix_to_json(H), h_path)
        dump_json(C if isinstance(C, dict) else antiunitary_to_json(C), c_path)
    assert main([command, "--H", str(h_path), "--C", str(c_path), *extra]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and fragment in err


def _exit_code(argv):
    try:
        return main(argv)
    except SystemExit as exc:  # argparse rejected an argument
        return exc.code


@pytest.mark.parametrize(
    "argv, code",
    [
        (["anti-eig", "--H", "h.json", "--C", "c.json", "--z", "1;0"], 2),
        (["anti-eig", "--H", "h.json", "--C", "c.json", "--z", "1,0,0"], 2),
        (["pseudospec", "--H", "h.json", "--epsilon", "0.1", "--grid", "-1,1,1", "--res", "2"], 2),
        (["pseudospec", "--H", "h.json", "--epsilon", "0.1", "--grid", "a,1,-1,1", "--res", "2"], 2),
        (["pauli-spectrum", "--alpha", "1", "--kmax", "3", "--n", "0"], 2),
        (["model-space", "--example", "1", "--seed", "3"], 0),
    ],
    ids=["z-separator", "z-three-parts", "grid-three-parts", "grid-not-a-number", "n-zero", "example-1"],
)
def test_argument_edges(argv, code, capsys):
    assert _exit_code(argv) == code
    captured = capsys.readouterr()
    if code == 0:
        assert "model-space example=1 seed=3 residual=" in captured.out
    else:
        assert captured.out == "" and "error" in captured.err


def test_unknown_flag_exits_two():
    with pytest.raises(SystemExit) as info:
        main(["check", "--nonsense"])
    assert info.value.code == 2


@pytest.fixture
def diag_pair(tmp_path):
    """H = diag(1, 4) with C = K, on disk, as ``--H``/``--C`` arguments."""
    h, c = tmp_path / "h.json", tmp_path / "c.json"
    dump_json(matrix_to_json(np.diag([1.0, 4.0])), h)
    dump_json(antiunitary_to_json(conj_k(2)), c)
    return ["--H", str(h), "--C", str(c)]


class TestNegativeValues:
    """Any option value may begin with a minus. On its own, argparse reads
    ``-1e-3``, ``-1.`` or ``-1,0`` after a flag as another option."""

    @pytest.mark.parametrize(
        "command, flag, value",
        [
            ("pauli-spectrum", "--alpha", "-1e-3"),
            ("pauli-spectrum", "--alpha", "-1."),
            ("pauli-spectrum", "--kmax", "-3e0"),
            ("anti-eig", "--z", "-1e-3,0"),
        ],
    )
    def test_spaced_value_reads_as_joined(self, command, flag, value, diag_pair, capsys):
        if command == "pauli-spectrum":
            options = {"--alpha": "1", "--kmax": "3", "--n": "5"}
        else:
            options = dict(zip(diag_pair[::2], diag_pair[1::2]))
        options[flag] = value
        assert main([command, *itertools.chain.from_iterable(options.items())]) == 0
        spaced = capsys.readouterr().out
        assert main([command, *(f"{key}={val}" for key, val in options.items())]) == 0
        assert spaced.startswith(command) and capsys.readouterr().out == spaced

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["pseudospec", "--epsilon", "-1e-3", "--grid", "-1,1,-1,1", "--res", "3"],
             "epsilon must be positive and finite"),
            (["check", "--tol-abs", "-1e-3"], "tolerances must be finite and nonnegative"),
        ],
        ids=["epsilon", "tol-abs"],
    )
    def test_library_judges_the_value(self, argv, message, diag_pair, capsys):
        files = diag_pair[:2] if argv[0] == "pseudospec" else diag_pair
        assert main([argv[0], *files, *argv[1:]]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"error: {message}\n"


#: The artifact builders the CLI calls, each on ``csaop.serialize``.
ARTIFACT_BUILDERS = (
    "polar_to_json", "refined_svd_to_json", "eigensystem_to_json", "matrix_to_json",
    "antiunitary_to_json", "pseudospectrum_csv", "pauli_spectrum_csv",
)


@pytest.mark.parametrize(
    "command",
    ["check", "gen-csa", "polar", "refined-svd", "anti-eig", "pseudospec", "pauli-spectrum",
     "model-space-example", "model-space-gamma", "model-space-toeplitz"],
)
def test_artifact_is_built_only_under_out(command, diag_pair, tmp_path, monkeypatch, capsys):
    symbol = tmp_path / "p.json"
    dump_json(symbol_to_json({1: 1.0}), symbol)
    argv = {
        "check": ["check", *diag_pair],
        "gen-csa": ["gen-csa", *diag_pair[2:], "--seed", "1"],
        "polar": ["polar", *diag_pair],
        "refined-svd": ["refined-svd", *diag_pair],
        "anti-eig": ["anti-eig", *diag_pair, "--z", "0,0"],
        "pseudospec": ["pseudospec", *diag_pair[:2], "--epsilon", "0.1", "--grid", "-2,2,-2,2", "--res", "3"],
        "pauli-spectrum": ["pauli-spectrum", "--alpha", "-1", "--kmax", "3", "--n", "5"],
        "model-space-example": ["model-space", "--example", "2"],
        "model-space-gamma": ["model-space", "--gamma", "3"],
        "model-space-toeplitz": ["model-space", "--toeplitz", "--phi1", str(symbol), "--phi2", str(symbol), "--N", "4"],
    }[command]

    def refuse(*args):
        raise AssertionError("artifact builder called")

    for name in ARTIFACT_BUILDERS:
        monkeypatch.setattr(serialize, name, refuse)
    monkeypatch.setattr(csa.CsaReport, "to_json", refuse)
    assert main(argv) == 0
    assert capsys.readouterr().out.count("\n") == 1
    with pytest.raises(AssertionError, match="artifact builder called"):
        main([*argv, "--out", str(tmp_path / "artifact")])


#: Every option of each subcommand, shared ones included.
OPTIONS = {
    "check": {"--H", "--C", "--tol-abs", "--tol-rel", "--out", "--real"},
    "gen-csa": {"--C", "--seed", "--out"},
    "polar": {"--H", "--C", "--tol-abs", "--tol-rel", "--out"},
    "refined-svd": {"--H", "--C", "--tol-abs", "--tol-rel", "--out"},
    "anti-eig": {"--H", "--C", "--tol-abs", "--tol-rel", "--out", "--z"},
    "pseudospec": {"--H", "--out", "--epsilon", "--grid", "--res"},
    "pauli-spectrum": {"--out", "--alpha", "--kmax", "--n"},
    "model-space": {"--out", "--example", "--gamma", "--toeplitz", "--seed", "--phi1", "--phi2", "--N"},
}


@pytest.mark.parametrize("command", OPTIONS)
def test_help_lists_exactly_the_options(command, capsys):
    with pytest.raises(SystemExit) as info:
        main([command, "--help"])
    assert info.value.code == 0
    assert set(re.findall(r"--[\w-]+", capsys.readouterr().out)) == OPTIONS[command] | {"--help"}
