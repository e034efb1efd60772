import dataclasses
import gc
import itertools
import json
import re
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from csaop import AntiunitaryOp, antieig, csa, decomp, generate_csa, serialize
from csaop.cli import build_parser, main
from csaop.modelspaces import example2_conjugation, example2_matrix
from csaop.serialize import (
    antiunitary_to_json,
    dump_json,
    load_json,
    matrix_from_json,
    matrix_to_json,
    symbol_to_json,
)

from conftest import (
    conj_k, hadamard_conjugation, overflowing_csa, overflowing_diagonal, random_antiunitary, run_fresh,
)


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

    @pytest.mark.filterwarnings("error")
    def test_overflowing_resolvent_norm_prints_inf(self, tmp_path, capsys):
        # sigma_min = 1e-309 is 1e-9 of ||H - zI||_F: outside the spectrum, 1 / lambda_1 overflows
        dump_json(matrix_to_json(np.diag([1e-300, 2e-300])), tmp_path / "h.json")
        dump_json(antiunitary_to_json(conj_k(2)), tmp_path / "c.json")
        argv = ["anti-eig", "--H", str(tmp_path / "h.json"), "--C", str(tmp_path / "c.json")]
        assert main([*argv, "--z", "1.000000001e-300,0"]) == 0
        assert capsys.readouterr().out.rstrip().endswith(" resolvent_norm=inf")


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

    @pytest.mark.parametrize(
        "H, epsilon, pinned",
        [
            # 1 / 1e-310 overflows; z = 0, in the spectrum, is still inside
            (np.zeros((1, 1)), "1e-310", {4: "0.0,0.0,inf,1"}),
            # a Jordan block on rows 0 and 2 beside the block [5]: sigma_min(J + i) = (sqrt(5) - 1) / 2
            (np.array([[0.0, 0.0, 1.0], [0.0, 5.0, 0.0], [0.0, 0.0, 0.0]]), "0.5",
             {1: "0.0,-1.0,1.618033988749895,0", 4: "0.0,0.0,inf,1"}),
        ],
        ids=["subnormal-epsilon", "jordan-block"],
    )
    def test_only_the_spectrum_point_is_inside(self, H, epsilon, pinned, tmp_path):
        dump_json(matrix_to_json(H), tmp_path / "h.json")
        out_path = tmp_path / "grid.csv"
        argv = ["pseudospec", "--H", str(tmp_path / "h.json"), "--epsilon", epsilon,
                "--grid", "-1,1,-1,1", "--res", "3", "--out", str(out_path)]
        assert main(argv) == 0
        rows = out_path.read_text().strip().split("\n")[1:]
        assert {i: rows[i] for i in pinned} == pinned
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

    @pytest.mark.parametrize("grid, axis", [("-1.7e308,1.7e308,0,1", "re"), ("0,1,-1.7e308,1.7e308", "im")])
    def test_window_wider_than_the_float_range_is_parse_error(self, grid, axis, tmp_path, capsys):
        dump_json(matrix_to_json(np.zeros((1, 1))), tmp_path / "h.json")
        argv = ["pseudospec", "--H", str(tmp_path / "h.json"), "--epsilon", "0.1", f"--grid={grid}", "--res", "2"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv) == 2
        assert capsys.readouterr().err == f"error: bounds: {axis}_max - {axis}_min overflows\n"

    def test_grid_too_large_to_allocate_is_parse_error(self, tmp_path, capsys):
        # 10**14 grid points: the 1.6 PB array of shifts cannot be allocated
        dump_json(matrix_to_json(np.eye(2)), tmp_path / "h.json")
        argv = ["pseudospec", "--H", str(tmp_path / "h.json"), "--epsilon", "0.1",
                "--grid", "-1,1,-1,1", "--res", "10000000"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: ")


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

    def test_grid_too_large_to_allocate_is_parse_error(self, capsys):
        # 10**12 momenta: linspace cannot allocate its 8 TB
        assert main(["pauli-spectrum", "--alpha", "1", "--kmax", "3", "--n", "1000000000000"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: ")


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
        code = _exit_code(
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


ANTIUNITARY_SHAPE = 'expected {"kind": "antiunitary", "unitary_part": <matrix object>}'


#: Malformed objects, each with the file it goes into and the start of its
#: message: every reader names its object.
MALFORMED = {
    "no-unitary-part": ("--C", '{"kind": "antiunitary"}', ANTIUNITARY_SHAPE),
    "list-unitary-part": ("--C", '{"kind": "antiunitary", "unitary_part": [[1, 0]]}', ANTIUNITARY_SHAPE),
    "entry-of-one": ("--H", '{"rows": 1, "cols": 1, "data": [[1]]}', "not a matrix object: "),
    "entry-of-three": ("--H", '{"rows": 1, "cols": 1, "data": [[1, 0, 0]]}', "not a matrix object: "),
    "string-data": ("--H", '{"rows": 1, "cols": 1, "data": "10"}', "not a matrix object: "),
    "empty-string-data": ("--H", '{"rows": 0, "cols": 0, "data": ""}', "not a matrix object: "),
    "index-1e3": ("--phi1", '{"fourier": {"1e3": [1, 0]}}', "not a symbol object: "),
    "pair-of-three": ("--phi1", '{"fourier": {"1": [1, 0, 0]}}', "not a symbol object: "),
    "huge-int": ("--phi1", '{"fourier": {"1": [1%s, 0]}}' % ("0" * 400), "not a symbol object: "),
    "repeated-key": ("--H", '{"rows": 1, "cols": 1, "rows": 1, "data": [[2, 0]]}', "duplicate key 'rows'"),
    "20-digit-rows": (
        "--H", '{"rows": 10000000000000000001, "cols": 1, "data": [[2, 0]]}',
        "matrix data length 1 != rows*cols = 10000000000000000001",
    ),
}


@pytest.mark.parametrize("case", MALFORMED)
def test_malformed_object_is_named_by_its_reader(case, diag_pair, tmp_path, capsys):
    flag, text, message = MALFORMED[case]
    (tmp_path / "bad.json").write_text(text)
    if flag == "--phi1":
        bad = str(tmp_path / "bad.json")
        argv = ["model-space", "--toeplitz", "--phi1", bad, "--phi2", bad, "--N", "4"]
    else:
        argv = ["check", *diag_pair]
        argv[argv.index(flag) + 1] = str(tmp_path / "bad.json")
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}") and err.count("\n") == 1


def test_a_key_error_is_not_an_input_error(diag_pair, monkeypatch):
    # only CsaopError, OSError, ValueError and MemoryError are caught
    def fail(*args):
        raise KeyError("bug")

    monkeypatch.setattr(csa, "check_c_selfadjoint", fail)
    with pytest.raises(KeyError, match="bug"):
        main(["check", *diag_pair])


@pytest.mark.parametrize("flag", ["--H", "--C", "--phi1"])
def test_deeply_nested_json_is_parse_error(flag, diag_pair, tmp_path, capsys):
    deep = str(tmp_path / "deep.json")
    (tmp_path / "deep.json").write_text("[" * 10**5 + "]" * 10**5)
    if flag == "--phi1":
        argv = ["model-space", "--toeplitz", "--phi1", deep, "--phi2", deep, "--N", "4"]
    else:
        argv = ["check", *diag_pair]
        argv[argv.index(flag) + 1] = deep
    assert main(argv) == 2
    assert capsys.readouterr().err == "error: JSON nested too deeply\n"


def _exit_code(argv):
    try:
        return main(argv)
    except SystemExit as exc:  # argparse rejected an argument
        return exc.code


@pytest.mark.parametrize(
    "argv, code, fragment",
    [
        (["anti-eig", "--H", "h.json", "--C", "c.json", "--z", "1;0"], 2, "argument --z"),
        (["anti-eig", "--H", "h.json", "--C", "c.json", "--z", "1,0,0"], 2, "argument --z"),
        (["pseudospec", "--H", "h.json", "--epsilon", "0.1", "--grid", "-1,1,1", "--res", "2"], 2, "argument --grid"),
        (["pseudospec", "--H", "h.json", "--epsilon", "0.1", "--grid", "a,1,-1,1", "--res", "2"], 2, "argument --grid"),
        (["pauli-spectrum", "--alpha", "1", "--kmax", "3", "--n", "0"], 2, "argument --n"),
        (["model-space", "--example", "1", "--seed", "3"], 0, "model-space example=1 seed=3 residual="),
        # toeplitz options in another mode: named before missing.json is read
        (["model-space", "--gamma", "3", "--N", "3", "--phi1", "missing.json"], 2, "error: --phi1 needs --toeplitz"),
        (["model-space", "--example", "2", "--N", "4"], 2, "error: --N needs --toeplitz"),
        (["model-space", "--gamma", "0"], 2, "argument --gamma: gamma must be at least 1, got '0'"),
        (["model-space", "--gamma", "-1"], 2, "argument --gamma: gamma must be at least 1, got '-1'"),
        (["model-space", "--gamma", "1"], 0, "model-space gamma N=1"),
        # --seed belongs to --example, where it defaults to 0
        (["model-space", "--example", "2"], 0, "model-space example=2 seed=0 residual="),
        (["model-space", "--gamma", "3", "--seed", "5"], 2, "error: --seed needs --example"),
        (["model-space", "--gamma", "3", "--seed", "0"], 2, "error: --seed needs --example"),
        (["model-space", "--toeplitz", "--phi1", "missing.json", "--phi2", "missing.json", "--N", "4",
          "--seed", "5"], 2, "error: --seed needs --example"),
    ],
    ids=["z-separator", "z-three-parts", "grid-three-parts", "grid-not-a-number", "n-zero", "example-1",
         "gamma-with-phi1-and-N", "example-with-N", "gamma-zero", "gamma-negative", "gamma-one",
         "example-default-seed", "gamma-with-seed", "gamma-with-seed-zero", "toeplitz-with-seed"],
)
def test_argument_edges(argv, code, fragment, capsys):
    assert _exit_code(argv) == code
    out, err = capsys.readouterr()
    assert fragment in (out if code == 0 else err) and (err if code == 0 else out) == ""


def test_unknown_flag_exits_two():
    with pytest.raises(SystemExit) as info:
        main(["check", "--nonsense"])
    assert info.value.code == 2


@pytest.mark.parametrize(
    "argv, message",
    [
        (["anti-eig", "--z", "a,b"], "argument --z: expected 're,im', got 'a,b'"),
        (["pseudospec", "--epsilon", "0.1", "--grid", "1,2,3", "--res", "3"],
         "argument --grid: expected 're_min,re_max,im_min,im_max', got '1,2,3'"),
        (["pseudospec", "--epsilon", "0.1", "--grid", "a,1,-1,1", "--res", "3"],
         "argument --grid: expected 're_min,re_max,im_min,im_max', got 'a,1,-1,1'"),
        (["gen-csa", "--seed", "-1"], "argument --seed: seed must be at least 0, got '-1'"),
        (["gen-csa", "--seed", "1.5"], "argument --seed: seed must be an integer, got '1.5'"),
        (["model-space", "--example", "1", "--seed", "-5"], "argument --seed: seed must be at least 0, got '-5'"),
    ],
    ids=["z-letters", "grid-three-parts", "grid-letters", "gen-csa-seed-negative",
         "gen-csa-seed-fraction", "model-space-seed-negative"],
)
def test_malformed_value_is_reported_by_its_option(argv, message, tmp_path, capsys):
    # --H and --C name files that do not exist: the value is rejected before any file is read
    files = {"--H": str(tmp_path / "h.json"), "--C": str(tmp_path / "c.json")}
    needs = {"anti-eig": ["--H", "--C"], "pseudospec": ["--H"], "gen-csa": ["--C"], "model-space": []}[argv[0]]
    with pytest.raises(SystemExit) as info:
        main([argv[0], *itertools.chain.from_iterable((flag, files[flag]) for flag in needs), *argv[1:]])
    assert info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith(f"error: {message}\n") and "_parse" not in captured.err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["pseudospec", "--H", "MISSING", "--epsilon", "0.1", "--grid", "-1,1,-1,1", "--res", "1"],
         "argument --res: resolution must be at least 2, got '1'"),
        (["pseudospec", "--H", "MISSING", "--epsilon", "0.1", "--grid", "-1,1,-1,1", "--res", "-3"],
         "argument --res: resolution must be at least 2, got '-3'"),
        (["pseudospec", "--H", "MISSING", "--epsilon", "0.1", "--grid", "-1,1,-1,1", "--res", "2.5"],
         "argument --res: resolution must be an integer, got '2.5'"),
        (["pauli-spectrum", "--alpha", "1", "--kmax", "3", "--n", "0"],
         "argument --n: n must be at least 1, got '0'"),
        (["model-space", "--toeplitz", "--phi1", "MISSING", "--phi2", "MISSING", "--N", "0"],
         "argument --N: N must be at least 1, got '0'"),
    ],
    ids=["res-one", "res-negative", "res-fraction", "n-zero", "N-zero"],
)
def test_count_below_its_least_is_reported_by_its_option(argv, message, tmp_path, capsys):
    # the files do not exist: the count is rejected before any file is read
    missing = str(tmp_path / "missing.json")
    with pytest.raises(SystemExit) as info:
        main([missing if token == "MISSING" else token for token in argv])
    assert info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith(f"error: {message}\n") and "missing.json" not in captured.err


def test_least_counts_are_taken(tmp_path, capsys):
    path = tmp_path / "p.json"
    dump_json(symbol_to_json({0: 1.0}), path)
    assert main(["pauli-spectrum", "--alpha", "1", "--kmax", "3", "--n", "1"]) == 0
    assert main(["model-space", "--toeplitz", "--phi1", str(path), "--phi2", str(path), "--N", "1"]) == 0
    out = capsys.readouterr().out
    assert "points=1 " in out and "toeplitz N=1" in out


@pytest.mark.parametrize("seed", [0, 10**23])
def test_any_non_negative_seed_is_taken(seed, tmp_path, capsys):
    C = random_antiunitary(3, seed=4)
    c_path, out = tmp_path / "c.json", tmp_path / "h.json"
    dump_json(antiunitary_to_json(C), c_path)
    assert main(["gen-csa", "--C", str(c_path), "--seed", str(seed), "--out", str(out)]) == 0
    assert matrix_from_json(load_json(out)).tobytes() == generate_csa(C, seed).tobytes()
    assert main(["model-space", "--example", "1", "--seed", str(seed)]) == 0
    assert f"seed={seed} " in capsys.readouterr().out.splitlines()[1]


def test_one_parser_per_process():
    assert build_parser() is build_parser()


def _transcripts(calls, capsys):
    """Exit code, stdout, stderr and ``--out`` bytes of each call in ``calls``,
    run in turn twice: with one parser for the whole sequence, and with a
    new parser for each call."""
    runs = []
    for fresh in (False, True):
        build_parser.cache_clear()
        run = []
        for argv in calls:
            if fresh:
                build_parser.cache_clear()
            code = _exit_code(argv)
            captured = capsys.readouterr()
            out = Path(argv[argv.index("--out") + 1]) if "--out" in argv else None
            run.append((code, captured.out, captured.err, out.read_bytes() if out and out.exists() else None))
            if out:
                out.unlink(missing_ok=True)
        if not fresh:
            assert build_parser.cache_info().misses == 1
        runs.append(run)
    return runs


@pytest.mark.parametrize(
    "sequence", ["real-then-plain", "tolerance-then-default", "error-then-valid", "help-then-valid"]
)
def test_a_parser_reused_across_calls_parses_as_a_new_one(sequence, tmp_path, capsys):
    # the nilpotent 2x2 is not K-self-adjoint at the default tolerance and
    # is at an absolute tolerance of 10 (residual sqrt(2))
    h, c, out = tmp_path / "h.json", tmp_path / "c.json", str(tmp_path / "out.json")
    dump_json(matrix_to_json(np.array([[0.0, 1.0], [0.0, 0.0]])), h)
    dump_json(antiunitary_to_json(conj_k(2)), c)
    check = ["check", "--H", str(h), "--C", str(c), "--out", out]
    first, code = {
        "real-then-plain": ([*check, "--real"], 0),
        "tolerance-then-default": ([*check, "--tol-abs", "10", "--tol-rel", "0"], 0),
        "error-then-valid": ([*check, "--tol-abs", "ten"], 2),
        "help-then-valid": (["check", "--help"], 0),
    }[sequence]
    shared, fresh = _transcripts([first, check], capsys)
    assert shared == fresh
    assert shared[0][0] == code
    assert shared[1][:3] == (0, "c_selfadjoint residual=1.414214e+00 is_csa=false\n", "")
    assert json.loads(shared[1][3])["is_csa"] is False


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
    ["check", "check-real", "gen-csa", "polar", "refined-svd", "anti-eig", "pseudospec", "pauli-spectrum",
     "model-space-example", "model-space-example-1", "model-space-gamma", "model-space-toeplitz"],
)
def test_artifact_is_built_only_under_out(command, diag_pair, tmp_path, monkeypatch, capsys):
    symbol = tmp_path / "p.json"
    dump_json(symbol_to_json({1: 1.0}), symbol)
    argv = {
        "check": ["check", *diag_pair],
        "check-real": ["check", *diag_pair, "--real"],
        "gen-csa": ["gen-csa", *diag_pair[2:], "--seed", "1"],
        "polar": ["polar", *diag_pair],
        "refined-svd": ["refined-svd", *diag_pair],
        "anti-eig": ["anti-eig", *diag_pair, "--z", "0,0"],
        "pseudospec": ["pseudospec", *diag_pair[:2], "--epsilon", "0.1", "--grid", "-2,2,-2,2", "--res", "3"],
        "pauli-spectrum": ["pauli-spectrum", "--alpha", "-1", "--kmax", "3", "--n", "5"],
        "model-space-example": ["model-space", "--example", "2"],
        "model-space-example-1": ["model-space", "--example", "1"],
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
    artifact = tmp_path / "artifact"
    with pytest.raises(AssertionError, match="artifact builder called"):
        main([*argv, "--out", str(artifact)])
    monkeypatch.undo()
    assert main([*argv, "--out", str(artifact)]) == 0
    text = artifact.read_text()
    if command not in ("pseudospec", "pauli-spectrum"):  # the JSON ones: one line the standard json reads
        json.loads(text)
        assert text.count("\n") == 1 and "null" not in text


#: Every option of each subcommand, shared ones included; ``None`` is the top-level parser.
OPTIONS = {
    None: set(),
    "check": {"--H", "--C", "--tol-abs", "--tol-rel", "--out", "--real"},
    "gen-csa": {"--C", "--seed", "--out"},
    "polar": {"--H", "--C", "--tol-abs", "--tol-rel", "--out"},
    "refined-svd": {"--H", "--C", "--tol-abs", "--tol-rel", "--out"},
    "anti-eig": {"--H", "--C", "--tol-abs", "--tol-rel", "--out", "--z"},
    "pseudospec": {"--H", "--out", "--epsilon", "--grid", "--res"},
    "pauli-spectrum": {"--out", "--alpha", "--kmax", "--n"},
    "model-space": {"--out", "--example", "--gamma", "--toeplitz", "--seed", "--phi1", "--phi2", "--N"},
}


@pytest.mark.parametrize("command", OPTIONS, ids=lambda command: command or "top-level")
def test_help_lists_exactly_the_options(command, capsys):
    with pytest.raises(SystemExit) as info:
        main([command, "--help"] if command else ["--help"])
    assert info.value.code == 0
    assert set(re.findall(r"--[\w-]+", capsys.readouterr().out)) == OPTIONS[command] | {"--help"}


@pytest.mark.parametrize("writer", ["dump_json", "json.dumps"])
def test_inputs_are_read_without_the_standard_decoder(writer, tmp_path, monkeypatch, capsys):
    # json.dumps with its default separators is the format perfbench writes
    def write(obj, path):
        dump_json(obj, path) if writer == "dump_json" else path.write_text(json.dumps(obj))
        return str(path)

    C = hadamard_conjugation(4)
    H = 1e-3 * generate_csa(C, seed=3)  # entries such as 0.000123..., a fraction of 19 or more digits
    h, c = write(matrix_to_json(H), tmp_path / "h.json"), write(antiunitary_to_json(C), tmp_path / "c.json")
    phi1 = write(symbol_to_json({2: 1.0, 0: 0.5 - 0.25j}), tmp_path / "p1.json")
    phi2 = write(symbol_to_json({-2: 1.0, 0: 0.5 - 0.25j}), tmp_path / "p2.json")
    commands = [
        ["check", "--H", h, "--C", c],
        ["polar", "--H", h, "--C", c],
        ["refined-svd", "--H", h, "--C", c],
        ["anti-eig", "--H", h, "--C", c, "--z", "0,3"],
        ["pseudospec", "--H", h, "--epsilon", "0.1", "--grid", "-2,2,-2,2", "--res", "3"],
        ["gen-csa", "--C", c, "--seed", "1"],
        ["model-space", "--toeplitz", "--phi1", phi1, "--phi2", phi2, "--N", "6"],
    ]

    def refuse(*args, **kwargs):
        raise AssertionError("the standard decoder read an input")

    monkeypatch.setattr(json, "loads", refuse)
    for argv in commands:
        assert main(argv) == 0, argv
    assert capsys.readouterr().out.count("\n") == len(commands)


def test_a_command_runs_no_collection(tmp_path, capsys):
    # a 128 x 128 matrix is 16,384 [re, im] lists; with the collector
    # running, this polar runs 117 collections, none of which frees anything
    C = random_antiunitary(128, 5)
    h, c = tmp_path / "h.json", tmp_path / "c.json"
    h.write_text(json.dumps(matrix_to_json(generate_csa(C, seed=5))))
    c.write_text(json.dumps(antiunitary_to_json(C)))
    argv = ["polar", "--H", str(h), "--C", str(c), "--out", str(tmp_path / "polar.json")]
    generations = []

    def record(phase, info):
        # only collections that start while main is on the stack: one may
        # fall due on the first allocations after main restores the collector
        frame = sys._getframe(1)
        while frame is not None and frame.f_code is not main.__code__:
            frame = frame.f_back
        if phase == "start" and frame is not None:
            generations.append(info["generation"])

    gc.collect()  # so that no collection falls due before main pauses the collector
    gc.callbacks.append(record)
    try:
        assert main(argv) == 0
    finally:
        gc.callbacks.remove(record)
    assert generations == []
    assert capsys.readouterr().out.startswith("polar residual=")


def _raise_key_error(*args):
    raise KeyError("bug")


#: One command per way out of ``main``: the subcommand, arguments after
#: ``diag_pair`` and the exit code (``KeyError`` where the exception leaves
#: ``main``). A second ``--H`` replaces the first.
EXITS = {
    "exit-0": ("check", [], 0),
    "exit-1": ("anti-eig", ["--z", "1,0"], 1),
    "exit-2": ("check", ["--H", "no-such-directory/h.json"], 2),
    "help": ("polar", ["--help"], 0),
    "argparse-error": ("check", ["--nonsense"], 2),
    "uncaught": ("check", [], KeyError),
}


@pytest.mark.parametrize("collecting", [True, False], ids=["collecting", "paused"])
@pytest.mark.parametrize("case", EXITS)
def test_the_callers_collector_setting_is_restored(case, collecting, diag_pair, monkeypatch, capsys):
    command, extra, code = EXITS[case]
    argv = [command, *diag_pair, *extra]
    if code is KeyError:
        monkeypatch.setattr(csa, "check_c_selfadjoint", _raise_key_error)
    before = gc.isenabled()
    (gc.enable if collecting else gc.disable)()
    try:
        if code is KeyError:
            with pytest.raises(KeyError, match="bug"):
                main(argv)
        else:
            assert _exit_code(argv) == code
        assert gc.isenabled() is collecting
    finally:
        (gc.enable if before else gc.disable)()


@pytest.mark.parametrize("case", ["exit-0", "exit-1", "exit-2"])
def test_the_module_exits_with_the_code_of_main(case, diag_pair, capsys):
    # one fresh interpreter per exit code: entry() hands main's code to sys.exit
    command, extra, code = EXITS[case]
    argv = [command, *diag_pair, *extra]
    cold = run_fresh("-W", "error::RuntimeWarning", "-m", "csaop.cli", *argv)
    assert main(argv) == code
    assert (cold.returncode, cold.stdout, cold.stderr) == (code, *capsys.readouterr())


def test_spaced_and_compact_inputs_give_the_same_bytes(tmp_path, monkeypatch, capsys):
    # json.dumps(..., separators=(",", " : ")) puts a space between each key and its ":";
    # the escaped key "d\u0061ta" sends its file to the standard decoder
    U = random_antiunitary(128, 9).unitary_part
    C = AntiunitaryOp(U @ U.T)  # involutive, so refined-svd applies
    c = tmp_path / "c.json"
    c.write_text(json.dumps(antiunitary_to_json(C)))
    H = matrix_to_json(generate_csa(C, seed=9))
    for name, separators in (("spaced", (",", " : ")), ("compact", (",", ":"))):
        (tmp_path / f"{name}.json").write_text(json.dumps(H, separators=separators))
    (tmp_path / "escaped.json").write_text((tmp_path / "compact.json").read_text().replace('"data"', '"d\\u0061ta"'))

    def refuse(*args, **kwargs):
        raise AssertionError("the standard decoder read an input")

    outputs = {}
    for name in ("escaped", "spaced", "compact"):
        if name == "spaced":  # the two unescaped files are read by orjson
            monkeypatch.setattr(json, "loads", refuse)
        for command in ("check", "refined-svd"):
            out = tmp_path / f"{name}-{command}.json"
            assert main([command, "--H", str(tmp_path / f"{name}.json"), "--C", str(c), "--out", str(out)]) == 0
            outputs[name, command] = capsys.readouterr().out, out.read_bytes()
    for command in ("check", "refined-svd"):
        assert outputs["spaced", command] == outputs["compact", command] == outputs["escaped", command]
