import numpy as np
import pytest

from csaop import pseudospectrum
from csaop.pauli import spectrum_sample
from csaop.serialize import (
    antiunitary_from_json,
    antiunitary_to_json,
    dump_json,
    load_json,
    matrix_from_json,
    matrix_to_json,
    pauli_spectrum_csv,
    pseudospectrum_csv,
    symbol_from_json,
    symbol_to_json,
)

from conftest import random_antiunitary, random_matrix


def test_matrix_round_trip(rng):
    M = random_matrix(4, rng)
    np.testing.assert_array_equal(matrix_from_json(matrix_to_json(M)), M)


def test_matrix_json_shape():
    payload = matrix_to_json(np.array([[1 + 2j, 3.0]]))
    assert payload == {"rows": 1, "cols": 2, "data": [[1.0, 2.0], [3.0, 0.0]]}


def test_matrix_json_rejects_bad_length():
    with pytest.raises(ValueError):
        matrix_from_json({"rows": 2, "cols": 2, "data": [[1.0, 0.0]]})


def test_matrix_json_rejects_garbage():
    with pytest.raises(ValueError):
        matrix_from_json({"cols": 2})


@pytest.mark.parametrize("entry", [[True, False], [1.0, False], [False, 0.5]])
def test_matrix_json_rejects_booleans(entry):
    # complex(True, False) is 1 + 0j; a bool dimension is rejected too
    with pytest.raises(ValueError, match="not booleans"):
        matrix_from_json({"rows": 1, "cols": 1, "data": [entry]})


def test_antiunitary_round_trip():
    C = random_antiunitary(3, seed=5)
    out = antiunitary_from_json(antiunitary_to_json(C))
    np.testing.assert_array_equal(out.unitary_part, C.unitary_part)


def test_antiunitary_requires_kind():
    with pytest.raises(ValueError):
        antiunitary_from_json({"unitary_part": matrix_to_json(np.eye(2))})


def test_symbol_round_trip():
    phi = {-2: 1 + 1j, 0: -3.0, 5: 2j}
    assert symbol_from_json(symbol_to_json(phi)) == phi


@pytest.mark.parametrize(
    "fourier",
    [
        {"1": [1, 0], "01": [2, 0]},  # int() reads both as 1 and keeps the last
        {"1_0": [1, 0]},  # int() reads 10
        {"+1": [1, 0]},
        {" 1": [1, 0]},
        {"-0": [1, 0]},
    ],
)
def test_symbol_indices_must_be_canonical(fourier):
    with pytest.raises(ValueError, match="not written as an integer"):
        symbol_from_json({"fourier": fourier})


@pytest.mark.parametrize("coefficient", [[True, 0], [1.0, False]])
def test_symbol_rejects_boolean_coefficients(coefficient):
    with pytest.raises(ValueError, match="not booleans"):
        symbol_from_json({"fourier": {"1": coefficient}})


def test_pseudospectrum_csv_layout():
    grid = pseudospectrum(np.zeros((1, 1)), 0.5, (-1, 1, -1, 1), 3)
    lines = pseudospectrum_csv(grid).strip().split("\n")
    assert lines[0] == "re,im,resolvent_norm,in_pseudospectrum"
    assert len(lines) == 10
    # the origin is in the spectrum: infinite resolvent norm, marked
    origin = [line for line in lines[1:] if line.startswith("0.0,0.0,")]
    assert origin == ["0.0,0.0,inf,1"]


def test_pauli_csv_layout():
    sample = spectrum_sample(-1.0, [0.0, 1.0])
    lines = pauli_spectrum_csv(sample).strip().split("\n")
    assert lines[0] == "k,re_plus,im_plus,re_minus,im_minus"
    assert lines[1] == "0.0,0.0,0.0,0.0,0.0"
    assert lines[2] == "1.0,1.0,1.0,1.0,-1.0"


def pseudospectrum_csv_by_row(grid):
    """Reference for pseudospectrum_csv: one formatted line per grid point."""
    lines = ["re,im,resolvent_norm,in_pseudospectrum"]
    for z, r, m in zip(grid.zs, grid.resolvent_norms, grid.in_pseudospectrum):
        lines.append(f"{float(z.real)!r},{float(z.imag)!r},{float(r)!r},{int(m)}")
    return "\n".join(lines) + "\n"


def pauli_spectrum_csv_by_row(sample):
    """Reference for pauli_spectrum_csv: one formatted line per momentum."""
    lines = ["k,re_plus,im_plus,re_minus,im_minus"]
    for k, (plus, minus) in zip(sample.k_grid, sample.eigenvalues):
        lines.append(
            f"{float(k)!r},{float(plus.real)!r},{float(plus.imag)!r},"
            f"{float(minus.real)!r},{float(minus.imag)!r}"
        )
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize(
    "H", [np.zeros((1, 1)), np.array([[0.0, 1.0], [0.0, 0.0]]), np.diag([1.0, 1j])]
)
def test_pseudospectrum_csv_matches_row_reference(H):
    grid = pseudospectrum(H, 0.3, (-2, 2, -1.5, 1.5), 9)
    assert pseudospectrum_csv(grid) == pseudospectrum_csv_by_row(grid)


@pytest.mark.parametrize("alpha", [-1.0, 0.0, 0.5])
@pytest.mark.parametrize(
    "k_grid", [[], [0.0], np.linspace(-3, 3, 601)], ids=["empty", "zero", "601"]
)
def test_pauli_csv_matches_row_reference(alpha, k_grid):
    sample = spectrum_sample(alpha, k_grid)
    assert pauli_spectrum_csv(sample) == pauli_spectrum_csv_by_row(sample)


def test_matrix_json_data_matches_entrywise_floats(rng):
    M = random_matrix(5, rng)
    M[0, 0] = complex(-0.0, 1e-300)
    expected = [[float(x.real), float(x.imag)] for x in M.ravel()]
    data = matrix_to_json(M)["data"]
    assert data == expected
    assert all(type(v) is float for row in data for v in row)
    assert str(data) == str(expected)  # keeps the sign of -0.0


def test_dump_json_is_one_compact_line(tmp_path, rng):
    obj = {"H": matrix_to_json(random_matrix(3, rng)), "sigmas": [2.0, 1.0], "z": [0.5, -1.0]}
    path = tmp_path / "out.json"
    dump_json(obj, path)
    text = path.read_text(encoding="utf-8")
    assert text.endswith("\n") and text.count("\n") == 1
    assert ", " not in text and ": " not in text
    assert load_json(path) == obj


def test_dump_json_round_trips_floats_bit_for_bit(tmp_path, rng):
    M = random_matrix(6, rng) * 10.0 ** rng.integers(-300, 300, (6, 6))
    M.flat[:4] = [complex(-0.0, 5e-324), complex(1.7e308, -1.7e308), -5e-324, complex(0.0, -0.0)]
    path = tmp_path / "m.json"
    dump_json(matrix_to_json(M), path)
    back = matrix_from_json(load_json(path))
    np.testing.assert_array_equal(back.view(np.uint64), M.view(np.uint64))


@pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan")])
def test_dump_json_rejects_non_finite_before_opening(tmp_path, value):
    existing, fresh = tmp_path / "old.json", tmp_path / "new.json"
    existing.write_bytes(b'{"r": 1.0}\n')
    with pytest.raises(ValueError):
        dump_json({"r": value}, existing)
    with pytest.raises(ValueError):
        dump_json({"r": [1.0, value]}, fresh)
    assert existing.read_bytes() == b'{"r": 1.0}\n'
    assert not fresh.exists()
