import json
import math
import re
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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

from conftest import random_antiunitary, random_matrix, typed_leaves


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


@pytest.mark.parametrize(
    "obj",
    [{"kind": "antiunitary"}, {"kind": "antiunitary", "unitary_part": [[1, 0]]}, {"kind": "unitary"}, []],
    ids=["no-unitary-part", "list-unitary-part", "wrong-kind", "list"],
)
def test_antiunitary_reader_names_the_expected_shape(obj):
    with pytest.raises(ValueError, match='^expected {"kind": "antiunitary", "unitary_part": <matrix object>}$'):
        antiunitary_from_json(obj)


@pytest.mark.parametrize(
    "data", [[[1.0]], [[1.0, 0.0, 0.0]], "10", ""], ids=["entry-of-one", "entry-of-three", "string", "empty-string"]
)
def test_matrix_reader_names_its_object(data):
    rows = len(data) if isinstance(data, list) else 0
    with pytest.raises(ValueError, match="^not a matrix object: "):
        matrix_from_json({"rows": rows, "cols": rows, "data": data})


@pytest.mark.parametrize(
    "fourier",
    [{"1e3": [1, 0]}, {"1": [1, 0, 0]}, {"1": [1]}, {"1": [10**400, 0]}],
    ids=["index-1e3", "pair-of-three", "single", "huge-int"],
)
def test_symbol_reader_names_its_object(fourier):
    with pytest.raises(ValueError, match="^not a symbol object: "):
        symbol_from_json({"fourier": fourier})


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


def _column_stack_data(M):
    flat = np.asarray(M, dtype=complex).ravel()
    return np.column_stack((flat.real, flat.imag)).tolist()


def test_matrix_json_data_matches_column_stack_bit_for_bit():
    M = np.array(
        [
            [-0.0, complex(0.0, -0.0), 5e-324],
            [complex(-2.2e-310, 1e-320), 1e308, -1e308],
            [1j, complex(-1e308, 1e308), 0.0],
        ]
    )
    wide = np.arange(24.0).reshape(4, 6) - 1j * np.arange(24.0).reshape(4, 6) ** 2
    for case in (M, np.asfortranarray(M), M.T, M[::2, ::-1], wide[1:, ::3], wide[:, :1], M.real, np.zeros((0, 0))):
        data = matrix_to_json(case)["data"]
        assert [[struct.pack("<d", x) for x in pair] for pair in data] == [
            [struct.pack("<d", x) for x in pair] for pair in _column_stack_data(case)
        ]


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
    # orjson writes a non-finite float as null, so these are found by a walk
    existing, fresh = tmp_path / "old.json", tmp_path / "new.json"
    existing.write_bytes(b'{"r": 1.0}\n')
    for v in (value, np.float64(value)):
        for obj in (v, {"r": v}, [1.0, v], {"a": [1.0, {"b": v}]}, [None, "null", {"c": (0.5, v)}]):
            with pytest.raises(ValueError, match="non-finite"):
                dump_json(obj, existing)
            with pytest.raises(ValueError, match="non-finite"):
                dump_json(obj, fresh)
    assert existing.read_bytes() == b'{"r": 1.0}\n'
    assert not fresh.exists()


@pytest.mark.parametrize(
    "obj",
    [{"sigmas": [math.nan]}, {"z": [math.inf, 0.0]}, {"z": [0.0, -math.inf]}, {"residual": math.nan}],
    ids=["sigmas-nan", "z-inf", "z-minus-inf", "residual-nan"],
)
def test_dump_json_rejects_non_finite_with_or_without_a_u(tmp_path, obj):
    # the null search runs only on output that holds a "u"; every null does
    path = tmp_path / "out.json"
    with pytest.raises(ValueError, match="non-finite"):
        dump_json(obj, path)
    assert not path.exists()


def test_dump_json_writes_none_as_null(tmp_path):
    path = tmp_path / "n.json"
    dump_json({"a": None, "b": [1.0, None]}, path)
    assert path.read_bytes() == b'{"a":null,"b":[1.0,null]}\n'
    assert load_json(path) == {"a": None, "b": [1.0, None]}


def test_dump_json_null_in_keys_and_strings_is_not_a_number(tmp_path):
    obj = {"null": "null", "nullable": [0.5, "not null", {"x": "nullnull"}], "n": -2.0}
    path = tmp_path / "s.json"
    dump_json(obj, path)
    assert load_json(path) == obj


def test_dump_json_writes_float_subclasses_as_floats(tmp_path):
    path = tmp_path / "f.json"
    dump_json({"r": np.float64(0.5), "s": [np.float64(-0.0), np.float64(1e-05)]}, path)
    assert path.read_bytes() == b'{"r":0.5,"s":[-0.0,0.00001]}\n'


@pytest.mark.parametrize("value", [2**64, -(2**63) - 1, 10**400], ids=["2^64", "-2^63-1", "10^400"])
def test_dump_json_rejects_ints_beyond_64_bits_before_opening(tmp_path, value):
    path = tmp_path / "i.json"
    with pytest.raises(ValueError, match="64-bit"):
        dump_json({"rows": 1, "data": [[value, 0]]}, path)
    assert not path.exists()
    dump_json([2**64 - 1, -(2**63)], path)  # the ends of the range still write
    assert load_json(path) == [2**64 - 1, -(2**63)]


@pytest.mark.parametrize(
    "value", [1 + 2j, np.int64(3), np.bool_(True), {1.5}, np.ones(2)], ids=["complex", "int64", "bool_", "set", "array"]
)
def test_dump_json_rejects_what_json_rejects(tmp_path, value):
    path = tmp_path / "t.json"
    with pytest.raises(TypeError):
        json.dumps(value)
    with pytest.raises(TypeError):
        dump_json({"v": [value]}, path)
    assert not path.exists()


def _bits_to_float(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


_EDGE_FLOATS = [5e-324, -5e-324, 2.225073858507201e-308, 2.2250738585072014e-308, -0.0, 0.0, 1e-05, 1e16]
_FINITE_DOUBLES = st.one_of(
    st.integers(0, 2**64 - 1).map(_bits_to_float).filter(math.isfinite),
    st.sampled_from(_EDGE_FLOATS + [1.7976931348623157e308, -1.7976931348623157e308]),
)
_JSON_VALUES = st.recursive(
    st.one_of(_FINITE_DOUBLES, st.integers(-(2**63), 2**64 - 1), st.booleans(), st.none(), st.text()),
    lambda children: st.one_of(st.lists(children, max_size=6), st.dictionaries(st.text(), children, max_size=6)),
    max_leaves=40,
)


@settings(max_examples=200, deadline=None)
@given(obj=_JSON_VALUES)
def test_dump_json_round_trips_every_finite_value(tmp_path_factory, obj):
    path = tmp_path_factory.mktemp("dump") / "v.json"
    dump_json(obj, path)
    back = load_json(path)
    assert back == obj
    assert typed_leaves(back) == typed_leaves(obj)  # -0.0, subnormals and bools exactly
    data = path.read_bytes()
    assert data.endswith(b"\n") and data.count(b"\n") == 1
    outside_strings = re.sub(rb'"(?:[^"\\]|\\.)*"', b"", data[:-1])
    assert not re.search(rb"\s", outside_strings)


@pytest.mark.parametrize(
    "text, key",
    [
        ('{"fourier": {"1": [1, 0], "1": [2, 0]}}', "'1'"),  # read as {1: 2+0j} before
        ('{"rows": 1, "cols": 1, "rows": 2, "data": [[1, 0]]}', "'rows'"),
    ],
    ids=["symbol-index", "matrix-rows"],
)
def test_load_json_rejects_duplicate_keys(tmp_path, text, key):
    path = tmp_path / "dup.json"
    path.write_text(text)
    with pytest.raises(ValueError, match=f"duplicate key {key}"):
        load_json(path)


def test_load_json_rejects_deep_nesting(tmp_path):
    # deeper than the decoder's recursion limit on every supported Python
    path = tmp_path / "deep.json"
    path.write_text("[" * 10**5 + "]" * 10**5)
    with pytest.raises(ValueError, match="JSON nested too deeply"):
        load_json(path)


def test_load_json_keeps_equal_keys_of_different_objects(tmp_path):
    path = tmp_path / "m.json"
    path.write_text('{"a": {"rows": 1}, "b": {"rows": 2}, "c": [{"rows": 3}, {"rows": 4}]}')
    assert load_json(path) == {"a": {"rows": 1}, "b": {"rows": 2}, "c": [{"rows": 3}, {"rows": 4}]}
