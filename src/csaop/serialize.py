"""JSON and CSV interchange formats.

Matrix JSON: ``{"rows": n, "cols": m, "data": [[re, im], ...]}`` with the
entries flattened row-major. Antiunitary JSON wraps the unitary part as
``{"kind": "antiunitary", "unitary_part": <matrix>}``. Symbols are
``{"fourier": {"-2": [re, im], ...}}``. Everything written here is read
back by the same parsers (the CLI round-trips through these functions).

:func:`dump_json` writes compact one-line JSON with ``orjson`` and holds
finite numbers only: a NaN or infinite value, or an int outside 64 bits,
raises ``ValueError`` (CLI exit 2) and no file is written. Floats take their
shortest round-trip spelling (Ryu: ``1e-05`` is written ``0.00001``), so the
standard decoder reads them back bit for bit.
:func:`load_json` rejects what the standard decoder reads leniently: NaN,
+-Infinity and a key repeated within one object.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .antieig import AntilinearEigenSystem, PseudospectrumGrid
from .antiunitary import AntiunitaryOp
from .decomp import RefinedPolar, RefinedSVD
from .linalg import as_matrix
from .pauli import SpectrumSample


def matrix_to_json(M) -> dict:
    M = as_matrix(M)
    flat = M.ravel()
    return {
        "rows": int(M.shape[0]),
        "cols": int(M.shape[1]),
        "data": np.column_stack((flat.real, flat.imag)).tolist(),
    }


def matrix_from_json(obj) -> np.ndarray:
    try:
        rows, cols, data = obj["rows"], obj["cols"], obj["data"]
        values = np.array(
            [complex(re, im) for re, im in data if type(re) is not bool and type(im) is not bool], dtype=complex
        )
    except (KeyError, TypeError, OverflowError) as exc:
        raise ValueError(f"not a matrix object: {exc}") from exc
    if len(values) != len(data):  # complex(True, False) would read 1 + 0j
        raise ValueError("matrix entries must be numbers, not booleans")
    if not all(type(d) is int and d >= 0 for d in (rows, cols)):  # bool is not a dimension
        raise ValueError(f"matrix dimensions must be non-negative integers, got {rows!r}, {cols!r}")
    if len(data) != rows * cols:
        raise ValueError(f"matrix data length {len(data)} != rows*cols = {rows * cols}")
    if not np.isfinite(values).all():  # a literal such as 1e400 parses to inf
        raise ValueError("matrix entries must be finite")
    return values.reshape(rows, cols)


def antiunitary_to_json(C: AntiunitaryOp) -> dict:
    return {"kind": "antiunitary", "unitary_part": matrix_to_json(C.unitary_part)}


def antiunitary_from_json(obj) -> AntiunitaryOp:
    if not isinstance(obj, dict) or obj.get("kind") != "antiunitary":
        raise ValueError('expected {"kind": "antiunitary", ...}')
    return AntiunitaryOp(matrix_from_json(obj["unitary_part"]))


def symbol_to_json(phi: dict) -> dict:
    return {
        "fourier": {
            str(int(n)): [float(complex(c).real), float(complex(c).imag)]
            for n, c in phi.items()
        }
    }


def symbol_from_json(obj) -> dict:
    """The symbol ``{n: c_n}``; ``ValueError`` unless every index is written
    as ``str(n)`` (``"01"`` and ``"1_0"`` would read as 1 and 10, and two
    spellings of one index would drop a coefficient) and every coefficient
    is a pair of finite numbers (not booleans)."""
    try:
        fourier = obj["fourier"]
        phi = {int(n): complex(re, im) for n, (re, im) in fourier.items()}
    except (KeyError, TypeError, AttributeError) as exc:
        raise ValueError(f"not a symbol object: {exc}") from exc
    for n, pair in fourier.items():
        if str(int(n)) != n:
            raise ValueError(f"symbol index {n!r} is not written as an integer")
        if bool in map(type, pair):
            raise ValueError("symbol coefficients must be numbers, not booleans")
    if not np.isfinite(list(phi.values())).all():
        raise ValueError("symbol coefficients must be finite")
    return phi


def polar_to_json(polar: RefinedPolar) -> dict:
    return {
        "absH": matrix_to_json(polar.absH),
        "U": matrix_to_json(polar.U),
        "J": matrix_to_json(polar.J.matrix),
    }


def refined_svd_to_json(expansion: RefinedSVD) -> dict:
    return {
        "sigmas": [float(s) for s in expansion.sigmas],
        "phis": matrix_to_json(expansion.phis),
        "etas": matrix_to_json(expansion.etas),
    }


def eigensystem_to_json(system: AntilinearEigenSystem) -> dict:
    return {
        "z": [system.z.real, system.z.imag],
        "lambdas": [float(x) for x in system.lambdas],
        "psis": matrix_to_json(system.psis),
    }


def _csv(header: str, *columns) -> str:
    rows = zip(*(column.tolist() for column in columns))
    return "\n".join([header, *(",".join(map(repr, row)) for row in rows)]) + "\n"


def pseudospectrum_csv(grid: PseudospectrumGrid) -> str:
    columns = grid.zs.real, grid.zs.imag, grid.resolvent_norms, grid.in_pseudospectrum.astype(int)
    return _csv("re,im,resolvent_norm,in_pseudospectrum", *columns)


def pauli_spectrum_csv(sample: SpectrumSample) -> str:
    plus, minus = sample.eigenvalues.T
    columns = sample.k_grid, plus.real, plus.imag, minus.real, minus.imag
    return _csv("k,re_plus,im_plus,re_minus,im_minus", *columns)


def _reject_constant(name: str):
    raise ValueError(f"non-finite number {name} in JSON input")


def _unique_keys(pairs: list) -> dict:
    obj = dict(pairs)
    if len(obj) < len(pairs):  # dict() would keep the last value of a repeated key
        seen = set()
        for key, _ in pairs:
            if key in seen:
                raise ValueError(f"duplicate key {key!r} in JSON input")
            seen.add(key)
    return obj


def load_json(path) -> object:
    """Parsed JSON; ``ValueError`` on the non-standard NaN and +-Infinity and
    on a key repeated within one object."""
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle, parse_constant=_reject_constant, object_pairs_hook=_unique_keys)


def _float_subclass(value) -> float:
    """``default`` for ``orjson.dumps``: ``np.float64`` and other float
    subclasses as plain floats; any other type is rejected, as by ``json``."""
    if isinstance(value, float):
        return float(value)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _check_numbers(obj) -> None:
    """``ValueError`` on the first NaN or infinite float, or int outside 64
    bits, in ``obj``, its lists, tuples and dict values."""
    if isinstance(obj, float):
        if not math.isfinite(obj):
            raise ValueError(f"non-finite number {obj!r} cannot be written as JSON")
    elif isinstance(obj, int):
        if not -(2**63) <= obj < 2**64:
            raise ValueError("integer outside the 64-bit range cannot be written as JSON")
    elif isinstance(obj, dict):
        for value in obj.values():
            _check_numbers(value)
    elif isinstance(obj, (list, tuple)):
        for value in obj:
            _check_numbers(value)


def dump_json(obj, path) -> None:
    """One compact line; ``ValueError`` on NaN, +-inf or an int outside 64
    bits before ``path`` is opened."""
    import orjson  # here, not at module level: reading a file skips its ~9 ms import

    try:
        data = orjson.dumps(obj, default=_float_subclass, option=orjson.OPT_APPEND_NEWLINE)
    except TypeError:  # orjson.JSONEncodeError, also raised for an int outside 64 bits
        _check_numbers(obj)
        raise
    if b"null" in data:  # orjson writes NaN and +-inf as null, as it does None
        _check_numbers(obj)
    with open(path, "wb") as handle:
        handle.write(data)
