"""JSON and CSV interchange formats.

Matrix JSON: ``{"rows": n, "cols": m, "data": [[re, im], ...]}`` with the
entries flattened row-major. Antiunitary JSON wraps the unitary part as
``{"kind": "antiunitary", "unitary_part": <matrix>}``. Symbols are
``{"fourier": {"-2": [re, im], ...}}``. Everything written here is read
back by the same parsers (the CLI round-trips through these functions).

:func:`dump_json` writes compact one-line JSON holding finite numbers only:
a NaN or infinite value raises ``ValueError`` (CLI exit 2) and no file is
written. Floats keep their shortest ``repr``, so they parse back bit for bit.
"""

from __future__ import annotations

import json

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


def load_json(path) -> object:
    """Parsed JSON; ``ValueError`` on the non-standard NaN and +-Infinity."""
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle, parse_constant=_reject_constant)


def dump_json(obj, path) -> None:
    """One compact line; ``ValueError`` on NaN or +-inf before ``path`` is opened."""
    text = json.dumps(obj, separators=(",", ":"), allow_nan=False)  # one-shot C encoder
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text + "\n")
