"""JSON and CSV interchange formats.

Matrix JSON: ``{"rows": n, "cols": m, "data": [[re, im], ...]}`` with the
entries flattened row-major. Antiunitary JSON wraps the unitary part as
``{"kind": "antiunitary", "unitary_part": <matrix>}``. Symbols are
``{"fourier": {"-2": [re, im], ...}}``. Everything written here is read
back by the same parsers (the CLI round-trips through these functions).
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
        "data": [[float(x.real), float(x.imag)] for x in flat],
    }


def matrix_from_json(obj) -> np.ndarray:
    try:
        rows, cols, data = obj["rows"], obj["cols"], obj["data"]
        values = np.array([complex(re, im) for re, im in data], dtype=complex)
    except (KeyError, TypeError) as exc:
        raise ValueError(f"not a matrix object: {exc}") from exc
    if not all(type(d) is int and d >= 0 for d in (rows, cols)):  # bool is not a dimension
        raise ValueError(f"matrix dimensions must be non-negative integers, got {rows!r}, {cols!r}")
    if len(data) != rows * cols:
        raise ValueError(f"matrix data length {len(data)} != rows*cols = {rows * cols}")
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
    try:
        return {int(n): complex(re, im) for n, (re, im) in obj["fourier"].items()}
    except (KeyError, TypeError, AttributeError) as exc:
        raise ValueError(f"not a symbol object: {exc}") from exc


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


def pseudospectrum_csv(grid: PseudospectrumGrid) -> str:
    lines = ["re,im,resolvent_norm,in_pseudospectrum"]
    for z, r, m in zip(grid.zs, grid.resolvent_norms, grid.in_pseudospectrum):
        lines.append(f"{float(z.real)!r},{float(z.imag)!r},{float(r)!r},{int(m)}")
    return "\n".join(lines) + "\n"


def pauli_spectrum_csv(sample: SpectrumSample) -> str:
    lines = ["k,re_plus,im_plus,re_minus,im_minus"]
    for k, (plus, minus) in zip(sample.k_grid, sample.eigenvalues):
        lines.append(
            f"{float(k)!r},{float(plus.real)!r},{float(plus.imag)!r},"
            f"{float(minus.real)!r},{float(minus.imag)!r}"
        )
    return "\n".join(lines) + "\n"


def load_json(path) -> object:
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def dump_json(obj, path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(obj, handle, indent=1)
        handle.write("\n")
