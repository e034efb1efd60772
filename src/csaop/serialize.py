"""JSON and CSV interchange formats.

Matrix JSON: ``{"rows": n, "cols": m, "data": [[re, im], ...]}`` with the
entries flattened row-major. Antiunitary JSON wraps the unitary part as
``{"kind": "antiunitary", "unitary_part": <matrix>}``. Symbols are
``{"fourier": {"-2": [re, im], ...}}``. Everything written here is read
back by the same parsers (the CLI round-trips through these functions).
Each reader raises ``ValueError``, naming its object, on any malformed one.

:func:`dump_json` writes compact one-line JSON with ``orjson`` and holds
finite numbers only: a NaN or infinite value, or an int outside 64 bits,
raises ``ValueError`` (CLI exit 2) and no file is written. Floats take their
shortest round-trip spelling (Ryu: ``1e-05`` is written ``0.00001``), so the
standard decoder reads them back bit for bit.
:func:`load_json` rejects what the standard decoder reads leniently: NaN,
+-Infinity and a key repeated within one object, and raises ``ValueError``,
not ``RecursionError``, on nesting too deep to decode. It reads with
``orjson`` when a screen of the bytes shows that ``orjson`` returns what the
standard decoder would: no backslash, no integer of 19 or more digits,
nesting no deeper than :data:`ORJSON_MAX_DEPTH` and no key string twice in
the document. Every other document, and every one ``orjson`` rejects, goes
to the standard decoder, so each rejection keeps its exception and message.
"""

from __future__ import annotations

import io
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
        if not isinstance(data, list):
            raise TypeError(f"data must be a list, not {type(data).__name__}")
        values = np.array(
            [complex(re, im) for re, im in data if type(re) is not bool and type(im) is not bool], dtype=complex
        )
    except (KeyError, TypeError, ValueError, OverflowError) as exc:  # ValueError: an entry that is not a pair
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
    if not isinstance(obj, dict) or obj.get("kind") != "antiunitary" or not isinstance(obj.get("unitary_part"), dict):
        raise ValueError('expected {"kind": "antiunitary", "unitary_part": <matrix object>}')
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
    except (KeyError, TypeError, AttributeError, ValueError, OverflowError) as exc:  # ValueError: "1e3", a triple
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


#: Deepest nesting of brackets outside strings that :func:`load_json` hands
#: to ``orjson``, which reads 10**5 levels. The standard decoder stops at the
#: interpreter's recursion limit (1000 by default, less the caller's own
#: stack), and a deeper document is left to it, so that it still raises
#: "JSON nested too deeply". CLI inputs nest 3 levels deep.
ORJSON_MAX_DEPTH = 128

# The screen's alphabet: every digit becomes "0", "{" and "}" become "[" and
# "]", ".", '"' and ":" stay, whitespace is deleted and every other byte
# becomes ",". Brackets are then the only bytes from "[" up.
_SCREEN_TABLE = bytes(
    48 if 48 <= b <= 57 else 91 if b in b"[{" else 93 if b in b"]}" else b if b in b'.":' else 44
    for b in range(256)
)
_LONG_DIGITS = b"0" * 19  # orjson 3.8 reads an int outside [-2**63, 2**64) as a float


def _orjson_reads_like_json(data: bytes) -> bool:
    """Whether ``orjson.loads(data)``, if it succeeds, returns exactly what
    :func:`json.loads` returns: no backslash, no run of 19 or more digits
    but a fraction's, nesting outside strings no deeper than
    :data:`ORJSON_MAX_DEPTH` and pairwise distinct key strings. Each check
    is a ``bytes`` method or a whole-array numpy operation."""
    if b"\\" in data:  # with no escape, a string is its raw bytes and its quotes pair up in order
        return False
    screen = data.translate(_SCREEN_TABLE, b" \t\n\r")
    codes = np.frombuffer(screen, dtype=np.uint8)
    quotes = np.flatnonzero(codes == ord('"'))
    if len(quotes) % 2:
        return False
    is_key = np.take(codes, quotes[1::2] + 1, mode="clip") == ord(":")  # a key's closing quote meets ":"
    if is_key.any():
        spans = np.flatnonzero(np.frombuffer(data, dtype=np.uint8) == ord('"')).reshape(-1, 2)[is_key]
        keys = list(map(data.__getitem__, map(slice, (spans[:, 0] + 1).tolist(), spans[:, 1].tolist())))
        if len(set(keys)) < len(keys):
            return False
    # a run of 19 or more digits that does not follow "." adds to the first count only
    runs = screen.count(_LONG_DIGITS)
    if runs and runs > screen.count(b"." + _LONG_DIGITS):
        return False
    brackets = np.flatnonzero(codes >= ord("["))
    if len(brackets) <= ORJSON_MAX_DEPTH:
        return True
    brackets = brackets[np.searchsorted(quotes, brackets) % 2 == 0]  # outside strings
    steps = ord("[") + 1 - codes[brackets].astype(np.int64)  # "[" is +1, "]" is -1
    return int(np.cumsum(steps).max(initial=0)) <= ORJSON_MAX_DEPTH


def load_json(path) -> object:
    """Parsed JSON; ``ValueError`` on the non-standard NaN and +-Infinity, on
    a key repeated within one object and on nesting beyond the recursion limit.

    Read with ``orjson`` when :func:`_orjson_reads_like_json` passes the
    bytes and ``orjson`` accepts them; otherwise with the standard decoder,
    which gives every rejection its exception and message."""
    with open(path, "rb") as handle:
        data = handle.read()
    if _orjson_reads_like_json(data):
        import orjson  # here, not at module level, as in dump_json

        try:
            return orjson.loads(data)
        except orjson.JSONDecodeError:
            pass
    text = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8").read()  # decoded as open(path, "r") decodes
    try:
        return json.loads(text, parse_constant=_reject_constant, object_pairs_hook=_unique_keys)
    except RecursionError:
        raise ValueError("JSON nested too deeply") from None


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
    import orjson  # here, not at module level: importing csaop skips its ~9 ms import

    try:
        data = orjson.dumps(obj, default=_float_subclass, option=orjson.OPT_APPEND_NEWLINE)
    except TypeError:  # orjson.JSONEncodeError, also raised for an int outside 64 bits
        _check_numbers(obj)
        raise
    if b"null" in data:  # orjson writes NaN and +-inf as null, as it does None
        _check_numbers(obj)
    with open(path, "wb") as handle:
        handle.write(data)
