"""``serialize.load_json`` against the standard decoder it replaces.

``load_json`` reads with ``orjson`` when a screen of the bytes passes and
with the standard decoder otherwise. Whatever it reads, it must return what
``conftest.load_json_by_stdlib`` returns, leaf types and float bits
included, or raise the same exception with the same message.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from csaop.serialize import ORJSON_MAX_DEPTH, _orjson_reads_like_json, load_json

from conftest import load_json_by_stdlib, typed_leaves


def _outcome(read, path):
    try:
        return "value", typed_leaves(read(path))
    except Exception as exc:  # the type and message are compared
        return "error", type(exc), str(exc)


@pytest.fixture(scope="module")
def doc_path(tmp_path_factory):
    return tmp_path_factory.mktemp("json") / "doc.json"


def _agrees(path, data: bytes):
    path.write_bytes(data)
    assert _outcome(load_json, path) == _outcome(load_json_by_stdlib, path)


_WS = st.sampled_from(["", "", "", " ", "\n", "\r\n", "\r", "\t"])
_NUMBER_TOKENS = [
    "0", "-0", "-0.0", "1E+2", "1e400", "-1e400", "1e-400", "NaN", "Infinity", "-Infinity",
    str(2**63 - 1), str(2**63), str(-(2**63)), str(-(2**63) - 1), str(2**64 - 1), str(2**64), str(-(2**64)),
    "9" * 18, "-" + "9" * 18, "1" * 19 + ".5", "0." + "1" * 30, "0." + "1" * 40, "1e000000000000000000005",
    "0.1000000000000000055511151231257827021181583404541015625", "2.2250738585072011e-308",
    "01", "1.", ".5", "1e", "+1", "--1",
]
_NUMBERS = st.one_of(
    st.sampled_from(_NUMBER_TOKENS),
    st.integers(-(10**20), 10**20).map(str),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.from_regex(r"-?(0|[1-9][0-9]{0,20})(\.[0-9]{1,25})?([eE][+-]?[0-9]{1,3})?", fullmatch=True),
)
# raw pieces of a string's text: brackets, quotes and colons inside strings,
# escapes (a backslash sends the whole document to the standard decoder),
# and a control byte, which both decoders reject
_STRING_PARTS = st.sampled_from(
    ["a", "rows", ":", '":"', "[", "]]]", "{", "}", ",", " ", "é", " ", "😀", "1234567890123456789012",
     '\\"', "\\\\", "\\n", "\\u0061", "\\ud800", "\x01", "\x7f"]
)
_STRINGS = st.lists(_STRING_PARTS, max_size=3).map(lambda parts: '"' + "".join(parts) + '"')
# few distinct keys, so that keys repeat within an object and across siblings
_KEYS = st.one_of(st.sampled_from(['"a"', '"b"', '"rows"', '"data"', '"d\\u0061ta"', '""']), _STRINGS)
_SCALARS = st.one_of(_NUMBERS, _STRINGS, st.sampled_from(["true", "false", "null", "nul"]))


def _containers(children):
    items = st.lists(st.tuples(_WS, children, _WS).map("".join), max_size=4).map(",".join)
    member = st.tuples(_WS, _KEYS, _WS, st.just(":"), _WS, children, _WS).map("".join)
    members = st.lists(member, max_size=4).map(",".join)
    return st.one_of(items.map(lambda text: f"[{text}]"), members.map(lambda text: f"{{{text}}}"))


_VALUES = st.recursive(_SCALARS, _containers, max_leaves=16)
_BAD_BYTES = [b"\xff", b"\x80", b"\xc0\x80", b"\xed\xa0\x80", b"\xf4\x90\x80\x80"]


@st.composite
def documents(draw):
    depth = draw(st.sampled_from([0] * 6 + [ORJSON_MAX_DEPTH - 1, ORJSON_MAX_DEPTH, ORJSON_MAX_DEPTH + 1, 300]))
    text = "[" * depth + draw(_WS) + draw(_VALUES) + draw(_WS) + "]" * depth
    data = text.encode("utf-8")
    change = draw(st.sampled_from(["none"] * 5 + ["bom", "truncate", "bad-utf8"]))
    if change == "bom":
        data = b"\xef\xbb\xbf" + data
    elif change == "truncate":
        data = data[: draw(st.integers(0, len(data)))]
    elif change == "bad-utf8":
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(st.sampled_from(_BAD_BYTES)) + data[at:]
    return data


@settings(max_examples=300, deadline=None)
@given(data=documents())
def test_agrees_with_the_standard_decoder(doc_path, data):
    _agrees(doc_path, data)


_CASES = {
    "repeated-key": b'{"a": 1, "a": 2}',
    "repeated-key-nested": b'{"m": {"rows": 1, "cols": 1, "rows": 2}}',
    "repeated-escaped-key": b'{"data": 1, "d\\u0061ta": 2}',
    "sibling-keys": b'{"a": {"rows": 1}, "b": {"rows": 2}, "c": [{"rows": 3}, {"rows": 4}]}',
    "escapes": b'{"k": "a\\"b\\\\c\\n\\u00e9\\ud83d\\ude00"}',
    "lone-surrogate-escape": b'["\\ud800"]',
    "structure-in-strings": b'{"a:b": "[{\\":", "[": "}", "]": ["]]]", "{{{"]}',
    "crlf": b'{\r\n  "a" :\r\n [1,\r2]\r\n}\r\n',
    "bom": b'\xef\xbb\xbf{"a": 1}',
    "invalid-utf8": b'{"a": "\xff"}',
    "invalid-utf8-outside": b'{"a": 1}\x80',
    "nan": b'{"rows": 1, "cols": 1, "data": [[NaN, 0]]}',
    "infinity": b"[-Infinity]",
    "1e400": b"[1e400, -1e400, 1e-400]",
    "int-2^63": f"[{2**63 - 1}, {2**63}, {-(2**63)}, {-(2**63) - 1}]".encode(),
    "int-2^64": f"[{2**64 - 1}, {2**64}, {-(2**64)}]".encode(),
    "int-digits": b"[123456789012345678, 1234567890123456789, 0.1234567890123456789012]",
    "leading-zero": b"[01]",
    "empty": b"",
    "blank": b" \n",
    "truncated-object": b'{"rows": 2, "cols": 2, "da',
    "truncated-number": b'{"rows": 2, "data": [[1.5e',
    "trailing-comma": b"[1, 2,]",
    "extra-data": b"[1] [2]",
    "depth-10^5": b"[" * 10**5 + b"]" * 10**5,
    "depth-10^5-in-object": b'{"a": ' + b"[" * 10**5 + b"]" * 10**5 + b"}",
    "depth-10^5-after-closing-brackets-in-a-string": b'["' + b"]" * 10**5 + b'", ' + b"[" * 10**5 + b"]" * 10**5 + b"]",
}


@pytest.mark.parametrize("data", list(_CASES.values()), ids=list(_CASES))
def test_named_case_agrees(doc_path, data):
    _agrees(doc_path, data)


@pytest.mark.parametrize("extra", [-1, 0, 1])
def test_depth_at_the_bound(doc_path, extra):
    arrays = ORJSON_MAX_DEPTH + extra - 1  # inside one object
    data = b'{"a": ' + b"[" * arrays + b'"]]"' + b"]" * arrays + b"}"  # brackets in a string do not count
    assert _orjson_reads_like_json(data) == (extra <= 0)
    _agrees(doc_path, data)


@pytest.mark.parametrize(
    "data, fast",
    [
        (b'{"rows": 1, "cols": 1, "data": [[0.5, -1e-05]]}', True),
        (b'{"kind": "antiunitary", "unitary_part": {"rows": 0, "cols": 0, "data": []}}', True),
        (b'{"fourier": {"-2": [1, 0], "0": [0.5, -0.25]}}', True),
        (b'{\n  "rows": 1,\n  "data": [\n    [\n      0.0001234567890123456,\n      -3.0\n    ]\n  ]\n}', True),  # indent=2
        (b'{"k": "d\\u0061ta"}', False),  # a backslash anywhere
        (b"[1234567890123456789]", False),  # 19 digits may leave the 64-bit range
        (b"[-123456789012345678, 0.1234567890123456789012]", True),  # 18 digits; a fraction's digits
        (b'[{"rows": 1}, {"rows": 2}]', False),  # a key string twice, even in sibling objects
        (b'{"a": 1, "b": 2, "a:": 3}', True),
        (b'["a": 1]', True),  # not JSON: orjson rejects it, the standard decoder words the error
    ],
)
def test_screen(data, fast):
    assert _orjson_reads_like_json(data) == fast

