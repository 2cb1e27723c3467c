import math
import re
import struct

import pytest
from hypothesis import example, given
import hypothesis.strategies as st

from augrank import jsonio


def bits(x: float) -> bytes:
    return struct.pack("<d", x)


@given(st.floats(allow_nan=False, allow_infinity=False))
@example(-0.0)
@example(5e-324)
@example(1.7976931348623157e308)
@example(1e-09)
def test_finite_doubles_round_trip_bit_exactly(x):
    back = jsonio.loads(jsonio.dumps({"v": [x]}))["v"][0]
    assert isinstance(back, float)
    assert bits(back) == bits(x)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_floats_raise(bad):
    with pytest.raises(ValueError):
        jsonio.dumps(bad)
    with pytest.raises(ValueError):
        jsonio.dumps({"generators": [{"re": bad}]})


def test_layout_is_indented_and_ordered(tmp_path):
    obj = {"b": [1, 2.5], "a": {}, "c": [], "d": None, "e": True}
    text = jsonio.dumps(obj)
    assert text == (
        '{\n  "b": [\n    1,\n    2.5\n  ],\n  "a": {},\n  "c": [],\n  "d": null,\n  "e": true\n}'
    )
    path = tmp_path / "x.json"
    jsonio.dump_file(str(path), obj)
    assert path.read_text() == text + "\n"
    assert jsonio.load_file(str(path)) == obj


def test_number_takes_json_numbers_only():
    assert jsonio.number(1, "re") == 1.0 and type(jsonio.number(1, "re")) is float
    assert jsonio.number(-2.5, "re") == -2.5
    for bad in (True, False, "1.0", "10", None, [1.0]):
        with pytest.raises(ValueError, match=re.escape(f"tol must be a number, got {bad!r}")):
            jsonio.number(bad, "tol")
    for bad in (math.nan, math.inf, -math.inf, 10**400):
        with pytest.raises(ValueError, match="tol is not finite"):
            jsonio.number(bad, "tol")
