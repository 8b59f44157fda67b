"""fmt17.rows against CPython's ``'%.17g' %``, one value at a time."""

import struct

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from slrlab import fmt17


def _bits(v: float) -> int:
    return struct.unpack("<Q", struct.pack("<d", v))[0]


def _texts(values, k=None) -> list[str]:
    """Each value's text from fmt17.rows, one row per value (k = the row number unless given)."""
    values = np.asarray(values, dtype=np.float64)
    k = np.arange(len(values)) if k is None else k
    lines = fmt17.rows(np.column_stack([k, values])).split("\n")
    assert lines.pop() == ""
    assert [line.split(",")[0] for line in lines] == ["%d" % v for v in k]
    return [line.split(",", 1)[1] for line in lines]


def _assert_python_text(values) -> None:
    got = _texts(values)
    bad = [(v, g, "%.17g" % v) for v, g in zip(np.asarray(values).tolist(), got) if g != "%.17g" % v]
    assert not bad, bad[:10]


# Exact ties at the 18th digit: 2**-25 rounds half to even downwards, 3 * 2**-25 upwards.
TIES = [2.0**-25, 3 * 2.0**-25]
# Nearest doubles to 10**k that lie just under it and round up into the next decade.
CARRIES = [1e-305, 1e-14]


def _edge_array() -> np.ndarray:
    tens = [float(f"1e{k}") for k in range(-323, 309)]
    return np.array([
        *(np.nextafter(v, to) for v in tens for to in (-np.inf, v, np.inf)),
        *(2.0**k for k in range(-1074, 1024)),
        0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, 1.7976931348623157e308,
        *(k / 8 for k in range(100_000)),
        1e16, 1e17, 99999999999999999.0, 1e-5, 1e-4, 9.9999999999999984e16, *TIES,
    ])


EDGE = _edge_array()


@settings(max_examples=300, deadline=None, derandomize=True)
@given(bits=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=64))
@example(bits=[_bits(v) for v in TIES + CARRIES])
@example(bits=[_bits(1e16), _bits(1e17), _bits(9.9999999999999984e16), _bits(-0.0), _bits(5e-324)])
def test_every_bit_pattern_prints_as_python_prints_it(bits):
    _assert_python_text(np.array(bits, dtype=np.uint64).view(np.float64))


def test_the_edge_array_prints_as_python_prints_it():
    _assert_python_text(EDGE)
    _assert_python_text(-EDGE)


def test_the_fallback_gives_the_same_bytes(monkeypatch):
    values = np.concatenate([EDGE[::7], -EDGE[3::11]])
    k = np.arange(len(values)) * 12_345
    cols = np.column_stack([k, values.reshape(-1, 1)])
    fast = fmt17.rows(cols)
    # Without the fallback's ties and decade bounds, the edge array would be printed wrong.
    finite = np.abs(EDGE[np.isfinite(EDGE) & (EDGE != 0)])
    assert not fmt17.decimal17(finite)[2].all()
    monkeypatch.setattr(fmt17, "MARGIN", 1.0)  # every fraction lies within 1 of one half
    assert not fmt17.decimal17(finite)[2].any()
    assert fmt17.rows(cols) == fast


# Every integer-valued double below 1e17: its %.17g is its %d, so k needs no text path of its own.
K = st.integers(0, 10**17 - 1).map(float).filter(lambda v: v < 1e17)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(k=st.lists(K, max_size=64))
@example(k=[0.0, *(10.0**j for j in range(17)), 2.0**53, 99999999999999984.0])
@example(k=[])  # no rows: no text, not "\n"
def test_k_prints_as_an_integer(k):
    assert _texts(np.ones(len(k)), np.array(k)) == ["1"] * len(k)
