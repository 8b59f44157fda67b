"""Exact ``'%.17g' % v`` text for float64 arrays, made with numpy.

:func:`rows` prints a 2-d array as CSV rows, byte for byte the text that
CPython's ``%`` operator gives, with no Python call per value.  Only
``cli_io.write_trajectory_csv`` imports this module, so no other command
loads it.

A finite nonzero x becomes text in four steps.

1. Scale.  ``np.frexp`` gives |x| = f * 2**E, and P = floor(log10|x|)
   is estimated with ``np.log10``.  y = |x| * 10**(16 - P) is formed as
   a double-double hi + lo: f times a table entry 10**k = (th + tl) *
   2**b, built once from exact integers, with Dekker's exact product
   (numpy has no fused multiply-add) and a Fast2Sum, then scaled by
   ``np.ldexp``, which is exact.  Where y falls outside [1e16, 1e17), P
   moves by one and y is formed again, so the last bits of numpy's
   log10 never reach the text.
2. Round.  hi >= 2**53 is an integer, so D = round(y) is hi plus lo
   rounded.  A D of 10**17 carries into P + 1.
3. Fall back.  The double-double is within 2**-103 of the exact product,
   relative: tl is rounded to within 2**-106 of 10**k * 2**-b, the
   product's low-order terms add at most 2**-105 + 2**-107 to f * (th +
   tl) in [0.5, 2), and the rest is exact.  For y < 2**57 that is below
   2**-46 absolute.  Where y's fraction lies within ``MARGIN`` = 2**-40
   of one half (exact ties included), or y lies within ``MARGIN`` of
   1e16 or 1e17, the value is printed by Python's ``%`` instead, as are
   0, -0, nan and +-inf.
4. Text.  The 17 digits of D without trailing zeros are laid out as %g
   lays them out: fixed notation for -4 <= P < 17, else ``d.ddde+XX``
   with at least two exponent digits, and a sign.  Each value gets a
   32-byte field, its separator and then its text, NUL where it holds no
   character, assembled with whole-array integer operations.  A row is
   its fields, the first separated by "\\n" (which ends the row before)
   and the others by ","; the NULs and the text's leading "\\n" are
   dropped at the end, and a final "\\n" is added.

So :func:`rows` gives ``'%.17g' %`` of every value, a row's first
column too: for an integer below 1e17, such as the trajectory's k, that
is the integer's digits, as ``'%d' %`` prints them.
"""

from __future__ import annotations

import math

import numpy as np

MARGIN = 2.0**-40

# 10**k for k = 16 - P over every P a double can have, one either side:
# 10**k = (_TH + _TL) * 2**_TB with _TH in [1, 2], and _TH split in
# halves of 26 bits for Dekker's product.
_K_MIN, _K_MAX = -300, 345
_SPLIT = 2.0**27 + 1


def _power_table():
    th, tl, tb = [], [], []
    for k in range(_K_MIN, _K_MAX + 1):
        # 10**k, or a quotient 10**k * 2**shift with at least 128 bits.
        shift = 0 if k >= 0 else 128 - 4 * k
        num = 10**k if k >= 0 else (1 << shift) // 10**-k
        bits = num.bit_length()
        top = num >> (bits - 120) if bits > 120 else num << (120 - bits)  # its leading 120 bits
        hi = float(top)  # int -> float rounds to nearest
        th.append(math.ldexp(hi, -119))
        tl.append(math.ldexp(float(top - int(hi)), -119))
        tb.append(bits - 1 - shift)
    th = np.array(th)
    c = _SPLIT * th
    th_hi = c - (c - th)
    return th, th_hi, th - th_hi, np.array(tl), np.array(tb)


_TH, _TH_HI, _TH_LO, _TL, _TB = _power_table()


def _scaled(f: np.ndarray, e: np.ndarray, k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """f * 2**e * 10**k as a double-double (hi, lo), for f in [0.5, 1)."""
    i = k - _K_MIN
    p = f * _TH[i]
    # Dekker's product: f * th = p + t exactly, f and th split in halves of 26 bits.
    f_hi = f * _SPLIT
    f_hi -= f_hi - f
    f_lo = f - f_hi
    th_hi, th_lo = _TH_HI[i], _TH_LO[i]
    t = f_hi * th_hi
    t -= p
    t += f_hi * th_lo
    t += f_lo * th_hi
    t += f_lo * th_lo
    t += f * _TL[i]
    # Fast2Sum: s + (t - (s - p)) = p + t exactly.
    s = p + t
    p -= s
    t += p
    scale = e + _TB[i]
    return np.ldexp(s, scale), np.ldexp(t, scale)


def decimal17(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(D, P, exact) for finite positive ``a``: a rounds to D * 10**(P - 16), 10**16 <= D < 10**17.

    D and P are correct where ``exact`` holds; elsewhere the value is
    too close to a tie or a decade bound for the double-double to tell.
    """
    f, e = np.frexp(a)
    p = np.floor(np.log10(a)).astype(np.int64)
    hi, lo = _scaled(f, e, 16 - p)
    above = (hi - 1e17) + lo >= 0
    off = np.flatnonzero(((hi - 1e16) + lo < 0) | above)
    if len(off):
        p[off] += np.where(above[off], 1, -1)
        hi[off], lo[off] = _scaled(f[off], e[off], 16 - p[off])
    del f, e, above
    exact = ((hi - 1e16) + lo >= MARGIN) & ((hi - 1e17) + lo <= -MARGIN)
    d = hi.astype(np.int64)
    lo_int = np.floor(lo)
    d += lo_int.astype(np.int64)
    lo -= lo_int  # y's fraction
    exact &= np.abs(lo - 0.5) >= MARGIN
    d += lo > 0.5
    carry = d == 10**17
    d[carry] = 10**16
    p += carry
    return d, p, exact


# Each 4-digit number's ASCII text as a little-endian uint32, and its count of trailing zeros (4 for 0).
_I = np.arange(10_000, dtype=np.uint32)
_DIGITS4 = sum((_I // 10**(3 - j) % 10 + ord("0")) << 8 * j for j in range(4))
_ZEROS4 = sum((_I % 10**j == 0).astype(np.int8) for j in range(1, 5))


def _digit_words(v: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Write the 20 digits of ``v`` < 10**20 as 5 ASCII words into ``out`` (uint32, most significant first).

    Returns the count of trailing zeros among the last 16 digits.
    """
    zeros = None
    for j in range(4, 0, -1):
        q = v // 10_000
        r = v - q * 10_000
        out[:, j] = _DIGITS4[r]
        if zeros is None:
            zeros, all_zero = _ZEROS4[r], r == 0
        else:
            zeros += _ZEROS4[r] * all_zero
            all_zero &= r == 0
        v = q
    out[:, 0] = _DIGITS4[v]
    return zeros


# A value's 32-byte field: byte 0 the separator, 1 the sign, 2-6 the
# "0.000" of fixed notation below 1, 7-24 the 17 digits with the decimal
# point among them, 25-26 "e" and the exponent's sign, 29-31 its digits.
# Its bytes come from a source S, which holds the sign at byte 1, D's 20
# digits at 4-23 and the exponent's 4 digits at 28-31, and from S shifted
# by one byte: a field is (S & keep) | ((S << 8) & shift) | const.  Each
# notation and count of digits has its own keep, shift and const.  The
# notations are 21 fixed ones (P = -4 .. 16, numbered P + 4) and 4
# exponential ones (21, 22: P < -4 with 2 or 3 exponent digits; 23, 24:
# P >= 17 likewise).
def _layout_tables() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    tables = bytearray(), bytearray(), bytearray()
    for notation in range(25):
        for nd in range(1, 18):
            keep, shift, const = bytearray(32), bytearray(32), bytearray(32)
            const[0:1] = b","
            keep[1:2] = b"\xff"
            if notation < 4:  # 0.0ddd: the digits follow "0." and -P - 1 zeros
                zeros = 3 - notation
                const[2:4 + zeros] = b"0." + b"0" * zeros
                keep[7:7 + nd] = b"\xff" * nd
            elif notation < 21:  # ddd.ddd: P + 1 integer digits, then the point if a digit follows
                point = notation - 3
                keep[7:7 + point] = b"\xff" * point
                if nd > point:
                    shift[8 + point:8 + nd] = b"\xff" * (nd - point)
                    const[7 + point:8 + point] = b"."
            else:  # d.ddde+XX
                keep[7:8] = b"\xff"
                if nd > 1:
                    shift[9:8 + nd] = b"\xff" * (nd - 1)
                    const[8:9] = b"."
                const[25:27] = b"e-" if notation < 23 else b"e+"
                keep[29:32] = b"\xff\xff\xff" if notation in (22, 24) else b"\x00\xff\xff"
            for table, row in zip(tables, (keep, shift, const)):
                table += row
    return tuple(np.frombuffer(table, np.uint64).reshape(25 * 17, 4) for table in tables)


_KEEP, _SHIFT, _CONST = _layout_tables()
# Each P's first row in the layout tables (less one, so that adding nd gives the row), for P in [_P_MIN, -_P_MIN).
_P_MIN = -330
_P = np.arange(_P_MIN, -_P_MIN)
_P_ROW = 17 * np.select([_P < -99, _P < -4, _P < 17, _P < 100], [22, 21, _P + 4, 23], 24) - 1


def rows(cols: np.ndarray) -> str:
    """Each row of a 2-d float64 array as ``'%.17g' %`` of its values, joined by "," and ended by "\\n"."""
    n, m = cols.shape
    if n == 0:
        return ""
    x = cols.ravel()
    a = np.abs(x)
    special = ~(a < np.inf) | (a == 0)
    a[special] = 1.0
    d, p, exact = decimal17(a)
    src = np.zeros((len(x), 8), np.uint32)
    src[:, 0] = (x < 0) * np.uint32(ord("-") << 8)
    nd = 17 - _digit_words(d, src[:, 1:6])
    src[:, 7] = _DIGITS4[np.abs(p)]
    layout = _P_ROW[p - _P_MIN] + nd
    src = src.view(np.uint64)
    out = src << np.uint64(8)
    out[:, 1:] |= src[:, :-1] >> np.uint64(56)
    out &= np.take(_SHIFT, layout, axis=0)
    out |= np.take(_CONST, layout, axis=0)
    src &= np.take(_KEEP, layout, axis=0)
    out |= src
    slow = np.flatnonzero(special | ~exact)
    if len(slow):
        text = np.array([(",%.17g" % v).encode() for v in x[slow].tolist()], dtype="S32")
        out[slow] = text.view(np.uint64).reshape(-1, 4)
    # Each row's first field is separated by "\n", which ends the row before.
    out[::m, 0] ^= np.uint64(ord(",") ^ ord("\n"))
    flat = out.view(np.uint8).ravel()
    return str(flat[flat != 0][1:].data, "ascii") + "\n"
