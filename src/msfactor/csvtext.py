"""Exact '%.17g' text for float64 arrays, at numpy speed.

g17_slots gives each value the bytes of '%.17g' % v at the start of a
fixed-width, NUL-padded slot, and csv_rows joins a table of slots into
CSV rows with one boolean compress.

Zeros and values with 1e-4 <= |v| < 1e9 are converted with exact
integer arithmetic, the fixed-precision scaling of Ryu printf (Adams
2019, "Ryu revisited: printf floating point conversion"): with
v = m 2**e, m < 2**53, and E = floor(log10 |v|), the 17 significant
digits are N = round_half_even(m 5**p 2**(p + e)) for p = 16 - E, a
product below 2**102 held in two uint64 halves and shifted right.  '%g'
prints these values in its fixed layout.  Every other value (tiny,
huge, nan, inf) is formatted by '%'.
"""

from __future__ import annotations

import numpy as np

# the longest '%.17g' text is 24 bytes; the slot's last byte is the separator
SLOT = 32
_POW5 = 5 ** np.arange(23, dtype=np.uint64)
_Q = np.arange(10000, dtype=np.uint16)
# the four ASCII digits of q, the first in the lowest byte, and q's trailing zeros
_ASCII4 = np.stack([_Q // 1000, _Q // 100 % 10, _Q // 10 % 10, _Q % 10], axis=1).astype(np.uint8)
_ASCII4 = (_ASCII4 + 48).view("<u4").ravel().astype("<u8")
_TZ4 = np.sum([_Q % 10**z == 0 for z in range(1, 5)], axis=0)
# column c of each: 24 bytes, as three little-endian words, that keep the
# first c bytes / hold a point at byte c
_BYTE = np.arange(24) - np.arange(25)[:, None]
_FIRST = np.where(_BYTE < 0, 255, 0).astype(np.uint8).view("<u8").T.copy()
_DOT = np.where(_BYTE == 0, ord("."), 0).astype(np.uint8).view("<u8").T.copy()
# what precedes the digits: the sign, then for E = -1..-4 "0." and E + 1 zeros
_HEADS = [sign + (b"0." + b"0" * (z - 1) if z else b"") for sign in (b"", b"-") for z in range(5)]
_HEAD = np.array([int.from_bytes(h, "little") for h in _HEADS], dtype="<u8")
_HEAD_BITS = np.array([8 * len(h) for h in _HEADS], dtype="<u8")
_LOW = np.uint64(0xFFFFFFFF)
_ONE = np.uint64(1)


def _digits(m, ex, e10):
    """round_half_even(m 10**(16 - e10) / 2**(53 - ex)), exactly, as uint64."""
    p = 16 - e10
    f = _POW5[p]
    shift = (53 - ex - p).astype(np.uint64)   # 14..48 in the fast range
    mh, ml, fh, fl = m >> 32, m & _LOW, f >> 32, f & _LOW
    ll = ml * fl
    mid = ml * fh + mh * fl + (ll >> 32)
    hi = mh * fh + (mid >> 32)
    lo = (mid << 32) | (ll & _LOW)
    q = (hi << (64 - shift)) | (lo >> shift)
    rem = lo & ((_ONE << shift) - _ONE)
    half = _ONE << (shift - _ONE)
    return q + ((rem > half) | ((rem == half) & ((q & _ONE) == 1)))


def _shifted(words, bits):
    """Three-word little-endian values shifted left by bits (below 64)."""
    out = words << bits
    out[1:] |= words[:2] >> (64 - bits)   # numpy gives 0 for a shift by 64
    return out


def g17_slots(values):
    """values.shape + (SLOT,) bytes: '%.17g' % v, then NUL bytes."""
    v = np.asarray(values, dtype=np.float64)
    shape, v = v.shape, v.ravel()
    a = np.abs(v)
    fast = (a >= 1e-4) & (a < 1e9)
    w = np.where(fast, a, 1.0)
    mant, ex = np.frexp(w)
    m = (mant * 2.0**53).astype(np.uint64)
    e10 = np.floor(np.log10(w)).astype(np.int64)
    n = _digits(m, ex, e10)
    # log10 can be one off beside a power of ten: then N has 16 or 18
    # digits, and the exponent moves by one (an estimate one too high that
    # still rounds to 1e16 needs a double within 5e-17 below a power of
    # ten, and the fast range holds none)
    off = np.flatnonzero((n < 10**16) | (n > 10**17))
    e10[off] += np.where(n[off] > 10**17, 1, -1)
    n[off] = _digits(m[off], ex[off], e10[off])
    up = n == 10**17   # rounded up to the next power of ten
    n[up] = 10**16
    e10[up] += 1
    n[v == 0] = 0      # prints as "0", its exponent 0 from w = 1

    # the 17 digits, as ASCII from the lowest byte of three words
    lead, rest = np.divmod(n, 10**16)
    hi8, lo8 = np.divmod(rest, 10**8)
    (g1, g2), (g3, g4) = np.divmod(hi8, 10**4), np.divmod(lo8, 10**4)
    hi = _ASCII4[g1] | _ASCII4[g2] << 32
    lo = _ASCII4[g3] | _ASCII4[g4] << 32
    words = np.stack([(lead + 48) | hi << 8, hi >> 56 | lo << 8, lo >> 56])
    # '%g' drops trailing zeros after the point, then a bare point
    tz = _TZ4[g4] + (g4 == 0) * (_TZ4[g3] + (g3 == 0) * (_TZ4[g2] + (g2 == 0) * _TZ4[g1]))
    kept = np.maximum(e10 + 1, 17 - tz)
    words &= _FIRST.take(kept, axis=1)
    # the point follows digit E when a digit follows it; 24 is no point
    point = np.where((e10 >= 0) & (kept > e10 + 1), e10 + 1, 24)
    before = _FIRST.take(point, axis=1)
    words = (words & before) | _shifted(words & ~before, 8) | _DOT.take(point, axis=1)
    # the sign, and below 1 the "0." and zeros, go before the digits
    head = 5 * np.signbit(v) + np.clip(-e10, 0, 4)
    words = _shifted(words, _HEAD_BITS[head])
    words[0] |= _HEAD[head]

    out = np.zeros((v.size, SLOT // 8), dtype="<u8")
    out[:, :3] = words.T
    out = out.view(np.uint8)
    slow = np.flatnonzero(~fast & (v != 0))
    for i, x in zip(slow, v[slow].tolist()):
        text = b"%.17g" % x
        out[i] = 0
        out[i, :len(text)] = np.frombuffer(text, dtype=np.uint8)
    return out.reshape(shape + (SLOT,))


def csv_rows(slots):
    """The CSV text of a rows x columns x SLOT table; writes its separators in place."""
    slots[..., -1] = ord(",")
    slots[:, -1, -1] = ord("\n")
    return slots[slots != 0].tobytes()
