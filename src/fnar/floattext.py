"""Shortest round-trip text of float64 arrays, byte for byte what ``repr``
writes, for a block of values at once.

Schubfach (Giulietti 2020, "The Schubfach way to render doubles") finds the
shortest decimal d * 10**k that reads back as a double, and of those the
closest, ties to even d: the digits of repr. It needs fixed-width integer
arithmetic only, so here it runs in numpy uint64 (``_shortest_digits``). A
table of text layouts, keyed by sign, decimal point and significant digits,
then turns the digits into repr's text (``float_rows``): fixed notation for a
decimal point at -3..16, else exponent notation with at least two exponent
digits, ``.0`` on integral values, and ``-0.0``, ``nan``, ``inf``, ``-inf``.
"""

from __future__ import annotations

import numpy as np

__all__ = ["float_rows", "float_texts"]

_GATHER = 2048  # values whose text is gathered at once, which bounds the 8-byte indices

# A double is c * 2**q. Schubfach scales 4c and the bounds of its rounding
# interval by g(k) = floor(10**-k * 2**(125 - flog2pow10(-k))) + 1, a 126-bit
# power of ten held as g1 = g >> 63 and g0 = g mod 2**63 (and as their 32-bit
# halves). Java's extra steps for at least two digits are left out: repr
# writes 5e-324, not 4.9e-324.

_K_MIN, _K_MAX = -324, 292
_M32 = np.uint64(0xFFFF_FFFF)


def _power_table() -> np.ndarray:
    """Rows g1, g1 >> 32, g1 mod 2**32, g0, g0 >> 32, g0 mod 2**32 of g(k); a
    column per k from _K_MIN."""
    columns = []
    for k in range(_K_MIN, _K_MAX + 1):
        shift = 125 - ((-k * 913124641741) >> 38)
        num, den = (10**-k, 1) if k <= 0 else (1, 10**k)
        g = (num << shift if shift >= 0 else num >> -shift) // den + 1
        g1, g0 = g >> 63, g & (2**63 - 1)
        columns.append((g1, g1 >> 32, g1 & 0xFFFF_FFFF, g0, g0 >> 32, g0 & 0xFFFF_FFFF))
    return np.array(columns, dtype=np.uint64).T.copy()


def _exponent_tables():
    """Per table row, the biased exponent plus 2048 for a power of two (whose
    lower neighbour is half as far): k, 2**52 for a normal value, the shift
    h + 2 of c, and the exponents of the distances to the lower and upper bound."""
    biased = np.arange(4096) % 2048
    uneven = (np.arange(4096) >= 2048) & (biased > 1)
    q = biased - 1075 + (biased == 0)
    k = (q * 661971961083 - uneven * 274743187321) >> 41
    h = q + ((-k * 913124641741) >> 38) + 2
    return (k, np.where(biased > 0, 2**52, 0).astype(np.uint64), (h + 2).astype(np.uint8),
            (h + 1 - uneven).astype(np.uint8), (h + 1).astype(np.uint8))


_POWERS = _power_table()
_EXP_K, _EXP_IMPLICIT, _EXP_SHIFT, _EXP_LOW, _EXP_HIGH = _exponent_tables()
# whether t = s + 1 is nearer than s, by vb mod 8: ties to an even digit
_T_NEARER = np.array([0, 0, 0, 1, 0, 0, 1, 1], np.uint8)


def _round_to_odd(x1, y0, y1):
    """Schubfach's rop: (g * cp) >> 127 from x1 = (g0 * cp) >> 64 and the words
    y1, y0 of g1 * cp, its last bit set where the 63 bits below it, as rop keeps
    them, are not all zero."""
    z = (y0 >> 1) + x1
    return (y1 + (z >> 63)) | (z << 1 != 0)


def _shortest_digits(a):
    """Digits d (uint64) and exponent k (int64) of the shortest decimal
    d * 10**k that reads back as each finite, positive float64 of ``a``."""
    bits = a.view(np.uint64)
    mantissa = bits & np.uint64(2**52 - 1)
    row = (bits >> 52).view(np.int64) + (mantissa == 0) * 2048
    k = _EXP_K.take(row)
    g1, g1h, g1l, g0, g0h, g0l = _POWERS.take(k - _K_MIN, axis=1)
    cp = (mantissa + _EXP_IMPLICIT.take(row)) << _EXP_SHIFT.take(row)  # 4c << h, below 2**60
    # the 128-bit products g0 * cp and g1 * cp from 32-bit halves; no sum overflows
    cph, cpl = cp >> 32, cp & _M32
    x1 = g0h * cph + (((g0l * cpl >> 32) + g0l * cph + g0h * cpl) >> 32)
    y1 = g1h * cph + (((g1l * cpl >> 32) + g1l * cph + g1h * cpl) >> 32)
    x0, y0 = g0 * cp, g1 * cp
    vb = _round_to_odd(x1, y0, y1)
    # the bounds, cp less and plus a power of two, by exact 128-bit steps
    low, high = _EXP_LOW.take(row), _EXP_HIGH.take(row)
    xl, yl = x0 - (g0 << low), y0 - (g1 << low)
    vbl = _round_to_odd(x1 - (g0 >> 64 - low) - (xl > x0), yl, y1 - (g1 >> 64 - low) - (yl > y0))
    xr, yr = x0 + (g0 << high), y0 + (g1 << high)
    vbr = _round_to_odd(x1 + (g0 >> 64 - high) + (xr < x0), yr, y1 + (g1 >> 64 - high) + (yr < y0))
    odd = mantissa & 1  # an odd c's interval excludes its bounds
    vbl += odd
    vbr -= odd
    s = vb >> 2
    s4 = vb & ~np.uint64(3)
    s_in, t_in = vbl <= s4, s4 + 4 <= vbr
    d = s + np.where(s_in == t_in, _T_NEARER.take((vb & 7).view(np.int64)), t_in)
    # a shorter candidate, a multiple of ten, where just one is inside
    sp10 = s // 10 * 10
    sp40 = sp10 << 2
    up_in, wp_in = vbl <= sp40, sp40 + 40 <= vbr
    return np.where(up_in == wp_in, d, np.where(wp_in, sp10 + 10, sp10)), k


# A value's text is gathered from a 40-byte source row: "000" and its 17 digits
# (zero-filled on the right), the bytes ".0-,naif\r\n" and NULs, then its
# exponent text. A pattern lists the source bytes of one text shape: what
# follows it ("," before another value, "\r\n" at the end of a table row, or
# nothing), the sign, the form (decimal point at -3..16, or exponent form) and
# the significant digits; NUL (_SRC_NUL) pads it to _TEXT_WIDTH.
_SRC_WIDTH, _TEXT_WIDTH = 40, 32
_SRC_DOT, _SRC_ZERO, _SRC_MINUS, _SRC_COMMA, _SRC_NUL, _SRC_EXP = 20, 21, 22, 23, 30, 32
_SRC_N, _SRC_A, _SRC_I, _SRC_F, _SRC_CR, _SRC_LF = 24, 25, 26, 27, 28, 29
_SRC_CONSTANTS = np.frombuffer(b".0-,naif\r\n\0\0", np.uint32)
_EXP_FORM, _INF_FORM, _NAN_FORM, _FORMS = 20, 21, 22, 23
_QUADS = (np.arange(10_000, dtype=np.uint16)[:, None] // np.array([1000, 100, 10, 1], np.uint16)
          % 10 + 48).astype(np.uint8).view(np.uint32).ravel()  # "0000", ..., "9999"
_TRAILING_ZEROS = sum(np.arange(10_000) % 10**j == 0 for j in range(1, 5)).astype(np.uint8)
_POW10 = 10 ** np.arange(18, dtype=np.uint64)
_EXP_OFFSET = 330  # decimal points from -330
_EXPONENTS = np.frombuffer(b"".join(f"e{point - 1:+03d}".encode().ljust(8, b"\0")
                                    for point in range(-_EXP_OFFSET, 320)), np.uint64)


def _text_patterns():
    """The pattern table, a row per shape (what follows, sign, form,
    significant digits), and each pattern's length."""
    digits = list(range(3, 20))
    bodies = np.full((_FORMS, 18, _TEXT_WIDTH), _SRC_NUL, np.uint8)
    lengths = np.zeros((_FORMS, 18), np.uint8)
    for form in range(_FORMS):
        point = form - 3
        for sig in range(1, 18):
            if form == _NAN_FORM:
                body = [_SRC_N, _SRC_A, _SRC_N]
            elif form == _INF_FORM:
                body = [_SRC_I, _SRC_N, _SRC_F]
            elif form == _EXP_FORM:  # the exponent's fifth byte is NUL for two digits
                body = digits[:1] + ([_SRC_DOT] + digits[1:sig] if sig > 1 else []) \
                    + list(range(_SRC_EXP, _SRC_EXP + 5))
            elif point <= 0:
                body = [_SRC_ZERO, _SRC_DOT] + [_SRC_ZERO] * -point + digits[:sig]
            else:
                body = digits[:point] + [_SRC_DOT] + (digits[point:sig] if point < sig
                                                      else [_SRC_ZERO])
            bodies[form, sig, :len(body)] = body
            lengths[form, sig] = len(body)
    signed = np.roll(bodies, 1, axis=2)
    signed[..., 0] = _SRC_MINUS
    signed[_NAN_FORM] = bodies[_NAN_FORM]  # nan has no sign
    signed_lengths = lengths + 1
    signed_lengths[_NAN_FORM] = lengths[_NAN_FORM]
    patterns = np.stack([np.stack([bodies, signed])] * 3)
    ends = np.stack([lengths, signed_lengths])
    np.put_along_axis(patterns[0], ends[..., None], _SRC_COMMA, axis=-1)
    np.put_along_axis(patterns[1], ends[..., None], _SRC_CR, axis=-1)
    np.put_along_axis(patterns[1], ends[..., None] + 1, _SRC_LF, axis=-1)
    return patterns.reshape(-1, _TEXT_WIDTH), np.stack([ends + 1, ends + 2, ends]).ravel()


_PATTERNS, _LENGTHS = _text_patterns()
_ROW_END = _PATTERNS.shape[0] // 3  # pattern offset of a value that ends a row
_CRLF = np.frombuffer(b"\r\n\0\0\0\0\0\0", np.uint8)


def float_rows(values, line_ends=True) -> np.ndarray:
    """The (rows, k) float64 ``values`` as a NUL-padded byte matrix of rows of
    whole 8-byte words: each value's ``repr`` text then "," or, for the last of
    a row, ``\\r\\n`` (nothing without ``line_ends``)."""
    rows, k = values.shape
    v = values.ravel()
    if v.size == 0:
        return np.tile(_CRLF if line_ends else _CRLF[:0], (rows, 1))
    a = np.abs(v)
    regular = (a > 0) & (a < np.inf)
    every = regular.all()
    d, k10 = _shortest_digits(a if every else np.where(regular, a, 1.0))
    # the digits left-aligned in 17 places, and the decimal point after ``point`` of them
    wide = d >= 10**16
    d17 = np.where(wide, d, d * 10)
    point = k10 + 16 + wide
    few = d < 10**15  # only subnormals have fewer than 16 digits
    if few.any():
        count = np.searchsorted(_POW10, d[few], side="right")
        d17[few] = d[few] * _POW10[17 - count]
        point[few] = k10[few] + count
    if not every:  # zero reads "0.0"; nan and inf have patterns of their own
        d17[~regular] = 0
        point[~regular] = 1
    hi = d17 // 10**8
    lo = (d17 - hi * 10**8).astype(np.uint32)
    hi = hi.astype(np.uint32)
    lead = hi // 10**8
    mid = hi - lead * 10**8
    mid_hi, lo_hi = mid // 10**4, lo // 10**4
    quads = [lead, mid_hi, mid - mid_hi * 10**4, lo_hi, lo - lo_hi * 10**4]
    src = np.empty((v.size, _SRC_WIDTH), np.uint8)
    words = src.view(np.uint32)
    for j, quad in enumerate(quads):
        words[:, j] = _QUADS.take(quad)
    words[:, 5:8] = _SRC_CONSTANTS
    zeros = _TRAILING_ZEROS.take(quads[4])
    more = quads[4] == 0
    for quad in quads[3:0:-1]:
        if not more.any():
            break
        zeros[more] += _TRAILING_ZEROS.take(quad[more])
        more &= quad == 0
    form = np.where((point < -3) | (point > 16), _EXP_FORM, point + 3)
    if (form == _EXP_FORM).any():
        src.view(np.uint64)[:, 4] = _EXPONENTS.take(point + _EXP_OFFSET)
    if not every:
        form[np.isinf(v)] = _INF_FORM
        form[np.isnan(v)] = _NAN_FORM
    shape = (np.signbit(v) * _FORMS + form) * 18 + (17 - zeros)
    shape.reshape(rows, k)[:, -1] += _ROW_END * (1 if line_ends else 2)
    width = -(-int(_LENGTHS.take(shape).max()) // 8) * 8
    text = np.empty((v.size, width), np.uint8)
    for start in range(0, v.size, _GATHER):
        part = shape[start:start + _GATHER]
        index = _PATTERNS[:, :width].take(part, axis=0)
        index = index + np.arange(start * _SRC_WIDTH, (start + part.size) * _SRC_WIDTH,
                                  _SRC_WIDTH)[:, None]
        # every index is in range: "wrap" changes none and is the faster mode
        src.ravel().take(index, out=text[start:start + part.size], mode="wrap")
    return text.reshape(rows, k * width)


def float_texts(values) -> list[str]:
    """Each value's shortest round-trip text, as ``repr`` writes it."""
    values = np.asarray(values, dtype=float).reshape(-1, 1)
    if not values.size:
        return []
    text = float_rows(values, line_ends=False)
    return [t.decode() for t in text.view(f"S{text.shape[1]}").ravel().tolist()]
