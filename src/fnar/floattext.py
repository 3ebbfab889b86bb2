"""Decimal text of float64 arrays, written and read a block of values at
once: written byte for byte as ``repr`` writes it, read bit for bit as
``float`` reads it.

Writing: Schubfach (Giulietti 2020, "The Schubfach way to render doubles")
finds the shortest decimal d * 10**k that reads back as a double, and of those
the closest, ties to even d: the digits of repr. It needs fixed-width integer
arithmetic only, so here it runs in numpy uint64 (``_shortest_digits``). A
table of text layouts, keyed by sign, decimal point and significant digits,
then turns the digits into repr's text (``float_rows``): fixed notation for a
decimal point at -3..16, else exponent notation with at least two exponent
digits, ``.0`` on integral values, and ``-0.0``, ``nan``, ``inf``, ``-inf``.

Reading (``decimal_values``): a field ``[-]digits[.digits][e[+-]digits]`` of a
byte block is read 8 digits a word (SWAR), into a significand w of at most 19
digits and a decimal exponent q. Eisel-Lemire (Lemire 2021, "Number parsing at
a gigabyte per second") settles each w * 10**q with one 64 x 128-bit product
by a truncated power of ten, in numpy uint64 with the writer's product of
32-bit halves. A field with more digits, a subnormal double or a product that
leaves the rounding open is read by ``float``.
"""

from __future__ import annotations

import re

import numpy as np

__all__ = ["float_rows", "decimal_ids", "decimal_values", "equal_bytes"]

_GATHER = 2048  # values whose text is gathered at once, which bounds the 8-byte indices

# A double is c * 2**q. Schubfach scales 4c and the bounds of its rounding
# interval by g(k) = floor(10**-k * 2**(125 - flog2pow10(-k))) + 1, a 126-bit
# power of ten held as g1 = g >> 63 and g0 = g mod 2**63 (and as their 32-bit
# halves). Java's extra steps for at least two digits are left out: repr
# writes 5e-324, not 4.9e-324.

_K_MIN, _K_MAX = -324, 292
# the reader's decimal exponents: outside them every significand below 10**19
# reads as 0 or infinity
_Q_MIN, _Q_MAX = -342, 308
_M32 = np.uint64(0xFFFF_FFFF)
_POW10 = 10 ** np.arange(20, dtype=np.uint64)  # every power of ten below 2**64


def _power_tables():
    """The writer's rows g1, g1 >> 32, g1 mod 2**32, g0, g0 >> 32, g0 mod 2**32
    of g(k), a column per k from _K_MIN; and the reader's rows h >> 32,
    h mod 2**32, h and l of the 128-bit power of ten h * 2**64 + l that
    Eisel-Lemire uses for 10**q, and its biased binary exponent (int64 bits),
    a column per q from _Q_MIN."""
    writer, reader = [], []
    for k in range(_Q_MIN, _Q_MAX + 1):
        if _K_MIN <= k <= _K_MAX:
            shift = 125 - ((-k * 913124641741) >> 38)
            num, den = (10**-k, 1) if k <= 0 else (1, 10**k)
            g = (num << shift if shift >= 0 else num >> -shift) // den + 1
            g1, g0 = g >> 63, g & (2**63 - 1)
            writer.append((g1, g1 >> 32, g1 & 0xFFFF_FFFF, g0, g0 >> 32, g0 & 0xFFFF_FFFF))
        # 5**k with its leading bit at bit 127, truncated; below 1, a reciprocal rounded up
        five = 5 ** abs(k)
        if k >= 0:
            power = five << max(128 - five.bit_length(), 0)
        else:
            bits = (five - 1).bit_length()
            power = (1 << (bits + 127 if k >= -27 else 2 * bits + 128)) // five + 1
        power >>= max(power.bit_length() - 128, 0)
        high = power >> 64
        # and Eisel-Lemire's power(k) + 1023, which a double's biased exponent starts from
        base = ((217706 * k) >> 16) + 1086
        reader.append((high >> 32, high & 0xFFFF_FFFF, high, power & (2**64 - 1),
                       base & (2**64 - 1)))
    return (np.array(writer, dtype=np.uint64).T.copy(),
            np.array(reader, dtype=np.uint64).T.copy())


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


_POWERS, _TENS = _power_tables()
_EXP_K, _EXP_IMPLICIT, _EXP_SHIFT, _EXP_LOW, _EXP_HIGH = _exponent_tables()
# whether t = s + 1 is nearer than s, by vb mod 8: ties to an even digit
_T_NEARER = np.array([0, 0, 0, 1, 0, 0, 1, 1], np.uint8)


def _product_high(ah, al, bh, bl):
    """The high word of the 128-bit product of two uint64 words given by their
    32-bit halves."""
    lh, hl = al * bh, ah * bl
    middle = (al * bl >> 32) + (lh & _M32) + (hl & _M32)
    return ah * bh + (lh >> 32) + (hl >> 32) + (middle >> 32)


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
    cph, cpl = cp >> 32, cp & _M32
    x1, y1 = _product_high(g0h, g0l, cph, cpl), _product_high(g1h, g1l, cph, cpl)
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
# follows it ("," before another value, or "\r\n" at the end of a table row),
# the sign, the form (decimal point at -3..16, or exponent form) and the
# significant digits; NUL (_SRC_NUL) pads it to _TEXT_WIDTH.
_SRC_WIDTH, _TEXT_WIDTH = 40, 32
_SRC_DOT, _SRC_ZERO, _SRC_MINUS, _SRC_COMMA, _SRC_NUL, _SRC_EXP = 20, 21, 22, 23, 30, 32
_SRC_N, _SRC_A, _SRC_I, _SRC_F, _SRC_CR, _SRC_LF = 24, 25, 26, 27, 28, 29
_SRC_CONSTANTS = np.frombuffer(b".0-,naif\r\n\0\0", np.uint32)
_EXP_FORM, _INF_FORM, _NAN_FORM, _FORMS = 20, 21, 22, 23
_QUADS = (np.arange(10_000, dtype=np.uint16)[:, None] // np.array([1000, 100, 10, 1], np.uint16)
          % 10 + 48).astype(np.uint8).view(np.uint32).ravel()  # "0000", ..., "9999"
_TRAILING_ZEROS = sum(np.arange(10_000) % 10**j == 0 for j in range(1, 5)).astype(np.uint8)
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
    patterns = np.stack([np.stack([bodies, signed])] * 2)
    ends = np.stack([lengths, signed_lengths])
    np.put_along_axis(patterns[0], ends[..., None], _SRC_COMMA, axis=-1)
    np.put_along_axis(patterns[1], ends[..., None], _SRC_CR, axis=-1)
    np.put_along_axis(patterns[1], ends[..., None] + 1, _SRC_LF, axis=-1)
    return patterns.reshape(-1, _TEXT_WIDTH), np.stack([ends + 1, ends + 2]).ravel()


_PATTERNS, _LENGTHS = _text_patterns()
_ROW_END = len(_PATTERNS) // 2  # pattern offset of a value that ends a row
_CRLF = np.frombuffer(b"\r\n\0\0\0\0\0\0", np.uint8)


def float_rows(values) -> np.ndarray:
    """The (rows, k) float64 ``values`` as a NUL-padded byte matrix of rows of
    whole 8-byte words: each value's ``repr`` text then "," or, for the last of
    a row, ``\\r\\n``."""
    rows, k = values.shape
    v = values.ravel()
    if v.size == 0:
        return np.tile(_CRLF, (rows, 1))
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
    shape.reshape(rows, k)[:, -1] += _ROW_END
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


# -- reading ----------------------------------------------------------------
# A field is read from a block of text bytes, zero-padded 32 bytes past its
# last line, through a stride-1 uint64 view: each word holds the 8 bytes from
# one offset, first byte lowest. A word xor "00000000" holds a digit's value
# in each digit byte; SWAR steps (Lemire 2021, "Number parsing at a gigabyte
# per second") find where the digits stop and turn 8 of them into a number.

_ZEROS = np.uint64(0x3030_3030_3030_3030)
_LOW7 = np.uint64(0x7F7F_7F7F_7F7F_7F7F)
_HIGH_BITS = np.uint64(0x8080_8080_8080_8080)
_ABOVE_NINE = np.uint64(0x7676_7676_7676_7676)  # a byte of 10 or more reaches 0x80
_DOTS = np.uint64(0x1E1E_1E1E_1E1E_1E1E)  # "........" xor "00000000"
_PAIRS = np.uint64(0x0000_00FF_0000_00FF)
_MUL1, _MUL2 = np.uint64(100 + (1_000_000 << 32)), np.uint64(1 + (10_000 << 32))
_FIELD = re.compile(rb"-?[0-9]+(?:\.[0-9]+)?(?:e[-+]?[0-9]+)?")


def _words(block) -> np.ndarray:
    """Every offset of ``block`` as the uint64 word of its next 8 bytes. Read it
    by fancy indexing: ``take`` would copy the strided view whole first."""
    return np.ndarray((block.size - 7,), np.uint64, block, 0, (1,))


def _non_digits(x):
    """0x80 in each byte of x, a word xor "00000000", that is not a digit."""
    return (((x & _LOW7) + _ABOVE_NINE) | x) & _HIGH_BITS


def _below_first(flags):
    """The mask of the whole bytes below the first flagged one (all if none),
    and its bit count."""
    low = (flags & -flags) >> 7  # 2**bits, or 0 for all 64
    # bits is the exponent of the exact double 2**bits; 0's wraps above 64
    bits = np.minimum((low.astype(np.float64).view(np.uint64) >> 52) - np.uint64(1023), 64)
    return low - np.uint64(1), bits


def _eight_digits(x, digits, bits):
    """The number the digits in the low bytes ``digits`` of x spell, first
    digit lowest, with x a word xor "00000000" and ``bits`` the bits of
    ``digits``."""
    v = (x & digits) << (np.uint8(64) - bits)
    v = v * np.uint64(10) + (v >> 8)
    return ((v & _PAIRS) * _MUL1 + ((v >> 16) & _PAIRS) * _MUL2) >> 32


def _digit_run(x, word_after, most):
    """The value (wrapping past 19 digits), the digit count and the value of
    the first word's digits, of the run of digits that starts each text whose
    first word xor "00000000" is ``x``; ``word_after(j)`` gives the j-th word
    after it, read only where some run fills the words before it, up to
    ``most`` words."""
    digits, bits = _below_first(_non_digits(x))
    lead = value = _eight_digits(x, digits, bits)
    for j in range(1, most):
        full = np.uint64(0) - (digits >> 63)
        if not full.any():
            break
        x = word_after(j)
        digits, part = _below_first(_non_digits(x))
        digits &= full
        part &= full
        value = value * _POW10.take(part >> 3) + _eight_digits(x, digits, part)
        bits += part
    return value, (bits >> 3).astype(np.int64), lead


def _fits(lead, count):
    """Whether ``count`` digits whose first 8 spell ``lead`` are below 10**19."""
    return lead < _POW10.take(np.minimum(np.maximum(27 - count, 0), 8))


def equal_bytes(block, at, texts):
    """Whether the bytes at each offset ``at`` of the padded ``block`` begin
    with the text in the same place of ``texts``, a uint8 array of texts
    NUL-padded on the right to at most 32 bytes, broadcast against ``at``
    along its leading axes; a text ends at its first NUL."""
    texts = texts.reshape(*texts.shape[:-1], -1, 8)
    masks = np.where(texts != 0, np.uint8(0xFF), np.uint8(0)).view(np.uint64)[..., 0]
    texts = texts.view(np.uint64)[..., 0]
    words = _words(block)
    differ = np.zeros(np.broadcast_shapes(at.shape, texts.shape[:-1]), np.uint64)
    for j in range(texts.shape[-1]):
        differ |= (words[at + 8 * j] ^ texts[..., j]) & masks[..., j]
    return differ == 0


def decimal_ids(block, at):
    """The value of the digits at each offset ``at`` of the padded ``block``,
    and the offset after them; None if some offset has none or more than 9."""
    words = _words(block)
    value, count, _ = _digit_run(words[at] ^ _ZEROS, lambda j: words[at + 8 * j] ^ _ZEROS, 2)
    if not np.all((count > 0) & (count <= 9)):
        return None
    return value.astype(np.int64), at + count


def decimal_values(block, at, stop):
    """The float64 value of the text ``[-]digits[.digits][e[+-]digits]`` at each
    offset ``at`` of the padded ``block``, as ``float`` reads it, and the offset
    of the "," or line end ``stop`` after it; None if some field up to the
    next "," or its ``stop`` is not such a text.

    Eisel-Lemire settles a value with at most 19 significant digits whose
    double is normal; a field it does not settle is read by ``float``."""
    words = _words(block)
    neg = block[at] == 45  # "-"
    p = at + neg
    w, fraction, end, ok = _significand(words, p, 2)
    ok &= block[p] - np.uint8(48) < 10  # a digit first
    q = -fraction
    scaled = np.flatnonzero(block[end] == 101)  # "e"
    if scaled.size:
        e = end[scaled] + 1
        sign = block[e]
        minus = sign == 45
        e += minus | (sign == 43)
        x = words[e] ^ _ZEROS
        digits, bits = _below_first(_non_digits(x))
        n = (bits >> 3).astype(np.int64)
        power = _eight_digits(x, digits, bits).astype(np.int64)
        q[scaled] += np.where(minus, -power, power)
        end[scaled] = e + n
        ok[scaled] &= (n > 0) & (n < 8)
    bits, unsettled = _binary64(w, q)
    del w
    ok[unsettled] = False
    bits |= neg.astype(np.uint64) << 63
    values = bits.view(np.float64)
    # a field the kernel did not settle, or that goes on, is read by float
    for i in np.flatnonzero(~ok | ((block[end] != 44) & (end != stop))).tolist():
        text = block[at[i]:stop[i]].tobytes().split(b",", 1)[0]
        if not _FIELD.fullmatch(text):
            return None
        values[i], end[i] = float(text), at[i] + len(text)
    return values, end


def _significand(words, p, levels):
    """The digits of the text ``digits[.digits]`` at each offset p, or of its
    part that starts there, as a significand (wrapping past 19 digits), the
    count of digits after the dot, the offset after the text, and whether the
    digits fit below 10**19 with one after any dot. Where the first 8 bytes
    are digits, the text goes on from p + 8, up to ``levels`` more times."""
    x = words[p] ^ _ZEROS
    whole, whole_bits = _below_first(_non_digits(x))
    # the first non-digit is ".": also where there is none, a text that goes on below
    dotted = ((x ^ _DOTS) & (whole + np.uint64(1)) * np.uint64(0xFF)) == 0
    # the digits with the dot taken out: those after it from one byte further on
    step = dotted.astype(np.int64)
    x ^= (words[p + 1] ^ _ZEROS ^ x) & ~whole & (np.uint64(0) - dotted.astype(np.uint64))
    w, count, lead = _digit_run(x, lambda j: words[p + 8 * j + step] ^ _ZEROS, 3)
    fraction = np.where(dotted, count - (whole_bits >> 3).astype(np.int64), 0)
    ok = _fits(lead, count) & (~dotted | (fraction > 0))
    end = p + count + step
    longer = np.flatnonzero(whole_bits == 64)  # any dot is further on
    if longer.size:
        if not levels:
            ok[longer] = False
        else:
            rest, rest_fraction, rest_end, rest_ok = _significand(words, p[longer] + 8, levels - 1)
            digits = rest_end - p[longer] - (rest_fraction > 0)
            lead = lead[longer]
            w[longer] = lead * _POW10.take(np.minimum(digits - 8, 19)) + rest
            fraction[longer], end[longer] = rest_fraction, rest_end
            ok[longer] = rest_ok & _fits(lead, digits)
    return w, fraction, end, ok


def _binary64(w, q):
    """The bits of the double nearest each w * 10**q (w below 10**19, ties to
    even), by Eisel-Lemire, and the indices it does not settle: where the
    double is subnormal, or the truncated product leaves the rounding open."""
    # w shifted so its top bit is set: its bit length from its double, which may round up
    lz = np.uint64(1086) - (w.astype(np.float64).view(np.uint64) >> 52)
    zero = w == 0
    w = w << lz
    fix = (w >> 63) ^ np.uint64(1)
    w <<= fix
    lz += fix
    del fix
    i = (q - _Q_MIN).view(np.uint64)
    far = i > _Q_MAX - _Q_MIN  # 0 or infinity
    i = np.minimum(i, _Q_MAX - _Q_MIN)
    wh, wl = w >> 32, w & _M32
    high = _product_high(wh, wl, _TENS[0].take(i), _TENS[1].take(i))
    low = w * _TENS[2].take(i)
    # the bits below the 55 kept may carry: add the high word of w times the low word
    near = np.flatnonzero((high & np.uint64(0x1FF)) == np.uint64(0x1FF))
    if near.size:
        t_low = _TENS[3].take(i[near])
        extra = _product_high(wh[near], wl[near], t_low >> 32, t_low & _M32)
        near_low = low[near] + extra
        high[near] += near_low < extra
        low[near] = near_low
    del wh, wl, w
    upper = high >> 63
    mantissa = high >> (upper + np.uint64(9))
    rare = np.flatnonzero(low + np.uint64(1) <= 2)  # low is 2**64 - 1, 0 or 1
    low, qr = low[rare], q[rare]
    # the product is exact at q in [-4, 23]: halfway between two doubles, it rounds to even
    m = mantissa[rare]
    tie = ((low <= 1) & (qr >= -4) & (qr <= 23) & ((m & np.uint64(3)) == 1)
           & ((m << (upper[rare] + np.uint64(9))) == high[rare]))
    mantissa[rare[tie]] -= np.uint64(1)
    open_ = rare[(low == np.uint64(2**64 - 1)) & ((qr < -27) | (qr > 55))]
    del high
    mantissa += mantissa & np.uint64(1)
    mantissa >>= 1
    upper += mantissa >> 53
    mantissa >>= mantissa >> 53
    power2 = _TENS[4].view(np.int64).take(i) - lz.view(np.int64) + upper.view(np.int64)
    del lz, upper, i
    bits = ((power2 - 1) << 52).view(np.uint64) + mantissa
    # 0, infinity and subnormals: exponents outside the normal ones, and a zero w at any q
    odd = np.flatnonzero(((power2 - 1).view(np.uint64) >= np.uint64(2046)) | far | zero)
    q, zero = q[odd], zero[odd] | (q[odd] < _Q_MIN)
    inf = ~zero & ((power2[odd] > 0) | (q > _Q_MAX))
    bits[odd[inf]] = np.uint64(0x7FF << 52)
    bits[odd[zero]] = 0
    return bits, np.concatenate((open_, odd[~(zero | inf)]))
