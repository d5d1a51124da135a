"""CSV text of float64 arrays: every value as ``repr(float(x))``, for a
whole block of values at once.

``repr`` prints the shortest decimal that reads back as the same double
and, of those, the one closest to it.  Giulietti's Schubfach algorithm
("The Schubfach way to render doubles", 2020) finds that decimal with
integer arithmetic alone, so it runs here on uint64 arrays:

1. digits: per value, three round-to-odd 64 x 128-bit products with a
   126-bit g(k) ~ 10**-k (one table row per decimal exponent k) give the
   rounding interval scaled by 10**-k; the shortest decimal inside it,
   and the closest of two, follow by comparisons;
2. text: the digits, the exponent and the fixed characters of a value
   go into one small byte row, and an index table keyed by digit count
   and layout (positional for decimal-point positions -3..16, else
   ``e±XX``/``e±XXX``, the switch ``repr`` makes) gathers the output
   bytes from it, one padded row of 25 bytes per value, its separator
   last; the zero pad bytes are dropped at the end.

A first column that several files share (``simulate``'s time) is made
once as padded rows by ``leading_column`` and spliced in front of each
block's rows by ``csv_blocks``, before the pad bytes are dropped.

A zero is formatted as ±1.0 with the lead digit 0.  Subnormals, inf
and nan are formatted by ``repr`` one at a time: on subnormals
Schubfach's one-digit-shorter step can pick a decimal other than
``repr``'s (7.9e-323 for 2**-1070, where ``repr`` prints 8e-323).

All limb arithmetic is uint64 on uint64, so numpy 1.x, which turns
uint64 mixed with int64 into float64, computes the same, and the bytes
are built as uint8, whatever the host's byte order.  The tables are
built on first use, not at import.

Memory: the kernel keeps its temporaries at or below 200 bytes per
value (about 130 for random doubles, 140 for a 0/1 table), so
``csv_blocks`` sizes its blocks by values.  The three products are made
one after another, in place, and each array is dropped after its last
use; the peak, 16 uint64 words a value, falls in the third product.
The gather index, 25 intp words a value, is built _GATHER_VALUES values
at a time.
"""

from __future__ import annotations

import functools

import numpy as np

_U = np.uint64
_ONE, _TWO, _TEN = _U(1), _U(2), _U(10)
_S32, _S52, _S63 = _U(32), _U(52), _U(63)
_M11, _M32, _M52, _M63 = (_U((1 << b) - 1) for b in (11, 32, 52, 63))
_HIDDEN = _U(1 << 52)
_ONE_BITS = _U(0x3FF0_0000_0000_0000)  # the bits of 1.0

# decimal exponents k of g(k) ~ 10**-k that normal doubles need
_K_MIN, _K_MAX = -324, 292
# decimal-point positions p (value = 0.DIGITS * 10**p) of normal doubles
# lie in [-307, 309]; tables keyed by p start at _P_MIN
_P_MIN, _P_MAX = -310, 310
# byte-row columns a value's text is gathered from
_SIGN, _DIG, _ESIGN, _EDIG, _DOT, _ZERO, _E, _SEP, _PAD = (
    0, 1, 18, 19, 22, 23, 24, 25, 26)
_WIDTH = 27
# output row: sign, 23 body bytes (padded), separator
_ROW = 25
# layouts: decimal-point positions -3..16 print positionally, others
# with a 2- or 3-digit exponent
_POSITIONAL = range(-3, 17)
_E2, _E3 = len(_POSITIONAL), len(_POSITIONAL) + 1
_LAYOUTS = _E3 + 1
# values per gather: its index, 25 intp words a value, stays 100 kB
_GATHER_VALUES = 512


def _flog10pow2(e):
    """floor(log10(2**e)) for |e| <= 5456721."""
    return (e * 661_971_961_083) >> 41


def _flog10_three_quarters_pow2(e):
    """floor(log10(3/4 * 2**e)) for |e| <= 5456721."""
    return (e * 661_971_961_083 - 274_743_187_321) >> 41


def _flog2pow10(e):
    """floor(log2(10**e)) for |e| <= 6432162."""
    return (e * 913_124_641_741) >> 38


def _body(ndig, layout):
    """Byte-row columns of a value's text after its sign."""
    digits = list(range(_DIG, _DIG + ndig))
    if layout >= _E2:
        mantissa = digits[:1] + ([_DOT] + digits[1:] if ndig > 1 else [])
        exponent = list(range(_EDIG + (layout == _E2), _EDIG + 3))
        return mantissa + [_E, _ESIGN] + exponent
    point = _POSITIONAL[layout]
    if point <= 0:
        return [_ZERO, _DOT] + [_ZERO] * -point + digits
    if point < ndig:
        return digits[:point] + [_DOT] + digits[point:]
    return digits + [_ZERO] * (point - ndig) + [_DOT, _ZERO]


def _words(texts):
    """4-byte ASCII strings as uint32 words; a word keeps its bytes in
    order through ``view``, whatever the host's byte order."""
    return np.frombuffer("".join(texts).encode(), dtype=np.uint32)


@functools.cache
def _tables():
    """Tables built on first use, read-only:

    - limbs: g(k) = floor(10**-k * 2**-r) + 1 for k in [_K_MIN, _K_MAX],
      r = floor(log2(10**-k)) - 125, so 2**125 <= g(k) < 2**126; as
      g = g1 * 2**63 + g0, the rows are the low and high 32-bit limbs of
      g1, then of g0.  Exact, from Python ints;
    - quads: the 4 ASCII digits of 0..9999 as uint32 words;
    - pow10: 10**0 .. 10**17;
    - lengths[j]: significant digits of a 17-digit string (1 leading
      digit, then four 4-digit groups) through group j, 0 for 0000;
    - exponents, layouts: per decimal-point position p, the text of the
      exponent p - 1 (sign, 3 digits) and the layout;
    - gather: byte-row columns for each digit count and layout.
    """
    g = []
    for k in range(_K_MIN, _K_MAX + 1):
        r = _flog2pow10(-k) - 125
        num, den = (10 ** -k, 1) if k <= 0 else (1, 10 ** k)
        num, den = (num << -r, den) if r < 0 else (num, den << r)
        g.append(num // den + 1)
    g1 = [x >> 63 for x in g]
    g0 = [x & ((1 << 63) - 1) for x in g]
    limbs = np.array([[x & 0xFFFF_FFFF for x in g1], [x >> 32 for x in g1],
                      [x & 0xFFFF_FFFF for x in g0], [x >> 32 for x in g0]],
                     dtype=_U)
    n = np.arange(10_000)
    trailing = sum((n % p == 0).astype(np.uint8) for p in (10, 100, 1000))
    lengths = [np.where(n > 0, 5 + 4 * j - trailing, 0) for j in range(4)]
    points = range(_P_MIN, _P_MAX + 1)
    layouts = [p - _POSITIONAL.start if p in _POSITIONAL
               else _E2 if abs(p - 1) < 100 else _E3 for p in points]
    gather = np.full((17 * _LAYOUTS, _ROW), _PAD, dtype=np.intp)
    gather[:, 0] = _SIGN
    gather[:, -1] = _SEP
    for ndig in range(1, 18):
        for layout in range(_LAYOUTS):
            body = _body(ndig, layout)
            gather[(ndig - 1) * _LAYOUTS + layout, 1:1 + len(body)] = body
    tables = (limbs, _words(f"{i:04d}" for i in range(10_000)),
              np.array([10 ** j for j in range(18)], dtype=_U),
              np.array(lengths, dtype=np.uint8),
              _words(f"{p - 1:+04d}" for p in points),
              np.array(layouts, dtype=np.intp), gather)
    for t in tables:
        t.flags.writeable = False
    return tables


def _mul128(a0, a1, b0, b1):
    """(high, low) 64-bit halves of a * b from the 32-bit limbs of a and b.

    With p_ij = a_i * b_j, mid = (p00 >> 32) + (p01 & M32) + p10 is at
    most (2**32 - 1) * (2**32 + 1), so it fits 64 bits; four arrays,
    no temporaries.
    """
    low = a0 * b0
    mid = low >> _S32
    low &= _M32
    cross = a0 * b1
    high = cross >> _S32
    cross &= _M32
    mid += cross
    np.multiply(a1, b0, out=cross)
    mid += cross
    np.multiply(a1, b1, out=cross)
    high += cross
    np.left_shift(mid, _S32, out=cross)
    low |= cross
    mid >>= _S32
    high += mid
    return high, low


def _rop(g, cp):
    """Round-to-odd of g * cp / 2**127, g given by its four limbs; cp is
    overwritten."""
    c0 = cp & _M32
    c1 = cp
    c1 >>= _S32
    x1 = _mul128(g[2], g[3], c0, c1)[0]
    y1, z = _mul128(g[0], g[1], c0, c1)
    del c0, c1
    # z = (y0 >> 1) + x1 < 2**64: g's low part g0 < 2**63
    z >>= _ONE
    z += x1
    np.right_shift(z, _S63, out=x1)
    y1 += x1
    del x1
    z &= _M63
    z += _M63
    z >>= _S63
    y1 |= z
    return y1


def _shortest(bits):
    """(f, k): the decimal f * 10**k that ``repr`` prints for each
    normal double with these bits, f an integer of at most 17 digits.

    Schubfach, on c * 2**q with c the 53-bit significand: with the
    interval of reals that round to it scaled by 10**-k, the candidates
    are 10 s' and 10 s' + 10 (one digit fewer, when exactly one lies in
    the interval), else s and s + 1 (whichever lies in it; if both, the
    closer, and of two as close, the even one).

    The three round-to-odd products are made one after another and
    every array is dropped after its last use, so the temporaries peak
    near 16 uint64 words per value, in the third product.
    """
    q = bits >> _S52
    q &= _M11
    q = q.view(np.int64)  # the biased exponent, < 2**11
    cb = bits & _M52
    # at a power of two the gap below is half the gap above
    irregular = cb == 0
    irregular &= q > 1
    q -= 1075
    k = np.where(irregular, _flog10_three_quarters_pow2(q), _flog10pow2(q))
    h = _flog2pow10(-k)
    h += q
    h += 2
    h = h.view(_U)
    del q
    cb |= _HIDDEN
    cb <<= _TWO
    g = _tables()[0].take(k - _K_MIN, axis=1)
    # the interval in units of 10**k / 4, closed where c is even: its
    # ends from cb - 2 (cb - 1 at a power of two) and cb + 2
    cp = cb - _TWO
    cp += irregular
    del irregular
    cp <<= h
    low = _rop(g, cp)
    np.left_shift(cb, h, out=cp)
    vb = _rop(g, cp)
    cb += _TWO
    cb <<= h
    high = _rop(g, cb)
    del g, h, cp, cb
    odd = bits & _ONE
    low += odd
    high -= odd
    del odd
    s = vb >> _TWO
    s10 = s // _TEN
    # x4: 4 times a candidate, compared with the interval ends
    x4 = s10 * _U(40)
    upin = low <= x4
    x4 += _U(40)
    wpin = x4 <= high
    np.left_shift(s, _TWO, out=x4)
    uin = low <= x4
    x4 += _U(4)
    win = x4 <= high
    del low, high
    # s + 1 where it is the one inside, or where both are and s + 1 is
    # closer to v than s, or as close and even; x4 - 2 is their midpoint
    x4 -= _TWO
    farther = vb == x4
    farther &= (s & _ONE) == _ONE
    farther |= vb > x4
    del vb, x4
    s += np.where(uin != win, win, farther)
    del uin, win, farther
    # the one-digit-shorter candidate, where exactly one lies inside
    s10 += wpin
    s10 *= _TEN
    s = np.where(upin != wpin, s10, s)
    return s, k


def _padded_rows(block):
    """The text of a 2-D float64 array as a (values, _ROW) uint8 array:
    per value, in row-major order, ``repr(float(x))`` and its separator
    (``,``, or ``\\n`` after a row's last value) in the last byte, with
    zero bytes where the text is shorter."""
    block = np.ascontiguousarray(block, dtype=np.float64)
    n, n_cols = block.size, block.shape[1]
    bits = block.view(_U).ravel()
    biased = (bits >> _S52) & _M11
    zero = (bits & _M63) == 0
    special = np.flatnonzero((biased == _M11) | ((biased == 0) & ~zero))
    zeros = np.flatnonzero(zero)
    del biased, zero
    if special.size or zeros.size:
        bits = bits.copy()
        bits[special] = _ONE_BITS  # replaced below
        bits[zeros] |= _ONE_BITS  # ±1.0, its digit set to 0 below
    _, quads, pow10, lengths, exponents, layouts, gather = _tables()
    f, k = _shortest(bits)
    # f left-aligned to 17 digits: 1 leading digit and four 4-digit groups
    digits = np.searchsorted(pow10, f, side="right")
    f *= pow10.take(17 - digits)
    # value = 0.DIGITS * 10**point
    point = k
    point += digits
    point -= _P_MIN
    del digits
    # group j is f // 10**p - 10**4 * (f // 10**(p + 4)), p = 12 - 4 j
    quotient = f // pow10[16]  # the leading digit
    lead = quotient.astype(np.uint8)
    group = np.empty(n, dtype=_U)
    words = np.empty((n, 4), dtype=np.uint32)
    ndig = np.ones(n, dtype=np.uint8)
    for j, p in enumerate((12, 8, 4, 0)):
        quotient *= pow10[4]
        np.floor_divide(f, pow10[p], out=group)
        group -= quotient
        quads.take(group.view(np.int64), out=words[:, j])
        np.maximum(ndig, lengths[j].take(group.view(np.int64)), out=ndig)
        quotient += group  # f // 10**p
    del f, quotient, group

    src = np.empty((n, _WIDTH), dtype=np.uint8)
    src[:, _SIGN] = np.where(bits >> _S63, ord("-"), 0)
    src[:, _DIG] = lead
    src[:, _DIG] += ord("0")
    src[zeros, _DIG] = ord("0")
    del lead
    src[:, _DIG + 1:_ESIGN] = words.view(np.uint8)
    del words
    src[:, _ESIGN:_DOT] = exponents.take(point).view(np.uint8).reshape(n, 4)
    src[:, _DOT:_PAD] = np.frombuffer(b".0e,", dtype=np.uint8)
    src[n_cols - 1::n_cols, _SEP] = ord("\n")
    src[:, _PAD] = 0

    key = (ndig.astype(np.intp) - 1) * _LAYOUTS + layouts.take(point)
    del ndig, point
    # gathered _GATHER_VALUES values at a time: the index of all n
    # would be 25 intp words per value
    flat = src.reshape(-1)
    out = np.empty((n, _ROW), dtype=np.uint8)
    for start in range(0, n, _GATHER_VALUES):
        stop = min(start + _GATHER_VALUES, n)
        index = gather.take(key[start:stop], axis=0)
        index += np.arange(start * _WIDTH, stop * _WIDTH, _WIDTH)[:, None]
        # every index is in range; with mode "raise" take would buffer out
        flat.take(index, out=out[start:stop], mode="clip")
    del key
    if special.size:
        # appended one by one: a join would hold a bytes object a value
        texts = bytearray()
        for x in block.ravel()[special].tolist():
            texts += repr(x).encode().ljust(_ROW - 1, b"\0")
        out[special, :-1] = np.frombuffer(texts, dtype=np.uint8).reshape(
            special.size, _ROW - 1)
        out[special, -1] = src[special, _SEP]
    del src, flat
    return out


# values per kernel call of csv_blocks and leading_column.  Each call
# costs about 0.27 ms besides its values (some 280 numpy operations,
# whatever the block's size), and its temporaries stay below 200 bytes
# per value (130-140 in practice): 9216 values, 1843 rows of the 5
# columns a trajectory file formats beside its spliced time column or
# 1024 of a 9-column truth table, take at most 1.8 MB at once in a few
# calls per file; blocks of rows would give a wide file more.
BLOCK_VALUES = 9216


def leading_column(values):
    """The text of a first column that more columns follow, for the
    ``lead`` of csv_blocks: per value ``repr(float(x))`` then ``,``, as
    padded rows of 25 bytes.  Made once, it is spliced into every file
    that starts with the same column."""
    values = np.asarray(values, dtype=float).reshape(-1, 1)
    padded = np.empty((len(values), _ROW), dtype=np.uint8)
    for start in range(0, len(values), BLOCK_VALUES):
        stop = start + BLOCK_VALUES
        padded[start:stop] = _padded_rows(values[start:stop])
    padded[:, -1] = ord(",")
    return padded


def csv_blocks(header, rows, lead=None):
    """The CSV text in pieces: the header line, then blocks of about
    BLOCK_VALUES values, each value written as repr(float(x)).

    With ``lead``, the ``leading_column`` of the first column, ``rows``
    holds the columns after it (at least one), and each block's text
    starts its rows with the lead's.
    """
    yield ",".join(header) + "\n"
    rows = np.asarray(rows, dtype=float)
    step = max(1, BLOCK_VALUES // max(1, rows.shape[-1]))
    for start in range(0, len(rows), step):
        block = rows[start:start + step]
        padded = _padded_rows(block)
        if lead is not None:
            padded = np.concatenate(
                [lead[start:start + step], padded.reshape(len(block), -1)],
                axis=1)
        yield str(padded[padded != 0].data, "ascii")
