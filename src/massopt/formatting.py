"""The one CSV layer: tables of floats written as ``%.17g`` prints them, and read back.

Every table body the program writes goes through :func:`write_rows`, and
every one it reads through :func:`read_rows`.  :func:`write_rows` formats
with numpy, a block of values at a time, instead of formatting each number
in Python.  Each number gets its 17 significant digits and its decimal
exponent ``X``, laid out in one fixed 48-byte slot of six little-endian
words

    '-' '0' '.' '0' '0' '0' d0 '.' | d1 '.' .. d4 '.' | .. | d13 '.' .. d16 '.' | 'e' s x x x sep

and one row of a mask table, picked by (sign, form, significant digits),
keeps the bytes that ``%.17g`` prints: the fixed form for -4 <= X < 17 (a
leading "0." and zeros when X < 0, the point after digit X), else the
exponent form with 2 or 3 exponent digits, trailing zeros dropped.  No
``longdouble`` is used, so the bytes are the same on every platform.
"""

import functools
import warnings

import numpy as np

FMT = "%.17g"  # reads back to the same double; write_rows writes the same bytes
_BLOCK_VALUES = 2048  # values formatted per numpy pass; bounds the temporaries
_POW10 = np.array([float(10 ** j) for j in range(23)])  # exact for j <= 22
_EXP_OFF = 400  # decimal exponents of doubles lie in [-324, 308]
_NEG = 23 * 17  # mask rows of a negative number follow those of a positive one


def _split(a):
    """Veltkamp's split ``a == hi + lo`` into halves of at most 26 bits."""
    c = 134217729.0 * a  # 2**27 + 1
    hi = c - (c - a)
    return hi, a - hi


_POW10_HI, _POW10_LO = _split(_POW10)


def _word(text):
    return int.from_bytes(text, "little")


def _words(*byte_columns):
    """Little-endian uint64 words whose bytes are the given ASCII columns."""
    table = np.zeros((max(np.size(col) for col in byte_columns), 8), dtype=np.uint8)
    for i, col in enumerate(byte_columns):
        table[:, i] = col
    return table.view("<u8").ravel()


@functools.cache
def _tables():
    """Lookup tables, built on first use.

    ``quads[j]``: the four digits of ``j`` with a point after each;
    ``trailing[j]``: their trailing zeros; ``exps[X + _EXP_OFF]``: the
    exponent word; ``forms[X + _EXP_OFF]``: ``17 * form`` of a number of
    exponent ``X``; ``masks[sign * _NEG + 17 * form + nd - 1]``: the bytes
    kept of a slot, for forms ``X + 4`` (fixed) and 21, 22 (exponent of 2
    and 3 digits), with ``nd`` significant digits.
    """
    j = np.arange(10000, dtype=np.int16)
    digits = [ord("0") + j // 10 ** (3 - i) % 10 for i in range(4)]
    dot = ord(".")
    quads = _words(digits[0], dot, digits[1], dot, digits[2], dot, digits[3], dot)
    trailing = np.zeros(10000, dtype=np.uint8)
    for i in range(1, 5):
        trailing += j % 10 ** i == 0
    x = np.arange(-_EXP_OFF, _EXP_OFF)
    ax = np.abs(x)
    exps = _words(ord("e"), np.where(x < 0, ord("-"), ord("+")),
                  ord("0") + ax // 100, ord("0") + ax // 10 % 10, ord("0") + ax % 10)
    forms = np.where((x >= -4) & (x <= 16), x + 4, np.where(ax < 100, 21, 22)) * 17
    sign, form, nd = np.ix_(np.arange(2), np.arange(23), np.arange(1, 18))
    fixed = form <= 20
    X = np.where(fixed, form - 4, 0)
    small = fixed & (X < 0)
    last = np.where(fixed, np.maximum(nd - 1, X), nd - 1)
    masks = np.zeros((2, 23, 17, 48), dtype=bool)
    masks[..., 0] = sign == 1
    masks[..., 1] = masks[..., 2] = small
    for i in range(3):
        masks[..., 3 + i] = small & (i < -X - 1)
    for i in range(17):
        masks[..., 6 + 2 * i] = i <= last
        masks[..., 7 + 2 * i] = ~small & (i == X) & (nd - 1 > i)
    masks[..., 40] = masks[..., 41] = masks[..., 43] = masks[..., 44] = ~fixed
    masks[..., 42] = form == 22
    masks[..., 45] = True
    return quads, trailing, exps, forms, masks.reshape(-1, 48)


def _times_pow10(a, j):
    """``p + e == a * 10**j`` exactly, by Dekker's two-product (Numer. Math. 18, 1971)."""
    p = a * _POW10[j]
    ah, al = _split(a)
    bh, bl = _POW10_HI[j], _POW10_LO[j]
    return p, al * bl - (((p - ah * bh) - al * bh) - ah * bl)


def _in_decade(p, e):
    # 1e16 <= p + e < 1e17 exactly: near either end ``p - 10**m`` is exact
    # (Sterbenz), and far from it ``e`` cannot flip the sign
    return ((p - 1e16) + e >= 0.0) & ((p - 1e17) + e < 0.0)


def _format(x, seps):
    """``"%.17g" % v + sep`` for each ``v`` of the flattened rows ``x``, as one string.

    ``seps`` holds each column's separator byte, shifted into the slot's
    last word.  The 17 digits of ``10**k <= |v| < 10**(k+1)`` are
    ``D = round_half_even(|v| 10**(16-k))``, exact while ``10**(16-k)`` is
    (``1e-6 <= |v| < 1e17``): the product is ``p + e`` with ``p`` an even
    integer, so ``D = p + rint(e)``.  Other finite values, and those where
    ``floor(log10|v|)`` misses ``k``, take their digits from Python's
    ``"%.16e"``.
    """
    quads, trailing_zeros, exps, forms, masks = _tables()
    a = np.abs(x)
    tame = (a > 1e-300) & (a < 1e300)  # finite, nonzero, and no overflow in the split
    if not tame.all():
        a = np.where(tame, a, 1.0)
    kf = np.floor(np.log10(a))
    np.minimum(kf, 16.0, out=kf)
    np.maximum(kf, -6.0, out=kf)
    k = kf.astype(np.int64)
    p, e = _times_pow10(a, 16 - k)
    # not ok: outside the exact range, or log10 one off next to a power of ten
    ok = _in_decade(p, e)
    ok &= tame
    inexact = np.flatnonzero(~ok)
    p[inexact] = e[inexact] = 0.0
    k[inexact] = 0  # zeros print as "0": D = 0, one digit, fixed form
    # D < 10**17: no double in the range lies within 5e-18 (relative) below
    # a power of ten, so the rounding never carries into an 18th digit
    D = p.astype(np.int64)
    D += np.rint(e).astype(np.int64)  # ties to even, as p is even
    # zeros print from D = 0, and nan and inf from the special words below
    for i in inexact[np.isfinite(x[inexact]) & (x[inexact] != 0.0)]:
        text = "%.16e" % abs(float(x[i]))
        D[i] = int(text[0] + text[2:18])
        k[i] = int(text[19:])
    hi = D // 10 ** 8
    lo = D - hi * 10 ** 8
    head = hi // 10 ** 8
    hi -= head * 10 ** 8
    groups = np.empty((x.size, 4), dtype=np.int64)
    groups[:, 0] = hi // 10 ** 4
    groups[:, 1] = hi - groups[:, 0] * 10 ** 4
    groups[:, 2] = lo // 10 ** 4
    groups[:, 3] = lo - groups[:, 2] * 10 ** 4
    words = np.empty((x.size, 6), dtype="<u8")
    words[:, 0] = _word(b"-0.0000.") + (head.astype("<u8") << np.uint64(48))
    words[:, 1:5] = quads[groups]
    k += _EXP_OFF
    words[:, 5] = exps[k]
    words.reshape(-1, seps.size, 6)[:, :, 5] |= seps
    zeros = trailing_zeros[groups]
    trailing = zeros[:, 3]
    for g in (2, 1, 0):
        trailing += np.where(trailing == 4 * (3 - g), zeros[:, g], 0)
    rows = forms[k]
    rows += 16 - trailing
    rows += np.signbit(x) * _NEG
    special = np.flatnonzero(~np.isfinite(x)) if not tame.all() else ()
    if len(special):  # "nan" and "[-]inf" as three digits of X = 2
        nan = np.isnan(x[special])
        words[special, 0] = np.where(nan, _word(b"-0.000n"), _word(b"-0.000i"))
        words[special, 1] = np.where(nan, _word(b"a.n"), _word(b"n.f"))
        rows[special] = forms[2 + _EXP_OFF] + 2 + (x[special] == -np.inf) * _NEG
    keep = np.take(masks, rows, axis=0)
    return np.compress(keep.ravel(), words.view(np.uint8).ravel()).tobytes().decode("ascii")


def write_rows(fh, table):
    """One line per row of the 2-d float array ``table``, each number as ``%.17g``.

    The bytes are those of ``",".join(["%.17g"] * ncols) + "\\n"`` applied to
    every row (an integer prints as ``%d``), formatted by numpy in blocks of
    whole rows, about :data:`_BLOCK_VALUES` values each.
    """
    table = np.asarray(table, dtype=float)
    seps = np.full(table.shape[1], ord(","), dtype="<u8")
    seps[-1] = ord("\n")
    seps <<= np.uint64(40)
    step = _BLOCK_VALUES // table.shape[1]
    for start in range(0, table.shape[0], step):
        fh.write(_format(table[start:start + step].ravel(), seps))


def read_rows(fh, **kw):
    """``np.loadtxt(..., **kw)`` of the CSV lines of the text file ``fh``.

    Each line is stripped of surrounding whitespace and skipped when empty,
    and ``#`` starts a comment.  Every number :func:`write_rows` writes reads
    back to the same float; an empty table reads as an empty array, without
    numpy's warning.
    """
    lines = list(filter(None, map(str.strip, fh.read().split("\n"))))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        return np.loadtxt(lines, delimiter=",", **kw)
