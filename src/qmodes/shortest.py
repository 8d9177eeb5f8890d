"""Exact ``repr`` text of float64 tables, formatted in numpy blocks.

``repr(float)`` writes the shortest decimal that reads back as the same
float, the nearest to it among the shortest, with a correctly rounded
conversion that costs about a microsecond a value.  With the value scaled
to 17 digits in double-double arithmetic, the shortest digits follow from
a few integer operations on the ends of its rounding interval (as in
Ryu, Adams 2018), so a block of values costs a few dozen array operations.
The rare value whose digits the arithmetic cannot settle goes to Python.
"""

from __future__ import annotations

import math

import numpy as np

from .g12 import _EXP_TEXT, _QUAD_ZEROS, _QUADS

__all__ = ["repr_rows"]

# |x| in [1e-289, 1e290) is scaled by 10^k, k = 16 - e10; with log10 one
# off, e10 runs over -/+290, where 10^k, its split and the products stay
# normal and finite
_E10_MAX = 290
_K_MIN = 16 - _E10_MAX
_K_COUNT = 2 * _E10_MAX + 1
# every character a value's text can hold, in order; repr keeps a subset
_TEMPLATE = np.frombuffer(b"-0.000" + b"0" * 17 + b"." + b"0" * 17 + b"e+000", np.uint8)
_INT, _FRAC, _EXP = 6, 24, 41
_SLOTS = _TEMPLATE.size
_FORMS, _DIGITS = 22, 18


def _pow10_pair(k: int):
    """10^k as hi + lo, within 2^-105 relative, from Python integers."""
    if k >= 0:
        n = 10**k
        hi = float(n)
        return hi, float(n - int(hi))
    n = 10**-k
    shift = n.bit_length() + 127
    q = (1 << shift) // n
    hi = float(q)
    return math.ldexp(hi, -shift), math.ldexp(float(q - int(hi)), -shift)


def _split(a):
    """Dekker's split of a into two halves of 26 significant bits each."""
    t = a * 134217729.0
    head = t - (t - a)
    return head, a - head


def _split_scaled(a):
    """:func:`_split` of values up to the float64 maximum, scaled so that none overflows."""
    return [np.ldexp(half, 64) for half in _split(np.ldexp(a, -64))]


def _two_product(a, b_head, b_tail):
    """a * b as p + e exactly (Dekker), b given by its split."""
    p = a * (b_head + b_tail)
    a_head, a_tail = _split(a)
    e = ((a_head * b_head - p) + a_head * b_tail + a_tail * b_head) + a_tail * b_tail
    return p, e


def _pow10_table():
    """10^k for k = _K_MIN .. _K_MIN + _K_COUNT - 1 as (hi, lo) arrays.

    10^(32 i + j) is the double-double product of the exact pairs of
    10^(_K_MIN + 32 i) and 10^j, so only 51 integer powers are converted.
    """
    coarse = np.array([_pow10_pair(_K_MIN + 32 * i) for i in range(-(-_K_COUNT // 32))]).T
    fine = np.array([_pow10_pair(j) for j in range(32)]).T
    # copies, not index arithmetic, which would page in numpy code no other import uses
    c_hi, c_lo = np.repeat(coarse, 32, axis=1)[:, :_K_COUNT]
    f_hi, f_lo = np.tile(fine, coarse.shape[1])[:, :_K_COUNT]
    p, e = _two_product(f_hi, *_split_scaled(c_hi))
    e += c_hi * f_lo + c_lo * f_hi
    hi = p + e
    return (hi, e - (hi - p)), _split_scaled(hi)


(_HI, _LO), (_HI_HEAD, _HI_TAIL) = _pow10_table()


def _keep_table() -> np.ndarray:
    """The template slots repr writes, one row per (sign, form, digits).

    Forms 0..19 are fixed notation with the point after decpt = form - 3
    digits, forms 20 and 21 exponential with a two- and a three-digit
    exponent; digits is the count of significant digits.  Built by slice
    assignment, as numpy arithmetic here would page in code that a run
    writing no JSON table never uses.
    """
    # stair[nd, p]: digit p is one of the first nd
    stair = b"".join(b"\1" * nd + b"\0" * (17 - nd) for nd in range(_DIGITS))
    stair = np.frombuffer(stair, bool).reshape(_DIGITS, 17)
    keep = np.zeros((2, _FORMS, _DIGITS, _SLOTS), bool)
    for form, row in enumerate(keep[0]):
        decpt = form - 3 if form < 20 else 1
        if decpt <= 0:
            row[:, 1 : 3 - decpt] = True  # 0.000
        else:
            row[:, _INT : _INT + decpt] = True
            row[:, _FRAC - 1] = True  # the point
        row[:, _FRAC + max(decpt, 0) : _FRAC + 17] = stair[:, max(decpt, 0) :]
        if form >= 20:
            row[:2, _FRAC - 1] = False  # no point after a single digit
            row[:, _EXP:] = np.frombuffer(bytes([1, 1, form == 21, 1, 1]), bool)
        elif decpt > 0:
            row[:, _FRAC + decpt] = True  # an integer keeps one 0 after its point
    keep[1] = keep[0]
    keep[1, ..., 0] = True
    return keep.reshape(-1, _SLOTS)


_KEEP = _keep_table()
# _KEEP's first row for each decimal exponent -324..308 (positive values)
_FORM_ROWS = np.array(
    [21 * _DIGITS] * 225 + [20 * _DIGITS] * 95 + list(range(0, 20 * _DIGITS, _DIGITS))
    + [20 * _DIGITS] * 84 + [21 * _DIGITS] * 209
)
# _ND[10000 q + v]: the significant digits of D when v is the q-th of the
# four-digit groups after its leading digit and the later ones are 0, that
# is 4 q + 5 less the trailing zeros of v; 0 for v = 0
_ND_OFFSETS = np.arange(0, 40000, 10000)
_ND = np.frombuffer(
    b"".join(
        _QUAD_ZEROS.tobytes().translate(bytes([q, q - 1, q - 2, q - 3, 0]).ljust(256, b"\0"))
        for q in range(5, 21, 4)
    ),
    np.uint8,
)


def _shortest(x: np.ndarray):
    """Shortest round-trip digits of x as (lead, rest, e10, unsure): the
    17 digits D = lead 10^16 + rest, trailing zeros included, of
    |x| = D 10^(e10 - 16).

    With e10 = floor(log10|x|) and k = 16 - e10, X = |x| 10^k is formed as
    a double-double from the table pair of 10^k, and the half-ulp
    W = 2^(E - 54) 10^k = X 2^-54 / f from x = f 2^E, f in [1/2, 1).  In
    units of the 17th digit X, W and the interval ends X -/+ W are within
    1e-13 of their exact values, and X in [10^16, 10^17) puts W in
    (0.55, 11.2).  The shortest digits are the multiple of the largest power
    10^r inside [X - W, X + W] nearest X: the one multiple of 100 if there
    is one (the interval is narrower than 23), else the nearest multiple of
    10 or of 1, which the interval holds because it is centred on X.  Ties
    round to even, as in repr.

    A value is ``unsure`` when an interval end lies within 1e-9 of an
    integer or X within 1e-9 of the midpoint between two candidates, when
    |x| is a power of two (the interval below it is half as wide) and D is
    no multiple of 100, when log10 misjudged e10 so that D has 16 or 18
    digits, or when |x| is outside [1e-289, 1e290): zero, non-finite,
    subnormal or too large for the split.  Zeros are formatted here
    (D = 0, e10 = 0) and are not unsure.  Every test is a float comparison
    or ``np.where``, which a run uses anyway: each further kind of numpy
    loop pages in about 64 kB of numpy's code on its first call.
    """
    a = np.abs(x)
    fast = np.where(a >= 1e-289, a < 1e290, False)
    a = np.where(fast, a, 1.0)
    e10 = np.floor(np.log10(a)).astype(np.int64)
    row = 16 - _K_MIN - e10
    p, e = _two_product(a, _HI_HEAD[row], _HI_TAIL[row])
    e += a * _LO[row]
    # X = base + rel with base a multiple of 100 (p is an integer once X >= 2^53)
    xi = p.astype(np.int64)
    base = xi - xi % 100
    rel = (xi - base) + e
    f = np.frexp(a)[0]
    w = p / f * 2.0**-54
    high = rel + w
    low = rel - np.where(f == 0.5, 0.5 * w, w)
    step = np.where(np.floor(high * 0.01) * 100 >= low, 100.0, 10.0)
    step[np.floor(high * 0.1) * 10 < low] = 1.0
    q = rel / step
    near = np.rint(q)
    d = base + (near * step).astype(np.int64)
    margin = np.minimum(np.abs(high - np.rint(high)), np.abs(low - np.rint(low)))
    margin = np.minimum(margin, np.abs(np.abs(q - near) - 0.5) * step)
    margin = np.where(f == 0.5, np.where(step < 100, -1.0, margin), margin)
    margin = np.where(fast, margin, -1.0)
    # D has 17 digits unless log10 misjudged e10 near a power of ten
    lead, rest = np.divmod(d, 10**16)
    margin = np.where(np.abs(lead.astype(np.float64) - 5) > 4, -1.0, margin)
    zero = x == 0
    return np.where(zero, 0, lead), rest, e10, np.where(zero, 1.0, margin) < 1e-9


def repr_rows(block: np.ndarray, seps: list[bytes]) -> bytes:
    """Each value of a 2-D float64 ``block`` as ``repr`` writes it, row by
    row, followed by the separator ``seps[c]`` of its column c.

    Each value fills a copy of ``_TEMPLATE`` with its 17 digits and
    exponent, and ``_KEEP`` picks the characters repr writes: fixed
    notation for -4 <= e10 < 16 with at least one digit after the point,
    else exponential with at least two exponent digits.  Values
    :func:`_shortest` is unsure of, non-finite ones included, are
    formatted by Python.
    """
    rows, cols = block.shape
    x = block.ravel()
    n = x.size
    lead, rest, e10, unsure = _shortest(x)
    quads = np.empty((n, 5), np.int64)
    quads[:, 0] = lead
    quads[:, 1], rest = np.divmod(rest, 10**12)
    quads[:, 2], rest = np.divmod(rest, 10**8)
    quads[:, 3], quads[:, 4] = np.divmod(rest, 10**4)
    # the digits of D end in the last of its four-digit groups that is not 0
    group = _ND[quads[:, 1:] + _ND_OFFSETS].astype(np.float64)
    nd = np.maximum(np.maximum(group[:, 0], group[:, 1]), np.maximum(group[:, 2], group[:, 3]))
    nd = np.maximum(nd, 1.0).astype(np.int64)
    size = max(map(len, seps))
    padded = b"".join(s.ljust(size, b"\0") for s in seps)
    width = _SLOTS + size
    out = np.empty((rows, cols, width), np.uint8)
    out[..., :_SLOTS] = _TEMPLATE
    out[..., _SLOTS:] = np.frombuffer(padded, np.uint8).reshape(cols, size)
    out = out.reshape(n, width)
    digits = _QUADS[quads].view(np.uint8)[:, 3:]
    out[:, _INT : _INT + 17] = digits
    out[:, _FRAC : _FRAC + 17] = digits
    out[:, _EXP + 1 : _SLOTS] = _EXP_TEXT[e10 + 324].view(np.uint8).reshape(n, 4)
    keep = np.empty((rows, cols, width), bool)
    kept = b"".join(b"\1" * len(s) + b"\0" * (size - len(s)) for s in seps)
    keep[..., _SLOTS:] = np.frombuffer(kept, bool).reshape(cols, size)
    keep = keep.reshape(n, width)
    row = _FORM_ROWS[e10 + 324] + np.where(np.signbit(x), _FORMS * _DIGITS, 0) + nd
    keep[:, :_SLOTS] = _KEEP[row]
    where = np.flatnonzero(unsure)
    if where.size:
        text = [repr(v).encode("ascii") for v in x[where].tolist()]
        padded = b"".join(t.ljust(_SLOTS, b"\0") for t in text)
        mask = b"".join(b"\1" * len(t) + b"\0" * (_SLOTS - len(t)) for t in text)
        out[where, :_SLOTS] = np.frombuffer(padded, np.uint8).reshape(-1, _SLOTS)
        keep[where, :_SLOTS] = np.frombuffer(mask, bool).reshape(-1, _SLOTS)
    return out[keep].tobytes()
