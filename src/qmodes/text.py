"""Exact ``%.12g`` and ``repr`` text of float64 tables, formatted in numpy blocks.

Python formats each float with a correctly rounded binary-to-decimal
conversion, several hundred nanoseconds to a microsecond a value.  Here
each |x| is scaled to 17 digits in double-double arithmetic (Dekker 1971),
X = |x| 10^(16 - e10) with e10 = floor(log10|x|), and in units of the 17th
digit X is within 1e-13 of its exact value.  Two digit rules read X:

- ``csv``, ``%.12g``: the 12 digits D = X / 10^5 rounded to the nearest
  integer;
- ``json``, ``repr``, the token ``json.dumps`` writes: the shortest digits
  that read back as x, from the ends of its rounding interval (as in Ryu,
  Adams 2018).

A value is unsure when X lies within 1e-9 of a threshold of its rule, when
log10 misjudged e10 so that D has too few or too many digits, or when |x|
is outside [1e-289, 1e290), where the scaling would leave the normal range
(non-finite values among them); zero is formatted here.  Unsure values go to Python, as
``"%.12g" % v`` or ``json.dumps(v)``, which spells ``NaN`` and ``Infinity``
as ``json.dump`` does.  So a block of values costs a few dozen array
operations, and the text is byte-equal to Python's for every float64.
"""

from __future__ import annotations

import json
import math

import numpy as np

__all__ = ["format_rows"]

# |x| in [1e-289, 1e290) is scaled by 10^k, k = 16 - e10; with log10 one
# off, e10 runs over -/+290, where 10^k, its split and the products stay
# normal and finite
_E10_MAX = 290
_K_MIN = 16 - _E10_MAX
_K_COUNT = 2 * _E10_MAX + 1
# X within this of a rounding threshold, in units of its 17th digit, is unsure
_MARGIN = 1e-9


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
    """10^k for k = _K_MIN .. _K_MIN + _K_COUNT - 1 as hi + lo: the arrays
    lo and the split of hi.

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
    return e - (hi - p), *_split_scaled(hi)


_LO, _HI_HEAD, _HI_TAIL = _pow10_table()
# the text tables are built from bytes and slices: numpy arithmetic at import
# would page in code that a run never uses
_PAIRS = [b"%02d" % i for i in range(100)]
# the four ASCII digits of 0..9999, one uint32 each (hi + hi.join(pairs) is hi 00 hi 01 ... hi 99)
_QUADS = np.frombuffer(b"".join(hi + hi.join(_PAIRS) for hi in _PAIRS), np.uint32)
# trailing zeros of 0..9999 (4 for 0), from those of 0..99 (2 for 0)
_PAIR_ZEROS = bytes([2] + [1 - bool(i % 10) for i in range(1, 100)])
_QUAD_ZEROS = np.frombuffer(b"".join(bytes([2 + z]) + _PAIR_ZEROS[1:] for z in _PAIR_ZEROS), np.uint8)
# exponent sign and three digits for e10 = -324..308, one uint32 each
_EXP_TEXT = np.frombuffer(b"".join(b"%+04d" % x for x in range(-324, 309)), np.uint32)


def _round12(a, p, e, e10):
    """``%.12g``'s digits D of |x| = D 10^(e10 - 11), with the distance of X
    from its rounding threshold.

    X = p + e with p an integer (X >= 10^16 > 2^53); with r = (p mod 10^5)
    + e, D = floor(p / 10^5) + [r > 50000] for r in (-8, 10^5 + 8), and
    D = 10^12 folds to 10^11 with e10 + 1.
    """
    top, low = np.divmod(p.astype(np.int64), 100000)
    r = low + e
    d = top + (r > 50000.0)
    carry = d.astype(np.float64) == 1e12
    return np.where(carry, 10**11, d), e10 + carry, np.abs(r - 50000.0)


def _shortest(a, p, e, e10):
    """repr's digits D of |x| = D 10^(e10 - 16), 17 digits with trailing
    zeros, with the distance of X from the nearest of its thresholds.

    The half-ulp W = 2^(E - 54) 10^k = X 2^-54 / f from |x| = f 2^E, f in
    [1/2, 1), is within 1e-13 like X, and X in [10^16, 10^17) puts W in
    (0.55, 11.2).  The shortest digits are the multiple of the largest
    power 10^r inside [X - W, X + W] nearest X: the one multiple of 100 if
    there is one (the interval is narrower than 23), else the nearest
    multiple of 10 or of 1, which the interval holds because it is centred
    on X.  Ties round to even, as in repr.  The thresholds are the interval
    ends (an integer) and the midpoints between two candidates; a power of
    two whose D is no multiple of 100 is unsure, as the interval below it is
    half as wide.
    """
    # X = base + rel with base a multiple of 100
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
    return d, e10, np.where(f == 0.5, np.where(step < 100, -1.0, margin), margin)


class _Style:
    """How one format writes a value: its digit rule, ``width`` digits, fixed
    notation for -4 <= e10 < ``fixed_end`` with ``.0`` after an integer if
    ``point_zero``, and Python's ``fallback`` for unsure values.

    Each value fills a copy of ``template``, every character a value's text
    can hold in order (``-0.000``, ``width`` digits, ``.``, ``width`` digits
    and ``e+000``), with its digits and exponent, and a row of ``keep``
    picks the characters the format writes.
    """

    def __init__(self, rule, width, fixed_end, point_zero, fallback):
        self.rule, self.width, self.fallback = rule, width, fallback
        digits = b"0" * width
        self.template = np.frombuffer(b"-0.000" + digits + b"." + digits + b"e+000", np.uint8)
        self.slots = self.template.size
        # D is split into four-digit groups, the first holding 4 - skip digits
        self.groups = -(-width // 4)
        self.skip = 4 * self.groups - width
        self.units = [10 ** (4 * g) for g in range(self.groups - 1, 0, -1)]
        low, high = 10 ** (3 - self.skip), 10 ** (4 - self.skip) - 1
        self.lead_mid, self.lead_half = (low + high) / 2, (high - low) / 2
        self.keep = self._keep_table(fixed_end, point_zero)
        self.signed = self.keep.shape[0] // 2
        # first keep row for each decimal exponent -324..308 (positive values)
        exp2, exp3 = (fixed_end + 4) * (width + 1), (fixed_end + 5) * (width + 1)
        fixed = list(range(0, exp2, width + 1))
        rows = [exp3] * 225 + [exp2] * 95 + fixed + [exp2] * (100 - fixed_end) + [exp3] * 209
        self.form_rows = np.array(rows)
        # digit_count[10000 g + v]: the significant digits of D when v is its
        # g-th group and the later ones are 0, that is 4 (g + 1) - skip less
        # the trailing zeros of v; 0 for v = 0
        self.group_offsets = np.arange(0, 10000 * self.groups, 10000)
        last = [4 * g + 4 - self.skip for g in range(self.groups)]
        counts = [bytes([max(q - z, 0) for z in range(4)] + [0]).ljust(256, b"\0") for q in last]
        zeros = _QUAD_ZEROS.tobytes()
        self.digit_count = np.frombuffer(b"".join(zeros.translate(c) for c in counts), np.uint8)

    def _keep_table(self, fixed_end, point_zero) -> np.ndarray:
        """The template slots the format writes, one row per (sign, form, digits).

        Forms 0 .. fixed_end + 3 are fixed notation with the point after
        decpt = form - 3 digits, the last two exponential with a two- and a
        three-digit exponent; digits is the count of significant digits.
        """
        width, slots = self.width, self.slots
        frac, exp = 7 + width, 7 + 2 * width
        forms = fixed_end + 6
        # stair[nd, p]: digit p is one of the first nd
        stair = b"".join(b"\1" * nd + b"\0" * (width - nd) for nd in range(width + 1))
        stair = np.frombuffer(stair, bool).reshape(width + 1, width)
        keep = np.zeros((2, forms, width + 1, slots), bool)
        for form, row in enumerate(keep[0]):
            decpt = form - 3 if form < forms - 2 else 1
            if decpt <= 0:
                row[:, 1 : 3 - decpt] = True  # 0.000
            else:
                row[:, 6 : 6 + decpt] = True
                row[decpt + 1 :, frac - 1] = True  # the point, before fraction digits
            row[:, frac + max(decpt, 0) : exp] = stair[:, max(decpt, 0) :]
            if form >= forms - 2:
                row[:, exp:] = np.frombuffer(bytes([1, 1, form == forms - 1, 1, 1]), bool)
            elif point_zero and decpt > 0:
                row[:, frac - 1] = row[:, frac + decpt] = True  # an integer's .0
        keep[1] = keep[0]
        keep[1, ..., 0] = True
        return keep.reshape(-1, slots)


_STYLES = {
    "csv": _Style(_round12, 12, 12, False, lambda v: "%.12g" % v),
    "json": _Style(_shortest, 17, 16, True, json.dumps),
}


def format_rows(block: np.ndarray, seps: list[bytes], fmt: str) -> bytes:
    """Each value of a 2-D float64 ``block`` as ``fmt`` writes it, row by
    row, followed by the separator ``seps[c]`` of its column c: ``%.12g``
    for ``csv``, ``json.dumps`` (``repr`` if finite) for ``json``.

    Every test here is a float comparison or ``np.where``, which a run uses
    anyway: each further kind of numpy loop pages in about 64 kB of numpy's
    code on its first call.
    """
    style = _STYLES[fmt]
    rows, cols = block.shape
    x = block.ravel()
    n = x.size
    a = np.abs(x)
    fast = np.where(a >= 1e-289, a < 1e290, False)
    a = np.where(fast, a, 1.0)
    e10 = np.floor(np.log10(a)).astype(np.int64)
    row = 16 - _K_MIN - e10
    p, e = _two_product(a, _HI_HEAD[row], _HI_TAIL[row])
    e += a * _LO[row]
    d, e10, margin = style.rule(a, p, e, e10)
    zero = x == 0
    quads = np.empty((n, style.groups), np.int64)
    rest = np.where(zero, 0, d)
    for g, unit in enumerate(style.units):
        quads[:, g], rest = np.divmod(rest, unit)
    quads[:, -1] = rest
    # D has width digits unless log10 misjudged e10 near a power of ten
    lead = quads[:, 0].astype(np.float64)
    margin = np.where(np.abs(lead - style.lead_mid) > style.lead_half, -1.0, margin)
    unsure = np.where(zero, 1.0, np.where(fast, margin, -1.0)) < _MARGIN
    # the digits of D end in the last of its four-digit groups that is not 0
    group = style.digit_count[quads + style.group_offsets].astype(np.float64)
    nd = group[:, 0]
    for g in range(1, style.groups):
        nd = np.maximum(nd, group[:, g])
    slots, width = style.slots, style.width
    size = max(map(len, seps))
    out = np.empty((rows, cols, slots + size), np.uint8)
    out[..., :slots] = style.template
    padded = b"".join(s.ljust(size, b"\0") for s in seps)
    out[..., slots:] = np.frombuffer(padded, np.uint8).reshape(cols, size)
    out = out.reshape(n, slots + size)
    digits = _QUADS[quads].view(np.uint8)[:, style.skip :]
    out[:, 6 : 6 + width] = digits
    out[:, 7 + width : 7 + 2 * width] = digits
    out[:, 8 + 2 * width : slots] = _EXP_TEXT[e10 + 324].view(np.uint8).reshape(n, 4)
    keep = np.empty((rows, cols, slots + size), bool)
    kept = b"".join(b"\1" * len(s) + b"\0" * (size - len(s)) for s in seps)
    keep[..., slots:] = np.frombuffer(kept, bool).reshape(cols, size)
    keep = keep.reshape(n, slots + size)
    form = style.form_rows[e10 + 324] + np.where(np.signbit(x), style.signed, 0)
    keep[:, :slots] = style.keep[form + nd.astype(np.int64)]
    where = np.flatnonzero(unsure)
    if where.size:
        text = [style.fallback(v).encode("ascii") for v in x[where].tolist()]
        padded = b"".join(t.ljust(slots, b"\0") for t in text)
        mask = b"".join(b"\1" * len(t) + b"\0" * (slots - len(t)) for t in text)
        out[where, :slots] = np.frombuffer(padded, np.uint8).reshape(-1, slots)
        keep[where, :slots] = np.frombuffer(mask, bool).reshape(-1, slots)
    return out[keep].tobytes()
