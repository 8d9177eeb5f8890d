"""Exact ``%.12g`` text of float64 tables, formatted in numpy blocks.

Python formats each float with a correctly rounded binary-to-decimal
conversion, several hundred nanoseconds a value.  For a fixed 12
significant digits, float64 arithmetic with a proven error bound yields
the same digits for every value but the rare near-tie, which goes back to
Python, so a block of values costs a few dozen array operations.  The
module is separate from :mod:`qmodes.scenarios` so that the two compile
one at a time: where no bytecode is cached, one module holding both
raised the peak memory of every run.
"""

from __future__ import annotations

import numpy as np

__all__ = ["g12_rows"]

# 10^k for |k| <= 170, each correctly rounded; two of them scale any finite float64
_POW10 = np.array([float(f"1e{k}") for k in range(-170, 171)])
# the tables below are built from bytes: numpy arithmetic at import would
# page in code that a run writing no CSV never uses
_PAIRS = [b"%02d" % i for i in range(100)]
# the four ASCII digits of 0..9999, one uint32 each (hi + hi.join(pairs) is hi 00 hi 01 ... hi 99)
_QUADS = np.frombuffer(b"".join(hi + hi.join(_PAIRS) for hi in _PAIRS), np.uint32)
# trailing zeros of 0..9999 (4 for 0), from those of 0..99 (2 for 0)
_PAIR_ZEROS = bytes([2] + [1 - bool(i % 10) for i in range(1, 100)])
_QUAD_ZEROS = np.frombuffer(b"".join(bytes([2 + z]) + _PAIR_ZEROS[1:] for z in _PAIR_ZEROS), np.uint8)
# exponent sign and three digits for X = -324..308, one uint32 each
_EXP_TEXT = np.frombuffer(b"".join(b"%+04d" % x for x in range(-324, 309)), np.uint32)
# every character a value's text can hold, in order; %g keeps a subset
_TEMPLATE = np.frombuffer(b"-0.000" + b"0" * 12 + b"." + b"0" * 12 + b"e+000,", np.uint8)
_INT, _FRAC, _EXP, _SEP = 6, 19, 31, 36


def _keep_table() -> np.ndarray:
    """The template slots ``%.12g`` writes, one row per (sign, form, digits).

    Forms 0..15 are fixed notation with exponent X = form - 4, forms 16 and
    17 exponential with a two- and a three-digit exponent; digits is the
    count of significant digits left once trailing zeros are stripped.
    """
    rows = []
    for form in range(18):
        # index of the digit before the point; negative for 0.000d...
        lead = form - 4 if form < 16 else 0
        prefix = bytes([lead < 0, lead < 0, lead < -1, lead < -2, lead < -3])
        integer = bytes(place <= lead for place in range(12))
        exponent = bytes([form >= 16, form >= 16, form == 17, form >= 16, form >= 16, True])
        for digits in range(13):
            point = bytes([lead >= 0 and digits > lead + 1])
            fraction = bytes(lead < place < digits for place in range(12))
            rows.append(prefix + integer + point + fraction + exponent)
    table = b"".join(sign + row for sign in (b"\0", b"\1") for row in rows)
    return np.frombuffer(table, bool).reshape(2 * len(rows), _TEMPLATE.size)


_KEEP = _keep_table()


def _round12(x: np.ndarray):
    """|x| rounded to 12 significant digits, D 10^(X - 11), as (D, X, unsure).

    With e = floor(log10|x|), s = |x| 10^(11 - e) is scaled by two table
    powers, so it is within about 6 * 2^-53 relative, under 1e-3 absolute,
    of its exact value.  D = round(s) is then the correctly rounded integer
    in [10^11, 10^12) unless frac(s) is within 2e-3 of 1/2 (a near-tie), e
    was misjudged (s below 10^11 or D above 10^12) or x is not finite:
    those are ``unsure``.  Zeros give D = 0 and X = 0.
    """
    a = np.abs(x)
    nonfinite = ~np.isfinite(a)
    special = nonfinite | (a == 0)
    a[special] = 1.0
    e = np.floor(np.log10(a)).astype(np.int64)
    k1 = np.clip(11 - e, -170, 170)
    s = a * _POW10[k1 + 170] * _POW10[11 - e - k1 + 170]
    d = np.rint(s)
    unsure = nonfinite | (s < 1e11) | (d > 1e12) | (np.abs(s - np.floor(s) - 0.5) < 2e-3)
    top = d == 1e12
    d[top] = 1e11
    e += top
    d[special] = 0
    return d.astype(np.int64), e, unsure


def _digits12(d: np.ndarray):
    """ASCII digits of integers below 10^12, 12 bytes a row, and the count
    of significant digits left once trailing zeros are stripped (0 for 0)."""
    quads = np.empty((d.size, 3), np.int64)
    quads[:, 0], rest = np.divmod(d, 100000000)
    quads[:, 1], quads[:, 2] = np.divmod(rest, 10000)
    zeros = _QUAD_ZEROS[quads]
    tail = np.where(quads[:, 1] != 0, 8 - zeros[:, 1], 4 - zeros[:, 0])
    return _QUADS[quads].view(np.uint8), np.where(quads[:, 2] != 0, 12 - zeros[:, 2], tail)


def g12_rows(block: np.ndarray) -> str:
    """Rows of a 2-D float64 ``block`` as ``%.12g`` values, ``,`` between
    columns and ``\\n`` after each row: byte-equal to Python's formatting.

    Each value fills a copy of ``_TEMPLATE`` with its digits and exponent,
    and ``_KEEP`` picks the characters ``%g`` writes: fixed notation for
    -4 <= X < 12, else exponential, with trailing zeros stripped.  Values
    :func:`_round12` is unsure of are formatted by Python.
    """
    rows, cols = block.shape
    x = block.ravel()
    n = x.size
    d, e, unsure = _round12(x)
    digits, nd = _digits12(d)
    form = np.where((e >= -4) & (e < 12), e + 4, 16 + (np.abs(e) >= 100))
    keep = _KEEP[(np.signbit(x) * 18 + form) * 13 + nd]
    out = np.empty((n, _TEMPLATE.size), np.uint8)
    out[:] = _TEMPLATE
    out[:, _INT : _INT + 12] = digits
    out[:, _FRAC : _FRAC + 12] = digits
    out[:, _EXP + 1 : _SEP] = _EXP_TEXT[e + 324].view(np.uint8).reshape(n, 4)
    out.reshape(rows, cols, _TEMPLATE.size)[:, -1, _SEP] = ord("\n")
    if unsure.any():
        where = np.flatnonzero(unsure)
        text = [b"%.12g" % v for v in x[where].tolist()]
        text = np.array(text, f"S{_SEP}").view(np.uint8).reshape(len(where), _SEP)
        out[where, :_SEP] = text
        keep[where, :_SEP] = text != 0
    return out[keep].tobytes().decode("ascii")
