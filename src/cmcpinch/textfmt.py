"""Exact printf "%.{p}g" text for float64 columns, built as numpy blocks.

``format_g(x, p)`` gives, for every element of x, the bytes of
``"%.{p}g" % x`` as one column of a character-major ``uint8`` block: row
r holds character slot r of every element, and a slot that an element
does not use holds NUL.  The block has only the slots some element uses
(the sign, "0." and its zeros, the digits up to the highest one shown,
the point slots in use, the exponent), so no row is all NUL.  When the
column holds at most half as many runs of one bit pattern as elements
(a mesh's z and normal z, one value per ring), only the first element
of each run is formatted, and its column is repeated by the run length.
``format_int`` does the same for non-negative integers, without the
runs.  ``join(parts)`` lays blocks and byte literals side by side, one
element per row, each block whole, in the bytearray of ``text_rows``,
and ``lines(parts)`` turns that into text lines with one
``translate(None, b"\\0")`` of it, with no ``tobytes()`` copy.  The OBJ
writer in ``mesh`` and the profile table in ``cli`` print every number
through these.

Why the digits are exact (p <= 15).  For finite x != 0 let a = |x|,
e = floor(log10 a) as computed, k = p - 1 - e and t = a 10^k, the exact
real whose rounding to an integer is the digit string "%g" prints when
e is the true exponent.  For |k| <= 22, 10^|k| is a float (5^22 < 2^53),
so scaled = a * 10^k, or a / 10^-k, is one correctly rounded operation
on exact operands: |scaled - t| <= 2^-53 t.  Rounding is monotone, and
10^(p-1) and 10^p are floats, so t >= 10^p gives scaled >= 10^p and
t < 10^(p-1) gives scaled <= 10^(p-1).  With N = rint(scaled), the kernel
decides an element only when

    10^(p-1) <= scaled,   N < 10^p   and   |scaled - N| < 1/2 - tol,

with tol = 4 10^p 2^-53.  Then t < 10^p and tol >= 4 |scaled - t|, and
"%g" prints the digits of N at exponent e:

* if t >= 10^(p-1), then |t - N| <= |t - scaled| + |scaled - N| < 1/2,
  so t rounds to N, which has p digits, and e is the true exponent;
* if t < 10^(p-1), then scaled = 10^(p-1) = N, and 10 t, the digit
  string at the true exponent e - 1, lies within 10^p 2^-53 < 1/2 of
  10^p: it rounds up to 10^p, a carry that gives N at exponent e again.

So the result does not rest on log10 being exact: a wrong e fails the
test or falls in the second case.  A zero is printed as "0" or "-0".
Every element the kernel does not decide is formatted by CPython's
``"%.{p}g" % x``: nan and the infinities, |k| > 22 (|x| below about
10^(p-23) or above about 10^(p+22), subnormals included), N >= 10^p (a
carry to the next power of ten, or a wrong e) and scaled within tol of
a half-integer, where t may be an exact tie.  Of the values a mesh or a
profile table holds that is under one in a hundred, mostly
cos(pi/2)-sized coordinates.

Text follows "%g" without '#': fixed notation when -4 <= e < p, else
d[.ddd]e+XX; trailing zeros and a bare point are dropped.  Within
|k| <= 22 the exponent has two digits.
"""
from __future__ import annotations

from functools import cache
from typing import Sequence, Union

from ._np import np


@cache
def _pow10() -> np.ndarray:
    """10^0 ... 10^22, every one an exact float, built on the first call."""
    return 10.0 ** np.arange(23)


def _digit_rows(n: np.ndarray, count: int) -> np.ndarray:
    """The last ``count`` decimal digits of uint64 n, most significant
    first, as a (count, len(n)) uint8 block of digit values."""
    rows = np.empty((count, len(n)), dtype=np.uint8)
    # nine digits at a time, in uint32 arithmetic
    for stop in range(count, 0, -9):
        high = n // np.uint64(10 ** 9)
        chunk = (n - high * np.uint64(10 ** 9)).astype(np.uint32)
        n = high
        for j in range(stop - 1, max(stop - 9, 0) - 1, -1):
            q = chunk // np.uint32(10)
            np.subtract(chunk, q * np.uint32(10), out=rows[j],
                        casting="unsafe")
            chunk = q
    return rows


def _char(mask: np.ndarray, char: str, out=None) -> np.ndarray:
    """char where the mask holds, NUL elsewhere (a product, not a branch)."""
    return np.multiply(mask, np.uint8(ord(char)), out=out)


def _decide(x: np.ndarray, p: int) -> tuple:
    """(decided, n, e) for the float64 column x at p digits: where
    decided holds, "%.{p}g" prints the digits of the integer n (a float in
    [10^(p-1), 10^p), or 0 for a zero) at decimal exponent e; the module
    docstring proves it.  Elsewhere n and e mean nothing."""
    # two float buffers serve in turn, and x is never written: a holds
    # |x|, then |scaled - n|; scaled holds log10, 10^|k|, then a 10^k
    a = np.abs(x)
    zero = a == 0.0
    nonzero = np.isfinite(a)
    nonzero &= ~zero
    np.copyto(a, 1.0, where=~nonzero)
    scaled = np.log10(a)
    np.floor(scaled, out=scaled)
    e = scaled.astype(np.int64)
    k = np.subtract(p - 1, e)
    up = k >= 0
    np.abs(k, out=k)
    decided = k <= 22
    # every index is in [0, 22] already, so "clip" changes none of them
    _pow10().take(np.minimum(k, 22, out=k), out=scaled, mode="clip")
    np.multiply(a, scaled, out=scaled, where=up)
    np.divide(a, scaled, out=scaled, where=~up)
    n = np.rint(scaled)
    decided &= nonzero
    decided &= scaled >= 10.0 ** (p - 1)
    decided &= n < 10.0 ** p
    np.abs(np.subtract(scaled, n, out=a), out=a)
    decided &= a < 0.5 - 4.0 * 10.0 ** p * 2.0 ** -53
    # a zero is the digit 0 at e = log10(1) = 0: "0", or "-0"
    n[zero] = 0.0
    decided |= zero
    return decided, n, e


def format_g(x: np.ndarray, p: int) -> np.ndarray:
    """``"%.{p}g" % v`` for each v of the float64 column x, as a
    character-major uint8 block, NUL where an element has no character.
    Every row of the block holds a character of some element."""
    if not 1 <= p <= 15:
        raise ValueError("format_g supports 1 <= p <= 15")
    x = np.asarray(x, dtype=np.float64).ravel()
    # runs of one bit pattern (so -0.0 is not 0.0, and a nan is only its
    # own bits): when there are at most half as many runs as elements,
    # the first element of each run is formatted and its column repeated
    bits = x.view(np.uint64)
    change = bits[1:] != bits[:-1]
    if 2 * (np.count_nonzero(change) + 1) > len(x):
        return _format(x, p)
    starts = np.concatenate(([0], np.flatnonzero(change) + 1))
    return np.repeat(_format(x[starts], p), np.diff(starts, append=len(x)),
                     axis=1)


def _format(x: np.ndarray, p: int) -> np.ndarray:
    """``format_g`` of the float64 column x, every element formatted."""
    decided, near, e = _decide(x, p)
    np.copyto(near, 0.0, where=~decided)
    digits = _digit_rows(near.astype(np.uint64), p)

    # digits kept once trailing zeros are dropped (at least the first)
    kept = np.full(len(x), p, dtype=np.int8)
    trailing = np.ones(len(x), dtype=bool)
    for j in range(p - 1, 0, -1):
        trailing &= digits[j] == 0
        kept -= trailing
    np.copyto(e, 0, where=~decided)
    e = e.astype(np.int8)
    fixed = (-4 <= e) & (e < p)
    small = fixed & (e < 0)          # 0.000ddd
    # fixed notation prints every digit up to the units digit
    shown = np.maximum(kept, np.where(fixed, e + 1, 0))
    # the point follows digit e (fixed, e >= 0) or digit 0 (exponent
    # notation) when a kept digit comes after it
    point = np.where(fixed, e, 0)
    point[small | (point + 1 >= kept)] = -1
    negative = np.signbit(x)
    negative &= decided
    zeros = np.where(small, -1 - e, 0)      # after "0."
    expo = ~fixed

    # the slots some element uses, in order: the sign, "0." and up to
    # three zeros, the shown digits each followed by its point slot when
    # one is used, and "e", its sign and two digits
    top = int(shown.max(initial=0))
    dots = {j: dot for j in range(int(point.max(initial=-1)) + 1)
            if (dot := point == j).any()}
    has_sign = bool(negative.any())
    has_small = bool(small.any())
    lead = int(zeros.max(initial=0))
    has_expo = bool(expo.any())
    rows = has_sign + 2 * has_small + lead + top + len(dots) + 4 * has_expo

    rest = np.flatnonzero(~decided)
    text = [("%.*g" % (p, v)) for v in x[rest].tolist()]
    longest = max(map(len, text), default=0)
    block = np.empty((max(rows, longest), len(x)), dtype=np.uint8)
    row = iter(block)
    if has_sign:
        _char(negative, "-", out=next(row))
    if has_small:
        _char(small, "0", out=next(row))
        _char(small, ".", out=next(row))
    for j in range(lead):
        _char(zeros > j, "0", out=next(row))
    digits[:top] += np.uint8(ord("0"))
    for j in range(top):
        np.multiply(digits[j], shown > j, out=next(row))
        if j in dots:
            _char(dots[j], ".", out=next(row))
    if has_expo:
        _char(expo, "e", out=next(row))
        next(row)[:] = _char(expo & (e < 0), "-") + _char(expo & (e >= 0), "+")
        magnitude = np.abs(e)
        next(row)[:] = (magnitude // 10 + ord("0")) * expo
        next(row)[:] = (magnitude % 10 + ord("0")) * expo
    # the fallback text takes the first rows, and more when it is longer
    block[rows:] = 0
    if text:
        chars = np.frombuffer("".join(t.ljust(longest, "\0") for t in text)
                              .encode("ascii"), dtype=np.uint8)
        block[longest:, rest] = 0
        block[:longest, rest] = chars.reshape(len(rest), longest).T
    return block


def format_int(n: np.ndarray) -> np.ndarray:
    """``"%d" % v`` for each v of the non-negative integer column n, as a
    character-major uint8 block, NUL before the leading digit."""
    n = np.asarray(n).ravel()
    if n.size and n.min() < 0:
        raise ValueError("format_int formats non-negative integers")
    width = len(str(int(n.max()))) if n.size else 1
    n = n.astype(np.uint64)
    block = _digit_rows(n, width) + np.uint8(ord("0"))
    for j in range(width - 1):
        block[j] *= n >= np.uint64(10 ** (width - 1 - j))
    return block


def text_rows(count: int, width: int) -> tuple:
    """(text, block): a zeroed bytearray of ``count`` rows of ``width``
    bytes and its (count, width) uint8 view.  numpy fills the text in
    place, and bytes methods then read it with no tobytes() copy."""
    text = bytearray(count * width)
    return text, np.frombuffer(text, dtype=np.uint8).reshape(count, width)


def _join(parts: Sequence[Union[bytes, np.ndarray]]) -> tuple:
    """(text, block) of ``text_rows`` holding ``join(parts)``."""
    count = next(part.shape[1] for part in parts
                 if not isinstance(part, bytes))
    pieces = [np.frombuffer(part, dtype=np.uint8)
              if isinstance(part, bytes) else part for part in parts]
    text, out = text_rows(count, sum(len(piece) for piece in pieces))
    column = 0
    for piece in pieces:
        out[:, column:column + len(piece)] = piece.T
        column += len(piece)
    return text, out


def join(parts: Sequence[Union[bytes, np.ndarray]]) -> np.ndarray:
    """The parts side by side, one element per row: each byte literal as
    is and each block's column for that element, NUL padding kept.

    Each block is copied whole; ``format_g`` and ``format_int`` build
    none with a row that no element uses.
    """
    return _join(parts)[1]


def lines(parts: Sequence[Union[bytes, np.ndarray]]) -> bytearray:
    """One text line per element from ``join(parts)``, every NUL dropped."""
    return _join(parts)[0].translate(None, b"\0")
