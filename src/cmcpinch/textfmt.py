"""Exact printf "%.{p}g" text for float64 columns, built as numpy blocks.

``format_g(x, p)`` gives, for every element of x, the bytes of
``"%.{p}g" % x`` as one column of a character-major ``uint8`` block: row
r holds character slot r of every element, and a slot that an element
does not use holds NUL.  ``format_int`` does the same for non-negative
integers.  ``join(parts)`` lays blocks and byte literals side by side,
one element per row, leaving out the block rows no element uses, and
``lines(parts)`` turns that into text lines with one
``bytes.translate(None, b"\\0")``.  The OBJ writer in ``mesh`` and the
profile table in ``cli`` print every number through these.

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
        chunk = (n % np.uint64(10 ** 9)).astype(np.uint32)
        n = n // np.uint64(10 ** 9)
        for j in range(stop - 1, max(stop - 9, 0) - 1, -1):
            q = chunk // np.uint32(10)
            rows[j] = chunk - q * np.uint32(10)
            chunk = q
    return rows


def _char(mask: np.ndarray, char: str) -> np.ndarray:
    """char where the mask holds, NUL elsewhere (a product, not a branch)."""
    return np.multiply(mask, np.uint8(ord(char)))


def _decide(x: np.ndarray, p: int) -> tuple:
    """(decided, n, e) for the float64 column x at p digits: where
    decided holds, "%.{p}g" prints the digits of the integer n (a float in
    [10^(p-1), 10^p), or 0 for a zero) at decimal exponent e; the module
    docstring proves it.  Elsewhere n and e mean nothing."""
    a = np.abs(x)
    zero = a == 0.0
    nonzero = np.isfinite(a) & ~zero
    a = np.where(nonzero, a, 1.0)
    e = np.floor(np.log10(a)).astype(np.int64)
    k = p - 1 - e
    power = _pow10().take(np.minimum(np.abs(k), 22))
    up = k >= 0
    scaled = np.empty_like(a)
    np.multiply(a, power, out=scaled, where=up)
    np.divide(a, power, out=scaled, where=~up)
    n = np.rint(scaled)
    decided = (nonzero & (np.abs(k) <= 22) & (scaled >= 10.0 ** (p - 1))
               & (n < 10.0 ** p)
               & (np.abs(scaled - n) < 0.5 - 4.0 * 10.0 ** p * 2.0 ** -53))
    # a zero is the digit 0 at e = log10(1) = 0: "0", or "-0"
    n[zero] = 0.0
    return decided | zero, n, e


def format_g(x: np.ndarray, p: int) -> np.ndarray:
    """``"%.{p}g" % v`` for each v of the float64 column x, as a
    character-major uint8 block, NUL where an element has no character."""
    if not 1 <= p <= 15:
        raise ValueError("format_g supports 1 <= p <= 15")
    x = np.asarray(x, dtype=np.float64).ravel()
    decided, near, e = _decide(x, p)
    digits = _digit_rows(np.where(decided, near, 0.0).astype(np.uint64), p)

    # digits kept once trailing zeros are dropped (at least the first)
    kept = np.full(len(x), p, dtype=np.int8)
    trailing = np.ones(len(x), dtype=bool)
    for j in range(p - 1, 0, -1):
        trailing &= digits[j] == 0
        kept -= trailing
    e = np.where(decided, e, 0).astype(np.int8)
    fixed = (-4 <= e) & (e < p)
    small = fixed & (e < 0)          # 0.000ddd
    # fixed notation prints every digit up to the units digit
    shown = np.maximum(kept, np.where(fixed, e + 1, 0))
    # the point follows digit e (fixed, e >= 0) or digit 0 (exponent
    # notation) when a kept digit comes after it
    point = np.where(fixed, e, 0)
    point[small | (point + 1 >= kept)] = -1

    # slots: sign, "0." and three zeros, p digits each followed by a
    # point slot (none after the last), "e", its sign and two digits
    width = 2 * p + 9
    slots = np.arange(p, dtype=np.int8)[:, None]
    block = np.empty((width, len(x)), dtype=np.uint8)
    block[0] = _char(np.signbit(x), "-")
    block[1] = _char(small, "0")
    block[2] = _char(small, ".")
    block[3:6] = _char(slots[:3] < np.where(small, -1 - e, 0), "0")
    pairs = block[6:6 + 2 * p].reshape(p, 2, len(x))
    pairs[:, 0] = (digits + np.uint8(ord("0"))) * (slots < shown)
    pairs[:-1, 1] = _char(slots[:-1] == point, ".")
    expo = ~fixed
    block[-4] = _char(expo, "e")
    block[-3] = _char(expo & (e < 0), "-") + _char(expo & (e >= 0), "+")
    magnitude = np.abs(e)
    block[-2] = (magnitude // 10 + ord("0")) * expo
    block[-1] = (magnitude % 10 + ord("0")) * expo

    rest = np.flatnonzero(~decided)
    if len(rest):
        text = [("%.*g" % (p, v)) for v in x[rest].tolist()]
        longest = max(map(len, text))
        # the fallback text goes into the slots the decided elements
        # already use where there are enough, so no new slot shows up
        block[:, rest] = 0
        used = np.argsort(~block.any(axis=1), kind="stable")
        rows = np.sort(used[:longest])
        chars = np.frombuffer("".join(t.ljust(longest, "\0") for t in text)
                              .encode("ascii"), dtype=np.uint8)
        block[rows[:, None], rest] = chars.reshape(len(rest), longest).T
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


def join(parts: Sequence[Union[bytes, np.ndarray]]) -> np.ndarray:
    """The parts side by side, one element per row: each byte literal as
    is and each block's column for that element, NUL padding kept.

    Rows of a block that no element uses are left out.
    """
    count = next(part.shape[1] for part in parts
                 if not isinstance(part, bytes))
    pieces = []
    for part in parts:
        if isinstance(part, bytes):
            pieces.append(np.frombuffer(part, dtype=np.uint8))
        else:
            used = part.any(axis=1)
            pieces.append(part if used.all() else part[used])
    out = np.empty((count, sum(len(piece) for piece in pieces)),
                   dtype=np.uint8)
    column = 0
    for piece in pieces:
        out[:, column:column + len(piece)] = piece.T
        column += len(piece)
    return out


def lines(parts: Sequence[Union[bytes, np.ndarray]]) -> bytes:
    """One text line per element from ``join(parts)``, every NUL dropped."""
    return join(parts).tobytes().translate(None, b"\0")
