"""Byte-exact ``%.17g`` text for blocks of float64 values, vectorised.

``format_block(block, sep)`` returns, for an ``(m, c)`` float block, exactly
the bytes of ::

    "".join(sep.join(f"{v:.17g}" for v in row) + "\\n" for row in block)

without a Python call per value. The 17 significant digits come from
table-driven multiplication, as in Ryu printf (Adams, "Ryu revisited:
printf floating point conversion", OOPSLA 2019), instead of one bignum
``dtoa`` per value:

* the decimal exponent X = floor(log10 |v|) is estimated with ``log10``
  and then fixed exactly at decade edges;
* |v| * 10^(16-X) is formed as a double-double: Dekker's exact product of
  |v| with the double nearest 10^(16-X), plus |v| times the remainder of
  10^(16-X) (the table is exact to about 2^-106, built once from Python
  integers on first use);
* that product is rounded half to even to a 17-digit integer. Where
  10^(16-X) is itself a double the product is exact, so exact ties round
  as ``%.17g`` rounds them.

Everything the argument does not cover goes to Python's own ``%.17g``:
values within 2^-30 of a rounding tie where 10^(16-X) is inexact,
|X| > 280 (where the Dekker split could overflow) and subnormals. So the
output never rests on the error bound alone. nan, +-inf and +-0 are fixed
words; a nan prints ``nan`` whatever its sign bit.

The text is laid out in an ``(m*c, W + 1)`` byte buffer, one row per value
and one separator byte at the end. Values sharing a decimal exponent share
a layout, so each exponent group is filled with whole-row writes; a keep
mask then drops the unused bytes (the sign of positive values, trailing
zeros of the fraction) in one compaction.
"""

from __future__ import annotations

import functools

import numpy as np

__all__ = ["format_block"]

_WIDTH = 24               # longest %.17g text: -2.2250738585072014e-308
_MAX_EXP = 280            # fast path for 10^-280 <= |v| < 10^280
# scales s = 16 - X of the 10^s table, with room for the exponent fixes
_S_MIN, _S_MAX = 16 - _MAX_EXP - 6, 16 + _MAX_EXP + 4
_SPLIT = 134217729.0      # 2^27 + 1, Dekker's splitter for doubles
_TIE_MARGIN = 2.0 ** -30  # product error is below 1e-14; far inside this
_E16, _E17 = 1e16, 1e17
_UNUSED = 99              # keep threshold no digit count reaches


@functools.cache
def _pow10() -> tuple[np.ndarray, np.ndarray]:
    """(hi, lo) with hi + lo = 10^s to about 2^-106, for s in [_S_MIN, _S_MAX].

    hi is 10^s correctly rounded and lo the remainder correctly rounded,
    both from exact integer quotients (int / int rounds correctly).
    """
    hi, lo = [], []
    for s in range(_S_MIN, _S_MAX + 1):
        num, den = (10 ** s, 1) if s >= 0 else (1, 10 ** -s)
        h = num / den
        h_num, h_den = h.as_integer_ratio()
        hi.append(h)
        lo.append((num * h_den - h_num * den) / (den * h_den))
    out = np.array(hi), np.array(lo)
    for arr in out:
        arr.flags.writeable = False
    return out


def _split(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    c = _SPLIT * x
    big = c - (c - x)
    return big, x - big


def _scaled(a: np.ndarray, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """a * 10^s as an unevaluated sum p + q with p = fl(a * 10^s)."""
    hi, lo = _pow10()
    k = np.clip(s - _S_MIN, 0, _S_MAX - _S_MIN)
    h, l = hi[k], lo[k]
    p = a * h
    a1, a2 = _split(a)
    h1, h2 = _split(h)
    err = ((a1 * h1 - p) + a1 * h2 + a2 * h1) + a2 * h2   # exact: a*h - p
    return p, err + a * l


def _decimal(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """17 rounded digits D and exponent X with a ~= D * 10^(X-16).

    Returns (D, X, ok); where ok is False the result is not certain and the
    caller formats that value in Python instead.
    """
    X = np.floor(np.log10(a)).astype(np.int64)
    p, q = _scaled(a, 16 - X)
    ok = np.ones(a.size, bool)
    for _ in range(3):
        # the exact product lies in [1e16, 1e17) iff X = floor(log10 a)
        low = (p < _E16) | ((p == _E16) & (q < 0.0))
        high = (p > _E17) | ((p == _E17) & (q >= 0.0))
        fix = np.flatnonzero(low | high)
        if fix.size == 0:
            break
        X[fix] += high[fix].astype(np.int64) - low[fix]
        p[fix], q[fix] = _scaled(a[fix], 16 - X[fix])
    else:
        ok[fix] = False

    # p >= 2^53 is an even integer, so rint(q) rounds p + q half to even
    r = np.rint(q)
    s = 16 - X
    exact_scale = (s >= 0) & (s <= 22)        # 10^s is a double: p + q exact
    near_tie = np.abs(np.abs(q - r) - 0.5) < _TIE_MARGIN
    ok = ok & (exact_scale | ~near_tie)

    D = p.astype(np.int64) + r.astype(np.int64)
    carry = D == 10 ** 17
    D[carry] = 10 ** 16
    X[carry] += 1
    return D, X, ok


@functools.cache
def _quads() -> tuple[np.ndarray, np.ndarray]:
    """ASCII text of 0000 ... 9999, four bytes packed in one uint32 each, and
    the number of trailing zero digits of each (4 for 0000)."""
    i = np.arange(10000, dtype=np.uint16)
    text = np.empty((10000, 4), np.uint8)
    for j in range(4):
        text[:, j] = i // 10 ** (3 - j) % 10 + ord("0")
    zeros = sum((i % 10 ** k == 0).astype(np.int8) for k in range(1, 5))
    return text.view(np.uint32).ravel(), zeros


def _divmod(a: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    # np.divmod by a scalar has no fast integer loop; // has
    q = a // k
    return q, a - q * k


def _digits(D: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """ASCII digits (n, 17) of 17-digit integers, and how many digits remain
    once trailing zeros are dropped."""
    text, zeros = _quads()
    # intp groups: gathers with an intp index skip a cast per lookup
    top, low = _divmod(D.astype(np.intp, copy=False), 10 ** 8)
    g3, g4 = _divmod(low, 10 ** 4)
    rest, g2 = _divmod(top, 10 ** 4)
    d0, g1 = _divmod(rest, 10 ** 4)            # d0 is one digit, 1 ... 9
    out = np.empty((D.size, 5), np.uint32)     # "000d" then four quads
    for j, g in enumerate((d0, g1, g2, g3, g4)):
        out[:, j] = text[g]
    trailing = zeros[g4]
    at = np.flatnonzero(g4 == 0)
    for g in (g3, g2, g1):
        trailing[at] += zeros[g[at]]
        at = at[g[at] == 0]
    return out.view(np.uint8)[:, 3:], 17 - trailing


@functools.cache
def _layout(X: int) -> tuple[np.ndarray, tuple, np.ndarray]:
    """Byte template, digit runs and keep masks for decimal exponent X.

    Byte 0 holds the sign and the last byte the separator. Each run
    (dst, src, length) copies digits src ... src+length-1 to bytes dst ...;
    row k of the keep masks is the mask of a value with k significant
    digits once trailing zeros are dropped.
    """
    text = np.full(_WIDTH + 1, ord(" "), np.uint8)
    need = np.full(_WIDTH + 1, _UNUSED, np.int64)   # kept iff digits > need
    need[_WIDTH] = -1
    text[0] = ord("-")
    k = np.arange(17)
    if 0 <= X < 17:                               # ddd.ddd
        pos = 1 + k + (k > X)
        text[X + 2] = ord(".")
        need[X + 2] = X + 1
        need[pos] = np.where(k <= X, -1, k)
    elif -4 <= X < 0:                             # 0.000ddd
        lead = 1 - X
        text[1:1 + lead] = ord("0")
        text[2] = ord(".")
        need[1:1 + lead] = -1
        pos = 1 + lead + k
        need[pos] = k
    else:                                         # d.ddde+XX
        pos = 1 + k + (k > 0)
        text[2] = ord(".")
        need[2] = 1
        need[pos] = np.where(k == 0, -1, k)
        tail = np.frombuffer(f"e{X:+03d}".encode(), np.uint8)
        text[19:19 + tail.size] = tail
        need[19:19 + tail.size] = -1
    bounds = [0, *(np.flatnonzero(np.diff(pos) > 1) + 1).tolist(), 17]
    runs = tuple((int(pos[a]), a, b - a) for a, b in zip(bounds, bounds[1:]))
    keep = np.arange(18)[:, None] > need
    for arr in (text, keep):
        arr.flags.writeable = False
    return text, runs, keep


def _rows(arr: np.ndarray) -> np.ndarray:
    """A C-contiguous 2-D array as one opaque item per row, so whole rows
    move in one fancy-index copy."""
    return arr.view(np.dtype((np.void, arr.shape[1] * arr.itemsize))).ravel()


def _text_rows(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray,
                                       np.ndarray]:
    """Text rows of the values of a that _decimal proves, in exponent order.

    Returns (rows, text, kept, ok): text[i] and its keep mask kept[i] (sign
    byte not yet set) belong to a[rows[i]]; ok marks the values proved.
    """
    D, X, ok = _decimal(a)
    rows = np.flatnonzero(ok)
    rows = rows[np.argsort(X[rows].astype(np.int16), kind="stable")]  # radix
    X = X[rows]
    digits, ndig = _digits(D[rows])

    # each exponent group is one slice with one layout
    text = np.empty((rows.size, _WIDTH + 1), np.uint8)
    kept = np.empty((rows.size, _WIDTH + 1), bool)
    edges = [*np.flatnonzero(np.diff(X, prepend=X[:1] - 1)).tolist(), rows.size]
    for lo, hi in zip(edges[:-1], edges[1:]):
        template, runs, keep_by_count = _layout(int(X[lo]))
        text[lo:hi] = template
        for dst, src, length in runs:
            text[lo:hi, dst:dst + length] = digits[lo:hi, src:src + length]
        np.take(keep_by_count, ndig[lo:hi], axis=0, out=kept[lo:hi])
    return rows, text, kept, ok


def format_block(block, sep: str = ",") -> bytes:
    """``%.17g`` text of a 2-D block: values joined by ``sep``, rows ended
    by a newline, as ASCII bytes."""
    v = np.asarray(block, dtype=np.float64)
    m, c = v.shape
    if c == 0:
        return b"\n" * m
    flat = v.ravel()
    a = np.abs(flat)
    neg = np.signbit(flat)

    in_range = (a >= 10.0 ** -_MAX_EXP) & (a < 10.0 ** _MAX_EXP)
    fast = np.flatnonzero(in_range)
    rows, text, kept, ok = _text_rows(a[fast])
    at = fast[rows]
    kept[:, 0] = neg[at]
    buf = np.empty((flat.size, _WIDTH + 1), np.uint8)
    keep = np.zeros((flat.size, _WIDTH + 1), bool)
    _rows(buf)[at] = _rows(text)
    _rows(keep)[at] = _rows(kept)
    del text, kept            # scratch: free it before the compaction

    nan, inf, zero = np.isnan(flat), np.isinf(flat), a == 0.0
    for word, where in ((b"nan", nan), (b"inf", inf & ~neg),
                        (b"-inf", inf & neg), (b"0", zero & ~neg),
                        (b"-0", zero & neg)):
        at = np.flatnonzero(where)
        buf[at, :len(word)] = np.frombuffer(word, np.uint8)
        keep[at, :len(word)] = True
    slow = [fast[~ok], np.flatnonzero(~(in_range | nan | inf | zero))]
    for i in np.concatenate(slow).tolist():
        word = f"{flat[i]:.17g}".encode()
        buf[i, :len(word)] = np.frombuffer(word, np.uint8)
        keep[i, :len(word)] = True

    ends = buf[:, _WIDTH].reshape(m, c)
    ends[:, :-1] = ord(sep)
    ends[:, -1] = ord("\n")
    keep[:, _WIDTH] = True
    return buf[keep].tobytes()
