"""Byte-exact ``%.17g`` text for blocks of float64 values, vectorised.

``format_block(block, sep)`` returns, for an ``(m, c)`` float block, exactly
the bytes of ::

    "".join(sep.join(f"{v:.17g}" for v in row) + "\\n" for row in block)

without a Python call per value. The 17 significant digits come from
table-driven multiplication, as in Ryu printf (Adams, "Ryu revisited:
printf floating point conversion", OOPSLA 2019), instead of one bignum
``dtoa`` per value:

* values are grouped by their decimal exponent X = floor(log10 |v|), as
  estimated with ``log10``. Each group takes one product |v| * 10^(16-X)
  by one constant: Dekker's exact product by the double nearest 10^(16-X),
  plus, where 10^(16-X) is no double (X < -6 or X > 16), |v| times its
  remainder (the table is exact to about 2^-106, built once from Python
  integers on first use);
* a value whose product lies outside [1e16, 1e17) moves one decade and is
  grouped again;
* the product is rounded half to even to a 17-digit integer. Under an
  exact scale it is exact, so ties round as ``%.17g`` rounds them.

Python's own ``%.17g`` takes what the argument does not cover: values
within 2^-30 of a rounding tie under an inexact scale, |X| > 280 (where
the Dekker split could overflow) and subnormals. So the output never rests
on the error bound alone. nan, +-inf and +-0 are fixed words; a nan prints
``nan`` whatever its sign bit.

The text is laid out in an ``(m*c, W + 1)`` byte buffer, one row per value
and one separator byte at the end. Values sharing a decimal exponent share
a layout, so each exponent group is filled with whole-row writes. Unused
bytes are 0 in that buffer, and one compaction drops the zero bytes: no
byte of ASCII text is 0. The templates pad with 0, a positive value's sign
byte is zeroed, and the digits come with their trailing zeros as 0 bytes:
the last nonzero quad (four digits) is read from a table of 0000 ... 9999
whose trailing zeros are 0 bytes, and the zero quads after it are 0. Each
group then fixes two bytes: the '.' goes where no digit follows it, and a
value such as 120 gets the zeros of its integer part back.
"""

from __future__ import annotations

import contextlib
import functools
import os
import stat

import numpy as np

__all__ = ["format_block", "open_fresh", "write_table"]

_WIDTH = 24               # longest %.17g text: -2.2250738585072014e-308
_MAX_EXP = 280            # fast path for 10^-280 <= |v| < 10^280
# scales s = 16 - X of the 10^s table, with room for the exponent fixes
_S_MIN, _S_MAX = 16 - _MAX_EXP - 6, 16 + _MAX_EXP + 4
_SPLIT = 134217729.0      # 2^27 + 1, Dekker's splitter for doubles
_TIE_MARGIN = 2.0 ** -30  # product error is below 1e-14; far inside this
_E16, _E17 = 1e16, 1e17
# values per write_table block: each needs about 150 bytes of writer scratch
_BLOCK_VALUES = 1 << 15


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


def _exact_product(x: np.ndarray, h: float,
                   out: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """p = fl(x * h) and q = x * h - p exactly (Dekker), for one double h.

    out holds five rows of x.size: p, q and the scratch of the split, so
    the product allocates no array of its own.
    """
    p, q, x1, x2, t = out
    c = _SPLIT * h                       # h1, h2: Dekker's split of h
    h1 = c - (c - h)
    h2 = h - h1
    np.multiply(x, h, out=p)
    np.multiply(x, _SPLIT, out=x1)       # x1, x2: the same split of x
    np.subtract(x1, x, out=x2)
    np.subtract(x1, x2, out=x1)
    np.subtract(x, x1, out=x2)
    np.multiply(x1, h1, out=q)           # ((x1*h1 - p) + x1*h2 + x2*h1) + x2*h2
    q -= p
    for y, c in ((x1, h2), (x2, h1), (x2, h2)):
        q += np.multiply(y, c, out=t)
    return p, q


def _off(p: np.ndarray, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Where the exact product p + q lies below 1e16 and where at or above
    1e17: it lies in [1e16, 1e17) iff X = floor(log10 a)."""
    low = (p < _E16) | ((p == _E16) & (q < 0.0))
    high = (p > _E17) | ((p == _E17) & (q >= 0.0))
    return low, high


@functools.cache
def _quads() -> tuple[np.ndarray, np.ndarray]:
    """ASCII text of 0000 ... 9999, four bytes packed in one uint32 each: in
    full, and with the trailing zero digits as 0 bytes (0000 is all 0)."""
    i, j = np.arange(10000)[:, None], np.arange(4)
    text = (i // 10 ** (3 - j) % 10 + ord("0")).astype(np.uint8)
    # digit j is a trailing zero iff 10^(4-j) divides i
    stripped = text * (i % 10 ** (4 - j) != 0)
    return text.view(np.uint32).ravel(), stripped.view(np.uint32).ravel()


def _divmod(a: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    # np.divmod by a scalar has no fast integer loop; // has
    q = a // k
    return q, a - q * k


def _digits(D: np.ndarray) -> np.ndarray:
    """ASCII digits (n, 17) of 17-digit integers, trailing zeros as 0 bytes."""
    text, stripped = _quads()
    # intp groups: gathers with an intp index skip a cast per lookup
    top, low = _divmod(D.astype(np.intp, copy=False), 10 ** 8)
    g3, g4 = _divmod(low, 10 ** 4)
    rest, g2 = _divmod(top, 10 ** 4)
    d0, g1 = _divmod(rest, 10 ** 4)            # d0 is one digit, 1 ... 9
    out = np.empty((D.size, 5), np.uint32)     # "000d" then four quads
    for j, g in enumerate((d0, g1, g2, g3)):
        out[:, j] = text[g]
    out[:, 4] = stripped[g4]
    at = np.flatnonzero(g4 == 0)               # the trailing-zero chain
    for j, g in ((3, g3), (2, g2), (1, g1)):
        out[at, j] = stripped[g[at]]
        at = at[g[at] == 0]
    return out.view(np.uint8)[:, 3:]


@functools.cache
def _layout(X: int) -> tuple[np.ndarray, tuple, int]:
    """Byte template, digit runs and '.' byte for decimal exponent X.

    Byte 0 holds the sign and the last byte the separator; unused bytes are
    0. Each run (dst, src, length) copies digits src ... src+length-1 to
    bytes dst .... The caller zeroes the sign byte of positive values and
    the '.' where the byte after it is 0.
    """
    text = np.zeros(_WIDTH + 1, np.uint8)
    text[0] = ord("-")
    k = np.arange(17)
    dot = X + 2 if 0 <= X < 17 else 2
    if 0 <= X < 17:                               # ddd.ddd
        pos = 1 + k + (k > X)
    elif -4 <= X < 0:                             # 0.000ddd
        lead = 1 - X
        text[1:1 + lead] = ord("0")
        pos = 1 + lead + k
    else:                                         # d.ddde+XX
        pos = 1 + k + (k > 0)
        tail = np.frombuffer(f"e{X:+03d}".encode(), np.uint8)
        text[19:19 + tail.size] = tail
    text[dot] = ord(".")
    bounds = [0, *(np.flatnonzero(np.diff(pos) > 1) + 1).tolist(), 17]
    runs = tuple((int(pos[a]), a, b - a) for a, b in zip(bounds, bounds[1:]))
    text.flags.writeable = False
    return text, runs, dot


def _rows(arr: np.ndarray) -> np.ndarray:
    """A C-contiguous 2-D array as one opaque item per row, so whole rows
    move in one fancy-index copy."""
    return arr.view(np.dtype((np.void, arr.shape[1] * arr.itemsize))).ravel()


def _groups(X: np.ndarray) -> list[tuple[int, int]]:
    """(lo, hi) bounds of the runs of equal values of a sorted X."""
    if X.size == 0:
        return []
    values = np.arange(X[0], X[-1] + 2, dtype=X.dtype)
    edges = np.searchsorted(X, values).tolist()
    return [(lo, hi) for lo, hi in zip(edges, edges[1:]) if lo < hi]


def _sorted_decimal(a: np.ndarray, X: np.ndarray | None = None,
                    rounds: int = 3) -> tuple[np.ndarray, np.ndarray,
                                              np.ndarray, np.ndarray]:
    """(order, D, X, ok): 17 rounded digits D and exponent X with
    a[order] ~= D * 10^(X-16), order sorting a by X.

    X is estimated with log10 unless given. The values that a group's
    product places outside [1e16, 1e17) move one decade and go through
    here again, for at most `rounds` products in all. Where ok is False the
    result is not certain and the caller formats that value in Python.
    """
    if X is None:
        X = np.floor(np.log10(a)).astype(np.int16)
    order = np.argsort(X, kind="stable")                     # radix
    a, X = a[order], X[order]
    tens, rests = _pow10()
    D = np.empty(a.size, np.int64)
    # one scratch for every group's product: temporaries sized by group
    # would leave the heap fragmented and the process's resident set larger
    scratch = np.empty((5, a.size))
    moved, unsure = [np.empty(0, np.intp)], [np.empty(0, np.intp)]
    for lo, hi in _groups(X):
        s = 16 - int(X[lo])
        p, q = _exact_product(a[lo:hi], float(tens[s - _S_MIN]),
                              scratch[:, lo:hi])
        if not 0 <= s <= 22:  # 10^s is no double: add a times its remainder
            q += a[lo:hi] * rests[s - _S_MIN]
            # p + q is within 1e-14 of the exact product, not exact: near a
            # tie it cannot say which way the digits round
            unsure.append(lo + np.flatnonzero(
                np.abs(np.abs(q - np.rint(q)) - 0.5) < _TIE_MARGIN))
        low, high = _off(p, q)
        # p >= 2^53 is an even integer, so rint settles exact ties half to
        # even. Under an exact scale no D carries to 10^17: below 10^(X+1)
        # the nearest double's product is at least 8 under 1e17
        D[lo:hi] = p.astype(np.int64) + np.rint(q).astype(np.int64)
        moved.append(lo + np.flatnonzero(low | high))
    moved = np.concatenate(moved)
    ok = np.ones(a.size, bool)
    ok[np.concatenate(unsure)] = False
    if moved.size:
        # scratch rows 0 and 1 still hold each value's p and q
        low, high = _off(scratch[0, moved], scratch[1, moved])
        X[moved] += high.astype(X.dtype) - low
        if rounds > 1:
            at, d, x, sure = _sorted_decimal(a[moved], X[moved], rounds - 1)
            at = moved[at]
            D[at], X[at], ok[at] = d, x, sure
        else:
            ok[moved] = False
    carry = np.flatnonzero(D == 10 ** 17)
    D[carry] = 10 ** 16
    X[carry] += 1
    if moved.size or carry.size:         # an exponent moved: sort again
        resort = np.argsort(X, kind="stable")
        order, D, X, ok = order[resort], D[resort], X[resort], ok[resort]
    return order, D, X, ok


def _text_rows(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Text rows of the values of a that the product proves.

    Returns (rows, text, slow): text[i] is the text of a[rows[i]] with its
    dropped bytes 0 and the sign byte kept; slow lists the values left to
    Python.
    """
    order, D, X, ok = _sorted_decimal(a)
    slow = order[~ok]
    if slow.size:
        order, D, X = order[ok], D[ok], X[ok]
    digits = _digits(D)

    # each exponent group is one slice with one layout
    text = np.empty((order.size, _WIDTH + 1), np.uint8)
    for lo, hi in _groups(X):
        x = int(X[lo])
        template, runs, dot = _layout(x)
        group = text[lo:hi]
        group[...] = template
        for dst, src, length in runs:
            group[:, dst:dst + length] = digits[lo:hi, src:src + length]
        if 0 < x < 17:              # trailing zeros of the integer part
            short = np.flatnonzero(group[:, x + 1] == 0)
            group[short, 2:x + 2] = np.maximum(group[short, 2:x + 2], ord("0"))
        group[:, dot] *= group[:, dot + 1] != 0     # no digit after the '.'
    return order, text, slow


def format_block(block, sep: str = ",") -> bytes:
    """``%.17g`` text of a 2-D block: values joined by ``sep``, rows ended
    by a newline, as ASCII bytes."""
    return _block_text(np.asarray(block, dtype=np.float64), sep).tobytes()


def _block_text(v: np.ndarray, sep: str) -> np.ndarray:
    """The bytes of format_block(v, sep) as a uint8 array."""
    m, c = v.shape
    if c == 0:
        return np.full(m, ord("\n"), np.uint8)
    flat = v.ravel()
    a, neg = np.abs(flat), np.signbit(flat)

    in_range = (a >= 10.0 ** -_MAX_EXP) & (a < 10.0 ** _MAX_EXP)
    fast = np.flatnonzero(in_range)
    rows, text, slow = _text_rows(a[fast])
    at = fast[rows]
    text[:, 0] *= neg[at]     # the sign byte: "-", or 0 when positive
    buf = np.zeros((flat.size, _WIDTH + 1), np.uint8)
    _rows(buf)[at] = _rows(text)
    del text                  # scratch: free it before the compaction

    # outside the range: nan, +-inf, +-0, and subnormal or huge values
    out = np.flatnonzero(~in_range)
    r, sign = a[out], neg[out]
    nan, inf, zero = np.isnan(r), np.isinf(r), r == 0.0
    for word, where in ((b"nan", nan), (b"inf", inf & ~sign),
                        (b"-inf", inf & sign), (b"0", zero & ~sign),
                        (b"-0", zero & sign)):
        buf[out[where], :len(word)] = np.frombuffer(word, np.uint8)
    for i in np.concatenate([fast[slow], out[~(nan | inf | zero)]]).tolist():
        word = f"{flat[i]:.17g}".encode()
        buf[i, :len(word)] = np.frombuffer(word, np.uint8)

    ends = buf[:, _WIDTH].reshape(m, c)
    ends[:, :-1] = ord(sep)
    ends[:, -1] = ord("\n")
    return buf[buf != 0]


def open_fresh(path):
    """``open(path, "wb")`` on a new file. A regular file at path is
    unlinked first: truncating the previous run's output in place costs more
    than writing the new text. Symlinks, FIFOs and devices are opened as
    they are, so a symlink is written through."""
    with contextlib.suppress(FileNotFoundError):
        if stat.S_ISREG(os.lstat(path).st_mode):
            os.unlink(path)
    return open(path, "wb")


def write_table(path, head: str, columns, sep: str = ",") -> None:
    """Write ``head``, then one line per point of the columns (each
    flattened in C order) joined by ``sep``. Streamed in blocks of about
    _BLOCK_VALUES values: no whole table's text or stacked copy is held."""
    flat = [np.reshape(np.asarray(c, np.float64), -1) for c in columns]
    rows = max(1, _BLOCK_VALUES // len(flat))
    with open_fresh(path) as fh:
        fh.write(head.encode())
        for i in range(0, flat[0].size, rows):
            fh.write(_block_text(np.stack([c[i:i + rows] for c in flat],
                                          axis=-1), sep))
