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
  10^(16-X) is itself a double (-6 <= X <= 16) the product is exact, so
  exact ties round as ``%.17g`` rounds them. Values are sorted by their
  estimated X first, so the values of one such group share one Dekker
  product by a constant, with no table lookup and no tie test.

Everything the argument does not cover goes to Python's own ``%.17g``:
values within 2^-30 of a rounding tie where 10^(16-X) is inexact,
|X| > 280 (where the Dekker split could overflow) and subnormals. So the
output never rests on the error bound alone. nan, +-inf and +-0 are fixed
words; a nan prints ``nan`` whatever its sign bit.

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


def _exact_product(x: np.ndarray, h,
                   out: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """p = fl(x * h) and q = x * h - p exactly (Dekker), for one double h or
    one per value.

    out holds five rows of x.size: p, q and the scratch of the split, so a
    product by one double allocates no array of its own.
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


def _scaled(a: np.ndarray, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """a * 10^s as an unevaluated sum p + q with p = fl(a * 10^s)."""
    hi, lo = _pow10()
    k = np.clip(s - _S_MIN, 0, _S_MAX - _S_MIN)
    p, q = _exact_product(a, hi[k], np.empty((5, a.size)))
    return p, q + a * lo[k]


def _off(p: np.ndarray, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Where the exact product p + q lies below 1e16 and where at or above
    1e17: it lies in [1e16, 1e17) iff X = floor(log10 a)."""
    low = (p < _E16) | ((p == _E16) & (q < 0.0))
    high = (p > _E17) | ((p == _E17) & (q >= 0.0))
    return low, high


def _decimal(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """17 rounded digits D and exponent X with a ~= D * 10^(X-16).

    Returns (D, X, ok); where ok is False the result is not certain and the
    caller formats that value in Python instead.
    """
    X = np.floor(np.log10(a)).astype(np.int64)
    p, q = _scaled(a, 16 - X)
    ok = np.ones(a.size, bool)
    for _ in range(3):
        low, high = _off(p, q)
        fix = np.flatnonzero(low | high)
        if fix.size == 0:
            break
        X[fix] += high[fix].astype(np.int64) - low[fix]
        p[fix], q[fix] = _scaled(a[fix], 16 - X[fix])
    else:
        ok[fix] = False

    # p >= 2^53 is an even integer, so rint(q) rounds p + q half to even
    r = np.rint(q)
    exact_scale = (X >= -6) & (X <= 16)       # 10^(16-X) is a double: exact
    near_tie = np.abs(np.abs(q - r) - 0.5) < _TIE_MARGIN
    ok = ok & (exact_scale | ~near_tie)

    D = p.astype(np.int64) + r.astype(np.int64)
    carry = D == 10 ** 17
    D[carry] = 10 ** 16
    X[carry] += 1
    return D, X, ok


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


def _sorted_decimal(a: np.ndarray) -> tuple[np.ndarray, np.ndarray,
                                            np.ndarray, np.ndarray]:
    """(order, D, X, ok): _decimal of a[order], order sorting a by X.

    Values are grouped by their estimated X first. A group whose scale
    10^(16-X) is a double takes one exact product by that constant; the
    values it places outside [1e16, 1e17), and groups at an inexact scale,
    go through _decimal.
    """
    X = np.floor(np.log10(a)).astype(np.int16)
    order = np.argsort(X, kind="stable")                     # radix
    a, X = a[order], X[order]
    D = np.empty(a.size, np.int64)
    # one scratch for every group's product: temporaries sized by group
    # would leave the heap fragmented and the process's resident set larger
    scratch = np.empty((5, a.size))
    redo = [np.empty(0, np.intp)]
    for lo, hi in _groups(X):
        s = 16 - int(X[lo])
        if not 0 <= s <= 22:
            redo.append(np.arange(lo, hi))
            continue
        p, q = _exact_product(a[lo:hi], float(10 ** s), scratch[:, lo:hi])
        low, high = _off(p, q)
        # p + q is exact and p an even integer, so rint settles ties half to
        # even. No D here carries to 10^17: below 10^(X+1) the nearest
        # double's product is at least 8 under 1e17
        D[lo:hi] = p.astype(np.int64) + np.rint(q).astype(np.int64)
        redo.append(lo + np.flatnonzero(low | high))
    redo = np.concatenate(redo)
    ok = np.ones(a.size, bool)
    D[redo], fixed, ok[redo] = _decimal(a[redo])
    if (fixed != X[redo]).any():          # an exponent moved: sort again
        X[redo] = fixed
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
