"""Per-value %.17g reference for the vectorised text writers.

``floatfmt.format_block`` replaced loops that formatted one value at a
time with Python's own ``%.17g``. This module keeps those loops, as a test
oracle for the bytes of point tables, snapshots and raw blocks, and the
writer's former per-group rounding, as an oracle for its digits.
"""

import numpy as np


def format_rows(block, sep=","):
    """The bytes format_block must produce: one line per row."""
    return "".join(sep.join(f"{float(v):.17g}" for v in row) + "\n"
                   for row in np.asarray(block, float)).encode()


def table_bytes(name, columns, fields):
    """A whole point table: schema line, header, one line per grid point
    with the x-index outermost."""
    stacked = np.stack([np.asarray(f, float) for f in fields], axis=-1)
    head = f"# minmaps {name} csv v1\n{','.join(columns)}\n".encode()
    return head + format_rows(stacked.reshape(-1, stacked.shape[-1]))


def snapshot_bytes(mapfield):
    """A flow snapshot: header ``nx ny h x0 y0``, then ``f1 f2`` per point."""
    g = mapfield.grid
    head = f"{g.nx} {g.ny} {g.hx:.17g} {g.x0:.17g} {g.y0:.17g}\n".encode()
    return head + format_rows(mapfield.values.reshape(-1, 2), " ")


def sorted_decimal_per_group(a, X=None, rounds=3):
    """``floatfmt._sorted_decimal`` as it was before its rounding pass ran
    once per block: each exponent group rounds its own products, and the
    moved values are placed by a second look at their products."""
    from minmaps.floatfmt import (_S_MIN, _TIE_MARGIN, _exact_product,
                                  _groups, _off, _pow10)

    if X is None:
        X = np.floor(np.log10(a)).astype(np.int16)
    order = np.argsort(X, kind="stable")
    a, X = a[order], X[order]
    tens, rests = _pow10()
    D = np.empty(a.size, np.int64)
    scratch = np.empty((5, a.size))
    moved, unsure = [np.empty(0, np.intp)], [np.empty(0, np.intp)]
    for lo, hi in _groups(X):
        s = 16 - int(X[lo])
        p, q = _exact_product(a[lo:hi], float(tens[s - _S_MIN]),
                              scratch[:, lo:hi])
        if not 0 <= s <= 22:
            q += a[lo:hi] * rests[s - _S_MIN]
            unsure.append(lo + np.flatnonzero(
                np.abs(np.abs(q - np.rint(q)) - 0.5) < _TIE_MARGIN))
        low, high = _off(p, q)
        D[lo:hi] = p.astype(np.int64) + np.rint(q).astype(np.int64)
        moved.append(lo + np.flatnonzero(low | high))
    moved = np.concatenate(moved)
    ok = np.ones(a.size, bool)
    ok[np.concatenate(unsure)] = False
    if moved.size:
        low, high = _off(scratch[0, moved], scratch[1, moved])
        X[moved] += high.astype(X.dtype) - low
        if rounds > 1:
            at, d, x, sure = sorted_decimal_per_group(a[moved], X[moved],
                                                      rounds - 1)
            at = moved[at]
            D[at], X[at], ok[at] = d, x, sure
        else:
            ok[moved] = False
    carry = np.flatnonzero(D == 10 ** 17)
    D[carry] = 10 ** 16
    X[carry] += 1
    if moved.size or carry.size:
        resort = np.argsort(X, kind="stable")
        order, D, X, ok = order[resort], D[resort], X[resort], ok[resort]
    return order, D, X, ok
