"""Per-value %.17g reference for the vectorised text writers.

``floatfmt.format_block`` replaced loops that formatted one value at a
time with Python's own ``%.17g``. This module keeps those loops, as a test
oracle for the bytes of point tables, snapshots and raw blocks.
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
