"""The vectorised %.17g writer must give the per-value writer's bytes."""

import os
import stat
import subprocess
import sys
import tracemalloc
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from minmaps import floatfmt
from minmaps.floatfmt import format_block, write_table
from text_oracle import format_rows, sorted_decimal_per_group, table_bytes


def from_bits(bits):
    return np.array([bits], np.uint64).view(np.float64)[0]


NEG_NAN = from_bits(0xFFF8000000000001)
MAX = np.finfo(np.float64).max
TENS = np.array([float(f"1e{k}") for k in range(-300, 301)])

values = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.integers(0, 2 ** 64 - 1).map(from_bits),
    st.integers(-10 ** 6, 10 ** 6).map(lambda k: k / 8.0),
    st.sampled_from([0.0, -0.0, np.inf, -np.inf, NEG_NAN, 5e-324, MAX,
                     1e16, 1e17, 99999999999999999.0, 1e20, 0.1, 1 / 3]),
)
blocks = arrays(np.float64,
                array_shapes(min_dims=2, max_dims=2, min_side=0, max_side=6),
                elements=values)


@settings(max_examples=300, deadline=None)
@given(blocks, st.sampled_from([",", " "]))
@example(np.array([[1e16, 1e17, 99999999999999999.0, 1e20]]), ",")
@example(np.array([[0.1, 1 / 3], [NEG_NAN, 5e-324], [MAX, -MAX]]), ",")
@example(np.array([[0.0, -0.0, np.inf, -np.inf, np.nan]]), " ")
@example(np.array([[5e-324, 2.2250738585072014e-308, 1e-300, 1e300]]), ",")
@example(np.empty((0, 3)), ",")
@example(np.empty((2, 0)), ",")
@example(np.array([[np.nan, 1.5, -0.0, -np.inf, 5e-324, 2.0 ** -25, -0.1]]),
         ",")
def test_block_matches_per_value_writer(block, sep):
    out = format_block(block, sep)
    assert out == format_rows(block, sep)
    assert b"\0" not in out      # 0 marks a dropped byte in the writer


def pinned_values():
    """Powers of ten with both neighbours, 5*10^k, k/8 ties, odd multiples
    of powers of two (m * 2^-24 for odd m <= 15 is a tie at 17 digits) and
    the words."""
    words = [1e16, 1e17, 99999999999999999.0, 1e20, 0.1, 1 / 3, NEG_NAN,
             np.nan, np.inf, 0.0, 5e-324, 2.2250738585072014e-308, MAX]
    twos = np.ldexp(np.arange(1.0, 16.0, 2.0)[:, None], np.arange(-1074, 1020))
    flat = np.concatenate([TENS, np.nextafter(TENS, 0.0),
                           np.nextafter(TENS, np.inf), 5.0 * TENS,
                           np.arange(-4000, 4001) / 8.0, twos.ravel(), words])
    return np.concatenate([flat, -flat])


@pytest.mark.parametrize("ncols", [1, 3, 7])
def test_pinned_adversarial_values(ncols):
    flat = pinned_values()
    block = np.concatenate([flat, np.zeros(-flat.size % ncols)])
    block = block.reshape(-1, ncols)
    assert format_block(block) == format_rows(block)


def test_exact_ties_round_half_even_on_the_fast_path():
    # 10 * (1e15 + k/4) ends in .5 for odd k, and 10^1 is a double, so the
    # fast path must settle these ties itself
    ties = 1e15 + np.arange(1, 4001, 2) * 0.25
    _, _, _, ok = floatfmt._sorted_decimal(ties)
    assert ok.all()
    assert format_block(ties[:, None]) == format_rows(ties[:, None])


def exact_scale_values():
    """For every X in -6 ... 16, where 10^(16-X) is a double: 10^X and both
    neighbours, 5*10^X, random mantissas and the double below 10^(X+1),
    plus ties 1e15 + k/4 that round half to even at 17 digits."""
    tens = np.array([float(f"1e{k}") for k in range(-6, 17)])
    below = np.nextafter([float(f"1e{k}") for k in range(-5, 18)], 0.0)
    mantissas = np.random.default_rng(5).uniform(1.0, 10.0, (tens.size, 40))
    return np.concatenate([tens, np.nextafter(tens, 0.0),
                           np.nextafter(tens, np.inf), 5.0 * tens, below,
                           (mantissas * tens[:, None]).ravel(),
                           1e15 + np.arange(1, 400, 2) * 0.25])


def test_exact_scale_groups_match_per_value_writer():
    flat = exact_scale_values()
    exponent = np.array([Decimal(v).adjusted() for v in flat.tolist()])
    estimate = np.floor(np.log10(flat))
    exact = (exponent >= -6) & (exponent <= 16)
    # the log10 estimate is one off for some values, so the fix-up runs
    assert (estimate != exponent)[exact].any()
    order, _, _, ok = floatfmt._sorted_decimal(flat)
    assert ok[np.argsort(order)][exact].all()      # none left to Python
    block = np.concatenate([flat, -flat]).reshape(-1, 2)
    assert format_block(block) == format_rows(block)


def test_inexact_scale_groups_match_per_value_writer():
    # random mantissas for every X in -280 ... -7 and 17 ... 280, where
    # 10^(16-X) is no double: the double-double product settles every one,
    # so the one path leaves only near-ties and out-of-range values to Python
    tens = np.array([float(f"1e{k}") for k in [*range(-280, -6),
                                                *range(17, 281)]])
    mantissas = np.random.default_rng(7).uniform(1.0, 10.0, (tens.size, 30))
    flat = (mantissas * tens[:, None]).ravel()
    _, _, _, ok = floatfmt._sorted_decimal(flat)
    assert ok.all()
    block = np.concatenate([flat, -flat]).reshape(-1, 2)
    assert format_block(block) == format_rows(block)


def test_block_scratch_does_not_depend_on_scale():
    # every exponent group takes one product in the same scratch, so a
    # block of machine-precision residuals (1e-15) or of huge values (1e20)
    # needs no more writer memory than one of ordinary values (1e-3)
    block = np.random.default_rng(3).uniform(1.0, 10.0,
                                             (floatfmt._BLOCK_VALUES, 1))
    format_block(1e20 * block)                   # fill the lazy tables
    peaks = {}
    for scale in (1e-3, 1e-15, 1e20):
        scaled = scale * block
        tracemalloc.start()
        try:
            floatfmt._block_text(scaled, ",")
            peaks[scale] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[1e-15] < 1.05 * peaks[1e-3]
    assert peaks[1e20] < 1.05 * peaks[1e-3]


def test_write_table_memory_does_not_grow_with_the_table(tmp_path):
    # write_table streams: 16 blocks of a 7-column table need the scratch
    # of 4 blocks, not four times as much
    rows = floatfmt._BLOCK_VALUES // 7
    tables = [np.random.default_rng(k).standard_normal((7, k * rows))
              for k in (4, 16)]
    path = tmp_path / "table.csv"
    write_table(path, "head\n", tables[1])       # fill the lazy tables
    peaks = []
    for columns in tables:
        tracemalloc.start()
        try:
            write_table(path, "head\n", columns)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert abs(peaks[1] - peaks[0]) < 0.1 * peaks[0]


def test_ties_under_an_inexact_scale_go_to_python():
    # 2^-25 = 2.98023223876953125e-8 and 3 * 2^-24 = 1.78813934326171875e-7
    # have 18 digits ending in 5, and neither 10^24 nor 10^23 is a double:
    # the product cannot prove these ties
    ties = np.array([[2.0 ** -25], [3 * 2.0 ** -24]])
    _, _, _, ok = floatfmt._sorted_decimal(ties.ravel())
    assert not ok.any()
    assert format_block(ties) == b"2.9802322387695312e-08\n1.7881393432617188e-07\n"


def test_power_table_is_built_on_first_use():
    code = ("import minmaps, minmaps.floatfmt as f; "
            "assert f._pow10.cache_info().currsize == 0; "
            "f.format_block([[1.5]]); "
            "assert f._pow10.cache_info().currsize == 1")
    subprocess.run([sys.executable, "-c", code], check=True, timeout=60)


@pytest.mark.parametrize("ncols, shape, sep, ends_inside", [
    (4, (128, 128), ",", False),        # two whole blocks of 8192 rows
    (3, (65, 400), ",", True),          # two whole blocks, then 4156 rows
    (1, (1 << 15 | 7,), ",", True),     # a single column
    (2, (129, 129), " ", True),         # the snapshot layout
], ids=["block_multiple", "mid_block", "one_column", "space_separated"])
def test_write_table_matches_per_value_writer(tmp_path, ncols, shape, sep,
                                              ends_inside):
    # every column is flattened in C order, one line per point
    rng = np.random.default_rng(ncols)
    columns = rng.standard_normal((ncols, *shape)) \
        * 10.0 ** rng.integers(-8, 8, (ncols, *shape))
    columns[0].flat[::97] = np.nan
    full, rest = divmod(columns[0].size, floatfmt._BLOCK_VALUES // ncols)
    assert full >= 1 and bool(rest) == ends_inside
    path = tmp_path / "table.txt"
    write_table(path, "head line\n", columns, sep)
    want = format_rows(columns.reshape(ncols, -1).T, sep)
    assert path.read_bytes() == b"head line\n" + want


# the digits come with their trailing zeros as 0 bytes: integers whose
# integer part ends in zeros, one-digit e-format, small fixed values and
# 17-digit values whose middle quads are all zero
TRAILING_ZERO_PINS = [10.0, 120.0, 100.5, 1e15, 9007199254740992.0, 1e-7,
                      -3e+20, 0.0001, -0.00012, 1.0000000100000001,
                      -1000.0000000000001]


def test_trailing_zero_pins_match_per_value_writer():
    pins = np.array(TRAILING_ZERO_PINS)
    _, _, _, ok = floatfmt._sorted_decimal(np.abs(pins))
    assert ok.all()                  # all on the table path, none in Python
    block = np.stack([pins, -pins], axis=-1)
    assert format_block(block) == format_rows(block)
    assert format_block(pins[:5, None]) == (
        b"10\n120\n100.5\n1000000000000000\n9007199254740992\n")


def test_integers_with_zeros_in_their_integer_part():
    # k * 10^j for every layout 0 <= X < 17: the integer part gets its
    # zeros back, and no '.' is left without a digit after it
    ints = (np.arange(1, 1000)[:, None] * 10.0 ** np.arange(17)).ravel()
    block = np.stack([ints, -ints, ints + 0.5], axis=-1)
    assert format_block(block) == format_rows(block)


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 30), st.sampled_from(["one", "below", "at", "above"]),
       st.integers(0, 2 ** 32 - 1))
def test_write_table_across_block_edges(tmp_path_factory, ncols, edge, seed):
    # a block holds _BLOCK_VALUES // ncols rows: one row, and the row
    # counts one under, at and one over a whole block
    per_block = floatfmt._BLOCK_VALUES // ncols
    nrows = {"one": 1, "below": per_block - 1, "at": per_block,
             "above": per_block + 1}[edge]
    rng = np.random.default_rng(seed)
    bits = rng.integers(0, 2 ** 64, (ncols, nrows), dtype=np.uint64)
    pick = rng.integers(0, 4, (ncols, nrows))
    columns = np.select(
        [pick == 0, pick == 1, pick == 2],
        [bits.view(np.float64),                               # any double
         rng.integers(-10 ** 6, 10 ** 6, (ncols, nrows)) / 8.0,
         rng.integers(1, 100, (ncols, nrows))
         * 10.0 ** rng.integers(-20, 20, (ncols, nrows))],
        rng.choice(np.array([0.0, -0.0, np.nan, np.inf, 1e16, 0.1]),
                   (ncols, nrows)))
    path = tmp_path_factory.mktemp("edges") / "table.csv"
    write_table(path, "head\n", columns)
    assert path.read_bytes() == b"head\n" + format_rows(columns.T)


def test_open_fresh_writes_into_a_fifo(tmp_path):
    # only regular files are unlinked: a FIFO is opened and written as it is
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
    try:
        with floatfmt.open_fresh(fifo) as fh:
            fh.write(b"through\n")
        assert os.read(reader, 64) == b"through\n"
    finally:
        os.close(reader)
    assert stat.S_ISFIFO(os.lstat(fifo).st_mode)


def assert_same_rounding(a):
    """One rounding pass per block gives the per-group oracle's digits,
    exponents, order and certainty, bit for bit."""
    for got, want in zip(floatfmt._sorted_decimal(a),
                         sorted_decimal_per_group(a)):
        assert got.dtype == want.dtype and np.array_equal(got, want)


def in_range(flat):
    a = np.abs(flat)
    return a[(a >= 10.0 ** -floatfmt._MAX_EXP) & (a < 10.0 ** floatfmt._MAX_EXP)]


def test_one_rounding_pass_on_random_bit_patterns():
    bits = np.random.default_rng(11).integers(0, 2 ** 64, 400_000,
                                              dtype=np.uint64)
    assert_same_rounding(in_range(bits.view(np.float64)))


def test_one_rounding_pass_on_powers_of_ten():
    # 10^k and both neighbours, where log10 misjudges X and values move
    tens = np.array([float(f"1e{k}") for k in range(-280, 280)])
    assert_same_rounding(in_range(np.concatenate(
        [tens, np.nextafter(tens, 0.0), np.nextafter(tens, np.inf)])))


def test_one_rounding_pass_on_every_block_of_the_point_tables():
    # the blocks write_table cuts from analysis.csv and verify.csv of
    # z_squared at n=257, and the two axes
    from minmaps import presets
    from minmaps.cli import IDENTITY_CHECKS

    mf = presets.z_squared_field(n=257)
    pw = mf.pointwise
    tables = [[pw.lam, pw.mu, pw.s, pw.u1, pw.u2, pw.jf, pw.phi, pw.theta]]
    tables.append([v for _, check in IDENTITY_CHECKS
                   for v in check(mf).components.values()])
    assert_same_rounding(in_range(np.concatenate([mf.grid.xs, mf.grid.ys])))
    for columns in tables:
        rows = floatfmt._BLOCK_VALUES // (len(columns) + 2)
        flat = np.stack([c.ravel() for c in columns], axis=-1)
        for i in range(0, flat.shape[0], rows):
            assert_same_rounding(in_range(flat[i:i + rows].ravel()))


def divisors(k):
    return [d for d in range(1, k + 1) if k % d == 0]


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 12), st.sampled_from(["below", "at", "above"]),
       st.sampled_from([1e-8, 0.1, 0.25, 3e19]), st.integers(0, 2 ** 32 - 1),
       st.data())
def test_write_table_with_axes_matches_the_mesh_columns(
        tmp_path_factory, ncols, edge, step, seed, data):
    # a block holds _BLOCK_VALUES // (ncols + 2) lines, x and y included:
    # one line under, at and over a whole block, on any grid of that many
    # points. The axes hold -0.0, and steps of 1e-8 and 3e19 are scaled by
    # a 10^s that is no double
    lines = floatfmt._BLOCK_VALUES // (ncols + 2)
    points = {"below": lines - 1, "at": lines, "above": lines + 1}[edge]
    ny = data.draw(st.sampled_from(divisors(points)), label="ny")
    nx = points // ny
    xs = (np.arange(nx) - nx // 2) * step
    ys = (np.arange(ny) - ny // 3) * step / 3.0
    xs[xs == 0.0] = -0.0
    ys[ys == 0.0] = -0.0
    rng = np.random.default_rng(seed)
    shape = (ncols, nx, ny)
    pick = rng.integers(0, 3, shape)
    columns = np.select(
        [pick == 0, pick == 1],
        [rng.integers(0, 2 ** 64, shape, dtype=np.uint64).view(np.float64),
         rng.standard_normal(shape) * 10.0 ** rng.integers(-20, 20, shape)],
        rng.choice(np.array([np.nan, 0.0, -0.0, np.inf, -np.inf, 5e-324,
                             -2.2e-310, 1e300, -1e300]), shape))
    path = tmp_path_factory.mktemp("axes") / "table.csv"
    names = ["x", "y"] + [f"c{k}" for k in range(ncols)]
    write_table(path, f"# minmaps t csv v1\n{','.join(names)}\n", columns,
                axes=(xs, ys))
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    assert path.read_bytes() == table_bytes("t", names, [X, Y, *columns])
