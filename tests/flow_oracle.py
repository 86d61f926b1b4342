"""Reference kernels for the flow's solver.

The package's Laplacian preconditioner builds each sine transform's odd
extension in one transposed copy and runs the FFT along contiguous rows,
and its Anderson update computes one triangle of the secants' Gram matrix.
This module keeps the routes they replaced, as a test oracle: a sine
transform along any axis with the FFT taken across the lines, and the full
Gram matrix. Both must give the package's bytes.
"""

import numpy as np

from minmaps.flow import _SECANT_RIDGE, _symbol_sum


def sine_transform(v: np.ndarray, axis: int) -> np.ndarray:
    """Type-I discrete sine transform along one axis, from the real FFT of
    the odd extension (0, v, 0, -reversed v) along that axis."""
    v = np.moveaxis(v, axis, 0)
    m = v.shape[0]
    ext = np.zeros((2 * (m + 1),) + v.shape[1:])
    ext[1:m + 1] = v
    ext[m + 2:] = -v[::-1]
    out = -0.5 * np.fft.rfft(ext, axis=0)[1:m + 1].imag
    return np.moveaxis(out, 0, axis)


def solve_laplacian(rhs, coef, grid):
    """-coef Lap_h u = rhs on the interior, transforming x, then y."""
    denom = coef * _symbol_sum(grid.nx, grid.ny, grid.hx, grid.hy)
    denom = denom.reshape(denom.shape + (1,) * (rhs.ndim - 2))
    spec = sine_transform(sine_transform(rhs, 0), 1) / denom
    scale = 4.0 / ((grid.nx - 1) * (grid.ny - 1))
    return scale * sine_transform(sine_transform(spec, 0), 1)


def anderson(r, dxs, drs):
    """Type-II Anderson update with every entry of the Gram matrix summed."""
    gram = np.array([[np.einsum("i,i", a, b) for b in drs] for a in drs])
    gram += (_SECANT_RIDGE * gram.trace() + np.finfo(float).tiny) * np.eye(len(drs))
    gamma = np.linalg.solve(gram, np.array([np.einsum("i,i", d, r) for d in drs]))
    out = r.copy()
    for g, dx, dr in zip(gamma, dxs, drs):
        out -= g * (dx + dr)
    return out, len(drs)
