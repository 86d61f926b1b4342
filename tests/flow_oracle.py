"""Reference kernels for the flow's solver.

The package's Laplacian preconditioner builds each sine transform's odd
extension in one transposed copy and runs the FFT along contiguous rows,
its Anderson update computes one triangle of the secants' Gram matrix, and
its step divides the tension by max eig(g^-1) at each point before the
solve. This module keeps the routes they replaced, as a test oracle: a sine
transform along any axis with the FFT taken across the lines, the full
Gram matrix, and the step with one coefficient, a = max eig(g^-1) over the
whole grid. The first two must give the package's bytes; the step reaches
the same minimal map in no fewer iterations.
"""

import numpy as np

from minmaps import flow
from minmaps.errors import ChartDomainError, NumericalError
from minmaps.flow import _INTERIOR, _SECANT_RIDGE, _symbol_sum


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


def global_coefficient_step(state, config):
    """`flow.step` with r = (-a Lap_h)^-1 tau for the one coefficient
    a = max eig(g^-1) over the interior; the mixing, the guards and the
    history are the package's."""
    current = state.map
    tp = current.tension
    shape = current.values[_INTERIOR].shape
    r = solve_laplacian(tp.tau[_INTERIOR], float(np.max(tp.eig_max)),
                        current.grid).reshape(-1)
    dxs, drs = flow._take_secants(state, r)
    mixed, depth = flow._anderson(r, dxs, drs) if dxs else (r, 0)

    limit = flow.REJECT_TENSION_FACTOR * max(tp.norm_tau, config.stop_tension)
    length, update = 1.0, mixed
    exits = jumps = 0
    while True:
        candidate = current.values.copy()
        candidate[_INTERIOR] += update.reshape(shape)
        try:
            new_map = current.with_values(candidate)
        except ChartDomainError:
            exits += 1
        else:
            if new_map.tension.norm_tau <= limit:
                break
            jumps += 1
        length *= 0.5
        if length < flow.LENGTH_UNDERFLOW:
            raise NumericalError("flow stalled")
        update = length * r

    state.map, state.dt = new_map, length
    state.steps += 1
    if exits + jumps:
        depth = 0
    else:
        state._secants = flow._Secants(new_map, r, dxs + [mixed], drs)
    state.monitors.append(flow._row(state, depth, exits, jumps))
    return state
