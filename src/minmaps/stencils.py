"""Order-2 central finite-difference stencils on rectangular grids.

Fields are arrays indexed ``[i, j]`` with ``i`` along x and ``j`` along y.
Every differentiation loses one ring of validity; lost entries are NaN,
so validity tracking composes automatically through arithmetic.
"""

from __future__ import annotations

import numpy as np


def d_x(f: np.ndarray, hx: float) -> np.ndarray:
    out = np.full_like(f, np.nan)
    out[1:-1, :] = (f[2:, :] - f[:-2, :]) / (2.0 * hx)
    return out


def d_y(f: np.ndarray, hy: float) -> np.ndarray:
    out = np.full_like(f, np.nan)
    out[:, 1:-1] = (f[:, 2:] - f[:, :-2]) / (2.0 * hy)
    return out


def d_xx(f: np.ndarray, hx: float) -> np.ndarray:
    out = np.full_like(f, np.nan)
    out[1:-1, :] = (f[2:, :] - 2.0 * f[1:-1, :] + f[:-2, :]) / (hx * hx)
    return out


def d_yy(f: np.ndarray, hy: float) -> np.ndarray:
    out = np.full_like(f, np.nan)
    out[:, 1:-1] = (f[:, 2:] - 2.0 * f[:, 1:-1] + f[:, :-2]) / (hy * hy)
    return out


def d_xy(f: np.ndarray, hx: float, hy: float) -> np.ndarray:
    # symmetric 4-point cross stencil
    out = np.full_like(f, np.nan)
    out[1:-1, 1:-1] = (f[2:, 2:] - f[2:, :-2] - f[:-2, 2:] + f[:-2, :-2]) / (4.0 * hx * hy)
    return out


def finite_abs_max(a: np.ndarray) -> float:
    """Max of |a| over finite entries; 0.0 when nothing is finite."""
    m = np.isfinite(a)
    if not m.any():
        return 0.0
    return float(np.max(np.abs(a[m])))


def finite_l2(a: np.ndarray, cell_area: float) -> float:
    """Grid-scaled L2 norm sqrt(sum a^2 * dA) over finite entries."""
    m = np.isfinite(a)
    if not m.any():
        return 0.0
    return float(np.sqrt(np.sum(a[m] ** 2) * cell_area))

