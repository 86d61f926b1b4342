"""Conformal surface charts: metrics rho^2 (dx^2 + dy^2) on planar domains.

A surface is represented by a single rectangular chart carrying a conformal
factor rho > 0. With u = log(rho) the geometry is closed-form:

    Gauss curvature   K = -rho^(-2) * (u_xx + u_yy)
    Christoffels      G^1_11 = u_x   G^1_12 = u_y   G^1_22 = -u_x
                      G^2_11 = -u_y  G^2_12 = u_x   G^2_22 = u_y

Built-in factors use these closed forms; custom expression factors
differentiate log rho symbolically, so their curvature and Christoffels are
exact too.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from . import stencils
from .errors import ChartDomainError, ConfigError, NumericalError
from .expressions import BinOp, Call, Node, Program, compile_expr, diff, parse_scalar

__all__ = [
    "FactorKind", "ConformalMetric", "GridChart", "TheoremHypotheses",
]


class FactorKind(enum.Enum):
    EUCLIDEAN = "euclidean"
    POINCARE_DISC = "poincare_disc"
    HYPERBOLIC_SCALED = "hyperbolic_scaled"
    SPHERE_STEREOGRAPHIC = "sphere_stereographic"
    CUSTOM = "custom"


@dataclass(frozen=True)
class ConformalMetric:
    """Conformal factor on a planar chart.

    Presets:
      EUCLIDEAN             rho = 1                      K = 0
      POINCARE_DISC         rho = 2/(1-r^2), r < 1       K = -1
      HYPERBOLIC_SCALED     rho = 2/(sqrt(s)(1-r^2))     K = -s   (s = sigma > 0)
      SPHERE_STEREOGRAPHIC  rho = 2/(1+r^2)              K = +1
      CUSTOM                rho from an expression of x, y.
    """

    kind: FactorKind
    sigma: float = 1.0
    expr: Optional[Node] = None

    def __post_init__(self):
        if self.kind is FactorKind.HYPERBOLIC_SCALED and not self.sigma > 0:
            raise ConfigError("hyperbolic_scaled requires sigma > 0")
        if self.kind is FactorKind.CUSTOM and self.expr is None:
            raise ConfigError("custom factor needs an expression")

    # -------------------------------------------------------------- queries

    @property
    def disc_domain(self) -> bool:
        return self.kind in (FactorKind.POINCARE_DISC, FactorKind.HYPERBOLIC_SCALED)

    def contains(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        if self.disc_domain:
            return np.asarray(x) ** 2 + np.asarray(y) ** 2 < 1.0
        return np.ones(np.broadcast(x, y).shape, dtype=bool)

    def check_domain(self, x: np.ndarray, y: np.ndarray, what: str = "point") -> None:
        ok = self.contains(x, y)
        if not np.all(ok):
            r2 = np.asarray(x) ** 2 + np.asarray(y) ** 2
            raise ChartDomainError(
                f"{what} leaves the chart domain (max r = {float(np.sqrt(np.max(r2))):.6g} >= 1)")

    # ----------------------------------------------------------- evaluation

    def rho(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        if self.kind is FactorKind.EUCLIDEAN:
            return np.ones(np.broadcast(x, y).shape)
        if self.kind is FactorKind.POINCARE_DISC:
            self.check_domain(x, y)
            return 2.0 / (1.0 - x * x - y * y)
        if self.kind is FactorKind.HYPERBOLIC_SCALED:
            self.check_domain(x, y)
            return 2.0 / (math.sqrt(self.sigma) * (1.0 - x * x - y * y))
        if self.kind is FactorKind.SPHERE_STEREOGRAPHIC:
            return 2.0 / (1.0 + x * x + y * y)
        val = self._programs[0](x, y)
        if not np.all(val > 0):
            raise NumericalError("custom conformal factor must be positive")
        return val

    def log_rho_grad(self, x, y) -> tuple[np.ndarray, np.ndarray]:
        """(u_x, u_y) with u = log rho; closed form for presets."""
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        if self.kind is FactorKind.EUCLIDEAN:
            z = np.zeros(np.broadcast(x, y).shape)
            return z, z.copy()
        if self.disc_domain:
            self.check_domain(x, y)
            w = 1.0 - x * x - y * y
            return 2.0 * x / w, 2.0 * y / w
        if self.kind is FactorKind.SPHERE_STEREOGRAPHIC:
            w = 1.0 + x * x + y * y
            return -2.0 * x / w, -2.0 * y / w
        self.rho(x, y)  # positivity check
        return self._custom_log_rho_grad(x, y)

    def _custom_log_rho_grad(self, x, y) -> tuple[np.ndarray, np.ndarray]:
        """(u_x, u_y) of a custom factor whose rho is known positive at (x, y)."""
        _, ux, uy, _ = self._programs
        return ux(x, y), uy(x, y)

    @cached_property
    def _programs(self) -> tuple[Program, Program, Program, Program]:
        """rho and the symbolic u_x, u_y and u_xx + u_yy of u = log rho,
        compiled once (custom factors)."""
        u = Call("log", self.expr)
        ux, uy = diff(u, "x"), diff(u, "y")
        lap = BinOp("+", diff(ux, "x"), diff(uy, "y"))
        return tuple(compile_expr(n) for n in (self.expr, ux, uy, lap))

    # ------------------------------------------------------------- geometry

    def curvature(self, x, y) -> np.ndarray:
        """Gauss curvature K = -rho^(-2) Laplace(log rho). A preset's constant
        K comes as a read-only broadcast, which stores a single value."""
        constant = {FactorKind.EUCLIDEAN: 0.0, FactorKind.POINCARE_DISC: -1.0,
                    FactorKind.HYPERBOLIC_SCALED: -self.sigma,
                    FactorKind.SPHERE_STEREOGRAPHIC: 1.0}.get(self.kind)
        if constant is not None:
            if self.disc_domain:
                self.check_domain(x, y)
            return np.broadcast_to(constant, np.broadcast(np.asarray(x), np.asarray(y)).shape)
        return self._custom_curvature(x, y, self.rho(x, y) ** 2)

    def _custom_curvature(self, x, y, rho2: np.ndarray) -> np.ndarray:
        """K of a custom factor from its rho^2 sample at (x, y)."""
        return -self._programs[3](x, y) / rho2

    def metric_tensor(self, x, y) -> np.ndarray:
        """g = rho^2 I with shape (..., 2, 2)."""
        r2 = self.rho(x, y) ** 2
        g = np.zeros(r2.shape + (2, 2))
        g[..., 0, 0] = r2
        g[..., 1, 1] = r2
        return g

    def christoffel_tensor(self, x, y) -> np.ndarray:
        """Gamma[..., k, i, j] of the conformal metric."""
        ux, uy = self.log_rho_grad(x, y)
        G = np.zeros(ux.shape + (2, 2, 2))
        G[..., 0, 0, 0] = ux
        G[..., 0, 0, 1] = uy
        G[..., 0, 1, 0] = uy
        G[..., 0, 1, 1] = -ux
        G[..., 1, 0, 0] = -uy
        G[..., 1, 0, 1] = ux
        G[..., 1, 1, 0] = ux
        G[..., 1, 1, 1] = uy
        return G

    # ----------------------------------------------------------- constructors

    @classmethod
    def euclidean(cls) -> "ConformalMetric":
        return cls(FactorKind.EUCLIDEAN)

    @classmethod
    def poincare_disc(cls) -> "ConformalMetric":
        return cls(FactorKind.POINCARE_DISC)

    @classmethod
    def hyperbolic(cls, sigma: float) -> "ConformalMetric":
        return cls(FactorKind.HYPERBOLIC_SCALED, sigma=float(sigma))

    @classmethod
    def sphere(cls) -> "ConformalMetric":
        return cls(FactorKind.SPHERE_STEREOGRAPHIC)

    @classmethod
    def custom_expression(cls, text: str) -> "ConformalMetric":
        return cls(FactorKind.CUSTOM, expr=parse_scalar(text))


@dataclass(frozen=True)
class GridChart:
    """Uniform rectangular grid on [x0, x1] x [y0, y1], both endpoints
    included (nx points, spacing (x1-x0)/(nx-1)); hx and hy may differ. The
    outer ring carries the Dirichlet data. No chart glues opposite edges:
    that makes a torus, whose total curvature is 0 by Gauss-Bonnet, so it
    could not carry K < 0 everywhere."""

    x0: float
    x1: float
    y0: float
    y1: float
    nx: int
    ny: int

    def __post_init__(self):
        if self.nx < 5 or self.ny < 5:
            raise ConfigError("grids need nx, ny >= 5 so width-5 nested stencils fit")
        if not (0 < self.x1 - self.x0 < math.inf and 0 < self.y1 - self.y0 < math.inf):
            raise ConfigError("grid extent must be finite and non-empty")

    @property
    def hx(self) -> float:
        return (self.x1 - self.x0) / (self.nx - 1)

    @property
    def hy(self) -> float:
        return (self.y1 - self.y0) / (self.ny - 1)

    @property
    def h(self) -> float:
        """Reporting spacing: the coarser of the two."""
        return max(self.hx, self.hy)

    @property
    def xs(self) -> np.ndarray:
        return self.x0 + self.hx * np.arange(self.nx)

    @property
    def ys(self) -> np.ndarray:
        return self.y0 + self.hy * np.arange(self.ny)

    def mesh(self) -> tuple[np.ndarray, np.ndarray]:
        """(X, Y) with X[i, j] = x_i, Y[i, j] = y_j: built once per chart and
        shared, so read only."""
        return self._mesh

    @cached_property
    def _mesh(self) -> tuple[np.ndarray, np.ndarray]:
        X, Y = np.meshgrid(self.xs, self.ys, indexing="ij")
        X.flags.writeable = Y.flags.writeable = False
        return X, Y

    @property
    def cell_area(self) -> float:
        return self.hx * self.hy

    def point(self, i: int, j: int) -> tuple[float, float]:
        return float(self.x0 + i * self.hx), float(self.y0 + j * self.hy)

    def refine(self) -> "GridChart":
        """Halve both spacings (double resolution)."""
        return GridChart(self.x0, self.x1, self.y0, self.y1,
                         2 * self.nx - 1, 2 * self.ny - 1)

    # stencil helpers bound to this grid's spacings
    def d_x(self, f): return stencils.d_x(f, self.hx)
    def d_y(self, f): return stencils.d_y(f, self.hy)
    def d_xx(self, f): return stencils.d_xx(f, self.hx)
    def d_yy(self, f): return stencils.d_yy(f, self.hy)
    def d_xy(self, f): return stencils.d_xy(f, self.hx, self.hy)


@dataclass(frozen=True)
class TheoremHypotheses:
    """Curvature bounds sigma, beta with sigma > 0, beta >= sigma.

    A source/target pair satisfies them on a grid when

        min K_M >= -sigma,   max K_N <= -sigma,   min K_N >= -beta,

    with K_M over grid points and K_N over image points.
    """

    sigma: float
    beta: float

    def __post_init__(self):
        if not self.sigma > 0:
            raise ConfigError("hypotheses require sigma > 0")
        if not self.beta >= self.sigma:
            raise ConfigError("hypotheses require beta >= sigma")
