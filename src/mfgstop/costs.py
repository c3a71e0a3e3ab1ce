"""Cost operators m -> f(x, m) with monotonicity metadata, the optional
antiderivative whose integral the variational route minimizes, and the
per-node zero crossing that seeds that route's start.

Monotonicity tags are derived from parameter signs at construction:
local power laws with a > 0 are strictly monotone in the order sense
(m1 <= m2 nodewise implies f(m1) <= f(m2)), negative coupling flips it.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace

import numpy as np

from .grid import Grid, ScalarField, _on_grid

__all__ = ["CostOperator", "PotentialOperator"]

STRICT_MONOTONE = "strict_monotone"
ANTI_MONOTONE = "anti_monotone"
NEITHER = "neither"


@dataclass(frozen=True, eq=False)
class CostOperator:
    """One of three cost families.

    local_power:          f(x, m) = a * m(x)**p + f0(x)
    nonlocal_affine:      f(x, m) = c0 + c1 * <w, m>   (spatially constant)
    local_affine_shifted: f(x, m) = base(x) + m(x) - m_ref(x)
    """

    kind: str
    grid: Grid
    a: float = 0.0
    p: float = 1.0
    f0: ScalarField | None = None
    c0: float = 0.0
    c1: float = 0.0
    weight: ScalarField | None = None
    base: ScalarField | None = None
    m_ref: ScalarField | None = None

    def __post_init__(self):
        _on_grid(self.grid, None, self.f0, self.weight, self.base, self.m_ref)

    @staticmethod
    def local_power(grid: Grid, a: float, p: float, f0: ScalarField) -> "CostOperator":
        if not 1 <= p < np.inf:
            raise ValueError(f"exponent p must be >= 1 and finite, got {p!r}")
        if not np.isfinite(a):
            raise ValueError(f"coefficient a must be finite, got {a!r}")
        return CostOperator(kind="local_power", grid=grid, a=float(a), p=float(p), f0=f0)

    @staticmethod
    def nonlocal_affine(grid: Grid, c0: float, c1: float, weight: ScalarField) -> "CostOperator":
        for name, c in (("c0", c0), ("c1", c1)):
            if not np.isfinite(c):
                raise ValueError(f"coefficient {name} must be finite, got {c!r}")
        return CostOperator(kind="nonlocal_affine", grid=grid, c0=float(c0), c1=float(c1), weight=weight)

    @staticmethod
    def local_affine_shifted(grid: Grid, base: ScalarField, m_ref: ScalarField) -> "CostOperator":
        return CostOperator(kind="local_affine_shifted", grid=grid, base=base, m_ref=m_ref)

    @property
    def is_local(self) -> bool:
        return self.kind in ("local_power", "local_affine_shifted")

    @property
    def monotonicity(self) -> str:
        if self.kind == "local_power":
            if self.a > 0:
                return STRICT_MONOTONE
            if self.a < 0:
                return ANTI_MONOTONE
            return NEITHER
        if self.kind == "local_affine_shifted":
            return STRICT_MONOTONE
        w_nonneg = bool(np.all(self.weight.values >= 0))
        if w_nonneg and self.c1 > 0:
            return STRICT_MONOTONE
        if w_nonneg and self.c1 < 0:
            return ANTI_MONOTONE
        return NEITHER

    def evaluate(self, m_values: np.ndarray) -> np.ndarray:
        """f(m) of the density m_values, shaped (N,), or of each row of
        a (K, N) array: nodewise for the local kinds, and for
        nonlocal_affine c0 + c1 <w, m_k> on every node of row k."""
        m_values = np.asarray(m_values, dtype=float)
        if self.kind == "local_power":
            return self.a * np.power(m_values, self.p) + self.f0.values
        if self.kind == "local_affine_shifted":
            return self.base.values + m_values - self.m_ref.values
        pairing = np.dot(m_values, self.weight.values) * self.grid.cell_volume
        return np.full(m_values.shape, np.expand_dims(self.c0 + self.c1 * pairing, -1))

    def __call__(self, m: ScalarField) -> ScalarField:
        return ScalarField(_on_grid(self.grid, None, m), self.evaluate(m.values))

    def zero_crossing(self) -> np.ndarray | None:
        """Per-node m0 >= 0 with f(x, m0) = 0, for local kinds.

        Nodes where f(x, 0) >= 0 get 0; nodes where f(x, m) < 0 for
        every m >= 0 get +inf. Returns None for nonlocal costs, which
        have no nodal zero crossing.
        """
        if not self.is_local:
            return None
        if self.kind == "local_affine_shifted":
            return np.maximum(self.m_ref.values - self.base.values, 0.0)
        f0 = self.f0.values
        out = np.zeros(self.grid.n_total)
        if self.a != 0:
            reach = f0 < 0 if self.a > 0 else f0 > 0
            out[reach] = np.power(-f0[reach] / self.a, 1.0 / self.p)
        if self.a <= 0:
            out[f0 < 0] = np.inf
        return out

    def derivative(self, m_values: np.ndarray) -> np.ndarray | None:
        """Nodewise df/dm for local kinds (None for nonlocal)."""
        if not self.is_local:
            return None
        m_values = np.asarray(m_values, dtype=float)
        if self.kind == "local_affine_shifted":
            return np.ones_like(m_values)
        if self.p == 1.0:
            return np.full_like(m_values, self.a)
        return self.a * self.p * np.power(np.maximum(m_values, 0.0), self.p - 1.0)

    def restricted(self, grid: Grid, restrict) -> "CostOperator":
        """This cost on grid, each field parameter (f0, weight, base,
        m_ref) mapped onto it by restrict (a ScalarField map)."""
        return replace(self, grid=grid, **{
            f.name: restrict(getattr(self, f.name)) for f in fields(self)
            if isinstance(getattr(self, f.name), ScalarField)})

    def potential(self) -> "PotentialOperator | None":
        """Antiderivative in m, when one exists in closed form."""
        return PotentialOperator(self) if self.is_local else None


@dataclass(frozen=True, eq=False)
class PotentialOperator:
    """Nodal antiderivative F with dF/dm = f, for local costs."""

    cost: CostOperator

    def __post_init__(self):
        if not self.cost.is_local:
            raise ValueError("potentials exist only for local costs")

    @property
    def grid(self) -> Grid:
        return self.cost.grid

    def evaluate(self, m_values: np.ndarray) -> np.ndarray:
        m_values = np.asarray(m_values, dtype=float)
        c = self.cost
        if c.kind == "local_power":
            return c.a * np.power(m_values, c.p + 1) / (c.p + 1) + c.f0.values * m_values
        return c.base.values * m_values + 0.5 * (m_values - c.m_ref.values) ** 2
