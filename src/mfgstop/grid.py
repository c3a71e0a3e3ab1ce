"""Uniform tensor grids with homogeneous Dirichlet boundaries, the discrete
elliptic operator -lap + id, the difference matrices of the gradient, L2
pairing, and contact-set classification.

Interior nodes are ordered lexicographically by axis (C order); boundary
nodes carry the value 0 and never appear in the unknown vector.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.sparse as sp

__all__ = [
    "Grid",
    "TimeGrid",
    "ScalarField",
    "FieldTrajectory",
    "NodeMask",
    "build_grid",
    "build_timegrid",
    "coarsen",
    "elliptic_matrix",
    "inner",
    "classify_nodes",
    "default_contact_threshold",
    "write_field_csv",
    "read_field_csv",
    "write_trajectory_csv",
    "read_trajectory_csv",
]

# Contact threshold defaults: relative to the obstacle gap, floored absolutely.
DELTA_C_REL = 1e-8
DELTA_C_FLOOR = 1e-12


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=float, copy=True)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class Grid:
    """Uniform grid on a box, interior nodes only (Dirichlet closure)."""

    dim: int
    bounds: tuple[tuple[float, float], ...]
    n_interior: tuple[int, ...]

    @property
    def spacing(self) -> tuple[float, ...]:
        return tuple(
            (b - a) / (n + 1) for (a, b), n in zip(self.bounds, self.n_interior)
        )

    @property
    def shape(self) -> tuple[int, ...]:
        return self.n_interior

    @property
    def n_total(self) -> int:
        return math.prod(self.n_interior)

    @property
    def cell_volume(self) -> float:
        return math.prod(self.spacing)

    def face_shape(self, axis: int) -> tuple[int, ...]:
        """Shape of the faces across axis, boundary faces included: the
        grid shape one longer along axis."""
        return tuple(n + (d == axis) for d, n in enumerate(self.shape))

    def axis_coordinates(self, axis: int) -> np.ndarray:
        a, b = self.bounds[axis]
        h = self.spacing[axis]
        return a + h * np.arange(1, self.n_interior[axis] + 1)

    def coordinates(self) -> np.ndarray:
        """Interior node coordinates, shape (n_total, dim), lexicographic."""
        axes = [self.axis_coordinates(k) for k in range(self.dim)]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([m.ravel(order="C") for m in mesh], axis=1)

    def metadata(self) -> dict:
        return {
            "dim": self.dim,
            "bounds": [list(b) for b in self.bounds],
            "n_interior": list(self.n_interior),
            "spacing": list(self.spacing),
        }


def _count(value, what: str) -> int:
    """value, a Python or NumPy integer (no bool, float or string), as an int."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return int(value)


def build_grid(dim, bounds, n_interior) -> Grid:
    """Validate and construct a Grid.

    bounds: (a, b) in 1D or a sequence of per-axis (a, b) pairs.
    n_interior: int or per-axis sequence, at least 3 nodes per axis.
    """
    dim = _count(dim, "dim")
    if dim not in (1, 2):
        raise ValueError(f"dim must be 1 or 2, got {dim}")
    b = np.asarray(bounds, dtype=float)
    if b.ndim == 1:
        b = b[None, :]
    if b.shape != (dim, 2):
        raise ValueError(f"bounds must give one (a, b) pair per axis, got {bounds!r}")
    if np.ndim(n_interior) == 0:
        n = (_count(n_interior, "n_interior"),) * dim
    else:
        n = tuple(_count(k, "n_interior") for k in n_interior)
    if len(n) != dim:
        raise ValueError("n_interior must match dim")
    if any(k < 3 for k in n):
        raise ValueError(f"need at least 3 interior nodes per axis, got {n}")
    if not (np.all(np.isfinite(b)) and np.all(b[:, 1] > b[:, 0])):
        raise ValueError(f"degenerate bounds {bounds!r}")
    return Grid(dim=dim, bounds=tuple((float(lo), float(hi)) for lo, hi in b), n_interior=n)


@dataclass(frozen=True)
class TimeGrid:
    """Uniform partition of [0, horizon] into n_steps implicit-Euler steps."""

    horizon: float
    n_steps: int

    @property
    def dt(self) -> float:
        return self.horizon / self.n_steps

    def times(self) -> np.ndarray:
        return np.linspace(0.0, self.horizon, self.n_steps + 1)


def build_timegrid(horizon: float, n_steps: int) -> TimeGrid:
    """ValueError unless horizon is a number in (0, inf) that a float
    can hold (an integer past the float range is not) and n_steps an
    integer >= 1."""
    if not (0 < horizon < np.inf and _count(n_steps, "n_steps") >= 1):
        raise ValueError(f"need a finite horizon > 0 and n_steps >= 1, got {horizon}, {n_steps}")
    try:
        return TimeGrid(horizon=float(horizon), n_steps=int(n_steps))
    except OverflowError:
        raise ValueError("the horizon is too large for a float") from None


@dataclass(frozen=True, eq=False)
class ScalarField:
    """Nodal values on the interior of a grid (read-only array)."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        v = _readonly(self.values)
        if v.shape != (self.grid.n_total,):
            raise ValueError(f"expected {self.grid.n_total} values, got shape {v.shape}")
        object.__setattr__(self, "values", v)

    @staticmethod
    def constant(grid: Grid, value: float) -> "ScalarField":
        return ScalarField(grid, np.full(grid.n_total, float(value)))

    @staticmethod
    def zeros(grid: Grid) -> "ScalarField":
        return ScalarField.constant(grid, 0.0)

    def max_abs(self) -> float:
        return float(np.max(np.abs(self.values))) if self.values.size else 0.0


@dataclass(frozen=True, eq=False)
class FieldTrajectory:
    """Nodal values at time levels 0..n_steps on one grid: a read-only
    (n_steps + 1, n_total) array, row k holding time level k."""

    grid: Grid
    timegrid: TimeGrid
    values: np.ndarray

    def __post_init__(self):
        v = _readonly(self.values)
        shape = (self.timegrid.n_steps + 1, self.grid.n_total)
        if v.shape != shape:
            raise ValueError(f"expected shape {shape}, got {v.shape}")
        object.__setattr__(self, "values", v)

    def array(self) -> np.ndarray:
        """The stored (n_steps + 1, n_total) array itself (read-only)."""
        return self.values

    @staticmethod
    def constant(grid: Grid, timegrid: TimeGrid, value: float) -> "FieldTrajectory":
        return FieldTrajectory(
            grid, timegrid, np.full((timegrid.n_steps + 1, grid.n_total), float(value))
        )


@dataclass(frozen=True, eq=False)
class NodeMask:
    """Boolean flag per interior node."""

    grid: Grid
    mask: np.ndarray

    def __post_init__(self):
        m = np.array(self.mask, dtype=bool, copy=True)
        m.setflags(write=False)
        if m.shape != (self.grid.n_total,):
            raise ValueError(f"expected {self.grid.n_total} flags, got shape {m.shape}")
        object.__setattr__(self, "mask", m)


def _on_grid(grid: Grid, timegrid: TimeGrid | None, *items) -> Grid:
    """The one grid check of the package: grid, after checking that every
    item with a grid (None skipped) lies on grid and has the time grid
    timegrid if it has one (None: no trajectory); else a ValueError that
    names the first grid or time grid that differs."""
    for item in items:
        if item is None:
            continue
        for have, want in ((item.grid, grid), (getattr(item, "timegrid", timegrid), timegrid)):
            if have != want:
                raise ValueError(f"the data must share one grid and time grid: {have} "
                                 f"differs from {want}")
    return grid


def _neg_laplacian(grid: Grid) -> sp.csr_matrix:
    """-lap with the 3-point (1D) / 5-point (2D) stencil, Dirichlet closure."""
    blocks = []
    for n, h in zip(grid.n_interior, grid.spacing):
        main = np.full(n, 2.0 / h**2)
        off = np.full(n - 1, -1.0 / h**2)
        blocks.append(sp.diags([off, main, off], [-1, 0, 1], format="csr"))
    if grid.dim == 1:
        return blocks[0].tocsr()
    eyes = [sp.identity(n, format="csr") for n in grid.n_interior]
    return (sp.kron(blocks[0], eyes[1]) + sp.kron(eyes[0], blocks[1])).tocsr()


@lru_cache(maxsize=None)
def coarsen(grid: Grid):
    """The grid of every second node of grid and the maps between the two.

    Every axis of grid must have an odd n = 2 n_c + 1 interior nodes; the
    coarse grid has n_c on the same box, its node j at grid's node
    2 j + 1. Returns (coarse, restrict, prolong): restrict(field) takes a
    field of grid to its values at the coarse nodes (injection), and
    prolong(field) interpolates a coarse field (bi)linearly onto grid,
    with the zero boundary, by the kron of the per-axis interpolations.
    """
    if any(n % 2 == 0 for n in grid.n_interior):
        raise ValueError(f"coarsening needs an odd node count per axis, got {grid.n_interior}")
    coarse = build_grid(grid.dim, grid.bounds, [n // 2 for n in grid.n_interior])
    axes = []
    for n_c in coarse.n_interior:
        cols = np.arange(n_c)
        axes.append(sp.csr_matrix(
            (np.repeat([0.5, 1.0, 0.5], n_c), (np.concatenate([2 * cols, 2 * cols + 1, 2 * cols + 2]),
                                               np.tile(cols, 3))),
            shape=(2 * n_c + 1, n_c)))
    interpolate = axes[0]
    for axis in axes[1:]:
        interpolate = sp.kron(interpolate, axis)
    interpolate = interpolate.tocsr()
    every_second = (slice(1, None, 2),) * grid.dim

    def restrict(field: ScalarField) -> ScalarField:
        _on_grid(grid, None, field)
        return ScalarField(coarse, field.values.reshape(grid.shape)[every_second].ravel())

    def prolong(field: ScalarField) -> ScalarField:
        _on_grid(coarse, None, field)
        return ScalarField(grid, interpolate @ field.values)

    return coarse, restrict, prolong


def elliptic_matrix(grid: Grid, with_zero_order: bool = True) -> sp.csr_matrix:
    """The operator -lap (+ id when with_zero_order) as a sparse matrix;
    cached per grid and operator, whatever the form of the call."""
    return _elliptic_matrix(grid, bool(with_zero_order))


@lru_cache(maxsize=None)
def _elliptic_matrix(grid: Grid, with_zero_order: bool) -> sp.csr_matrix:
    a = _neg_laplacian(grid)
    if with_zero_order:
        a = (a + sp.identity(grid.n_total, format="csr")).tocsr()
    return a


@lru_cache(maxsize=None)
def _face_nodes(grid: Grid, axis: int):
    """Flat indices of the nodes left and right of every axis face (in
    the face order of one time step of a FaceVelocities component), -1
    for outside the grid; cached, read-only."""
    flat = np.arange(grid.n_total).reshape(grid.shape)
    padded = np.pad(flat, [(1, 1) if d == axis else (0, 0) for d in range(grid.dim)],
                    constant_values=-1)
    n = grid.shape[axis]
    out = (np.take(padded, range(0, n + 1), axis=axis).ravel(),
           np.take(padded, range(1, n + 2), axis=axis).ravel())
    for a in out:
        a.setflags(write=False)
    return out


@lru_cache(maxsize=None)
def _gradient_matrices(grid: Grid):
    """Difference matrices with Dirichlet closure (outside values 0);
    cached and shared, so callers must not modify them.

    Returns per axis a: the backward and forward differences along a at
    the nodes (N x N); the gradient on the faces of axis a, one
    (faces x N) matrix per component: the face difference
    D = (S_R - S_L) / h along a and, across it (2D), the mean of the
    nodal central differences of the face's two nodes (a boundary face
    takes its one node); and the selectors (S_L, S_R) of the node left
    and right of every face (faces x N, zero rows outside the grid).
    """
    n = grid.n_total
    face_diff, one_sided, selectors = [], [], []
    for axis in range(grid.dim):
        nodes = _face_nodes(grid, axis)
        faces = np.arange(len(nodes[0]))
        selectors.append(tuple(
            sp.csr_matrix((np.ones(np.count_nonzero(side >= 0)),
                           (faces[side >= 0], side[side >= 0])), shape=(len(faces), n))
            for side in nodes))
        face_diff.append((selectors[axis][1] - selectors[axis][0]) / grid.spacing[axis])
        # the difference on the face left and on the face right of a node
        face_idx = faces.reshape(grid.face_shape(axis))
        n_axis = grid.shape[axis]
        one_sided.append(tuple(
            sp.csr_matrix((np.ones(n), (np.arange(n), np.take(face_idx, sel, axis=axis).ravel())),
                          shape=(n, len(faces))) @ face_diff[axis]
            for sel in (range(0, n_axis), range(1, n_axis + 1))))
    face_grad = []
    for axis in range(grid.dim):
        left, right = _face_nodes(grid, axis)
        near = np.concatenate([np.where(left >= 0, left, right), np.where(right >= 0, right, left)])
        mean = sp.csr_matrix((np.full(len(near), 0.5), (np.tile(np.arange(len(left)), 2), near)),
                             shape=(len(left), n))
        face_grad.append(tuple(
            face_diff[axis] if other == axis
            else (mean @ (0.5 * (one_sided[other][0] + one_sided[other][1]))).tocsr()
            for other in range(grid.dim)))
    return tuple(one_sided), tuple(face_grad), tuple(selectors)


def inner(f: ScalarField, g: ScalarField) -> float:
    """Discrete L2 pairing: sum of products times the cell volume."""
    grid = _on_grid(f.grid, None, g)
    return float(np.dot(f.values, g.values) * grid.cell_volume)


def default_contact_threshold(u_values: np.ndarray, psi_values: np.ndarray) -> float:
    """The contact threshold of every verifier given none: DELTA_C_REL
    times the largest gap |psi - u|, floored at DELTA_C_FLOOR."""
    gap = float(np.max(np.abs(psi_values - u_values))) if len(u_values) else 0.0
    return max(DELTA_C_FLOOR, DELTA_C_REL * gap)


def classify_nodes(u: ScalarField):
    """Split nodes into (continuation, contact) by u < -delta_c.

    Returns two complementary NodeMasks. delta_c is the
    default_contact_threshold of u against the zero obstacle, a small
    fraction of |u|_inf floored at an absolute level; exact equality
    u = 0 is never reliable in floating point.
    """
    cont = u.values < -default_contact_threshold(u.values, np.zeros_like(u.values))
    return NodeMask(u.grid, cont), NodeMask(u.grid, ~cont)


# ---------------------------------------------------------------------------
# CSV serialization: header x[,y],value; one row per interior node,
# lexicographic order; every cell "%.17g", so values read back exactly.
# Blank lines are skipped; there is no comment syntax. Trajectories get
# one CSV per slice plus a manifest. The coordinate cells are formatted
# once per grid and kept (_table_template); each file formats only its
# values.

def _csv_header(dim: int) -> str:
    return ",".join(["x", "y"][:dim] + ["value"])


@lru_cache(maxsize=None)
def _table_template(grid: Grid) -> str:
    """The text of a field CSV on grid: the header, then one row per node
    with its coordinates formatted and a "%.17g" slot for its value."""
    row = "%.17g," * grid.dim + "%%.17g\n"
    body = row * grid.n_total % tuple(grid.coordinates().ravel().tolist())
    return _csv_header(grid.dim) + "\n" + body


def _write_table(path, grid: Grid, values: np.ndarray) -> None:
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(_table_template(grid) % tuple(values.tolist()))


def _read_table(grid: Grid, path) -> np.ndarray:
    """The (n_total, dim + 1) body of a field CSV, header and shape checked."""
    with open(path, "r", encoding="ascii") as fh:
        lines = [ln for ln in map(str.strip, fh.read().split("\n")) if ln]
    if not lines:
        raise ValueError(f"empty field file: {path}")
    expected_header = _csv_header(grid.dim)
    if lines[0] != expected_header:
        raise ValueError(f"bad header in {path}: {lines[0]!r} (expected {expected_header!r})")
    data = np.empty((0, 0))
    if len(lines) > 1:
        try:
            data = np.loadtxt(lines[1:], delimiter=",", comments=None, ndmin=2, dtype=float)
        except ValueError as err:
            raise ValueError(f"cannot parse field file {path}: {err}") from None
    if data.shape != (grid.n_total, grid.dim + 1):
        raise ValueError(
            f"field file {path} has shape {data.shape}, grid needs {(grid.n_total, grid.dim + 1)}"
        )
    return data


def _check_coordinates(grid: Grid, tables: np.ndarray, paths) -> None:
    """Raise on the first of the stacked (files, n_total, dim + 1) tables
    whose node coordinates differ from the grid's."""
    coords = grid.coordinates()
    close = np.isclose(tables[..., : grid.dim], coords, atol=1e-12 * (1 + np.abs(coords).max()))
    for path, ok in zip(paths, close.all(axis=(1, 2))):
        if not ok:
            raise ValueError(f"node coordinates in {path} do not match the grid")


def write_field_csv(field: ScalarField, path) -> None:
    _write_table(path, field.grid, field.values)


def read_field_csv(grid: Grid, path) -> ScalarField:
    data = _read_table(grid, path)
    _check_coordinates(grid, data[None], [path])
    return ScalarField(grid, data[:, -1])


def write_trajectory_csv(traj: FieldTrajectory, directory, prefix: str) -> str:
    """Write slice CSVs plus a JSON manifest; returns the manifest path."""
    os.makedirs(directory, exist_ok=True)
    files = []
    for k, row in enumerate(traj.array()):
        name = f"{prefix}_{k:04d}.csv"
        _write_table(os.path.join(directory, name), traj.grid, row)
        files.append(name)
    manifest = {
        "prefix": prefix,
        "horizon": traj.timegrid.horizon,
        "n_steps": traj.timegrid.n_steps,
        "files": files,
    }
    mpath = os.path.join(directory, f"{prefix}_manifest.json")
    with open(mpath, "w", encoding="ascii", newline="\n") as fh:
        json.dump(manifest, fh, sort_keys=True, indent=1)
        fh.write("\n")
    return mpath


def read_trajectory_csv(grid: Grid, manifest_path) -> FieldTrajectory:
    """Read a trajectory written by write_trajectory_csv; ValueError on a
    manifest that lacks a list `files` of plain file names in the
    manifest's directory, an int `n_steps`, a number `horizon`."""
    with open(manifest_path, "r", encoding="ascii") as fh:
        manifest = json.load(fh)
    if not (isinstance(manifest, dict)
            and isinstance(manifest.get("files"), list)
            and all(isinstance(name, str) and os.path.basename(name) == name
                    and name not in ("", ".", "..") for name in manifest["files"])
            and type(manifest.get("n_steps")) is int
            and type(manifest.get("horizon")) in (int, float)):
        raise ValueError(f"malformed trajectory manifest {manifest_path}: need an object "
                         "with a list 'files' of plain file names, an integer 'n_steps' "
                         "and a number 'horizon'")
    tg = build_timegrid(manifest["horizon"], manifest["n_steps"])
    base = os.path.dirname(manifest_path)
    paths = [os.path.join(base, name) for name in manifest["files"]]
    tables = np.array([_read_table(grid, p) for p in paths])
    tables = tables.reshape(len(paths), grid.n_total, grid.dim + 1)
    _check_coordinates(grid, tables, paths)
    return FieldTrajectory(grid, tg, tables[:, :, -1])
