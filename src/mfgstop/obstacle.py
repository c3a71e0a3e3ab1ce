"""The stationary obstacle problem for the value function, by
semismooth Newton on its min form; the semismooth Newton driver shared
by every solve of the package, with its two Jacobian assemblers; and
the factorizations behind every direct solve: banded Cholesky of the
shifted operators B + diag(d), banded LU and SuperLU of the rest.

Sign convention throughout: solve max(L u - f, u - psi) = 0, i.e.
u <= psi, L u - f <= 0, with equality in at least one branch per node.
The complementarity residual is reported in min form,
``min(psi - u, f - L u)``.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import block_diag as dense_block_diag
from scipy.linalg.lapack import dgbtrf, dgbtrs, dpbtrf, dpbtrs
from scipy.sparse.csgraph import reverse_cuthill_mckee

from .grid import ScalarField, _on_grid, elliptic_matrix

__all__ = [
    "ObstacleConvergenceError",
    "solve_obstacle_stationary",
    "semismooth_newton",
    "diagonal_update",
    "row_select",
    "complementarity_residual",
]


class ObstacleConvergenceError(RuntimeError):
    def __init__(self, message: str, residual: float, iterations: int):
        super().__init__(f"{message} (residual {residual:.3e} after {iterations} iterations)")
        self.residual = residual
        self.iterations = iterations


def complementarity_residual(matrix, u: np.ndarray, f: np.ndarray, psi: np.ndarray) -> float:
    """Max-norm of min(psi - u, f - M u)."""
    r = np.minimum(psi - u, f - matrix @ u)
    return float(np.max(np.abs(r))) if r.size else 0.0


# Residual tolerance and Newton step cap of the obstacle solves (see
# _obstacle_newton for how the exact solves scale the tolerance)
_TOL = 1e-10
_MAX_ITER = 200

# Fill per column of an elimination order's stand-in factor below which
# _lu_factor factors with SuperLU panels one column wide (see _lu_factor)
_NARROW_PANEL_FILL = 128.0

# Half-bandwidth up to which a matrix is factored by banded LAPACK
# rather than SuperLU: B + diag(d), B = -lap + I/dt in the lexicographic
# node order, by banded Cholesky (see _shifted_factor), and a
# diagonal_update pattern in its reverse Cuthill-McKee order, below and
# above the diagonal, by banded LU (see _lu_factor)
_BAND_MAX = 64


@dataclass(frozen=True, eq=False)
class _EliminationOrder:
    """The fill-reducing order of a pattern: matrix[perm][:, perm] has
    CSC structure (indptr, indices) and data matrix.data[gather]; fill
    is (L.nnz + U.nnz) / n of the stand-in's factor in this order."""

    perm: np.ndarray
    indptr: np.ndarray
    indices: np.ndarray
    gather: np.ndarray
    fill: float


@dataclass(frozen=True, eq=False)
class _BandOrder:
    """The bandwidth-reducing order of a pattern: matrix[perm][:, perm]
    has kl entries below and ku above the diagonal, and its LAPACK band
    storage for dgbtrf, the Fortran-ordered (2 kl + ku + 1, n) array
    with row kl + ku + i - j of column j holding entry (i, j), is zero
    but at the flat positions scatter, which take matrix.data."""

    perm: np.ndarray
    kl: int
    ku: int
    scatter: np.ndarray


def _elimination_order(shape, indptr, indices):
    """The order in which _lu_factor factors the matrices of the square
    CSC pattern (indptr, indices): a _BandOrder where the reverse
    Cuthill-McKee order of the pattern of A + A^T leaves at most
    _BAND_MAX entries below and above the diagonal, the MMD_AT_PLUS_A
    _EliminationOrder otherwise.

    For the latter SuperLU orders a stand-in matrix: the pattern with
    unit entries and a dominant diagonal, so the order depends on the
    pattern alone and the stand-in always factors. In SymmetricMode
    SuperLU does not postorder the ordering, so factoring
    matrix[perm][:, perm] with the NATURAL order is this factorization
    of matrix up to round-off. The stand-in's factor also gives the fill
    per column of the order, on which _lu_factor chooses its panel
    width: the stand-in pivots on its diagonal, so this is the fill of
    the pattern itself, without the rows that partial pivoting of a
    matrix's values may swap in.
    """
    n = shape[0]
    entry_cols = np.repeat(np.arange(n), np.diff(indptr))
    pattern = sp.csr_matrix((np.ones(len(indices)), (indices, entry_cols)), shape=shape)
    symmetric = (pattern + pattern.T).tocsr()
    perm = reverse_cuthill_mckee(symmetric, symmetric_mode=True)
    position = np.argsort(perm)
    rows, cols = position[indices], position[entry_cols]
    kl, ku = int(np.max(rows - cols)), int(np.max(cols - rows))
    if max(kl, ku) <= _BAND_MAX:
        scatter = cols * (2 * kl + ku + 1) + kl + ku + rows - cols
        perm.flags.writeable = scatter.flags.writeable = False
        return _BandOrder(perm, kl, ku, scatter)
    stand_in = sp.csc_matrix((np.where(indices == entry_cols, float(n), 1.0),
                              indices, indptr), shape=shape)
    lu = spla.splu(stand_in, permc_spec="MMD_AT_PLUS_A", options={"SymmetricMode": True})
    # perm_c[j] is the position that row and column j take
    perm_c = lu.perm_c
    rows, cols = perm_c[indices], perm_c[entry_cols]
    gather = np.lexsort((rows, cols))
    arrays = (np.argsort(perm_c),
              np.concatenate([[0], np.cumsum(np.bincount(cols, minlength=n))]).astype(np.int32),
              rows[gather].astype(np.int32), gather)
    for array in arrays:
        array.flags.writeable = False
    return _EliminationOrder(*arrays, fill=(lu.L.nnz + lu.U.nnz) / n)


def _lu_solve(matrix, rhs) -> np.ndarray:
    """Sparse LU solve: _lu_factor(matrix) applied to rhs."""
    return _lu_factor(matrix)(rhs)


def _lu_factor(matrix):
    """Sparse LU factorization; returns the solve rhs -> matrix^-1 rhs.
    It factors every matrix of the package but the shifted operators
    B + diag(d) of a half-bandwidth up to _BAND_MAX, which
    _shifted_factor factors by banded Cholesky: the whole and
    active-set Jacobians, the GMRES fallbacks, and the shifted
    operators of wider grids.

    A matrix built by diagonal_update carries its assembler's
    elimination_order, which computes the order of the assembler's
    pattern at its first call and keeps it; the matrix is factored
    symmetrically permuted into that order every time, so a solve does
    not depend on whether the order was just computed or kept. Any other
    matrix is ordered afresh by SuperLU. Every call factors anew: the
    one factor per base operator (B = -lap + I/dt per dt, which is
    A = -lap + id at dt = 1) that the solves of a grid share is kept by
    _shifted_factor, not here. An exactly singular matrix gives NaNs, so a
    Newton solve ends in non-convergence rather than an exception.

    A pattern whose reverse Cuthill-McKee order leaves at most
    _BAND_MAX entries below and above the diagonal (a _BandOrder) is
    factored by LAPACK's banded LU with partial pivoting,
    _band_lu_factor: every 1D Newton Jacobian of up to 31 nodes, whose
    half-bandwidth stops growing near 62 at any K (12 at K = 5, 62 at
    K = 50 and 200), and the stationary ones (2, 59 with a nonlocal
    border). From 51 to 64 it took 0.46-0.85 of the time of SuperLU on
    the kept MMD order per factorization and solve, in the median
    (BENCH_38.json).

    Every wider pattern is factored by SuperLU, with minimum-degree
    ordering on the pattern of A^T + A and diagonal pivots preferred:
    the Newton Jacobians have a symmetric or nearly symmetric pattern,
    on which this ordering makes about half the fill of the default
    COLAMD; a kept order is factored with the NATURAL column order. The
    kept order also sets SuperLU's panel width: one column where its
    stand-in fills fewer than _NARROW_PANEL_FILL entries of L + U per
    column, SuperLU's default of 10 columns otherwise. The panel width
    changes only the order of arithmetic inside SuperLU, not the order
    or the pivoting rule; on every matrix measured below the constant
    the fill was the same entry for entry. Panels of 10 columns serve
    large supernodes. On the Newton matrices of the package that fill
    15 to 40 entries per column, one-column panels factored 17-48%
    faster; the 2D cosmfg whole Jacobians broke even at 162 per column
    and were 42% slower at 458 (BENCH_29.json).
    """
    elimination_order = getattr(matrix, "elimination_order", None)
    if elimination_order is None:
        return _splu_factor(sp.csc_matrix(matrix), "MMD_AT_PLUS_A")
    order = elimination_order()
    if isinstance(order, _BandOrder):
        solve_permuted = _band_lu_factor(matrix.data, order)
    else:
        permuted = sp.csc_matrix((matrix.data[order.gather], order.indices, order.indptr),
                                 shape=matrix.shape)
        solve_permuted = _splu_factor(permuted, "NATURAL",
                                      1 if order.fill < _NARROW_PANEL_FILL else None)

    def solve(rhs):
        x = np.empty(matrix.shape[0])
        x[order.perm] = solve_permuted(rhs[order.perm])
        return x

    return solve


def _band_lu_factor(data, order):
    """LAPACK banded LU with partial pivoting (dgbtrf) of the matrix
    with CSC data on the pattern of the _BandOrder order, permuted into
    that order, as its solve (dgbtrs) of permuted right-hand sides. An
    exactly singular matrix gives NaNs, as with _splu_factor."""
    n = len(order.perm)
    rows = 2 * order.kl + order.ku + 1
    band = np.zeros(rows * n)
    band[order.scatter] = data
    factor, pivots, info = dgbtrf(band.reshape((rows, n), order="F"), order.kl, order.ku,
                                  overwrite_ab=1)
    if info != 0:
        return lambda rhs: np.full(n, np.nan)
    return lambda rhs: dgbtrs(factor, order.kl, order.ku, rhs, pivots)[0]


@dataclass(eq=False)
class _BaseOperator:
    """B = -lap + I/dt, one implicit Euler step of the time-dependent
    systems (dt = 1 gives A = -lap + id of the stationary ones, bitwise).
    assemble(d) gives B + diag(d) on B's pattern (a diagonal_update
    assembler, which keeps the elimination order of the pattern). band
    is B in LAPACK's upper band storage, (kd + 1, N) with B[i, j] at row
    kd + i - j, column j for j - kd <= i <= j, read-only; kd, the
    half-bandwidth of the lexicographic node order, is 1 in 1D and the
    last axis's node count in 2D, and band is None above _BAND_MAX.
    factor is B's own factor, made at the first solve with d = 0."""

    assemble: object
    band: np.ndarray | None
    factor: object = None


@functools.lru_cache(maxsize=8)
def _base_operator(grid, dt):
    """The _BaseOperator of (grid, dt), kept so that B's pattern is
    ordered and B factored at most once per (grid, dt)."""
    n = grid.n_total
    diag = np.arange(n)
    assemble = diagonal_update(elliptic_matrix(grid, with_zero_order=False)
                               + sp.identity(n, format="csr") / dt, diag, diag)
    kd = n // grid.shape[0]
    if kd > _BAND_MAX:
        return _BaseOperator(assemble, None)
    b = sp.coo_matrix(assemble(np.zeros(n)))
    upper = b.row <= b.col
    band = np.zeros((kd + 1, n))
    band[kd + b.row[upper] - b.col[upper], b.col[upper]] = b.data[upper]
    band.flags.writeable = False
    return _BaseOperator(assemble, band)


def _shifted_matrix(grid, d, dt):
    """B + diag(d) for B = -lap + I/dt, on B's pattern."""
    return _base_operator(grid, dt).assemble(d)


@functools.lru_cache(maxsize=8)
def _space_time_operator(grid, dt, k_steps):
    """The static part of the K-slice penalized Newton system in
    [w_0..w_{K-1}, m_1..m_K]: B = -lap + I/dt on every diagonal block,
    -I/dt above it for w (w_{k+1} in the rows of slice k) and below it
    for m (m_k in the rows of m_{k+1}). Built once per (grid, dt, K);
    callers must not modify it."""
    b_op = _shifted_matrix(grid, np.zeros(grid.n_total), dt)
    upper = np.eye(k_steps, k=1)
    return (sp.kron(sp.identity(2 * k_steps), b_op)
            - sp.kron(dense_block_diag(upper, upper.T), sp.identity(grid.n_total) / dt)).tocsr()


def _shifted_factor(grid, d, dt):
    """The factor of B + diag(d), d >= 0 (an array, or a scalar zero),
    for B = -lap + I/dt, as its solve; the one function that factors
    these operators. Where d vanishes it is B's own factor, kept in
    _base_operator(grid, dt) from its first use on. Otherwise B + diag(d)
    is factored anew: by banded Cholesky (_band_factor) on B's kept band
    storage where B's half-bandwidth is at most _BAND_MAX, by _lu_factor
    on B's kept elimination order above it.

    B = -lap + I/dt is symmetric positive definite (the 3/5-point -lap
    is symmetric, 1/dt > 0) and d >= 0 (penalty indicator, exit rate),
    so Cholesky needs neither ordering nor pivoting. Against SuperLU on
    its kept order it took 0.20-0.23 of the time per factorization and
    0.36 per solve at 15x15, 0.92-0.97 and 0.82 at 63x63; at 79x79 its
    factorization was 7-24% slower (BENCH_32.json).
    """
    base, kept = _base_operator(grid, dt), not np.any(d)
    if kept and base.factor is not None:
        return base.factor
    d = np.zeros(grid.n_total) if kept else d
    solve = _lu_factor(base.assemble(d)) if base.band is None else _band_factor(base.band, d)
    if kept:
        base.factor = solve
    return solve


def _band_factor(band, d):
    """LAPACK banded Cholesky (dpbtrf) of band + diag(d), band a
    symmetric matrix in upper band storage, as its solve (dpbtrs). A
    matrix that is not positive definite gives NaNs, and so does a NaN
    in d, so a Newton solve ends in non-convergence rather than an
    exception, as with _splu_factor."""
    shifted = band.copy()
    shifted[-1] += d
    factor, info = dpbtrf(shifted, overwrite_ab=1)
    if info != 0:
        return lambda rhs: np.full(band.shape[1], np.nan)
    return lambda rhs: dpbtrs(factor, rhs)[0]


def _splu_factor(matrix, permc_spec, panel_size=None):
    """SuperLU factorization in SymmetricMode with the given column
    ordering, as its solve; NaNs for an exactly singular matrix.
    panel_size None keeps SuperLU's default panel of 10 columns;
    _lu_factor passes 1 for a low-fill kept order."""
    try:
        lu = spla.splu(matrix, permc_spec=permc_spec, panel_size=panel_size,
                       options={"SymmetricMode": True})
    except RuntimeError:
        return lambda rhs: np.full(matrix.shape[0], np.nan)
    return lu.solve


def solve_obstacle_stationary(
    source: ScalarField,
    obstacle: ScalarField,
) -> ScalarField:
    """Solve max((-lap + id) u - f, u - psi) = 0 by semismooth Newton,
    starting from the solution without obstacle.
    """
    grid = _on_grid(source.grid, None, obstacle)
    start = _shifted_factor(grid, 0.0, 1.0)(source.values)
    return ScalarField(grid, _obstacle_newton(elliptic_matrix(grid), source.values,
                                              obstacle.values, start))


def semismooth_newton(residual, jacobian, x0, target, max_iter, full_steps=False,
                      solve=_lu_solve):
    """Semismooth Newton with Armijo backtracking in the max norm.

    jacobian(x) returns a generalized Jacobian of residual at x (the
    active-set linearization of the max and min terms, in the
    primal-dual active-set view of Hintermueller-Ito-Kunisch), and
    solve(jacobian(x), -residual(x)) the Newton step. By default the
    Jacobian is a sparse matrix and solve is _lu_solve, which factors it
    on the elimination order its assembler keeps for a matrix built by
    diagonal_update; a solver-specific solve takes whatever form its
    jacobian returns (on grids of dim >= 2 the stationary coupled system
    solves its two diagonal blocks, and the time-dependent one without
    a Hamiltonian its slice blocks by time sweeps). A singular Jacobian
    gives a NaN norm that ends the loop short of target. A step is
    accepted on a (1 - 1e-4 tau) decrease of |residual|_inf or on
    reaching target, halving tau up to 50 times; the iteration stops at
    target, after max_iter steps, on a non-finite norm, once tau falls
    below 1e-12, or once the norm has not halved over the last 20 steps
    (a stalled solve does not spend its whole step cap).

    full_steps=True takes every step whole and drops the two stall
    tests: the primal-dual active-set method on a min form, which ends in
    finitely many steps on M-matrices although its norm need not
    decrease from step to step, so backtracking would only slow it.

    Returns (x, norms, iterations): norms holds the residual norm of the
    start and after every step; iterations counts the passes of the
    loop, that is the steps taken plus one if a pass found target met.
    """
    x = np.array(x0, dtype=float, copy=True)
    res = residual(x)
    norm = float(np.max(np.abs(res)))
    norms = [norm]
    it = 0
    for it in range(1, max_iter + 1):
        if norm <= target:
            break
        step = solve(jacobian(x), -res)
        tau = 1.0
        for _ls in range(50):
            x_new = x + tau * step
            res_new = residual(x_new)
            norm_new = float(np.max(np.abs(res_new)))
            if full_steps or norm_new <= (1.0 - 1e-4 * tau) * norm or norm_new <= target:
                break
            tau *= 0.5
        x, res, norm = x_new, res_new, norm_new
        norms.append(norm)
        stalled = tau < 1e-12 or (it > 20 and norm > 0.5 * norms[-21])
        if not norm < np.inf or (stalled and not full_steps):
            break
    return x, norms, it


def diagonal_update(static, rows, cols):
    """Assembler for a square sparse matrix whose values change only at
    fixed positions, such as a Newton Jacobian with value-dependent
    diagonals.

    static, the iterate-independent part, is converted once; rows and
    cols name the value-dependent positions, possibly none, and values
    at a position named more than once are summed. The returned
    assemble(vals) gives static + sparse(vals at (rows, cols)) in
    canonical CSC form on one fixed pattern: every stored entry of
    static, every named position and the diagonal, zeros stored. Every
    call shares that pattern's indptr and indices (read-only arrays) and
    carries the assembler's elimination_order, which _lu_factor calls:
    it orders the pattern at its first call, in a band order for banded
    LU or in a minimum-degree order for SuperLU (_elimination_order),
    and keeps the order, so the assembler orders once, at the first
    factorization of one of its matrices, or never.
    """
    static = sp.coo_matrix(static)
    n = static.shape[0]
    diag = np.arange(n)
    all_rows = np.concatenate([static.row, rows, diag]).astype(np.int64)
    all_cols = np.concatenate([static.col, cols, diag]).astype(np.int64)
    # column-major keys, so that sorted keys are the canonical CSC order
    keys, slots = np.unique(all_cols * n + all_rows, return_inverse=True)
    nnz = len(keys)
    indptr = np.concatenate([[0], np.cumsum(np.bincount(keys // n, minlength=n))]).astype(np.int32)
    indices = (keys % n).astype(np.int32)
    indptr.flags.writeable = indices.flags.writeable = False
    elimination_order = functools.cache(
        lambda: _elimination_order(static.shape, indptr, indices))
    base = np.bincount(slots[:static.nnz], weights=static.data, minlength=nnz)
    value_slots = slots[static.nnz:static.nnz + len(rows)]

    def assemble(vals):
        # base first: bincount of no positions is an integer array
        data = base + np.bincount(value_slots, weights=vals, minlength=nnz)
        matrix = sp.csc_matrix((data, indices, indptr), shape=static.shape)
        matrix.elimination_order = elimination_order
        return matrix

    return assemble


def row_select(first, second):
    """Assembler for the generalized Jacobian of a nodewise min(g, h).

    first and second, the Jacobians of g and h, are iterate-independent
    and converted once. The returned assemble(mask) takes row i from
    first where mask[i] is true (g_i <= h_i) and from second otherwise,
    in canonical CSC form, storing no entry the two inputs do not store.
    """
    first, second = sp.coo_matrix(first), sp.coo_matrix(second)

    def assemble(mask):
        a, b = mask[first.row], ~mask[second.row]
        return sp.csc_matrix(
            (np.concatenate([first.data[a], second.data[b]]),
             (np.concatenate([first.row[a], second.row[b]]),
              np.concatenate([first.col[a], second.col[b]]))), shape=first.shape)

    return assemble


def _obstacle_newton(matrix, f, psi, u0) -> np.ndarray:
    """Semismooth Newton on min(D (psi - u), f - M u) = 0, D = diag(M).

    Each step is a whole primal-dual active-set step: u = psi on the
    nodes where the first branch is the smaller, M u = f elsewhere. The
    rows scaled by D give the active rows the diagonal of M, so the
    Jacobian keeps M's diagonal and its LU fills no more than M's; the
    scaling does not move the zeros of the min. Convergence is judged on
    the unscaled complementarity_residual. Both gates are _TOL scaled by
    the size of the data, 1 + max(|f| + |M| max(|u0|, |psi|)): the
    round-off of f - M u grows with diag(M) ~ 2/h^2, so a fixed absolute
    gate fails converged solves on fine grids.
    """
    d = matrix.diagonal()
    assemble = row_select(sp.diags(-d), -matrix)
    tol = _TOL * (1.0 + float(np.max(
        np.abs(f) + abs(matrix) @ np.maximum(np.abs(u0), np.abs(psi)), initial=0.0)))
    u, _, it = semismooth_newton(
        lambda v: np.minimum(d * (psi - v), f - matrix @ v),
        lambda v: assemble(d * (psi - v) <= f - matrix @ v),
        u0, tol, _MAX_ITER, full_steps=True)
    res = complementarity_residual(matrix, u, f, psi)
    if res <= tol:
        return u
    raise ObstacleConvergenceError("semismooth Newton did not converge", res, it)
