"""Dense references for the package's solvers on small grids.

Every matrix here is the one test stencil, neg_laplacian, applied to the
columns of the identity, and every solve is numpy.linalg.solve. From
mfgstop this module imports only the grid's data types and builders (an
AST guard in test_package.py), so a fault in the package's assembly or
factorizations cannot pass both a package solve and the reference it is
judged against.

Sign convention of the obstacle problems, as in the package: u <= psi
and M u - f <= 0, with equality in at least one of the two at each node.
"""

import numpy as np

from mfgstop.grid import FieldTrajectory, ScalarField


def neg_laplacian(shape, spacing, v):
    """-lap v, node by node on the 3/5-point stencil, zero outside; a v
    with several columns is taken column by column."""
    index = np.arange(int(np.prod(shape))).reshape(shape)
    out = np.zeros(np.shape(v))
    for node in np.ndindex(*shape):
        total = 0.0
        for axis, h in enumerate(spacing):
            for step in (-1, 1):
                near = list(node)
                near[axis] += step
                outside = not 0 <= near[axis] < shape[axis]
                total += (v[index[node]] - (0.0 if outside else v[index[tuple(near)]])) / h**2
        out[index[node]] = total
    return out


def operator(grid, shift=1.0):
    """-lap + shift I on grid, dense: A = -lap + id at shift 1, the
    implicit Euler step B = -lap + I/dt at shift 1/dt."""
    eye = np.eye(grid.n_total)
    return neg_laplacian(grid.shape, grid.spacing, eye) + shift * eye


def _pinned(matrix, f, psi, active):
    """u = psi on the active nodes and M u = f on the others."""
    u = np.array(psi, dtype=float)
    free = ~active
    if free.any():
        u[free] = np.linalg.solve(matrix[np.ix_(free, free)],
                                  f[free] - matrix[np.ix_(free, active)] @ psi[active])
    return u


def obstacle_candidates(source, obstacle):
    """Every u of min(psi - u, f - A u) = 0, A = -lap + id, found by
    trying every active set of at most 16 nodes: each u that passes the
    complementarity test, u <= psi and A u - f <= 0 on the active set,
    both to 1e-9, in the order of the sets."""
    grid = source.grid
    n = grid.n_total
    assert n <= 16, "the oracle tries all 2^n active sets"
    a, f, psi = operator(grid), source.values, obstacle.values
    for bits in range(1 << n):
        active = (bits >> np.arange(n)) & 1 == 1
        u = _pinned(a, f, psi, active)
        if not (np.any(u > psi + 1e-9) or np.any((a @ u - f)[active] > 1e-9)):
            yield ScalarField(grid, u)


def obstacle_oracle(source, obstacle):
    """The first of obstacle_candidates."""
    for u in obstacle_candidates(source, obstacle):
        return u
    raise AssertionError("no active set passes the complementarity test")


def _active_set_solve(matrix, f, psi, epsilon=None):
    """u with min(psi - u, f - M u) = 0, or for a penalty epsilon with
    M u + (u - psi)^+ / epsilon = f, by primal-dual active-set steps
    from M^-1 f: each step pins u = psi (penalizes u - psi) on the
    active set of the iterate, until that set repeats. On an M-matrix M
    the steps end in finitely many."""
    u = np.linalg.solve(matrix, f)
    active = None
    for _ in range(len(f) + 2):
        new = psi - u <= f - matrix @ u if epsilon is None else u > psi
        if np.array_equal(new, active):
            return u
        active = new
        u = (_pinned(matrix, f, psi, active) if epsilon is None
             else np.linalg.solve(matrix + np.diag(active / epsilon), f + active * psi / epsilon))
    raise AssertionError("the active set did not settle")


def penalized_obstacle(source, obstacle, epsilon):
    """u with A u + (u - psi)^+ / epsilon = f, A = -lap + id."""
    return ScalarField(source.grid, _active_set_solve(operator(source.grid), source.values,
                                                      obstacle.values, epsilon))


def parabolic_obstacle(source, obstacle):
    """Backward implicit Euler for max(-du/dt - lap u - f, u - psi) = 0
    from u = psi at t = T: step k solves the obstacle problem of
    B = -lap + I/dt with source u_{k+1}/dt + f_k."""
    grid, timegrid = source.grid, source.timegrid
    b = operator(grid, 1.0 / timegrid.dt)
    f, psi = source.array(), obstacle.array()
    u = psi.copy()
    for k in range(timegrid.n_steps - 1, -1, -1):
        u[k] = _active_set_solve(b, u[k + 1] / timegrid.dt + f[k], psi[k])
    return FieldTrajectory(grid, timegrid, u)


def killed_density(rate, source):
    """m with (A + diag(rate)) m = rho, A = -lap + id."""
    grid = source.grid
    return ScalarField(grid, np.linalg.solve(operator(grid) + np.diag(rate), source.values))


def _face_pairs(shape, axis):
    """(left, right) flat node indices of every axis face in the face
    order of a time step of a FaceVelocities component, None outside the
    grid: face j along axis lies between nodes j - 1 and j."""
    face_shape = tuple(n + (a == axis) for a, n in enumerate(shape))
    for face in np.ndindex(face_shape):
        j = face[axis]
        left = face[:axis] + (j - 1,) + face[axis + 1:]
        yield (np.ravel_multi_index(left, shape) if j >= 1 else None,
               np.ravel_multi_index(face, shape) if j < shape[axis] else None)


def drift_reference(grid, comps, m):
    """Node-by-node -div(m b) and its matrix for the face velocities
    comps (per axis, one time step): through each face of velocity b the
    flux F = b+ m_R + b- m_L enters the left node as -F/h and the right
    node as +F/h, 0 outside the grid."""
    div = np.zeros(grid.n_total)
    mat = np.zeros((grid.n_total, grid.n_total))
    for axis, comp in enumerate(comps):
        h = grid.spacing[axis]
        for (left, right), b in zip(_face_pairs(grid.shape, axis), np.ravel(comp)):
            up, down = max(b, 0.0), min(b, 0.0)
            flux = (up * m[right] if right is not None else 0.0) + (
                down * m[left] if left is not None else 0.0)
            for node, sign in ((left, -1.0), (right, 1.0)):
                if node is None:
                    continue
                div[node] += sign * flux / h
                for col, coef in ((right, up), (left, down)):
                    if col is not None:
                        mat[node, col] += sign * coef / h
    return div, mat
