import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mfgstop.grid import (
    FieldTrajectory,
    NodeMask,
    ScalarField,
    apply_elliptic,
    build_grid,
    build_timegrid,
    classify_nodes,
    elliptic_matrix,
    inner,
    read_field_csv,
    read_trajectory_csv,
    write_field_csv,
    write_trajectory_csv,
    _elliptic_matrix,
)


def dense_operator(grid, with_zero_order=True):
    """Independent dense assembly straight from the stencil formula."""
    n = grid.n_total
    a = np.zeros((n, n))
    shape = grid.shape
    for flat in range(n):
        idx = np.unravel_index(flat, shape)
        a[flat, flat] += 1.0 if with_zero_order else 0.0
        for axis in range(grid.dim):
            h = grid.spacing[axis]
            a[flat, flat] += 2.0 / h**2
            for step in (-1, 1):
                nbr = list(idx)
                nbr[axis] += step
                if 0 <= nbr[axis] < shape[axis]:
                    a[flat, np.ravel_multi_index(nbr, shape)] -= 1.0 / h**2
    return a


def test_build_grid_1d_spacing_and_nodes():
    g = build_grid(1, (0.0, 1.0), 3)
    assert g.spacing == (0.25,)
    assert np.allclose(g.coordinates().ravel(), [0.25, 0.5, 0.75])


def test_build_grid_2d_count():
    g = build_grid(2, ((0.0, 1.0), (0.0, 1.0)), (4, 4))
    assert g.n_total == 16


def test_build_grid_rejects_small_and_bad_input():
    with pytest.raises(ValueError):
        build_grid(1, (0.0, 1.0), 2)
    with pytest.raises(ValueError):
        build_grid(3, ((0, 1),) * 3, (4, 4, 4))
    with pytest.raises(ValueError):
        build_grid(1, (1.0, 1.0), 5)


def test_apply_elliptic_linearity_zero():
    g = build_grid(1, (0.0, 1.0), 7)
    z = ScalarField.zeros(g)
    assert np.all(apply_elliptic(z).values == 0.0)


def test_apply_elliptic_stencil_values():
    g = build_grid(1, (0.0, 1.0), 3)
    m = ScalarField(g, [0.0, 1.0, 0.0])
    assert np.allclose(apply_elliptic(m).values, [-16.0, 33.0, -16.0])


def test_operator_positive_definite_dense_oracle():
    g = build_grid(1, (0.0, 1.0), 5)
    a = dense_operator(g)
    assert np.allclose(elliptic_matrix(g).toarray(), a)
    eigs = np.linalg.eigvalsh(a)
    assert eigs.min() > 0
    rng = np.random.default_rng(0)
    for _ in range(5):
        m = rng.normal(size=5)
        assert m @ (a @ m) > 0


def test_operator_2d_matches_dense():
    g = build_grid(2, ((0.0, 1.0), (0.0, 2.0)), (3, 4))
    assert np.allclose(elliptic_matrix(g).toarray(), dense_operator(g))
    assert np.allclose(elliptic_matrix(g, False).toarray(), dense_operator(g, False))


def test_inner_quadrature_and_symmetry():
    g = build_grid(1, (0.0, 1.0), 3)
    one = ScalarField.constant(g, 1.0)
    assert inner(one, one) == pytest.approx(0.75)
    rng = np.random.default_rng(1)
    f = ScalarField(g, rng.normal(size=3))
    gg = ScalarField(g, rng.normal(size=3))
    assert inner(f, gg) == pytest.approx(inner(gg, f))


def test_inner_adjointness_of_operator():
    g = build_grid(2, ((0.0, 1.0), (0.0, 1.0)), (4, 4))
    rng = np.random.default_rng(2)
    u = ScalarField(g, rng.normal(size=16))
    m = ScalarField(g, rng.normal(size=16))
    lhs = inner(apply_elliptic(u), m)
    rhs = inner(u, apply_elliptic(m))
    assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


def test_discrete_maximum_principle():
    g = build_grid(1, (0.0, 1.0), 25)
    rng = np.random.default_rng(3)
    import scipy.sparse.linalg as spla

    for _ in range(10):
        rho = np.abs(rng.normal(size=25))
        m = spla.spsolve(elliptic_matrix(g).tocsc(), rho)
        assert np.all(m >= 0)


def test_classify_nodes_examples():
    g = build_grid(1, (0.0, 1.0), 3)
    psi = ScalarField.zeros(g)
    cont, contact = classify_nodes(ScalarField.constant(g, -1.0), psi, delta_c=1e-8)
    assert cont.mask.all() and not contact.mask.any()
    cont2, contact2 = classify_nodes(psi, psi, delta_c=1e-8)
    assert contact2.mask.all() and not cont2.mask.any()
    u = ScalarField(g, [-1.0, -1e-9, 0.0])
    cont3, contact3 = classify_nodes(u, psi, delta_c=1e-8)
    assert cont3.mask.tolist() == [True, False, False]
    assert np.all(cont3.mask ^ contact3.mask)


def test_fields_are_read_only():
    g = build_grid(1, (0.0, 1.0), 3)
    f = ScalarField.constant(g, 1.0)
    with pytest.raises(ValueError):
        f.values[0] = 2.0
    with pytest.raises(ValueError):
        NodeMask.all(g).mask[0] = False


def test_field_csv_round_trip(tmp_path):
    g = build_grid(2, ((0.0, 1.0), (0.0, 1.0)), (3, 3))
    rng = np.random.default_rng(4)
    f = ScalarField(g, rng.normal(size=9))
    path = tmp_path / "f.csv"
    write_field_csv(f, path)
    back = read_field_csv(g, path)
    assert np.array_equal(back.values, f.values)
    header = path.read_text().splitlines()[0]
    assert header == "x,y,value"


def test_field_csv_rejects_empty_and_mismatched(tmp_path):
    g = build_grid(1, (0.0, 1.0), 3)
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    with pytest.raises(ValueError):
        read_field_csv(g, empty)
    other = build_grid(1, (0.0, 1.0), 5)
    path = tmp_path / "f.csv"
    write_field_csv(ScalarField.zeros(other), path)
    with pytest.raises(ValueError):
        read_field_csv(g, path)


def test_elliptic_matrix_cache_key_is_normalized():
    g = build_grid(1, (0.0, 1.0), 7)
    _elliptic_matrix.cache_clear()
    mats = [elliptic_matrix(g), elliptic_matrix(g, True), elliptic_matrix(g, with_zero_order=True),
            elliptic_matrix(g, False), elliptic_matrix(g, with_zero_order=False)]
    assert _elliptic_matrix.cache_info().currsize == 2
    assert mats[0] is mats[1] is mats[2]
    assert mats[3] is mats[4]


def test_field_csv_rejects_malformed_files(tmp_path, bad_field_edit):
    g = build_grid(1, (0.0, 1.0), 5)
    path = tmp_path / "f.csv"
    write_field_csv(ScalarField(g, np.arange(5.0)), path)
    lines = bad_field_edit(path.read_text().splitlines())
    path.write_bytes(("\n".join(lines) + "\n").encode("utf-8"))
    with pytest.raises(ValueError):
        read_field_csv(g, path)


def test_field_csv_accepts_blank_lines_and_crlf(tmp_path):
    g = build_grid(2, ((0.0, 1.0), (0.0, 2.0)), (3, 4))
    f = ScalarField(g, np.random.default_rng(6).normal(size=12))
    path = tmp_path / "f.csv"
    write_field_csv(f, path)
    lines = path.read_text().splitlines()
    lines.insert(3, "")
    lines.insert(6, " \t ")
    path.write_bytes(("\r\n".join(lines) + "\r\n\n").encode("ascii"))
    assert np.array_equal(read_field_csv(g, path).values, f.values)


_EDGE_DOUBLES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                 1.7976931348623157e308, -1.7976931348623157e308]


@st.composite
def _field_on_grid(draw):
    if draw(st.booleans()):
        g = build_grid(1, (draw(st.sampled_from([0.0, -1.0])), 1.0), draw(st.integers(3, 6)))
    else:
        g = build_grid(2, ((0.0, 1.0), (-0.5, 3.0)), (draw(st.integers(3, 4)), 3))
    values = draw(st.lists(st.one_of(st.sampled_from(_EDGE_DOUBLES),
                                     st.floats(allow_nan=False, allow_infinity=False)),
                           min_size=g.n_total, max_size=g.n_total))
    return ScalarField(g, values)


@settings(max_examples=60, deadline=None)
@given(_field_on_grid())
def test_field_csv_writer_matches_per_value_format_and_round_trips(field):
    g = field.grid
    reference = ",".join(["x", "y"][: g.dim] + ["value"]) + "\n" + "".join(
        ",".join(format(c, ".17g") for c in [*row, v]) + "\n"
        for row, v in zip(g.coordinates(), field.values))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "f.csv"
        write_field_csv(field, path)
        assert path.read_bytes() == reference.encode("ascii")
        back = read_field_csv(g, path)
    assert np.array_equal(back.values.view(np.int64), field.values.view(np.int64))


def test_trajectory_rejects_one_shifted_slice(tmp_path):
    g = build_grid(1, (0.0, 1.0), 4)
    traj = FieldTrajectory(g, build_timegrid(1.0, 3), np.zeros((4, 4)))
    manifest = write_trajectory_csv(traj, tmp_path, "u")
    shifted = tmp_path / "u_0002.csv"
    lines = shifted.read_text().splitlines()
    lines[1:] = [f"{float(x) + 1e-3!r},{v}" for x, v in (ln.split(",") for ln in lines[1:])]
    shifted.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match="u_0002.csv"):
        read_trajectory_csv(g, manifest)


def test_trajectory_round_trip(tmp_path):
    g = build_grid(1, (0.0, 1.0), 4)
    tg = build_timegrid(1.0, 3)
    rng = np.random.default_rng(5)
    traj = FieldTrajectory(g, tg, rng.normal(size=(4, 4)))
    assert traj.array() is traj.array()
    with pytest.raises(ValueError):
        traj.array()[0, 0] = 1.0
    for shape in ((3, 4), (4, 5), (16,)):
        with pytest.raises(ValueError):
            FieldTrajectory(g, tg, np.zeros(shape))
    manifest = write_trajectory_csv(traj, tmp_path, "u")
    back = read_trajectory_csv(g, manifest)
    assert np.array_equal(back.array(), traj.array())
