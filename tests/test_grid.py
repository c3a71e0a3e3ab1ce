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
    build_grid,
    build_timegrid,
    classify_nodes,
    coarsen,
    elliptic_matrix,
    inner,
    read_field_csv,
    read_trajectory_csv,
    write_field_csv,
    write_trajectory_csv,
    _elliptic_matrix,
)
from oracles import operator


def test_build_grid_1d_spacing_and_nodes():
    g = build_grid(1, (0.0, 1.0), 3)
    assert g.spacing == (0.25,)
    assert np.allclose(g.coordinates().ravel(), [0.25, 0.5, 0.75])


def test_build_grid_2d_count():
    g = build_grid(2, ((0.0, 1.0), (0.0, 1.0)), (4, 4))
    assert g.n_total == 16


@pytest.mark.parametrize("spec", [(1, (0.0, 1.0), 31), (2, ((0.0, 1.0), (-0.5, 3.0)), (63, 17)),
                                  (2, ((0.0, 1.0), (0.0, 1.0)), (15, 15))])
def test_grid_sizes_are_the_products_of_the_axes(spec):
    g = build_grid(*spec)
    assert type(g.n_total) is int and g.n_total == g.coordinates().shape[0]
    assert type(g.cell_volume) is float
    assert np.float64(g.cell_volume).tobytes() == np.prod(g.spacing).tobytes()


def test_build_grid_rejects_small_and_bad_input():
    with pytest.raises(ValueError):
        build_grid(1, (0.0, 1.0), 2)
    with pytest.raises(ValueError):
        build_grid(3, ((0, 1),) * 3, (4, 4, 4))
    with pytest.raises(ValueError):
        build_grid(1, (1.0, 1.0), 5)


@pytest.mark.parametrize("count", [31.7, 31.0, "31", True, np.float64(31.0), None])
def test_grid_builders_take_integer_counts_only(count):
    # a count is never truncated, parsed or read from a bool
    for build in (lambda: build_grid(1, (0.0, 1.0), count),
                  lambda: build_grid(2, ((0.0, 1.0),) * 2, (31, count)),
                  lambda: build_timegrid(1.0, count)):
        with pytest.raises(ValueError, match="must be an integer"):
            build()
    with pytest.raises(ValueError, match="must be an integer"):
        build_grid(True, (0.0, 1.0), 31)
    assert build_grid(np.int64(1), (0.0, 1.0), np.int32(31)).n_interior == (31,)
    assert build_timegrid(1.0, np.int64(4)).n_steps == 4


@pytest.mark.parametrize("horizon", [0.0, -1.0, np.inf, np.nan, 10**400],
                         ids=["zero", "negative", "inf", "nan", "int-past-float"])
def test_timegrid_horizon_is_a_positive_float(horizon):
    with pytest.raises(ValueError):
        build_timegrid(horizon, 4)
    assert build_timegrid(2, 4).horizon == 2.0


def test_operator_positive_definite_dense_oracle():
    g = build_grid(1, (0.0, 1.0), 5)
    a = operator(g)
    assert np.allclose(elliptic_matrix(g).toarray(), a)
    eigs = np.linalg.eigvalsh(a)
    assert eigs.min() > 0
    rng = np.random.default_rng(0)
    for _ in range(5):
        m = rng.normal(size=5)
        assert m @ (a @ m) > 0


def test_operator_2d_matches_dense():
    g = build_grid(2, ((0.0, 1.0), (0.0, 2.0)), (3, 4))
    assert np.allclose(elliptic_matrix(g).toarray(), operator(g))
    assert np.allclose(elliptic_matrix(g, False).toarray(), operator(g, 0.0))


def test_elliptic_stencil_values():
    # 3 nodes on (0, 1): h = 1/4, so A e_1 = (-1/h^2, 2/h^2 + 1, -1/h^2),
    # from the package's matrix and from the test stencil alike
    g = build_grid(1, (0.0, 1.0), 3)
    e1 = np.array([0.0, 1.0, 0.0])
    assert np.allclose(elliptic_matrix(g) @ e1, [-16.0, 33.0, -16.0])
    assert np.allclose(operator(g) @ e1, [-16.0, 33.0, -16.0])


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
    a = elliptic_matrix(g)
    lhs = inner(ScalarField(g, a @ u.values), m)
    rhs = inner(u, ScalarField(g, a @ m.values))
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
    cont, contact = classify_nodes(ScalarField.constant(g, -1.0))
    assert cont.mask.all() and not contact.mask.any()
    cont2, contact2 = classify_nodes(ScalarField.zeros(g))
    assert contact2.mask.all() and not cont2.mask.any()
    # the threshold is DELTA_C_REL |u|_inf = 1e-8 here
    u = ScalarField(g, [-1.0, -1e-9, 0.0])
    cont3, contact3 = classify_nodes(u)
    assert cont3.mask.tolist() == [True, False, False]
    assert np.all(cont3.mask ^ contact3.mask)


def test_fields_are_read_only():
    g = build_grid(1, (0.0, 1.0), 3)
    f = ScalarField.constant(g, 1.0)
    with pytest.raises(ValueError):
        f.values[0] = 2.0
    with pytest.raises(ValueError):
        NodeMask(g, np.ones(3, dtype=bool)).mask[0] = False


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


def _row_by_row_csv(grid, values) -> bytes:
    """A field CSV rendered one row at a time, every cell "%.17g"."""
    lines = [",".join(["x", "y"][: grid.dim] + ["value"])]
    lines += [",".join("%.17g" % c for c in [*xy, v])
              for xy, v in zip(grid.coordinates().tolist(), np.asarray(values).tolist())]
    return ("\n".join(lines) + "\n").encode("ascii")


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
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "f.csv"
        write_field_csv(field, path)
        assert path.read_bytes() == _row_by_row_csv(g, field.values)
        back = read_field_csv(g, path)
    assert np.array_equal(back.values.view(np.int64), field.values.view(np.int64))


_WRITER_GRIDS = [(1, (0.0, 1.0), 31),
                 (2, ((0.0, 1.0), (0.0, 1.0)), (15, 15)),
                 (2, ((-1.0, 2.5), (0.1, 0.3)), (7, 5))]
_SPECIAL_DOUBLES = [-0.0, float("nan"), np.copysign(np.nan, -1.0), float("inf"), -float("inf"),
                    5e-324, 1e300]


@pytest.mark.parametrize("spec", _WRITER_GRIDS)
def test_csv_writer_bytes_match_row_by_row_rendering(tmp_path, spec):
    g = build_grid(*spec)
    rng = np.random.default_rng(g.n_total)
    values = rng.normal(size=g.n_total)
    values[: len(_SPECIAL_DOUBLES)] = _SPECIAL_DOUBLES
    slices = np.array([np.roll(values, k) for k in range(3)])
    field_path = tmp_path / "f.csv"
    write_field_csv(ScalarField(g, values), field_path)
    manifest = write_trajectory_csv(FieldTrajectory(g, build_timegrid(1.0, 2), slices),
                                    tmp_path, "m")
    assert field_path.read_bytes() == _row_by_row_csv(g, values)
    for k, row in enumerate(slices):
        assert (tmp_path / f"m_{k:04d}.csv").read_bytes() == _row_by_row_csv(g, row)
    # bit for bit, -0.0 and the positive NaN included; "%.17g" writes a
    # NaN of either sign as nan, so the negative NaN reads back positive
    for written, back in ((values, read_field_csv(g, field_path).values),
                          (slices, read_trajectory_csv(g, manifest).array())):
        negative_nan = np.isnan(written) & np.signbit(written)
        assert np.count_nonzero(negative_nan) == written.size // g.n_total
        assert np.isnan(back[negative_nan]).all() and not np.signbit(back[negative_nan]).any()
        assert np.array_equal(back[~negative_nan].view(np.int64),
                              written[~negative_nan].view(np.int64))


def test_csv_writer_keeps_coordinates_apart_for_grids_of_one_size(tmp_path):
    # same node count and shape, different bounds: each file carries its
    # own grid's coordinates, in whichever order the grids are written
    grids = [build_grid(2, ((0.0, 1.0), (0.0, 1.0)), (7, 5)),
             build_grid(2, ((-1.0, 2.5), (0.1, 0.3)), (7, 5))]
    values = np.linspace(-1.0, 1.0, 35)
    for i, g in enumerate(grids + grids[::-1]):
        path = tmp_path / f"f{i}.csv"
        write_field_csv(ScalarField(g, values), path)
        assert path.read_bytes() == _row_by_row_csv(g, values)
        assert np.array_equal(read_field_csv(g, path).values, values)


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


@pytest.mark.parametrize("shape", [(15,), (15, 15), (31, 15)])
def test_coarsen_injects_and_interpolates(shape):
    # the coarse grid holds every second node; prolongation reproduces a
    # product of tents, linear on every coarse cell and 0 on the
    # boundary, and injection takes a prolonged field back bit for bit
    g = build_grid(len(shape), [(0.0, 1.0)] * len(shape), shape)
    coarse, restrict, prolong = coarsen(g)
    assert coarse.n_interior == tuple(n // 2 for n in shape) and coarse.bounds == g.bounds
    assert np.allclose(coarse.coordinates(), g.coordinates().reshape(*shape, -1)[
        (slice(1, None, 2),) * len(shape)].reshape(-1, len(shape)), rtol=0.0, atol=1e-15)

    def tents(grid):
        return ScalarField(grid, np.prod(0.5 - np.abs(grid.coordinates() - 0.5), axis=1))

    assert np.array_equal(restrict(tents(g)).values, tents(coarse).values)
    assert np.allclose(prolong(tents(coarse)).values, tents(g).values, rtol=0.0, atol=1e-15)
    c = ScalarField(coarse, np.random.default_rng(5).normal(size=coarse.n_total))
    assert restrict(prolong(c)).values.tobytes() == c.values.tobytes()
    with pytest.raises(ValueError):
        coarsen(build_grid(2, ((0.0, 1.0), (0.0, 1.0)), (15, 16)))
