import re

import numpy as np
import pytest

from bouligand_landweber import (
    ForwardProblem,
    GridFunction,
    Mesh,
    SpdSystem,
    assemble,
    assemble_full,
    build_mesh,
    interpolate,
    m_inner,
    m_norm,
    read_grid_function,
    write_grid_function,
)
from bouligand_landweber.experiments import exact_state
from bouligand_landweber.mesh_fem import field_values


def test_smallest_mesh():
    mesh = build_mesh(3)
    assert mesh.n_interior == 1
    assert mesh.h == 0.5
    x1, x2 = mesh.interior_coords()
    assert x1[0] == 0.5 and x2[0] == 0.5


def test_full_scale_mesh_size():
    mesh = build_mesh(512)
    assert mesh.n_interior == 260100


@pytest.mark.parametrize("n_h", [2, 1, 0, -3])
def test_too_small_mesh_rejected(n_h):
    with pytest.raises(ValueError, match=f"^n_h must be an integer >= 3, got {n_h}$"):
        build_mesh(n_h)


@pytest.mark.parametrize("n_h", [2, 1, 2.5, 5.5, True, np.nan, "5"])
def test_mesh_checks_its_own_n_h(n_h):
    # without the check Mesh(1) has m = -1 and Mesh(2.5) a float n_interior
    with pytest.raises(ValueError, match="^n_h must be an integer >= 3, got"):
        Mesh(n_h)


def test_mesh_stores_an_integral_n_h_as_int():
    for n_h in (3.0, np.int64(5), np.float64(9.0)):
        mesh = Mesh(n_h)
        assert type(mesh.n_h) is int and mesh.n_h == n_h


def test_mesh_spacing_identity():
    for n_h in (3, 7, 33, 100):
        mesh = build_mesh(n_h)
        assert mesh.h * (n_h - 1) == pytest.approx(1.0, abs=1e-15)


def test_assemble_single_interior_node():
    # hand assembly over the 8 triangles touching the one interior node of n_h=3
    A, M, D = assemble(build_mesh(3))
    assert A.toarray() == pytest.approx(np.array([[4.0]]))
    assert M.toarray() == pytest.approx(np.array([[0.125]]))
    assert D == 0.25


def test_stiffness_stencil_n4():
    # every interior row: diagonal 4, off-diagonal entries exactly -1
    A, _, _ = assemble(build_mesh(4))
    dense = A.toarray()
    assert np.all(np.diag(dense) == 4.0)
    off = dense[~np.eye(4, dtype=bool)]
    assert set(np.unique(off)) <= {-1.0, 0.0}
    # each of the four interior nodes of n_h=4 has exactly two interior neighbors
    assert np.count_nonzero(off == -1.0) == 8


def test_stiffness_stencil_interior_node():
    # a node away from the boundary sees the full N/S/E/W stencil
    mesh = build_mesh(6)
    A, _, _ = assemble(mesh)
    m = mesh.m
    center = (m // 2) * m + m // 2
    row = A.getrow(center).toarray().ravel()
    assert row[center] == 4.0
    for neighbor in (center - 1, center + 1, center - m, center + m):
        assert row[neighbor] == -1.0
    assert np.count_nonzero(row) == 5


def test_mass_partition_of_unity():
    # the hat functions sum to one, so the full mass matrix sums to |Omega| = 1
    for n_h in (3, 5, 16, 33):
        _, M_full, _ = assemble_full(build_mesh(n_h))
        assert M_full.sum() == pytest.approx(1.0, abs=1e-13)


def test_full_stiffness_interior_row_sums_vanish():
    mesh = build_mesh(9)
    A_full, _, _ = assemble_full(mesh)
    row_sums = np.asarray(A_full.sum(axis=1)).ravel()
    assert np.max(np.abs(row_sums[mesh.interior_to_full()])) <= 1e-14


def test_lumped_mass_is_row_sum_of_mass():
    mesh = build_mesh(12)
    _, M_full, D_full = assemble_full(mesh)
    row_sums = np.asarray(M_full.sum(axis=1)).ravel()
    idx = mesh.interior_to_full()
    assert np.max(np.abs(D_full[idx] - row_sums[idx])) <= 1e-14


def test_lumped_mass_interior_value():
    mesh = build_mesh(17)
    _, _, D = assemble(mesh)
    assert D == pytest.approx(mesh.h**2, abs=1e-16)


def test_mass_stencil_interior_node():
    # consistent mass: h^2/2 diagonal, h^2/12 at the six edge-connected neighbors
    mesh = build_mesh(6)
    _, M, _ = assemble(mesh)
    m, h2 = mesh.m, mesh.h**2
    center = (m // 2) * m + m // 2
    row = M.getrow(center).toarray().ravel()
    assert row[center] == pytest.approx(h2 / 2)
    for neighbor in (center - 1, center + 1, center - m, center + m, center + m + 1, center - m - 1):
        assert row[neighbor] == pytest.approx(h2 / 12)
    assert np.count_nonzero(row) == 7


def test_assembly_deterministic():
    a1, m1, d1 = assemble(build_mesh(33))
    a2, m2, d2 = assemble(build_mesh(33))
    assert np.array_equal(a1.offsets, a2.offsets)
    assert np.array_equal(a1.data, a2.data)
    assert np.array_equal(m1.offsets, m2.offsets)
    assert np.array_equal(m1.data, m2.data)
    assert np.array_equal(d1, d2)


def _assert_same_csr(got, want):
    assert got.indptr.dtype == want.indptr.dtype == np.int32
    assert got.indices.dtype == want.indices.dtype == np.int32
    assert got.indptr.tobytes() == want.indptr.tobytes()
    assert got.indices.tobytes() == want.indices.tobytes()
    assert got.data.tobytes() == want.data.tobytes()
    assert got.has_canonical_format and want.has_canonical_format


@pytest.mark.parametrize("n_h", [3, 4, 5, 9, 10, 17, 33, 64, 129])
def test_stencil_assembly_matches_element_assembly(n_h):
    # the element-level assembly, restricted to the interior, is the oracle;
    # its lumped mass is one number there, which the problem keeps as a float
    mesh = build_mesh(n_h)
    A, M, D = assemble(mesh)
    A_full, M_full, D_full = assemble_full(mesh)
    idx = mesh.interior_to_full()
    # tocsr drops the explicit zeros DIA stores at Dirichlet neighbors
    _assert_same_csr(A.tocsr(), A_full[idx][:, idx])
    _assert_same_csr(M.tocsr(), M_full[idx][:, idx])
    problem_D = ForwardProblem.build(mesh).D
    assert type(D) is float and type(problem_D) is float
    assert np.full(mesh.n_interior, problem_D).tobytes() == D_full[idx].tobytes()
    assert problem_D.hex() == D.hex()


@pytest.mark.parametrize("n_h", [3, 4, 5, 17, 64, 129])
def test_stencil_products_match_element_assembly(n_h):
    # DIA sums its diagonals in increasing offset order, the column order in
    # which CSR sums a row, so every product equals the oracle's byte for byte
    mesh = build_mesh(n_h)
    A, M, D = assemble(mesh)
    A_full, M_full, _ = assemble_full(mesh)
    idx = mesh.interior_to_full()
    A_csr, M_csr = A_full[idx][:, idx], M_full[idx][:, idx]
    rng = np.random.default_rng(n_h)
    v = rng.standard_normal(mesh.n_interior) * 10.0 ** rng.integers(-8, 9, mesh.n_interior)
    shift = D * (rng.random(mesh.n_interior) < 0.5)
    assert (A @ v).tobytes() == (A_csr @ v).tobytes()
    assert (M @ v).tobytes() == (M_csr @ v).tobytes()
    got = SpdSystem(A, shift).matvec(v)
    assert got.tobytes() == SpdSystem(A_csr, shift).matvec(v).tobytes()


def test_interpolate_zero_field():
    mesh = build_mesh(9)
    gf = interpolate(mesh, lambda x1, x2: np.zeros_like(x1))
    assert np.array_equal(gf.values, np.zeros(mesh.n_interior))


def test_interpolate_exact_state_value():
    # direct evaluation: y*(0.5, 0.25) = 0.495^4 since sin(pi/2) = 1
    mesh = build_mesh(5)
    gf = interpolate(mesh, exact_state)
    x1, x2 = mesh.interior_coords()
    node = np.flatnonzero((x1 == 0.5) & (x2 == 0.25))[0]
    assert gf.values[node] == pytest.approx(0.495**4, rel=1e-14)
    assert gf.values[node] == pytest.approx(0.06003725, abs=1e-8)


def test_interpolate_exact_state_vanishes_outside_strip():
    # h = 1/200 puts nodes exactly on x1 = beta = 0.005, excluded by the half-open strip
    mesh = build_mesh(201)
    gf = interpolate(mesh, exact_state)
    x1, _ = mesh.interior_coords()
    assert np.all(gf.values[x1 <= 0.005] == 0.0)


def test_interpolate_scalar_callable():
    mesh = build_mesh(4)
    gf = interpolate(mesh, lambda x1, x2: x1 + 10 * x2)
    x1, x2 = mesh.interior_coords()
    assert gf.values == pytest.approx(x1 + 10 * x2)


def test_interpolate_rejects_wrong_shape():
    # f is evaluated once on the coordinate arrays, never node by node
    mesh = build_mesh(4)
    with pytest.raises(ValueError, match=r"needs 4 interior values, got shape \(\)"):
        interpolate(mesh, lambda x1, x2: 1.0)


def test_interpolate_nonfinite_rejected():
    mesh = build_mesh(3)
    with pytest.raises(ValueError, match="node 0"):
        interpolate(mesh, lambda x1, x2: np.full_like(x1, np.inf))


def test_m_norm_zero():
    mesh = build_mesh(9)
    _, M, _ = assemble(mesh)
    assert m_norm(M, np.zeros(mesh.n_interior)) == 0.0


def test_m_norm_matches_analytic_l2_norm():
    # ||sin(pi x1) sin(pi x2)||_L2 = 1/2; discrete quadrature error is O(h^2)
    mesh = build_mesh(128)
    _, M, _ = assemble(mesh)
    v = interpolate(mesh, lambda x1, x2: np.sin(np.pi * x1) * np.sin(np.pi * x2))
    assert m_norm(M, v) == pytest.approx(0.5, abs=1e-3)


def test_m_inner_symmetric_and_consistent():
    mesh = build_mesh(17)
    _, M, _ = assemble(mesh)
    rng = np.random.default_rng(0)
    for _ in range(5):
        v = rng.standard_normal(mesh.n_interior)
        w = rng.standard_normal(mesh.n_interior)
        assert m_inner(M, v, w) == pytest.approx(m_inner(M, w, v), rel=1e-14)
        assert m_norm(M, v) ** 2 == pytest.approx(m_inner(M, v, v), rel=1e-13)


def test_m_inner_dimension_mismatch():
    _, M, _ = assemble(build_mesh(5))
    with pytest.raises(ValueError, match="dimension mismatch"):
        m_inner(M, np.zeros(9), np.zeros(4))


def test_grid_function_validation():
    mesh = build_mesh(5)
    with pytest.raises(ValueError, match="interior values"):
        GridFunction(mesh, np.zeros(4))
    with pytest.raises(ValueError, match="role"):
        GridFunction(mesh, np.zeros(9), role="whatever")


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_grid_function_rejects_non_finite(bad):
    values = np.zeros(9)
    values[4] = bad
    message = "grid function contains non-finite values: .* at interior node 4"
    with pytest.raises(ValueError, match=message):
        GridFunction(build_mesh(5), values)


@pytest.mark.parametrize(
    "values, message",
    [
        (np.zeros(4), r"^u0 needs 9 interior values, got shape \(4,\)$"),
        (np.zeros((3, 3)), r"^u0 needs 9 interior values, got shape \(3, 3\)$"),
        (np.array([0, 0, 1, 2, -np.inf, 0, np.nan, 0, 0]),
         r"^u0 contains non-finite values: -inf at interior node 4$"),
    ],
    ids=["size", "2d", "inf"],
)
def test_field_values_names_the_argument(values, message):
    with pytest.raises(ValueError, match=message):
        field_values(build_mesh(5), "u0", values)


def test_field_values_passes_a_field_through():
    gf = GridFunction(build_mesh(5), np.arange(9.0))
    assert field_values(gf.mesh, "u0", gf) is gf.values
    assert field_values(gf.mesh, "u0", [1, 2, 3, 4, 5, 6, 7, 8, 9]).dtype == float


def test_read_grid_function_rejects_nan_line(tmp_path):
    path = tmp_path / "field.csv"
    path.write_text("n_h=3,role=state\nnan\n")
    message = f"{re.escape(str(path))}: grid function contains non-finite values: nan"
    with pytest.raises(ValueError, match=message):
        read_grid_function(path)


@pytest.mark.parametrize(
    "text, defect",
    [
        ("n_h=4,role=source,units=mm\n0\n0\n0\n0\n",
         r": malformed grid function header: 'n_h=4,role=source,units=mm'$"),
        ("n_h=4,role=source\n0\n0\n\n0\n0\n", r", line 4: blank line$"),
    ],
    ids=["unknown-key", "blank-line"],
)
def test_read_grid_function_rejects_what_it_would_ignore(tmp_path, text, defect):
    # each file loads but for its defect: n_h = 4 has 4 interior values
    path = tmp_path / "field.csv"
    path.write_text(text)
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}{defect}"):
        read_grid_function(path)


def test_grid_function_csv_roundtrip(tmp_path):
    mesh = build_mesh(7)
    rng = np.random.default_rng(5)
    gf = GridFunction(mesh, rng.standard_normal(mesh.n_interior), role="data")
    path = tmp_path / "field.csv"
    write_grid_function(path, gf)
    back = read_grid_function(path)
    assert back.mesh.n_h == 7
    assert back.role == "data"
    assert np.array_equal(back.values, gf.values)  # 17 significant digits round-trip float64
    header = path.read_text().splitlines()[0]
    assert header == "n_h=7,role=data"
