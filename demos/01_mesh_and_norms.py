"""Meshes, finite-element matrices and discrete norms.

Walks through the discretization layer: build a uniform triangulated mesh of
the unit square, assemble the stiffness/mass/lumped-mass matrices, inspect
the interior stencils, and evaluate discrete L2 norms against closed forms.
"""

import numpy as np

from bouligand_landweber import (
    assemble,
    assemble_full,
    build_mesh,
    interpolate,
    m_norm,
)

n_h = 33
mesh = build_mesh(n_h)
print(f"mesh: {n_h} x {n_h} vertices, h = {mesh.h:.5f}, {mesh.n_interior} interior nodes")

A, M, D = assemble(mesh)
print(f"stiffness A: {A.shape}, {A.count_nonzero()} nonzeros")
print(f"mass M:      {M.shape}, {M.count_nonzero()} nonzeros")

# the interior stencil: 4 on the diagonal, -1 to the four edge neighbors
center = (mesh.m // 2) * mesh.m + mesh.m // 2
row = A.getrow(center)
print(f"stiffness row at a central node: diag {row[0, center]}, "
      f"off-diagonals {sorted(float(v) for v in set(row.data) - {4.0})}")
print(f"lumped mass, one number at every interior node: D = {D:.6g} (= h^2 = {mesh.h**2:.6g})")

# the hat functions partition unity, so the full mass matrix sums to |Omega| = 1
_, M_full, D_full = assemble_full(mesh)
print(f"sum of all boundary-inclusive mass entries: {M_full.sum():.15f} (exact: 1)")

# D is the row-sum lumping of M at every interior node
idx = mesh.interior_to_full()
row_sums = np.asarray(M_full.sum(axis=1)).ravel()[idx]
print(f"max |D - sum_j M_ij| over interior nodes: {np.max(np.abs(D - row_sums)):.2e}")

# discrete L2 norm of a nodal interpolant vs the analytic value 1/2
for size in (32, 64, 128, 256):
    fine = build_mesh(size)
    _, Mf, _ = assemble(fine)
    v = interpolate(fine, lambda x1, x2: np.sin(np.pi * x1) * np.sin(np.pi * x2))
    print(f"n_h={size:4d}: ||sin sin||_M = {m_norm(Mf, v):.8f}  (analytic 0.5, error O(h^2))")
