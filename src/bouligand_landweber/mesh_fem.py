"""P1 finite elements on a uniform Friedrichs-Keller mesh of the unit square.

The mesh has n_h vertices per side (spacing h = 1/(n_h-1)); every grid cell
is split along its bottom-left to top-right diagonal.  Homogeneous Dirichlet
conditions are imposed by eliminating boundary unknowns, so the assembled
system matrices act on the (n_h-2)^2 interior nodes only.  Interior nodes
are numbered row-major: x1 varies fastest, x2 slowest.

For interior nodes the resulting stencils are

* stiffness A: 4 on the diagonal, -1 at the four edge neighbors (dimensionless),
* consistent mass M: h^2/2 on the diagonal, h^2/12 at the six edge-connected
  neighbors (E, W, N, S, NE, SW),
* lumped mass D: one third of the nodal support area, i.e. h^2, the same
  number at every interior node.

:func:`assemble` builds the interior matrices straight from these stencils
and returns D as that one number.
:func:`assemble_full` assembles the boundary-inclusive matrices element by
element; it is the oracle the stencil matrices are tested against, bit for
bit.

Since all discrete fields of interest vanish on the boundary, inner products
taken with the interior mass matrix coincide with boundary-inclusive ones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Real
from typing import Callable

import numpy as np
import scipy.sparse as sp

from .sparse_linalg import dot, require_scalar

ROLES = ("state", "source", "data")


@dataclass(frozen=True)
class Mesh:
    """Uniform Friedrichs-Keller triangulation with n_h >= 3 vertices per side.

    Smaller grids have no interior node, so they raise ValueError, as do a
    bool and a non-integer n_h; an integral float such as 3.0 is stored as
    the int 3.
    """

    n_h: int

    def __post_init__(self):
        # the bound sees the float, so that 3.0 passes and NaN fails
        whole = lambda v: v >= 3 and v.is_integer()
        require_scalar("n_h", self.n_h, Real, whole, "be an integer >= 3")
        object.__setattr__(self, "n_h", int(self.n_h))

    @property
    def h(self) -> float:
        """Grid spacing 1/(n_h - 1)."""
        return 1.0 / (self.n_h - 1)

    @property
    def m(self) -> int:
        """Interior nodes per side."""
        return self.n_h - 2

    @property
    def n_interior(self) -> int:
        return self.m * self.m

    def interior_coords(self) -> tuple[np.ndarray, np.ndarray]:
        """Coordinates (x1, x2) of all interior nodes in row-major order."""
        idx = np.arange(self.n_interior)
        iy, ix = np.divmod(idx, self.m)
        return (ix + 1) * self.h, (iy + 1) * self.h

    def interior_to_full(self) -> np.ndarray:
        """Full-grid node ids of the interior nodes, row-major."""
        idx = np.arange(self.n_interior)
        iy, ix = np.divmod(idx, self.m)
        return (iy + 1) * self.n_h + (ix + 1)


def build_mesh(n_h: int) -> Mesh:
    """Mesh with n_h >= 3 vertices per side; `Mesh` checks n_h."""
    return Mesh(n_h)


@dataclass
class GridFunction:
    """Nodal values at the interior mesh nodes; boundary values are implicitly zero."""

    mesh: Mesh
    values: np.ndarray
    role: str = "source"

    def __post_init__(self):
        self.values = np.ascontiguousarray(field_values(self.mesh, "grid function", self.values))
        if self.role not in ROLES:
            raise ValueError(f"unknown role {self.role!r}, expected one of {ROLES}")


def values_of(v) -> np.ndarray:
    """Raw value array of a GridFunction or array-like."""
    if isinstance(v, GridFunction):
        return v.values
    return np.asarray(v, dtype=float)


def field_values(mesh: Mesh, name: str, v) -> np.ndarray:
    """The values of field `v` (GridFunction or array-like), checked where a field
    enters the package: one finite value per interior node of `mesh`, else
    ValueError naming `name`.
    """
    values = values_of(v)
    n = mesh.n_interior
    if values.shape != (n,):
        raise ValueError(f"{name} needs {n} interior values, got shape {values.shape}")
    return require_finite(name, values)


def require_finite(name: str, values: np.ndarray) -> np.ndarray:
    """`values`, or ValueError naming `name` and its first NaN or infinite entry."""
    finite = np.isfinite(values)
    if not finite.all():
        k = int(np.argmin(finite))
        raise ValueError(f"{name} contains non-finite values: {values[k]} at interior node {k}")
    return values


# local element matrices on the two triangles of a cell with corners
# n00=(0,0), n10=(h,0), n01=(0,h), n11=(h,h):
#   lower triangle (n00, n10, n11), upper triangle (n00, n11, n01)
_STIFF_LOWER = 0.5 * np.array([[1.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 1.0]])
_STIFF_UPPER = 0.5 * np.array([[1.0, 0.0, -1.0], [0.0, 1.0, -1.0], [-1.0, -1.0, 2.0]])
_MASS_UNIT = np.array([[2.0, 1.0, 1.0], [1.0, 2.0, 1.0], [1.0, 1.0, 2.0]]) / 12.0  # times |T|


def _triangles(mesh: Mesh) -> tuple[np.ndarray, np.ndarray]:
    """Vertex index triples (lower, upper) of all cells in full-grid numbering."""
    n = mesh.n_h
    c = np.arange(n - 1)
    cx, cy = np.meshgrid(c, c, indexing="xy")
    n00 = (cy * n + cx).ravel()
    lower = np.stack([n00, n00 + 1, n00 + n + 1], axis=1)
    upper = np.stack([n00, n00 + n + 1, n00 + n], axis=1)
    return lower, upper


def _accumulate(tris: np.ndarray, local: np.ndarray, n: int) -> sp.coo_matrix:
    ii = np.repeat(tris, 3, axis=1).ravel()
    jj = np.tile(tris, (1, 3)).ravel()
    vv = np.tile(local.ravel(), tris.shape[0])
    return sp.coo_matrix((vv, (ii, jj)), shape=(n, n))


def assemble_full(mesh: Mesh) -> tuple[sp.csr_matrix, sp.csr_matrix, np.ndarray]:
    """Boundary-inclusive stiffness, mass and lumped-mass over all n_h^2 nodes.

    Element by element over all cells.  This is the oracle for verification
    (partition of unity, row-sum lumping, and :func:`assemble` against its
    interior block); production systems use :func:`assemble`.
    """
    n2 = mesh.n_h * mesh.n_h
    area = 0.5 * mesh.h * mesh.h
    lower, upper = _triangles(mesh)
    A = (_accumulate(lower, _STIFF_LOWER, n2) + _accumulate(upper, _STIFF_UPPER, n2)).tocsr()
    mass_local = area * _MASS_UNIT
    M = (_accumulate(lower, mass_local, n2) + _accumulate(upper, mass_local, n2)).tocsr()
    # nodal support areas, divided by 3 once at the end (one rounding, not six)
    D = np.zeros(n2)
    np.add.at(D, lower.ravel(), area)
    np.add.at(D, upper.ravel(), area)
    D /= 3.0
    A.sort_indices()
    M.sort_indices()
    return A, M, D


def _stencil_matrix(m: int, stencil) -> sp.dia_matrix:
    """DIA matrix over the m x m interior grid from a constant stencil.

    `stencil` lists (dx, dy, value) in increasing order of the offset
    dy*m + dx; each entry becomes one stored diagonal, in that order, which
    is the column order of CSR, so products sum their terms as CSR sums
    them.  Where the neighbor is a Dirichlet node the diagonal stores an
    explicit zero.  An entry with no neighbor inside the grid at all
    (|dx| or |dy| >= m) is dropped, as its offset could collide with
    another's.
    """
    kept = [(dx, dy, v) for dx, dy, v in stencil if abs(dx) < m and abs(dy) < m]
    data = np.zeros((len(kept), m, m))
    for diag, (dx, dy, v) in zip(data, kept):
        # scipy stores entry (row, col) of diagonal k = col - row at data[k, col]:
        # column (jx, jy) has the row neighbor (jx - dx, jy - dy) inside the grid
        diag[max(dy, 0) : m + min(dy, 0), max(dx, 0) : m + min(dx, 0)] = v
    offsets = np.array([dy * m + dx for dx, dy, _ in kept], dtype=np.int32)
    return sp.dia_matrix((data.reshape(len(kept), m * m), offsets), shape=(m * m, m * m))


def assemble(mesh: Mesh) -> tuple[sp.dia_matrix, sp.dia_matrix, float]:
    """Interior (A, M, D) with homogeneous Dirichlet conditions by elimination.

    A is the P1 stiffness matrix and M the consistent mass matrix, both
    stored by diagonals (DIA: one diagonal per stencil entry, explicit
    zeros at Dirichlet neighbors).  D is the lumped mass, a float: every
    interior node has the same support, so the lumped diagonal is D times
    the identity.  They are built straight from the interior stencils; the
    values are summed in the order element assembly sums them, so A and M
    equal :func:`assemble_full` restricted to the interior, and D each
    interior entry of its lumped mass, bit for bit.
    """
    area = 0.5 * mesh.h * mesh.h
    # a and b are the entries of the element mass matrix area * _MASS_UNIT;
    # every interior node lies in three lower and three upper triangles, and
    # every interior edge in one triangle of each kind
    a = area * (2.0 / 12.0)
    b = area * (1.0 / 12.0)
    diag, off = (a + a + a) + (a + a + a), b + b
    A = _stencil_matrix(
        mesh.m, [(0, -1, -1.0), (-1, 0, -1.0), (0, 0, 4.0), (1, 0, -1.0), (0, 1, -1.0)]
    )
    M = _stencil_matrix(
        mesh.m,
        [(-1, -1, off), (0, -1, off), (-1, 0, off), (0, 0, diag), (1, 0, off), (0, 1, off),
         (1, 1, off)],
    )
    # the support of six triangles, summed one at a time as assemble_full sums it
    return A, M, (area + area + area + area + area + area) / 3.0


def interpolate(mesh: Mesh, f: Callable) -> GridFunction:
    """Nodal interpolant of the source f(x1, x2), called once on the interior coordinate arrays."""
    return GridFunction(mesh, f(*mesh.interior_coords()), "source")


def m_inner(M: sp.spmatrix, v, w) -> float:
    """Discrete L2 inner product v^T M w."""
    a, b = values_of(v), values_of(w)
    if a.shape != b.shape or M.shape[1] != a.size:
        raise ValueError(f"dimension mismatch: M {M.shape}, v {a.shape}, w {b.shape}")
    return dot(a, M @ b)


def m_norm(M: sp.spmatrix, v) -> float:
    """Discrete L2 norm sqrt(v^T M v)."""
    return math.sqrt(max(m_inner(M, v, v), 0.0))


def write_grid_function(path, gf: GridFunction) -> None:
    """Write a grid function as CSV: header `n_h=<int>,role=<role>`, then one value per line."""
    with open(path, "w") as fh:
        fh.write(f"n_h={gf.mesh.n_h},role={gf.role}\n")
        for v in gf.values:
            fh.write(f"{v:.17g}\n")


def read_grid_function(path) -> GridFunction:
    """Read a grid function written by :func:`write_grid_function`.

    A malformed file raises ValueError naming the path: a header other than
    `n_h=<int>,role=<role>` (an unknown key included), a blank line (with
    its line number), or a value that does not parse.
    """
    with open(path) as fh:
        header = fh.readline().strip()
        lines = fh.readlines()
    items = [item.split("=", 1) for item in header.split(",")]
    fields = dict(item for item in items if len(item) == 2)
    if len(fields) != len(items) or fields.keys() != {"n_h", "role"}:
        raise ValueError(f"{path}: malformed grid function header: {header!r}")
    for number, line in enumerate(lines, start=2):
        if not line.strip():
            raise ValueError(f"{path}, line {number}: blank line")
    try:
        mesh = build_mesh(int(fields["n_h"]))
        return GridFunction(mesh, np.array([float(line) for line in lines]), fields["role"])
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
