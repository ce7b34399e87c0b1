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
and returns D as that one number.  A stencil's diagonals depend only on x1,
so a :class:`StencilMatrix` stores them for one strip of STRIP_ENTRIES
nodes' worth of grid rows and applies the matrix strip by strip (cache
blocking of the stencil sweep); its products equal the whole DIA matrix's
bit for bit.
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


STRIP_ENTRIES = 1 << 16  # grid nodes per strip of a StencilMatrix, chosen by measurement


class StencilMatrix:
    """A constant stencil over the m x m interior grid, applied strip by strip.

    `stencil` lists (dx, dy, value) in increasing order of the offset
    dy*m + dx; each entry becomes one diagonal, in that order, which is the
    column order of CSR, so every output row sums its terms as CSR sums
    them.  An entry with no neighbor inside the grid at all (|dx| or
    |dy| >= m) is dropped, as its offset could collide with another's.

    The grid rows are cut into strips of STRIP_ENTRIES // m rows (the last
    may be shorter), each one scipy DIA matrix from its rows to their
    columns plus one halo row on each side, so that a strip's product reads
    cache-sized pieces of the diagonals and of x.  A diagonal's values
    depend only on x1, with explicit zeros where the neighbor is a
    Dirichlet node, so one C-contiguous array `data` of that many grid rows
    per diagonal serves every strip: the first strip has no halo below and
    the last none above, so they take a narrower shape, and scipy reads
    only the columns inside a shape.  With one strip (n_h <= 257) `@`
    returns the product of the whole DIA matrix; with more it fills one
    output strip by strip, and each row sums the same terms in the same
    order, so the bits are the same.  `offsets` are the diagonals' offsets
    in the whole matrix, and `tocsr()` builds the whole matrix.
    """

    def __init__(self, m: int, stencil):
        kept = [(dx, dy, v) for dx, dy, v in stencil if abs(dx) < m and abs(dy) < m]
        grid_row = np.zeros((len(kept), m))
        for diag, (dx, _, v) in zip(grid_row, kept):
            # scipy stores entry (row, col) of diagonal k = col - row at data[k, col]:
            # column jx has the row neighbor jx - dx inside the grid
            diag[max(dx, 0) : m + min(dx, 0)] = v
        rows = min(max(STRIP_ENTRIES // m, 1), m)
        self.data = np.tile(grid_row, min(rows + 2, m))
        self.offsets = np.array([dy * m + dx for dx, dy, _ in kept], dtype=np.int32)
        self.shape = (m * m, m * m)
        self.strips = []
        for first in range(0, m, rows):
            last = min(first + rows, m)
            below, above = max(first - 1, 0), min(last + 1, m)  # grid rows of x read
            strip = sp.dia_matrix(
                (self.data, self.offsets + (first - below) * m),
                shape=((last - first) * m, (above - below) * m),
            )
            self.strips.append((strip, slice(first * m, last * m), slice(below * m, above * m)))

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        if len(self.strips) == 1:
            return self.strips[0][0] @ x
        if np.shape(x) != self.shape[1:]:
            raise ValueError(f"dimension mismatch: {self.shape} @ {np.shape(x)}")
        out = np.empty(self.shape[0])
        for strip, rows, cols in self.strips:
            out[rows] = strip @ x[cols]
        return out

    def tocsr(self) -> sp.csr_matrix:
        """The whole matrix in canonical CSR form, without the explicit zeros."""
        repeats = -(-self.shape[1] // self.data.shape[1])  # the diagonals repeat every grid row
        whole = sp.dia_matrix((np.tile(self.data, repeats), self.offsets), shape=self.shape)
        return whole.tocsr()


def assemble(mesh: Mesh) -> tuple[StencilMatrix, StencilMatrix, float]:
    """Interior (A, M, D) with homogeneous Dirichlet conditions by elimination.

    A is the P1 stiffness matrix and M the consistent mass matrix, each a
    :class:`StencilMatrix`: one diagonal per stencil entry, explicit zeros
    at Dirichlet neighbors, stored for one strip of grid rows that every
    strip shares (6.5 MB for both at n_h = 1025, where whole diagonals took
    100 MB), with the products of the whole DIA matrix, bit for bit.  D is
    the lumped mass, a float: every interior node has the same support, so
    the lumped diagonal is D times the identity.  They are built straight
    from the interior stencils; the values are summed in the order element
    assembly sums them, so A and M equal :func:`assemble_full` restricted
    to the interior, and D each interior entry of its lumped mass, bit for
    bit.
    """
    area = 0.5 * mesh.h * mesh.h
    # a and b are the entries of the element mass matrix area * _MASS_UNIT;
    # every interior node lies in three lower and three upper triangles, and
    # every interior edge in one triangle of each kind
    a = area * (2.0 / 12.0)
    b = area * (1.0 / 12.0)
    diag, off = (a + a + a) + (a + a + a), b + b
    A = StencilMatrix(
        mesh.m, [(0, -1, -1.0), (-1, 0, -1.0), (0, 0, 4.0), (1, 0, -1.0), (0, 1, -1.0)]
    )
    M = StencilMatrix(
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
