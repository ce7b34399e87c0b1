"""Conjugate-gradient solver for the SPD systems arising in this package.

Every system solved here has the form (stiffness + nonnegative diagonal),
which is symmetric positive definite, so preconditioned CG with a tight
relative tolerance, or a caller's looser absolute floor, covers all needs.
The dense reductions (`dot`, `norm`) run in numpy's own einsum loop rather
than BLAS: BLAS splits a dot product across its thread pool, whose
summation order, and so the last bits, depend on the thread count, and
whose idle worker spins between the many small calls CG makes.  Repeated
solves with identical inputs therefore return bit-identical iterates on
any machine with the same numpy.

The one-level preconditioner is the inverse of the interior five-point
stiffness matrix A, applied via discrete sine transforms.  Since the
diagonal part of our systems is at most of size h^2, it clusters the
spectrum in [1, 1 + 1/(2 pi^2)] and CG converges in a handful of
iterations independently of the mesh.  The spread comes from the lowest
sine modes, so the Newton systems of `forward.solve_forward` use the
two-level map: the lowest COARSE_SIDE x COARSE_SIDE modes of K = A +
diag(shift) are solved exactly through their Galerkin matrix, whose
inverse `coarse_block_builder` forms once per system, and the rest are
divided by A's eigenvalues.  This is deflation with the coarse space the
sine transform gives for free (Nicolaides 1987); it bounds the rest's
spread by 1/(pi^2 (k^2 + 2k + 2)), 0.004 at k = 4, before the coupling of
the two blocks.  The subderivative solve of `bouligand` keeps the
one-level map: with the two-level one its CG saved applications only by
stopping just under the Landweber step's floor instead of well below it,
and the step then moved ten times further from the exact step.
`poisson_preconditioner` applies either map in the
precision its caller picks: float64 gives the exact inverse, the oracle;
float32, which `forward.ForwardProblem.build` picks on all but the smallest
grids, is enough, as a preconditioner only has to be spectrally close to the
inverse (inexact preconditioning, Golub-Ye 1999), while CG's iterates,
residuals, inner products and the true-residual check of `solve_spd` stay in
float64, so the tolerance contract is unchanged.

Each solve allocates its vectors once and updates them in place, rounding
exactly as the textbook formulas do: at n_h = 257 one solve peaks at about
5.6 vectors of the system's size (x, r, p, z, Ap, one scratch vector and
the preconditioner's buffers, the returned x included).  No table or buffer
outlives the preconditioner, the coarse-block builder or the solve that
made it.

This bottom module also holds `require_scalar`, the one check every number
that enters the package passes, with the tolerance and seed checks built on it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Integral, Real
from typing import Callable

import numpy as np
import scipy.sparse as sp
from scipy.fft import dstn

CG_TOL = 1e-12  # relative Euclidean residual every CG solve reaches
# below this ||b||_2, CG's inner products near its stop would lose digits to
# underflow, so solve_spd scales b up first (2^-400, about 3.9e-121)
TINY_RHS = 2.0**-400
# the two-level preconditioner solves the lowest COARSE_SIDE^2 sine modes exactly
COARSE_SIDE = 4


class ConvergenceError(RuntimeError):
    """CG failed to reach the requested tolerance; carries the achieved residual."""

    def __init__(self, message: str, residual: float):
        super().__init__(message)
        self.residual = residual


@dataclass(frozen=True)
class SpdSystem:
    """Sparse SPD matrix plus a nonnegative diagonal shift.

    `sparse` is applied with `@` only: production passes the DIA stiffness
    matrix of `mesh_fem.assemble`, tests also pass CSR oracles.
    """

    sparse: sp.spmatrix
    shift: np.ndarray

    @property
    def dim(self) -> int:
        return self.sparse.shape[0]

    def matvec(self, v: np.ndarray, scratch: np.ndarray | None = None) -> np.ndarray:
        """K v in a new vector; `scratch`, if given, receives shift * v."""
        out = self.sparse @ v
        out += np.multiply(self.shift, v, out=scratch)
        return out


def _sine_eigenvalues(m_side: int) -> np.ndarray:
    """Eigenvalues 2 - 2 cos(pi k / (m_side + 1)), k = 1..m_side, of the 1-D stencil."""
    k = np.arange(1, m_side + 1)
    return 2.0 - 2.0 * np.cos(np.pi * k / (m_side + 1))


def poisson_preconditioner(m_side: int, dtype=np.float64) -> Callable[..., np.ndarray]:
    """Inverse of the interior five-point stiffness matrix via DST-I, in `dtype`.

    Valid for float64 vectors over the m_side x m_side interior grid in
    row-major order.  The input is scaled by the power of two 2^-e, with e
    the binary exponent of max|r|, as it is cast to `dtype`, so that no
    residual over- or underflows there; both orthonormal DST-I passes and
    the division by the eigenvalues (summed in float64, rounded once to
    `dtype`) run in `dtype`, and the result is scaled back by 2^e into a new
    float64 array.  Powers of two are exact, so in float64 the map is the
    exact inverse, symmetric positive definite, also for subnormal r or r
    near the float64 maximum; in float32 only its rounding separates the
    two: the defect ||A P v - v||_2 / ||v||_2 is 3e-7 at m_side = 15 and
    3e-5 at 1023.  It is deterministic.  NaN or inf in r give non-finite
    output, which CG's breakdown check then catches.

    The returned map is solve(r, coarse=None).  A `coarse` block from the
    builder of `coarse_block_builder(m_side)` makes it the two-level map of
    that block's system: between the two DSTs the lowest k x k sine modes
    (k = min(COARSE_SIDE, m_side)) go through the k^2 x k^2 matrix
    `coarse`, and every other mode is divided by its eigenvalue as before.
    Without it the map keeps the bits of the one-level inverse.
    """
    c = _sine_eigenvalues(m_side)
    lam = np.empty((m_side, m_side), dtype)
    np.add(c[:, None], c[None, :], out=lam, casting="same_kind")
    k = min(COARSE_SIDE, m_side)

    def solve(r: np.ndarray, coarse: np.ndarray | None = None) -> np.ndarray:
        e = math.frexp(max(r.max(), -r.min()))[1]
        e = min(max(e, -1021), 1023)  # keep 2^-e and 2^e finite for extreme r
        scaled = np.empty((m_side, m_side), dtype)
        np.multiply(r.reshape(m_side, m_side), 2.0**-e, out=scaled, casting="same_kind")
        spectral = dstn(scaled, type=1, norm="ortho", overwrite_x=True)
        if coarse is None:
            spectral /= lam
        else:
            low = spectral[:k, :k].flatten()  # a copy, also where k = m_side
            spectral /= lam
            spectral[:k, :k] = (coarse @ low).reshape(k, k)
        scaled = dstn(spectral, type=1, norm="ortho", overwrite_x=True)
        return np.multiply(scaled, 2.0**e, dtype=np.float64).ravel()

    return solve


def coarse_block_builder(m_side: int) -> Callable[[np.ndarray], np.ndarray]:
    """The map from a shift to the coarse block of the two-level preconditioner.

    For K = A + diag(shift), with A the interior five-point stiffness matrix
    on the m_side x m_side grid and `shift` one value >= 0 per node in
    row-major order, the block is the inverse of the Galerkin matrix
    C = Lambda_c + Z_c^T diag(shift) Z_c on the lowest k x k sine modes
    (k = min(COARSE_SIDE, m_side)), Z_c their orthonormal DST-I vectors:
    `poisson_preconditioner(m_side)(r, block)` then solves those modes of
    K exactly, so for k = m_side it is K^{-1} itself.  It is returned
    symmetrized, float64, k^2 x k^2, with mode (a, b) at row a k + b.

    Z_c is separable, s_a(i) s_b(j), so C's shift part is a sum over rows i
    of s_a(i) s_c(i) times the row's sum of shift_ij s_b(j) s_d(j).  Summed
    by parts, each row's sum is a sum over the jumps of its shift against
    prefix sums of s_b s_d, whose table the builder keeps: the work grows
    with the number of runs of equal shift, not with the grid, and any
    shift is exact, a nonuniform one having runs of length 1.  The sums run
    in numpy's einsum; the 16 x 16 inverse, and the 16 x 16 product of each
    application, are far too small for BLAS to split, so no call wakes a
    BLAS thread.
    """
    k = min(COARSE_SIDE, m_side)
    c = _sine_eigenvalues(m_side)[:k]
    lam_c = (c[:, None] + c[None, :]).ravel()
    grid = np.arange(1, m_side + 1)
    modes = np.arange(1, k + 1)
    sines = math.sqrt(2.0 / (m_side + 1)) * np.sin(np.pi / (m_side + 1) * np.outer(modes, grid))
    # one row of products s_a s_c per pair a <= c, and where each pair of
    # modes (a, b), (c, d) finds its row-pair and column-pair sum
    first, second = np.triu_indices(k)
    products = sines[first] * sines[second]
    pair = np.empty((k, k), dtype=np.intp)
    pair[first, second] = pair[second, first] = np.arange(len(first))
    a, b = np.divmod(np.arange(k * k), k)
    gather = (pair[a[:, None], a[None, :]], pair[b[:, None], b[None, :]])
    prefix = np.zeros((len(first), m_side + 1))  # prefix[:, j]: products summed over nodes < j
    np.cumsum(products, axis=1, out=prefix[:, 1:])

    def build(shift: np.ndarray) -> np.ndarray:
        # where the flat shift changes at p = m_side i + j, row i's sum gains
        # (shift_i,j-1 - shift_ij) prefix_j; prefix_0 = 0 absorbs the changes
        # across row starts, and each row's last value meets prefix_m
        p = np.flatnonzero(shift[1:] != shift[:-1])
        p += 1
        rows, cols = np.divmod(p, m_side)
        jumps = prefix[:, cols]
        jumps *= shift[p - 1] - shift[p]
        sums = np.einsum("an,bn->ab", products[:, rows], jumps)
        last = np.einsum("an,n->a", products, shift[m_side - 1 :: m_side])
        sums += np.multiply.outer(last, prefix[:, -1])
        block = sums[gather]
        block.flat[:: k * k + 1] += lam_c
        inverse = np.linalg.inv(block)
        coarse = inverse + inverse.T
        coarse *= 0.5
        return coarse

    return build


def require_scalar(name: str, value, kind, bound, requirement: str):
    """`value` as a plain int (`kind` Integral) or float (`kind` Real) where bound holds.

    Every number that enters the package passes here.  Anything else raises
    ValueError "<name> must <requirement>, got <value!r>": a value not of
    `kind`, a bool (an int to Python, so True would read as 1), and a value
    that fails `bound`, which sees the plain number.  An integer beyond the
    float range reads as inf there rather than raising OverflowError.  A
    bound that must reject NaN is written so that NaN fails it, as
    `0.0 <= v < math.inf` does and `not v < 0.0` does not.
    """
    if not isinstance(value, bool) and isinstance(value, kind):
        try:
            number = int(value) if kind is Integral else float(value)
        except OverflowError:
            number = math.inf
        if bound(number):
            return number
    raise ValueError(f"{name} must {requirement}, got {value!r}")


# (kind, bound, requirement) of the rules most numbers follow; each bound fails NaN
FINITE_NONNEGATIVE = (Real, lambda v: 0.0 <= v < math.inf, "be finite and >= 0")
FINITE_POSITIVE = (Real, lambda v: 0.0 < v < math.inf, "be finite and positive")
NONNEGATIVE_INTEGER = (Integral, lambda v: v >= 0, "be an integer >= 0")
POSITIVE_INTEGER = (Integral, lambda v: v >= 1, "be an integer >= 1")


def require_tolerance(name: str, value) -> float:
    """A tolerance: a finite real number >= 0, else ValueError naming `name`."""
    return require_scalar(name, value, *FINITE_NONNEGATIVE)


def require_seed(seed) -> int:
    """A random seed as a plain int: an integer >= 0 (NumPy's included), else ValueError."""
    return require_scalar("seed", seed, *NONNEGATIVE_INTEGER)


def dot(a: np.ndarray, b: np.ndarray) -> float:
    """Euclidean inner product a^T b, summed by numpy without BLAS."""
    return float(np.einsum("i,i->", a, b))


def norm(a: np.ndarray) -> float:
    """Euclidean norm ||a||_2 = sqrt(a^T a), summed by numpy without BLAS."""
    return math.sqrt(dot(a, a))


def _pcg(
    system: SpdSystem, x: np.ndarray, r: np.ndarray, pre, tol_abs: float, max_iter: int, early_exit
) -> bool | None:
    """Continue CG from the iterate x whose residual b - K x is r, updating both in place.

    Besides x and r it holds p, z, Ap and one scratch vector.  Each update
    rounds exactly as x + alpha p, r - alpha Ap and z + beta p do, since
    IEEE products and sums commute.  With `early_exit` = (tol, test), the
    first iterate whose residual is at most tol but above tol_abs goes to
    test: the run stops there if test holds, and goes on to tol_abs if not.
    Returns test's verdict, or None where test was not called.
    """
    p = pre(r)
    rz = dot(r, p)
    scratch = np.empty_like(x)
    verdict = None
    for _ in range(max_iter):
        Ap = system.matvec(p, scratch)
        pAp = dot(p, Ap)
        if not pAp > 0.0:  # also NaN curvature
            raise ConvergenceError(
                f"CG breakdown: curvature {pAp} is not positive (matrix not SPD?)",
                residual=norm(r),
            )
        alpha = rz / pAp
        x += np.multiply(p, alpha, out=scratch)
        Ap *= alpha
        r -= Ap
        residual = norm(r)
        if residual <= tol_abs:
            return verdict
        if verdict is None and early_exit is not None and residual <= early_exit[0]:
            verdict = bool(early_exit[1](x))
            if verdict:
                return verdict
        del Ap  # freed before the preconditioner and the next matvec allocate
        z = pre(r)
        rz_new = dot(r, z)
        p *= rz_new / rz
        p += z
        del z  # likewise
        rz = rz_new
    raise ConvergenceError(
        f"CG did not converge within {max_iter} iterations "
        f"(residual {norm(r):.3e}, target {tol_abs:.3e})",
        residual=norm(r),
    )


def solve_spd(
    system: SpdSystem,
    b: np.ndarray,
    preconditioner: Callable[[np.ndarray], np.ndarray],
    atol: float = 0.0,
    early_exit: tuple[float, Callable[[np.ndarray], bool]] | None = None,
) -> np.ndarray:
    """Solve K x = b for the SPD system K to a residual of max(CG_TOL * ||b||_2, atol).

    `preconditioner` applies an SPD approximation of K^{-1}.  The returned x
    satisfies ||K x - b||_2 <= max(CG_TOL * ||b||_2, atol) (verified on the
    true residual, restarting the recurrence if necessary); each CG run is
    capped at 10 * dim iterations.  The absolute floor `atol` (finite, >= 0,
    not a bool, else ValueError) lets a caller that needs less than the
    relative accuracy stop early, as the Newton increments of
    `forward.solve_forward` do.  b is never modified; x, r and p are
    updated in place, so `preconditioner` must return a new array rather
    than its argument.  A finite b whose
    norm overflows (||b||_2 above about 1e154, where its square exceeds the
    float range) raises ConvergenceError before any iteration.  A nonzero b
    with ||b||_2 below TINY_RHS (down to subnormal entries, whose norm
    underflows to 0) is solved scaled up by a power of two, so that neither
    its norm nor CG's inner products underflow; only b = 0 gives x = 0.

    `early_exit` = (tol, test), with tol finite and >= 0 (not a bool),
    offers one earlier stop to a caller that can tell from the iterate
    whether it needs more, as a Newton step whose active set moves can
    (`forward.solve_forward`).
    The first time CG's recurrence residual falls to tol, but not yet to the
    floor above, test(x) is called once with the current iterate, which it
    must not modify.  If it returns true the solve ends there, and its
    true-residual check (and any restart) targets tol instead of the floor;
    if false, CG goes on to the floor and test is not called again, restarts
    included.  Where test is never called or returns false, x has the bits
    of a call without the exit.
    """
    require_tolerance("atol", atol)
    if early_exit is not None:
        require_tolerance("early exit tol", early_exit[0])
    b = np.asarray(b, dtype=float)
    if b.shape != (system.dim,):
        raise ValueError(f"dimension mismatch: system dim {system.dim}, b shape {b.shape}")
    if not np.all(np.isfinite(b)):
        raise ValueError("right-hand side contains non-finite entries")
    norm_b = norm(b)
    if not math.isfinite(norm_b):
        raise ConvergenceError(
            f"right-hand side too large: its norm overflows to {norm_b}",
            residual=norm_b,
        )
    if norm_b < TINY_RHS:
        if not b.any():
            return np.zeros_like(b)
        # K x = b is linear and powers of two scale exactly: solve for b
        # scaled to max|b_i| in [0.5, 1); a floor above max|b_i| is capped
        # there, and the exit's test sees the iterate scaled back
        e = math.frexp(np.abs(b).max())[1]

        def scaled(tol):
            return math.ldexp(min(tol, math.ldexp(1.0, e)), -e)

        if early_exit is not None:
            tol, test = early_exit
            early_exit = (scaled(tol), lambda x: test(np.ldexp(x, e)))
        x = solve_spd(system, np.ldexp(b, -e), preconditioner, scaled(atol), early_exit)
        return np.ldexp(x, e)
    tol_abs = max(CG_TOL * norm_b, atol)

    x, r = np.zeros_like(b), b.copy()
    achieved = np.inf
    for _ in range(3):  # restart on stale recurrence residual
        verdict = _pcg(system, x, r, preconditioner, tol_abs, 10 * system.dim, early_exit)
        if verdict is not None:
            if verdict:
                tol_abs = early_exit[0]
            early_exit = None  # test is called at most once
        np.subtract(b, system.matvec(x, r), out=r)
        achieved = norm(r)
        if achieved <= tol_abs:
            return x
    raise ConvergenceError(
        f"CG stagnated: true residual {achieved:.3e} above target {tol_abs:.3e}",
        residual=achieved,
    )
