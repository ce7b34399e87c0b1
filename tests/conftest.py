import sys
import tracemalloc

import numpy as np
import pytest

from bouligand_landweber import (
    ForwardProblem,
    apply_subderivative,
    build_linearized,
    build_mesh,
    solve_forward,
)


@pytest.fixture(scope="session")
def problem9():
    return ForwardProblem.build(build_mesh(9))


@pytest.fixture(scope="session")
def problem17():
    return ForwardProblem.build(build_mesh(17))


@pytest.fixture(scope="session")
def problem33():
    return ForwardProblem.build(build_mesh(33))


@pytest.fixture(scope="session")
def problem65():
    return ForwardProblem.build(build_mesh(65))


@pytest.fixture(scope="session")
def problem257():
    return ForwardProblem.build(build_mesh(257))


class CountingMatrix:
    """Stands in for A or M and counts its products; the solvers use only `@` and `.shape`."""

    def __init__(self, matrix):
        self.matrix, self.shape, self.products = matrix, matrix.shape, 0

    def __matmul__(self, v):
        self.products += 1
        return self.matrix @ v


def traced_call(fn):
    """fn()'s result with the (held, peak) bytes tracemalloc traced over the call.

    Counted from the start of the call, so what fn returns is included and
    what the caller already holds is not; `held` is what is still allocated
    at the end, with the result alive.  A line tracer, as a coverage run
    installs, keeps frames and their arrays alive, so it is suspended for
    the call and restored after.
    """
    tracer = sys.gettrace()
    sys.settrace(None)
    tracemalloc.start()
    try:
        result = fn()
        return result, tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
        sys.settrace(tracer)


def peak_vectors(fn, n: int) -> float:
    """Peak memory that fn() allocates, traced by tracemalloc, in vectors of n doubles."""
    return traced_call(fn)[1][1] / (8 * n)


def matched_pattern_pair(problem, rng):
    """Pair (u, u_hat) whose states share a strict sign pattern.

    A strongly positive source keeps the state positive at every interior
    node; the perturbation amplitude is capped nodewise so the state stays
    clear of zero, which makes the subderivative linearization exact.
    """
    n = problem.mesh.n_interior
    x1, x2 = problem.mesh.interior_coords()
    i, j = rng.integers(1, 4), rng.integers(1, 3)
    u = 10.0 + 3.0 * np.sin(i * np.pi * x1) * np.sin(j * np.pi * x2)
    u = u + 0.5 * rng.standard_normal(n)
    sol = solve_forward(problem, u)
    y = sol.y.values
    assert np.all(y > 0.0)
    w = rng.standard_normal(n)
    eta = apply_subderivative(build_linearized(problem, sol.y), problem.M, w).values
    amplitude = 0.45 * np.min(y / np.maximum(np.abs(eta), 1e-300))
    u_hat = u + amplitude * w
    sol_hat = solve_forward(problem, u_hat)
    assert np.array_equal(sol_hat.active_pattern, sol.active_pattern)
    return u, u_hat
