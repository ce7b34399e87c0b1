"""The nonsmooth forward problem and its semi-smooth Newton solver.

Solves A y + D max(y, 0) = M u for several sources, shows the active-set
iteration terminating after a handful of steps, and cross-checks against the
brute-force pattern enumeration on a tiny mesh.
"""

import numpy as np

from bouligand_landweber import (
    ForwardProblem,
    brute_force_forward,
    build_mesh,
    exact_fields,
    m_norm,
    solve_forward,
)

# scalar sanity checks on the one-unknown mesh: both max branches by hand
tiny = ForwardProblem.build(build_mesh(3))
for u_val, expected in ((1.0, 0.125 / 4.25), (-1.0, -0.125 / 4.0)):
    sol = solve_forward(tiny, np.array([u_val]))
    print(f"n_h=3, u={u_val:+.0f}: y = {sol.y.values[0]:+.12f} (hand value {expected:+.12f})")

# brute-force oracle: enumerate all 2^9 sign patterns on the 3x3 interior grid
small = ForwardProblem.build(build_mesh(5))
rng = np.random.default_rng(0)
worst = 0.0
for _ in range(50):
    u = rng.uniform(-1, 1, small.mesh.n_interior)
    diff = np.abs(solve_forward(small, u).y.values - brute_force_forward(small, u).values)
    worst = max(worst, float(diff.max()))
print(f"max |SSN - enumeration| over 50 random sources at n_h=5: {worst:.2e}")

# the benchmark source on a production mesh
problem = ForwardProblem.build(build_mesh(257))
u_exact, y_exact, _ = exact_fields(problem.mesh)
sol = solve_forward(problem, u_exact)
active = np.count_nonzero(sol.active_pattern)
print(f"n_h=257 benchmark: {sol.ssn_iterations} Newton steps, "
      f"residual {sol.final_residual:.2e}, {active}/{problem.mesh.n_interior} active nodes")
print(f"distance to the interpolated exact state: "
      f"{m_norm(problem.M, sol.y.values - y_exact.values):.2e} (discretization error)")

