#!/usr/bin/env bash
# The benchmark smoke runs: each workload once, traced, at seed 3 with
# --seconds 0; each must read correct within its failure and work allowances.
#
# Usage: bash -eo pipefail ci/smoke_checks.sh
#   Run it from the root of the checkout; a failing perfbench/run.py, or
#   a run outside its allowances, fails the script.
#
# A failed operation (say a forward-failure) still reads correct: true,
# so the failures are counted too; refine may fail only its four sizes
# n_h >= 385, whose CG stagnates.  Preconditioner applications,
# matvecs and CG solves do not depend on the machine, so each workload
# also has a ceiling on each: its count at seed 3 with the
# forward-error floor of the Landweber solves, the moving-set CG
# exit of their warm Newton steps, the Galerkin prediction's K g
# summed from the A g each increment keeps, which takes no matvec,
# the two-level preconditioner of the Newton systems (the lowest 4x4
# sine modes solved exactly), and, on table257, one solve of the
# cells' shared start.
# Each Newton step is one CG solve, so a Newton loop that misses a
# repeated active set exceeds the CG-solve ceiling.  Forward solves
# have a ceiling too: the traced count is the solves made inside
# the Landweber runs, one per step, since the campaign solves the
# cells' shared start once, before its first cell and outside the
# counted name.  So a cell that solves the start again exceeds
# it, a second solve of the start anywhere exceeds the CG-solve
# ceiling with its Newton steps, and a loop that loses a warm
# start exceeds the others
set -eo pipefail
for spec in table257:0:345:466:121:42 zero129:0:2278:3281:1004:500 refine:4:62:84:12:6; do
  IFS=: read -r workload max_failed max_applies max_matvecs max_solves max_forward <<< "$spec"
  last=$(python3 perfbench/run.py --workload "$workload" --seed 3 --seconds 0 --trace 1 | tail -n 1)
  echo "$workload (at most $max_failed failed, $max_applies preconditioner applications, $max_matvecs matvecs, $max_solves CG solves, $max_forward forward solves): $last"
  echo "$last" | python3 -c '
import json, sys
r = json.load(sys.stdin)
count = lambda name: r["metrics"][name]["value"]
names = ("precond_applies", "matvec_calls", "solve_spd_calls")
names = [f"sparse_linalg.{name}" for name in names] + ["forward.solve_forward_calls"]
within = all(count(name) <= int(ceiling) for name, ceiling in zip(names, sys.argv[2:6]))
sys.exit(not (r["correct"] is True and r["failed"] <= int(sys.argv[1]) and within))
' "$max_failed" "$max_applies" "$max_matvecs" "$max_solves" "$max_forward"
done
