#!/usr/bin/env bash
# The checks of the console command: records whose stopping rule re-checks,
# a strict verify summary, campaign tables, the forward state, and the
# usage error (exit 2, no traceback) of each bad value.
#
# Usage: ci/console_checks.sh COMMAND...
#   COMMAND is the console command, `bouligand-landweber` where the package
#   is installed or `python -m bouligand_landweber`; `python` must import
#   the same package.  Run it in an empty directory outside the checkout,
#   so that only that package is importable; it writes its files there.
# n = 17 runs the preconditioner in float64 (m = 15), n = 33 in float32 (m = 31)
set -e
for n in 17 33; do
  "$@" invert --n "$n" --delta-target 1e-2 --seed 1 --out "rec$n.csv"
  python -c 'import sys; from bouligand_landweber import RunRecord; sys.exit(not RunRecord.load(sys.argv[1]).check_discrepancy())' "rec$n"
done
"$@" verify --suite oracle --oracle-sizes 3 --oracle-trials 5 --out v.csv
python -c '
import json, sys
def reject(token):
    raise ValueError(f"non-standard JSON token {token}")
summary = json.loads(open("v.json").read(), parse_constant=reject)
sys.exit(summary["passed"] is not True)
'
# an lbar whose square overflows, or whose step (2 - 2 mu) / lbar^2 does,
# is a usage error naming it (exit 2), not a traceback or a run
for lbar in 1e200 1e-160; do
  status=0
  "$@" invert --n 9 --delta-target 1e-2 --lbar "$lbar" --out bad.csv 2> bad.err || status=$?
  cat bad.err
  test "$status" -eq 2
  grep -q "lbar must" bad.err
done
# a noise level of 0 would leave the discrepancy principle a threshold of 0;
# it is a usage error naming the option (exit 2), not a max-iterations run
for option in --delta-target --sigma; do
  status=0
  "$@" invert --n 9 "$option" 0 --out bad.csv 2> bad.err || status=$?
  cat bad.err
  test "$status" -eq 2
  grep -q -- "argument $option: value must be finite and positive" bad.err
done
# so is a level whose data measure delta = 0 (the noise is lost in the
# rounding of y*) or a delta that is not finite, before any run, with no traceback
for spec in invert:--delta-target:1e-170 invert:--sigma:1e300 table:--deltas:1e-2,1e300; do
  IFS=: read -r command option level <<< "$spec"
  status=0
  "$@" "$command" --n 9 "$option" "$level" --out bad.csv 2> bad.err || status=$?
  cat bad.err
  test "$status" -eq 2
  grep -q -- "argument $option: delta of .* noise at level .* must be finite and positive" bad.err
  if grep -q Traceback bad.err; then exit 1; fi
done
# the warm-start path of the installed package, from the first solve of u = 0:
# an exact-data run whose record re-checks and whose residuals strictly decrease
"$@" noise-free --n 17 --start zero --iters 30 --out free.csv
python -c '
import sys
import numpy as np
from bouligand_landweber import RunRecord
record = RunRecord.load("free")
decreasing = bool(np.all(np.diff(record.residual_norms) < 0))
print(record.reason, record.stopping_index, record.check_discrepancy(), decreasing)
sys.exit(not (record.stopping_index == 30 and record.check_discrepancy() and decreasing))
'
# a campaign's cells share the solve of their start; each must stop by the discrepancy principle
"$@" table --n 17 --deltas 1e-2,1e-3 --seeds 1 --out table.csv
python -c 'import sys; from bouligand_landweber import read_table_csv; rows = read_table_csv(sys.argv[1]); sys.exit(not (rows and all(r["reason"] == "discrepancy" for r in rows)))' table.csv
# from zero the table builds the same test problem; one target, one discrepancy row
"$@" table --n 17 --start zero --deltas 1e-2 --out zero.csv
python -c 'import sys; from bouligand_landweber import read_table_csv; rows = read_table_csv(sys.argv[1]); sys.exit(not (len(rows) == 1 and rows[0]["reason"] == "discrepancy"))' zero.csv
# the forward command stores the state of the builtin exact source
"$@" forward --n 17 --out y.csv
python -c '
import sys
import numpy as np
from bouligand_landweber import read_grid_function
y = read_grid_function("y.csv")
print(y.role, y.mesh.n_h, bool(np.all(np.isfinite(y.values))))
sys.exit(not (y.role == "state" and y.mesh.n_h == 17 and np.all(np.isfinite(y.values))))
'
# a state file given as the source is a usage error naming its role (exit 2)
status=0
"$@" forward --n 17 --source y.csv --out y2.csv 2> bad.err || status=$?
cat bad.err
test "$status" -eq 2
grep -q "has role=state, expected role=source" bad.err
