"""Regularization by early stopping under noise.

Adds Gaussian noise of decreasing level delta to the exact data and stops
each reconstruction by the discrepancy principle.  The stopping index grows
as delta shrinks while the error falls; the empirical rate
||u* - u_N||_M / sqrt(delta) settles near 0.3 for the shifted start, the
signature of a source condition.  Results go to demos/output/table.csv.

At the default n_h=257 this takes under ten seconds (about 7 s on 2 cores);
n_h=512 reproduces the full-scale experiment (tens of minutes for the zero
start).
"""

from pathlib import Path

from bouligand_landweber import run_table, write_table_csv

n_h = 257
deltas = [1e-2, 5e-3, 1e-3, 5e-4, 1e-4, 5e-5, 1e-5]
seed = 0

out_dir = Path(__file__).parent / "output"
out_dir.mkdir(exist_ok=True)

rows = run_table(n_h, deltas, start="source", seeds=[seed])
write_table_csv(out_dir / "table.csv", rows)

print(f"n_h={n_h}, start=u_bar, seed={seed}")
print(f"{'delta':>10s} {'N':>5s} {'rel_error':>12s} {'rate':>8s} {'#SSN':>6s}")
for row in rows:
    print(
        f"{row['delta']:10.3e} {row['N']:5d} {row['rel_error']:12.4e} "
        f"{row['rate']:8.3f} {row['ssn_total']:6d}"
    )
print(f"-> {out_dir / 'table.csv'}")
