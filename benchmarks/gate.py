"""Correctness gate applied to the report.json of every benchmark study.

The gate recomputes what it checks from the per-level eigenvalues in the
report instead of trusting the program's own error columns:

* `laplace` (analytic spectrum pi^2 (m^2 + n^2) on the unit square): on
  every level pair whose coarse level has n >= ASYMPTOTIC_N, each row's
  raw-error order lies within ORDER_TOL of 2 and its Richardson-extrapolated
  error is below the finer level's raw error.  The program's reported raw
  errors and extrapolated values must match the recomputation.
* `variable`: each level's eigenvalues match the values committed in
  expected.json to within VARIABLE_RTOL relative.

The result is the set of level n values that fail, each with a reason.
"""

import json
import math
from pathlib import Path

EXPECTED = json.loads((Path(__file__).with_name("expected.json")).read_text())

# Orders observed at the seed lie in [1.83, 2.19] from n=8 on; below n=8
# the sequences are pre-asymptotic (n=2,4 give orders 0.5 to 4.5).
ASYMPTOTIC_N = 8
ORDER_TOL = 0.25
# Agreement of the report's own columns with the recomputation; the report
# rounds to 12 significant digits.
COLUMN_RTOL = 1e-9
# The committed values come from the iterative solver at seed 0.  Dense
# and iterative paths agree to 5e-14 and ARPACK start vectors move the
# values by about 1e-13, while a change of discretisation moves them by far
# more than 1e-9.
VARIABLE_RTOL = 1e-9


def laplace_eigenvalues(k):
    """The k smallest Dirichlet eigenvalues of the unit square."""
    grid = range(1, k + 2)
    return sorted(math.pi**2 * (m * m + n * n) for m in grid for n in grid)[:k]


def _levels_ok(report):
    return [lv for lv in report["levels"] if lv["status"] == "ok"]


def check_laplace(report):
    bad = {}
    levels = _levels_ok(report)
    ns = [lv["n"] for lv in levels]
    k = report["study"]["k"]
    exact = laplace_eigenvalues(k)
    p = report["study"]["expansion_order"]
    covered = []
    for row in report["eigen"]:
        idx = [i - 1 for i in row["indices"]]
        covered.extend(idx)
        ref = sum(exact[i] for i in idx) / len(idx)
        raw = [sum(lv["eigenvalues"][i] for i in idx) / len(idx)
               for lv in levels]
        err = [abs(v - ref) for v in raw]
        extrap = [(2**p * raw[i + 1] - raw[i]) / (2**p - 1)
                  for i in range(len(raw) - 1)]
        columns = (("lambda_h", ns, raw, row["lambda_h"]),
                   ("err_raw", ns, err, row["err_raw"]),
                   ("lambda_extrap", ns[1:], extrap, row["lambda_extrap"]))
        for name, at, mine, theirs in columns:
            for n, a, b in zip(at, mine, theirs):
                if b is None or abs(a - b) > COLUMN_RTOL * ref:
                    bad.setdefault(n, f"eigen {row['label']} reports {name} "
                                      f"{b} but the levels give {a:.12g}")
        for i in range(len(raw) - 1):
            if ns[i] < ASYMPTOTIC_N:
                continue
            pair = (ns[i], ns[i + 1])
            order = math.log2(err[i] / err[i + 1])
            if abs(order - 2.0) > ORDER_TOL:
                for n in pair:
                    bad.setdefault(n, f"eigen {row['label']} raw-error order "
                                      f"{order:.3f} on levels {pair}")
            if abs(extrap[i] - ref) >= err[i + 1]:
                for n in pair:
                    bad.setdefault(n, f"eigen {row['label']} extrapolated "
                                      f"error {abs(extrap[i] - ref):.3g} not "
                                      f"below raw error {err[i + 1]:.3g} "
                                      f"on levels {pair}")
    if len(levels) >= 2 and sorted(covered) != list(range(k)):
        for n in ns:
            bad.setdefault(n, f"eigen rows cover indices {sorted(covered)}")
    return bad


def check_variable(report):
    bad = {}
    expected = EXPECTED["variable"]
    for lv in _levels_ok(report):
        want = expected.get(str(lv["n"]))
        if want is None:
            bad[lv["n"]] = "no committed eigenvalues for this level"
            continue
        got = lv["eigenvalues"]
        if len(got) != len(want):
            bad[lv["n"]] = f"{len(got)} eigenvalues, committed {len(want)}"
            continue
        for j, (a, b) in enumerate(zip(got, want)):
            if abs(a - b) > VARIABLE_RTOL * abs(b):
                bad[lv["n"]] = (f"eigenvalue {j + 1} = {a!r}, committed "
                                f"{b!r}")
                break
    return bad


CHECKS = {"laplace": check_laplace, "variable": check_variable}


def check(report):
    """Map of failing level n -> reason for one study's report.json."""
    return CHECKS[report["study"]["preset"]](report)
