"""Records the expected digest of every benchmark instance.

    python3 perfbench/record.py

Analyses each instance of every workload (full and smoke pools) with the
package in `src/`, checks the closed forms and that no verdict is FAIL, and
cross-checks the engine against the independent oracle
(`oracle.diff_against_engine`) wherever the oracle's budget admits.  Writes
`expected.json` next to this file.  Run it once per change of the expected
results, never as part of a timed run.
"""

from __future__ import annotations

import json
import os
import platform
import sys
import warnings
from time import perf_counter

from run import HERE, ROOT, git_revision, import_and_build
from workloads import WORKLOADS, analyse, closed_form_error, digest

ORACLE_BUDGET = 200000


def main() -> int:
    owner = {}
    for w in WORKLOADS.values():
        for ref in w.refs + w.smoke:
            owner.setdefault(ref, w)
    pkg, instances, _, _ = import_and_build(ROOT / "src", list(owner), repeats=1)
    warnings.simplefilter("ignore", pkg.exceptions.UncertifiedLattice)
    recorded = {}
    for ref, m in instances:
        t0 = perf_counter()
        a, verdicts = analyse(pkg, m, owner[ref])
        op_s = perf_counter() - t0
        fails = [v.statement for v in verdicts if v.status == "FAIL"]
        problem = closed_form_error(ref, a)
        if fails or problem:
            print(f"{ref}: {problem or 'FAIL verdicts ' + ', '.join(fails)}",
                  file=sys.stderr)
            return 1
        entry = {"digest": digest(a, owner[ref].kind), "dim": m.dim,
                 "op_s": round(op_s, 4)}
        if not m.field.is_finite:
            entry["oracle"] = "not run: the oracle needs a finite field"
        elif pkg.linalg.count_subspaces(m.field.p, m.dim) > ORACLE_BUDGET:
            entry["oracle"] = "not run: over the oracle budget"
        else:
            diff = pkg.diff_against_engine(m, budget=ORACLE_BUDGET)
            if not diff.identical:
                print(f"{ref}: oracle mismatch {diff.mismatches}", file=sys.stderr)
                return 1
            entry["oracle"] = "identical"
        recorded[ref] = entry
        print(f"{ref}: {entry}", flush=True)
    payload = {"revision": git_revision(ROOT), "python": platform.python_version(),
               "nproc": os.cpu_count(), "instances": recorded}
    (HERE / "expected.json").write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
