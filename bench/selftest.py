"""Checks on the checks: each reference check must reject a perturbed output.

Runs one real operation per workload on small seeded inputs, confirms that
its check accepts the true output, then perturbs the output and confirms the
check rejects it:

- a verify margin shifted by 1e-9;
- a roof value raised by 1e-2;
- a roof ensemble member dropped;
- a closed-form concurrence off by 1e-8.

Usage, from the repository root: ``python3 bench/selftest.py``. Exits 0
when every check behaves, 1 otherwise.
"""

from __future__ import annotations

import copy
import csv
import json
import sys
import tempfile
from pathlib import Path

from run import ROOT, load_package


def main() -> int:
    load_package()
    import workloads

    failures = []

    def expect(label: str, problems: list[str], should_fail: bool) -> None:
        ok = bool(problems) == should_fail
        verdict = "rejected" if problems else "accepted"
        print(f"{'ok  ' if ok else 'FAIL'} {label}: {verdict}" + (f" ({problems[0]})" if problems else ""))
        if not ok:
            failures.append(label)

    with tempfile.TemporaryDirectory(prefix=".bench_work-", dir=ROOT) as tmp:
        work = Path(tmp)

        verify = workloads.WORKLOADS["verify_sweep"]
        point = verify.make_inputs(7, work)[-1]
        op = verify.ops([point])[0]
        raw = op.run()
        expect("verify: true output", op.check(raw)[0], False)
        with open(point["csv"], newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        t = point["check_trials"][0]
        rows[t + 1][1] = repr(float(rows[t + 1][1]) + 1e-9)
        with open(point["csv"], "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh).writerows(rows)
        expect(f"verify: margin of trial {t} shifted by 1e-9", op.check(raw)[0], True)

        for name in ("roof_qubit", "roof_full_rank"):
            roofs = workloads.WORKLOADS[name]
            op = roofs.ops(roofs.make_inputs(7, work))[0]
            rc, out = op.run()
            expect(f"{name}: true output", op.check((rc, out))[0], False)
            data = json.loads(out)
            raised = copy.deepcopy(data)
            raised["value"] += 1e-2
            expect(f"{name}: value raised by 1e-2", op.check((rc, json.dumps(raised)))[0], True)
            dropped = copy.deepcopy(data)
            dropped["ensemble"].pop()
            expect(f"{name}: ensemble member dropped", op.check((rc, json.dumps(dropped)))[0], True)

        closed = workloads.WORKLOADS["qubit_closed_form"]
        inputs = closed.make_inputs(7, work)
        for x in (inputs[0], inputs[1]):
            kind = "rank-1" if x["psi"] is not None else "full-rank"
            op = closed.ops([x])[0]
            c, fof, ens = op.run()
            expect(f"qubit_closed_form {kind}: true output", op.check((c, fof, ens))[0], False)
            expect(
                f"qubit_closed_form {kind}: concurrence off by 1e-8",
                op.check((c + 1e-8, fof, ens))[0],
                True,
            )

    print("selftest:", "all checks behave" if not failures else f"{len(failures)} failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
