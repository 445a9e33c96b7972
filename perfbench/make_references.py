"""Record references.json: the stdout of every case that is not a refused
input, produced by the chernrep source in this checkout.

    python3 perfbench/make_references.py

Run it only when the case pool changes.  The recorded outputs of chern, ch,
adams, lambda and rewrite are rechecked independently by check_references.py;
check-prop outputs are seed regression references (PASS plus dimensions).
Refused inputs are never recorded: their expected exit code and error code
are declared in cases.py, and this script reports any case whose current
behaviour differs from that declaration.
"""

import json
import sys

from cases import pool
from run import HERE, OUT, Checker, child_env, run_python, sha256

ORACLE_COMMANDS = {"chern", "ch", "adams", "lambda", "rewrite"}


def main():
    OUT.mkdir(exist_ok=True)
    env = child_env()
    refs, seen = {}, set()
    checker = Checker({})
    for case in pool():
        if case.id in seen:
            continue
        seen.add(case.id)
        _, code, stdout, stderr, _ = run_python(["-m", "chernrep", *case.argv], env)
        if case.refused:
            checker.check(case.id, "subprocess", case, code, sha256(stdout), stderr)
            continue
        if code != 0:
            sys.exit(f"{case.id}: exit {code}\n{stderr}")
        kind = "sympy-oracle" if case.argv[0] in ORACLE_COMMANDS else "seed-regression"
        refs[case.id] = {"argv": list(case.argv), "check": kind, "stdout": stdout.decode()}
    with open(HERE / "references.json", "w") as f:
        json.dump(
            {
                "note": "stdout of each case as produced by the seed source; see README.md",
                "cases": refs,
            },
            f,
            indent=1,
        )
        f.write("\n")
    print(f"recorded {len(refs)} references")
    for failure in checker.failures:
        print(f"refused input not refused as declared: {failure['case']}: {failure['problems']}")


if __name__ == "__main__":
    main()
