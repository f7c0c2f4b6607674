"""Self-test of the correctness gate: a perturbed golden value must fail its
op and make fail_ratio nonzero, and the unperturbed values must pass.

    python3 perfbench/selftest.py      # about 20 s: one cold operator build
"""

from __future__ import annotations

import copy
import json
import sys

import run
import worker


def expect(cond: bool, what: str) -> None:
    if not cond:
        raise SystemExit(f"selftest FAILED: {what}")
    print(f"ok  {what}")


def main() -> int:
    worker.import_library()
    golden = json.loads(worker.GOLDEN.read_text())

    # operator_build: the baseline pair, against a golden file with rank(F) off by one
    item = worker.operator_build_setup(0)[0]
    key = worker.operator_key(item)
    bad = copy.deepcopy(golden)
    bad["operator_build"][key]["rank_F"] += 1
    rec = worker.run_op("operator_build", item, bad)
    expect(not rec["ok"] and rec["detail"]["problems"] == ["rank_F"],
           f"perturbed rank_F fails the {key} op and only on rank_F")
    attempted, failed = run.account("operator_build", [{"ops": [rec]}], 0, bad)
    expect(failed / attempted > 0, f"fail_ratio {failed}/{attempted} is nonzero")

    # ga_fusion: the route comparison rejects a scaled element
    O, U = worker.ga_fusion_setup(0)[0]
    (got, ref), _ = worker.ga_fusion_op((O, U))
    expect(worker.ga_fusion_check((O, U), (got, ref), golden)[0], f"routes agree on {O}")
    expect(not worker.ga_fusion_check((O, U), (got, ref.scaled(2)), golden)[0],
           "a scaled extraction route is rejected")

    # verify_sweep: a certificate equal to the golden one passes; a perturbed
    # golden entry digest fails exactly that entry
    seed, gold = next(iter(golden["verify_sweep"].items()))
    facts = {"exit": 0, "sha256": gold["sha256"], "entries": dict(gold["entries"]),
             "passed": {name: True for name in gold["entries"]}}
    reps = [{"ops": [{"ok": True, "detail": facts}]}]
    expect(run.account("verify_sweep", reps, int(seed), golden)[1] == 0,
           "the golden certificate passes")
    bad = copy.deepcopy(golden)
    entry = sorted(gold["entries"])[0]
    bad["verify_sweep"][seed]["entries"][entry] = "0" * 64
    reps = [{"ops": [{"ok": True, "detail": facts}]}]
    attempted, failed = run.account("verify_sweep", reps, int(seed), bad)
    expect(failed == 1 and attempted == len(gold["entries"]),
           f"a perturbed digest of {entry} fails 1 of {attempted} checks")
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
