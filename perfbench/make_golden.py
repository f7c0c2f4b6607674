"""Recompute ``golden.json``: the operator hashes and ranks of every pair in
the ``operator_build`` pool, and the ``verify_sweep`` certificate digests
at seed 1729.  Run it only at a commit whose outputs are trusted, and say
why in the change that commits a new file:

    python3 perfbench/make_golden.py
"""

from __future__ import annotations

import json
import sys

import worker

VERIFY_SEED = 1729


def main() -> int:
    worker.import_library()
    (worker.ROOT / ".perfbench-out").mkdir(exist_ok=True)
    golden = {"operator_build": {}, "verify_sweep": {}}
    for item in worker.operator_pool():
        output, _ = worker.operator_build_op(item)
        golden["operator_build"][worker.operator_key(item)] = worker.operator_facts(output)
        print(worker.operator_key(item), golden["operator_build"][worker.operator_key(item)])
    argv = worker.verify_sweep_setup(VERIFY_SEED)[0]
    code, _ = worker.verify_sweep_op(argv)
    ok, facts = worker.verify_sweep_check(argv, code, golden)
    if not ok:
        print("the verify sweep failed; not writing golden values", file=sys.stderr)
        return 1
    golden["verify_sweep"][str(VERIFY_SEED)] = {"sha256": facts["sha256"],
                                                "entries": facts["entries"]}
    worker.GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"wrote {worker.GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
