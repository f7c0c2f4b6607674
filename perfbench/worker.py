"""One repetition of a workload, run in a fresh interpreter by ``run.py``.

Every ``symfusion`` CLI invocation starts cold, and the library keeps
unbounded caches, so each timed repetition gets its own process.

    python3 perfbench/worker.py --workload W --seed S --mode setup|run|trace \
        --t0 <time.monotonic() at spawn> --out result.json

``setup`` stops after imports and input generation; ``run`` also runs the
ops; ``trace`` runs them with the layer tracer installed.  The result file
holds setup_s, the per-op records, wall_s, peak RSS and, when traced, the
per-layer metrics.  The worker checks every output and marks an op failed
on a wrong result or an exception; it never judges the run as a whole.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
GOLDEN = HERE / "golden.json"

N = 4  # operator_build: dim N^5 = 1024
BASELINE = ("alternating", (3, 2))  # the ROADMAP baseline row: (3,2) row tableau on Sp_4
VERIFY_ARGS = ["verify", "--form", "Sp", "--N", "4", "--max-boxes", "4"]
# ROADMAP baseline (Python 3.11, 2 cores): the row above, and the Sp_4 sweep
ROADMAP = {"F": 3.8, "E": 1.2, "rank_F": 3.8, "sweep": 26.3}


def import_library():
    """Import symfusion from the checkout's ``src``, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import symfusion
    if not Path(symfusion.__file__).resolve().is_relative_to(src.resolve()):
        raise ImportError(f"symfusion imported from {symfusion.__file__}, not {src}")
    import symfusion.cli  # noqa: F401  (loads rmatrix too)
    return symfusion


def provenance(symfusion) -> dict:
    from symfusion import fusion
    max_dim = getattr(fusion, "max_dim", None)
    return {
        "kernel_backend": getattr(symfusion, "KERNEL_BACKEND", None),
        "fusion_max_dim": max_dim() if max_dim else os.environ.get("FUSION_MAX_DIM"),
    }


# ---------------------------------------------------------------------------
# workloads: setup(seed) -> items; op(item) -> (output, stage times);
# check(item, output, golden) -> (ok, detail), run after the op's clock stops


def ga_fusion_setup(seed: int):
    """Every standard tableau O of a 5-cell shape lam/mu with |lam| <= 6;
    the seed shuffles the order and picks U among the tableaux of mu."""
    from symfusion.shapes import partitions_of, skew, standard_tableaux
    rng = random.Random(seed)
    pool = []
    for size in (5, 6):
        for lam in partitions_of(size):
            for mu in partitions_of(size - 5):
                if not lam.contains(mu):
                    continue
                inner = standard_tableaux(skew(mu)) if mu.size else [None]
                for O in standard_tableaux(skew(lam, mu)):
                    pool.append((O, rng.choice(inner)))
    rng.shuffle(pool)
    return pool


def ga_fusion_op(item):
    """One route comparison: the fused element, and the extraction route
    (or e_tableau when mu is empty) to compare it with."""
    from symfusion.symalg import e_skew_extract, e_tableau, extend_tableau, fusion_e_skew
    O, U = item
    got = fusion_e_skew(O, "row")
    ref = e_tableau(O) if U is None else e_skew_extract(extend_tableau(O, U), U.n)
    return (got, ref), None


def ga_fusion_check(item, output, golden):
    got, ref = output
    return got == ref, None


def operator_pool():
    """(form kind, standard tableau) pairs of the baseline shape and form."""
    from symfusion.shapes import Partition, skew, standard_tableaux
    kind, parts = BASELINE
    return [(kind, T) for T in standard_tableaux(skew(Partition(parts)))]


def operator_build_setup(seed: int):
    """The row tableau of (3,2) on Sp_4, then one other tableau of that
    shape drawn by the seed; no tableau twice, so every build is cold."""
    from symfusion.shapes import row_tableau
    pool = operator_pool()
    base = next(p for p in pool if p[1] == row_tableau(p[1].shape))
    rng = random.Random(seed)
    return [base, rng.choice([p for p in pool if p != base])]


def operator_key(item) -> str:
    kind, T = item
    return f"{kind}/{T}"


def operator_build_op(item):
    """Build F and E for one pair and take both ranks."""
    from symfusion.fusion import FusionConfig, e_operator, f_operator_general
    from symfusion.tensorop import rank
    kind, T = item
    stages = {}
    t = time.perf_counter()
    F = f_operator_general(FusionConfig(T, N, 0, kind))
    stages["F"], t = time.perf_counter() - t, time.perf_counter()
    E = e_operator(T, N)
    stages["E"], t = time.perf_counter() - t, time.perf_counter()
    rank_f = rank(F)
    stages["rank_F"], t = time.perf_counter() - t, time.perf_counter()
    rank_e = rank(E)
    stages["rank_E"] = time.perf_counter() - t
    return (F, E, rank_f, rank_e), stages


def operator_facts(output) -> dict:
    from symfusion.fusion import operator_hash
    F, E, rank_f, rank_e = output
    return {"hash_F": operator_hash(F), "hash_E": operator_hash(E),
            "rank_F": rank_f, "rank_E": rank_e}


def operator_build_check(item, output, golden):
    """Hashes and ranks against the golden values, and rank(E) against the
    number of semistandard tableaux with entries up to N."""
    from symfusion.shapes import count_semistandard
    facts = operator_facts(output)
    want = golden["operator_build"].get(operator_key(item), {})
    problems = [k for k in facts if facts[k] != want.get(k)]
    if facts["rank_E"] != count_semistandard(item[1].shape, N):
        problems.append("rank_E != count_semistandard")
    return not problems, {"problems": problems}


def verify_sweep_setup(seed: int):
    out = ROOT / ".perfbench-out" / f"cert-{os.getpid()}.json"
    return [[*VERIFY_ARGS, "--seed", str(seed), "--output", str(out)]]


def verify_sweep_op(argv):
    """The default-suite Sp_4 sweep through ``cli.main``."""
    from symfusion import cli
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    return code, None


def verify_sweep_check(argv, code, golden):
    """Exit code and per-entry pass flags here; run.py compares the entry
    digests with the golden certificate and across repetitions, and counts
    every certificate entry as one op."""
    path = Path(argv[-1])
    data = path.read_bytes()
    path.unlink()
    entries = json.loads(data)["entries"]
    digests = {e["name"]: hashlib.sha256(json.dumps(e, sort_keys=True).encode()).hexdigest()
               for e in entries}
    passed = {e["name"]: bool(e["pass"]) for e in entries}
    return code == 0 and all(passed.values()), {
        "exit": code, "sha256": hashlib.sha256(data).hexdigest(),
        "entries": digests, "passed": passed}


def baseline_line(workload: str, ops: list[dict]) -> str | None:
    """This repetition's numbers next to the ROADMAP baseline; the baseline
    pair is the first op of operator_build."""
    if workload == "operator_build" and ops[0].get("stages"):
        st = ops[0]["stages"]
        return ("baseline (3,2) row tableau on Sp_4: "
                + ", ".join(f"{k} {st[k]:.2f} s (ROADMAP {ROADMAP[k]})"
                            for k in ("F", "E", "rank_F"))
                + f", rank_E {st['rank_E']:.2f} s")
    if workload == "verify_sweep":
        return f"baseline Sp_4 sweep: wall_s {ops[0]['s']:.2f} s (ROADMAP {ROADMAP['sweep']})"
    return None


WORKLOADS = {
    "ga_fusion": (ga_fusion_setup, ga_fusion_op, ga_fusion_check, lambda item: str(item[0])),
    "operator_build": (operator_build_setup, operator_build_op, operator_build_check,
                       operator_key),
    "verify_sweep": (verify_sweep_setup, verify_sweep_op, verify_sweep_check,
                     lambda argv: "sweep"),
}


def run_op(workload: str, item, golden) -> dict:
    """Time one op, then check its output with the clock stopped.  An
    exception or a wrong output fails the op."""
    _, op, check, op_id = WORKLOADS[workload]
    rec = {"id": op_id(item)}
    t0 = time.perf_counter()
    try:
        output, rec["stages"] = op(item)
    except Exception as exc:  # a library error fails the op, not the run
        rec.update(ok=False, s=time.perf_counter() - t0, error=repr(exc))
        return rec
    rec["s"] = time.perf_counter() - t0
    try:
        ok, rec["detail"] = check(item, output, golden)
    except Exception as exc:
        ok, rec["error"] = False, repr(exc)
    rec["ok"] = bool(ok)
    return rec


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)

    symfusion = import_library()
    tracer = None
    if args.mode == "trace":
        from layers import Tracer
        tracer = Tracer()
        tracer.install()
    golden = json.loads(GOLDEN.read_text())
    setup, _, _, op_id = WORKLOADS[args.workload]
    items = setup(args.seed)
    result = {"setup_s": time.monotonic() - args.t0, **provenance(symfusion)}
    if args.mode != "setup":
        ops = []
        for item in items:
            if tracer:
                tracer.set_op(op_id(item))
            ops.append(run_op(args.workload, item, golden))
        result["ops"] = ops
        result["baseline"] = baseline_line(args.workload, ops)
        result["wall_s"] = sum(r["s"] for r in ops)
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if tracer:
            result["layers"] = tracer.metrics(result["wall_s"])
            result["absent"] = tracer.absent
            spans = Path(args.out).with_suffix(".spans.json")
            spans.write_text(json.dumps({"threads": tracer.spans()}))
    Path(args.out).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
