#!/usr/bin/env python3
"""symfusion benchmark.

    python3 perfbench/run.py --workload ga_fusion|operator_build|verify_sweep \
        --seed 1729 --seconds 30 --trace 0|1

Run from the root of a source checkout; the library is imported from its
``src``.  Every repetition runs in a fresh interpreter (``worker.py``), one
op after another (a closed loop with one client), on the pure-Python
kernels.  First a few set-up-only interpreters measure ``setup_s``; then
repetitions run until another one would overrun ``--seconds`` (at least
one).  ``--trace 1`` instead runs one untraced and one traced repetition
and reports the per-layer metrics of ``BENCHMARK.json`` and the tracing
overhead.  Every output is checked; a wrong one fails its op and is never
timed as a success.

The last line of stdout is the JSON result; the lines before it name every
metric with its unit, the provenance and, for ``operator_build`` and
``verify_sweep``, the ROADMAP baseline next to the measured value.  A run
record (and the spans of a traced run) goes to ``.perfbench-out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench-out"
WORKLOADS = ("ga_fusion", "operator_build", "verify_sweep")
SETUP_SPAWNS = 5
DEADLINE_S = 170  # the whole run, including set-up interpreters


class BenchError(RuntimeError):
    pass


def spawn(workload: str, seed: int, mode: str, deadline: float) -> dict:
    """Run one worker in a fresh interpreter and return its result record."""
    OUT.mkdir(exist_ok=True)
    name = f"trace-{workload}-{seed}" if mode == "trace" else f"{mode}-{os.getpid()}"
    out = OUT / f"{name}.json"
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--mode", mode, "--out", str(out)]
    # pure-Python kernels, and the same string hashing in every repetition
    env = dict(os.environ, SYMFUSION_PURE_PYTHON="1", PYTHONHASHSEED="0")
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before a repetition could start")
    cmd += ["--t0", repr(time.monotonic())]
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} repetition of {workload} overran the deadline") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker failed ({proc.returncode}):\n{proc.stderr[-3000:]}")
    result = json.loads(out.read_text())
    out.unlink()
    return result


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() or "unknown"


def tail(values: list[float]) -> tuple[float, str]:
    """Highest percentile with at least ten samples beyond it (the maximum
    when there are fewer than eleven samples), with its description."""
    xs = sorted(values)
    n = len(xs)
    if n < 11:
        return xs[-1], f"max of {n} ops (fewer than 11, no percentile has 10 beyond)"
    return xs[n - 11], f"p{100 * (n - 10) / n:.1f} of {n} ops, 10 beyond"


def account_verify(reps: list[dict], seed: int, golden: dict) -> None:
    """Count every certificate entry of the verify sweep as one op.  An
    entry fails when it did not pass or its digest differs from the golden
    certificate (seed 1729), from a previous repetition of the same seed in
    this checkout, or from the first repetition of this run."""
    store_path = OUT / "verify_sweep-digests.json"
    store = json.loads(store_path.read_text()) if store_path.exists() else {}
    ref = golden.get("verify_sweep", {}).get(str(seed)) or store.get(str(seed))
    expected = len(next(iter(golden["verify_sweep"].values()))["entries"])
    for rep in reps:
        (op,) = rep["ops"]
        facts = op.get("detail")
        if not facts:  # the sweep raised; none of its checks completed
            rep["attempted"], rep["failed"] = expected, expected
            continue
        if ref is None:
            ref = {"sha256": facts["sha256"], "entries": facts["entries"]}
            store[str(seed)] = ref
            OUT.mkdir(exist_ok=True)
            tmp = store_path.with_suffix(".tmp")
            tmp.write_text(json.dumps(store, sort_keys=True))
            os.replace(tmp, store_path)
        names = set(facts["entries"]) | set(ref["entries"])
        bad = {n for n in names if not facts["passed"].get(n)
               or facts["entries"].get(n) != ref["entries"].get(n)}
        if not bad and (facts["exit"] != 0 or facts["sha256"] != ref["sha256"]):
            bad = names  # the certificate differs outside its entries
        rep["attempted"], rep["failed"] = len(names), len(bad)
        op["ok"] = not bad


def account(workload: str, reps: list[dict], seed: int, golden: dict) -> tuple[int, int]:
    if workload == "verify_sweep":
        account_verify(reps, seed, golden)
    else:
        for rep in reps:
            rep["attempted"] = len(rep["ops"])
            rep["failed"] = sum(not op["ok"] for op in rep["ops"])
    return sum(r["attempted"] for r in reps), sum(r["failed"] for r in reps)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=1729)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "symfusion" / "__init__.py").is_file():
        print(f"error: no symfusion sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    golden = json.loads((HERE / "golden.json").read_text())
    deadline = time.monotonic() + DEADLINE_S

    try:
        setups = [spawn(args.workload, args.seed, "setup", deadline)
                  for _ in range(SETUP_SPAWNS)]
        if args.trace:
            reps = [spawn(args.workload, args.seed, "run", deadline),
                    spawn(args.workload, args.seed, "trace", deadline)]
        else:
            reps = []
            start = time.monotonic()
            while True:
                t0 = time.monotonic()
                reps.append(spawn(args.workload, args.seed, "run", deadline))
                now = time.monotonic()
                if now - start + (now - t0) > args.seconds:
                    break
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted, failed = account(args.workload, reps, args.seed, golden)
    plain = [r for r in reps if "layers" not in r]
    lat = [op["s"] * 1000 for r in plain for op in r["ops"] if op["ok"]]
    values: dict[str, float | None] = {}
    notes: dict[str, str] = {}
    if args.trace:
        traced = next(r for r in reps if "layers" in r)
        layers = dict(traced["layers"])
        layers["trace_overhead"] = traced["wall_s"] / plain[0]["wall_s"]
        for m in bench["per_layer"]:
            values[m["name"]] = layers.get(m["name"], 0)
        units = {m["name"]: m["unit"] for m in bench["per_layer"]}
        if traced["absent"]:
            notes["absent"] = ", ".join(traced["absent"])
    else:
        values["setup_s"] = statistics.median(
            [s["setup_s"] for s in setups] + [r["setup_s"] for r in reps])
        values["wall_s"] = statistics.median(r["wall_s"] for r in reps)
        values["peak_rss_mb"] = statistics.median(r["peak_rss_mb"] for r in reps)
        values["op_p50_ms"] = statistics.median(lat) if lat else None
        values["op_tail_ms"], notes["op_tail_ms"] = tail(lat) if lat else (None, "no op succeeded")
        units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
        missing = set(units) - set(values)
        if missing:
            print(f"error: BENCHMARK.json lists metrics this run does not produce: {missing}",
                  file=sys.stderr)
            return 1

    prov = {"python": platform.python_version(), "nproc": os.cpu_count(),
            "git_commit": git_commit(), "kernel_backend": reps[0]["kernel_backend"],
            "fusion_max_dim": reps[0]["fusion_max_dim"], "seed": args.seed,
            "workload": args.workload, "trace": args.trace}
    print(f"{args.workload}: {len(reps)} repetition(s) and {len(setups)} set-up-only "
          f"runs, each in a fresh interpreter; closed loop, one client")
    print("provenance " + json.dumps(prov, sort_keys=True))
    for rep in plain:
        if rep["baseline"]:
            print(rep["baseline"])
    print(f"fail_ratio {failed / attempted:.4g} ({failed} of {attempted} ops failed)")
    for name, value in values.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name} {value} {units[name]}{note}")
    if "absent" in notes:
        print(f"absent (reported as 0): {notes['absent']}")

    record = {"provenance": prov, "attempted": attempted, "failed": failed,
              "metrics": values, "notes": notes,
              "repetitions": [{k: v for k, v in r.items() if k != "layers"} for r in reps]}
    OUT.mkdir(exist_ok=True)
    (OUT / f"run-{args.workload}-{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": units[k]}
                                  for k, v in values.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
