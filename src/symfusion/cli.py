"""Command-line front end.

Subcommands: ``tableaux`` lists standard tableaux with contents,
``symmetrizer`` prints a group-algebra element, ``fusion-f`` builds the
two-parameter operator and reports its rank, ``verify`` runs named check
suites over a size-bounded sweep and writes a JSON certificate.

Exit codes: 0 all checks passed, 1 at least one check failed, 2 invalid
configuration or usage.  Every check is exact and draws no random
number: the seed is recorded only, in the certificate's config (--seed,
default 1729), so rerunning with the same configuration yields a
byte-identical certificate (timings are only included with --timings).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from fractions import Fraction

from .exactnum import PoleAtLimit
from .fusion import (FORM_GROUP, MAX_BOXES, CheckResult, ConfigError, FusionConfig,
                     NotApplicable, SizeLimitExceeded, certify, f_image_basis,
                     f_operator_general, max_dim, scaled_idempotency_constant,
                     verify_corollary32, verify_prop33, verify_theta_factorization)
from .shapes import (ContainmentError, ParityError, Partition, column_tableau,
                     partitions_of, row_tableau, skew, standard_tableaux,
                     validate_label)
from .symalg import e_tableau, fusion_e_skew
from .tensorop import acts_as_scalar, standard_form
from .rmatrix import (check_eval_consistency_E, check_eval_consistency_F,
                      check_intertwiner_E, check_intertwiner_F,
                      check_image_coincidence, check_lemma44,
                      check_reflection_image, check_rtt, check_unitarity,
                      check_yang_baxter_family)

DEFAULT_SEED = 1729
CERT_VERSION = 1

FORM_KIND = {group: kind for kind, group in FORM_GROUP.items()}


class UsageError(ValueError):
    pass


def _parse_partition(text: str | None) -> Partition:
    if not text:
        return Partition()
    try:
        return Partition.from_string(text)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _pick_tableau(shape, which: str):
    if which == "row":
        return row_tableau(shape)
    if which == "col":
        return column_tableau(shape)
    try:
        index = int(which)
    except ValueError as exc:
        raise UsageError(f"--tableau must be row, col or an index, got {which!r}") from exc
    tabs = standard_tableaux(shape)
    if not 0 <= index < len(tabs):
        raise UsageError(f"tableau index {index} out of range (shape has {len(tabs)})")
    return tabs[index]


def _check_writable(path: str):
    """An output that cannot be opened is a usage error before any work."""
    try:
        open(path, "a").close()
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc.strerror}") from exc


def cmd_tableaux(args) -> int:
    lam = _parse_partition(args.lam)
    mu = _parse_partition(args.mu)
    shape = skew(lam, mu)  # raises ContainmentError on bad input
    tabs = standard_tableaux(shape)
    print(f"shape {shape}: {shape.n} boxes, {len(tabs)} standard tableaux")
    for i, t in enumerate(tabs):
        contents = ",".join(str(c) for c in t.contents)
        print(f"  [{i}] entries={','.join(str(e) for e in t.entries)} contents={contents}")
    rt, ct = row_tableau(shape), column_tableau(shape)
    print(f"row tableau contents:    {','.join(str(c) for c in rt.contents)}")
    print(f"column tableau contents: {','.join(str(c) for c in ct.contents)}")
    return 0


def cmd_symmetrizer(args) -> int:
    lam = _parse_partition(args.lam)
    mu = _parse_partition(args.mu)
    shape = skew(lam, mu)
    if shape.n > MAX_BOXES:  # before any tableau or term is enumerated
        raise SizeLimitExceeded(f"n = {shape.n} boxes exceeds {MAX_BOXES}: up to n! terms")
    T = _pick_tableau(shape, args.tableau)
    if shape.is_skew:
        elem = fusion_e_skew(T, "row")
    else:
        elem = e_tableau(T)
    payload = elem.to_json()
    print(f"tableau {T}: {len(payload)} terms")
    print(json.dumps(payload, indent=2))
    return 0


def cmd_fusion_f(args) -> int:
    lam = _parse_partition(args.lam)
    mu = _parse_partition(args.mu)
    shape = skew(lam, mu)
    T = _pick_tableau(shape, args.tableau)
    cfg = FusionConfig(T, args.N, args.M, FORM_KIND[args.form])
    if args.output:
        _check_writable(args.output)
    try:
        F = f_operator_general(cfg)
    except PoleAtLimit as exc:
        print(f"FATAL: {exc}", file=sys.stderr)
        return 1
    print(f"operator for {T}, {args.form}_{args.N}, M={args.M}")
    cert = certify(cfg)
    print(f"rank {cert.rank}   nnz {F.nnz()}   hash {cert.operator_hash}")
    for chk in sorted(cert.checks, key=lambda c: c.name):
        print(f"  {'PASS' if chk.passed else 'FAIL'} {chk.name}")
    if args.output:
        payload = cert.to_json()
        payload["rank"] = cert.rank
        payload["entries"] = F.to_triplets()
        with open(args.output, "w") as fh:
            json.dump(payload, fh, indent=2)
        print(f"wrote {args.output}")
    return 1 if not cert.all_passed() else 0


# ---------------------------------------------------------------------------
# verification suites


def _valid_partitions(group: str, dim: int, max_boxes: int):
    for size in range(1, max_boxes + 1):
        for lam in partitions_of(size):
            if validate_label(lam, group, dim):
                yield lam


def _sweep_tableaux(args):
    """Standard tableaux of every valid label of at most --max-boxes boxes
    whose n and N^n are within the size caps."""
    for lam in _valid_partitions(args.form, args.N, args.max_boxes):
        if lam.size <= MAX_BOXES and args.N ** lam.size <= max_dim():
            yield from standard_tableaux(skew(lam))


def _suite_idempotency(args):
    kind = FORM_KIND[args.form]
    for T in _sweep_tableaux(args):
        scalar = scaled_idempotency_constant(T.shape.lam)
        e = e_tableau(T)
        ok = (e * e) == e.scaled(scalar)
        cfg = FusionConfig(T, args.N, 0, kind)
        F = f_operator_general(cfg)
        ok = ok and acts_as_scalar(F, f_image_basis(cfg, F), scalar)
        yield CheckResult(f"idempotency/{T}", "scaled-square", ok)


def _suite_prop33(args):
    kind = FORM_KIND[args.form]
    for T in _sweep_tableaux(args):
        yield CheckResult(f"traceless-image/{T}", "traceless-image-equality",
                          verify_prop33(FusionConfig(T, args.N, 0, kind)))


def _suite_corollary32(args):
    kind = FORM_KIND[args.form]
    for T in _sweep_tableaux(args):
        rows = T.rows()
        cols = T.columns()
        for k in range(1, T.n):
            if rows[k - 1] == rows[k] or cols[k - 1] == cols[k]:
                continue
            yield CheckResult(f"exchange/{T}/k{k}", "fusion-exchange-relation",
                              verify_corollary32(FusionConfig(T, args.N, 0, kind), k))


def _suite_yang_baxter(args):
    form = standard_form(FORM_KIND[args.form], args.N)
    for which in ("YB35", "tilde37", "bar38", "mixed385"):
        yield check_yang_baxter_family(which, args.N, form)
    for which in ("RR", "tildebar"):
        yield check_unitarity(which, args.N, form)


def _suite_intertwiners(args):
    kind = FORM_KIND[args.form]
    form = standard_form(kind, args.N)
    max_boxes = min(args.max_boxes, 3)
    for lam in _valid_partitions(args.form, args.N + args.M, max_boxes):
        for T in standard_tableaux(skew(lam)):
            yield check_intertwiner_E(T, args.N, Fraction(0))
            cfg = FusionConfig(T, args.N, args.M, kind)
            yield check_intertwiner_F(cfg)
            yield check_eval_consistency_E(T, args.N)
            if args.M == 0:
                yield check_eval_consistency_F(cfg)
    for n, zs in ((1, (Fraction(0),)), (2, (Fraction(0), Fraction(1)))):
        yield check_rtt(zs, args.N)
        yield check_reflection_image(zs, args.N, form)
    yield check_image_coincidence(Fraction(0), args.N, form)


def _suite_lemma44(args):
    for size in range(0, min(args.max_boxes, 4) + 1):
        for mu in partitions_of(size):
            yield check_lemma44(mu)


def _suite_theta(args):
    configs = [
        (Partition((2,)), 1, 2, 1, "symmetric"),
        (Partition((2, 1)), 1, 2, 2, "symmetric"),
    ]
    for lam, m, N, M, kind in configs:
        for T in standard_tableaux(skew(lam)):
            yield CheckResult(f"split-factorization/{T}/m{m}/N{N}/M{M}",
                              "compression-factorization",
                              verify_theta_factorization(T, m, N, M, kind))


SUITES = {
    "idempotency": _suite_idempotency,
    "prop33": _suite_prop33,
    "corollary32": _suite_corollary32,
    "yang-baxter": _suite_yang_baxter,
    "intertwiners": _suite_intertwiners,
    "lemma44": _suite_lemma44,
    "theta-factorization": _suite_theta,
}


def cmd_verify(args) -> int:
    suites = args.suite or list(SUITES)
    for name in suites:
        if name not in SUITES:
            raise UsageError(f"unknown suite {name!r}; available: {', '.join(SUITES)}")
    if args.N < 1 or args.M < 0 or args.max_boxes < 0:
        raise UsageError(f"need --N >= 1, --M >= 0 and --max-boxes >= 0; got --N {args.N}, "
                         f"--M {args.M}, --max-boxes {args.max_boxes}")
    if args.form == "Sp" and (args.N % 2 or args.M % 2):
        raise ParityError(f"symplectic verification needs even N and M, "
                          f"got N = {args.N}, M = {args.M}")
    max_dim()  # a malformed FUSION_MAX_DIM fails here, before any suite runs
    _check_writable(args.output)
    results: list[CheckResult] = []
    for name in suites:
        t0 = time.monotonic()
        for chk in SUITES[name](args):
            now = time.monotonic()
            ms = int(1000 * (now - t0)) if args.timings else None
            results.append(CheckResult(name=f"{name}/{chk.name}", statement=chk.statement,
                                       passed=bool(chk.passed), witness=chk.witness,
                                       runtime_ms=ms))
            t0 = now

    certificate = {
        "version": CERT_VERSION,
        "config": {
            "suites": sorted(suites),
            "form": args.form,
            "N": args.N,
            "M": args.M,
            "max_boxes": args.max_boxes,
            "seed": args.seed,
        },
        "entries": [r.to_json() for r in sorted(results, key=lambda r: r.name)],
    }
    payload = json.dumps(certificate, indent=2, sort_keys=True)
    with open(args.output, "w") as fh:
        fh.write(payload + "\n")
    failed = [r for r in results if not r.passed]
    for r in results:
        mark = "PASS" if r.passed else "FAIL"
        print(f"{mark} {r.name}")
    print(f"{len(results) - len(failed)}/{len(results)} checks passed")
    return 1 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="symfusion",
        description="Exact fusion symmetrizers on tensor space and their verification.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--lambda", dest="lam", required=True,
                       help="outer partition, comma separated (e.g. 5,3,3,3,3)")
        p.add_argument("--mu", dest="mu", default="",
                       help="inner partition for skew shapes")

    p = sub.add_parser("tableaux", help="list standard tableaux and contents")
    add_common(p)
    p.set_defaults(func=cmd_tableaux)

    p = sub.add_parser("symmetrizer", help="print a symmetrizer group-algebra element")
    add_common(p)
    p.add_argument("--tableau", default="row", help="row, col, or tableau index")
    p.set_defaults(func=cmd_symmetrizer)

    p = sub.add_parser("fusion-f", help="build the two-parameter fusion operator")
    add_common(p)
    p.add_argument("--tableau", default="row", help="row, col, or tableau index")
    p.add_argument("--form", choices=("O", "Sp"), required=True)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--M", type=int, default=0)
    p.add_argument("--output", default=None, help="write operator JSON here")
    p.set_defaults(func=cmd_fusion_f)

    p = sub.add_parser("verify", help="run verification suites, write a certificate")
    p.add_argument("--suite", action="append", default=None,
                   help=f"suite name (repeatable); default all: {', '.join(SUITES)}")
    p.add_argument("--form", choices=("O", "Sp"), default="O")
    p.add_argument("--N", type=int, default=2)
    p.add_argument("--M", type=int, default=0)
    p.add_argument("--max-boxes", type=int, default=3)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED,
                   help="recorded only, in the certificate's config; no check is random")
    p.add_argument("--output", default="symfusion-certificate.json",
                   help="certificate path (always written)")
    p.add_argument("--timings", action="store_true",
                   help="include per-check runtime_ms (breaks byte reproducibility)")
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (UsageError, ContainmentError, ParityError, ConfigError,
            NotApplicable, SizeLimitExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        return 0


if __name__ == "__main__":
    sys.exit(main())
