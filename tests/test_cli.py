import json
import subprocess
import sys
import time

import pytest

from symfusion.cli import main

RUN = [sys.executable, "-m", "symfusion.cli"]


def run_cli(*args, env=None):
    import os
    full_env = dict(os.environ)
    if env:
        full_env.update(env)
    return subprocess.run(RUN + list(args), capture_output=True, text=True,
                          env=full_env)


def test_tableaux_paper_example():
    res = run_cli("tableaux", "--lambda", "5,3,3,3,3", "--mu", "3,3,2")
    assert res.returncode == 0
    assert "9 boxes" in res.stdout
    assert "3,4,0,-3,-2,-1,-4,-3,-2" in res.stdout
    assert "-3,-4,-2,-3,0,-1,-2,3,4" in res.stdout


def test_tableaux_counts_and_errors():
    res = run_cli("tableaux", "--lambda", "2,1")
    assert res.returncode == 0 and "2 standard tableaux" in res.stdout
    res = run_cli("tableaux", "--lambda", "1", "--mu", "2")
    assert res.returncode == 2
    assert "not contained" in res.stderr


def test_symmetrizer_term_count():
    res = run_cli("symmetrizer", "--lambda", "2,1", "--tableau", "row")
    assert res.returncode == 0
    assert "6 terms" in res.stdout
    payload = json.loads(res.stdout.split("terms\n", 1)[1])
    assert {"cycles": "()", "coeff": "1"} in payload


def test_fusion_f_ranks(tmp_path):
    out = tmp_path / "f.json"
    res = run_cli("fusion-f", "--form", "O", "--N", "3", "--lambda", "2",
                  "--output", str(out))
    assert res.returncode == 0 and "rank 5" in res.stdout
    assert json.loads(out.read_text())["rank"] == 5
    res = run_cli("fusion-f", "--form", "Sp", "--N", "2", "--lambda", "2")
    assert res.returncode == 0 and "rank 3" in res.stdout


def test_fusion_f_ranks_each_operator_once(monkeypatch, tmp_path, capsys):
    # certify takes one image basis of each of F and E and reads rank(F) and
    # rank(E) off their dims, so rank is never called; the printed line and
    # the --output payload reuse its rank(F) instead of ranking F again
    from symfusion import cli, fusion, tensorop
    from symfusion.shapes import Partition, row_tableau, skew
    calls = {"rank": [], "image_basis": []}

    def counting(name):
        real = getattr(tensorop, name)
        return lambda A: calls[name].append(A) or real(A)

    for name in calls:
        wrapped = counting(name)
        for module in (cli, fusion, tensorop):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, wrapped)
    out = tmp_path / "f.json"
    assert main(["fusion-f", "--form", "Sp", "--N", "4", "--lambda", "2,1",
                 "--output", str(out)]) == 0
    L = row_tableau(skew(Partition((2, 1))))
    F = fusion.f_operator_general(fusion.FusionConfig(L, 4, 0, "alternating"))
    assert not calls["rank"]
    assert [id(A) for A in calls["image_basis"]] == [id(F), id(fusion.e_operator(L, 4))]
    rank_F = json.loads(out.read_text())["rank"]
    assert f"rank {rank_F} " in capsys.readouterr().out


def test_fusion_f_bounds_the_number_of_boxes(monkeypatch):
    # no operator build enumerates n! permutations, but the idempotency
    # suite and the symmetrizer do, so n stays bounded: 10 boxes on O_2
    # pass the dimension cap (2^10 = 1024) but exit 2 at once
    start = time.monotonic()
    res = run_cli("fusion-f", "--form", "O", "--N", "2", "--lambda", "10")
    assert res.returncode == 2 and "boxes" in res.stderr
    assert time.monotonic() - start < 20
    # the verify sweep skips those sizes, as it skips sizes over the dimension cap
    from argparse import Namespace
    from symfusion.cli import _sweep_tableaux
    monkeypatch.setenv("FUSION_MAX_DIM", "4096")
    sizes = {T.n for T in _sweep_tableaux(Namespace(form="O", N=2, max_boxes=12))}
    assert sizes == set(range(1, 10))


def test_symmetrizer_bounds_the_number_of_boxes(monkeypatch, capsys):
    # the element of a 10-box tableau has up to 10! terms: exit 2 at once
    # instead of running out of memory
    start = time.monotonic()
    res = run_cli("symmetrizer", "--lambda", "10")
    assert res.returncode == 2 and "boxes" in res.stderr
    assert time.monotonic() - start < 20
    # nothing is enumerated first, neither the tableaux of an index nor a
    # skew element
    from symfusion import cli

    def enumerated(*args):
        raise AssertionError("enumerated over the box bound")

    for name in ("standard_tableaux", "e_tableau", "fusion_e_skew"):
        monkeypatch.setattr(cli, name, enumerated)
    assert main(["symmetrizer", "--lambda", "6,5", "--mu", "1", "--tableau", "3"]) == 2
    assert "boxes" in capsys.readouterr().err


def test_fusion_f_skew_with_indexed_tableau():
    res = run_cli("fusion-f", "--form", "O", "--N", "2", "--M", "1",
                  "--lambda", "2,1", "--mu", "1", "--tableau", "0")
    assert res.returncode == 0 and "rank" in res.stdout
    res = run_cli("symmetrizer", "--lambda", "2,1", "--tableau", "5")
    assert res.returncode == 2  # index out of range


def test_fusion_f_dimension_cap():
    res = run_cli("fusion-f", "--form", "O", "--N", "4", "--lambda", "4,2",
                  env={"FUSION_MAX_DIM": "64"})
    assert res.returncode == 2
    assert "FUSION_MAX_DIM" in res.stderr


@pytest.mark.parametrize("argv", [["verify", "--suite", "prop33"],
                                  ["fusion-f", "--form", "O", "--N", "2", "--lambda", "2"]])
def test_an_unwritable_output_exits_2_before_any_work(argv, tmp_path, monkeypatch, capsys):
    # an --output in a missing directory is a usage error, reported before
    # any suite or certify runs instead of as a traceback after them
    from symfusion import cli

    def ran(*args):
        raise AssertionError("work ran before the output was checked")

    monkeypatch.setattr(cli, "SUITES", {name: ran for name in cli.SUITES})
    monkeypatch.setattr(cli, "f_operator_general", ran)
    monkeypatch.setattr(cli, "certify", ran)
    out = tmp_path / "missing" / "out.json"
    assert main([*argv, "--output", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(out) in err
    assert not out.parent.exists()
    res = run_cli(*argv, "--output", str(out))
    assert res.returncode == 2 and res.stderr.startswith("error: ")
    assert "Traceback" not in res.stderr


def test_verify_exit_codes_and_reproducibility(tmp_path):
    out1 = tmp_path / "c1.json"
    out2 = tmp_path / "c2.json"
    args = ["verify", "--suite", "yang-baxter", "--N", "2", "--seed", "42"]
    res = run_cli(*args, "--output", str(out1))
    assert res.returncode == 0
    res = run_cli(*args, "--output", str(out2))
    assert res.returncode == 0
    assert out1.read_bytes() == out2.read_bytes()
    cert = json.loads(out1.read_text())
    assert cert["version"] == 1
    assert cert["config"]["seed"] == 42
    assert all(e["pass"] for e in cert["entries"])
    names = [e["name"] for e in cert["entries"]]
    assert names == sorted(names)
    assert all("paper_ref" in e and "runtime_ms" not in e for e in cert["entries"])


def test_verify_timings_flag(tmp_path):
    out = tmp_path / "t.json"
    res = run_cli("verify", "--suite", "lemma44", "--max-boxes", "2",
                  "--timings", "--output", str(out))
    assert res.returncode == 0
    cert = json.loads(out.read_text())
    assert all("runtime_ms" in e for e in cert["entries"])
    # timings are per check: together they fit in the wall time of the run
    out = tmp_path / "yb.json"
    t0 = time.monotonic()
    code = main(["verify", "--suite", "yang-baxter", "--N", "2", "--timings",
                 "--output", str(out)])
    wall_ms = 1000 * (time.monotonic() - t0)
    assert code == 0
    entries = json.loads(out.read_text())["entries"]
    assert len(entries) == 6
    assert sum(e["runtime_ms"] for e in entries) <= wall_ms


def test_verify_parity_gate():
    res = run_cli("verify", "--suite", "prop33", "--form", "Sp", "--N", "3")
    assert res.returncode == 2


def test_verify_unknown_suite():
    res = run_cli("verify", "--suite", "nonsense")
    assert res.returncode == 2


def test_verify_prop33_small_sweep(tmp_path):
    res = run_cli("verify", "--suite", "prop33", "--max-boxes", "3", "--N", "3",
                  "--form", "O", "--output", str(tmp_path / "cert.json"))
    assert res.returncode == 0
    assert "checks passed" in res.stdout
    assert (tmp_path / "cert.json").exists()


def test_main_callable_directly(capsys):
    assert main(["tableaux", "--lambda", "2"]) == 0
    captured = capsys.readouterr()
    assert "1 standard tableaux" in captured.out


def test_verify_yang_baxter_seed13_regression(tmp_path, capsys):
    # when the checks sampled points, a seed-13 sample had x - y = ±1, where
    # the unitarity scalar is 0
    out = tmp_path / "cert.json"
    code = main(["verify", "--form", "Sp", "--N", "4", "--max-boxes", "4",
                 "--suite", "yang-baxter", "--seed", "13", "--output", str(out)])
    assert code == 0
    assert all(e["pass"] for e in json.loads(out.read_text())["entries"])


def test_verify_entries_do_not_depend_on_the_seed(tmp_path, capsys):
    """Every check is exact and draws no random number, so two seeds write
    the same entries; the seed is recorded in the config only."""
    certs = {}
    for seed in ("13", "1729"):
        out = tmp_path / f"cert-{seed}.json"
        assert main(["verify", "--form", "Sp", "--N", "4", "--max-boxes", "3",
                     "--suite", "yang-baxter", "--suite", "intertwiners",
                     "--seed", seed, "--output", str(out)]) == 0
        certs[seed] = json.loads(out.read_text())
    assert certs["13"]["entries"] == certs["1729"]["entries"]
    assert [c["config"]["seed"] for c in certs.values()] == [13, 1729]


@pytest.mark.parametrize("argv, env", [
    (["--N", "0"], None),
    (["--N", "-2"], None),
    (["--M", "-1", "--suite", "intertwiners"], None),
    (["--max-boxes", "-1"], None),
    (["--form", "Sp", "--N", "4", "--M", "1", "--suite", "lemma44"], None),
    (["--suite", "lemma44"], "abc"),
    (["--suite", "lemma44"], "0"),
], ids=["N0", "N-2", "M-1", "max-boxes-1", "Sp-odd-M", "max-dim-abc", "max-dim-0"])
def test_verify_rejects_invalid_input(argv, env, tmp_path, monkeypatch, capsys):
    if env is not None:
        monkeypatch.setenv("FUSION_MAX_DIM", env)
    code = main(["verify", *argv, "--output", str(tmp_path / "cert.json")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1


def test_verify_O3_certificate_digest(tmp_path, monkeypatch, capsys):
    """The default-seed O_3 sweep writes the certificate it wrote before
    F was built on column orbits, byte for byte."""
    import hashlib

    monkeypatch.delenv("FUSION_MAX_DIM", raising=False)
    out = tmp_path / "cert.json"
    assert main(["verify", "--form", "O", "--N", "3", "--max-boxes", "4",
                 "--seed", "1729", "--output", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "086e4175d858db7783942acf79081b9be43e548d5dde094632cec09d65c84e38")


def test_verify_takes_each_image_basis_once(tmp_path, monkeypatch):
    """The idempotency and prop33 suites share image(F) per config: over
    the 12 configs of the Sp_4 4-box sweep, image_basis runs once per F
    and once per E, 24 times where it ran 36.  The bounded cache holds
    frozen bases and weak references, no operator, and an F substituted
    for a config gets its own basis."""
    import weakref

    from symfusion import fusion
    from symfusion.tensorop import SparseOperator, SubspaceBasis, image_basis

    monkeypatch.setattr(fusion, "_F_IMAGES", {})
    calls = []
    monkeypatch.setattr(fusion, "image_basis", lambda A: calls.append(A) or image_basis(A))
    assert main(["verify", "--form", "Sp", "--N", "4", "--max-boxes", "4", "--suite",
                 "idempotency", "--suite", "prop33", "--output", str(tmp_path / "c.json")]) == 0
    assert len(calls) == len({id(A) for A in calls}) == 24
    assert len(fusion._F_IMAGES) == 12
    for cfg, (ref, basis) in fusion._F_IMAGES.items():
        assert type(ref) is weakref.ref and type(basis) is SubspaceBasis
        assert ref() is fusion.f_operator_general(cfg)
    cfg, (_, basis) = next(iter(fusion._F_IMAGES.items()))
    F = fusion.f_operator_general(cfg)
    bad = SparseOperator(F.N, F.n)
    assert fusion.f_image_basis(cfg, bad) == image_basis(bad) != basis
    configs = list(fusion._F_IMAGES)
    monkeypatch.setattr(fusion, "_F_IMAGES", {})
    monkeypatch.setattr(fusion, "_F_IMAGES_MAX", 4)
    for cfg in configs:
        fusion.f_image_basis(cfg, fusion.f_operator_general(cfg))
    assert list(fusion._F_IMAGES) == configs[-4:]


def test_verify_builds_and_checks_each_named_unit_once(tmp_path, monkeypatch, capsys,
                                                       fresh_units):
    """Over the Sp_4 sweep each kind of unit operator is built once per N
    and form, on two slots, and checked once against each generator of its
    form there, an exchange's form being the identity Gram; the move of
    every exchange and contraction that the checks name, or that a build
    of F takes as a factor, is built once, and every later use reads the
    unit cache."""
    from collections import Counter, defaultdict

    from symfusion import fusion, tensorop

    fusion._f_operator_cached.cache_clear()  # so the sweep's F builds run here
    builds, checks, built, f_spaces = Counter(), Counter(), {}, set()
    moves = defaultdict(set)

    def recording_factors(cfg, real=fusion._f_factors):
        f_spaces.add((cfg.N, cfg.n, cfg.form))
        return real(cfg)

    def counting_build(name, N, n, form, real=tensorop.unit_operator):
        op = real(name, N, n, form)
        builds[name, N, n, form] += 1
        built[id(op)] = (op, (name, N, n, form))  # the op is kept, so its id stays its own
        return op

    def counting_check(A, table, real=tensorop.commutes_with):
        if id(A) in built:
            checks[built[id(A)][1], id(table)] += 1
        return real(A, table)

    def recording_entry(name, N, n, form, real=tensorop._unit_entry):
        entry = real(name, N, n, form)
        moves[name, N, n, form].add(id(entry[0]))  # the cache keeps the move alive
        return entry

    monkeypatch.setattr(tensorop, "unit_operator", counting_build)
    monkeypatch.setattr(tensorop, "commutes_with", counting_check)
    monkeypatch.setattr(tensorop, "_unit_entry", recording_entry)
    monkeypatch.setattr(fusion, "_f_factors", recording_factors)
    assert main(["verify", "--form", "Sp", "--N", "4", "--max-boxes", "4",
                 "--output", str(tmp_path / "cert.json")]) == 0
    sp4, o4 = tensorop.standard_form("alternating", 4), tensorop.standard_form("symmetric", 4)
    assert set(builds) >= {(("P", 1, 2), 4, 2, o4), (("Q", 1, 2), 4, 2, sp4)}
    assert all(name[1:] == (1, 2) and n == 2 and (
        name[0] == "Q" or form == tensorop.standard_form("symmetric", N))
        for name, N, n, form in builds)
    assert set(builds.values()) == {1}
    assert set(checks.values()) == {1}
    for key in builds:
        tables = tensorop.column_orbits(key[3], 2).tables
        assert {t for k, t in checks if k == key} == {id(t) for t in tables}, key
    f_names = {((kind, k, l), N, n, form if kind == "Q" else tensorop.standard_form(
                    "symmetric", N))
               for N, n, form in f_spaces for kind in "PQ"
               for k in range(1, n) for l in range(k + 1, n + 1)}
    assert f_names and f_names <= moves.keys()
    assert all(len(ids) == 1 for ids in moves.values())
    assert tensorop.unit_move.cache_info().misses == len(moves)


def test_fusion_f_at_positive_M_checks_the_scaled_square_only_at_M0():
    # F·F is no multiple of F at M > 0 (test_fusion pins why), so the check
    # is left out there; divisibility and every closed formula still run
    res = run_cli("fusion-f", "--form", "O", "--N", "2", "--M", "1", "--lambda", "2")
    assert res.returncode == 0, res.stdout
    assert "scaled-idempotency" not in res.stdout
    for name in ("two-sided-divisibility", "closed-form/col_O", "closed-form/any_SO",
                 "closed-form/regular_case"):
        assert f"PASS {name}\n" in res.stdout, name


@pytest.mark.parametrize("argv", [["--lambda", "2,1"], ["--lambda", "3,2", "--tableau", "3"],
                                  ["--lambda", "3,2,1", "--mu", "2", "--tableau", "4"],
                                  ["--lambda", "4,1", "--tableau", "col"], ["--lambda", "0"]])
def test_symmetrizer_writes_the_json_of_its_element(argv, capsys):
    # the terms are written one at a time, as the bytes json.dumps gives
    # the element's to_json with indent 2, negative and reduced
    # coefficients included
    from symfusion.cli import _parse_partition, _pick_tableau
    from symfusion.shapes import skew
    from symfusion.symalg import e_tableau, fusion_e_skew

    assert main(["symmetrizer", *argv]) == 0
    opts = dict(zip(argv[::2], argv[1::2]))
    shape = skew(_parse_partition(opts["--lambda"]), _parse_partition(opts.get("--mu")))
    T = _pick_tableau(shape, opts.get("--tableau", "row"))
    payload = (fusion_e_skew(T, "row") if shape.is_skew else e_tableau(T)).to_json()
    want = f"tableau {T}: {len(payload)} terms\n" + json.dumps(payload, indent=2) + "\n"
    assert capsys.readouterr().out == want


def test_idempotency_suite_rejects_a_changed_element_and_a_wrong_scalar(tmp_path, monkeypatch,
                                                                        capsys):
    # e_T with the numerator of the order reversal raised by one, which
    # fusion_e_skew is made to return too, so that only the engine square
    # sees it, fails every entry past one box (at one box every element is
    # a multiple of e = 1); a scalar σ + 1 fails every entry
    from fractions import Fraction

    from symfusion import cli
    from symfusion.symalg import GroupAlgebraElement

    out = tmp_path / "c.json"
    argv = ["verify", "--form", "O", "--N", "2", "--suite", "idempotency",
            "--max-boxes", "4", "--output", str(out)]
    assert main(argv) == 0
    real = cli.e_tableau

    def changed(T, *rest):
        e = real(T)
        return e + GroupAlgebraElement(T.n, {tuple(range(T.n, 0, -1)): Fraction(1, e.den)})

    with monkeypatch.context() as patch:
        patch.setattr(cli, "e_tableau", changed)
        patch.setattr(cli, "fusion_e_skew", changed)
        assert main(argv) == 1
        entries = json.loads(out.read_text())["entries"]
        assert len(entries) == 5
        verdicts = {e["name"].split("/")[-1]: e["pass"] for e in entries}
        assert verdicts.pop("1[1]") and not any(verdicts.values())
    sigma = cli.scaled_idempotency_constant
    monkeypatch.setattr(cli, "scaled_idempotency_constant", lambda lam: sigma(lam) + 1)
    assert main(argv) == 1
    assert not any(e["pass"] for e in json.loads(out.read_text())["entries"])


@pytest.mark.parametrize("argv", [["--lambda", "0"], ["--lambda", "2", "--mu", "2"]])
def test_symmetrizer_of_no_box_prints_the_unit(argv, capsys):
    # S_0 holds one permutation, so the empty tableau's element is the unit
    assert main(["symmetrizer", *argv]) == 0
    out = capsys.readouterr().out
    assert ": 1 terms" in out
    assert json.loads(out.split("terms\n", 1)[1]) == [{"cycles": "()", "coeff": "1"}]
