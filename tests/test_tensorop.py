import math
import random
from fractions import Fraction
from itertools import permutations

import pytest
from operator_reference import applied, ga_mul, mul, rank_one_shifted, scaled, span_of_vectors
from qq_oracle import qq_echelon, qq_nullspace, qq_rank

from symfusion import kernels, tensorop
from symfusion.products import OrbitComparison, UnitSum
from symfusion.shapes import Partition, count_semistandard, row_tableau, skew
from symfusion.symalg import GroupAlgebraElement, Permutation, e_tableau
from symfusion.tensorop import (AmbientMismatch, BilinearForm, SingularForm, SparseOperator,
                                act, acts_as_scalar, code_table, column_orbits, commutes_with,
                                decode, dual_basis, encode, image_basis, intersect,
                                kernel_basis, kernel_within, left_multiplication,
                                monomial_isometries, pair_vector, perm_op, preserves_gram,
                                q_op, rank, row_basis, standard_form,
                                subspace_equal, traceless_basis, unit_operator)


def P(*parts):
    return Partition(parts)


def unit(N, n, index):
    return {encode(index, N): Fraction(1)}


def column(A, index):
    """Column ``index`` of A as {row code: value}, read through ``entry``."""
    c = encode(index, A.N)
    return {r: A.entry(r, c) for r in range(A.dim) if A.entry(r, c)}


def as_columns(N, n, vectors):
    """The operator whose column j is vectors[j], a tuple of (code, value)."""
    rows = {}
    for j, vec in enumerate(vectors):
        for code, v in vec:
            rows.setdefault(code, {})[j] = v
    return SparseOperator(N, n, rows)


def test_multiindex_encoding():
    assert encode((1, 1), 2) == 0
    assert encode((1, 2), 2) == 1
    assert encode((2, 1), 2) == 2  # first index most significant
    assert decode(5, 2, 3) == (2, 1, 2) and encode((2, 1, 2), 2) == 5


def test_perm_op_examples():
    I = perm_op(Permutation.identity(2), 2)
    assert I == SparseOperator.identity(2, 2)
    swap = perm_op(Permutation((2, 1)), 2)
    assert column(swap, (1, 2)) == unit(2, 2, (2, 1))
    assert column(swap, (2, 1)) == unit(2, 2, (1, 2))
    assert swap.nnz() == 4  # exactly N^n entries, all 1


def decoded_perm_op(s: Permutation, N: int) -> SparseOperator:
    """Reference route: decode every code, move the letter of slot k to
    slot s(k), encode the result."""
    n = len(s)
    inverse = [0] * n
    for k, image in enumerate(s, start=1):
        inverse[image - 1] = k
    rows = {}
    for code in range(N ** n):
        idx = decode(code, N, n)
        rows[encode(tuple(idx[inverse[k] - 1] for k in range(n)), N)] = {code: 1}
    return SparseOperator(N, n, rows)


def test_perm_op_matches_the_decoded_reference():
    # every permutation of up to four slots, at N = 2 and N = 3; the rows
    # come in the same order too, so nothing downstream sees the change.
    # act of a seeded random element is Σ_s c_s·perm_op(s) by the same route
    rng = random.Random(1729)
    for N in (2, 3):
        for n in range(1, 5):
            perms = [Permutation(images) for images in permutations(range(1, n + 1))]
            for s in perms:
                got, want = perm_op(s, N), decoded_perm_op(s, N)
                assert got == want and list(got.rows) == list(want.rows), (N, s)
            for _ in range(3):
                terms = {s: Fraction(rng.randint(-6, 6), rng.randint(1, 4))
                         for s in rng.sample(perms, rng.randint(1, len(perms)))}
                want = SparseOperator(N, n)
                for s, c in terms.items():
                    want = want + scaled(decoded_perm_op(s, N), c)
                assert act(GroupAlgebraElement(n, terms), N) == want, (N, terms)


def decoded_q_op(k: int, l: int, form: BilinearForm, n: int) -> SparseOperator:
    """Reference route: decode every code, contract the letters of slots k
    and l with the Gram, insert each pair (i, j) of w there, encode."""
    N = form.N
    rows: dict = {}
    for code in range(N ** n):
        idx = decode(code, N, n)
        g = form.gram[idx[k - 1] - 1][idx[l - 1] - 1]
        for (i, j), wv in pair_vector(form).items():
            out = list(idx)
            out[k - 1], out[l - 1] = i, j
            row = rows.setdefault(encode(tuple(out), N), {})
            row[code] = row.get(code, 0) + g * wv
    return SparseOperator(N, n, rows)


def test_q_op_matches_the_decoded_reference():
    # every ordered slot pair of up to four slots, for the symmetric form at
    # N = 2, 3, the alternating form at N = 2, 4 and a non-standard Gram
    for form in (BilinearForm("symmetric", 2), BilinearForm("symmetric", 3),
                 BilinearForm("alternating", 2), BilinearForm("alternating", 4),
                 BilinearForm("symmetric", 4, HYPERBOLIC_4)):
        for n in range(2, 5):
            for k, l in permutations(range(1, n + 1), 2):
                assert q_op(k, l, form, n) == decoded_q_op(k, l, form, n), (form, n, k, l)


def test_unit_operator_names():
    form = BilinearForm("alternating", 2)
    assert unit_operator(("P", 3, 1), 2, 3, form) == perm_op(Permutation((3, 2, 1)), 2)
    assert unit_operator(("Q", 2, 3), 2, 3, form) == q_op(2, 3, form, 3)
    for bad in (("P", 1, 1), ("P", 0, 2), ("Q", 1, 4)):
        with pytest.raises(IndexError):
            unit_operator(bad, 2, 3, form)
    with pytest.raises(ValueError, match="unknown unit operator"):
        unit_operator(("R", 1, 2), 2, 3, form)
    with pytest.raises(AmbientMismatch):
        OrbitComparison(3, 2, form)


def test_a_cached_failing_verdict_turns_on_every_column(monkeypatch, fresh_units):
    """A named unit operator whose commutation check fails makes every
    comparison that names it compare all columns, also the later ones that
    take its move and verdict from the cache."""
    form = BilinearForm("alternating", 4)
    reps = column_orbits(form, 2).representatives
    # the perturbed column is off the orbit columns, so only a comparison
    # on every column can see it; Q = u·vᵀ gets 1/7 added to v there, so
    # it is still rank one, the shape of every contraction's move
    c = next(c for c in range(16) if c % 5 and c not in reps)
    Q = q_op(1, 2, form, 2)
    bad = rank_one_shifted(Q, cols=[c])
    builds = []

    def perturbed(name, N, n, form):
        builds.append(name)
        return bad if name == ("Q", 1, 2) else unit_operator(name, N, n, form)

    monkeypatch.setattr(tensorop, "unit_operator", perturbed)
    value = Fraction(3)
    for side, ref in ([("Q", 1, 2)], [Q]), ([(("Q", 1, 2), 1, value)], [(Q, 1, value)]):
        compare = OrbitComparison(4, 2, form)
        diff = compare.difference(side, ref)
        assert compare.columns == range(16)
        assert diff[:2] == (min(Q.rows), c)
    assert builds == [("Q", 1, 2)]
    assert tensorop.unit_move.cache_info().hits == 1


def _lifted(X2: SparseOperator, k: int, l: int, n: int) -> SparseOperator:
    """X₂ on C^N ⊗ C^N acting on slots min(k, l) < max(k, l) of n slots and
    as the identity elsewhere, built by decoding every code."""
    N = X2.N
    k, l = min(k, l), max(k, l)
    rows = {}
    for c in range(N ** n):
        idx = list(decode(c, N, n))
        for r2, v in column(X2, (idx[k - 1], idx[l - 1])).items():
            idx[k - 1], idx[l - 1] = decode(r2, N, 2)
            rows.setdefault(encode(tuple(idx), N), {})[c] = v
    return SparseOperator(N, n, rows)


def _moved(move, vec):
    return {k: x for k, x in move(vec).items() if x}


def test_unit_moves_are_the_two_slot_operator_lifted(monkeypatch, fresh_units):
    """Each named unit operator's move, den and verdict are those of the
    operator on all n slots: its ``left_multiplication``, its den and
    ``commutes_with`` against the generators on n slots, for every P and Q
    name in either slot order on O_2, O_3, Sp_2 and Sp_4 with n ≤ 5, on
    seeded random vectors keyed row·dim + col.  A two-slot Q that breaks the
    Gram fails the verdict on two slots and on n slots, and a bad name
    raises before anything is built."""
    rng = random.Random(25)
    forms = [standard_form("symmetric", 2), standard_form("symmetric", 3),
             standard_form("alternating", 2), standard_form("alternating", 4)]
    for form in forms:
        N = form.N
        for n in range(2, 6):
            dim = N ** n
            vecs = [{rng.randrange(dim * dim): rng.choice((-3, -1, 1, 2)) for _ in range(40)}
                    for _ in range(3)]
            for kind in "PQ":
                gform = form if kind == "Q" else standard_form("symmetric", N)
                tables = column_orbits(gform, n).tables
                for k, l in permutations(range(1, n + 1), 2):
                    X = unit_operator((kind, k, l), N, n, form)
                    move, den, commutes = tensorop.unit_move((kind, k, l), N, n, form)
                    assert den == X.den and commutes is True
                    assert all(commutes_with(X, t) for t in tables)
                    want = left_multiplication(X)
                    assert all(_moved(move, v) == _moved(want, v) for v in vecs), (form, kind, k, l)
    # Q_12 = u·vᵀ on two slots with 1/7 added to v_1, which no signed
    # permutation of the Sp_4 Gram preserves; it stays rank one
    form = standard_form("alternating", 4)
    real = unit_operator
    bad2 = rank_one_shifted(real(("Q", 1, 2), 4, 2, form), cols=[1])
    monkeypatch.setattr(tensorop, "unit_operator",
                        lambda name, N, n, form: bad2 if name == ("Q", 1, 2) and n == 2
                        else real(name, N, n, form))
    tensorop.unit_move.cache_clear()
    vecs = [{rng.randrange(4 ** 6): rng.choice((-2, 1, 3)) for _ in range(40)} for _ in range(3)]
    for k, l in ((1, 3), (3, 2)):
        bad = _lifted(bad2, k, l, 3)
        assert _lifted(q_op(1, 2, form, 2), k, l, 3) == q_op(k, l, form, 3)
        move, den, commutes = tensorop.unit_move(("Q", k, l), 4, 3, form)
        assert den == bad.den and commutes is False
        assert not all(commutes_with(bad, t) for t in column_orbits(form, 3).tables)
        want = left_multiplication(bad)
        assert all(_moved(move, v) == _moved(want, v) for v in vecs)
    builds = []
    monkeypatch.setattr(tensorop, "unit_operator", lambda *args: builds.append(args))
    tensorop.unit_move.cache_clear()
    for bad, error in ((("P", 1, 1), IndexError), (("Q", 1, 4), IndexError),
                       (("R", 1, 2), ValueError)):
        with pytest.raises(error):
            tensorop.unit_move(bad, 4, 3, form)
    assert builds == [] and tensorop.unit_move.cache_info().currsize == 0
    assert tensorop._pair_entry.cache_info().currsize == 0


def _scaled_into(want, vec, scale, into):
    """into + scale·want(vec), zeros dropped, as the reference for a move
    called with ``scale`` and ``into``."""
    out = dict(into)
    for key, x in want(vec).items():
        out[key] = out.get(key, 0) + scale * x
    return {k: x for k, x in out.items() if x}


def _check_move(move, want, vecs, rng, dim):
    """move(vec) and move(vec, scale, into) against the reference move
    ``want`` on each vector: the same nonzero entries, ``into`` returned
    and updated in place, and ``vec`` left as it was."""
    for vec in vecs:
        before = dict(vec)
        assert _moved(move, vec) == _moved(want, vec)
        scale = rng.choice((-3, 2, 5))
        assert _moved(lambda v: move(v, scale), vec) == _scaled_into(want, vec, scale, {})
        into = {rng.randrange(dim * dim): rng.randint(-4, 4) for _ in range(10)}
        expected = _scaled_into(want, vec, scale, into)
        assert move(vec, scale, into) is into
        assert {k: x for k, x in into.items() if x} == expected
        assert vec == before


def test_unit_moves_do_only_their_operators_work(fresh_units):
    """An exchange's move relabels keys, a contraction's pairs each entry
    into its base and then inserts w, and a sum of names accumulates its
    terms' moves over the lcm of their dens: each equals the
    ``left_multiplication`` of the operator on all n slots, on random
    integer vectors, alone, with ``scale`` and with ``into``, for every
    slot pair, N = 1..4, both form kinds and a Gram whose w is rational
    (Q's den is 5 there)."""
    rng = random.Random(29)
    forms = [standard_form(kind, N) for N in (1, 2, 3, 4)
             for kind in ("symmetric", "alternating") if kind == "symmetric" or N % 2 == 0]
    forms.append(BilinearForm("symmetric", 2, [[2, 1], [1, 3]]))
    for form in forms:
        N = form.N
        # on C^1 ⊗ C^1 the contraction is the 1×1 identity, a permutation
        assert [tensorop._pair_entry(kind, N, form)[0][0] for kind in "PQ"] == [
            "relabel", "relabel" if N == 1 else "pair"]
        for n in (2, 3, 4):
            dim = N ** n
            vecs = [{rng.randrange(dim * dim): rng.randint(-5, 5) or 1 for _ in range(30)}
                    for _ in range(3)]
            for kind in "PQ":
                for k, l in permutations(range(1, n + 1), 2):
                    X = unit_operator((kind, k, l), N, n, form)
                    move, den, _ = tensorop.unit_move((kind, k, l), N, n, form)
                    assert den == X.den
                    _check_move(move, left_multiplication(X), vecs, rng, dim)
                    assert all(_moved(move, v) == applied(X, v, dim) for v in vecs)
            terms = tuple((rng.choice((-2, -1, 1, 3)), (rng.choice("PQ"), k, l))
                          for k, l in rng.choices(list(permutations(range(1, n + 1), 2)), k=3))
            ops = [(c, unit_operator(name, N, n, form)) for c, name in terms]
            D = math.lcm(*(X.den for _, X in ops))
            move, den = OrbitComparison(N, n, form)._move(UnitSum(terms))
            assert den == D

            def want(vec, ops=ops, D=D):
                out = {}
                for c, X in ops:
                    for key, x in left_multiplication(X)(vec).items():
                        out[key] = out.get(key, 0) + c * (D // X.den) * x
                return out

            _check_move(move, want, vecs, rng, dim)
            # over its den, the sum's move is that of Σ c·X built whole
            S = sum((scaled(X, c) for c, X in ops), SparseOperator(N, n))
            whole = left_multiplication(S)
            for vec in vecs:
                assert _moved(lambda v: {k: x * S.den for k, x in move(v).items()}, vec) == \
                    _moved(lambda v: {k: x * D for k, x in whole(v).items()}, vec)


def test_a_lifted_move_unlike_its_two_slot_operator_raises(monkeypatch, fresh_units):
    """Each unit move is checked against its two-slot operator's columns
    before it is kept, so a wrong table or a wrong lift raises
    ArithmeticError for every name, on O_2, O_3, Sp_2, Sp_4 and a Gram
    whose w is rational, at n = 2..4: an exchange table with two columns'
    rows swapped, a contraction with one pairing or insert weight flipped,
    a lift that reads its per-code list backwards, and a column index
    that mixes in the letter of another slot, which shows only on codes
    whose other slots hold a letter other than the first."""
    forms = [standard_form("symmetric", 2), standard_form("symmetric", 3),
             standard_form("alternating", 2), standard_form("alternating", 4),
             BilinearForm("symmetric", 2, [[2, 1], [1, 3]])]
    real_perm, real_rank = tensorop._permutation, tensorop._rank_one
    real_relabel, real_pair = tensorop._relabel, tensorop._pair_insert
    real_index = tensorop._column_index

    def mixed(N, n, k, l):
        # adds the letter of the first slot outside k and l, mod N, to b
        s = min(set(range(1, n + 1)) - {k, l}, default=None)
        index = real_index(N, n, k, l)
        if s is None:
            return index
        return [p - p % N + (p + c // N ** (n - s)) % N for c, p in enumerate(index)]

    def swapped(op):
        targets = real_perm(op)
        if targets is not None:
            targets[0], targets[1] = targets[1], targets[0]
        return targets

    def flipped(part, key):
        def factors(X):
            pairing, inserts = real_rank(X)
            pair = [pairing, inserts]
            pair[part] = {**pair[part], key: -pair[part][key]}
            return tuple(pair)
        return factors

    for form in forms:
        pairing, inserts = real_rank(q_op(1, 2, form, 2))
        mutants = [("P", "_permutation", swapped),
                   ("P", "_relabel", lambda shifts, dim: real_relabel(shifts[::-1], dim)),
                   ("Q", "_pair_insert",
                    lambda pairing, inserts, dim: real_pair(pairing[::-1], inserts, dim)),
                   ("P", "_column_index", mixed), ("Q", "_column_index", mixed)]
        mutants += [("Q", "_rank_one", flipped(part, key))
                    for part, weights in enumerate((pairing, inserts)) for key in weights]
        for kind, attr, mutant in mutants:
            monkeypatch.setattr(tensorop, attr, mutant)
            tensorop.unit_move.cache_clear()
            for n in ((3, 4) if attr == "_column_index" else (2, 3, 4)):
                for k, l in permutations(range(1, n + 1), 2):
                    with pytest.raises(ArithmeticError):
                        tensorop.unit_move((kind, k, l), form.N, n, form)
            monkeypatch.undo()


def test_a_unit_operator_of_no_known_shape_raises(monkeypatch, fresh_units):
    """Every unit operator is a permutation (P) or rank one (Q), so those
    are the only moves; a contraction that ``_rank_one`` cannot factor
    raises ArithmeticError before any move is kept, and the exchanges
    still resolve."""
    form = standard_form("symmetric", 3)
    monkeypatch.setattr(tensorop, "_rank_one", lambda X: None)
    for n in (2, 3):
        with pytest.raises(ArithmeticError):
            tensorop.unit_move(("Q", 1, n), 3, n, form)
    assert tensorop.unit_move.cache_info().currsize == 0
    assert tensorop.unit_move(("P", 1, 2), 3, 2, form)[2]


def test_left_multiplication_matches_the_entrywise_product():
    """``left_multiplication`` of a permutation matrix relabels keys, and of
    any other operator takes each row object once; both are A·u entry by
    entry (``operator_reference.applied``), on all slots and as 1 ⊗ A on
    more, alone, with ``scale`` and with ``into``, for rows that share
    objects, rows that repeat without sharing, a matrix with one entry 1
    per row that is no permutation, and empty columns."""
    rng = random.Random(41)
    N, n = 2, 3
    built = SparseOperator(N, n, {r: {rng.randrange(8): rng.randint(-4, 4) or 1 for _ in range(3)}
                                  for r in range(4)}, 5)
    shared = SparseOperator._in_normal_form(N, n, {r: built.rows[r % 4] for r in range(7)},
                                            built.den)
    copied = SparseOperator(N, n, {r: dict(built.rows[r % 4]) for r in range(7)}, 5)
    swap = perm_op(Permutation((3, 1, 2)), N)
    # one entry 1 in every row, but two rows in each even column: no permutation
    merge = SparseOperator(N, n, {r: {r - r % 2: 1} for r in range(8)})
    for A in (shared, copied, swap, merge, SparseOperator.identity(N, n), SparseOperator(N, n)):
        for dim in (8, 16, 32):
            vecs = [{rng.randrange(dim * dim): rng.randint(-5, 5) or 1 for _ in range(25)}
                    for _ in range(3)]
            _check_move(left_multiplication(A, dim), lambda v, A=A, dim=dim: applied(A, v, dim),
                        vecs, rng, dim)


def test_perm_op_is_a_homomorphism():
    rng = random.Random(3)
    for _ in range(5):
        images = list(range(1, 4))
        rng.shuffle(images)
        s = Permutation(images)
        rng.shuffle(images)
        t = Permutation(images)
        from symfusion.symalg import compose
        assert mul(perm_op(s, 2), perm_op(t, 2)) == perm_op(compose(s, t), 2)


def test_form_validation():
    with pytest.raises(ValueError):
        BilinearForm("alternating", 3)
    with pytest.raises(ValueError):
        BilinearForm("symmetric", 2, [[0, 1], [-1, 0]])
    with pytest.raises(SingularForm):
        BilinearForm("symmetric", 2, [[1, 1], [1, 1]])


def test_dual_basis_examples():
    assert dual_basis(BilinearForm("symmetric", 2)) == [(1, 0), (0, 1)]
    alt = BilinearForm("alternating", 2)
    assert dual_basis(alt) == [(0, 1), (-1, 0)]  # v1 = e2, v2 = -e1
    # <e1, v1> = 1 and <e2, v1> = 0 define v1
    v1, v2 = dual_basis(alt)
    assert sum(alt.gram[0][j] * v1[j] for j in range(2)) == 1
    assert sum(alt.gram[1][j] * v1[j] for j in range(2)) == 0
    scaled = BilinearForm("symmetric", 2, [[2, 0], [0, 1]])
    assert dual_basis(scaled)[0] == (Fraction(1, 2), 0)


def test_q_op_symmetric_identity_form():
    form = BilinearForm("symmetric", 2)
    Q = q_op(1, 2, form, 2)
    w = {encode((1, 1), 2): Fraction(1), encode((2, 2), 2): Fraction(1)}
    assert column(Q, (1, 1)) == w
    assert column(Q, (1, 2)) == {}
    assert mul(Q, Q) == scaled(Q, 2)


def test_q_op_alternating():
    form = BilinearForm("alternating", 2)
    Q = q_op(1, 2, form, 2)
    assert column(Q, (1, 2)) == {encode((1, 2), 2): Fraction(1),
                                 encode((2, 1), 2): Fraction(-1)}
    assert column(Q, (1, 1)) == {}


def test_q_op_relations_both_forms():
    for form in (BilinearForm("symmetric", 2), BilinearForm("symmetric", 3),
                 BilinearForm("alternating", 2)):
        N = form.N
        sign = 1 if form.kind == "symmetric" else -1
        for n in (2, 3):
            I = SparseOperator.identity(N, n)
            for k in range(1, n):
                for l in range(k + 1, n + 1):
                    Q = q_op(k, l, form, n)
                    P_ = perm_op(Permutation.transposition(n, k, l), N)
                    assert mul(Q, Q) == scaled(Q, N)
                    assert Q == q_op(l, k, form, n)
                    assert not mul(Q, I - scaled(P_, sign))
                    assert mul(P_, Q) == scaled(Q, sign)


def test_q_op_index_errors():
    with pytest.raises(IndexError):
        q_op(1, 1, BilinearForm("symmetric", 2), 2)
    with pytest.raises(IndexError):
        q_op(0, 2, BilinearForm("symmetric", 2), 2)


def test_pair_vector_is_basis_independent():
    # conjugating the Gram matrix must conjugate the contraction operator
    rng = random.Random(23)
    N = 2
    for kind in ("symmetric", "alternating"):
        base = BilinearForm(kind, N)
        while True:
            A = [[Fraction(rng.randint(-3, 3)) for _ in range(N)] for _ in range(N)]
            det = A[0][0] * A[1][1] - A[0][1] * A[1][0]
            if det:
                break
        new_gram = [[sum(A[k][i] * base.gram[k][m] * A[m][j]
                         for k in range(N) for m in range(N))
                     for j in range(N)] for i in range(N)]
        changed = BilinearForm(kind, N, new_gram)
        Q_new = q_op(1, 2, changed, 2)
        Q_old = q_op(1, 2, base, 2)
        AxA = _two_slot(A, N)
        AxA_inv = _two_slot(_inv2(A), N)
        assert mul(mul(AxA_inv, Q_old), AxA) == Q_new


def _two_slot(A, N):
    rows = {}
    for i in range(N):
        for j in range(N):
            for k in range(N):
                for m in range(N):
                    v = A[i][k] * A[j][m]
                    if v:
                        rows.setdefault(i * N + j, {})[k * N + m] = v
    return SparseOperator(N, 2, rows)


def _inv2(A):
    det = A[0][0] * A[1][1] - A[0][1] * A[1][0]
    return [[A[1][1] / det, -A[0][1] / det], [-A[1][0] / det, A[0][0] / det]]


def test_act_examples():
    a = GroupAlgebraElement(2, {(1, 2): Fraction(1), (2, 1): Fraction(1)})
    assert column(act(a, 2), (1, 2)) == {encode((1, 2), 2): Fraction(1), encode((2, 1), 2): Fraction(1)}
    e11 = e_tableau(row_tableau(skew(P(1, 1))))
    assert not act(e11, 1)
    e21 = e_tableau(row_tableau(skew(P(2, 1))))
    assert rank(act(e21, 2)) == count_semistandard(skew(P(2, 1)), 2) == 2


def test_act_is_algebra_homomorphism():
    rng = random.Random(29)
    for n, N in ((3, 2), (4, 2), (3, 3)):
        for _ in range(3):
            def rand_elem():
                terms = {}
                for _ in range(rng.randint(1, 4)):
                    images = list(range(1, n + 1))
                    rng.shuffle(images)
                    terms[tuple(images)] = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                return GroupAlgebraElement(n, terms)
            a, b = rand_elem(), rand_elem()
            assert act(ga_mul(a, b), N) == mul(act(a, N), act(b, N))


def test_rank_and_bases():
    I = SparseOperator.identity(2, 2)
    assert rank(I) == 4
    P_ = perm_op(Permutation((2, 1)), 2)
    sym2 = I + P_
    assert rank(sym2) == 3
    assert image_basis(sym2).dim == 3
    assert kernel_basis(sym2).dim == 1
    assert rank(q_op(1, 2, BilinearForm("symmetric", 2), 2)) == 1
    assert rank(q_op(1, 2, BilinearForm("alternating", 2), 2)) == 1


def _planted(N, n, blocks, rng):
    """Operator with one block of each (rows, cols, rank) on disjoint rows and
    columns, drawn from a seeded shuffle of the basis; returns it with the
    planted rank."""
    dim = N ** n
    row_codes, col_codes = list(range(dim)), list(range(dim))
    rng.shuffle(row_codes)
    rng.shuffle(col_codes)
    rows, planted = {}, 0

    def entry():
        return Fraction(rng.choice([-3, -2, -1, 1, 2, 5]), rng.randint(1, 6))

    for nr, nc, k in blocks:
        rs = [row_codes.pop() for _ in range(nr)]
        cs = [col_codes.pop() for _ in range(nc)]
        X = [[entry() for _ in range(k)] for _ in range(nr)]
        Y = [[entry() for _ in range(nc)] for _ in range(k)]
        for i, r in enumerate(rs):
            order = list(enumerate(cs))
            rng.shuffle(order)  # rows of a block need not list their columns alike
            row = {c: sum(X[i][t] * Y[t][j] for t in range(k)) for j, c in order}
            rows[r] = {c: v for c, v in row.items() if v}
        planted += k
    return SparseOperator(N, n, {r: row for r, row in rows.items() if row}), planted


def test_rank_sums_connected_blocks():
    rng = random.Random(41)
    cases = [
        _planted(3, 3, [(27, 27, 19)], rng),                        # one full block
        _planted(2, 5, [(1, 1, 1)] * 32, rng),                      # 32 1x1 blocks
        _planted(2, 5, [(5, 3, 2), (1, 4, 1), (6, 6, 6), (4, 7, 3), (2, 2, 1)], rng),
        _planted(3, 3, [(9, 9, 4), (3, 8, 3), (1, 1, 1)] + [(2, 1, 1)] * 3, rng),
        (SparseOperator(2, 3), 0),
        (SparseOperator(2, 2, {0: {}, 1: {3: Fraction(1, 2), 0: Fraction(-2, 3)},
                               2: {}, 3: {2: Fraction(5)}}), 2),
    ]
    for A, planted in cases:
        dense = [[A.entry(r, c) for c in range(A.dim)] for r in sorted(A.rows)]
        assert rank(A) == qq_rank(dense, A.dim) == planted


def _dense(basis):
    return [[dict(vec).get(c, 0) for c in range(basis.ambient)] for vec in basis.vectors]


def test_subspace_layer_matches_sympy():
    """Image, kernel and intersection of planted block operators are sympy's
    canonical rows; the intersection goes through sympy as the joint
    kernel of the two annihilators, a different route."""
    rng = random.Random(43)
    pairs = [
        (_planted(2, 5, [(5, 3, 2), (1, 4, 1), (6, 6, 6), (4, 7, 3), (2, 2, 1)], rng)[0],
         _planted(2, 5, [(9, 9, 5), (7, 8, 4), (3, 3, 3)], rng)[0]),
        (_planted(3, 3, [(9, 9, 4), (3, 8, 3), (1, 1, 1)] + [(2, 1, 1)] * 3, rng)[0],
         _planted(3, 3, [(27, 27, 19)], rng)[0]),
    ]
    for A, B in pairs:
        dim = A.dim
        mat = [[A.entry(r, c) for c in range(dim)] for r in range(dim)]
        img, ker = image_basis(A), kernel_basis(A)
        assert _dense(img) == qq_echelon([list(col) for col in zip(*mat)], dim)[1]
        assert _dense(ker) == qq_nullspace(mat, dim)
        assert img.dim + ker.dim == dim
        for U, V in ((img, ker), (img, image_basis(B)), (ker, kernel_basis(B))):
            annihilators = qq_nullspace(_dense(U), dim) + qq_nullspace(_dense(V), dim)
            assert _dense(intersect(U, V)) == qq_nullspace(annihilators, dim)


def _redundant(N, n, rng):
    """Operator whose rows repeat in the ways ``_blocks`` folds, on a seeded
    shuffle of the basis, with its rows inserted in shuffled order:
    - a block of two base rows, each used whole or scaled (by -1, 2/3 or
      3) several times, over columns that come in equal pairs;
    - rows on one shared support with different values, one of them the
      sum of two others;
    - a chain of rows on the supports {c_0, c_1}, {c_1, c_2}, ..., whose
      closing row on {c_0, c_k} is their alternating sum, so the chain is
      one block only through its links;
    - the remaining rows empty."""
    dim = N ** n
    row_codes, col_codes = list(range(dim)), list(range(dim))
    rng.shuffle(row_codes)
    rng.shuffle(col_codes)

    def entry():
        return Fraction(rng.choice([-3, -2, -1, 1, 2, 5]), rng.randint(1, 4))

    rows = []
    support = [col_codes.pop() for _ in range(3)]
    twins = [col_codes.pop() for _ in support]  # column twins[i] repeats support[i]
    base = []
    for _ in range(2):
        row = {c: entry() for c in support}
        base.append({**row, **{t: row[c] for c, t in zip(support, twins)}})
    for scale in (1, 1, -1, Fraction(2, 3), 3, 1):
        rows.append({c: scale * v for c, v in rng.choice(base).items()})
    support = [col_codes.pop() for _ in range(4)]
    shared = [{c: entry() for c in support} for _ in range(3)]
    shared.append({c: shared[0][c] + shared[1][c] for c in support})
    rows.extend({c: v for c, v in row.items() if v} for row in shared)
    chain = [col_codes.pop() for _ in range(5)]
    links = [{a: 1, b: 1} for a, b in zip(chain, chain[1:])]
    rows.extend(links)
    rows.append({chain[0]: 1, chain[-1]: (-1) ** (len(links) - 1)})
    rng.shuffle(rows)
    return SparseOperator(N, n, dict(zip(row_codes, rows)))


def test_elimination_of_repeated_rows_and_columns_matches_sympy():
    """Rank, image, row space, kernel and intersection of operators with
    repeated, scaled and same-support rows, repeated columns, chained
    blocks and empty rows are sympy's, and so are spans with zero and
    repeated vectors; ``echelon`` leaves tuple rows as they were."""
    rng = random.Random(47)
    for N, n in ((2, 5), (3, 3), (2, 5)):
        A, B = _redundant(N, n, rng), _redundant(N, n, rng)
        dim = A.dim
        mat = [[A.entry(r, c) for c in range(dim)] for r in range(dim)]
        columns = [list(col) for col in zip(*mat)]
        assert rank(A) == rank(_transpose(A)) == qq_rank(mat, dim)
        img, rows, ker = image_basis(A), row_basis(A), kernel_basis(A)
        assert _dense(img) == qq_echelon(columns, dim)[1]
        assert _dense(rows) == qq_echelon(mat, dim)[1]
        assert _dense(ker) == qq_nullspace(mat, dim)
        vecs = [dict(vec) for vec in rng.sample(img.vectors + image_basis(B).vectors, 4)]
        spanned = span_of_vectors(dim, vecs + [{}, vecs[0], {c: -2 * v for c, v in vecs[1].items()}])
        assert _dense(spanned) == qq_echelon([[v.get(c, 0) for c in range(dim)] for v in vecs], dim)[1]
        for U, V in ((img, ker), (rows, ker), (img, image_basis(B)), (spanned, rows)):
            annihilators = qq_nullspace(_dense(U), dim) + qq_nullspace(_dense(V), dim)
            assert _dense(intersect(U, V)) == qq_nullspace(annihilators, dim)
    tuples = [(2, 4, 6), (0, 0, 0), (2, 4, 6), (1, 3, 0)]
    pivots, reduced = kernels.echelon(tuples, 3)
    assert tuples == [(2, 4, 6), (0, 0, 0), (2, 4, 6), (1, 3, 0)]
    assert (pivots, reduced) == kernels.echelon([list(t) for t in tuples], 3)
    assert (pivots, reduced) == qq_echelon(tuples, 3)
    assert all(type(row) is list for row in reduced)


def _sharing(N, n, rng):
    """Operator whose rows share dict objects, as the orbit assembly of
    ``fusion`` stores them.  Its objects are rows of small ints, one of
    them scaled, one an equal copy that is another object and one the sum
    of two others; two objects are held at one row index each and the rest
    at one to four, inserted in shuffled order."""
    dim = N ** n
    cols = rng.sample(range(dim), 6)
    base = [{c: rng.choice([-3, -2, -1, 1, 2, 5]) for c in rng.sample(cols, 3)}
            for _ in range(3)]
    total = {c: base[1].get(c, 0) + base[2].get(c, 0) for c in cols}
    objects = base + [{c: -2 * v for c, v in base[0].items()}, dict(base[1]),
                      {c: v for c, v in total.items() if v}]
    sizes = [1, 1] + [rng.randint(1, 4) for _ in objects[2:]]
    codes = iter(rng.sample(range(dim), sum(sizes)))
    held = [(next(codes), row) for row, size in zip(objects, sizes) for _ in range(size)]
    rng.shuffle(held)
    return SparseOperator._in_normal_form(N, n, dict(held), 1)


def _classes(A):
    """The row indices of each row object of A, in insertion order."""
    classes = {}
    for r, row in A.rows.items():
        classes.setdefault(id(row), []).append(r)
    return list(classes.values())


def test_shared_row_objects_are_eliminated_as_copies():
    """Rank, image, row space and kernel of operators whose rows share
    objects are sympy's and those of the same rows copied, one dict per
    row.  Their classes of rows include classes of one row and classes
    whose least row is not the first inserted; the zero operator has no
    class."""
    rng = random.Random(53)
    for N, n in ((2, 4), (3, 3), (2, 5)):
        A = _sharing(N, n, rng)
        copied = SparseOperator(N, n, A.rows, A.den)
        assert len(_classes(copied)) == len(A.rows) > len(_classes(A))
        assert any(len(rs) == 1 for rs in _classes(A))
        assert any(min(rs) != rs[0] for rs in _classes(A))
        dim = A.dim
        mat = [[A.entry(r, c) for c in range(dim)] for r in range(dim)]
        assert rank(A) == rank(copied) == qq_rank(mat, dim)
        assert image_basis(A) == image_basis(copied)
        assert _dense(image_basis(A)) == qq_echelon([list(col) for col in zip(*mat)], dim)[1]
        assert row_basis(A) == row_basis(copied)
        assert _dense(row_basis(A)) == qq_echelon(mat, dim)[1]
        assert kernel_basis(A) == kernel_basis(copied)
        assert _dense(kernel_basis(A)) == qq_nullspace(mat, dim)
    zero = SparseOperator._in_normal_form(2, 3, {}, 1)
    assert rank(zero) == image_basis(zero).dim == row_basis(zero).dim == 0
    assert kernel_basis(zero) == span_of_vectors(8, [{c: 1} for c in range(8)])


def test_row_objects_group_the_indices_of_each_object():
    """``row_objects`` lists each row object once with its row indices
    ascending, ordered by the least of them, for rows inserted in shuffled
    order; an equal copy is an object of its own, copied rows are one
    object each, and the zero operator has none."""
    rng = random.Random(59)
    for N, n in ((2, 4), (3, 3)):
        A = _sharing(N, n, rng)
        groups = A.row_objects()
        assert [indices for _, indices in groups] == sorted(map(sorted, _classes(A)))
        assert all(A.rows[r] is row for row, indices in groups for r in indices)
        copied = SparseOperator(N, n, A.rows, A.den)
        assert [indices for _, indices in copied.row_objects()] == [[r] for r in sorted(A.rows)]
    assert SparseOperator(2, 3).row_objects() == []


def test_commutes_with_checks_each_row_against_its_own_image():
    """Rows 0 and 2 share one object X.  Under the signed permutation
    (0 1)(2 3) with s(3) = −1 their images are Y at row 1 and −Y at row 3,
    so only the check at row 2 fails; the check at row 3 passes by its
    sign.  commutes_with rejects the operator as the whole products do, on
    shared and on copied rows, although it checks row 0 first with the
    same object and sign; with Y at row 3 and s(3) = 1 all of them accept."""
    X, Y = {0: 1}, {1: 1}
    for image, s3, commutes in (({1: -1}, -1, False), (Y, 1, True)):
        table = ((1, 0, 3, 2), (1, 1, 1, s3))
        A = SparseOperator._in_normal_form(2, 2, {0: X, 1: Y, 2: X, 3: image}, 1)
        G = SparseOperator(2, 2, {table[0][c]: {c: table[1][c]} for c in range(4)})
        assert (mul(A, G) == mul(G, A)) is commutes
        assert commutes_with(A, table) is commutes
        assert commutes_with(SparseOperator(2, 2, A.rows), table) is commutes


def _rows_shared(A):
    """A with each set of equal rows held as one dict object."""
    objects = {}
    return SparseOperator._in_normal_form(
        A.N, A.n, {r: objects.setdefault(tuple(sorted(row.items())), row)
                   for r, row in A.rows.items()}, A.den)


def test_acts_as_scalar_on_shared_rows_gives_the_verdicts_of_copied_rows():
    """acts_as_scalar gives one verdict on shared rows and on the same rows
    copied, and it is that of the whole product: on the symmetrizer of the
    (2,1) row tableau, which acts as 3 on its image, and on operators of
    ``_sharing``, which act as 0 on their kernels."""
    rng = random.Random(59)
    symmetrizer = _rows_shared(act(e_tableau(row_tableau(skew(P(2, 1)))), 3))
    cases = [(symmetrizer, 3), (_sharing(2, 4, rng), 0), (_sharing(3, 3, rng), 0)]
    for A, sigma in cases:
        copied = SparseOperator(A.N, A.n, A.rows, A.den)
        assert len(_classes(A)) < len(A.rows) == len(_classes(copied))
        for basis in (image_basis(A), row_basis(A), kernel_basis(A),
                      kernel_basis(_transpose(A))):
            B = as_columns(A.N, A.n, basis.vectors)
            for s in (sigma, sigma + 1):
                assert (acts_as_scalar(A, basis, s) is acts_as_scalar(copied, basis, s)
                        is (mul(A, B) == scaled(B, s)))
                assert (acts_as_scalar(A, basis, s, on_rows=True)
                        is acts_as_scalar(copied, basis, s, on_rows=True)
                        is (mul(_transpose(B), A) == scaled(_transpose(B), s)))
        assert acts_as_scalar(A, kernel_basis(A), 0)
    assert acts_as_scalar(symmetrizer, image_basis(symmetrizer), 3)


def test_subspace_equal_ignores_the_spanning_set():
    rng = random.Random(5)
    vecs = [[rng.randint(-3, 3) for _ in range(6)] for _ in range(3)]
    assert qq_rank(vecs, 6) == 3
    A = span_of_vectors(6, vecs)
    scaled = [[Fraction(-2 * x, 7) for x in v] for v in vecs]
    redundant = [[a + b for a, b in zip(vecs[0], vecs[1])], [0] * 6]
    as_dicts = [{i: x for i, x in enumerate(v) if x} for v in reversed(vecs)]
    for spanning in (scaled[::-1], vecs + redundant, as_dicts + redundant):
        assert subspace_equal(A, span_of_vectors(6, spanning))
    assert not subspace_equal(A, span_of_vectors(6, vecs[:2] + redundant))


def test_span_of_vectors_checks_the_ambient():
    with pytest.raises(AmbientMismatch):
        span_of_vectors(2, [(0, 0, 1)])
    with pytest.raises(AmbientMismatch):
        span_of_vectors(2, [{2: 1}])
    with pytest.raises(AmbientMismatch):
        span_of_vectors(2, [{-1: 1}])


def test_traceless_dimensions():
    assert traceless_basis(2, 2, BilinearForm("symmetric", 2)).dim == 3
    assert traceless_basis(2, 1, BilinearForm("symmetric", 2)).dim == 2
    assert traceless_basis(2, 2, BilinearForm("alternating", 2)).dim == 3
    # third power of the plane: only the single-row label survives,
    # a two-dimensional space of harmonic cubics
    assert traceless_basis(2, 3, BilinearForm("symmetric", 2)).dim == 2


def test_traceless_matches_stacked_kernel():
    for form in (BilinearForm("symmetric", 2), BilinearForm("alternating", 2),
                 BilinearForm("symmetric", 3)):
        N, n = form.N, 3
        T = traceless_basis(N, n, form)
        for k in range(1, n):
            for l in range(k + 1, n + 1):
                assert not mul(q_op(k, l, form, n), as_columns(N, n, T.vectors))


def _transpose(A):
    rows = {}
    for r, row in A.rows.items():
        for c, v in row.items():
            rows.setdefault(c, {})[r] = v
    return SparseOperator(A.N, A.n, rows, A.den)


def test_acts_as_scalar_matches_the_whole_product():
    """acts_as_scalar(A, basis, σ) is the verdict of the whole product
    A·B = σ·B, with B the operator whose columns are the basis vectors, and
    with ``on_rows`` that of Bᵗ·A = σ·Bᵗ.  With Y random, so with no
    symmetry, σ + Y·Q_12 acts as σ on the traceless basis and σ + Q_12·Y
    on the row kernel of Q_12, each on its own side only; σ + 1 fails."""
    rng = random.Random(47)
    for form, n in ((BilinearForm("symmetric", 2), 3), (BilinearForm("alternating", 4), 2),
                    (BilinearForm("symmetric", 3), 3)):
        N, dim = form.N, form.N ** n
        Q = q_op(1, 2, form, n)
        # three random entries in each of two thirds of the rows
        Y = SparseOperator(N, n, {r: {c: Fraction(rng.randint(-3, 3), rng.randint(1, 2))
                                      for c in rng.sample(range(dim), 3)}
                                  for r in rng.sample(range(dim), dim * 2 // 3)})
        sigma = Fraction(rng.randint(1, 5), rng.randint(2, 3))
        shift = scaled(SparseOperator.identity(N, n), sigma)
        on_columns, on_rows = shift + mul(Y, Q), shift + mul(Q, Y)
        columns, rows = traceless_basis(N, n, form), kernel_basis(_transpose(Q))
        random_basis = span_of_vectors(dim, [[rng.randint(-2, 2) for _ in range(dim)]
                                             for _ in range(3)])
        assert acts_as_scalar(on_columns, columns, sigma)
        assert acts_as_scalar(on_rows, rows, sigma, on_rows=True)
        assert not acts_as_scalar(on_columns, rows, sigma, on_rows=True)
        assert not acts_as_scalar(on_rows, columns, sigma)
        for A in (on_columns, on_rows, Y, SparseOperator(N, n)):
            for basis in (columns, rows, random_basis, image_basis(Y), row_basis(Y)):
                B = as_columns(N, n, basis.vectors)
                for s in (sigma, sigma + 1, 0):
                    assert acts_as_scalar(A, basis, s) is (mul(A, B) == scaled(B, s)), (N, n)
                    assert (acts_as_scalar(A, basis, s, on_rows=True)
                            is (mul(_transpose(B), A) == scaled(_transpose(B), s))), (N, n)
    with pytest.raises(AmbientMismatch):
        acts_as_scalar(SparseOperator.identity(2, 2), span_of_vectors(8, [{0: 1}]), 1)


def test_image_and_row_bases_span_the_columns_and_rows():
    """The row basis is the image basis of the transpose, and acting as σ
    on either basis is A·X = σX or X·A = σX for the whole of X."""
    rng = random.Random(5)
    for N, n in ((2, 3), (3, 2)):
        dim = N ** n
        X = SparseOperator(N, n, {r: {c: rng.randint(-2, 2) for c in rng.sample(range(dim), 2)}
                                  for r in rng.sample(range(dim), dim // 2)})
        assert subspace_equal(row_basis(X), image_basis(_transpose(X)))
        assert row_basis(X).dim == image_basis(X).dim == rank(X)


def test_kernel_within_is_the_meet_with_the_joint_kernel():
    """kernel_within(B, moves) is B ∩ (joint kernel of the moved operators):
    with the contractions' moves on an image basis it is the meet of that
    image with the traceless basis, as ``intersect`` computes it."""
    for form, n in ((BilinearForm("symmetric", 2), 3), (BilinearForm("alternating", 4), 2),
                    (BilinearForm("symmetric", 3), 3)):
        N = form.N
        pairs = [(k, l) for k in range(1, n) for l in range(k + 1, n + 1)]
        moves = [left_multiplication(q_op(k, l, form, n)) for k, l in pairs]
        T = traceless_basis(N, n, form)
        for lam in ((n,), (n - 1, 1)):
            img = image_basis(act(e_tableau(row_tableau(skew(P(*lam)))), N))
            assert subspace_equal(kernel_within(img, moves), intersect(img, T)), (N, n, lam)
        whole = span_of_vectors(N ** n, [{c: 1} for c in range(N ** n)])
        assert subspace_equal(kernel_within(whole, moves), T)
        assert subspace_equal(kernel_within(T, []), T)


def test_subspace_operations():
    e1 = span_of_vectors(2, [(1, 0)])
    e2 = span_of_vectors(2, [(0, 1)])
    assert subspace_equal(e1, e1)
    assert not subspace_equal(e1, e2)
    assert intersect(e1, e2).dim == 0
    I = SparseOperator.identity(2, 2)
    P_ = perm_op(Permutation((2, 1)), 2)
    sym_img = image_basis(I + P_)
    tr = traceless_basis(2, 2, BilinearForm("symmetric", 2))
    meet = intersect(sym_img, tr)
    assert meet.dim == 2
    with pytest.raises(AmbientMismatch):
        subspace_equal(e1, span_of_vectors(3, [(1, 0, 0)]))


def test_operator_json_triplets():
    P_ = perm_op(Permutation((2, 1)), 2)
    trip = P_.to_triplets()
    assert trip[0] == {"row": 0, "col": 0, "value": "1"}
    assert {t["row"] for t in trip} == {0, 1, 2, 3}


def _random_operator(N, n, rng):
    """(operator, reference {(r, c): Fraction}) with negative entries, stored
    zeros, empty rows and a factor shared by every entry."""
    dim = N ** n
    shared = Fraction(rng.choice([1, 2, 6, -4]), rng.choice([1, 3, 9]))
    rows, ref = {}, {}
    for r in rng.sample(range(dim), rng.randint(0, dim)):
        row = rows.setdefault(r, {})
        for c in rng.sample(range(dim), rng.randint(0, dim)):
            v = shared * Fraction(rng.randint(-3, 3), rng.choice([1, 2, 5]))
            row[c] = v
            if v:
                ref[(r, c)] = v
    return SparseOperator(N, n, rows), ref


def _ref_mul(a, b):
    out = {}
    for (r, k), x in a.items():
        for (k2, c), y in b.items():
            if k == k2:
                out[(r, c)] = out.get((r, c), 0) + x * y
    return {key: v for key, v in out.items() if v}


def _ref_add(a, b, sign=1):
    out = dict(a)
    for key, v in b.items():
        out[key] = out.get(key, 0) + sign * v
    return {key: v for key, v in out.items() if v}


def _assert_normal(A):
    values = [v for cols in A.rows.values() for v in cols.values()]
    assert type(A.den) is int and A.den > 0
    assert all(A.rows.values()), "empty row stored"
    assert all(type(v) is int and v != 0 for v in values)
    if A.rows:
        assert math.gcd(A.den, *values) == 1
    else:
        assert A.den == 1


def _assert_matches(A, ref):
    _assert_normal(A)
    dim = A.dim
    entries = {(r, c): A.entry(r, c) for r in range(dim) for c in range(dim)}
    assert all(type(v) is Fraction for v in entries.values())
    assert {key: v for key, v in entries.items() if v} == ref
    assert A.to_triplets() == [{"row": r, "col": c, "value": str(ref[(r, c)])}
                               for r, c in sorted(ref)]


def test_operator_normal_form():
    """Integer numerators over one reduced positive denominator, checked
    against a dict-of-Fraction reference and on every producer."""
    rng = random.Random(2718)
    N, n = 2, 2
    for _ in range(40):
        (A, a), (B, b) = _random_operator(N, n, rng), _random_operator(N, n, rng)
        _assert_matches(A, a)
        _assert_matches(A + B, _ref_add(a, b))
        _assert_matches(A - B, _ref_add(a, b, -1))
        _assert_matches(mul(A, B), _ref_mul(a, b))
        s = Fraction(rng.choice([-6, -1, 0, 2, 9]), rng.choice([1, 4, 6]))
        _assert_matches(scaled(A, s), {key: v * s for key, v in a.items() if v * s})
        # the same value built two ways is the same stored operator
        assert scaled(scaled(A, 3), Fraction(1, 3)) == A
        assert (A + B) - B == A
        assert (A - A).rows == {} and (A - A).den == 1
    assert SparseOperator(2, 1, {1: {0: Fraction(0)}}) == SparseOperator(2, 1)
    halved = SparseOperator(2, 1, {0: {0: 2, 1: 4}}, 4)
    assert (halved.rows, halved.den) == ({0: {0: 1, 1: 2}}, 2)
    with pytest.raises(ValueError):
        SparseOperator(2, 1, {0: {0: 1}}, 0)

    from symfusion.fusion import FusionConfig, e_operator, f_operator_general
    skewed = BilinearForm("symmetric", 2, [[2, 0], [0, 3]])  # dual basis 1/2, 1/3
    Tab = row_tableau(skew(P(2, 1)))
    produced = [
        perm_op(Permutation((2, 3, 1)), 2),
        q_op(1, 2, BilinearForm("symmetric", 3), 2),
        q_op(1, 3, skewed, 3),
        q_op(2, 1, BilinearForm("alternating", 2), 2),
        act(e_tableau(Tab), 2),
        act(GroupAlgebraElement(2, {(1, 2): Fraction(1, 2), (2, 1): Fraction(-1, 2)}), 2),
        act(GroupAlgebraElement(2, {(1, 2): Fraction(1, 2)})
            - GroupAlgebraElement(2, {(1, 2): Fraction(1, 2)}), 3),
        f_operator_general(FusionConfig(row_tableau(skew(P(2))), 3, 0, "symmetric")),
        f_operator_general(FusionConfig(Tab, 2, 0, "alternating", strict=False)),
        e_operator(Tab, 2),
        SparseOperator.identity(2, 2),
        scaled(SparseOperator.identity(2, 2), Fraction(6, 4)),
        scaled(SparseOperator.identity(2, 2), 0),
    ]
    A, B = produced[2], scaled(produced[1], Fraction(2, 7))
    produced += [A + A, mul(A, A), scaled(A, Fraction(-4, 6)), mul(B, B), B + B, scaled(A, 0)]
    for X in produced:
        _assert_normal(X)


HYPERBOLIC_4 = [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]]


def _all_monomial_isometries(form):
    """Every signed permutation preserving the Gram, by enumeration."""
    from itertools import permutations, product
    return [(perm, signs) for perm in permutations(range(form.N))
            for signs in product((1, -1), repeat=form.N)
            if preserves_gram(form, (perm, signs))]


def _orbit_count(tables, dim):
    parent = list(range(dim))

    def find(x):
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]
        return x

    for targets, _ in tables:
        for code, image in enumerate(targets):
            parent[find(code)] = find(image)
    return len({find(c) for c in range(dim)})


def test_monomial_isometries_generate_the_column_orbits():
    """The derived generators preserve the Gram and give the same column
    orbits as the whole enumerated group of monomial isometries."""
    for form, n_gens, group_order in ((BilinearForm("symmetric", 4), 7, 384),
                                      (BilinearForm("alternating", 4), 3, 32),
                                      (BilinearForm("symmetric", 4, HYPERBOLIC_4), None, None),
                                      (BilinearForm("symmetric", 3), 5, 48),
                                      (BilinearForm("alternating", 2), 1, 4)):
        gens = monomial_isometries(form)
        assert all(preserves_gram(form, g) for g in gens)
        group = _all_monomial_isometries(form)
        if n_gens is not None:
            assert (len(gens), len(group)) == (n_gens, group_order)
        for n in (1, 2, 3, 4):
            dim = form.N ** n
            orbits = column_orbits(form, n)
            full = _orbit_count([code_table(g, form.N, n) for g in group], dim)
            assert len(orbits.representatives) == full
            # each code once: a representative, or a step after its parent
            placed = set(orbits.representatives)
            for code, parent, t in orbits.steps:
                assert parent in placed and code not in placed
                assert orbits.tables[t][0][parent] == code
                placed.add(code)
            assert placed == set(range(dim))
    # a Gram with no monomial symmetry but the identity gives no generator
    assert monomial_isometries(BilinearForm("symmetric", 2, [[2, 1], [1, Fraction(1, 3)]])) == ()


def _generated(gens, N):
    """The group of signed permutations that ``gens`` generate, closed
    breadth-first under composition with a generator."""
    ident = (tuple(range(N)), (1,) * N)
    group, queue = {ident}, [ident]
    for perm, signs in queue:
        for p, s in gens:  # (p, s) after (perm, signs)
            g = (tuple(p[perm[i]] for i in range(N)),
                 tuple(signs[i] * s[perm[i]] for i in range(N)))
            if g not in group:
                group.add(g)
                queue.append(g)
    return group


def test_exchange_entries_are_checked_on_the_identity_gram(fresh_units):
    """An exchange's unit entry is keyed and checked on the identity Gram
    whatever the form: that Gram's generators generate every signed letter
    permutation, so they contain each form's monomial isometries, and one
    entry serves every form.  A contraction keeps one entry per form."""
    forms = [standard_form(kind, N) for N in (1, 2, 3, 4)
             for kind in ("symmetric", "alternating") if kind == "symmetric" or N % 2 == 0]
    forms.append(BilinearForm("symmetric", 4, HYPERBOLIC_4))
    for N in (1, 2, 3, 4):
        group = _generated(monomial_isometries(standard_form("symmetric", N)), N)
        assert len(group) == 2 ** N * math.factorial(N)  # B_4 has 384 elements
        for form in (f for f in forms if f.N == N):
            assert set(monomial_isometries(form)) <= group, form
    sp4, o4 = standard_form("alternating", 4), standard_form("symmetric", 4)
    entry = tensorop.unit_move(("P", 1, 3), 4, 3, sp4)
    assert tensorop.unit_move(("P", 1, 3), 4, 3, o4) is entry and entry[2]
    assert tensorop.unit_move(("Q", 1, 3), 4, 3, sp4) is not tensorop.unit_move(
        ("Q", 1, 3), 4, 3, o4)
    assert tensorop.unit_move.cache_info().misses == 3


def test_column_orbit_counts():
    """Orbit counts at N = 4 for five and six tensor factors (counts only)."""
    counts = {(kind, n): len(column_orbits(BilinearForm(kind, 4), n).representatives)
              for kind in ("symmetric", "alternating") for n in (5, 6)}
    assert counts == {("alternating", 5): 136, ("symmetric", 5): 51,
                      ("alternating", 6): 528, ("symmetric", 6): 187}


def test_gram_check_rejects_a_flipped_sign():
    """Every derived generator of the Sp_4 and the hyperbolic O_4 Gram
    stops preserving it when any one of its signs is flipped."""
    for form in (BilinearForm("alternating", 4), BilinearForm("symmetric", 4, HYPERBOLIC_4)):
        gens = monomial_isometries(form)
        assert gens
        for perm, signs in gens:
            for i in range(form.N):
                flipped = tuple(-s if k == i else s for k, s in enumerate(signs))
                assert not preserves_gram(form, (perm, flipped))


def test_code_table_is_the_tensor_power():
    """code_table reads g^{⊗n} e_idx = Π s_{i_k}·e_{σ(idx)} off the digits,
    and each generator's g^{⊗n} commutes with every perm_op and q_op."""
    N, n = 4, 3
    for form in (BilinearForm("symmetric", 4), BilinearForm("alternating", 4),
                 BilinearForm("symmetric", 4, HYPERBOLIC_4)):
        qs = [q_op(k, l, form, n) for k in range(1, n + 1) for l in range(k + 1, n + 1)]
        ps = [perm_op(s, N) for s in (Permutation((2, 1, 3)), Permutation((2, 3, 1)))]
        for g in monomial_isometries(form):
            perm, signs = g
            targets, sgn = code_table(g, N, n)
            for code in range(N ** n):
                idx = decode(code, N, n)
                assert targets[code] == encode(tuple(perm[i - 1] + 1 for i in idx), N)
                assert sgn[code] == math.prod(signs[i - 1] for i in idx)
            assert all(commutes_with(X, (targets, sgn)) for X in qs + ps)
    # a signed permutation that breaks the form does not commute with q_op
    bad = ((0, 1, 2, 3), (-1, 1, 1, 1))
    assert not preserves_gram(BilinearForm("alternating", 4), bad)
    assert not commutes_with(q_op(1, 2, BilinearForm("alternating", 4), 2), code_table(bad, 4, 2))
