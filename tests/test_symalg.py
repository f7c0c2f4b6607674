import itertools
import math
import random
from fractions import Fraction

import pytest

from symfusion import symalg
from symfusion.exactnum import PoleAtLimit
from symfusion.shapes import (Partition, column_tableau, dim_sym_irrep,
                              partitions_of, row_tableau, skew,
                              standard_tableaux)
from symfusion.symalg import (DegreeMismatch, GroupAlgebraElement, Permutation,
                              SkewShapeError, WrongTableau, chain_from_row,
                              compose, e_col, e_row, e_skew_extract,
                              e_tableau, extend_tableau,
                              _fusion_limit, fusion_e_skew,
                              inner_tableau_of, iota, theta, young_p, young_q)

from qq_oracle import qq_fusion_e_skew, qq_fusion_limit, qq_rank


def P(*parts):
    return Partition(parts)


def ga(n, *terms):
    """Helper: terms are (cycles-as-images-tuple, coeff) pairs."""
    return GroupAlgebraElement(n, {t: Fraction(c) for t, c in terms})


def transp(n, i, j):
    return tuple(Permutation.transposition(n, i, j))


def ident(n):
    return tuple(range(1, n + 1))


# --- permutations ----------------------------------------------------------


def test_compose_convention():
    s = Permutation.transposition(3, 1, 3)
    t = Permutation.transposition(3, 1, 2)
    st = compose(s, t)
    assert (st(1), st(2), st(3)) == (2, 3, 1)  # the 3-cycle 1->2->3->1
    e = Permutation.identity(3)
    assert compose(s, e) == s
    assert compose(t, t) == e
    with pytest.raises(DegreeMismatch):
        compose(s, Permutation.identity(2))


def test_permutation_cycles_and_sign():
    assert Permutation((2, 1, 3)).cycles() == "(1 2)"
    assert Permutation((2, 3, 1)).cycles() == "(1 2 3)"
    assert Permutation.identity(3).cycles() == "()"
    assert Permutation((2, 1, 3)).sign() == -1
    assert Permutation((2, 3, 1)).sign() == 1
    assert Permutation.reversal(3) == Permutation((3, 2, 1))


# --- the element's normal form ------------------------------------------------


def _random_element(n, rng):
    """An element built from repeated keys, zero and cancelling terms, int
    and Fraction coefficients, with its dict-of-Fraction reference."""
    perms = list(itertools.permutations(range(1, n + 1)))
    shared = Fraction(rng.choice([1, 2, 6, -4]), rng.choice([1, 3, 9]))
    pairs, ref = [], {}
    for _ in range(rng.randint(0, 8)):
        s = rng.choice(perms)
        c = shared * Fraction(rng.randint(-3, 3), rng.choice([1, 2, 5]))
        if c.denominator == 1 and rng.random() < 0.5:
            c = int(c)
        pairs.append((s, c))
        if rng.random() < 0.3:
            pairs.append((s, -c))  # the two terms cancel
        else:
            ref[s] = ref.get(s, 0) + c
    return GroupAlgebraElement(n, pairs), {s: c for s, c in ref.items() if c}


def _assert_ga_normal(e):
    values = list(e.terms.values())
    assert type(e.den) is int and e.den > 0
    assert all(type(v) is int and v != 0 for v in values)
    if values:
        assert math.gcd(e.den, *values) == 1
    else:
        assert e.den == 1


def _assert_ga_matches(e, ref):
    _assert_ga_normal(e)
    for s in itertools.permutations(range(1, e.n + 1)):
        c = e.coeff(s)
        assert type(c) is Fraction and c == ref.get(s, 0)
    assert e.to_json() == [{"cycles": Permutation(s).cycles(), "coeff": str(Fraction(ref[s]))}
                           for s in sorted(ref)]


def test_group_algebra_normal_form():
    """Integer numerators over one reduced positive denominator, checked
    against a dict-of-Fraction reference and on every producer."""
    rng = random.Random(1414)
    n = 3
    for _ in range(40):
        (A, a), (B, b) = _random_element(n, rng), _random_element(n, rng)
        _assert_ga_matches(A, a)
        added = {s: a.get(s, 0) + b.get(s, 0) for s in set(a) | set(b)}
        _assert_ga_matches(A + B, {s: c for s, c in added.items() if c})
        taken = {s: a.get(s, 0) - b.get(s, 0) for s in set(a) | set(b)}
        _assert_ga_matches(A - B, {s: c for s, c in taken.items() if c})
        prod = {}
        for sa, x in a.items():
            for sb, y in b.items():
                key = tuple(compose(Permutation(sa), Permutation(sb)))
                prod[key] = prod.get(key, 0) + x * y
        _assert_ga_matches(A * B, {s: c for s, c in prod.items() if c})
        k = Fraction(rng.choice([-6, -1, 0, 2, 9]), rng.choice([1, 4, 6]))
        _assert_ga_matches(A.scaled(k), {s: c * k for s, c in a.items() if c * k})
        assert A.scaled(3).scaled(Fraction(1, 3)) == A
        assert (A + B) - B == A
        assert (A - A).terms == {} and (A - A).den == 1
    halved = GroupAlgebraElement(2, {(1, 2): 2, (2, 1): 4}, 4)
    assert (halved.terms, halved.den) == ({(1, 2): 1, (2, 1): 2}, 2)
    assert GroupAlgebraElement(2, {(1, 2): Fraction(0)}) == GroupAlgebraElement(2)
    with pytest.raises(ValueError):
        GroupAlgebraElement(2, {(1, 2): 1}, 0)

    produced = []
    for lam in (P(2, 1), P(3, 1), P(2, 2)):
        for T in standard_tableaux(skew(lam)):
            e = e_tableau(T)
            produced += [e, fusion_e_skew(T, "column"), iota(e, 2)]
            produced += [theta(e, m) for m in range(lam.size)]
            produced += [e_skew_extract(T, m) for m in range(lam.size)]
        produced += [e_row(row_tableau(skew(lam))), e_col(column_tableau(skew(lam)))]
    for sk in (skew(P(2, 1), P(1)), skew(P(3, 2), P(1))):
        produced += [fusion_e_skew(O, "row") for O in standard_tableaux(sk)]
    for e in produced:
        _assert_ga_normal(e)


def test_group_algebra_dict_and_iterable_inputs_agree():
    """A tuple-keyed dict is taken as it is; an iterable of pairs adds up
    repeated keys; Permutation keys become plain tuples.  All give one
    element, and the constructor never keeps the caller's dict."""
    s, t, e = transp(3, 1, 2), transp(3, 2, 3), ident(3)
    pairs = [(s, 2), (Permutation(t), Fraction(1, 3)), (s, -1), (e, 4), (Permutation(s), 3)]
    want = GroupAlgebraElement(3, pairs, 2)
    assert (want.terms, want.den) == ({s: 12, t: 1, e: 12}, 6)
    assert GroupAlgebraElement(3, iter(pairs), 2) == want
    terms = {s: 4, t: Fraction(1, 3), e: 4}
    taken = GroupAlgebraElement(3, terms, 2)
    assert taken == want and taken.terms is not terms
    assert terms == {s: 4, t: Fraction(1, 3), e: 4}
    assert GroupAlgebraElement(3, {Permutation(k): v for k, v in terms.items()}, 2) == want
    assert GroupAlgebraElement(3, {s: 4, Permutation(t): Fraction(1, 3), e: 4}, 2) == want
    for element in (want, taken, GroupAlgebraElement(3, {Permutation(s): 1})):
        assert {type(k) for k in element.terms} == {tuple}


# --- Young symmetrizer building blocks --------------------------------------


def test_young_p_q_single_row_and_column():
    t2 = row_tableau(skew(P(2)))
    assert young_p(t2) == ga(2, (ident(2), 1), (transp(2, 1, 2), 1))
    assert young_q(t2) == ga(2, (ident(2), 1))
    t11 = row_tableau(skew(P(1, 1)))
    assert young_p(t11) == ga(2, (ident(2), 1))
    assert young_q(t11) == ga(2, (ident(2), 1), (transp(2, 1, 2), -1))


def test_young_p_q_hook():
    t = row_tableau(skew(P(2, 1)))
    assert young_p(t) == ga(3, (ident(3), 1), (transp(3, 1, 2), 1))
    assert young_q(t) == ga(3, (ident(3), 1), (transp(3, 1, 3), -1))
    with pytest.raises(SkewShapeError):
        young_p(row_tableau(skew(P(2, 1), P(1))))


def test_e_row_examples():
    assert e_row(row_tableau(skew(P(2)))) == ga(2, (ident(2), 1), (transp(2, 1, 2), 1))
    e = e_row(row_tableau(skew(P(2, 1))))
    expected = ga(3, (ident(3), 1), (transp(3, 1, 2), 1),
                  (transp(3, 1, 3), Fraction(-1, 2)), (transp(3, 2, 3), Fraction(-1, 2)),
                  ((2, 3, 1), Fraction(-1, 2)), ((3, 1, 2), Fraction(-1, 2)))
    assert e == expected
    with pytest.raises(WrongTableau):
        e_row(column_tableau(skew(P(2, 1))))


def test_e_col_examples():
    assert e_col(column_tableau(skew(P(1, 1)))) == ga(
        2, (ident(2), 1), (transp(2, 1, 2), -1))
    with pytest.raises(WrongTableau):
        e_col(row_tableau(skew(P(2, 1))))


def test_e_tableau_chain_reproduces_column_route():
    for lam in (P(2, 1), P(3, 1), P(2, 2), P(2, 1, 1)):
        ct = column_tableau(skew(lam))
        assert e_tableau(ct) == e_col(ct)


def test_e_tableau_identity_coefficient_and_chain_independence():
    for size in range(1, 6):
        for lam in partitions_of(size):
            for T in standard_tableaux(skew(lam)):
                e1 = e_tableau(T, "smallest")
                assert e1.identity_coeff() == 1
                assert e1 == e_tableau(T, "largest")


def test_chain_stays_standard():
    lam = P(3, 2, 1)
    for T in standard_tableaux(skew(lam)):
        cur = row_tableau(skew(lam))
        for k in chain_from_row(T):
            cur = cur.swap_adjacent(k)  # raises if non-standard
        assert cur == T


def _exchange_reference(terms, k, d):
    """d²·(s - 1/d)·e·(s - 1/d) for s = s_k, one term at a time."""
    out = {}
    for t, x in terms.items():
        st = list(t)
        st[t.index(k)], st[t.index(k + 1)] = k + 1, k
        ts, sts = list(t), st[:]
        ts[k - 1], ts[k] = t[k], t[k - 1]
        sts[k - 1], sts[k] = st[k], st[k - 1]
        for key, c in ((tuple(sts), d * d * x), (tuple(st), -d * x), (tuple(ts), -d * x), (t, x)):
            out[key] = out.get(key, 0) + c
    return GroupAlgebraElement(len(next(iter(terms))), out)


def _e_tableau_reference(T, greedy):
    """e_T from the row tableau's p·q·p along every exchange of the chain."""
    cur = row_tableau(T.shape)
    e = e_row(cur)
    for k in chain_from_row(T, greedy):
        d = cur.contents[k] - cur.contents[k - 1]
        cur = cur.swap_adjacent(k)
        e = _exchange_reference(e.terms, k, d).scaled(Fraction(1, e.den * (d * d - 1)))
    assert cur == T and e.identity_coeff() == 1
    return e


def _tableaux_up_to(size):
    return [T for n in range(1, size + 1) for lam in partitions_of(n)
            for T in standard_tableaux(skew(lam))]


def test_e_tableau_tree_build_matches_the_chain_reference():
    # each element is one exchange from its cached chain parent's; cold
    # builds (deepest chain first) and builds from cached parents (row
    # tableau first) must both equal the all-chain reference
    tabs = _tableaux_up_to(6)
    for greedy in ("smallest", "largest"):
        depth = {T: len(chain_from_row(T, greedy)) for T in tabs}
        ref = {T: _e_tableau_reference(T, greedy) for T in tabs}
        for reverse in (True, False):
            e_tableau.cache_clear()
            for T in sorted(tabs, key=depth.get, reverse=reverse):
                assert e_tableau(T, greedy) == ref[T], (T, greedy)
            # no tableau was built twice
            assert e_tableau.cache_info().misses == len(tabs)
    for T in tabs:
        if not T.is_row_tableau():
            k = chain_from_row(T)[-1]
            parent = symalg._diagonal_element(T.swap_adjacent(k), "smallest").terms
            shared = {key: key for key in parent}
            assert all(shared[key] is key for key in
                       symalg._diagonal_element(T, "smallest").terms if key in shared)


def test_e_skew_extract_matches_the_theta_route():
    for L in _tableaux_up_to(6):
        e = e_tableau(L)
        for m in range(L.n):
            th = theta(e, m)
            ident_m = ident(m)
            via_theta = GroupAlgebraElement(L.n - m, {
                tuple(v - m for v in s[m:]): c for s, c in th.terms.items()
                if s[:m] == ident_m}, th.den)
            assert e_skew_extract(L, m) == via_theta, (L, m)


def test_e_tableau_rejects_an_unknown_walk():
    T = column_tableau(skew(P(2, 1)))
    e_tableau.cache_clear()
    for bad in ("bogus", "Smallest", None):
        with pytest.raises(ValueError):
            e_tableau(T, bad)
        with pytest.raises(ValueError):
            chain_from_row(T, bad)
    assert e_tableau.cache_info().currsize == 0


def test_e_tableau_cache_is_bounded_and_read_only():
    assert e_tableau.cache_info().maxsize is not None
    lam = P(3, 2, 1)
    child = column_tableau(skew(lam))
    parent = child.swap_adjacent(chain_from_row(child)[-1])
    e_tableau.cache_clear()
    got = e_tableau(parent)
    got.terms[ident(6)] += 5
    got.terms[(6, 5, 4, 3, 2, 1)] = 1
    got.den = 7
    e_tableau(parent).terms.clear()
    # the child is built from the cached parent after those writes
    assert e_tableau(child) == _e_tableau_reference(child, "smallest")
    assert e_tableau(parent) == _e_tableau_reference(parent, "smallest")
    for m in range(lam.size):
        assert e_skew_extract(parent, m).identity_coeff() == 1


def test_scaled_idempotency():
    for size in range(1, 6):
        for lam in partitions_of(size):
            scalar = Fraction(_fact(size), dim_sym_irrep(lam))
            for T in standard_tableaux(skew(lam)):
                e = e_tableau(T)
                assert e * e == e.scaled(scalar)


def _fact(n):
    out = 1
    for i in range(2, n + 1):
        out *= i
    return out


# --- fusion ------------------------------------------------------------------


def test_fusion_single_row_and_column():
    assert fusion_e_skew(row_tableau(skew(P(2))), "row") == e_row(row_tableau(skew(P(2))))
    t11 = row_tableau(skew(P(1, 1)))
    assert fusion_e_skew(t11, "column") == ga(2, (ident(2), 1), (transp(2, 1, 2), -1))


def test_fusion_hook_row_mode_expansion():
    t = row_tableau(skew(P(2, 1)))
    assert fusion_e_skew(t, "row") == e_row(t)


def test_fusion_route_independence():
    for size in range(1, 6):
        for lam in partitions_of(size):
            for T in standard_tableaux(skew(lam)):
                e = e_tableau(T)
                assert fusion_e_skew(T, "row") == e
                assert fusion_e_skew(T, "column") == e


def test_fusion_factor_relations():
    # braid and commutation relations of the two-index factors, sampled
    rng = random.Random(5)

    def factor(n, i, j, x, y):
        return GroupAlgebraElement(n, {
            ident(n): Fraction(1),
            transp(n, i, j): Fraction(-1) / (x - y),
        })

    for _ in range(3):
        x, y, z, w = (Fraction(rng.randint(1, 60), rng.randint(1, 4)) for _ in range(4))
        if len({x, y, z, w}) < 4:
            continue
        lhs = factor(3, 1, 2, x, y) * factor(3, 1, 3, x, z) * factor(3, 2, 3, y, z)
        rhs = factor(3, 2, 3, y, z) * factor(3, 1, 3, x, z) * factor(3, 1, 2, x, y)
        assert lhs == rhs
        lhs4 = factor(4, 1, 2, x, y) * factor(4, 3, 4, z, w)
        rhs4 = factor(4, 3, 4, z, w) * factor(4, 1, 2, x, y)
        assert lhs4 == rhs4


def test_fusion_limit_is_line_independent():
    # regularity makes the diagonal value independent of which injective
    # substitution line the constrained variables follow
    shapes = [P(2, 2), P(3, 1)] + [lam for lam in partitions_of(5)
                                   if len(lam.parts) <= 4 and lam.parts[0] <= 4]
    for lam in shapes:
        for T in standard_tableaux(skew(lam)):
            e = e_tableau(T)
            for mults in ([7, 2, 11, 3], [1, 10, 100, 1000]):
                for groups in (T.rows(), T.columns()):
                    slopes = [mults[g - 1] for g in groups]
                    assert _fusion_limit(T.n, T.contents, slopes) == e


def test_fusion_engine_matches_rf_reference():
    # the truncated integer engine against the product over sympy's QQ(ε),
    # on every standard tableau of at most four cells, skew included
    checked = 0
    for outer in range(1, 7):
        for lam in partitions_of(outer):
            for inner in range(max(0, outer - 4), outer):
                for mu in filter(lam.contains, partitions_of(inner)):
                    for T in standard_tableaux(skew(lam, mu)):
                        for mode in ("row", "column"):
                            assert fusion_e_skew(T, mode) == qq_fusion_e_skew(T, mode)
                            checked += 1
    assert checked > 600


def test_sympy_oracle_raises_on_a_pole():
    # 1 - (1 2)/(-ε) has a pole at ε = 0, for the oracle as for the engine
    with pytest.raises(ZeroDivisionError):
        qq_fusion_limit(2, (0, 0), (1, 2))
    with pytest.raises(PoleAtLimit):
        _fusion_limit(2, (0, 0), (1, 2))


# --- theta and skew elements -------------------------------------------------


def test_theta_examples():
    a = ga(3, (ident(3), 1), (transp(3, 1, 2), 1), (transp(3, 1, 3), 1))
    assert theta(a, 1) == ga(3, (ident(3), 1))
    e = e_row(row_tableau(skew(P(2, 1))))
    assert theta(e, 1) == ga(3, (ident(3), 1), (transp(3, 2, 3), Fraction(-1, 2)))
    assert theta(a, 0) == a


def test_e_skew_extract_examples():
    rt = row_tableau(skew(P(2, 1)))
    assert e_skew_extract(rt, 1) == ga(2, (ident(2), 1), (transp(2, 1, 2), Fraction(-1, 2)))
    assert e_skew_extract(rt, 0) == e_tableau(rt)
    rt2 = row_tableau(skew(P(2)))
    assert e_skew_extract(rt2, 1) == ga(1, (ident(1), 1))


def test_extract_factorization_identity():
    # theta_m(e) must equal (inner element)·(embedded skew element) exactly
    for lam in (P(2, 1), P(2, 2), P(3, 1)):
        for T in standard_tableaux(skew(lam)):
            for m in range(lam.size):
                ups = inner_tableau_of(T, m)
                lhs = theta(e_tableau(T), m)
                rhs = _embed_inner(ups, T.n) * iota(e_skew_extract(T, m), m)
                assert lhs == rhs


def _embed_inner(ups, n):
    e = e_tableau(ups)
    return GroupAlgebraElement(n, {tuple(s) + tuple(range(len(s) + 1, n + 1)): e.coeff(s)
                                   for s in e.terms})


def test_fusion_e_skew_examples():
    sk = skew(P(2, 1), P(1))
    tabs = standard_tableaux(sk)
    by_contents = {t.contents: t for t in tabs}
    t = by_contents[(1, -1)]
    assert fusion_e_skew(t, "row") == ga(2, (ident(2), 1), (transp(2, 1, 2), Fraction(-1, 2)))
    single = row_tableau(skew(P(1)))
    assert fusion_e_skew(single, "row") == ga(1, (ident(1), 1))


def test_skew_routes_agree_and_inner_choice_is_irrelevant():
    for lam in (P(2, 2), P(3, 1), P(2, 1)):
        for m in range(1, lam.size):
            for mu in filter(lam.contains, partitions_of(m)):
                sk = skew(lam, mu)
                if sk.n == 0:
                    continue
                for O in standard_tableaux(sk):
                    row_route = fusion_e_skew(O, "row")
                    assert row_route == fusion_e_skew(O, "column")
                    for U in standard_tableaux(skew(mu)):
                        L = extend_tableau(O, U)
                        assert e_skew_extract(L, m) == row_route


# --- divisibility through the regular representation -------------------------


def _left_mult_matrix(elem):
    """Matrix of left multiplication on the group algebra."""
    import itertools

    n = elem.n
    basis = [tuple(p) for p in itertools.permutations(range(1, n + 1))]
    index = {p: i for i, p in enumerate(basis)}
    mat = []
    for g in basis:
        unit = GroupAlgebraElement(n, {g: Fraction(1)})
        prod = elem * unit
        row = [Fraction(0)] * len(basis)
        for s in prod.terms:
            row[index[s]] = prod.coeff(s)
        mat.append(row)
    # rows indexed by result basis element: build as matrix rows of L(elem)
    return [[mat[j][i] for j in range(len(basis))] for i in range(len(basis))]


def test_skew_element_divides_full_element():
    for lam, m in ((P(2, 1), 1), (P(2, 2), 2), (P(3, 1), 1)):
        for T in standard_tableaux(skew(lam)):
            e_full = e_tableau(T)
            e_sub = iota(e_skew_extract(T, m), m)
            rows_full = _left_mult_matrix(e_full)
            rows_sub = _left_mult_matrix(e_sub)
            dim = len(rows_full)
            assert qq_rank(rows_sub + rows_full, dim) == qq_rank(rows_sub, dim)  # row-space containment


# --- S_n by rank ---------------------------------------------------------------


def test_rank_tables_match_the_tuple_operations():
    # the rank order is itertools' lexicographic order; a position swap is
    # τ∘(i j) and a value swap is (k k+1)∘τ, both read back as tuples
    for n in range(7):
        perms = list(itertools.permutations(range(1, n + 1)))
        assert list(symalg._perms(n)) == perms and perms[0] == ident(n)
        assert symalg._rank(n) == {s: r for r, s in enumerate(perms)}
        inv = symalg._inverse_ranks(n)
        assert all(compose(perms[inv[r]], s) == ident(n) for r, s in enumerate(perms))
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                swap = transp(n, i, j)
                assert [perms[r] for r in symalg._position_swap(n, i, j)] == \
                    [compose(s, swap) for s in perms]
        for k in range(1, n):
            swap = transp(n, k, k + 1)
            left, right, both = symalg._exchange_tables(n, k)
            assert [perms[r] for r in left] == [compose(swap, s) for s in perms]
            assert [perms[r] for r in right] == [compose(s, swap) for s in perms]
            assert [perms[r] for r in both] == [compose(compose(swap, s), swap) for s in perms]


def test_permutations_fixing_a_prefix_come_first():
    # e_skew_extract reads the first (n - m)! ranks: they fix 1..m, and
    # their tails shifted down by m are S_{n-m} in its own order
    for n in range(1, 7):
        perms = symalg._perms(n)
        for m in range(n):
            fixing = [s for s in perms if s[:m] == ident(m)]
            assert list(perms[:math.factorial(n - m)]) == fixing
            assert [tuple(v - m for v in s[m:]) for s in fixing] == list(symalg._perms(n - m))


def test_stabilizer_sums_and_row_element_match_their_definitions():
    # young_p/young_q against a filter of S_n, signed by Permutation.sign,
    # and e_row against the product p·q·p over λ1!·λ2!·…
    for n in range(7):
        for lam in partitions_of(n):
            tabs = standard_tableaux(skew(lam))
            for T in {tabs[0], tabs[-1], row_tableau(skew(lam)), column_tableau(skew(lam))}:
                rows, cols = T.rows(), T.columns()
                for build, blocks, signed in ((young_p, rows, False), (young_q, cols, True)):
                    want = {s: Permutation(s).sign() if signed else 1
                            for s in itertools.permutations(range(1, n + 1))
                            if all(blocks[v - 1] == blocks[i] for i, v in enumerate(s))}
                    assert build(T) == GroupAlgebraElement(n, want), (T, build)
            if lam.parts[:1] != (6,):  # p·p would take 720² products
                T = row_tableau(skew(lam))
                p, q = young_p(T), young_q(T)
                scale = Fraction(1, math.prod(map(math.factorial, lam.parts)))
                assert e_row(T) == (p * q * p).scaled(scale), lam
