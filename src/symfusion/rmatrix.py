"""Parameterized R-matrices and sampled verification of rational identities.

Every identity checked here has operator entries that are rational in
the parameters with a small documented degree bound (the number of
R-type factors on a side).  Evaluating both sides at degree_bound + 1
exact rational sample points off the pole locus therefore certifies the
identity; samples come from a seeded generator and the seed is recorded
in the check result.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction

from .fusion import FusionConfig, e_operator, f_operator_general
from .shapes import Partition, StandardTableau, row_tableau, skew, standard_tableaux
from .symalg import Permutation, SampleAtPole
from .tensorop import BilinearForm, SparseOperator, perm_op, q_op


@dataclass(frozen=True)
class ParamOperator:
    """Deterministic builder sample-point -> operator, with pole data."""

    builder: object
    arity: int
    pole_locus: object  # predicate on sample tuples
    degree_bound: int

    def at(self, point: tuple[Fraction, ...]) -> SparseOperator:
        if len(point) != self.arity:
            raise ValueError(f"expected {self.arity} parameters, got {len(point)}")
        if self.pole_locus(point):
            raise SampleAtPole(f"sample {point} lies on the pole locus")
        return self.builder(point)


@dataclass
class IdentityCheck:
    name: str
    statement: str
    degree_bound: int
    seed: int
    samples: list[tuple[Fraction, ...]] = field(default_factory=list)
    passed: bool = True
    witness: dict | None = None

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "paper_ref": self.statement,
            "degree_bound": self.degree_bound,
            "seed": self.seed,
            "samples": [[str(x) for x in pt] for pt in self.samples],
            "pass": self.passed,
            **({"witness": self.witness} if self.witness else {}),
        }


def sample_points(seed: int, arity: int, count: int, pole_pred) -> list[tuple[Fraction, ...]]:
    """Deterministic rational sample tuples, rejection-sampled off the poles."""
    rng = random.Random(seed)
    out: list[tuple[Fraction, ...]] = []
    seen = set()
    while len(out) < count:
        pt = tuple(Fraction(rng.randint(-48, 48), rng.randint(1, 5)) for _ in range(arity))
        if pt in seen or pole_pred(pt):
            continue
        seen.add(pt)
        out.append(pt)
    return out


def run_identity_check(name: str, statement: str, lhs: ParamOperator,
                       rhs: ParamOperator, seed: int,
                       samples=None) -> IdentityCheck:
    if lhs.arity != rhs.arity:
        raise ValueError("sides have different parameter arity")
    bound = max(lhs.degree_bound, rhs.degree_bound)
    check = IdentityCheck(name=name, statement=statement, degree_bound=bound, seed=seed)
    pole = lambda pt: lhs.pole_locus(pt) or rhs.pole_locus(pt)
    pts = samples if samples is not None else sample_points(seed, lhs.arity, bound + 1, pole)
    for pt in pts:
        check.samples.append(pt)
        a = lhs.at(pt)
        b = rhs.at(pt)
        if a != b:
            check.passed = False
            check.witness = _difference_witness(pt, a, b)
            break
    return check


def _difference_witness(pt, a: SparseOperator, b: SparseOperator) -> dict:
    diff = a - b
    cells = [(r, c) for r, cols in diff.rows.items() for c in cols]
    if not cells:  # equal values, but one side stores explicit zeros
        cells = [(r, c) for x, y in ((a, b), (b, a)) for r, cols in x.rows.items()
                 for c in cols if c not in y.rows.get(r, {})]
    r, c = min(cells, default=(None, None))
    return {"sample": [str(x) for x in pt], "row": r, "col": c,
            "lhs": str(a.entry(r, c)), "rhs": str(b.entry(r, c))}


# ---------------------------------------------------------------------------
# elementary operator factories (on the n-fold power of C^N)


def _pair_op(kind: str, i: int, j: int, n: int, N: int, form: BilinearForm | None):
    if kind == "P":
        return perm_op(Permutation.transposition(n, i, j), N)
    return q_op(i, j, form, n)


def R(i: int, j: int, N: int, n: int) -> "RFactory":
    return RFactory("P", i, j, N, n, None, 0)


def Rtilde(i: int, j: int, form: BilinearForm, n: int) -> "RFactory":
    return RFactory("Qplus", i, j, form.N, n, form, 0)


def Rbar(i: int, j: int, form: BilinearForm, n: int, M: int = 0) -> "RFactory":
    return RFactory("Qminus", i, j, form.N, n, form, form.N + M)


@dataclass(frozen=True)
class RFactory:
    """One exchange/contraction factor with symbolic (x, y) arguments.

    kind "P" is 1 - P_ij/(x - y); "Qplus" is 1 + Q_ij/(x + y);
    "Qminus" is 1 - Q_ij/(x + y + shift).
    """

    kind: str
    i: int
    j: int
    N: int
    n: int
    form: BilinearForm | None
    shift: int

    def at(self, x: Fraction, y: Fraction) -> SparseOperator:
        I = SparseOperator.identity(self.N, self.n)
        if self.kind == "P":
            den = x - y
            if den == 0:
                raise SampleAtPole(f"x - y = 0 at {(x, y)}")
            return I - _pair_op("P", self.i, self.j, self.n, self.N, None).scaled(1 / den)
        den = x + y + self.shift
        if den == 0:
            raise SampleAtPole(f"x + y + {self.shift} = 0 at {(x, y)}")
        Q = _pair_op("Q", self.i, self.j, self.n, self.N, self.form)
        if self.kind == "Qplus":
            return I + Q.scaled(1 / den)
        return I - Q.scaled(1 / den)


def _chain(ops: list[SparseOperator]) -> SparseOperator:
    out = ops[0]
    for op in ops[1:]:
        out = out * op
    return out


# ---------------------------------------------------------------------------
# the identity families


def check_yang_baxter_family(which: str, N: int, form: BilinearForm | None,
                             seed: int) -> IdentityCheck:
    """Three-slot braid identities for the exchange/contraction factors.

    which: "YB35" (plain), "tilde37", "bar38", "mixed385".
    """
    n = 3
    i, j, k = 1, 2, 3

    def build(sides):
        def f(pt):
            x, y, z = pt
            args = {"xy": (x, y), "xz": (x, z), "yz": (y, z)}
            return _chain([fac.at(*args[key]) for fac, key in sides])
        return f

    if which == "YB35":
        lhs_seq = [(R(i, j, N, n), "xy"), (R(i, k, N, n), "xz"), (R(j, k, N, n), "yz")]
        rhs_seq = [(R(j, k, N, n), "yz"), (R(i, k, N, n), "xz"), (R(i, j, N, n), "xy")]
        poles = lambda pt: pt[0] == pt[1] or pt[0] == pt[2] or pt[1] == pt[2]
    elif which == "tilde37":
        lhs_seq = [(Rtilde(i, k, form, n), "xz"), (Rtilde(i, j, form, n), "xy"),
                   (R(j, k, N, n), "yz")]
        rhs_seq = [(R(j, k, N, n), "yz"), (Rtilde(i, j, form, n), "xy"),
                   (Rtilde(i, k, form, n), "xz")]
        poles = lambda pt: pt[1] == pt[2] or pt[0] + pt[1] == 0 or pt[0] + pt[2] == 0
    elif which == "bar38":
        lhs_seq = [(Rbar(i, j, form, n), "xy"), (Rbar(i, k, form, n), "xz"),
                   (R(j, k, N, n), "yz")]
        rhs_seq = [(R(j, k, N, n), "yz"), (Rbar(i, k, form, n), "xz"),
                   (Rbar(i, j, form, n), "xy")]
        poles = lambda pt: (pt[1] == pt[2] or pt[0] + pt[1] + N == 0
                            or pt[0] + pt[2] + N == 0)
    elif which == "mixed385":
        lhs_seq = [(Rtilde(i, j, form, n), "xy"), (R(i, k, N, n), "xz"),
                   (Rbar(j, k, form, n), "yz")]
        rhs_seq = [(Rbar(j, k, form, n), "yz"), (R(i, k, N, n), "xz"),
                   (Rtilde(i, j, form, n), "xy")]
        poles = lambda pt: (pt[0] == pt[2] or pt[0] + pt[1] == 0
                            or pt[1] + pt[2] + N == 0)
    else:
        raise ValueError(f"unknown family member {which!r}")

    lhs = ParamOperator(build(lhs_seq), 3, poles, 3)
    rhs = ParamOperator(build(rhs_seq), 3, poles, 3)
    return run_identity_check(f"yang-baxter/{which}", "three-slot-braid-exchange",
                              lhs, rhs, seed)


def check_unitarity(which: str, N: int, form: BilinearForm | None,
                    seed: int) -> IdentityCheck:
    """Two-slot inversion identities: the exchange pair composes to the
    scalar 1 - 1/(x-y)^2, the contraction pair composes to 1."""
    n = 2

    if which == "RR":
        def lhs_b(pt):
            x, y = pt
            return R(1, 2, N, n).at(x, y) * R(2, 1, N, n).at(y, x)

        def rhs_b(pt):
            x, y = pt
            return SparseOperator.identity(N, n, Fraction(1) - 1 / (x - y) ** 2)

        poles = lambda pt: pt[0] == pt[1]
        statement = "exchange-pair-inversion"
    elif which == "tildebar":
        def lhs_b(pt):
            x, y = pt
            return Rtilde(1, 2, form, n).at(x, y) * Rbar(1, 2, form, n).at(x, y)

        def rhs_b(pt):
            return SparseOperator.identity(N, n)

        poles = lambda pt: pt[0] + pt[1] == 0 or pt[0] + pt[1] + N == 0
        statement = "contraction-pair-inversion"
    else:
        raise ValueError(f"unknown member {which!r}")
    lhs = ParamOperator(lhs_b, 2, poles, 2)
    rhs = ParamOperator(rhs_b, 2, poles, 2)
    return run_identity_check(f"unitarity/{which}", statement, lhs, rhs, seed)


def check_symmetry_flip(N: int, form: BilinearForm, seed: int) -> IdentityCheck:
    """The contraction factors are symmetric under swapping slots and
    arguments simultaneously."""
    n = 2

    def lhs_b(pt):
        x, y = pt
        return Rtilde(1, 2, form, n).at(x, y) * Rbar(1, 2, form, n).at(y, x)

    def rhs_b(pt):
        x, y = pt
        return Rtilde(2, 1, form, n).at(y, x) * Rbar(2, 1, form, n).at(x, y)

    poles = lambda pt: pt[0] + pt[1] == 0 or pt[0] + pt[1] + N == 0
    lhs = ParamOperator(lhs_b, 2, poles, 2)
    rhs = ParamOperator(rhs_b, 2, poles, 2)
    return run_identity_check("symmetry-flip", "contraction-factor-slot-symmetry",
                              lhs, rhs, seed)


def _T_string(x, zs, N, total, aux: int, quantum0: int, reverse=False, tilde=False,
              form=None):
    """Product of exchange factors R_{aux,q}(x, z_k) over the quantum slots."""
    ops = []
    ks = range(len(zs) - 1, -1, -1) if reverse else range(len(zs))
    for k in ks:
        fac = (Rtilde(aux, quantum0 + k, form, total) if tilde
               else R(aux, quantum0 + k, N, total))
        ops.append(fac.at(x, zs[k]))
    return _chain(ops)


def check_rtt(z_params: tuple[Fraction, ...], N: int, seed: int) -> IdentityCheck:
    """Exchange relation for the evaluation image of the generating matrix."""
    n = len(z_params)
    total = n + 2
    zs = [Fraction(z) for z in z_params]

    def lhs_b(pt):
        x, y = pt
        R12 = R(1, 2, N, total).at(x, y)
        T1 = _T_string(x, zs, N, total, aux=1, quantum0=3)
        T2 = _T_string(y, zs, N, total, aux=2, quantum0=3)
        return R12 * T1 * T2

    def rhs_b(pt):
        x, y = pt
        R12 = R(1, 2, N, total).at(x, y)
        T1 = _T_string(x, zs, N, total, aux=1, quantum0=3)
        T2 = _T_string(y, zs, N, total, aux=2, quantum0=3)
        return T2 * T1 * R12

    def poles(pt):
        x, y = pt
        return x == y or any(x == z or y == z for z in zs)

    bound = 2 * n + 1
    lhs = ParamOperator(lhs_b, 2, poles, bound)
    rhs = ParamOperator(rhs_b, 2, poles, bound)
    return run_identity_check(f"rtt/n{n}", "generating-matrix-exchange", lhs, rhs, seed)


def check_intertwiner_E(O: StandardTableau, N: int, z_shift: Fraction,
                        seed: int) -> IdentityCheck:
    """The symmetrizer times the order reversal intertwines the two
    evaluation strings with opposite parameter order."""
    n = O.n
    total = n + 1
    zs = [c + z_shift for c in O.contents]
    E = _lift_slot1(e_operator(O, N) * perm_op(Permutation.reversal(n), N), N)

    def lhs_b(pt):
        (x,) = pt
        return _T_string(x, zs, N, total, aux=1, quantum0=2) * E

    def rhs_b(pt):
        (x,) = pt
        return E * _T_string(x, zs[::-1], N, total, aux=1, quantum0=2)

    poles = lambda pt: any(pt[0] == z for z in zs)
    bound = n + 1
    lhs = ParamOperator(lhs_b, 1, poles, bound)
    rhs = ParamOperator(rhs_b, 1, poles, bound)
    return run_identity_check(f"intertwiner-E/{O}", "symmetrizer-evaluation-intertwiner",
                              lhs, rhs, seed)


def _lift_slot1(A: SparseOperator, N: int) -> SparseOperator:
    """Embed an operator on n slots as identity ⊗ A on 1 + n slots."""
    n = A.n
    dim = A.dim
    rows: dict[int, dict[int, Fraction]] = {}
    for a in range(N):
        base = a * dim
        for r, cols in A.rows.items():
            rows[base + r] = {base + c: v for c, v in cols.items()}
    return SparseOperator(N, n + 1, rows)


def check_intertwiner_F(cfg: FusionConfig, seed: int) -> IdentityCheck:
    """The two-parameter operator intertwines the twisted and plain
    evaluation strings built at the shifted contents d_k."""
    O = cfg.tableau
    n = O.n
    N = cfg.N
    total = n + 1
    half = Fraction(1, 2) if cfg.form_kind == "symmetric" else Fraction(-1, 2)
    ds = [c + Fraction(cfg.M, 2) - half for c in O.contents]
    form = cfg.form
    F = _lift_slot1(f_operator_general(cfg), N)

    def lhs_b(pt):
        (x,) = pt
        tilde = _T_string(x, ds, N, total, aux=1, quantum0=2, reverse=True,
                          tilde=True, form=form)
        plain = _T_string(x, ds, N, total, aux=1, quantum0=2)
        return tilde * plain * F

    def rhs_b(pt):
        (x,) = pt
        # slot k keeps its argument d_k; only the multiplication order flips
        plain_rev = _T_string(x, ds, N, total, aux=1, quantum0=2, reverse=True)
        tilde_fwd = _T_string(x, ds, N, total, aux=1, quantum0=2, tilde=True, form=form)
        return F * plain_rev * tilde_fwd

    poles = lambda pt: any(pt[0] == d or pt[0] + d == 0 for d in ds)
    bound = 2 * n
    lhs = ParamOperator(lhs_b, 1, poles, bound)
    rhs = ParamOperator(rhs_b, 1, poles, bound)
    return run_identity_check(f"intertwiner-F/{O}/{cfg.form_kind}/M{cfg.M}",
                              "twisted-intertwiner", lhs, rhs, seed)


def _S_image(x, zs, N, total, aux, quantum0, form) -> SparseOperator:
    tilde = _T_string(x, zs, N, total, aux=aux, quantum0=quantum0, reverse=True,
                      tilde=True, form=form)
    plain = _T_string(x, zs, N, total, aux=aux, quantum0=quantum0)
    return tilde * plain


def _S_image_twisted(x, zs, N, total, aux, quantum0, form) -> SparseOperator:
    plain = _T_string(x, zs, N, total, aux=aux, quantum0=quantum0, reverse=True)
    tilde = _T_string(x, zs, N, total, aux=aux, quantum0=quantum0, tilde=True, form=form)
    return plain * tilde


def check_reflection_image(z_params: tuple[Fraction, ...], N: int,
                           form: BilinearForm, seed: int) -> IdentityCheck:
    """Reflection relation for the image of the coideal generating matrix."""
    n = len(z_params)
    total = n + 2
    zs = [Fraction(z) for z in z_params]

    def lhs_b(pt):
        x, y = pt
        R12 = R(1, 2, N, total).at(x, y)
        Rt12 = Rtilde(1, 2, form, total).at(x, y)
        S1 = _S_image(x, zs, N, total, 1, 3, form)
        S2 = _S_image(y, zs, N, total, 2, 3, form)
        return R12 * S1 * Rt12 * S2

    def rhs_b(pt):
        x, y = pt
        R12 = R(1, 2, N, total).at(x, y)
        Rt12 = Rtilde(1, 2, form, total).at(x, y)
        S1 = _S_image(x, zs, N, total, 1, 3, form)
        S2 = _S_image(y, zs, N, total, 2, 3, form)
        return S2 * Rt12 * S1 * R12

    def poles(pt):
        x, y = pt
        bad = x == y or x + y == 0
        for z in zs:
            bad = bad or x == z or y == z or x + z == 0 or y + z == 0
        return bad

    bound = 4 * n + 2
    lhs = ParamOperator(lhs_b, 2, poles, bound)
    rhs = ParamOperator(rhs_b, 2, poles, bound)
    return run_identity_check(f"reflection/n{n}/{form.kind}",
                              "coideal-image-reflection", lhs, rhs, seed)


def check_image_coincidence(z: Fraction, N: int, form: BilinearForm,
                            seed: int) -> IdentityCheck:
    """For one quantum slot, the plain and twisted realizations of the
    coideal image coincide."""
    total = 2

    def lhs_b(pt):
        (x,) = pt
        return _S_image(x, [z], N, total, 1, 2, form)

    def rhs_b(pt):
        (x,) = pt
        return _S_image_twisted(x, [z], N, total, 1, 2, form)

    poles = lambda pt: pt[0] == z or pt[0] + z == 0
    lhs = ParamOperator(lhs_b, 1, poles, 2)
    rhs = ParamOperator(rhs_b, 1, poles, 2)
    return run_identity_check(f"image-coincidence/z{z}", "single-slot-image-coincidence",
                              lhs, rhs, seed)


def check_eval_consistency_E(L: StandardTableau, N: int, seed: int) -> IdentityCheck:
    """The evaluation string collapses on the symmetrizer to the one-term
    sum of exchanges with the extra strand."""
    l = L.n
    total = l + 1
    cs = [Fraction(c) for c in L.contents]
    E = _lift_slot1(e_operator(L, N), N)

    def lhs_b(pt):
        (x,) = pt
        return _T_string(x, cs, N, total, aux=1, quantum0=2) * E

    def rhs_b(pt):
        (x,) = pt
        acc = SparseOperator.identity(N, total)
        for k in range(l):
            P = perm_op(Permutation.transposition(total, 1, k + 2), N)
            acc = acc - P.scaled(1 / pt[0])
        return acc * E

    poles = lambda pt: pt[0] == 0 or any(pt[0] == c for c in cs)
    bound = l + 1
    lhs = ParamOperator(lhs_b, 1, poles, bound)
    rhs = ParamOperator(rhs_b, 1, poles, bound)
    return run_identity_check(f"eval-consistency-E/{L}", "symmetrizer-evaluation-collapse",
                              lhs, rhs, seed)


def check_eval_consistency_F(cfg: FusionConfig, seed: int) -> IdentityCheck:
    """The twisted evaluation string collapses on the two-parameter
    operator to a single sum of exchange and contraction terms."""
    if cfg.M != 0 or cfg.tableau.shape.is_skew:
        raise ValueError("collapse statement needs M = 0 and a non-skew tableau")
    L = cfg.tableau
    l = L.n
    N = cfg.N
    total = l + 1
    half = Fraction(1, 2) if cfg.form_kind == "symmetric" else Fraction(-1, 2)
    ds = [c - half for c in L.contents]
    form = cfg.form
    F = _lift_slot1(f_operator_general(cfg), N)

    def lhs_b(pt):
        (x,) = pt
        tilde = _T_string(x, ds, N, total, aux=1, quantum0=2, reverse=True,
                          tilde=True, form=form)
        plain = _T_string(x, ds, N, total, aux=1, quantum0=2)
        return tilde * plain * F

    def rhs_b(pt):
        (x,) = pt
        acc = SparseOperator.identity(N, total)
        for k in range(l):
            P = perm_op(Permutation.transposition(total, 1, k + 2), N)
            Q = q_op(1, k + 2, form, total)
            acc = acc - (P - Q).scaled(1 / (pt[0] + half))
        return acc * F

    poles = lambda pt: pt[0] + half == 0 or any(pt[0] == d or pt[0] + d == 0 for d in ds)
    bound = 2 * l
    lhs = ParamOperator(lhs_b, 1, poles, bound)
    rhs = ParamOperator(rhs_b, 1, poles, bound)
    return run_identity_check(f"eval-consistency-F/{L}/{cfg.form_kind}",
                              "twisted-evaluation-collapse", lhs, rhs, seed)


# ---------------------------------------------------------------------------
# scalar identity


def g_mu(mu: Partition, x: Fraction) -> Fraction:
    """The normalizing rational function attached to the inner shape."""
    x = Fraction(x)
    out = Fraction(1)
    for k, part in enumerate(mu.parts, start=1):
        num = (x - part + k) * (x + k - 1)
        den = (x - part + k - 1) * (x + k)
        if den == 0:
            raise SampleAtPole(f"x = {x} is a pole of the normalizing function")
        out *= Fraction(num, den)
    return out


def h_of(mu: Partition, x: Fraction, tableau: StandardTableau | None = None) -> Fraction:
    """Product of ((x - c)^2 - 1)/(x - c)^2 over the contents of a tableau
    of the shape; independent of the tableau choice."""
    x = Fraction(x)
    if tableau is None:
        tableau = row_tableau(skew(mu))
    out = Fraction(1)
    for c in tableau.contents:
        d = (x - c) ** 2
        if d == 0:
            raise SampleAtPole(f"x = {x} is a content of the shape")
        out *= (d - 1) / d
    return out


def check_lemma44(mu: Partition, seed: int, count: int = 5) -> IdentityCheck:
    """g·h = 1 at sampled points, with h computed from two tableaux."""
    check = IdentityCheck(name=f"normalize/{mu}", statement="normalizing-product-inverse",
                          degree_bound=2 * mu.size, seed=seed)
    tabs = standard_tableaux(skew(mu))
    second = tabs[-1] if len(tabs) > 1 else tabs[0] if tabs else None

    def pole(pt):
        x = pt[0]
        try:
            g_mu(mu, x)
            h_of(mu, x)
            return False
        except SampleAtPole:
            return True

    for pt in sample_points(seed, 1, count, pole):
        x = pt[0]
        check.samples.append(pt)
        g = g_mu(mu, x)
        h1 = h_of(mu, x)
        ok = g * h1 == 1
        if second is not None:
            h2 = h_of(mu, x, second)
            ok = ok and h1 == h2
        if not ok:
            check.passed = False
            check.witness = {"x": str(x), "g": str(g), "h": str(h1)}
            break
    return check
