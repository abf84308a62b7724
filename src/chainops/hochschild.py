"""Hochschild cochains of a finite-rank associative algebra: differential,
cup product, circle product and bracket, cohomology, and certificates for
the graded-commutative/Lie structure on cohomology.

Coefficients are the integers or a prime field Z/p.  Cochains in degree p
are multilinear maps R^{tensor p} -> R stored as coefficient tables on basis
tuples; all identities are verified by exhaustive evaluation on basis
tuples, and the cohomology-level statements come with explicit cobounding
cochains found by linear algebra, never asserted symbolically.
"""

import json
import random
from dataclasses import dataclass, field
from functools import cached_property
from itertools import product

from . import intmat
from .intmat import IntMatrix


class InfeasibleSize(Exception):
    pass


class InvalidAlgebra(AssertionError):
    """Structure constants that are malformed, not unital or not
    associative.  Raised explicitly, so the checks also run under
    ``python -O``; an AssertionError, as the checks used to be asserts."""


class FiniteRankAlgebra:
    """Associative unital algebra by structure constants over Z or Z/p."""

    def __init__(self, structure, unit, prime=0, name="R"):
        self.n = n = len(structure)
        self.prime = prime
        self.name = name
        if not (prime == 0 or prime >= 2):
            raise InvalidAlgebra("the prime must be 0 or at least 2")
        if len(unit) != n or any(len(row) != n or any(len(v) != n for v in row)
                                 for row in structure):
            raise InvalidAlgebra("structure constants must be a rank x rank "
                                 "table of vectors of length rank, and the "
                                 "unit a vector of length rank")
        self.structure = tuple(
            tuple(tuple(self._red(c) for c in structure[i][j])
                  for j in range(n))
            for i in range(n))
        self.unit = tuple(self._red(c) for c in unit)
        self._check_axioms()
        # sparse structure constants: (i, j) -> [(t, c)] with e_i e_j having
        # coefficient c at e_t, and their preimages t -> [(i, j, c)]
        self.products = tuple(
            tuple(tuple((t, c) for t, c in enumerate(v) if c) for v in row)
            for row in self.structure)
        preimages = [[] for _ in range(n)]
        for i in range(n):
            for j in range(n):
                for t, c in self.products[i][j]:
                    preimages[t].append((i, j, c))
        self.preimages = tuple(tuple(pre) for pre in preimages)

    def _red(self, c):
        return c % self.prime if self.prime else int(c)

    def reduce_vec(self, v):
        return tuple(self._red(c) for c in v)

    def basis_product(self, i, j):
        return self.structure[i][j]

    def mult(self, u, v):
        out = [0] * self.n
        for i, a in enumerate(u):
            if not a:
                continue
            for j, b in enumerate(v):
                if not b:
                    continue
                for k, c in enumerate(self.structure[i][j]):
                    out[k] += a * b * c
        return self.reduce_vec(out)

    def _check_axioms(self):
        basis = [tuple(1 if t == i else 0 for t in range(self.n))
                 for i in range(self.n)]
        for x in basis:
            if self.mult(self.unit, x) != x:
                raise InvalidAlgebra("left unit fails")
            if self.mult(x, self.unit) != x:
                raise InvalidAlgebra("right unit fails")
            for y in basis:
                for z in basis:
                    if self.mult(self.mult(x, y), z) != \
                            self.mult(x, self.mult(y, z)):
                        raise InvalidAlgebra("associativity fails")

    def to_json(self):
        return json.dumps({
            "ring": "Z" if not self.prime else "Zp",
            "p": self.prime, "rank": self.n,
            "structure": [[list(v) for v in row] for row in self.structure],
            "unit": list(self.unit),
        }, sort_keys=True)

    @classmethod
    def from_json(cls, text):
        obj = json.loads(text)
        if not isinstance(obj, dict) or not {"structure", "unit"} <= set(obj):
            raise InvalidAlgebra('an algebra is a JSON object with '
                                 '"structure" and "unit"')
        prime = obj.get("p", 0) if obj.get("ring") != "Z" else 0
        return cls(obj["structure"], obj["unit"], prime)


def integers():
    return FiniteRankAlgebra([[(1,)]], (1,), 0, name="Z")


def dual_numbers_mod2():
    """Z/2[x]/(x^2), basis (1, x)."""
    s = [[(1, 0), (0, 1)], [(0, 1), (0, 0)]]
    return FiniteRankAlgebra(s, (1, 0), 2, name="Z2[x]/(x^2)")


def upper_triangular_mod2():
    """2x2 upper triangular matrices over Z/2, basis (e11, e12, e22)."""
    z = (0, 0, 0)
    s = [
        [(1, 0, 0), (0, 1, 0), z],
        [z, z, (0, 1, 0)],
        [z, z, (0, 0, 1)],
    ]
    return FiniteRankAlgebra(s, (1, 0, 1), 2, name="UT2(Z/2)")


def matrix2_mod2():
    """Full 2x2 matrix algebra over Z/2, basis (e11, e12, e21, e22)."""
    z = (0, 0, 0, 0)
    e11, e12, e21, e22 = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
    s = [
        [e11, e12, z, z],
        [z, z, e11, e12],
        [e21, e22, z, z],
        [z, z, e21, e22],
    ]
    return FiniteRankAlgebra(s, (1, 0, 0, 1), 2, name="M2(Z/2)")


@dataclass(frozen=True)
class HochschildCochain:
    """Multilinear map R^{tensor p} -> R as a table on basis tuples.  The
    sorted table is the canonical form (equality, hashing, reports);
    ``value`` reads a dict built from it on first use."""
    algebra: FiniteRankAlgebra
    degree: int
    table: tuple    # sorted ((index tuple, value vector), ...), zeros dropped

    @classmethod
    def make(cls, algebra, degree, mapping):
        table = []
        for key, vec in mapping.items():
            vec = algebra.reduce_vec(vec)
            if any(vec):
                table.append((tuple(key), vec))
        return cls(algebra, degree, tuple(sorted(table)))

    @cached_property
    def _lookup(self):
        return dict(self.table)

    def value(self, key):
        v = self._lookup.get(key)
        return v if v is not None else (0,) * self.algebra.n

    def as_dict(self):
        return dict(self.table)

    def __add__(self, other):
        assert self.degree == other.degree
        out = {k: list(v) for k, v in self.table}
        for k, v in other.table:
            cur = out.setdefault(k, [0] * self.algebra.n)
            for t in range(len(v)):
                cur[t] += v[t]
        return HochschildCochain.make(self.algebra, self.degree, out)

    def scale(self, c):
        return HochschildCochain.make(
            self.algebra, self.degree,
            {k: tuple(c * x for x in v) for k, v in self.table})

    def is_zero(self):
        return not self.table


def basis_cochains(R, p):
    """All basis cochains of degree p: one basis tuple to one basis vector."""
    out = []
    for key in product(range(R.n), repeat=p):
        for t in range(R.n):
            vec = tuple(1 if s == t else 0 for s in range(R.n))
            out.append(HochschildCochain.make(R, p, {key: vec}))
    return out


def unit_cochain(R):
    return HochschildCochain.make(R, 0, {(): R.unit})


def hochschild_differential(rho):
    """The bar differential: outer multiplications on both ends and the
    alternating inner multiplications.  Each entry (k, v) of rho's table is
    pushed forward to the keys whose terms read it: (a,) + k, k + (a,), and
    k with k[i-1] replaced by a preimage (a, b) under the multiplication, so
    the cost is linear in the support of rho."""
    R = rho.algebra
    p = rho.degree
    n = R.n
    products = R.products
    out = {}

    def add(key, terms, sign):
        cur = out.get(key)
        if cur is None:
            cur = out[key] = [0] * n
        for s, c in terms:
            cur[s] += sign * c

    right_sign = -1 if (p + 1) % 2 else 1
    for k, v in rho.table:
        support = [(t, x) for t, x in enumerate(v) if x]
        for a in range(n):
            # r_1 * rho(r_2 ... r_{p+1}) with r_1 = e_a
            add((a,) + k, [(s, c * x) for t, x in support
                           for s, c in products[a][t]], 1)
            # rho(r_1 ... r_p) * r_{p+1} with r_{p+1} = e_a
            add(k + (a,), [(s, c * x) for t, x in support
                           for s, c in products[t][a]], right_sign)
        # inner multiplications r_i r_{i+1} = ... + c e_{k[i-1]}
        for i in range(1, p + 1):
            head, tail = k[:i - 1], k[i:]
            sign = -1 if i % 2 else 1
            for a, b, c in R.preimages[k[i - 1]]:
                add(head + (a, b) + tail, [(t, c * x) for t, x in support], sign)
    return HochschildCochain.make(R, p + 1, out)


def hochschild_cup(r1, r2):
    R = r1.algebra
    p, q = r1.degree, r2.degree
    out = {}
    for k1, v1 in r1.table:
        for k2, v2 in r2.table:
            key = k1 + k2
            prod = R.mult(v1, v2)
            if any(prod):
                cur = out.setdefault(key, [0] * R.n)
                for t in range(R.n):
                    cur[t] += prod[t]
    return HochschildCochain.make(R, p + q, out)


def circle_product(r1, r2):
    """Sum of single insertions of r2 into the slots of r1, with the usual
    alternating sign per slot: each entry of r1 meets, in each slot i, the
    entries of r2 whose value has a coordinate at r1's index there."""
    R = r1.algebra
    p, q = r1.degree, r2.degree
    n = R.n
    # t -> [(k2, c)]: r2(k2) has coefficient c at e_t
    inserts = [[] for _ in range(n)]
    for k2, v2 in r2.table:
        for t, c in enumerate(v2):
            if c:
                inserts[t].append((k2, c))
    out = {}
    for k1, v1 in r1.table:
        for i in range(1, p + 1):
            head, tail = k1[:i - 1], k1[i:]
            sign = -1 if ((q - 1) * (i - 1)) % 2 else 1
            for k2, c in inserts[k1[i - 1]]:
                key = head + k2 + tail
                cur = out.get(key)
                if cur is None:
                    cur = out[key] = [0] * n
                f = sign * c
                for s, x in enumerate(v1):
                    cur[s] += f * x
    return HochschildCochain.make(R, p + q - 1, out)


def gerstenhaber_bracket(r1, r2):
    """[r1, r2] = r1 o r2 - (-1)^((p-1)(q-1)) r2 o r1."""
    p, q = r1.degree, r2.degree
    assert p + q >= 1
    sign = -1 if ((p - 1) * (q - 1)) % 2 else 1
    return circle_product(r1, r2) + circle_product(r2, r1).scale(-sign)


# -- linear algebra over the coefficients --------------------------------------

def _cochain_dim(R, p):
    return R.n ** p * R.n


def _entries(rho):
    """(coordinate, value) for the nonzero coordinates of rho, coordinates
    ordered as the keys in ``product`` order, then the basis of R."""
    n = rho.algebra.n
    for key, vec in rho.table:
        base = 0
        for a in key:
            base = base * n + a
        base *= n
        for s, x in enumerate(vec):
            if x:
                yield base + s, x


def _cochain_column(rho):
    """rho as a one-column IntMatrix in the coordinates of ``_entries``."""
    return IntMatrix(_cochain_dim(rho.algebra, rho.degree), 1,
                     {(i, 0): x for i, x in _entries(rho)})


def _vec_to_cochain(R, p, vec):
    keys = list(product(range(R.n), repeat=p))
    out = {}
    for idx, key in enumerate(keys):
        out[key] = tuple(vec[idx * R.n:(idx + 1) * R.n])
    return HochschildCochain.make(R, p, out)


def differential_matrix(R, p):
    """Matrix of d : C^p -> C^{p+1} on basis cochains (columns)."""
    data = {}
    for j, rho in enumerate(basis_cochains(R, p)):
        for i, x in _entries(hochschild_differential(rho)):
            data[(i, j)] = x
    return IntMatrix(_cochain_dim(R, p + 1), _cochain_dim(R, p), data)


def modp_eliminate(m, p):
    """Rank of m over Z/p.  Only the benchmark tracer (perfbench/tracing.py)
    still looks this name up; drop it with the next benchmark change."""
    return intmat.rank(m, p)


def hochschild_cohomology(R, p_max, guard=6561):
    """Per-degree cohomology of the truncated complex: (betti, torsion) over
    the integers, (dimension, ()) over Z/p.  Degree p_max uses the
    differential into degree p_max + 1, the largest space built."""
    if _cochain_dim(R, p_max + 1) > guard:
        raise InfeasibleSize(
            "degree %d cochains of %s have dimension %d, above the limit %d"
            % (p_max + 1, R.name, _cochain_dim(R, p_max + 1), guard))
    inv = {p: intmat.snf_diagonal(differential_matrix(R, p), R.prime)
           for p in range(p_max + 1)}
    out = {}
    for p in range(p_max + 1):
        inv_in = inv[p - 1] if p >= 1 else []
        out[p] = (_cochain_dim(R, p) - len(inv[p]) - len(inv_in),
                  tuple(f for f in inv_in if f > 1))
    return out


# -- cohomology-level structure -------------------------------------------------

@dataclass
class Certificate:
    kind: str
    degrees: tuple
    cobounding: object      # HochschildCochain or None when strict zero
    strict: bool


@dataclass
class GerstenhaberReport:
    algebra: str
    p_max: int
    items: dict = field(default_factory=dict)
    certificates: list = field(default_factory=list)

    def item(self, name):
        return self.items.setdefault(name, [0, 0])

    def record(self, name, ok):
        it = self.item(name)
        it[0] += 1
        if not ok:
            it[1] += 1

    @property
    def passed(self):
        return all(bad == 0 for _, bad in self.items.values())

    def to_dict(self):
        return {
            "algebra": self.algebra, "p_max": self.p_max,
            "passed": self.passed,
            "items": {k: {"instances": a, "failures": b}
                      for k, (a, b) in sorted(self.items.items())},
            "certificates": len(self.certificates),
        }


def cohomology_representatives(R, p):
    """Representative cocycles for a basis of H^p over Z/p: the kernel
    vectors of d, in order, that are independent of the coboundaries and
    of the representatives taken before them."""
    assert R.prime, "representatives implemented over prime fields"
    kernel = intmat.kernel_basis(differential_matrix(R, p), R.prime)
    span = differential_matrix(R, p - 1) if p else IntMatrix(kernel.rows, 0)
    rank = intmat.rank(span, R.prime)
    wanted = kernel.cols - rank     # dim H^p: the coboundaries are cocycles
    reps = []
    for j in range(kernel.cols):
        if len(reps) == wanted:
            break
        test = span.stack_cols(kernel.submatrix_cols([j]))
        rk = intmat.rank(test, R.prime)
        if rk > rank:
            span, rank = test, rk
            reps.append(_vec_to_cochain(R, p, kernel.column(j)))
    return reps


def _cobound(R, target):
    """Explicit cochain zeta with d(zeta) = target, or None."""
    p = target.degree
    x = intmat.solve(differential_matrix(R, p - 1), _cochain_column(target),
                     R.prime)
    if x is None:
        return None
    return _vec_to_cochain(R, p - 1, x.column(0))


def gerstenhaber_report(R, p_max=3, pair_cap=2):
    """Cochain-level identities (exhaustive on basis cochains) plus the
    cohomology-level Gerstenhaber structure with explicit certificates."""
    rep = GerstenhaberReport(R.name, p_max)

    # d o d = 0 and the Leibniz rule, exhaustively
    for p in range(p_max + 1):
        for rho in basis_cochains(R, p):
            rep.record("differential squares to zero",
                       hochschild_differential(hochschild_differential(rho)).is_zero())
    for p in range(0, min(2, p_max) + 1):
        for q in range(0, min(2, p_max - p) + 1):
            for r1 in basis_cochains(R, p):
                for r2 in basis_cochains(R, q):
                    lhs = hochschild_differential(hochschild_cup(r1, r2))
                    rhs = hochschild_cup(hochschild_differential(r1), r2) + \
                        hochschild_cup(r1, hochschild_differential(r2)).scale(
                            -1 if p % 2 else 1)
                    rep.record("Leibniz rule for cup", (lhs + rhs.scale(-1)).is_zero())

    # cup associativity and unit, exhaustively in low degrees
    e = unit_cochain(R)
    for p in range(0, min(1, p_max) + 1):
        for q in range(0, min(1, p_max) + 1):
            for r in range(0, min(1, p_max) + 1):
                for r1 in basis_cochains(R, p):
                    for r2 in basis_cochains(R, q):
                        for r3 in basis_cochains(R, r):
                            lhs = hochschild_cup(hochschild_cup(r1, r2), r3)
                            rhs = hochschild_cup(r1, hochschild_cup(r2, r3))
                            rep.record("cup associativity",
                                       (lhs + rhs.scale(-1)).is_zero())
    for p in range(p_max + 1):
        for rho in basis_cochains(R, p):
            rep.record("cup unit",
                       (hochschild_cup(e, rho) + rho.scale(-1)).is_zero() and
                       (hochschild_cup(rho, e) + rho.scale(-1)).is_zero())

    # bracket descends to cohomology: d[a,b] = (-1)^(q+1) [da,b] + [a,db]
    rng = random.Random(5)
    for _ in range(40):
        p = rng.randrange(0, p_max)
        q = rng.randrange(0, p_max)
        if p + q < 1:
            continue
        r1 = rng.choice(basis_cochains(R, p))
        r2 = rng.choice(basis_cochains(R, q))
        lhs = hochschild_differential(gerstenhaber_bracket(r1, r2))
        rhs = gerstenhaber_bracket(hochschild_differential(r1), r2).scale(
            1 if q % 2 else -1) + \
            gerstenhaber_bracket(r1, hochschild_differential(r2))
        rep.record("bracket is compatible with the differential",
                   (lhs + rhs.scale(-1)).is_zero())

    if not R.prime:
        # over the integers only the rank-one case is in scope; everything
        # on cohomology is strict there
        reps0 = [unit_cochain(R)]
        for x in reps0:
            comm = hochschild_cup(x, x) + hochschild_cup(x, x).scale(-1)
            rep.record("graded commutativity on cohomology", comm.is_zero())
            rep.certificates.append(Certificate("commutativity", (0, 0), None, True))
        return rep

    reps = {p: cohomology_representatives(R, p)
            for p in range(min(p_max, pair_cap) + 1)}

    for p, xs in reps.items():
        for q, ys in reps.items():
            for x in xs:
                for y in ys:
                    # commutativity up to coboundary
                    w = hochschild_cup(x, y) + \
                        hochschild_cup(y, x).scale(-1 if (p * q) % 2 else 1).scale(-1)
                    if w.is_zero():
                        rep.record("graded commutativity on cohomology", True)
                        rep.certificates.append(
                            Certificate("commutativity", (p, q), None, True))
                    else:
                        z = _cobound(R, w)
                        rep.record("graded commutativity on cohomology", z is not None)
                        rep.certificates.append(
                            Certificate("commutativity", (p, q), z, False))
                    if p + q >= 1:
                        # bracket of cocycles is a cocycle
                        br = gerstenhaber_bracket(x, y)
                        rep.record("bracket of cocycles is a cocycle",
                                   hochschild_differential(br).is_zero())
                        # antisymmetry is strict for this convention
                        anti = br + gerstenhaber_bracket(y, x).scale(
                            -1 if ((p - 1) * (q - 1)) % 2 else 1)
                        rep.record("bracket antisymmetry", anti.is_zero())

    # derivation property and Jacobi, with certificates
    for p, xs in reps.items():
        for q, ys in reps.items():
            for r, zs in reps.items():
                for x in xs:
                    for y in ys:
                        for z in zs:
                            if p + q + r > p_max + 1:
                                continue
                            if p + q < 1 or q + r < 1 or p + r < 1:
                                continue
                            lhs = gerstenhaber_bracket(x, hochschild_cup(y, z))
                            rhs = hochschild_cup(gerstenhaber_bracket(x, y), z) + \
                                hochschild_cup(y, gerstenhaber_bracket(x, z)).scale(
                                    -1 if ((p - 1) * q) % 2 else 1)
                            w = lhs + rhs.scale(-1)
                            if w.is_zero():
                                rep.record("bracket derivation over cup", True)
                                rep.certificates.append(
                                    Certificate("derivation", (p, q, r), None, True))
                            else:
                                zeta = _cobound(R, w)
                                rep.record("bracket derivation over cup",
                                           zeta is not None)
                                rep.certificates.append(
                                    Certificate("derivation", (p, q, r), zeta, False))
                            jac = _jacobi(x, y, z)
                            if jac.is_zero():
                                rep.record("bracket Jacobi", True)
                                rep.certificates.append(
                                    Certificate("jacobi", (p, q, r), None, True))
                            else:
                                zeta = _cobound(R, jac)
                                rep.record("bracket Jacobi", zeta is not None)
                                rep.certificates.append(
                                    Certificate("jacobi", (p, q, r), zeta, False))
    return rep


def _jacobi(x, y, z):
    p, q, r = x.degree, y.degree, z.degree
    t1 = gerstenhaber_bracket(x, gerstenhaber_bracket(y, z))
    t2 = gerstenhaber_bracket(gerstenhaber_bracket(x, y), z)
    t3 = gerstenhaber_bracket(y, gerstenhaber_bracket(x, z)).scale(
        -1 if ((p - 1) * (q - 1)) % 2 else 1)
    return t1 + t2.scale(-1) + t3.scale(-1)
