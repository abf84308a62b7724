"""Hochschild cochains of a finite-rank associative algebra: differential,
cup product, circle product and bracket, cohomology, and certificates for
the graded-commutative/Lie structure on cohomology.

Coefficients are the integers or a prime field Z/p.  Cochains in degree p
are multilinear maps R^{tensor p} -> R stored as sparse vectors on the
coordinates key + (s,) (the map sending the basis tuple key to e_s), the
labels of the differential matrices; all identities are verified by
exhaustive evaluation on basis tuples, and the cohomology-level statements
come with explicit cobounding cochains found by linear algebra, never
asserted symbolically.
"""

import json
import random
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import product
from math import isqrt

from . import intmat
from .complexes import (GradedIntComplex, InfeasibleSize, homology_basis,
                        reduced_homology)
from .intmat import IntMatrix, vec_sum


# hochschild_cohomology refuses cochain spaces above this dimension, and
# gerstenhaber_report takes cohomology representatives up to this degree
MAX_COCHAIN_DIM = 6561
MAX_REPRESENTATIVE_DEGREE = 2


class InvalidAlgebra(AssertionError):
    """Structure constants that are malformed, not unital or not
    associative.  Raised explicitly, so the checks also run under
    ``python -O``; an AssertionError, as the checks used to be asserts."""


class OutsideDomain(AssertionError):
    """Cochains of different degrees added, or a bracket of two 0-cochains
    (raised explicitly, like InvalidAlgebra)."""


class FiniteRankAlgebra:
    """Associative unital algebra by structure constants over Z or Z/p."""

    def __init__(self, structure, unit, prime=0, name="R"):
        self.n = n = len(structure)
        self.prime = prime
        self.name = name
        if not (prime == 0 or prime >= 2 and all(
                prime % d for d in range(2, isqrt(prime) + 1))):
            raise InvalidAlgebra("the modulus must be 0 or a prime, not %r"
                                 % (prime,))
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
        c = intmat.exact_int(c)
        return c % self.prime if self.prime else c

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
        return tuple(self._red(c) for c in out)

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
        ring = obj.get("ring")
        if ring not in ("Z", "Zp") or ring == "Zp" and not obj.get("p"):
            raise InvalidAlgebra('the ring is "Z", or "Zp" with a prime "p"')
        prime = obj["p"] if ring == "Zp" else 0
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
    """Degree-p cochain as a vector on ``coordinates(R, p)``: the sorted
    (key + (s,), c) pairs, c reduced in R's ring and nonzero, where the
    coordinate key + (s,) sends the basis tuple key to e_s.  The sorted
    terms are the canonical form (equality, hashing, reports)."""
    algebra: FiniteRankAlgebra
    degree: int
    terms: tuple

    @classmethod
    def sum(cls, algebra, degree, terms):
        """The cochain sum c * label over the (label, c) pairs of terms."""
        return cls(algebra, degree,
                   tuple(sorted(vec_sum(terms, algebra.prime).items())))

    @classmethod
    def make(cls, algebra, degree, mapping):
        """The multilinear map sending each basis tuple key to mapping[key]."""
        return cls.sum(algebra, degree, (
            (tuple(key) + (s,), c)
            for key, vec in mapping.items() for s, c in enumerate(vec)))

    @cached_property
    def _lookup(self):
        return dict(self.terms)

    def value(self, key):
        """The value vector at the basis tuple key."""
        return tuple(self._lookup.get(key + (s,), 0)
                     for s in range(self.algebra.n))

    def __add__(self, other):
        if self.degree != other.degree:
            raise OutsideDomain("cochains of degrees %d and %d added"
                                % (self.degree, other.degree))
        return HochschildCochain.sum(self.algebra, self.degree,
                                     self.terms + other.terms)

    def scale(self, c):
        return HochschildCochain.sum(self.algebra, self.degree,
                                     ((label, c * x) for label, x in self.terms))

    def is_zero(self):
        return not self.terms


def basis_cochains(R, p):
    """All basis cochains of degree p, one per label of ``coordinates``."""
    return [HochschildCochain.sum(R, p, ((label, 1),))
            for label in coordinates(R, p)]


def unit_cochain(R):
    return HochschildCochain.make(R, 0, {(): R.unit})


def _differential_terms(R, p, label):
    """The terms (label', c) of the bar differential of the degree-p
    coordinate cochain label = key + (t,), which sends the basis tuple key to
    e_t and vanishes elsewhere.  It is pushed forward to the keys whose terms
    read it: (a,) + key, key + (a,), and key with key[i-1] replaced by a
    preimage (a, b) under the multiplication."""
    products = R.products
    key, t = label[:-1], label[-1]
    right_sign = -1 if (p + 1) % 2 else 1
    for a in range(R.n):
        # r_1 * rho(r_2 ... r_{p+1}) with r_1 = e_a
        for s, c in products[a][t]:
            yield (a,) + key + (s,), c
        # rho(r_1 ... r_p) * r_{p+1} with r_{p+1} = e_a
        for s, c in products[t][a]:
            yield key + (a, s), right_sign * c
    # inner multiplications r_i r_{i+1} = ... + c e_{key[i-1]}
    for i in range(1, p + 1):
        head, tail = key[:i - 1], label[i:]
        sign = -1 if i % 2 else 1
        for a, b, c in R.preimages[key[i - 1]]:
            yield head + (a, b) + tail, sign * c


def hochschild_differential(rho):
    """The bar differential: outer multiplications on both ends and the
    alternating inner multiplications, summed over the terms of rho."""
    R, p = rho.algebra, rho.degree
    return HochschildCochain.sum(R, p + 1, (
        (image, c * x) for label, x in rho.terms
        for image, c in _differential_terms(R, p, label)))


def hochschild_cup(r1, r2):
    """(r1 u r2)(k1 + k2) = r1(k1) r2(k2), term by term through the
    structure constants."""
    R = r1.algebra
    return HochschildCochain.sum(R, r1.degree + r2.degree, (
        (l1[:-1] + l2[:-1] + (s,), x * y * c)
        for l1, x in r1.terms for l2, y in r2.terms
        for s, c in R.products[l1[-1]][l2[-1]]))


def circle_product(r1, r2):
    """Sum of single insertions of r2 into the slots of r1, with the usual
    alternating sign per slot: each term of r1 meets, in each slot i, the
    terms of r2 whose coordinate is r1's index there."""
    p, q = r1.degree, r2.degree
    # t -> [(k2, c)]: r2(k2) has coefficient c at e_t
    inserts = {}
    for l2, c in r2.terms:
        inserts.setdefault(l2[-1], []).append((l2[:-1], c))

    def terms():
        for l1, x in r1.terms:
            for i in range(1, p + 1):
                sign = -1 if ((q - 1) * (i - 1)) % 2 else 1
                for k2, c in inserts.get(l1[i - 1], ()):
                    yield l1[:i - 1] + k2 + l1[i:], sign * c * x
    return HochschildCochain.sum(r1.algebra, p + q - 1, terms())


def gerstenhaber_bracket(r1, r2):
    """[r1, r2] = r1 o r2 - (-1)^((p-1)(q-1)) r2 o r1."""
    p, q = r1.degree, r2.degree
    if p + q < 1:
        raise OutsideDomain("the bracket of two 0-cochains is not defined")
    sign = -1 if ((p - 1) * (q - 1)) % 2 else 1
    return circle_product(r1, r2) + circle_product(r2, r1).scale(-sign)


# -- linear algebra over the coefficients --------------------------------------

def coordinates(R, p):
    """Labels key + (s,) of the coordinates of degree-p cochains, keys in
    ``product`` order: the cochain sending the basis tuple key to e_s."""
    return tuple(product(range(R.n), repeat=p + 1))


def differential_matrix(R, p):
    """Matrix of d : C^p -> C^{p+1} on ``coordinates``, each coordinate
    pushed straight through ``_differential_terms`` and reduced over R's
    coefficients."""
    return IntMatrix.from_images(
        coordinates(R, p), coordinates(R, p + 1), lambda label: vec_sum(
            _differential_terms(R, p, label), R.prime).items())


def modp_eliminate(m, p):
    """Rank of m over Z/p.  Only the benchmark tracer (perfbench/tracing.py)
    still looks this name up; drop it with the next benchmark change."""
    return intmat.rank(m, p)


def hochschild_complex(R, top):
    """The cochain complex of R up to C^(top + 1), over R's coefficients:
    chain degree -p holds C^p on ``coordinates(R, p)``, so the cohomology
    of degrees 0..top can be read in chain degrees -top..0."""
    basis = {-p: coordinates(R, p) for p in range(top + 2)}
    diff = {-p: differential_matrix(R, p) for p in range(top + 1)}
    return GradedIntComplex((-top - 1, 1), basis, diff, prime=R.prime,
                            regrade="cochain (chain degree -m holds degree m)")


def hochschild_cohomology(R, p_max):
    """Per-degree cohomology of ``hochschild_complex(R, p_max)``, from
    ``reduced_homology``: {p: (betti, torsion)} over the integers,
    {p: (dimension, ())} over Z/p."""
    if R.n ** (p_max + 2) > MAX_COCHAIN_DIM:
        raise InfeasibleSize(
            "degree %d cochains of %s have dimension %d, above the limit %d"
            % (p_max + 1, R.name, R.n ** (p_max + 2), MAX_COCHAIN_DIM))
    groups = reduced_homology(hochschild_complex(R, p_max), range(-p_max, 1))
    return {p: groups[-p] for p in range(p_max + 1)}


# -- cohomology-level structure -------------------------------------------------

@dataclass
class Certificate:
    kind: str
    degrees: tuple
    cocycle: object         # the HochschildCochain certified a coboundary
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

    def certify(self, name, kind, degrees, w):
        """Record that the cocycle w is zero on cohomology: strictly when w
        is zero, else through an explicit cobounding cochain."""
        zeta = None if w.is_zero() else _cobound(w.algebra, w)
        self.record(name, w.is_zero() or zeta is not None)
        self.certificates.append(Certificate(kind, degrees, w, zeta,
                                             w.is_zero()))

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


def _cobound(R, target):
    """Explicit cochain zeta with d(zeta) = target, or None."""
    p = target.degree
    column = IntMatrix.from_images((target,), coordinates(R, p),
                                   lambda t: t.terms)
    x = intmat.solve(differential_matrix(R, p - 1), column, R.prime)
    if x is None:
        return None
    labels = coordinates(R, p - 1)
    return HochschildCochain.sum(R, p - 1, (
        (labels[i], v) for i, v in x.columns().get(0, {}).items()))


def gerstenhaber_report(R, p_max=3):
    """Cochain-level identities (exhaustive on basis cochains) plus the
    cohomology-level Gerstenhaber structure with explicit certificates."""
    rep = GerstenhaberReport(R.name, p_max)
    basis = {p: basis_cochains(R, p) for p in range(p_max + 1)}
    # each differential is evaluated once per report; the lambda looks the
    # module's hochschild_differential up at every evaluation
    d = lru_cache(maxsize=None)(lambda rho: hochschild_differential(rho))

    # d o d = 0 and the Leibniz rule, exhaustively
    dbasis = {p: [d(rho) for rho in basis[p]] for p in basis}
    for p in range(p_max + 1):
        for drho in dbasis[p]:
            rep.record("differential squares to zero", d(drho).is_zero())
    for p in range(0, min(2, p_max) + 1):
        for q in range(0, min(2, p_max - p) + 1):
            for r1, dr1 in zip(basis[p], dbasis[p]):
                for r2, dr2 in zip(basis[q], dbasis[q]):
                    lhs = d(hochschild_cup(r1, r2))
                    rhs = hochschild_cup(dr1, r2) + hochschild_cup(
                        r1, dr2).scale(-1 if p % 2 else 1)
                    rep.record("Leibniz rule for cup", lhs == rhs)

    # cup associativity and unit, exhaustively in low degrees; the few
    # distinct r1 u r2 make most associativity cups repeats: memo them here
    e = unit_cochain(R)
    cup = lru_cache(maxsize=None)(lambda a, b: hochschild_cup(a, b))
    low = range(min(1, p_max) + 1)
    for p in low:
        for q in low:
            for r in low:
                for r1 in basis[p]:
                    for r2 in basis[q]:
                        left = cup(r1, r2)
                        for r3 in basis[r]:
                            rep.record("cup associativity", cup(left, r3) ==
                                       cup(r1, cup(r2, r3)))
    del cup
    for p in range(p_max + 1):
        for rho in basis[p]:
            rep.record("cup unit", hochschild_cup(e, rho) == rho and
                       hochschild_cup(rho, e) == rho)

    # bracket descends to cohomology: d[a,b] = (-1)^(q+1) [da,b] + [a,db];
    # degrees are drawn below p_max, so p_max = 0 draws none
    rng = random.Random(5)
    for _ in range(40 if p_max else 0):
        p = rng.randrange(0, p_max)
        q = rng.randrange(0, p_max)
        if p + q < 1 or not (basis[p] and basis[q]):
            continue
        r1 = rng.choice(basis[p])
        r2 = rng.choice(basis[q])
        lhs = d(gerstenhaber_bracket(r1, r2))
        rhs = gerstenhaber_bracket(d(r1), r2).scale(1 if q % 2 else -1) + \
            gerstenhaber_bracket(r1, d(r2))
        rep.record("bracket is compatible with the differential", lhs == rhs)

    if R.prime:
        top = min(p_max, MAX_REPRESENTATIVE_DEGREE)
        cx = hochschild_complex(R, top)
        cycles = homology_basis(cx, [-p for p in range(top + 1)])
        reps = {p: [HochschildCochain.sum(R, p, v.items())
                    for v in cycles[-p]] for p in range(top + 1)}
    else:
        # over the integers only the unit class is in scope
        reps = {0: [unit_cochain(R)]}

    for p, xs in reps.items():
        for q, ys in reps.items():
            for x in xs:
                for y in ys:
                    # commutativity up to coboundary
                    w = hochschild_cup(x, y) + \
                        hochschild_cup(y, x).scale(-1 if (p * q) % 2 else 1).scale(-1)
                    rep.certify("graded commutativity on cohomology",
                                "commutativity", (p, q), w)
                    if p + q >= 1:
                        # bracket of cocycles is a cocycle
                        br = gerstenhaber_bracket(x, y)
                        rep.record("bracket of cocycles is a cocycle",
                                   d(br).is_zero())
                        # antisymmetry is strict for this convention
                        anti = gerstenhaber_bracket(y, x).scale(
                            1 if ((p - 1) * (q - 1)) % 2 else -1)
                        rep.record("bracket antisymmetry", br == anti)

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
                            rep.certify("bracket derivation over cup", "derivation",
                                        (p, q, r), lhs + rhs.scale(-1))
                            rep.certify("bracket Jacobi", "jacobi", (p, q, r),
                                        _jacobi(x, y, z))
    return rep


def _jacobi(x, y, z):
    p, q, r = x.degree, y.degree, z.degree
    t1 = gerstenhaber_bracket(x, gerstenhaber_bracket(y, z))
    t2 = gerstenhaber_bracket(gerstenhaber_bracket(x, y), z)
    t3 = gerstenhaber_bracket(y, gerstenhaber_bracket(x, z)).scale(
        -1 if ((p - 1) * (q - 1)) % 2 else 1)
    return t1 + t2.scale(-1) + t3.scale(-1)
