"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Every expected value is either trivially forced, frozen from a hand
derivation, or computed by an independent oracle inside this module; the
tolerances are exact (integer/rational equality) throughout.
"""

import random
from fractions import Fraction as F

import pytest

from chainops import boxprod, cubes
from chainops.boxprod import complexity, enumerate_symbols
from chainops.cochain_ops import verify_identities
from chainops.cosimplicial import compare_conormalizations, conormalize_cokernel, \
    conormalize_kernel
from chainops.hochschild import (dual_numbers_mod2, gerstenhaber_report,
                                 hochschild_cohomology, integers,
                                 upper_triangular_mod2)
from chainops.operads import (TruncatedChainOperad, operad_homology,
                              symbol_complex, verify_operad_axioms)
from chainops.simplicial import (from_simplicial_complex, simplicial_circle,
                                 standard_simplex_sset)
from tests.test_boxprod import conormalized_basis


def _line(num, name, ok):
    print("ACCEPTANCE %d %-28s %s" % (num, name, "PASS" if ok else "FAIL"))
    assert ok, "acceptance criterion %d (%s) failed" % (num, name)


# 1 -------------------------------------------------------------------------

def test_acceptance_1_complexity_oracle():
    ok = complexity((1, 1, 2, 2, 2, 1, 2, 2, 1, 1, 2)) == 5
    seq = (1, 2, 3, 1, 3, 2, 1, 2)
    subs = {(a, b): tuple(v for v in seq if v in (a, b))
            for a, b in ((1, 2), (2, 3), (1, 3))}
    ok = ok and complexity(seq) == 5
    ok = ok and (complexity(subs[(1, 2)]), complexity(subs[(2, 3)]),
                 complexity(subs[(1, 3)])) == (5, 2, 4)
    _line(1, "complexity oracle", ok)


# 2 -------------------------------------------------------------------------

def _instance_zoo():
    out = [standard_simplex_sset(m) for m in range(4)]
    out.append(simplicial_circle())
    out.append(from_simplicial_complex([0, 1, 2], [(0, 1), (1, 2), (0, 2)]))
    out.append(from_simplicial_complex(
        [0, 1, 2, 3], [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]))
    rng = random.Random(20260810)
    while len(out) < 22:
        verts = list(range(rng.randrange(2, 6)))
        facets = []
        for _ in range(rng.randrange(1, 4)):
            k = rng.randrange(1, min(3, len(verts)) + 1)
            facets.append(tuple(sorted(rng.sample(verts, k))))
        W = from_simplicial_complex(verts, facets)
        if W.n_nondegenerate() <= 12:
            out.append(W)
    return out


def test_acceptance_2_conormalization_equivalence():
    count = 0
    ok = True
    for W in _instance_zoo():
        if W.n_nondegenerate() > 12:
            continue
        cap = W.max_dim() + 2
        A = W.dual_cosimplicial(cap)
        kres = conormalize_kernel(A)
        cres = conormalize_cokernel(A)
        compare_conormalizations(A, kres, cres)   # raises on failure
        for m in range(cap + 1):
            ok = ok and kres.complex.rank(-m) == len(W.nondegenerate(m))
            ok = ok and cres.complex.rank(-m) == len(W.nondegenerate(m))
        count += 1
    ok = ok and count >= 20
    _line(2, "conormalization certificates (%d instances)" % count, ok)


# 3 -------------------------------------------------------------------------

def test_acceptance_3_basis_reconciliation():
    ok = True
    # the colimit/coface route against the normal-form enumeration, exact
    # equality of ordered symbol lists cell by cell
    for k in (1, 2, 3):
        table = conormalized_basis(k, None, 6)
        for q in range(k - 1, 7):
            for r in range(q + 2):
                expected = tuple(enumerate_symbols(k, q, r))
                got = table.get((q, r), ())
                if got != expected:
                    ok = False
        # degree bookkeeping: the assembled complex carries exactly the
        # enumerated symbols in every occupied total degree
        cx = symbol_complex(k, None, 6)
        by_degree = {}
        for q in range(k - 1, 7):
            for r in range(q + 2):
                for s in enumerate_symbols(k, q, r):
                    by_degree.setdefault(s.total_degree, []).append(s)
        for d in cx.degrees():
            want = tuple(sorted(by_degree.get(d, ())))
            if cx.rank(d) and cx.basis[d] != want:
                ok = False
            if not cx.rank(d) and want:
                ok = False
    _line(3, "basis reconciliation k<=3 q<=6", ok)


# 4 -------------------------------------------------------------------------

@pytest.mark.parametrize("n,tag", [(1, "T1"), (2, "T2"), (None, "T")])
def test_acceptance_4_chain_operad_integrity(n, tag):
    # the constructor asserts the differential squares to zero everywhere
    op = TruncatedChainOperad(n, 3, 6)
    rep = verify_operad_axioms(op, seed=2026, exhaustive_cap=60, samples=40)
    ok = rep.passed
    checked = sum(it.instances for it in rep.items.values())
    _line(4, "chain-operad integrity %s (%d checks)" % (tag, checked), ok)


# 5 -------------------------------------------------------------------------

def test_acceptance_5_homology():
    ok = True
    # weak contractibility at desk scale, with level stabilization
    rep = operad_homology(1, None, (0, 1, 2), 6)
    ok = ok and rep.stabilized and rep.groups == {0: (1, ()), 1: (0, ()), 2: (0, ())}
    rep = operad_homology(2, None, (0, 1, 2), 5)
    ok = ok and rep.stabilized and rep.groups == {0: (1, ()), 1: (0, ()), 2: (0, ())}
    # the filtration stages against their configuration-space models
    rep = operad_homology(2, 1, (0, 1, 2), 5)
    ok = ok and rep.stabilized and rep.groups == {0: (2, ()), 1: (0, ()), 2: (0, ())}
    comps = cubes.count_components(1, 2, 5)
    ok = ok and comps == 2
    rep = operad_homology(2, 2, (0, 1, 2), 5)
    ok = ok and rep.stabilized and rep.groups == {0: (1, ()), 1: (1, ()), 2: (0, ())}
    for nn, kk in ((1, 2), (2, 2), (2, 1)):
        degrees = range((kk - 1) * (nn - 1) + 2)
        betti = cubes.configuration_betti(nn, kk)
        ok = ok and operad_homology(kk, nn, degrees, 4).groups == {
            d: (betti.get(d, 0), ()) for d in degrees}
    _line(5, "operad homology + models", ok)


# 6 -------------------------------------------------------------------------

def test_acceptance_6_sigma_freeness():
    ok = True
    total = 0
    for q in range(1, 7):
        for r in range(q + 2):
            for s in enumerate_symbols(2, q, r):
                moved, _sign = boxprod.act_perm(s, (2, 1))
                ok = ok and moved != s
                total += 1
    _line(6, "symmetric freeness (%d symbols)" % total, ok)


# 7 -------------------------------------------------------------------------

def test_acceptance_7_cochain_calculus():
    ok = True
    total = 0
    for W, name in ((standard_simplex_sset(2), "simplex2"),
                    (standard_simplex_sset(3), "simplex3"),
                    (simplicial_circle(), "circle")):
        rep = verify_identities(W, name=name)
        ok = ok and rep.passed
        total += sum(it.instances for it in rep.items.values())
    _line(7, "cochain calculus (%d instances)" % total, ok)


# 8 -------------------------------------------------------------------------

def test_acceptance_8_hochschild_gerstenhaber():
    from tests.test_hochschild import brute_dims
    ok = True
    for R in (integers(), dual_numbers_mod2(), upper_triangular_mod2()):
        groups = hochschild_cohomology(R, 3)
        dims = brute_dims(R, 3)
        for p in range(4):
            ok = ok and groups[p][0] == dims[p] and groups[p][1] == ()
        rep = gerstenhaber_report(R, p_max=3)
        ok = ok and rep.passed and len(rep.certificates) >= 1
    _line(8, "Hochschild/Gerstenhaber", ok)


# 9 -------------------------------------------------------------------------

def _grid_element(rng, n, k):
    """Valid element built by placing cubes in distinct cells of a random
    grid, then jittering: no rejection loop needed."""
    if k == 0:
        return cubes.CubesElement(n, ())
    g = k + rng.randrange(0, 3)
    cells = rng.sample(range(g ** n), k)
    tds = []
    for cell in cells:
        coords = []
        for _ in range(n):
            coords.append(cell % g)
            cell //= g
        # shrink s/4 and jitter j/8 of the slack: over the denominator 32g,
        # b = s/(4g) has numerator 8s and a = c/g + j(4-s)/(32g) has 32c + j(4-s)
        s = rng.randrange(1, 5)
        nums = tuple(32 * c + rng.randrange(0, 3) * (4 - s) for c in coords)
        tds.append(cubes.TDMap.from_numerators(n, nums, 8 * s, 32 * g))
    return cubes.CubesElement(n, tuple(tds))


def test_acceptance_9_little_cubes():
    # worked composition with the stated constants
    kappa = cubes.TDMap(2, (F(55, 100), F(55, 100)), F(40, 100))
    lam = cubes.TDMap(2, (F(10, 100), F(30, 100)), F(25, 100))
    out = kappa.compose(lam)
    ok = out.a == (F(59, 100), F(67, 100)) and out.b == F(1, 10)

    rng = random.Random(99)
    counts = {}
    for k in (1, 2, 3):
        for js in _all_tuples(k):
            for t in range(1000):
                n = 1 + t % 2
                c = _grid_element(rng, n, k)
                ds = [_grid_element(rng, n, j) for j in js]
                iss = [[rng.randrange(1, 3) for _ in range(j)] for j in js]
                es = [[_grid_element(rng, n, i) for i in row] for row in iss]
                # unit laws
                unit = cubes.CubesElement.unit(n)
                ok = ok and cubes.gamma_cubes(unit, [c]) == c
                ok = ok and cubes.gamma_cubes(c, [unit] * k) == c
                # associativity, exact rationals
                inner = [cubes.gamma_cubes(d, row) for d, row in zip(ds, es)]
                lhs = cubes.gamma_cubes(c, inner)
                flat = [e for row in es for e in row]
                rhs = cubes.gamma_cubes(cubes.gamma_cubes(c, ds), flat)
                ok = ok and lhs == rhs
                counts[(k, js)] = counts.get((k, js), 0) + 1
            if not ok:
                break
    ok = ok and counts and min(counts.values()) >= 1000
    _line(9, "little cubes (%d configurations x 1000)" % len(counts), ok)


def _all_tuples(k):
    out = [()]
    for _ in range(k):
        out = [t + (j,) for t in out for j in (1, 2, 3)]
    return out
