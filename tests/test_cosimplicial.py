import os
import random
import subprocess
import sys

import pytest

import chainops
from chainops import intmat
from chainops.intmat import IntMatrix
from chainops.complexes import GradedIntComplex
from chainops.simplicial import (standard_simplex_sset,
                                 standard_simplex_chains, from_simplicial_complex)
from chainops.cosimplicial import (ComparisonFailed, CosimplicialAbGroup,
                                   CosimplicialChainComplex, TorsionCokernel, WindowTooSmall,
                                   compare_conormalizations, conormalize_bicomplex,
                                   conormalize_cokernel, conormalize_kernel,
                                   stabilized_bicomplex_homology)


def constant_group(levels):
    """Constant cosimplicial group Z: all operators the identity."""
    lv = {m: ("z",) for m in range(levels + 1)}
    cofaces = {(m, i): IntMatrix.identity(1)
               for m in range(levels) for i in range(m + 2)}
    codegens = {(m, i): IntMatrix.identity(1)
                for m in range(1, levels + 1) for i in range(m)}
    return CosimplicialAbGroup(lv, cofaces, codegens)


def zero_group(levels):
    lv = {m: () for m in range(levels + 1)}
    cofaces = {(m, i): IntMatrix.zeros(0, 0)
               for m in range(levels) for i in range(m + 2)}
    codegens = {(m, i): IntMatrix.zeros(0, 0)
                for m in range(1, levels + 1) for i in range(m)}
    return CosimplicialAbGroup(lv, cofaces, codegens)


def test_kernel_dual_of_interval():
    A = standard_simplex_sset(1).dual_cosimplicial(3)
    kres = conormalize_kernel(A)
    # normalized ranks: the only normalized 1-cochain is the edge dual
    assert [kres.complex.rank(-m) for m in range(4)] == [2, 1, 0, 0]


def test_kernel_constant_group():
    kres = conormalize_kernel(constant_group(3))
    assert [kres.complex.rank(-m) for m in range(4)] == [1, 0, 0, 0]


def test_kernel_zero_group():
    kres = conormalize_kernel(zero_group(2))
    assert all(kres.complex.rank(-m) == 0 for m in range(3))


def test_cokernel_matches_kernel_ranks():
    A = standard_simplex_sset(1).dual_cosimplicial(3)
    kres, cres = conormalize_kernel(A), conormalize_cokernel(A)
    for m in range(4):
        assert kres.complex.rank(-m) == cres.complex.rank(-m)
    # degree 0 always equals A^0 unchanged
    assert cres.complex.rank(0) == A.rank(0)


def test_cokernel_constant_group():
    cres = conormalize_cokernel(constant_group(3))
    assert [cres.complex.rank(-m) for m in range(4)] == [1, 0, 0, 0]


def test_certificate_small_cases():
    for A in (standard_simplex_sset(1).dual_cosimplicial(3),
              constant_group(3), zero_group(2)):
        cert = compare_conormalizations(A)
        assert cert.levels == A.max_level


def test_certificate_random_simplicial_sets():
    rng = random.Random(23)
    count = 0
    for trial in range(12):
        nverts = rng.randrange(2, 5)
        verts = list(range(nverts))
        facets = []
        for _ in range(rng.randrange(1, 4)):
            k = rng.randrange(1, min(3, nverts) + 1)
            facets.append(tuple(sorted(rng.sample(verts, k))))
        W = from_simplicial_complex(verts, facets)
        if W.n_nondegenerate() > 10:
            continue
        A = W.dual_cosimplicial(W.max_dim() + 2)
        kres, cres = conormalize_kernel(A), conormalize_cokernel(A)
        cert = compare_conormalizations(A, kres, cres)
        # ranks equal the nondegenerate simplex counts
        for m in range(A.max_level + 1):
            assert kres.complex.rank(-m) == len(W.nondegenerate(m))
        count += 1
    assert count >= 8


def test_certificate_rejects_non_inverse_and_non_unimodular():
    A = standard_simplex_sset(1).dual_cosimplicial(3)
    kres, cres = conormalize_kernel(A), conormalize_cokernel(A)
    cert = compare_conormalizations(A, kres, cres)
    cert.inverse[0] = 2 * cert.inverse[0]
    with pytest.raises(ComparisonFailed):
        cert.verify(kres, cres)
    # a kernel inclusion scaled by 2 makes the comparison map non-unimodular
    kres.inclusions[1] = 2 * kres.inclusions[1]
    with pytest.raises(ComparisonFailed) as info:
        compare_conormalizations(A, kres, cres)
    assert info.value.args == (1,)


def test_certificate_check_under_optimize():
    # python -O strips assert statements; c * c^-1 = I must still be checked
    script = "\n".join([
        "from chainops import cosimplicial as cs",
        "from chainops.simplicial import standard_simplex_sset",
        "assert False, 'asserts are live'",
        "A = standard_simplex_sset(1).dual_cosimplicial(3)",
        "k, q = cs.conormalize_kernel(A), cs.conormalize_cokernel(A)",
        "cert = cs.compare_conormalizations(A, k, q)",
        "cert.inverse[0] = 2 * cert.inverse[0]",
        "try:",
        "    cert.verify(k, q)",
        "except cs.ComparisonFailed as exc:",
        "    print('rejected:', exc)",
    ])
    src = os.path.dirname(os.path.dirname(os.path.abspath(chainops.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "rejected: 0\n"


def test_torsion_cokernel_detected():
    # fake input: "coface" multiplication by 2 gives a torsion cokernel
    lv = {0: ("a",), 1: ("b",)}
    cofaces = {(0, 0): IntMatrix.from_rows([[0]]),
               (0, 1): IntMatrix.from_rows([[2]])}
    codegens = {(1, 0): IntMatrix.from_rows([[1]])}
    A = CosimplicialAbGroup(lv, cofaces, codegens, check=False)
    with pytest.raises(TorsionCokernel):
        conormalize_cokernel(A)


def delta_cosimplicial_chain(levels):
    """Delta*_* as a cosimplicial chain complex, levels 0..levels."""
    lvl = {r: standard_simplex_chains(r) for r in range(levels + 1)}
    from chainops import delta as dl

    def op_matrix(alpha, src, tgt):
        mats = {}
        lo, hi = src.window
        for m in range(lo, hi + 1):
            cols = src.basis[m]
            if not cols:
                continue
            data = {}
            for j, vals in enumerate(cols):
                pushed = tuple(alpha.values[v] for v in vals)
                if len(set(pushed)) == len(pushed):
                    i = tgt.basis[m].index(pushed)
                    data[(i, j)] = 1
            mats[m] = IntMatrix(len(tgt.basis[m]), len(cols), data)
        return mats

    cofaces, codegens = {}, {}
    for r in range(levels):
        for i in range(r + 2):
            cofaces[(r, i)] = op_matrix(dl.coface(r, i), lvl[r], lvl[r + 1])
    for r in range(1, levels + 1):
        for i in range(r):
            codegens[(r, i)] = op_matrix(dl.codegeneracy(r, i), lvl[r], lvl[r - 1])
    return CosimplicialChainComplex(lvl, cofaces, codegens)


def test_bicomplex_of_simplex_chains_is_contractible():
    B = delta_cosimplicial_chain(7)
    hom = stabilized_bicomplex_homology(B, 6, range(-2, 2))
    assert hom[0] == (1, ())
    for d in (-2, -1, 1):
        assert hom[d] == (0, ()), (d, hom[d])
    # stabilization across caps 5, 6, 7
    hom5 = stabilized_bicomplex_homology(B, 5, range(-2, 2))
    assert hom5 == hom


def test_bicomplex_concentrated_in_degree_zero():
    # reduces to the plain conormalization up to regrading
    A = standard_simplex_sset(1).dual_cosimplicial(3)
    lvl = {m: GradedIntComplex((-1, 1), {0: A.levels[m]}, {})
           for m in range(4)}
    cofaces = {(r, i): {0: A.d(r, i)} for r in range(3) for i in range(r + 2)}
    codegens = {(r, i): {0: A.s(r, i)} for r in range(1, 4) for i in range(r)}
    B = CosimplicialChainComplex(lvl, cofaces, codegens)
    cx = conormalize_bicomplex(B, 3)
    kres = conormalize_kernel(A)
    for m in range(4):
        assert cx.rank(-m) == kres.complex.rank(-m)


def test_bicomplex_trivial_beyond_level_zero():
    # constant cosimplicial chain complex: conormalization dies above level
    # 0, so the total complex is the level-0 complex
    c0 = standard_simplex_chains(2)
    lvl = {r: c0 for r in range(3)}
    ident = {m: IntMatrix.identity(c0.rank(m)) for m in range(3)}
    cofaces = {(r, i): ident for r in range(2) for i in range(r + 2)}
    codegens = {(r, i): ident for r in range(1, 3) for i in range(r)}
    B = CosimplicialChainComplex(lvl, cofaces, codegens)
    cx = conormalize_bicomplex(B, 2)
    for m in range(3):
        assert cx.rank(m) == c0.rank(m)
    for m in (1, 2):
        assert intmat.rank(cx.differential(m)) == intmat.rank(c0.differential(m))


def test_window_too_small():
    B = delta_cosimplicial_chain(3)
    with pytest.raises(WindowTooSmall):
        conormalize_bicomplex(B, 9)


def test_augmented_flag_consistency():
    from chainops.cosimplicial import AugmentedFlag
    W = standard_simplex_sset(1)
    A0 = W.dual_cosimplicial(2)
    # the unique map from the empty level sends eps to the constant function
    iota = IntMatrix.from_columns([[1] * A0.rank(0)])
    flag = AugmentedFlag(True, 1, iota)
    CosimplicialAbGroup(A0.levels, A0.cofaces, A0.codegens, augmentation=flag)
    # inconsistent augmentation data is rejected
    bad = IntMatrix.from_columns([[1] + [0] * (A0.rank(0) - 1)])
    with pytest.raises(AssertionError):
        CosimplicialAbGroup(A0.levels, A0.cofaces, A0.codegens,
                            augmentation=AugmentedFlag(True, 1, bad))
