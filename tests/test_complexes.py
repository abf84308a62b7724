import hashlib
import json
import os
import random
import subprocess
import sys

import pytest

import chainops
from chainops import intmat
from chainops.intmat import IntMatrix
from chainops.complexes import (DegreeOutsideWindow, GradedIntComplex, ChainMap,
                                InvalidComplex, NotSquareZero, homology_basis,
                                reduced_homology, tensor)
from tests.test_intmat import (apply, dense_row_echelon, from_rows,
                               to_rows)


def point_complex(label="pt"):
    return GradedIntComplex((-1, 1), {0: (label,)}, {})


def interval_complex():
    # Z^2 <- Z with de = v1 - v0
    return GradedIntComplex(
        (-1, 2), {0: ("v0", "v1"), 1: ("e",)},
        {1: from_rows([[-1], [1]])})


def circle_complex():
    # 3 vertices, 3 edges, standard boundary
    d = from_rows([
        [-1, 0, 1],
        [1, -1, 0],
        [0, 1, -1],
    ])
    return GradedIntComplex((-1, 2), {0: ("a", "b", "c"), 1: ("ab", "bc", "ca")},
                            {1: d})


def brute_force_homology_ranks(cx, d):
    # independent oracle: rational ranks by fraction-free elimination
    from fractions import Fraction

    def rk(m):
        a = [[Fraction(v) for v in row] for row in to_rows(m)]
        rank = 0
        cols = m.cols
        rows = m.rows
        r = 0
        for c in range(cols):
            piv = next((i for i in range(r, rows) if a[i][c]), None)
            if piv is None:
                continue
            a[r], a[piv] = a[piv], a[r]
            for i in range(rows):
                if i != r and a[i][c]:
                    f = a[i][c] / a[r][c]
                    a[i] = [x - f * y for x, y in zip(a[i], a[r])]
            r += 1
        return r

    n = cx.rank(d)
    return n - rk(cx.differential(d)) - rk(cx.differential(d + 1))


def test_circle_homology():
    cx = circle_complex()
    # derived by brute-force kernel/image computation on the boundary matrix
    assert cx.homology(0) == (1, ())
    assert cx.homology(1) == (1, ())
    assert brute_force_homology_ranks(cx, 0) == 1
    assert brute_force_homology_ranks(cx, 1) == 1


def test_zero_differential_homology():
    cx = GradedIntComplex((-1, 2), {0: ("a", "b"), 1: ("x",)}, {})
    assert cx.homology(0) == (2, ())
    assert cx.homology(1) == (1, ())


def test_times_two_homology():
    cx = GradedIntComplex((-1, 2), {0: ("a",), 1: ("b",)},
                          {1: from_rows([[2]])})
    assert cx.homology(0) == (0, (2,))
    assert cx.homology(1) == (0, ())


def test_degree_outside_window():
    cx = circle_complex()
    with pytest.raises(DegreeOutsideWindow):
        cx.homology(2)


def test_dd_zero_enforced():
    bad = {1: from_rows([[1], [0]]),
           2: from_rows([[1], [1]])}
    with pytest.raises(AssertionError):
        GradedIntComplex((0, 2), {0: ("a", "b"), 1: ("x", "y"), 2: ("u",)}, bad)
    # d o d = 2: zero over Z/2 only
    two = {1: from_rows([[1]]), 2: from_rows([[2]])}
    basis = {0: ("a",), 1: ("x",), 2: ("u",)}
    assert GradedIntComplex((0, 2), basis, two, prime=2).prime == 2
    for prime in (0, 3):
        with pytest.raises(NotSquareZero):
            GradedIntComplex((0, 2), basis, two, prime=prime)


def test_dd_zero_checked_column_by_column():
    # d_1 * d_2 = [0 0 1]: only the last column of the product is nonzero
    basis = {0: ("a",), 1: ("x", "y"), 2: ("u", "v", "w")}
    d1 = from_rows([[1, 1]])
    with pytest.raises(NotSquareZero, match="between degrees 2 -> 0"):
        GradedIntComplex((0, 2), basis, {
            1: d1, 2: from_rows([[1, 2, 1], [-1, -2, 0]])})
    # d_1 * d_2 = [0 3]: zero over Z/3 only
    three = {1: d1, 2: from_rows([[1, 2], [-1, 1]])}
    basis[2] = ("u", "v")
    assert GradedIntComplex((0, 2), basis, three, prime=3).prime == 3
    for prime in (0, 2):
        with pytest.raises(NotSquareZero):
            GradedIntComplex((0, 2), basis, three, prime=prime)
    # 0 x 2 and 2 x 0 differentials, checked and eliminated
    for prime in (0, 2):
        cx = GradedIntComplex((0, 2), {1: ("x", "y")}, {
            1: IntMatrix(0, 2), 2: IntMatrix(2, 0)}, prime=prime)
        assert reduced_homology(cx, (1,)) == {1: (2, ())}


def test_dd_zero_enforced_under_optimize():
    # python -O strips assert statements; the d o d check must still fire
    script = "\n".join([
        "from chainops.intmat import IntMatrix",
        "from chainops.complexes import GradedIntComplex, NotSquareZero",
        "from chainops.complexes import ChainMap, InvalidComplex, NotAChainMap",
        "assert False, 'asserts are live'",
        "one = IntMatrix(1, 1, {(0, 0): 1})",
        "try:",
        "    GradedIntComplex((0, 2), {0: ('a',), 1: ('x',), 2: ('u',)},",
        "                     {1: one, 2: one})",
        "except NotSquareZero as exc:",
        "    print('rejected:', exc)",
        "bad = {1: IntMatrix(2, 1, {(0, 0): 1}),",
        "       2: IntMatrix(2, 1, {(0, 0): 1, (1, 0): 1})}",
        "for basis, diff in (({0: ('a', 'a')}, {}),",
        "                    ({0: ('a', 'b'), 1: ('x', 'y'), 2: ('u',)}, bad)):",
        "    try:",
        "        GradedIntComplex((0, 2), basis, diff)",
        "    except InvalidComplex as exc:",
        "        print('rejected:', exc)",
        "cx = GradedIntComplex((0, 1), {0: ('a',), 1: ('x',)}, {1: one})",
        "try:",
        "    ChainMap(cx, cx, {1: one})",
        "except NotAChainMap as exc:",
        "    print('rejected:', exc)",
    ])
    src = os.path.dirname(os.path.dirname(os.path.abspath(chainops.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "rejected: d o d != 0 between degrees 2 -> 0",
        "rejected: duplicate labels in degree 0",
        "rejected: differential shape mismatch in degree 1",
        "rejected: not a chain map in degree 1"]
    assert issubclass(NotSquareZero, AssertionError)


def test_tensor_with_point():
    b = interval_complex()
    t = tensor(point_complex(), b)
    assert [t.rank(d) for d in (0, 1)] == [b.rank(0), b.rank(1)]
    assert t.homology(0) == b.homology(0)


def test_tensor_interval_interval():
    a = interval_complex()
    t = tensor(a, a)
    # expanded Koszul formula by hand
    assert t.rank(0) == 4
    assert t.rank(1) == 4
    assert t.rank(2) == 1
    # sign check: d(e (x) e) = (v1 - v0) (x) e - e (x) (v1 - v0)
    col = t.basis[2].index(("e", "e"))
    d = t.differential(2)
    expect = {("v1", "e"): 1, ("v0", "e"): -1, ("e", "v1"): -1, ("e", "v0"): 1}
    got = {t.basis[1][i]: v for (i, j), v in d.data.items() if j == col}
    assert got == expect
    # contractible square
    assert t.homology(0) == (1, ())
    assert t.homology(1) == (0, ())


def test_tensor_kunneth_circle():
    # torus from two circles: Kunneth ranks 1, 2, 1 (torsion-free inputs)
    c = circle_complex()
    t = tensor(c, c)
    assert t.homology(0) == (1, ())
    assert t.homology(1) == (2, ())
    assert t.homology(2) == (1, ())


def test_chain_map_identity_and_signs():
    a = interval_complex()
    ident = ChainMap(a, a, {0: IntMatrix.identity(2), 1: IntMatrix.identity(1)})
    assert ident.matrix(0) == IntMatrix.identity(2)
    with pytest.raises(AssertionError):
        ChainMap(a, a, {0: IntMatrix.identity(2),
                        1: from_rows([[-1]])})


def test_json_export_deterministic():
    cx = circle_complex()
    s1, s2 = cx.to_json(), circle_complex().to_json()
    assert s1 == s2
    obj = json.loads(s1)
    assert obj["basis"]["0"] == ["a", "b", "c"]
    assert sorted(obj["differential"]) == ["0", "1", "2"]


# -- the per-differential Smith normal form as an oracle for the one path ------

def snf_homology(cx, d):
    """(betti, torsion) of H_d from one Smith normal form of each of the two
    differentials at d, without the unit-pivot reduction."""
    rank_d = len(intmat.snf_diagonal(cx.differential(d), cx.prime))
    inv = intmat.snf_diagonal(cx.differential(d + 1), cx.prime)
    return cx.rank(d) - rank_d - len(inv), tuple(f for f in inv if f > 1)


def assert_one_homology_path(cx, degrees=None):
    lo, hi = cx.window
    degrees = tuple(range(lo + 1, hi)) if degrees is None else degrees
    expect = {d: snf_homology(cx, d) for d in degrees}
    assert {d: cx.homology(d) for d in degrees} == expect
    assert reduced_homology(cx, degrees) == expect
    for d in degrees:
        assert reduced_homology(cx, (d,)) == {d: expect[d]}
    return expect


def seeded_torsion_complex(rng, lo=0, hi=5):
    """A direct sum of pieces Z -k-> Z (k a power of 2) and free cycles,
    with each degree's basis scrambled by a random unimodular matrix.
    Returns the complex and its homology in degrees lo+1 .. hi-1."""
    gens = {d: [] for d in range(lo, hi + 1)}     # (kind, piece id)
    pieces = []
    for d in range(lo + 1, hi + 1):
        for _ in range(rng.randrange(0, 3)):
            pieces.append((d, rng.choice((1, 2, 4, 8))))
            gens[d].append(("top", len(pieces) - 1))
            gens[d - 1].append(("bottom", len(pieces) - 1))
    for d in range(lo, hi + 1):
        for _ in range(rng.randrange(0, 2)):
            gens[d].append(("free", None))
    for d in gens:
        rng.shuffle(gens[d])
    diff = {}
    for d in range(lo + 1, hi + 1):
        rows = {g: i for i, g in enumerate(gens[d - 1])}
        data = {(rows[("bottom", pid)], j): pieces[pid][1]
                for j, (kind, pid) in enumerate(gens[d]) if kind == "top"}
        diff[d] = IntMatrix(len(gens[d - 1]), len(gens[d]), data)

    def unimodular(n):
        # a product of elementary matrices and its inverse
        u, uinv = IntMatrix.identity(n), IntMatrix.identity(n)
        for _ in range(3 * n if n > 1 else 0):
            i, j = rng.sample(range(n), 2)
            c = rng.choice((-2, -1, 1, 2))
            u = IntMatrix(n, n, {(i, j): c}) * u + u
            uinv = uinv + uinv * IntMatrix(n, n, {(i, j): -c})
        return u, uinv

    change = {d: unimodular(len(gens[d])) for d in gens}
    diff = {d: change[d - 1][0] * m * change[d][1] for d, m in diff.items()}
    basis = {d: tuple("c%d_%d" % (d, i) for i in range(len(gens[d])))
             for d in gens}
    cx = GradedIntComplex((lo, hi), basis, diff)
    expect = {}
    for d in range(lo + 1, hi):
        free = sum(1 for kind, _ in gens[d] if kind == "free")
        units = [k for (e, k) in pieces if e == d + 1]
        expect[d] = (free, tuple(sorted(k for k in units if k > 1)))
    return cx, expect


def test_one_homology_path_on_small_complexes():
    a, c = interval_complex(), circle_complex()
    for cx in (a, c, tensor(a, a), tensor(c, c), tensor(point_complex(), a),
               GradedIntComplex((-1, 2), {0: ("a", "b"), 1: ("x",)}, {}),
               GradedIntComplex((-1, 2), {0: ("a",), 1: ("b",)},
                                {1: from_rows([[2]])})):
        assert_one_homology_path(cx)


def test_one_homology_path_on_seeded_torsion_complexes():
    rng = random.Random(31)
    torsion = 0
    for _ in range(25):
        cx, expect = seeded_torsion_complex(rng)
        assert assert_one_homology_path(cx) == expect
        torsion += sum(len(t) for _, t in expect.values())
    assert torsion >= 10


def test_one_homology_path_mod_p_on_seeded_torsion_complexes():
    # universal coefficients: dim H_d(C (x) Z/p) = b_d + #{t in T_d : p | t}
    # + #{t in T_(d-1) : p | t}, for the integral groups (b_d, T_d).  Z/5 has
    # units that are not their own inverses; Z/2 and Z/3 have none.
    rng = random.Random(31)
    differs = 0
    for _ in range(25):
        cx, expect = seeded_torsion_complex(rng)
        lo, hi = cx.window
        for p in (2, 3, 5):
            modp = GradedIntComplex(cx.window, cx.basis, cx.diff, prime=p)
            got = assert_one_homology_path(modp)
            for d in range(lo + 2, hi):
                (b, tors), (_, below) = expect[d], expect[d - 1]
                dim = b + sum(1 for t in tors + below if t % p == 0)
                assert got[d] == (dim, ()), (p, d)
                differs += dim != b
    assert differs >= 10


def two_term_complex(rng, degree):
    """Z^cols -> Z^rows in degrees degree, degree - 1, entries in -3..3."""
    rows, cols = rng.randrange(1, 5), rng.randrange(1, 5)
    m = IntMatrix(rows, cols, {(i, j): rng.randrange(-3, 4)
                               for i in range(rows) for j in range(cols)})
    basis = {degree - 1: tuple("r%d" % i for i in range(rows)),
             degree: tuple("c%d" % j for j in range(cols))}
    return GradedIntComplex((degree - 2, degree + 1), basis, {degree: m})


def test_one_homology_path_where_residuals_need_gcd_steps():
    # after the unit cancellations these residuals keep non-unit entries:
    # torsion in H_0 of the two-term pieces and Tor terms in their tensor
    # products come only out of the engine's non-unit phase
    rng = random.Random(53)
    torsion = 0
    for _ in range(20):
        a, b = two_term_complex(rng, 1), two_term_complex(rng, 1)
        for cx in (a, tensor(a, b)):
            got = assert_one_homology_path(cx)
            torsion += sum(len(t) for _, t in got.values())
            for p in (2, 3):
                assert_one_homology_path(
                    GradedIntComplex(cx.window, cx.basis, cx.diff, prime=p))
    assert torsion >= 10


def test_one_homology_path_on_benchmark_bicomplexes():
    from chainops.boxprod import box_cosimplicial
    from chainops.cosimplicial import conormalize_bicomplex
    for n, level_cap, q_cap in ((None, 3, 4), (2, 3, 5), (None, 2, 4)):
        box = box_cosimplicial(2, n, level_cap, q_cap)
        assert_one_homology_path(conormalize_bicomplex(box, level_cap))


def test_one_homology_path_where_units_drop_rows_above(monkeypatch):
    # the cancellations of one degree drop rows of the differential above
    # before that engine builds its heap: T(2) at caps 4 and 3, T2(3) at
    # caps 2 and 1
    from chainops.operads import level_truncated_complex
    dropped = []
    drop_row = intmat.Eliminator.drop_row
    monkeypatch.setattr(intmat.Eliminator, "drop_row",
                        lambda self, i: dropped.append(i) or drop_row(self, i))
    for k, n, cap in ((2, None, 3), (3, 2, 1)):
        for c in (cap + 1, cap):
            dropped.clear()
            assert_one_homology_path(level_truncated_complex(k, n, c, (0, 2)))
            assert dropped


def assert_homology_basis(cx):
    """In every interior degree, homology_basis gives as many vectors as
    reduced_homology counts, each a cycle mod p, and they stay independent
    modulo the boundaries (dense elimination over Z/p); asked for one
    degree, it gives the same vectors as for all of them."""
    lo, hi = cx.window
    p = cx.prime
    cycles = homology_basis(cx, range(lo + 1, hi))
    for d in range(lo + 1, hi):
        vecs = cycles[d]
        assert homology_basis(cx, (d,)) == {d: vecs}
        assert len(vecs) == reduced_homology(cx, (d,))[d][0], d
        index = {x: i for i, x in enumerate(cx.basis[d])}
        dense = []
        for vec in vecs:
            col = [0] * cx.rank(d)
            for label, c in vec.items():
                col[index[label]] = c
            assert all(x % p == 0 for x in apply(cx.diff[d], col)), d
            dense.append(col)
        bounds = to_rows(cx.diff[d + 1].transpose())
        base = dense_row_echelon(bounds, p)[0]
        assert dense_row_echelon(bounds + dense, p)[0] == base + len(vecs), d


def test_homology_basis_on_seeded_torsion_complexes():
    rng = random.Random(31)
    classes = 0
    for _ in range(25):
        cx, _expect = seeded_torsion_complex(rng)
        for p in (2, 3):
            modp = GradedIntComplex(cx.window, cx.basis, cx.diff, prime=p)
            assert_homology_basis(modp)
            classes += sum(map(len, homology_basis(
                modp, range(cx.window[0] + 1, cx.window[1])).values()))
    assert classes >= 50


def test_homology_basis_on_hochschild_complexes():
    from chainops.hochschild import (dual_numbers_mod2, hochschild_complex,
                                     matrix2_mod2, upper_triangular_mod2)
    for R, top in ((dual_numbers_mod2(), 3), (upper_triangular_mod2(), 3),
                   (matrix2_mod2(), 2)):
        assert_homology_basis(hochschild_complex(R, top))


def test_homology_basis_refuses_z_and_degrees_outside_the_window():
    with pytest.raises(InvalidComplex):
        homology_basis(circle_complex(), (0,))
    cx = circle_complex()
    modp = GradedIntComplex(cx.window, cx.basis, cx.diff, prime=2)
    assert len(homology_basis(modp, (0,))[0]) == 1
    for d in (cx.window[0], cx.window[1]):
        with pytest.raises(DegreeOutsideWindow):
            homology_basis(modp, (0, d))


def _operators_json(cofaces, codegens):
    """Deterministic JSON of cosimplicial operators: (key, matrix) pairs, or
    (key, {internal degree: matrix}) for a cosimplicial chain complex."""
    def mat(m):
        return [m.rows, m.cols, sorted([i, j, v] for (i, j), v in m.data.items())]

    def table(ops):
        return [[list(key), {str(m): mat(x) for m, x in sorted(v.items())}
                 if isinstance(v, dict) else mat(v)]
                for key, v in sorted(ops.items())]
    return json.dumps([table(cofaces), table(codegens)])


def _dual_circle():
    from chainops.simplicial import simplicial_circle
    A = simplicial_circle().dual_cosimplicial(3)
    return _operators_json(A.cofaces, A.codegens)


def _box_operators():
    from chainops.boxprod import box_cosimplicial
    B = box_cosimplicial(2, None, 2, 4)
    return _operators_json(B.cofaces, B.codegens)


def _assembled(name):
    from chainops.boxprod import box_level
    from chainops.operads import level_truncated_complex, symbol_complex
    from chainops.simplicial import (simplicial_circle, standard_simplex_chains,
                                     standard_simplex_sset)
    builders = {
        "symbol_complex": lambda: symbol_complex(2, None, 4),
        "level_truncated_complex": lambda: level_truncated_complex(3, 2, 1, (0, 2)),
        "box_level": lambda: box_level(2, None, 2, 4),
        "standard_simplex_chains": lambda: standard_simplex_chains(3),
        "cochain_complex": lambda: standard_simplex_sset(2).cochain_complex(),
        "tensor": lambda: tensor(standard_simplex_chains(1),
                                 simplicial_circle().cochain_complex()),
    }
    if name in builders:
        return builders[name]().to_json()
    return {"dual_cosimplicial": _dual_circle,
            "box_cosimplicial": _box_operators}[name]()


# sha256 of each complex's to_json() (of the operator matrices for the two
# cosimplicial objects): a change to any basis order, label or entry shows
ASSEMBLED_DIGESTS = {
    "symbol_complex":
        "ca973cb930db4eb37d2eb29f703cb3b8a423a7976a06063b4f13de8ecfa4e99e",
    "level_truncated_complex":
        "f692cea9f0dbf90aea5146fe6d5a82e41641a39722f2de12a47811ebb2ad396f",
    "box_level":
        "6b8b2d3840a4197c5ea5731c1d26a48e813c33c17551ee44360030fb4827d806",
    "standard_simplex_chains":
        "d74ca94bb98750d84eec9900bca21f572d220a6a6f92033321a302e784e5b2b5",
    "cochain_complex":
        "d77452a76c5dd9a31f161a60121d120724e5603872aaec8e03bdb94d994ad742",
    "tensor":
        "76f574370834d5160d9e5c8f3cab07587a62e4a6d925c8e8c840327d944ee5c6",
    "dual_cosimplicial":
        "5b5f6a197cf4f1010985b32d483a981765cfe460e403cc2a8c7e9b76210da23b",
    "box_cosimplicial":
        "613c3a4a11eb86e856b2d42b6f56454ef04906fcbad1a19be6a5246eca4902fa",
}


@pytest.mark.parametrize("name", sorted(ASSEMBLED_DIGESTS))
def test_assembled_complexes_golden(name):
    digest = hashlib.sha256(_assembled(name).encode()).hexdigest()
    assert digest == ASSEMBLED_DIGESTS[name]
