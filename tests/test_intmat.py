import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest

import chainops
from chainops import intmat
from chainops.intmat import IntMatrix


def det_sign_unimodular(m):
    """Determinant (+-1) of a unimodular matrix by elimination over Q."""
    n = m.rows
    assert n == m.cols
    a = [[Fraction(x) for x in row] for row in m.to_rows()]
    det = Fraction(1)
    for s in range(n):
        piv = next((i for i in range(s, n) if a[i][s]), None)
        if piv is None:
            return 0
        if piv != s:
            a[s], a[piv] = a[piv], a[s]
            det = -det
        det *= a[s][s]
        for i in range(s + 1, n):
            f = a[i][s] / a[s][s]
            if f:
                a[i] = [x - f * y for x, y in zip(a[i], a[s])]
    assert det.denominator == 1
    return int(det)


def dense_row_echelon(rows, p):
    """Reduced row echelon over Z/p on dense rows; returns (rank, echelon
    rows, pivot columns).  The dense eliminator the sparse engine replaced,
    kept as an oracle."""
    rows = [list(r) for r in rows]
    cols = len(rows[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(cols):
        piv = next((i for i in range(r, len(rows)) if rows[i][c] % p), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = pow(rows[r][c], p - 2, p) if p > 2 else rows[r][c] % p
        rows[r] = [(x * inv) % p for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] % p:
                f = rows[i][c] % p
                rows[i] = [(x - f * y) % p for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return r, rows[:r], pivots


def column(vec):
    return IntMatrix.from_columns([vec], rows=len(vec))


def is_diagonal(m):
    return all(i == j for (i, j) in m.data)


def check_snf(m):
    diag, u, v = intmat.smith_normal_form(m)
    prod = u * m * v
    assert is_diagonal(prod)
    got = [prod.entry(i, i) for i in range(min(m.rows, m.cols))]
    assert [d for d in got if d] == diag
    for a, b in zip(diag, diag[1:]):
        assert b % a == 0 and a > 0
    assert abs(det_sign_unimodular(u)) == 1
    assert abs(det_sign_unimodular(v)) == 1
    return diag


def test_snf_hand_example():
    # |det| = 8 = 2*4, gcd of entries = 2
    m = IntMatrix.from_rows([[2, 4], [6, 8]])
    assert check_snf(m) == [2, 4]


def test_snf_identity():
    assert check_snf(IntMatrix.identity(3)) == [1, 1, 1]


def test_snf_zero():
    assert check_snf(IntMatrix.zeros(2, 3)) == []


def test_snf_empty():
    assert check_snf(IntMatrix.zeros(0, 0)) == []
    assert check_snf(IntMatrix.zeros(0, 4)) == []


def test_snf_random():
    rng = random.Random(7)
    for _ in range(60):
        rows = rng.randrange(0, 6)
        cols = rng.randrange(0, 6)
        m = IntMatrix(rows, cols,
                      {(i, j): rng.randrange(-9, 10)
                       for i in range(rows) for j in range(cols)})
        check_snf(m)


def test_kernel_basis():
    rng = random.Random(11)
    for _ in range(40):
        rows = rng.randrange(1, 5)
        cols = rng.randrange(1, 6)
        m = IntMatrix(rows, cols,
                      {(i, j): rng.randrange(-4, 5)
                       for i in range(rows) for j in range(cols)})
        k = intmat.kernel_basis(m)
        assert (m * k).is_zero()
        assert len(intmat.snf_diagonal(k)) == k.cols
        assert k.cols == cols - intmat.rank(m)
        # saturated: all invariant factors are 1
        assert all(f == 1 for f in intmat.snf_diagonal(k))


def test_solve():
    rng = random.Random(13)
    hits = 0
    for _ in range(60):
        rows = rng.randrange(1, 5)
        cols = rng.randrange(1, 5)
        m = IntMatrix(rows, cols,
                      {(i, j): rng.randrange(-4, 5)
                       for i in range(rows) for j in range(cols)})
        x = [rng.randrange(-3, 4) for _ in range(cols)]
        b = m.apply(x)
        sol = intmat.solve(m, column(b))
        assert sol is not None
        assert m * sol == column(b)
        hits += 1
    assert hits == 60


def test_solve_unsolvable():
    m = IntMatrix.from_rows([[2]])
    assert intmat.solve(m, column([1])) is None
    assert intmat.solve(m, column([4])) == column([2])


def test_inverse_unimodular():
    m = IntMatrix.from_rows([[1, 2], [0, 1]])
    inv = intmat.inverse_unimodular(m)
    assert m * inv == IntMatrix.identity(2)
    assert inv * m == IntMatrix.identity(2)


def test_matrix_ops():
    a = IntMatrix.from_rows([[1, 2], [3, 4]])
    b = IntMatrix.from_rows([[0, 1], [1, 0]])
    assert (a * b).to_rows() == [[2, 1], [4, 3]]
    assert (a + b).to_rows() == [[1, 3], [4, 4]]
    assert (a - a).is_zero()
    assert a.transpose().to_rows() == [[1, 3], [2, 4]]
    assert a.apply([1, 1]) == [3, 7]


def random_matrix(rng, rows, cols, lo=-4, hi=5):
    return IntMatrix(rows, cols, {(i, j): rng.randrange(lo, hi)
                                  for i in range(rows) for j in range(cols)})


def test_multi_column_solve_equals_columnwise():
    rng = random.Random(17)
    unsolvable = 0
    for _ in range(60):
        rows, cols, rhs = (rng.randrange(1, 6), rng.randrange(1, 6),
                           rng.randrange(0, 4))
        m = random_matrix(rng, rows, cols)
        b = random_matrix(rng, cols, rhs, -3, 4)
        b = m * b
        if rhs and rng.random() < 0.5:
            # one column off the lattice m Z^cols, when m is not onto
            extra = random_matrix(rng, rows, 1, -5, 6)
            if intmat.solve(m, extra) is None:
                b = b.stack_cols(extra)
        each = [intmat.solve(m, b.submatrix_cols([j])) for j in range(b.cols)]
        whole = intmat.solve(m, b)
        if any(x is None for x in each):
            unsolvable += 1
            assert whole is None
            continue
        assert whole is not None and m * whole == b
        for j, x in enumerate(each):
            assert whole.submatrix_cols([j]) == x
    assert unsolvable > 5


@pytest.mark.parametrize("p", [2, 3, 5])
def test_modp_engine_equals_dense_echelon(p):
    rng = random.Random(100 + p)
    unsolvable = 0
    for _ in range(60):
        rows, cols = rng.randrange(0, 7), rng.randrange(0, 7)
        m = random_matrix(rng, rows, cols, -6, 7)
        dense = [[x % p for x in row] for row in m.to_rows()]
        rk, ech, pivots = dense_row_echelon(dense, p)
        assert intmat.rank(m, p) == rk
        diag = intmat.snf_diagonal(m, p)
        assert diag == [1] * rk
        k = intmat.kernel_basis(m, p)
        assert (k.rows, k.cols) == (cols, cols - rk)
        assert all(0 <= x < p for x in k.data.values())
        assert all(x % p == 0 for x in (m * k).data.values())
        assert intmat.rank(k, p) == k.cols
        if not rows:
            continue
        # a solvable and a random right-hand side; the dense oracle decides
        x0 = random_matrix(rng, cols, 1, 0, p)
        b = (m * x0).stack_cols(random_matrix(rng, rows, 1, 0, p))
        for j in range(b.cols):
            rhs = b.submatrix_cols([j])
            aug = [row + [rhs.entry(i, 0) % p] for i, row in enumerate(dense)]
            solvable = cols not in dense_row_echelon(aug, p)[2]
            x = intmat.solve(m, rhs, p)
            assert (x is not None) == solvable
            if x is None:
                unsolvable += 1
                continue
            assert all(0 <= v < p for v in x.data.values())
            assert all(v % p == 0 for v in (m * x - rhs).data.values())
        x = intmat.solve(m, b, p)
        assert (x is None) == any(intmat.solve(m, b.submatrix_cols([j]), p)
                                  is None for j in range(b.cols))
    assert unsolvable > 5


def test_inverse_unimodular_rejects():
    with pytest.raises(intmat.NotUnimodular):
        intmat.inverse_unimodular(IntMatrix.from_rows([[2, 0], [0, 1]]))
    with pytest.raises(intmat.NotUnimodular):
        intmat.inverse_unimodular(IntMatrix.from_rows([[1, 0]]))
    assert issubclass(intmat.NotUnimodular, AssertionError)


def test_not_unimodular_under_optimize():
    # python -O strips assert statements; the unimodularity check must fire
    script = "\n".join([
        "from chainops import intmat",
        "assert False, 'asserts are live'",
        "try:",
        "    intmat.inverse_unimodular(intmat.IntMatrix.from_rows([[2]]))",
        "except intmat.NotUnimodular as exc:",
        "    print('rejected:', exc)",
    ])
    src = os.path.dirname(os.path.dirname(os.path.abspath(chainops.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("rejected: matrix is not unimodular")
