import ast
import hashlib
import json
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest

import chainops
from chainops import intmat
from chainops.intmat import IntMatrix


def from_rows(rows_list):
    """The matrix with these dense rows, all of one length."""
    cols = len(rows_list[0]) if rows_list else 0
    assert all(len(row) == cols for row in rows_list)
    return IntMatrix(len(rows_list), cols, {
        (i, j): v for i, row in enumerate(rows_list)
        for j, v in enumerate(row) if v})


def from_columns(cols_list, rows=None):
    """The matrix with these dense columns, all of length ``rows``."""
    if rows is None:
        rows = len(cols_list[0]) if cols_list else 0
    assert all(len(col) == rows for col in cols_list)
    return IntMatrix(rows, len(cols_list), {
        (i, j): v for j, col in enumerate(cols_list)
        for i, v in enumerate(col) if v})


def to_rows(m):
    """The dense rows of m."""
    out = [[0] * m.cols for _ in range(m.rows)]
    for (i, j), v in m.data.items():
        out[i][j] = v
    return out


def det_sign_unimodular(m):
    """Determinant (+-1) of a unimodular matrix by elimination over Q."""
    n = m.rows
    assert n == m.cols
    a = [[Fraction(x) for x in row] for row in to_rows(m)]
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
    return from_columns([vec], rows=len(vec))


def apply(m, vec):
    """m applied to a dense column vector (a list of ints)."""
    assert len(vec) == m.cols
    out = [0] * m.rows
    for (i, j), v in m.data.items():
        out[i] += v * vec[j]
    return out


def column_of(m, j):
    """Column j of m as a one-column matrix."""
    return IntMatrix(m.rows, 1, {(i, 0): v for (i, l), v in m.data.items()
                                 if l == j})


def is_diagonal(m):
    return all(i == j for (i, j) in m.data)


def check_snf(m):
    diag, u, v = intmat.smith_normal_form(m)
    prod = u * m * v
    assert is_diagonal(prod)
    got = [prod.data.get((i, i), 0) for i in range(min(m.rows, m.cols))]
    assert [d for d in got if d] == diag
    for a, b in zip(diag, diag[1:]):
        assert b % a == 0 and a > 0
    assert abs(det_sign_unimodular(u)) == 1
    assert abs(det_sign_unimodular(v)) == 1
    return diag


def test_snf_hand_example():
    # |det| = 8 = 2*4, gcd of entries = 2
    m = from_rows([[2, 4], [6, 8]])
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
        b = apply(m, x)
        sol = intmat.solve(m, column(b))
        assert sol is not None
        assert m * sol == column(b)
        hits += 1
    assert hits == 60


def test_solve_unsolvable():
    m = from_rows([[2]])
    assert intmat.solve(m, column([1])) is None
    assert intmat.solve(m, column([4])) == column([2])


def test_inverse_unimodular():
    m = from_rows([[1, 2], [0, 1]])
    inv = intmat.inverse_unimodular(m)
    assert m * inv == IntMatrix.identity(2)
    assert inv * m == IntMatrix.identity(2)


def test_matrix_ops():
    a = from_rows([[1, 2], [3, 4]])
    b = from_rows([[0, 1], [1, 0]])
    assert to_rows(a * b) == [[2, 1], [4, 3]]
    assert to_rows(a + b) == [[1, 3], [4, 4]]
    assert (a - a).is_zero()
    assert to_rows(a.transpose()) == [[1, 3], [2, 4]]
    assert apply(a, [1, 1]) == [3, 7]


def test_products_store_no_zeros():
    # derived matrices skip the constructor's checks, so they must come out
    # as it would leave them: entries that cancel are not stored
    a = from_rows([[1, 1], [2, 0]])
    b = from_rows([[1, 0], [-1, 3]])
    assert (a * b).data == {(0, 1): 3, (1, 0): 2}
    assert (a - a).data == {} and (0 * a).data == {}
    assert (a * b) == from_rows([[0, 3], [2, 0]])


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
        each = [intmat.solve(m, column_of(b, j)) for j in range(b.cols)]
        whole = intmat.solve(m, b)
        if any(x is None for x in each):
            unsolvable += 1
            assert whole is None
            continue
        assert whole is not None and m * whole == b
        for j, x in enumerate(each):
            assert column_of(whole, j) == x
    assert unsolvable > 5


@pytest.mark.parametrize("p", [2, 3, 5])
def test_modp_engine_equals_dense_echelon(p):
    rng = random.Random(100 + p)
    unsolvable = 0
    for _ in range(60):
        rows, cols = rng.randrange(0, 7), rng.randrange(0, 7)
        m = random_matrix(rng, rows, cols, -6, 7)
        dense = [[x % p for x in row] for row in to_rows(m)]
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
            rhs = column_of(b, j)
            aug = [row + [rhs.data.get((i, 0), 0) % p]
                   for i, row in enumerate(dense)]
            solvable = cols not in dense_row_echelon(aug, p)[2]
            x = intmat.solve(m, rhs, p)
            assert (x is not None) == solvable
            if x is None:
                unsolvable += 1
                continue
            assert all(0 <= v < p for v in x.data.values())
            assert all(v % p == 0 for v in (m * x - rhs).data.values())
        x = intmat.solve(m, b, p)
        assert (x is None) == any(intmat.solve(m, column_of(b, j), p)
                                  is None for j in range(b.cols))
    assert unsolvable > 5


def test_from_images():
    # repeated targets sum, zero sums are dropped, columns follow the sources
    image = {"u": [("a", 1), ("b", 2), ("a", 3)], "v": [("b", 1), ("b", -1)],
             "w": []}
    m = IntMatrix.from_images(("u", "v", "w"), ("a", "b"), image.__getitem__)
    assert (m.rows, m.cols) == (2, 3)
    assert m.data == {(0, 0): 4, (1, 0): 2}
    with pytest.raises(KeyError):
        IntMatrix.from_images(("u",), ("a",), image.__getitem__)


def test_submatrix():
    # the entries at the given rows and columns, renumbered in the order
    # given, keep their order in the matrix
    m = IntMatrix(3, 4, {(2, 3): 5, (0, 1): -1, (1, 3): 2, (2, 1): 7,
                         (0, 0): 3})
    sub = m.submatrix([2, 0], [3, 1])
    assert (sub.rows, sub.cols) == (2, 2)
    assert list(sub.data.items()) == [((0, 0), 5), ((1, 1), -1), ((0, 1), 7)]
    whole = m.submatrix(range(3), range(4))
    assert whole == m and list(whole.data) == list(m.data)
    for rows, cols in (([], []), ([], [0, 2]), ([1], [])):
        empty = m.submatrix(rows, cols)
        assert (empty.rows, empty.cols) == (len(rows), len(cols))
        assert empty.is_zero()
    for rows, cols in (([0, 0], [1]), ([3], [0]), ([0], [-1])):
        with pytest.raises(intmat.ShapeMismatch):
            m.submatrix(rows, cols)
    rng = random.Random(53)
    for _ in range(40):
        a = random_matrix(rng, rng.randrange(6), rng.randrange(6))
        rows = rng.sample(range(a.rows), rng.randrange(a.rows + 1))
        cols = rng.sample(range(a.cols), rng.randrange(a.cols + 1))
        dense = to_rows(a)
        assert to_rows(a.submatrix(rows, cols)) == [
            [dense[i][j] for j in cols] for i in rows]


# -- every operation against dense rows ---------------------------------------

def sparse_rows(rng, rows, cols):
    """Dense rows with about half their entries zero, so that whole rows
    and columns are often empty."""
    return [[rng.randrange(-3, 4) if rng.random() < 0.4 else 0
             for _ in range(cols)] for _ in range(rows)]


def shapes(rng, count):
    """Rectangular shapes, the empty ones 0 x n, n x 0 and 0 x 0 first."""
    yield from ((0, 3), (3, 0), (0, 0), (1, 1))
    for _ in range(count):
        yield rng.randrange(1, 7), rng.randrange(1, 7)


def assert_matrix(m, rows, cols, dense):
    """m is the rows x cols matrix with these dense rows, read every way:
    columns(), .data (in column order), is_zero and ==."""
    assert (m.rows, m.cols) == (rows, cols)
    want = {j: {i: dense[i][j] for i in range(rows) if dense[i][j]}
            for j in range(cols)}
    want = {j: col for j, col in want.items() if col}
    got = m.columns()
    assert {j: dict(col) for j, col in got.items()} == want
    assert all(col and all(type(v) is int and v for v in col.values())
               for col in got.values())
    entries = {(i, j): v for j, col in want.items() for i, v in col.items()}
    assert m.data == entries
    order = [j for _, j in m.data]
    assert order == sorted(order, key=order.index)      # grouped by column
    assert m.is_zero() == (not entries)
    assert m == IntMatrix(rows, cols, entries)
    assert m != IntMatrix(rows, cols + 1, entries)
    if rows and cols:
        bumped = dict(entries)
        bumped[(0, 0)] = bumped.get((0, 0), 0) + 1
        assert m != IntMatrix(rows, cols, bumped)


def dense_matrix(rows, cols, dense):
    return IntMatrix(rows, cols, {(i, j): v for i, row in enumerate(dense)
                                  for j, v in enumerate(row) if v})


def test_operations_equal_dense_oracle():
    rng = random.Random(61)
    for rows, cols in shapes(rng, 40):
        inner, extra = rng.randrange(0, 5), rng.randrange(0, 3)
        a_rows, b_rows = sparse_rows(rng, rows, cols), sparse_rows(rng, rows,
                                                                   cols)
        c_rows = sparse_rows(rng, cols, inner)
        d_rows, e_rows = sparse_rows(rng, extra, cols), sparse_rows(rng, rows,
                                                                    extra)
        a, b, c, d, e = (dense_matrix(rows, cols, a_rows),
                         dense_matrix(rows, cols, b_rows),
                         dense_matrix(cols, inner, c_rows),
                         dense_matrix(extra, cols, d_rows),
                         dense_matrix(rows, extra, e_rows))
        assert_matrix(a, rows, cols, a_rows)
        assert_matrix(a * c, rows, inner, [
            [sum(a_rows[i][t] * c_rows[t][j] for t in range(cols))
             for j in range(inner)] for i in range(rows)])
        assert_matrix(a + b, rows, cols, [[x + y for x, y in zip(r, s)]
                                          for r, s in zip(a_rows, b_rows)])
        assert_matrix(a - b, rows, cols, [[x - y for x, y in zip(r, s)]
                                          for r, s in zip(a_rows, b_rows)])
        assert_matrix(-a, rows, cols, [[-x for x in r] for r in a_rows])
        for k in (0, 1, -2):
            assert_matrix(k * a, rows, cols, [[k * x for x in r]
                                              for r in a_rows])
        assert_matrix(a.transpose(), cols, rows,
                      [[a_rows[i][j] for i in range(rows)]
                       for j in range(cols)])
        assert_matrix(a.stack_rows(d), rows + extra, cols, a_rows + d_rows)
        assert_matrix(a.stack_cols(e), rows, cols + extra,
                      [r + s for r, s in zip(a_rows, e_rows)])
        keep_rows = rng.sample(range(rows), rng.randrange(rows + 1))
        keep_cols = rng.sample(range(cols), rng.randrange(cols + 1))
        assert_matrix(a.submatrix(keep_rows, keep_cols), len(keep_rows),
                      len(keep_cols), [[a_rows[i][j] for j in keep_cols]
                                       for i in keep_rows])


def test_from_images_equals_dense_oracle():
    # images with repeated targets, some of them cancelling to zero
    rng = random.Random(67)
    for rows, cols in shapes(rng, 40):
        targets = ["t%d" % i for i in range(rows)]
        sources = ["s%d" % j for j in range(cols)]
        images, dense = {}, [[0] * cols for _ in range(rows)]
        for j, s in enumerate(sources):
            terms = []
            for _ in range(rng.randrange(0, 6) if rows else 0):
                i, v = rng.randrange(rows), rng.randrange(-3, 4)
                terms.append((targets[i], v))
                dense[i][j] += v
                if rng.random() < 0.3:
                    terms.append((targets[i], -v))
                    dense[i][j] -= v
            rng.shuffle(terms)
            images[s] = terms
        m = IntMatrix.from_images(sources, targets, images.__getitem__)
        assert_matrix(m, rows, cols, dense)


def test_non_integral_entries_raise():
    # a fractional entry used to be truncated into the matrix (an explicit
    # 0 for 1/2, so that a 2 x 2 matrix had rank 2 and diagonal [1, 0])
    with pytest.raises(ValueError):
        IntMatrix(2, 2, {(0, 0): Fraction(1, 2), (1, 1): 1})
    with pytest.raises(ValueError):
        IntMatrix.from_images(("u",), ("a",), lambda s: [("a", Fraction(3, 2))])
    with pytest.raises(ValueError):
        Fraction(1, 2) * IntMatrix.identity(2)
    # integral values are taken as ints, also as Fractions or as halves
    # that add up
    m = IntMatrix(2, 2, {(0, 0): Fraction(4, 2), (1, 1): Fraction(-3)})
    assert m.data == {(0, 0): 2, (1, 1): -3}
    assert all(type(v) is int for v in m.data.values())
    assert intmat.snf_diagonal(m) == [1, 6]
    half = Fraction(1, 2)
    m = IntMatrix.from_images(("u",), ("a", "b"),
                              lambda s: [("a", half), ("b", 2), ("a", half)])
    assert m.data == {(0, 0): 1, (1, 0): 2}
    assert all(type(v) is int for v in m.data.values())


def test_data_is_a_read_only_view():
    m = from_rows([[1, 0], [2, 3]])
    view = m.data
    assert len(view) == 3 and (1, 1) in view and (0, 1) not in view
    assert view[(1, 0)] == 2 and view.get((0, 1), 0) == 0
    with pytest.raises(KeyError):
        view[(0, 1)]
    with pytest.raises(TypeError):
        view[(0, 1)] = 5
    with pytest.raises(AttributeError):
        m.data = {}
    assert m == from_rows([[1, 0], [2, 3]])


def test_only_intmat_reads_matrix_entries():
    # the column store and its derived entry dict are intmat's storage
    # format; every other module goes through IntMatrix's methods
    # (columns, submatrix, from_images, ...)
    src = os.path.dirname(chainops.__file__)
    modules = sorted(name for name in os.listdir(src)
                     if name.endswith(".py") and name != "intmat.py")
    assert len(modules) >= 10
    readers = []
    for name in modules:
        with open(os.path.join(src, name)) as f:
            tree = ast.parse(f.read(), name)
        readers += [(name, node.lineno) for node in ast.walk(tree)
                    if isinstance(node, ast.Attribute)
                    and node.attr in ("data", "_store")]
    assert readers == []


def test_vec_sum_over_z_and_mod_p():
    # zeros dropped after summing, keys in first-seen order, coefficients
    # reduced into 0..p-1 over Z/p
    terms = [("a", 2), ("b", 3), ("c", 1), ("a", -2), ("b", 2), ("d", 0)]
    assert list(intmat.vec_sum(terms).items()) == [("b", 5), ("c", 1)]
    assert list(intmat.vec_sum(terms, 5).items()) == [("c", 1)]
    assert list(intmat.vec_sum(terms, 3).items()) == [("b", 2), ("c", 1)]
    assert intmat.vec_sum([("x", -1)], 7) == {"x": 6}
    assert intmat.vec_sum(iter(())) == {}


def test_inverse_unimodular_rejects():
    with pytest.raises(intmat.NotUnimodular):
        intmat.inverse_unimodular(from_rows([[2, 0], [0, 1]]))
    with pytest.raises(intmat.NotUnimodular):
        intmat.inverse_unimodular(from_rows([[1, 0]]))
    assert issubclass(intmat.NotUnimodular, AssertionError)


def test_not_unimodular_under_optimize():
    # python -O strips assert statements; the unimodularity check must fire
    script = "\n".join([
        "from chainops import intmat",
        "assert False, 'asserts are live'",
        "try:",
        "    intmat.inverse_unimodular(intmat.IntMatrix(1, 1, {(0, 0): 2}))",
        "except intmat.NotUnimodular as exc:",
        "    print('rejected:', exc)",
        "col = intmat.IntMatrix(2, 1, {(0, 0): 1, (1, 0): 1})",
        "try:",
        "    col * col",
        "except intmat.ShapeMismatch as exc:",
        "    print('rejected:', exc)",
    ])
    src = os.path.dirname(os.path.dirname(os.path.abspath(chainops.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "rejected: matrix is not unimodular",
        "rejected: product of IntMatrix(2, 1, nnz=2) and IntMatrix(2, 1, nnz=2)"]


# -- both phases of the engine: unit cancellations and non-unit pivots --------

def scrambled(rng, m):
    """u * m * v for random products u, v of elementary unimodular matrices."""
    def unimodular(n):
        u = IntMatrix.identity(n)
        for _ in range(2 * n if n > 1 else 0):
            i, j = rng.sample(range(n), 2)
            u = u + IntMatrix(n, n, {(i, j): rng.choice((-2, -1, 1, 2))}) * u
        return u
    return unimodular(m.rows) * m * unimodular(m.cols)


def mixed_matrices(seed, count=40):
    """Seeded integer matrices that need unit and non-unit pivots: entries in
    -3..3, and diag(2, 4, 6) (+) an identity block (+) zeros, scrambled.
    Yields (matrix, its invariant factors or None when not known)."""
    rng = random.Random(seed)
    for t in range(count):
        if t % 2:
            yield random_matrix(rng, rng.randrange(1, 7), rng.randrange(1, 7),
                                -3, 4), None
            continue
        units, rows, cols = (rng.randrange(0, 4), rng.randrange(0, 2),
                             rng.randrange(0, 2))
        factors = [2, 4, 6] + [1] * units
        n = len(factors)
        block = IntMatrix(n + rows, n + cols,
                          {(i, i): f for i, f in enumerate(factors)})
        # diag(2, 4, 6) has invariant factors 2, 2, 12
        yield scrambled(rng, block), [1] * units + [2, 2, 12]


def test_engine_on_mixed_matrices():
    rng = random.Random(41)
    known = 0
    for m, want in mixed_matrices(41):
        diag = check_snf(m)
        if want is not None:
            assert diag == want
            known += 1
        r = len(diag)
        assert intmat.rank(m) == r
        assert intmat.snf_diagonal(m) == diag
        k = intmat.kernel_basis(m)
        assert (m * k).is_zero()
        assert r + k.cols == m.cols
        assert intmat.snf_diagonal(k) == [1] * k.cols      # saturated
        x = random_matrix(rng, m.cols, 2, -3, 4)
        sol = intmat.solve(m, m * x)
        assert sol is not None and m * sol == m * x
    assert known == 20


@pytest.mark.parametrize("p", [2, 3, 5])
def test_engine_on_mixed_matrices_mod_p(p):
    for m, _ in mixed_matrices(43 + p):
        dense = [[x % p for x in row] for row in to_rows(m)]
        rk = dense_row_echelon(dense, p)[0]
        diag, u, v = intmat.smith_normal_form(m, p)
        assert diag == [1] * rk
        prod = {ij: x % p for ij, x in (u * m * v).data.items() if x % p}
        assert prod == {(i, i): 1 for i in range(rk)}
        for t in (u, v):
            assert all(0 <= x < p for x in t.data.values())
            assert dense_row_echelon(to_rows(t), p)[0] == t.rows
        k = intmat.kernel_basis(m, p)
        assert all(x % p == 0 for x in (m * k).data.values())
        assert k.cols == m.cols - rk == dense_row_echelon(to_rows(k), p)[0]


def snf_digest(factorizations):
    """SHA-256 over the (diag, u, v) of tracked Smith normal forms."""
    h = hashlib.sha256()
    for diag, u, v in factorizations:
        h.update(json.dumps([diag, sorted(u.data.items()),
                             sorted(v.data.items())]).encode())
    return h.hexdigest()


def test_tracked_snf_keeps_its_pivot_order():
    # u and v depend on the order of the pivots; these digests were taken
    # with the heap keyed by (fill, row, column) tuples, built on
    # construction, and pin that order; the engine meets the entries of the
    # hand-built mixed matrices column by column since matrices are stored
    # by column, and the first digest was taken so
    from chainops.operads import level_truncated_complex
    assert snf_digest(intmat.smith_normal_form(m, p)
                      for m, _ in mixed_matrices(41) for p in (0, 3)) == \
        "63a2ef49396ad5d84648467a42ffdfb0ed538ab73de2bc9ff0e06950a4c969f3"
    cx = level_truncated_complex(3, 2, 1, (0, 2))
    assert snf_digest(intmat.smith_normal_form(cx.diff[d])
                      for d in sorted(cx.diff)) == \
        "4c6e8d26c1fb14627a23e2865fb200489906c1c19a49a3e7ff3a9e3c75b3213a"


def test_unit_columns_need_no_gcd_step(monkeypatch):
    # a matrix of +-1 unit columns (a coordinate quotient) is eliminated by
    # the heap alone: one cancellation per distinct row hit
    def no_gcd(self, i, j):
        raise AssertionError("non-unit pivot at %r" % ((i, j),))
    monkeypatch.setattr(intmat.Eliminator, "_reduce", no_gcd)
    rng = random.Random(47)
    for _ in range(30):
        rows, cols = rng.randrange(1, 8), rng.randrange(0, 8)
        hit = [rng.randrange(rows) for _ in range(cols)]
        m = IntMatrix(rows, cols, {(i, j): rng.choice((-1, 1))
                                   for j, i in enumerate(hit)})
        diag = check_snf(m)
        assert diag == [1] * len(set(hit))
