import json
import os
import subprocess
import sys

import pytest

import chainops
from chainops.intmat import IntMatrix
from chainops.complexes import (DegreeOutsideWindow, GradedIntComplex, ChainMap,
                                NotSquareZero, point_complex, tensor)


def interval_complex():
    # Z^2 <- Z with de = v1 - v0
    return GradedIntComplex(
        (-1, 2), {0: ("v0", "v1"), 1: ("e",)},
        {1: IntMatrix.from_rows([[-1], [1]])})


def circle_complex():
    # 3 vertices, 3 edges, standard boundary
    d = IntMatrix.from_rows([
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
        a = [[Fraction(v) for v in row] for row in m.to_rows()]
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
                          {1: IntMatrix.from_rows([[2]])})
    assert cx.homology(0) == (0, (2,))
    assert cx.homology(1) == (0, ())


def test_degree_outside_window():
    cx = circle_complex()
    with pytest.raises(DegreeOutsideWindow):
        cx.homology(2)


def test_dd_zero_enforced():
    bad = {1: IntMatrix.from_rows([[1], [0]]),
           2: IntMatrix.from_rows([[1], [1]])}
    with pytest.raises(AssertionError):
        GradedIntComplex((0, 2), {0: ("a", "b"), 1: ("x", "y"), 2: ("u",)}, bad)


def test_dd_zero_enforced_under_optimize():
    # python -O strips assert statements; the d o d check must still fire
    script = "\n".join([
        "from chainops.intmat import IntMatrix",
        "from chainops.complexes import GradedIntComplex, NotSquareZero",
        "assert False, 'asserts are live'",
        "bad = {1: IntMatrix.from_rows([[1], [0]]),",
        "       2: IntMatrix.from_rows([[1], [1]])}",
        "try:",
        "    GradedIntComplex((0, 2), {0: ('a', 'b'), 1: ('x', 'y'),",
        "                              2: ('u',)}, bad)",
        "except NotSquareZero as exc:",
        "    print('rejected:', exc)",
    ])
    src = os.path.dirname(os.path.dirname(os.path.abspath(chainops.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("rejected: d o d != 0")
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
                        1: IntMatrix.from_rows([[-1]])})


def test_json_export_deterministic():
    cx = circle_complex()
    s1, s2 = cx.to_json(), circle_complex().to_json()
    assert s1 == s2
    obj = json.loads(s1)
    assert obj["basis"]["0"] == ["a", "b", "c"]
    assert sorted(obj["differential"]) == ["0", "1", "2"]
