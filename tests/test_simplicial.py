import os
import random
import subprocess
import sys

import pytest

from chainops import delta, intmat
from chainops.delta import FinOrd
from chainops.simplicial import (Cell, FiniteSimplicialSet,
                                 InvalidSimplicialSet, simplicial_circle,
                                 standard_simplex_chains, standard_simplex_sset,
                                 from_simplicial_complex)


def test_standard_simplex_chains_ranks():
    cx = standard_simplex_chains(1)
    assert [cx.rank(0), cx.rank(1)] == [2, 1]
    # d(01) = (1) - (0), by direct enumeration of injections
    d = cx.differential(1)
    assert {cx.basis[0][i]: v for (i, j), v in d.data.items()} == {(1,): 1, (0,): -1}

    cx = standard_simplex_chains(2)
    assert [cx.rank(j) for j in range(3)] == [3, 3, 1]
    assert cx.homology(0) == (1, ())
    assert cx.homology(1) == (0, ())
    assert cx.homology(2) == (0, ())

    cx = standard_simplex_chains(0)
    assert cx.rank(0) == 1 and cx.homology(0) == (1, ())


def test_simplex_sset_counts():
    W = standard_simplex_sset(2)
    assert [len(W.nondegenerate(d)) for d in range(3)] == [3, 3, 1]
    # m-cells of Delta^2 are the weakly increasing (m+1)-tuples in {0,1,2}
    from math import comb
    for m in range(5):
        assert len(W.cells(m)) == comb(m + 3, 2)


def subset_simplex_sset(n):
    """Delta^n built directly: its j-simplices are the (j+1)-subsets of
    {0..n}, each face dropping one vertex; the oracle of
    ``standard_simplex_sset``."""
    from itertools import combinations
    from chainops.simplicial import vertex_name
    simplices = {}
    faces = {}
    for j in range(n + 1):
        names = []
        for verts in combinations(range(n + 1), j + 1):
            names.append(vertex_name(verts))
            if j >= 1:
                faces[vertex_name(verts)] = tuple(
                    Cell((), vertex_name(verts[:i] + verts[i + 1:]))
                    for i in range(j + 1))
        simplices[j] = tuple(names)
    return FiniteSimplicialSet(simplices, faces)


def test_standard_simplex_is_the_subset_construction():
    # Delta^n as the simplicial complex of one facet is the (j+1)-subset
    # construction, names, faces and their order included
    for n in range(6):
        W, V = standard_simplex_sset(n), subset_simplex_sset(n)
        assert W.simplices == V.simplices and W.faces == V.faces, n
        assert list(W.faces) == list(V.faces), n
        assert W.to_json() == V.to_json(), n


def test_face_degeneracy_identities_random_cells():
    W = standard_simplex_sset(3)
    rng = random.Random(5)
    for _ in range(200):
        m = rng.randrange(1, 5)
        cells = W.cells(m)
        c = cells[rng.randrange(len(cells))]
        # d_i d_j = d_{j-1} d_i for i < j on arbitrary cells
        if m >= 2:
            j = rng.randrange(1, m + 1)
            i = rng.randrange(j)
            assert W.face(W.face(c, j), i) == W.face(W.face(c, i), j - 1)
        # s identities
        j = rng.randrange(m + 1)
        i = rng.randrange(j + 1)
        assert W.degeneracy(W.degeneracy(c, j), i) == \
            W.degeneracy(W.degeneracy(c, i), j + 1)


def test_act_is_functorial():
    W = standard_simplex_sset(2)
    rng = random.Random(9)
    for _ in range(100):
        m2 = rng.randrange(0, 4)
        m1 = rng.randrange(0, 4)
        m0 = rng.randrange(0, 4)
        fs = delta.all_ordered_maps(FinOrd.bracket(m0), FinOrd.bracket(m1))
        gs = delta.all_ordered_maps(FinOrd.bracket(m1), FinOrd.bracket(m2))
        if not fs or not gs:
            continue
        f = fs[rng.randrange(len(fs))]
        g = gs[rng.randrange(len(gs))]
        cells = W.cells(m2)
        c = cells[rng.randrange(len(cells))]
        assert W.act(c, g.compose(f)) == W.act(W.act(c, g), f)


def test_restrict():
    W = standard_simplex_sset(2)
    top = W.cell("0.1.2")
    assert W.restrict(top, (0, 2)) == Cell((), "0.2")
    assert W.restrict(top, (0, 1, 2)) == top
    e = W.cell("0.1")
    assert W.restrict(e, (0,)) == Cell((), "0")


def test_cochain_complex_interval_and_circle():
    W = standard_simplex_sset(1)
    cx = W.cochain_complex()
    assert [cx.rank(0), cx.rank(-1)] == [2, 1]

    pt = standard_simplex_sset(0)
    assert pt.cochain_complex().rank(0) == 1

    S1 = simplicial_circle()
    cx = S1.cochain_complex()
    # zero differential in this model: H^0 = Z, H^1 = Z
    assert cx.differential(0).is_zero()
    assert cx.homology(0) == (1, ())
    assert cx.homology(-1) == (1, ())


def test_cochain_matches_kernel_conormalization():
    # normalized cochains = conormalization of the dual cosimplicial group
    from chainops.cosimplicial import conormalize_kernel
    for W in (standard_simplex_sset(1), standard_simplex_sset(2),
              simplicial_circle(),
              from_simplicial_complex([0, 1, 2, 3],
                                      [(0, 1, 2), (1, 2, 3), (0, 3)])):
        top = W.max_dim()
        cap = top + 2
        kres = conormalize_kernel(W.dual_cosimplicial(cap))
        cx = W.cochain_complex()
        # the kernel form vanishes above the top dimension
        for m in range(cap + 1):
            want = cx.rank(-m) if m <= top else 0
            assert kres.complex.rank(-m) == want, (m,)
        for m in range(cap):
            # same differential up to the choice of kernel basis; ranks agree
            want = intmat.rank(cx.differential(-m)) if m < top else 0
            assert intmat.rank(kres.complex.differential(-m)) == want, (m,)


def test_json_roundtrip():
    W = from_simplicial_complex([0, 1, 2], [(0, 1, 2)])
    W2 = FiniteSimplicialSet.from_json(W.to_json())
    assert W2.simplices == W.simplices
    assert W2.faces == W.faces


def test_bad_faces_rejected():
    with pytest.raises(AssertionError):
        # face dimensions wrong
        FiniteSimplicialSet({0: ("v",), 2: ("T",)},
                            {"T": (Cell((), "v"), Cell((), "v"), Cell((), "v"))})


def test_broken_face_identity_rejected():
    # faces d_0 and d_1 of the triangle swapped: d_0 d_2 t = b but
    # d_1 d_0 t = a, so d_i d_j = d_(j-1) d_i fails for i = 0, j = 2
    def cell(name):
        return Cell((), name)
    simplices = {0: ("a", "b", "c"), 1: ("ab", "ac", "bc"), 2: ("t",)}
    faces = {"ab": (cell("b"), cell("a")), "ac": (cell("c"), cell("a")),
             "bc": (cell("c"), cell("b")),
             "t": (cell("ac"), cell("bc"), cell("ab"))}
    with pytest.raises(InvalidSimplicialSet,
                       match="simplicial identity fails on 't'"):
        FiniteSimplicialSet(simplices, faces)
    faces["t"] = (cell("bc"), cell("ac"), cell("ab"))
    assert FiniteSimplicialSet(simplices, faces).max_dim() == 2


def test_negative_dimension_rejected():
    # a simplex of dimension -1 used to be taken as a set with no cells
    with pytest.raises(InvalidSimplicialSet, match="negative dimension -1"):
        FiniteSimplicialSet({-1: ("v",)}, {})
    with pytest.raises(InvalidSimplicialSet, match="negative dimension -1"):
        FiniteSimplicialSet.from_json('{"simplices": {"-1": ["v"]}}')


def test_simplex_names_not_a_list_rejected():
    # a string of names used to be split into one-letter simplices
    for text in ('{"simplices": {"0": "ab"}}',
                 '{"simplices": {"0": ["a"], "1": {"e": 1}}}'):
        with pytest.raises(InvalidSimplicialSet, match="JSON list"):
            FiniteSimplicialSet.from_json(text)


def test_wrong_face_count_named():
    with pytest.raises(InvalidSimplicialSet, match="needs 2 faces, got 1"):
        FiniteSimplicialSet({0: ("a",), 1: ("e",)}, {"e": (Cell((), "a"),)})
    with pytest.raises(InvalidSimplicialSet, match="'x'"):
        FiniteSimplicialSet({0: ("a",)}, {"x": (Cell((), "a"),)})


def test_invalid_simplicial_set_rejected_under_optimize():
    # python -O strips assert statements; the input checks must still fire
    import chainops
    script = "\n".join([
        "from chainops.simplicial import (Cell, FiniteSimplicialSet,",
        "                                 InvalidSimplicialSet)",
        "assert False, 'asserts are live'",
        "try:",
        "    FiniteSimplicialSet({0: ('a',), 1: ('e',)},",
        "                        {'e': (Cell((), 'a'),)})",
        "except InvalidSimplicialSet as exc:",
        "    print('rejected:', exc)",
    ])
    src = os.path.dirname(os.path.dirname(os.path.abspath(chainops.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith(
        "rejected: 'e' has dimension 1, so it needs 2 faces, got 1")
