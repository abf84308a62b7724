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
from tests.test_delta import all_surjections


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
        "v = Cell((), 'v')",
        "try:",
        "    FiniteSimplicialSet({0: ('v',), 1: ('e',), 3: ('T',)},",
        "                        {'e': (v, v), 'T': (Cell((0, 0), 'v'),) * 4})",
        "except InvalidSimplicialSet as exc:",
        "    print('rejected:', exc)",
    ])
    src = os.path.dirname(os.path.dirname(os.path.abspath(chainops.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "rejected: 'e' has dimension 1, so it needs 2 faces, got 1",
        "rejected: face Cell(word=(0, 0), base='v') of 'T' is not in normal "
        "form"]


def test_face_not_in_normal_form_rejected():
    # s_0 s_0 v is no normal word: such a 3-simplex used to pass and give
    # 64 naturality failures; s_1 of a vertex used to be refused only as
    # "no face d_0 of the 0-cell"
    v, e = Cell((), "v"), Cell((), "e")
    for simplices, faces in (
            ({0: ("v",), 1: ("e",), 3: ("T",)},
             {"e": (v, v), "T": (Cell((0, 0), "v"),) * 4}),
            ({0: ("v",), 1: ("e",), 2: ("t",)},
             {"e": (v, v), "t": (Cell((1,), "v"), Cell((0,), "v"),
                                 Cell((0,), "v"))}),
            ({0: ("v",), 1: ("e",), 2: ("t",)},
             {"e": (v, v), "t": (Cell((-1,), "v"), e, e)})):
        with pytest.raises(InvalidSimplicialSet,
                           match="of '[Tt]' is not in normal form"):
            FiniteSimplicialSet(simplices, faces)


# The generator-by-generator rewriting that the face table and the subset
# words replace: the oracle of faces, degeneracies, cells and pullbacks.

def oracle_degeneracy(c, i):
    word = c.word
    if not word or i > word[0]:
        return Cell((i,) + word, c.base)
    # s_i s_j = s_{j+1} s_i for i <= j
    inner = oracle_degeneracy(Cell(word[1:], c.base), i)
    return Cell((word[0] + 1,) + inner.word, inner.base)


def oracle_face(W, c, i):
    if not c.word:
        return W.faces[c.base][i]
    j = c.word[0]
    tail = Cell(c.word[1:], c.base)
    if i < j:
        return oracle_degeneracy(oracle_face(W, tail, i), j - 1)
    if i in (j, j + 1):
        return tail
    return oracle_degeneracy(oracle_face(W, tail, i - 1), j)


def oracle_act(W, c, alpha):
    out = c
    for kind, _m, i in reversed(delta.decompose(alpha)):
        out = oracle_face(W, out, i) if kind == "d" else \
            oracle_degeneracy(out, i)
    return out


def oracle_cells(W, m):
    out = []
    for j in sorted(W.simplices):
        if j <= m:
            for eta in all_surjections(FinOrd.bracket(m),
                                       FinOrd.bracket(j)):
                out += [oracle_act(W, W.cell(name), eta)
                        for name in W.simplices[j]]
    assert len(set(out)) == len(out)
    return tuple(sorted(out))


def oracle_sets():
    sets = [standard_simplex_sset(n) for n in range(4)]
    sets.append(simplicial_circle())
    # the 2-sphere as one triangle with every face degenerate
    sets.append(FiniteSimplicialSet({0: ("v",), 2: ("t",)},
                                    {"t": (Cell((0,), "v"),) * 3}))
    rng = random.Random(38)
    for _ in range(10):
        verts = list(range(rng.randrange(3, 6)))
        facets = [tuple(rng.sample(verts, rng.randrange(1, 4)))
                  for _ in range(rng.randrange(1, 4))]
        sets.append(from_simplicial_complex(verts, facets + [(v,) for v in
                                                             verts]))
    return sets


def test_tables_match_generator_rewriting():
    for W in oracle_sets():
        top = W.max_dim() + 2
        for m in range(top + 1):
            cells = W.cells(m)
            assert cells == oracle_cells(W, m), (W.simplices, m)
            for c in cells:
                for i in range(m + 1):
                    if m:
                        assert W.face(c, i) == oracle_face(W, c, i)
                    assert W.degeneracy(c, i) == oracle_degeneracy(c, i)
            for m2 in range(top + 1):
                for alpha in delta.all_ordered_maps(FinOrd.bracket(m2),
                                                    FinOrd.bracket(m)):
                    want = [(c, oracle_act(W, c, alpha)) for c in cells]
                    assert list(W.pullback(alpha).items()) == want


def test_alternating_coface_is_the_sequential_sum():
    # entry order feeds the eliminator's tie-breaks, so the columns and
    # their entries are compared in order, not as dicts
    from chainops.boxprod import box_cosimplicial
    from chainops.intmat import IntMatrix

    def ordered(mat):
        return [(j, list(col.items())) for j, col in mat.columns().items()]
    groups = [W.dual_cosimplicial(W.max_dim() + 2) for W in oracle_sets()]
    B = box_cosimplicial(2, None, 2, 4)
    lo, hi = B.internal_degrees()
    groups += [B.level_ab_group(m, 2) for m in range(lo, hi + 1)]
    for A in groups:
        for m in range(A.max_level):
            want = IntMatrix.zeros(A.rank(m + 1), A.rank(m))
            for i in range(m + 2):
                want = want + (-1) ** i * A.d(m, i)
            got = A.alternating_coface(m)
            assert (got.rows, got.cols) == (want.rows, want.cols)
            assert ordered(got) == ordered(want), m
