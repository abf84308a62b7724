import os
import subprocess
import sys
from itertools import product

import pytest

import chainops
from chainops import delta
from chainops.delta import FinOrd, OrderedMap, IndexOutOfRange


def test_coface_examples():
    assert delta.coface(1, 0).values == (1, 2)
    assert delta.coface(1, 2).values == (0, 1)
    assert delta.codegeneracy(1, 0).values == (0, 0)


def test_index_errors():
    with pytest.raises(IndexOutOfRange):
        delta.coface(1, 3)
    with pytest.raises(IndexOutOfRange):
        delta.codegeneracy(1, 1)


def test_cosimplicial_identities_exhaustive():
    # all identities among the generators, for source levels <= 6
    for m in range(7):
        for j in range(m + 3):
            for i in range(j):
                lhs = delta.coface(m + 1, j).compose(delta.coface(m, i))
                rhs = delta.coface(m + 1, i).compose(delta.coface(m, j - 1))
                assert lhs == rhs
        for j in range(m - 1):
            for i in range(j + 1):
                lhs = delta.codegeneracy(m - 1, j).compose(delta.codegeneracy(m, i))
                rhs = delta.codegeneracy(m - 1, i).compose(delta.codegeneracy(m, j + 1))
                assert lhs == rhs
        for j in range(m + 1):
            for i in range(m + 2):
                lhs = delta.codegeneracy(m + 1, j).compose(delta.coface(m, i))
                if i < j:
                    rhs = delta.coface(m - 1, i).compose(delta.codegeneracy(m, j - 1))
                elif i in (j, j + 1):
                    rhs = OrderedMap.identity(FinOrd.bracket(m))
                else:
                    rhs = delta.coface(m - 1, i - 1).compose(delta.codegeneracy(m, j))
                assert lhs == rhs


def test_two_letter_words_group_by_composite():
    for top in range(1, 6):
        gens = delta.generators(top)
        groups = delta.two_letter_words(top)
        lonely = 0
        for composite, words in groups.items():
            for a, b in words:
                assert gens[b].compose(gens[a]) == composite
            if composite == OrderedMap.identity(composite.source):
                m = composite.source.level
                assert len(words) == 2 * (m + 1), (top, m)
            else:
                assert len(words) in (1, 2), (top, composite)
                lonely += len(words) == 1
        assert lonely == top * (top + 1)


def test_factor_epi_mono_examples():
    f = OrderedMap(FinOrd(3), FinOrd(2), (0, 0, 1))
    epi, mono = delta.factor_epi_mono(f)
    assert epi.values == (0, 0, 1) and mono.values == (0, 1)

    f = OrderedMap(FinOrd(2), FinOrd(3), (1, 2))
    epi, mono = delta.factor_epi_mono(f)
    assert epi.values == (0, 1) and mono.values == (1, 2)

    # unique factorization by image enumeration
    f = OrderedMap(FinOrd(3), FinOrd(3), (0, 0, 2))
    epi, mono = delta.factor_epi_mono(f)
    assert epi.values == (0, 0, 1) and mono.values == (0, 2)


def all_surjections(src, tgt):
    return [f for f in delta.all_ordered_maps(src, tgt) if f.is_surjective()]


def test_factor_epi_mono_bijection_counts():
    # ordered maps <-> composable (epi, mono) pairs, sizes <= 6
    for s in range(7):
        for t in range(7):
            src, tgt = FinOrd(s), FinOrd(t)
            maps = delta.all_ordered_maps(src, tgt)
            seen = set()
            for f in maps:
                epi, mono = delta.factor_epi_mono(f)
                assert mono.compose(epi) == f
                assert epi.is_surjective() and mono.is_injective()
                seen.add((epi, mono))
            assert len(seen) == len(maps)
            pairs = 0
            for mid in range(min(s, t) + 1):
                epis = all_surjections(src, FinOrd(mid))
                monos = delta.all_injections(FinOrd(mid), tgt)
                pairs += len(epis) * len(monos)
            assert pairs == len(maps)


def test_decompose_reconstructs():
    for s in range(6):
        for t in range(1, 6):
            for f in delta.all_ordered_maps(FinOrd(s), FinOrd(t)):
                gens = delta.decompose(f)
                cur = OrderedMap.identity(f.source)
                for kind, m, i in gens:
                    g = delta.coface(m, i) if kind == "d" else delta.codegeneracy(m, i)
                    cur = g.compose(cur)
                assert cur == f


def test_ordered_map_counts():
    # |Hom([a], [b])| = C(a+b+1, a+1) in skeletal sizes
    from math import comb
    for s in range(6):
        for t in range(6):
            assert len(delta.all_ordered_maps(FinOrd(s), FinOrd(t))) == \
                (comb(s + t - 1, s) if s else 1)


def test_fibers_match_their_definition():
    # every f: [q] -> {1..k} with k <= 4 and q + 1 <= 6, the empty f too
    for k in range(1, 5):
        for length in range(7):
            for f in product(range(1, k + 1), repeat=length):
                positions = tuple(tuple(t for t in range(length)
                                        if f[t] == i)
                                  for i in range(1, k + 1))
                laid_out = [t for fib in positions for t in fib]
                assert delta.fibers(k, f) == (
                    tuple(len(fib) for fib in positions),
                    tuple(len(fib) - 1 for fib in positions), positions,
                    tuple(laid_out.index(t) for t in range(length))), (k, f)


def test_invalid_maps_and_cells_rejected_under_optimize():
    # python -O strips assert statements; the checks of delta and of the
    # cell operators in simplicial must still fire
    script = "\n".join([
        "from chainops import delta, simplicial",
        "from chainops.delta import FinOrd, OrderedMap",
        "assert False, 'asserts are live'",
        "W = simplicial.simplicial_circle()",
        "v, e = W.cell('v'), W.cell('e')",
        "for bad in (lambda: FinOrd(-1),",
        "            lambda: FinOrd.bracket(-2),",
        "            lambda: OrderedMap(FinOrd(2), FinOrd(2), (0,)),",
        "            lambda: OrderedMap(FinOrd(1), FinOrd(2), (2,)),",
        "            lambda: OrderedMap(FinOrd(2), FinOrd(2), (1, 0)),",
        "            lambda: delta.coface(0, 0).compose(delta.coface(0, 0)),",
        "            lambda: W.face(v, 0),",
        "            lambda: W.degeneracy(v, 1),",
        "            lambda: W.act(v, delta.coface(0, 0)),",
        "            lambda: W.restrict(e, []),",
        "            lambda: W.restrict(e, [0, 2]),",
        "            lambda: W.pullback(OrderedMap(FinOrd(0), FinOrd(2), ()))):",
        "    try:",
        "        bad()",
        "    except AssertionError as exc:",
        "        print('%s: %s' % (type(exc).__name__, exc))",
        "    else:",
        "        print('accepted')",
    ])
    src = os.path.dirname(os.path.dirname(os.path.abspath(chainops.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    v, e = "Cell(word=(), base='v')", "Cell(word=(), base='e')"
    assert proc.stdout.splitlines() == [
        "InvalidOrderedMap: negative size -1",
        "InvalidOrderedMap: no object [-2]",
        "InvalidOrderedMap: 1 values for a source of size 2",
        "InvalidOrderedMap: value 2 outside a target of size 2",
        "InvalidOrderedMap: values (1, 0) not weakly increasing",
        "InvalidOrderedMap: a map out of FinOrd(size=1) after one into "
        "FinOrd(size=2)",
        "InvalidSimplicialSet: no face d_0 of the 0-cell " + v,
        "InvalidSimplicialSet: no degeneracy s_1 of the 0-cell " + v,
        "InvalidSimplicialSet: a map into [1] acting on the 0-cell " + v,
        "InvalidSimplicialSet: empty restriction is the augmentation point",
        "InvalidSimplicialSet: vertex positions (0, 2) outside the 1-cell " + e,
        "InvalidSimplicialSet: a map out of [-1] pulls back to the "
        "augmentation point"]


def test_decompose_is_cached():
    # each ordered map is factored once per process, for every set that
    # reads it: an equal map gets the same tuple back
    f = OrderedMap(FinOrd(4), FinOrd(3), (0, 0, 1, 2))
    gens = delta.decompose(f)
    assert isinstance(gens, tuple)
    assert delta.decompose(OrderedMap(FinOrd(4), FinOrd(3), (0, 0, 1, 2))) \
        is gens
