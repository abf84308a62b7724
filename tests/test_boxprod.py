"""Box product tests, including the brute-force colimit oracle that
certifies the canonical symbol basis and the symbol-level differential."""

import os
import pickle
import random
import subprocess
import sys
from itertools import chain, combinations_with_replacement, product
from math import prod
from operator import eq

import pytest

import chainops
from chainops import intmat
from chainops.boxprod import (INFINITY, GradingMismatch, InvalidSymbol,
                              NatTransform, Symbol,
                              ValueOutOfRange, _family_of, _sym, _symbols, act_coface, act_codegeneracy,
                              act_perm, apply_tuple, box_basis, box_level,
                              box_cosimplicial, complexity, count_symbols,
                              enumerate_symbols, flatten,
                              internal_boundary, ker_expand,
                              ker_expand_checked, t_boundary)
from chainops.delta import FinOrd
from chainops import delta
from chainops.intmat import IntMatrix
from tests.test_intmat import from_columns


# -- the symbol type ----------------------------------------------------------

def fiber(sym, i):
    """The positions where f takes the value i."""
    return tuple(t for t, v in enumerate(sym.f) if v == i)


def test_symbol_tuple_contract():
    # a Symbol is the tuple (k, f, phi, r): checked and unchecked
    # construction agree, and hashing, equality and order are the tuple's
    a = Symbol(2, (1, 2, 1), (0, 0, 1), 1)
    b = _sym(2, (1, 2, 1), (0, 0, 1), 1)
    assert a == b and hash(a) == hash(b) and type(b) is Symbol
    assert a == (2, (1, 2, 1), (0, 0, 1), 1)
    assert (a.k, a.f, a.phi, a.r, a.q) == (2, (1, 2, 1), (0, 0, 1), 1, 2)
    assert repr(a) == "S(k=2,f=121,phi=001,r=1)"
    assert pickle.loads(pickle.dumps(a)) == a
    syms = enumerate_symbols(3, 4, 2)
    shuffled = list(syms)
    random.Random(7).shuffle(shuffled)
    assert sorted(shuffled) == sorted(
        shuffled, key=lambda s: (s.k, s.f, s.phi, s.r)) == syms
    assert {s: 1 for s in syms} == {Symbol(*s): 1 for s in syms}
    with pytest.raises(AssertionError):
        Symbol(0, (1,), (0,), 0)                 # arity
    with pytest.raises(AssertionError):
        Symbol(2, (1, 2), (0,), 0)               # lengths differ
    with pytest.raises(AssertionError):
        Symbol(2, (1, 2), (1, 0), 1)             # phi not sorted
    with pytest.raises(AssertionError):
        Symbol(2, (1, 2), (0, 2), 1)             # phi leaves [r]
    with pytest.raises(ValueOutOfRange):
        Symbol(2, (1, 3), (0, 0), 0)


def test_invariant_checks_under_optimize():
    # python -O strips assert statements; the symbol calculus's invariant
    # checks must still fire
    script = "\n".join([
        "from chainops import boxprod as bp, operads",
        "from chainops.boxprod import Symbol",
        "assert False, 'asserts are live'",
        "def rejects(make):",
        "    try:",
        "        make()",
        "    except AssertionError as exc:",
        "        print('rejected:', type(exc).__name__)",
        "    else:",
        "        print('accepted')",
        "host = Symbol(1, (1, 1), (0, 1), 1)",
        "s0 = Symbol(2, (1, 2), (0, 0), 0)",
        "s1 = Symbol(2, (1, 2, 1), (0, 0, 0), 0)",
        "rejects(lambda: bp.enumerate_symbols(0, 1, 1))",
        "rejects(lambda: bp.box_basis(1, -1, 0))",
        "rejects(lambda: bp.act_perm(s0, (1, 1)))",
        "rejects(lambda: bp.flatten(host, ()))",
        "rejects(lambda: bp.flatten(host, (Symbol(2, (1, 1), (0, 1), 1),)))",
        "rejects(lambda: bp.apply_tuple(host, []))",
        "rejects(lambda: bp.NatTransform(1, -1, {0: {s0: 1}}))",
        "rejects(lambda: bp.NatTransform.from_vector(2, {s0: 1, s1: 1}))",
        "rejects(lambda: bp.NatTransform.from_vector(",
        "    1, {Symbol(1, (1, 1), (0, 0), 1): 1}))",
        "rejects(lambda: operads.vec_degree({s0: 1, s1: 1}))",
        "rejects(lambda: operads._arity_of({}))",
    ])
    src = os.path.dirname(os.path.dirname(os.path.abspath(chainops.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "rejected: InvalidSymbol", "rejected: InvalidSymbol",
        "rejected: GradingMismatch", "rejected: GradingMismatch",
        "rejected: InvalidSymbol", "rejected: GradingMismatch",
        "rejected: GradingMismatch", "rejected: GradingMismatch",
        "rejected: InvalidSymbol", "rejected: GradingMismatch",
        "rejected: GradingMismatch"]


# -- complexity ---------------------------------------------------------------

def test_complexity_worked_examples():
    # the two worked sequences with their subsequence complexities
    assert complexity((1, 1, 2, 2, 2, 1, 2, 2, 1, 1, 2)) == 5
    seq = (1, 2, 3, 1, 3, 2, 1, 2)
    sub12 = [v for v in seq if v in (1, 2)]
    sub23 = [v for v in seq if v in (2, 3)]
    sub13 = [v for v in seq if v in (1, 3)]
    assert complexity(sub12) == 5
    assert complexity(sub23) == 2
    assert complexity(sub13) == 4
    assert complexity(seq) == 5


def test_complexity_trivial():
    assert complexity(()) == 0
    assert complexity((1,)) == 0
    assert complexity((2, 2, 2)) == 0
    assert complexity((1, 1, 2, 2)) == 1


def test_complexity_rejects_bad_values():
    with pytest.raises(ValueOutOfRange):
        complexity((0, 1))


# -- enumeration --------------------------------------------------------------

def test_enumerate_symbols_examples():
    syms = enumerate_symbols(2, 1, 0)
    assert [(s.f, s.phi) for s in syms] == [((1, 2), (0, 0)), ((2, 1), (0, 0))]
    assert enumerate_symbols(1, 1, 0) == []
    assert enumerate_symbols(2, 2, 0, n=1) == []
    syms = enumerate_symbols(2, 2, 0, n=2)
    assert sorted(s.f for s in syms) == [(1, 2, 1), (2, 1, 2)]


def test_enumeration_monotone_in_complexity():
    for k, q, r in [(2, 3, 1), (3, 3, 0), (2, 4, 2)]:
        prev = set()
        for n in range(q + 1):
            cur = set(enumerate_symbols(k, q, r, n))
            assert prev <= cur
            prev = cur
        assert prev == set(enumerate_symbols(k, q, r, INFINITY))
        # the filtration exhausts at the largest possible complexity, q
        assert set(enumerate_symbols(k, q, r, q)) == prev


def test_brute_force_symbol_counts():
    # independent filter straight from the four conditions
    for k, q, r in [(2, 2, 1), (2, 3, 2), (3, 2, 0), (3, 3, 1)]:
        brute = []
        for f in product(range(1, k + 1), repeat=q + 1):
            if set(f) != set(range(1, k + 1)):
                continue
            for phi in product(range(r + 1), repeat=q + 1):
                if any(a > b for a, b in zip(phi, phi[1:])):
                    continue
                if not set(range(1, r + 1)) <= set(phi):
                    continue
                if any(phi[i] == phi[i + 1] and f[i] == f[i + 1] for i in range(q)):
                    continue
                brute.append(Symbol(k, f, phi, r))
        assert sorted(brute) == list(enumerate_symbols(k, q, r))


def test_count_symbols_closed_form():
    # the closed form against enumeration on all 140 shapes k <= 4, q <= 6,
    # r <= 4 (empty ones included)
    for k in range(1, 5):
        for q in range(7):
            for r in range(5):
                assert count_symbols(k, q, r) == \
                    len(enumerate_symbols(k, q, r)), (k, q, r)


def _reference_bases(k, q, r):
    """Brute force: every onto f from itertools.product and every
    order-preserving phi (a multiset of q + 1 values in [r]) whose pair is
    interleaved, sorted in the symbols' order; with complexity(f) and
    whether phi covers {1..r}."""
    onto = [f for f in product(range(1, k + 1), repeat=q + 1)
            if set(f) == set(range(1, k + 1))]
    phis = list(combinations_with_replacement(range(r + 1), q + 1))
    covers = {phi: set(range(1, r + 1)) <= set(phi) for phi in phis}
    out = []
    for f in onto:
        c = complexity(f)
        repeats = [i for i in range(q) if f[i] == f[i + 1]]
        out.extend(((k, f, phi, r), c, covers[phi]) for phi in phis
                   if all(phi[i] != phi[i + 1] for i in repeats))
    return sorted(out)


# the highest level swept at a shape, when below max(3, q + 2): from level
# 4 on, (k, q) = (3, 5) has 42,000 to 444,240 box symbols per bound, some 10 s
TOP_LEVEL = {(3, 5): 3}


@pytest.mark.parametrize("k,q_max", [(1, 5), (2, 5), (3, 5), (4, 4)])
def test_enumeration_equals_brute_force_in_order(k, q_max):
    # the pruned search against an exhaustive filter, as ordered lists, at
    # every level up to 3 and up to q + 2 (the top level q + 1 and the empty
    # levels past it included), for every complexity bound that cuts
    # anything, the bound 0 and no bound at all
    for q in range(q_max + 1):
        for r in range(TOP_LEVEL.get((k, q), max(3, q + 2)) + 1):
            ref = _reference_bases(k, q, r)
            for n in [INFINITY] + list(range(q + 1)):
                box = [s for s, c, _ in ref if n is None or c <= n]
                assert box_basis(k, q, r, n) == box, (k, q, r, n)
                conormal = [s for s, c, cover in ref
                            if cover and (n is None or c <= n)]
                assert enumerate_symbols(k, q, r, n) == conormal, (k, q, r, n)


def test_box_basis_returns_fresh_lists():
    first = box_basis(2, 3, 1)
    first.clear()
    assert box_basis(2, 3, 1) and box_basis(2, 3, 1) is not box_basis(2, 3, 1)


def _reference_internal_boundary(sym):
    """Every face of a fiber of size >= 2 with its Koszul sign, each face
    checked in full for condition (d)."""
    f, phi = sym.f, sym.phi
    sizes = [f.count(i + 1) for i in range(sym.k)]
    out = []
    for t, v in enumerate(f):
        if sizes[v - 1] < 2:
            continue
        sign = (-1) ** (sum(s - 1 for s in sizes[:v - 1]) + f[:t].count(v))
        face = Symbol(sym.k, f[:t] + f[t + 1:], phi[:t] + phi[t + 1:], sym.r)
        if face.interleaved():
            out.append((sign, face))
    return out


def test_internal_boundary_equals_full_check():
    # every symbol with k <= 3, q <= 5, r <= 2, interleaved or not; on the
    # covering ones t_boundary without its coface part keeps exactly the
    # covering faces, and with it (no cap, or cap r + 1) appends d^0 of the
    # symbol with sign -(-1)^degree when 0 is a value of phi; d^0 of a
    # symbol that breaks condition (d) collapses, and a phi that does not
    # cover is refused at every cap
    for k in range(1, 4):
        for q in range(6):
            for r in range(3):
                for f in product(range(1, k + 1), repeat=q + 1):
                    for phi in product(range(r + 1), repeat=q + 1):
                        if any(a > b for a, b in zip(phi, phi[1:])):
                            continue
                        sym = Symbol(k, f, phi, r)
                        want = _reference_internal_boundary(sym)
                        assert internal_boundary(sym) == want, sym
                        if not sym.phi_covers():
                            for cap in (None, r, r + 1):
                                with pytest.raises(InvalidSymbol):
                                    t_boundary(sym, level_cap=cap)
                            continue
                        covering = {}
                        for c, face in want:
                            if face.phi_covers():
                                covering[face] = covering.get(face, 0) + c
                        faces = [(s, c) for s, c in covering.items() if c]
                        assert list(t_boundary(sym, level_cap=r).items()) \
                            == faces, sym
                        for cap in (None, r + 1):
                            if 0 not in phi:
                                assert list(t_boundary(sym, cap).items()) \
                                    == faces, sym
                            elif sym.interleaved():
                                lifted = (act_coface(sym, 0),
                                          -(-1) ** sym.total_degree)
                                assert list(t_boundary(sym, cap).items()) \
                                    == faces + [lifted], sym
                            else:
                                with pytest.raises(InvalidSymbol,
                                                   match="coface collapsed"):
                                    t_boundary(sym, cap)


def test_boundaries_do_not_depend_on_visit_order():
    # a symbol's faces come from small caches keyed on its f and its phi;
    # visiting the same symbols sorted and shuffled, so that the caches
    # hold other entries each time, gives the same boundaries
    syms = [s for k in (2, 3) for q in range(k - 1, 5) for r in range(q + 2)
            for s in box_basis(k, q, r)]

    def boundaries(order):
        return {s: (internal_boundary(s), list(t_boundary(s).items()),
                    list(t_boundary(s, s.r).items()))
                if s.phi_covers() else internal_boundary(s) for s in order}
    shuffled = list(syms)
    random.Random(11).shuffle(shuffled)
    first = boundaries(syms)
    assert boundaries(shuffled) == first
    assert boundaries(syms) == first


# -- the colimit oracle -------------------------------------------------------

def tensor_basis(k, f):
    """Basis of the tensor of simplex chains over the fibers of f: one
    nonempty support subset per fiber (empty fiber kills the object)."""
    fibers = [tuple(t for t, v in enumerate(f) if v == i + 1) for i in range(k)]
    if any(not fib for fib in fibers):
        return None
    pools = []
    for fib in fibers:
        subs = []
        for mask in range(1, 1 << len(fib)):
            subs.append(tuple(fib[t] for t in range(len(fib)) if mask >> t & 1))
        pools.append(subs)
    return [tuple(choice) for choice in product(*pools)]


def brute_force_colimit(k, r, q_max):
    """Present the level-[r] box product as an explicit quotient of the free
    abelian group on all tensor basis elements over all indexing objects
    (f, phi) with source size <= q_max + 1, by the relations x - psi_*(x).

    Returns {internal degree: (rank, torsion, generators, relations)}.
    """
    objects = []
    for q in range(q_max + 1):
        for f in product(range(1, k + 1), repeat=q + 1):
            for phi in product(range(r + 1), repeat=q + 1):
                if all(a <= b for a, b in zip(phi, phi[1:])):
                    objects.append((f, phi))
    gens = {}      # degree -> list of (f, phi, supports)
    index = {}
    for f, phi in objects:
        basis = tensor_basis(k, f)
        if basis is None:
            continue
        for sup in basis:
            deg = sum(len(s) - 1 for s in sup)
            key = (f, phi, sup)
            index[key] = len(gens.setdefault(deg, []))
            gens[deg].append(key)
    relations = {d: [] for d in gens}
    for f, phi in objects:
        basis = tensor_basis(k, f)
        if basis is None:
            continue
        q1 = len(f)
        for f2, phi2 in objects:
            q2 = len(f2)
            for psi in delta.all_ordered_maps(FinOrd(q1), FinOrd(q2)):
                if tuple(f2[v] for v in psi.values) != f or \
                   tuple(phi2[v] for v in psi.values) != phi:
                    continue
                for sup in basis:
                    deg = sum(len(s) - 1 for s in sup)
                    vec = {index[(f, phi, sup)]: 1}
                    img = tuple(tuple(sorted(set(psi.values[t] for t in s)))
                                for s in sup)
                    if all(len(a) == len(b) for a, b in zip(img, sup)):
                        j = index[(f2, phi2, img)]
                        vec[j] = vec.get(j, 0) - 1
                    vec = {i: c for i, c in vec.items() if c}
                    if vec:
                        relations[deg].append(vec)
    return gens, relations, index


def test_colimit_oracle_certifies_canonical_basis():
    # explicit quotient of the free abelian group, small windows
    for k, r, q_max in [(1, 0, 3), (1, 1, 3), (2, 0, 3), (2, 1, 3), (2, 2, 2)]:
        gens, relations, _ = brute_force_colimit(k, r, q_max)
        for deg in sorted(gens):
            q = deg + k - 1
            if q > q_max - 1:
                # classes of top-budget generators may be identified with
                # larger objects outside the enumeration; skip the frontier
                continue
            rows = len(gens[deg])
            rel = relations[deg]
            mat = IntMatrix(rows, len(rel),
                            {(i, j): c for j, vec in enumerate(rel)
                             for i, c in vec.items()})
            inv = intmat.snf_diagonal(mat)
            assert all(f == 1 for f in inv), "colimit has torsion"
            rank = rows - len(inv)
            expected = box_basis(k, q, r)
            assert rank == len(expected), (k, r, deg)


def canonical_form(k, f, phi, r, supports):
    """Canonical representative of a tensor basis element sitting at the
    indexing object (f, phi): restrict to the union of the supports and drop
    classes killed in the colimit.  Returns a Symbol or None.

    ``supports[i]`` lists the positions (a subset of the i-th fiber of f)
    spanned by the i-th tensor factor; an empty support means the factor
    lives in the chains of the empty simplex, which are zero.
    """
    for sup in supports:
        if not sup:
            return None
    used = sorted(p for sup in supports for p in sup)
    assert len(set(used)) == len(used)
    f2 = tuple(f[p] for p in used)
    phi2 = tuple(phi[p] for p in used)
    sym = Symbol(k, f2, phi2, r)
    if not sym.interleaved():
        return None
    return sym


def test_canonical_form_respects_all_morphisms():
    # canon(psi_* x) == canon(x) for every morphism and every basis element
    for k, r, q_max in [(2, 1, 3), (2, 0, 4), (1, 2, 3)]:
        objects = []
        for q in range(q_max + 1):
            for f in product(range(1, k + 1), repeat=q + 1):
                for phi in product(range(r + 1), repeat=q + 1):
                    if all(a <= b for a, b in zip(phi, phi[1:])):
                        objects.append((f, phi))
        for f, phi in objects:
            basis = tensor_basis(k, f)
            if basis is None:
                continue
            q1 = len(f)
            for f2, phi2 in objects:
                q2 = len(f2)
                for psi in delta.all_ordered_maps(FinOrd(q1), FinOrd(q2)):
                    if tuple(f2[v] for v in psi.values) != f or \
                       tuple(phi2[v] for v in psi.values) != phi:
                        continue
                    for sup in basis:
                        lhs = canonical_form(k, f, phi, r, sup)
                        img = tuple(tuple(sorted(set(psi.values[t] for t in s)))
                                    for s in sup)
                        if all(len(a) == len(b) for a, b in zip(img, sup)):
                            rhs = canonical_form(k, f2, phi2, r, img)
                        else:
                            rhs = None   # a factor went degenerate
                        assert lhs == rhs


def test_internal_boundary_matches_free_boundary():
    # the symbol differential is the canonicalization of the Koszul boundary
    # of the tensor of top simplices
    rng = random.Random(3)
    for _ in range(150):
        k = rng.randrange(1, 3)
        q = rng.randrange(k - 1, 5)
        r = rng.randrange(0, 3)
        pool = box_basis(k, q, r)
        if not pool:
            continue
        sym = pool[rng.randrange(len(pool))]
        fibers = [fiber(sym, i + 1) for i in range(k)]
        expect = {}
        prefix = 0
        for i, fib in enumerate(fibers):
            for t in range(len(fib)):
                if len(fib) < 2:
                    continue
                sign = (-1) ** (prefix + t)
                sup = tuple(fib2 if j != i else fib2[:t] + fib2[t + 1:]
                            for j, fib2 in enumerate(fibers))
                c = canonical_form(k, sym.f, sym.phi, r, sup)
                if c is not None:
                    expect[c] = expect.get(c, 0) + sign
            prefix += len(fib) - 1
        expect = {s: c for s, c in expect.items() if c}
        got = {}
        for sign, face in internal_boundary(sym):
            got[face] = got.get(face, 0) + sign
        assert got == expect


def test_box_level_dd_zero_and_counts():
    # constructor asserts d o d = 0; also the two stated rank examples
    cx = box_level(1, INFINITY, 2, 4)
    # arity one at level [r]: the chains of the standard r-simplex
    from chainops.simplicial import standard_simplex_chains
    std = standard_simplex_chains(2)
    for m in range(3):
        assert cx.rank(m) == std.rank(m)
    cx = box_level(2, INFINITY, 0, 5)
    assert cx.rank(0) == 2          # f = 12, 21
    assert cx.rank(1) == 2          # f = 121, 212


def test_box_cosimplicial_validates():
    # chain-map + cosimplicial identity checks run in the constructor
    box_cosimplicial(2, INFINITY, 2, 4)
    box_cosimplicial(1, INFINITY, 3, 4)


def conormalized_basis(k, n, q_cap):
    """Symbol basis of the conormalized box product through the colimit:
    the box basis less the images of the positive cofaces, which move phi
    and keep f.  Returns {(q, r): tuple of Symbols}.  Each level is built
    past the enumeration cache, which would otherwise keep all of them."""
    out = {}
    for q in range(k - 1, q_cap + 1):
        lower = {}                  # phi -> the f over it, at level r - 1
        for r in range(q + 2):
            hit = {}                # phi -> the f over it in a coface image
            for i in range(1, r + 1):
                values = delta.coface(r - 1, i).values
                for phi, fs in lower.items():
                    hit.setdefault(tuple(map(values.__getitem__, phi)),
                                   set()).update(fs)
            level = _symbols.__wrapped__(k, q, r, n, False)
            survivors = tuple(s for s in level
                              if s.f not in hit.get(s.phi, ()))
            if survivors:
                out[(q, r)] = survivors
            lower = {}
            for s in level:
                lower.setdefault(s.phi, []).append(s.f)
    return out


def test_conormalized_basis_matches_enumeration():
    # the coface-image route agrees with the four-condition enumeration
    for k, n, q_cap in [(1, INFINITY, 4), (2, INFINITY, 4), (2, 1, 4), (3, 2, 4)]:
        table = conormalized_basis(k, n, q_cap)
        for q in range(k - 1, q_cap + 1):
            for r in range(q + 2):
                expected = tuple(enumerate_symbols(k, q, r, n))
                got = table.get((q, r), ())
                assert got == expected, (k, q, r)


def test_ker_expand_killed_by_codegeneracies():
    rng = random.Random(17)
    for _ in range(80):
        k = rng.randrange(1, 4)
        q = rng.randrange(k - 1, 5)
        r = rng.randrange(0, q + 2)
        pool = enumerate_symbols(k, q, r)
        if not pool:
            continue
        sym = pool[rng.randrange(len(pool))]
        vec = ker_expand_checked(sym)   # raises if any codegeneracy survives
        # congruent to sym modulo non-covering symbols
        assert vec.get(sym) == 1
        for s, c in vec.items():
            if s != sym:
                assert not s.phi_covers()


def _reference_ker_expand(sym):
    """The projection (1 - d^r s^{r-1}) ... (1 - d^1 s^0) applied through
    the cosimplicial action on whole symbols, one stage at a time."""
    vec = {sym: 1}
    for i in range(sym.r):
        out = dict(vec)
        for s, c in vec.items():
            lowered = act_codegeneracy(s, i)
            if lowered is not None:
                lifted = act_coface(lowered, i + 1)
                out[lifted] = out.get(lifted, 0) - c
        vec = {s: c for s, c in out.items() if c}
    return tuple(sorted(vec.items()))


def test_ker_expand_equals_cosimplicial_action():
    # every box symbol with k <= 3, q <= 4, at every level r <= q + 1
    checked = 0
    for k in (1, 2, 3):
        for q in range(k - 1, 5):
            for r in range(q + 2):
                for sym in box_basis(k, q, r):
                    assert ker_expand(sym) == _reference_ker_expand(sym), sym
                    checked += 1
    assert checked == 45759


def _staged_ker_expand(sym):
    """The projection (1 - d^r s^{r-1}) ... (1 - d^1 s^0) stage by stage.
    Every term keeps f, so the stages run on phi alone: d^{i+1} s^i sends
    the value i + 1 to i and fixes the others, and the term dies when that
    makes phi equal across a repeat of f (condition (d))."""
    k, f, phi, r = sym
    reps = [t for t in range(len(f) - 1) if f[t] == f[t + 1]]
    vec = {phi: 1}
    for i in range(r):
        moved = ((tuple(i if v == i + 1 else v for v in p), -c)
                 for p, c in vec.items())
        vec = intmat.vec_sum(chain(vec.items(), (
            (p, c) for p, c in moved
            if not any(p[t] == p[t + 1] for t in reps))))
    return tuple((_sym(k, f, p, r), c) for p, c in sorted(vec.items()))


def test_ker_expand_closed_form_equals_staged_product():
    # every symbol of the box bases (cover False) and of the conormalized
    # bases (cover True) with k <= 3, q <= 5, r <= q + 1; a phi missing a
    # positive value expands to ().  The staged product reads f only
    # through its repeats, so it runs once per (repeats, phi, r); the
    # uncached ker_expand keeps the half million symbols out of its cache
    staged = {}
    counts = {True: 0, False: 0}
    empty = 0
    for k in (1, 2, 3):
        for q in range(k - 1, 6):
            for r in range(q + 2):
                for cover in (False, True):
                    for sym in _symbols.__wrapped__(k, q, r, None, cover):
                        _, f, phi, _ = sym
                        key = (tuple(map(eq, f, f[1:])), phi, r)
                        if key not in staged:
                            staged[key] = [(t.phi, c) for t, c
                                           in _staged_ker_expand(sym)]
                        got = ker_expand.__wrapped__(sym)
                        assert got == tuple((_sym(k, f, p, r), c)
                                            for p, c in staged[key]), sym
                        assert bool(got) == sym.phi_covers(), sym
                        counts[cover] += 1
                        empty += not got
    assert counts == {True: 20548, False: 453839}
    assert empty == 433291


def test_ker_expand_closed_form_off_the_basis():
    # symbols outside the box basis: a repeat of f with equal phi values
    # kills every lowered term at once, whether phi covers or not
    for sym in (Symbol(1, (1, 1), (0, 0), 0),
                Symbol(1, (1, 1, 1), (0, 1, 1), 1),
                Symbol(2, (1, 1, 2), (1, 1, 2), 2)):
        assert ker_expand(sym) == _staged_ker_expand(sym) == ((sym, 1),)


def test_ker_expand_against_generic_kernel():
    # the explicit projection lands in the SNF-computed kernel subspace
    for k, q, r in [(2, 1, 1), (2, 2, 1), (2, 2, 2), (1, 2, 2), (3, 2, 1)]:
        full = box_basis(k, q, r)
        if not full or r == 0:
            continue
        idx = {s: i for i, s in enumerate(full)}
        lower = box_basis(k, q, r - 1)
        lidx = {s: i for i, s in enumerate(lower)}
        stacked = None
        for i in range(r):
            data = {}
            for j, s in enumerate(full):
                out = act_codegeneracy(s, i)
                if out is not None:
                    data[(lidx[out], j)] = 1
            mat = IntMatrix(len(lower), len(full), data)
            stacked = mat if stacked is None else stacked.stack_rows(mat)
        kerbasis = intmat.kernel_basis(stacked)
        for sym in enumerate_symbols(k, q, r):
            vec = [0] * len(full)
            for s, c in ker_expand(sym):
                vec[idx[s]] = c
            assert intmat.solve(kerbasis, from_columns([vec])) \
                is not None


def test_sigma_action_properties():
    rng = random.Random(29)
    for _ in range(100):
        k = rng.randrange(2, 4)
        q = rng.randrange(k - 1, 5)
        r = rng.randrange(0, 3)
        pool = box_basis(k, q, r)
        if not pool:
            continue
        sym = pool[rng.randrange(len(pool))]
        perms = [tuple(p) for p in _perms(k)]
        sigma = perms[rng.randrange(len(perms))]
        tau = perms[rng.randrange(len(perms))]
        s1, sign1 = act_perm(sym, sigma)
        s2, sign2 = act_perm(s1, tau)
        comp = tuple(sigma[tau[i] - 1] for i in range(k))
        s3, sign3 = act_perm(sym, comp)
        assert (s2, sign1 * sign2) == (s3, sign3)
        ident = tuple(range(1, k + 1))
        s0, sign0 = act_perm(sym, ident)
        assert s0 == sym and sign0 == 1


def _perms(k):
    if k == 1:
        return [(1,)]
    out = []
    for p in _perms(k - 1):
        for i in range(k):
            out.append(p[:i] + (k,) + p[i:])
    return out


def test_transposition_has_no_fixed_symbol():
    for q in range(1, 7):
        for r in range(q + 2):
            for sym in enumerate_symbols(2, q, r):
                moved, _ = act_perm(sym, (2, 1))
                assert moved != sym


def test_sigma_commutes_with_internal_boundary():
    rng = random.Random(31)
    for _ in range(60):
        k = rng.randrange(2, 4)
        q = rng.randrange(k, 5)
        r = rng.randrange(0, 3)
        pool = box_basis(k, q, r)
        if not pool:
            continue
        sym = pool[rng.randrange(len(pool))]
        perms = [p for p in _perms(k) if p != tuple(range(1, k + 1))]
        sigma = perms[rng.randrange(len(perms))]
        lhs = {}
        moved, sg = act_perm(sym, sigma)
        for c, face in internal_boundary(moved):
            lhs[face] = lhs.get(face, 0) + sg * c
        rhs = {}
        for c, face in internal_boundary(sym):
            mf, s2 = act_perm(face, sigma)
            rhs[mf] = rhs.get(mf, 0) + c * s2
        lhs = {s: c for s, c in lhs.items() if c}
        rhs = {s: c for s, c in rhs.items() if c}
        assert lhs == rhs, (sym, sigma)


def test_symbol_boundary_squares_to_zero():
    rng = random.Random(37)
    for _ in range(120):
        k = rng.randrange(1, 4)
        q = rng.randrange(k - 1, 6)
        r = rng.randrange(0, q + 2)
        pool = enumerate_symbols(k, q, r)
        if not pool:
            continue
        sym = pool[rng.randrange(len(pool))]
        out = {}
        for s, c in t_boundary(sym).items():
            for s2, c2 in t_boundary(s).items():
                out[s2] = out.get(s2, 0) + c * c2
        assert not any(out.values()), sym


def _identity_nat(level_cap):
    # the operad unit: the top cell at every level
    from chainops.boxprod import NatTransform, Symbol
    return NatTransform.from_vector(1, {
        Symbol(1, (1,) * (r + 1), tuple(range(r + 1)), r): 1
        for r in range(level_cap + 1)})


def _scaling_nat(coeffs):
    # natural endomorphism of the standard cosimplicial chain complex that
    # scales the new top class of level l by coeffs[l]
    from chainops.boxprod import NatTransform, Symbol
    comp = {}
    for l, c in enumerate(coeffs):
        if c:
            comp[l] = {Symbol(1, (1,) * (l + 1), tuple(range(l + 1)), l): c}
    return NatTransform(1, 0, comp)


def test_box_functorial_map_identity():
    from chainops.boxprod import box_functorial_map
    nats = [_identity_nat(5), _identity_nat(5)]
    for r in (0, 1, 2):
        table = box_functorial_map(2, nats, r, 4)
        for sym, vec in table.items():
            assert vec == {sym: 1}


def test_box_functorial_map_chain_property_for_cycles():
    # a degree-0 transform that is a cycle (scaled identity) induces a map
    # commuting with the internal differential
    from chainops.boxprod import box_functorial_map, internal_boundary
    nats = [_scaling_nat((3,) * 6), _scaling_nat((1,) * 6)]
    for r in (0, 1, 2):
        table = box_functorial_map(2, nats, r, 4)
        for sym, vec in table.items():
            lhs = {}
            for c, face in internal_boundary(sym):
                for t, c2 in table[face].items():
                    lhs[t] = lhs.get(t, 0) + c * c2
            rhs = {}
            for t, c in vec.items():
                for c2, face in internal_boundary(t):
                    rhs[face] = rhs.get(face, 0) + c * c2
            assert {k: v for k, v in lhs.items() if v} == \
                {k: v for k, v in rhs.items() if v}, (r, sym)


def test_box_functorial_map_naturality_squares():
    # induced maps are natural for the cosimplicial operators even when the
    # per-slot transforms are not cycles (mixed level scalings)
    from chainops.boxprod import (box_functorial_map, act_coface,
                                  act_codegeneracy)
    nats = [_scaling_nat((1, 0, 1, 1, 0, 1)), _scaling_nat((1, 1, 0, 1, 1, 0))]
    tables = {r: box_functorial_map(2, nats, r, 4) for r in (0, 1, 2)}
    # naturality square for the zeroth coface between levels 0 and 1
    for sym, vec in tables[0].items():
        lhs = dict(tables[1][act_coface(sym, 0)])
        rhs = {}
        for t, c in vec.items():
            rhs[act_coface(t, 0)] = c
        assert lhs == rhs
    # and a codegeneracy square from level 1 down to level 0
    for sym, vec in tables[1].items():
        down = act_codegeneracy(sym, 0)
        lhs = dict(tables[0][down]) if down is not None else {}
        rhs = {}
        for t, c in vec.items():
            td = act_codegeneracy(t, 0)
            if td is not None:
                rhs[td] = rhs.get(td, 0) + c
        assert lhs == {k: v for k, v in rhs.items() if v}


def levels_match(host, nats):
    """Whether every fiber degree of host is a level of its slot's nat."""
    return all(d in n.components for n, d in zip(nats, host.fiber_degrees()))


def test_box_functorial_map_skipped_rows():
    # a row whose fiber degrees are no levels of the transformations is {};
    # every basis symbol keeps its row, and a symbol outside the basis has
    # none
    from chainops.boxprod import box_functorial_map
    nats = [_scaling_nat((1, 0, 2, 0, 1, 0)), _scaling_nat((0, 1, 0, 3, 0, 1))]
    skipped = 0
    for r in (0, 1, 2):
        table = box_functorial_map(2, nats, r, 4)
        basis = [s for m in range(4) for s in box_basis(2, m + 1, r)]
        assert list(table) == basis
        for sym in basis:
            assert table[sym] == apply_tuple(sym, nats)
            if not levels_match(sym, nats):
                assert table[sym] == {}
                skipped += 1
        with pytest.raises(KeyError):
            table[Symbol(2, (1, 2) * 4, (0,) * 8, r)]
    assert skipped > 50


def test_apply_tuple_cover_keeps_the_covering_part():
    # the box levels of the box_functorial_map tests (r <= 2, q <= 4),
    # under their transformations and under arity-2 families whose
    # components have several kernel terms: with cover=True the value is
    # the covering part of the full one, the other choices unglued
    mixed = NatTransform.from_vector(2, {
        Symbol(2, (1, 2, 1), (0, 1, 1), 1): 1,
        Symbol(2, (2, 1, 2), (0, 1, 1), 1): -2,
        Symbol(2, (1, 2, 2), (0, 0, 1), 1): 3})
    wide = NatTransform.from_vector(
        2, {Symbol(2, (1, 2, 1, 2), (0, 1, 1, 2), 2): 1})
    cases = [[_identity_nat(5), _identity_nat(5)],
             [_scaling_nat((3,) * 6), _scaling_nat((1,) * 6)],
             [_scaling_nat((1, 0, 1, 1, 0, 1)),
              _scaling_nat((1, 1, 0, 1, 1, 0))],
             [mixed, _identity_nat(5)], [_identity_nat(5), wide],
             [mixed, wide]]
    dropped = {True: 0, False: 0}       # by whether the host covers
    for nats in cases:
        for r in (0, 1, 2):
            for m in range(4):
                for sym in box_basis(2, m + 1, r):
                    full = apply_tuple(sym, nats)
                    kept = {t: c for t, c in full.items() if t.phi_covers()}
                    assert apply_tuple(sym, nats, cover=True) == kept, sym
                    dropped[sym.phi_covers()] += len(full) - len(kept)
    assert dropped == {True: 304, False: 860}


def test_from_vector_shared_and_read_only():
    # one family per vector: the second call returns the first's instance,
    # which nothing a caller does can change
    vec = {Symbol(2, (1, 2, 1), (0, 1, 1), 1): 1,
           Symbol(2, (2, 1, 2), (0, 1, 1), 1): -2}
    nat = NatTransform.from_vector(2, vec)
    assert NatTransform.from_vector(2, dict(vec)) is nat
    fresh = _family_of.__wrapped__(2, tuple(vec.items()))
    assert nat.components == fresh.components
    nats = [nat, _identity_nat(3)]
    host = next(h for h in box_basis(2, 3, 1) if apply_tuple(h, nats))
    first = apply_tuple(host, nats)
    assert first == apply_tuple(host, [fresh, _identity_nat(3)])
    first[next(iter(first))] = 99
    assert apply_tuple(host, nats) == \
        apply_tuple(host, [fresh, _identity_nat(3)])
    with pytest.raises(TypeError):
        nat.components[5] = {}
    with pytest.raises(TypeError):
        nat.component(1)[host] = 1
    with pytest.raises(AttributeError):
        nat.degree = 3
    assert NatTransform.from_vector(2, vec).components == fresh.components


def test_nat_transform_rejects_terms_not_onto():
    # the flattening of parts is onto exactly when every part is, so the
    # family checks each of its terms
    lonely = Symbol(2, (1, 1), (0, 1), 1)
    with pytest.raises(InvalidSymbol):
        NatTransform(2, lonely.total_degree, {1: {lonely: 1}})
    onto = Symbol(2, (1, 2), (0, 1), 1)
    assert NatTransform(2, onto.total_degree, {1: {onto: 1}}).component(1)


def test_family_checks_each_input_symbol():
    # from_vector checks each input symbol once, since its kernel terms
    # share its f, k, r and degree, and refuses what the per-term checks of
    # the constructor refuse; the family it builds equals the checked one
    onto = Symbol(2, (1, 2, 1), (0, 1, 1), 1)
    wider = Symbol(2, (1, 2, 1, 2), (0, 1, 1, 1), 1)
    assert (onto.total_degree, wider.total_degree) == (0, 1)
    cases = [
        (GradingMismatch, 3, {onto: 1}),                  # arity
        (GradingMismatch, 2, {onto: 1, wider: 1}),        # not homogeneous
        (InvalidSymbol, 2, {Symbol(2, (1, 1), (0, 1), 1): 1}),   # not onto
        (InvalidSymbol, 2, {Symbol(2, (1, 2), (0, 0), 1): 1}),   # phi misses 1
    ]
    for exc, arity, vec in cases:
        with pytest.raises(exc):
            _family_of.__wrapped__(arity, tuple(vec.items()))
        with pytest.raises(exc):
            NatTransform.from_vector(arity, vec)
    for vec in ({onto: 1}, {onto: 2, Symbol(2, (2, 1, 2), (0, 1, 1), 1): -1},
                {wider: 1}):
        terms = intmat.vec_sum((t, c * w) for s, c in vec.items()
                               for t, w in ker_expand(s))
        checked = NatTransform(2, next(iter(vec)).total_degree, {1: terms})
        family = _family_of.__wrapped__(2, tuple(vec.items()))
        assert type(family) is NatTransform
        assert (family.arity, family.degree) == (2, checked.degree)
        assert family.components == checked.components
    # the constructor still checks every term
    with pytest.raises(GradingMismatch):
        NatTransform(2, 0, {0: {onto: 1}})
    with pytest.raises(GradingMismatch):
        NatTransform(2, 0, {1: {onto: 1, wider: 0, Symbol(3, (1, 2, 3),
                                                          (0, 1, 1), 1): 1}})


def test_incompatible_inputs():
    from chainops.boxprod import box_functorial_map
    with pytest.raises(GradingMismatch):
        box_functorial_map(2, [_identity_nat(3)], 0, 3)


# -- composition --------------------------------------------------------------

def _reference_flatten(host, parts):
    """Flattening by sorting every part position on its anchor, the host
    position its phi value lands on."""
    fibers = [fiber(host, i + 1) for i in range(host.k)]
    offset, entries = 0, []
    for i, part in enumerate(parts):
        assert part.r == len(fibers[i]) - 1
        entries.extend((fibers[i][p], i, t, v + offset)
                       for t, (v, p) in enumerate(zip(part.f, part.phi)))
        offset += part.k
    entries.sort()
    out = Symbol(offset, tuple(e[3] for e in entries),
                 tuple(host.phi[e[0]] for e in entries), host.r)
    return out if out.interleaved() else None


def _reference_apply_tuple(host, nats):
    """apply_tuple as one flattening per choice of a term in every slot."""
    degs = host.fiber_degrees()
    sign0 = (-1) ** sum(nat.degree * sum(degs[:i])
                        for i, nat in enumerate(nats))
    slots = [list(nat.component(d).items()) for nat, d in zip(nats, degs)]
    out = {}
    for choice in product(*slots):
        parts = tuple(s for s, _ in choice)
        flat = flatten(host, parts)
        assert flat == _reference_flatten(host, parts)
        if flat is not None:
            coeff = sign0 * prod(c for _, c in choice)
            out[flat] = out.get(flat, 0) + coeff
    return {s: c for s, c in out.items() if c}


# The (arity, level) strata of the benchmark's composition workload.
PIPELINE_STRATA = tuple((k, r) for k in (1, 2, 3) for r in range(6))


def _smallest_symbols(k, r):
    q = max(k - 1, r - 1, 0)
    while not enumerate_symbols(k, q, r):
        q += 1
    return enumerate_symbols(k, q, r)


def test_apply_tuple_equals_flatten_per_choice():
    # on the kernel terms of the pipeline strata's hosts, with arguments of
    # arity 2 in the first slot and 1 elsewhere, single symbols and sums
    rng = random.Random(11)
    checked = 0
    for k, r in PIPELINE_STRATA:
        hosts = _smallest_symbols(k, r)
        for h in rng.sample(hosts, min(3, len(hosts))):
            for hk, _ in ker_expand(h):
                args = []
                for slot, m in enumerate(hk.fiber_degrees()):
                    arity = 2 if slot == 0 else 1
                    cands = _smallest_symbols(arity, m)
                    picked = rng.sample(cands, min(2, len(cands)))
                    vec = {g: rng.choice((1, -1, 2)) for g in picked}
                    args.append(NatTransform.from_vector(arity, vec))
                got = apply_tuple(hk, args)
                assert got == _reference_apply_tuple(hk, args), (hk, args)
                checked += bool(got)
    assert checked > 50
