"""Box product tests, including the brute-force colimit oracle that
certifies the canonical symbol basis and the symbol-level differential."""

import random
from itertools import product

import pytest

from chainops import intmat
from chainops.boxprod import (INFINITY, Symbol, ValueOutOfRange, act_coface,
                              act_codegeneracy, act_perm, box_basis,
                              box_level, box_cosimplicial, canonical_form,
                              complexity, conormalized_basis,
                              enumerate_symbols, internal_boundary,
                              ker_expand, ker_expand_checked, t_boundary)
from chainops.delta import FinOrd
from chainops import delta
from chainops.intmat import IntMatrix


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


def _reference_bases(k, q, r):
    """Brute force: every (f, phi) from itertools.product that is onto and
    interleaved, sorted by the dataclass order; with complexity(f) and
    whether phi covers {1..r}."""
    onto = [f for f in product(range(1, k + 1), repeat=q + 1)
            if set(f) == set(range(1, k + 1))]
    phis = [phi for phi in product(range(r + 1), repeat=q + 1)
            if all(a <= b for a, b in zip(phi, phi[1:]))]
    syms = sorted(Symbol(k, f, phi, r) for f in onto for phi in phis
                  if all(phi[i] != phi[i + 1] or f[i] != f[i + 1]
                         for i in range(q)))
    return [(s, complexity(s.f), set(range(1, r + 1)) <= set(s.phi))
            for s in syms]


@pytest.mark.parametrize("k,q_max", [(1, 5), (2, 5), (3, 5), (4, 4)])
def test_enumeration_equals_brute_force_in_order(k, q_max):
    # the pruned search against an exhaustive filter, as ordered lists, for
    # every complexity bound that cuts anything and for no bound at all
    for q in range(q_max + 1):
        for r in range(4):
            ref = _reference_bases(k, q, r)
            for n in [INFINITY] + list(range(1, q + 1)):
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
    # covering faces
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
                        if sym.phi_covers():
                            covering = {}
                            for c, face in want:
                                if face.phi_covers():
                                    covering[face] = covering.get(face, 0) + c
                            assert t_boundary(sym, level_cap=r) == {
                                s: c for s, c in covering.items() if c}, sym


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
        fibers = [sym.fiber(i + 1) for i in range(k)]
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
            assert intmat.solve(kerbasis, IntMatrix.from_columns([vec])) \
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
    from chainops.boxprod import NatTransform
    return NatTransform.identity(level_cap)


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


def test_incompatible_inputs():
    from chainops.boxprod import IncompatibleInputs, box_functorial_map
    with pytest.raises(IncompatibleInputs):
        box_functorial_map(2, [_identity_nat(3)], 0, 3)
