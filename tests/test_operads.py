import hashlib
import json
import random

import pytest

from chainops import boxprod, cubes, operads
from chainops.boxprod import (GradingMismatch, InvalidSymbol, NatTransform,
                              NormalizationFailure, Symbol, apply_tuple,
                              enumerate_symbols, ker_expand,
                              ker_expand_checked, t_boundary,
                              type_contraction_holds, vec_sum)
from chainops.cli import main
from chainops.complexes import reduced_homology
from chainops.operads import (NotStabilized, TruncatedChainOperad,
                              _arity_of, _assoc_tuples, _composable_tuples,
                              _multilinear_twist, _sym_of, _symbol_pools,
                              act_perm_vec, boundary_vec, block_permutation,
                              cokernel_project, gamma_matrix,
                              gamma_substitution, level_truncated_complex,
                              operad_homology, symbol_complex, vec_degree,
                              verify_operad_axioms)


def sym_vec(k, f, phi, r):
    return {Symbol(k, tuple(f), tuple(phi), r): 1}


def levels_match(host, nats):
    """Whether every fiber degree of host is a level of its slot's nat."""
    return all(d in n.components for n, d in zip(nats, host.fiber_degrees()))


def test_unit_is_a_cycle():
    # the identity family is a cycle in the level-truncated quotient; the
    # only loss under truncation is the single overflow term at the frontier
    op = TruncatedChainOperad(None, 2, 4)
    unit = op.unit()
    cap = op.q_cap + 1
    assert vec_sum((t, c * v) for s, c in unit.items()
                   for t, v in t_boundary(s, cap).items()) == {}
    residual = boundary_vec(unit)
    assert all(s.r == cap + 1 for s in residual)


def test_gamma_substitution_example():
    # composing the q=1 generator with itself and the unit gives the
    # single q=2 symbol with f-sequence (1,2,3)
    op = TruncatedChainOperad(None, 2, 4)
    a = sym_vec(2, (1, 2), (0, 0), 0)
    out = op.gamma(a, [a, op.unit()])
    assert out == {Symbol(3, (1, 2, 3), (0, 0, 0), 0): 1}
    # composing with units reproduces the degree-0 generators
    for f in ((1, 2), (2, 1)):
        g = sym_vec(2, f, (0, 0), 0)
        assert op.gamma(g, [op.unit(), op.unit()]) == g
        assert op.gamma(op.unit(), [g]) == g


def test_gamma_cross_validated_by_hand_matrix():
    # the two pipelines agree on a spread of level-matched instances
    rng = random.Random(3)
    pool = {k: [s for q in range(k - 1, 5) for r in range(q + 2)
                for s in enumerate_symbols(k, q, r)] for k in (1, 2)}
    done = 0
    while done < 60:
        k = rng.choice((1, 2))
        h = rng.choice(pool[k])
        term = rng.choice([s for s, _ in ker_expand(h)])
        gs = []
        ok = True
        for m in term.fiber_degrees():
            cands = [s for kk in (1, 2) for s in pool[kk]
                     if s.r == m and s.q <= 3]
            if not cands:
                ok = False
                break
            gs.append({rng.choice(cands): 1})
        if not ok:
            continue
        assert gamma_substitution({h: 1}, gs) == gamma_matrix({h: 1}, gs)
        done += 1


def _gamma_unskipped(h_vec, arg_vecs):
    """gamma_substitution without the fiber-level and cover skips: every
    kernel term of every h goes through apply_tuple."""
    if not h_vec or any(not v for v in arg_vecs):
        return {}
    nats = [NatTransform.from_vector(_arity_of(v), v) for v in arg_vecs]
    twist = _multilinear_twist(vec_degree(h_vec), nats)
    return cokernel_project(vec_sum(
        (t, twist * c * w * v) for h, c in h_vec.items()
        for hk, w in ker_expand(h)
        for t, v in apply_tuple(hk, nats).items()))


def _smallest_symbols(k, r):
    q = max(k - 1, r - 1, 0)
    while not enumerate_symbols(k, q, r):
        q += 1
    return enumerate_symbols(k, q, r)


def test_fiber_skip_on_pipeline_strata():
    # the benchmark's strata: h of arity k at level r, an arity-2 argument
    # in slot 0 and arity-1 arguments elsewhere, each at the level of its
    # fiber of h, or (shifted) slot 0 one level off so that h is skipped;
    # a second host of the stratum is added to h with its own fibers
    rng = random.Random(23)
    nonzero = skipped = 0
    for k in (1, 2, 3):
        for r in range(6):
            hosts = _smallest_symbols(k, r)
            for h in rng.sample(hosts, min(2, len(hosts))):
                for shift in (0, 1):
                    gs = []
                    for slot, m in enumerate(h.fiber_degrees()):
                        level = m + shift if slot == 0 else m
                        cands = _smallest_symbols(2 if slot == 0 else 1, level)
                        gs.append({rng.choice(cands): 1})
                    h_vec = {h: 1, rng.choice(hosts): rng.choice((1, -1, 2))}
                    nats = [NatTransform.from_vector(_arity_of(g), g)
                            for g in gs]
                    skipped += sum(not levels_match(s, nats) for s in h_vec)
                    out = gamma_substitution(h_vec, gs)
                    assert out == _gamma_unskipped(h_vec, gs), (h_vec, gs)
                    assert out == gamma_matrix(h_vec, gs), (h_vec, gs)
                    nonzero += bool(out)
    assert nonzero > 10 and skipped > 40, (nonzero, skipped)


def test_fiber_skip_on_unit_laws():
    # gamma(1; g) skips every level of the unit but g's, gamma(g; 1..1)
    # skips nothing; both agree with the unskipped composite and with g
    op = TruncatedChainOperad(None, 2, 3)
    unit = op.unit()
    for k in (1, 2):
        for q in range(k - 1, op.q_cap + 1):
            for r in range(q + 2):
                for s in enumerate_symbols(k, q, r):
                    g = {s: 1}
                    left = op.gamma(unit, [g])
                    assert left == _gamma_unskipped(unit, [g]) and left == g
                    right = op.gamma(g, [unit] * k)
                    assert right == _gamma_unskipped(g, [unit] * k)
                    assert right == g


def test_cover_skip_on_sampled_tuples(monkeypatch):
    # the axiom sampler's tuples for T(3, q <= 4), seed 7.  A kernel term
    # whose phi misses a positive value flattens only to symbols missing
    # it too, which the projection kills; gamma_substitution applies the
    # covering terms alone, with cover=True, and of their values glues only
    # the choices whose flattened phi covers: the pruned value is the
    # covering part of the full one.  Every term of h is handed to
    # apply_tuple, which returns {} at once when the levels do not match;
    # the applications counted are those past that test, and the glued
    # choices are the calls of boxprod._glue
    op = TruncatedChainOperad(None, 3, 4)
    tuples = _composable_tuples(op, random.Random(7), 60, 40,
                                *_symbol_pools(op))
    called, applied, glued = [], [], []
    glue = boxprod._glue

    def counted(host, nats, cover=False):
        assert cover, host
        called.append(host)
        out = apply_tuple(host, nats, cover=cover)
        if levels_match(host, nats):
            applied.append(host)
        else:
            assert out == {}, host
        return out

    def counted_glue(runs, order, k, r):
        glued.append(runs)
        return glue(runs, order, k, r)
    monkeypatch.setattr(operads, "apply_tuple", counted)
    monkeypatch.setattr(boxprod, "_glue", counted_glue)
    covering = skipped = skipped_nonzero = 0
    glued_full = glued_pruned = 0
    for h_vec, gs in tuples:
        nats = [NatTransform.from_vector(_arity_of(g), g) for g in gs]
        for h in h_vec:
            if not levels_match(h, nats):
                continue
            for hk, _ in ker_expand(h):
                glued.clear()
                out = apply_tuple(hk, nats)
                if hk.phi_covers():
                    covering += 1
                    glued_full += len(glued)
                    assert apply_tuple(hk, nats, cover=True) == {
                        t: c for t, c in out.items() if t.phi_covers()}
                    continue
                assert not any(t.phi_covers() for t in out), (hk, gs)
                skipped += 1
                skipped_nonzero += bool(out)
        glued.clear()
        gamma_substitution(h_vec, gs)
        glued_pruned += len(glued)
    assert all(hk.phi_covers() for hk in applied)
    assert len(called) == sum(len(h_vec) for h_vec, _ in tuples) == 100
    assert len(applied) == covering
    # the sampler is seeded, so the counts are fixed: 176 applications
    # skipped, each of them nonzero before the projection, and of the
    # 171 choices of the covering terms, the 61 that cover are glued
    assert 0 < skipped == skipped_nonzero and glued_pruned < glued_full
    assert (covering, skipped, skipped_nonzero) == (45, 176, 176)
    assert (glued_full, glued_pruned) == (171, 61)


def test_gamma_matrix_applies_each_kernel_term_once(monkeypatch):
    # the axiom sampler's tuples for T(3, q <= 4), seed 7: the matrix
    # composite evaluates the induced map on the summed kernel form of h
    # alone, one apply_tuple per term, and builds no box-level table
    op = TruncatedChainOperad(None, 3, 4)
    tuples = _composable_tuples(op, random.Random(7), 60, 40,
                                *_symbol_pools(op))
    applied = []

    def counted(host, nats):
        applied.append(host)
        return apply_tuple(host, nats)

    def table(*args):
        raise AssertionError("box-level table built", args)
    monkeypatch.setattr(operads, "apply_tuple", counted)
    monkeypatch.setattr(boxprod, "box_functorial_map", table)
    for h_vec, gs in tuples:
        kvec = vec_sum((hk, c * w) for h, c in h_vec.items()
                       for hk, w in ker_expand(h))
        applied.clear()
        gamma_matrix(h_vec, gs)
        assert sorted(applied) == sorted(kvec), (h_vec, gs)


def test_kernel_term_outside_box_basis_raised(monkeypatch):
    # a kernel term that is not interleaved, or not onto, has no value
    # under the induced map: ker_expand_checked refuses it, and the matrix
    # composite passes the refusal on
    h = Symbol(2, (1, 2), (0, 0), 0)
    g = {Symbol(1, (1,), (0,), 0): 1}
    real = boxprod.ker_expand
    for bad in (Symbol(2, (1, 1, 2), (0, 0, 0), 0),
                Symbol(2, (1, 1), (0, 0), 0)):
        monkeypatch.setattr(boxprod, "ker_expand",
                            lambda s: ((bad, 1),) if s == h else real(s))
        with pytest.raises(NormalizationFailure):
            ker_expand_checked(h)
        with pytest.raises(NormalizationFailure):
            gamma_matrix({h: 1}, [g, g])


def test_symbol_complexes_close_under_the_differential():
    # building a window checks that t_boundary stays inside it (from_images
    # raises KeyError on a target outside the basis) and that d o d = 0;
    # for family T the basis is every counted symbol
    for n, q_cap in ((1, 5), (2, 4), (None, 4)):
        for k in (1, 2, 3):
            cx = symbol_complex(k, n, q_cap)
            size = sum(len(labels) for labels in cx.basis.values())
            assert size == sum(len(enumerate_symbols(k, q, r, n))
                               for q in range(k - 1, q_cap + 1)
                               for r in range(q + 2))
            if n is None:
                assert size == sum(boxprod.count_symbols(k, q, r)
                                   for q in range(k - 1, q_cap + 1)
                                   for r in range(q + 2))


def test_wrong_argument_count_raises():
    # one argument per slot of h, even when no fiber of h could match
    h = {Symbol(2, (1, 2), (0, 0), 0): 1}
    g = {Symbol(1, (1,), (0,), 0): 1}
    far = {Symbol(1, (1, 1, 1, 1), (0, 1, 2, 3), 3): 1}
    for args in ([g], [g, g, g], [far], [far, far, far]):
        for gamma in (gamma_substitution, gamma_matrix):
            with pytest.raises(GradingMismatch):
                gamma(h, args)
    nats = [NatTransform.from_vector(1, far)]
    with pytest.raises(GradingMismatch):
        apply_tuple(next(iter(h)), nats)


# sha256 over the sorted composites, call by call: gamma(1; g) and
# gamma(g; 1..1) for every pool symbol g of T1(3, q <= 5) and T2(3, q <= 4),
# and gamma on the sampler's tuples for T(3, q <= 4), seed 7.  A change to
# any composite, coefficient or sign shows
COMPOSITION_DIGESTS = {
    "T1 unit laws":
        "afa6729948f77d73571305db1cb630ad0c0674cc2d89f373c46cafdd556e4cc3",
    "T2 unit laws":
        "edb2241de97851aff95340ddda8f922a4e3219c8dc3b671083a0d93085b90502",
    "T tuples":
        "b1d1d703a4212859023b59420fa8807c692bc27f0fb65181c3e640b772330880",
}


def _composites_digest(op, calls):
    digest = hashlib.sha256()
    for h_vec, gs in calls:
        out = op.gamma(h_vec, gs)
        digest.update(repr([(tuple(s), c)
                            for s, c in sorted(out.items())]).encode())
    return digest.hexdigest()


def test_composition_digests():
    got = {}
    for name, n, q_cap in (("T1 unit laws", 1, 5), ("T2 unit laws", 2, 4)):
        op = TruncatedChainOperad(n, 3, q_cap)
        unit = op.unit()
        pool, _ = _symbol_pools(op)
        got[name] = _composites_digest(op, [
            call for k in sorted(pool) for g in pool[k]
            for call in ((unit, [g]), (g, [unit] * k))])
    op = TruncatedChainOperad(None, 3, 4)
    got["T tuples"] = _composites_digest(op, _composable_tuples(
        op, random.Random(7), 60, 40, *_symbol_pools(op)))
    assert got == COMPOSITION_DIGESTS


def test_substitution_refusals(monkeypatch):
    # each refusal of the substitution path raises its own type
    g0, g1 = sym_vec(1, (1,), (0,), 0), sym_vec(1, (1, 1), (0, 1), 1)
    h = sym_vec(2, (1, 2), (0, 0), 0)
    wider = sym_vec(2, (1, 2, 1), (0, 0, 0), 0)
    cases = [
        (GradingMismatch, h, [g0]),                          # slot count
        (GradingMismatch, {**h, **sym_vec(2, (1, 2), (0, 1), 1)},
         [g0, g0]),                                          # inhomogeneous
        (GradingMismatch, h, [g0, {**g0, **sym_vec(2, (1, 2), (0, 0), 0)}]),
        (InvalidSymbol, g1, [sym_vec(1, (1, 1), (0, 0), 1)]),  # no cover
        (InvalidSymbol, g1, [sym_vec(2, (1, 1), (0, 1), 1)]),  # not onto
        (NormalizationFailure, h, [g0, g0], 0),              # complexity 1
        (NormalizationFailure, wider, [g1, g0], 1),          # complexity 2
    ]
    for exc, h_vec, gs, *n in cases:
        with pytest.raises(exc):
            gamma_substitution(h_vec, gs, *n)
    assert gamma_substitution(h, [g0, g0], 1) == h
    assert gamma_substitution(wider, [g1, g0], 2) == wider
    # a part off its fiber's level: the family of low is misplaced to
    # level 1, and the choice with the level-0 part of slot 2 covers
    host = sym_vec(2, (1, 2, 1), (0, 1, 1), 1)
    low, two = g0, sym_vec(2, (1, 2), (0, 0), 0)
    real = boxprod._family_of

    def misplaced(arity, items):
        if items == tuple(low.items()):
            return object.__new__(NatTransform)._fill(arity, 0,
                                                      {1: dict(items)})
        return real(arity, items)
    monkeypatch.setattr(boxprod, "_family_of", misplaced)
    with pytest.raises(NormalizationFailure, match="level mismatch"):
        gamma_substitution(host, [low, two])
    with pytest.raises(NormalizationFailure, match="level mismatch"):
        boxprod.flatten(Symbol(1, (1, 1), (0, 1), 1), (Symbol(1, (1,),
                                                              (0,), 0),))
    # the projection checks what it keeps: onto and interleaved; a phi
    # that misses a value is dropped
    for bad in (Symbol(2, (1, 1), (0, 1), 1), Symbol(2, (1, 2, 2),
                                                       (0, 1, 1), 1)):
        with pytest.raises(NormalizationFailure):
            cokernel_project({bad: 1})
    assert cokernel_project({Symbol(2, (1, 2), (0, 0), 1): 1}) == {}


def test_degree_additivity_random():
    rng = random.Random(5)
    pool = {k: [s for q in range(k - 1, 5) for r in range(q + 2)
                for s in enumerate_symbols(k, q, r)] for k in (1, 2)}
    done = 0
    while done < 80:
        k = rng.choice((1, 2))
        h = rng.choice(pool[k])
        term = rng.choice([s for s, _ in ker_expand(h)])
        gs = []
        ok = True
        for m in term.fiber_degrees():
            cands = [s for kk in (1, 2) for s in pool[kk]
                     if s.r == m and s.q <= 3]
            if not cands:
                ok = False
                break
            gs.append({rng.choice(cands): 1})
        if not ok:
            continue
        out = gamma_substitution({h: 1}, gs)
        if out:
            assert vec_degree(out) == h.total_degree + \
                sum(vec_degree(g) for g in gs)
        done += 1


def test_axiom_suite_families():
    for n, kmax in [(1, 3), (2, 2), (None, 2)]:
        op = TruncatedChainOperad(n, kmax, 4)
        rep = verify_operad_axioms(op, seed=7, exhaustive_cap=30, samples=20)
        assert rep.passed, rep.to_dict()


# (n, k_max, q_cap, exhaustive_cap, samples, seed): the three windows of the
# benchmark's axioms workload and the three of acceptance 4, with their
# sampler settings
SAMPLER_WINDOWS = [(1, 3, 5, 30, 20, 7), (2, 3, 4, 30, 20, 7),
                   (None, 3, 4, 30, 20, 7), (1, 3, 6, 60, 40, 2026),
                   (2, 3, 6, 60, 40, 2026), (None, 3, 6, 60, 40, 2026)]


@pytest.mark.parametrize("n,k_max,q_cap,cap,samples,seed", SAMPLER_WINDOWS)
def test_sampler_draws_inside_the_window(n, k_max, q_cap, cap, samples, seed,
                                         monkeypatch):
    # one draw per tuple and per tower: each composite is in the window,
    # the towers are exactly as many as asked, hosts of every arity occur,
    # and no host is expanded into its kernel form
    op = TruncatedChainOperad(n, k_max, q_cap)
    pools = _symbol_pools(op)
    expanded = []

    def counted(s):
        expanded.append(s)
        return ker_expand(s)
    for module in (boxprod, operads):
        monkeypatch.setattr(module, "ker_expand", counted, raising=False)
    rng = random.Random(seed)
    tuples = _composable_tuples(op, rng, cap, samples, *pools)
    towers = _assoc_tuples(op, rng, cap, samples, *pools)
    assert not expanded
    assert len(tuples) == cap + samples
    assert len(towers) == max(cap // 2, samples)

    def fits(args):
        # a composite has q + 1 equal to the sum of q + 1 over its arguments
        return sum(_sym_of(a).q + 1 for a in args) <= q_cap + 1
    assert all(fits(gs) for _, gs in tuples)
    for h, gs, es_list in towers:
        assert [len(es) for es in es_list] == [len(_sym_of(g).fiber_degrees())
                                               for g in gs]
        assert fits(gs) and fits([e for es in es_list for e in es])
    for drawn in (tuples[cap:], towers):
        assert {_arity_of(t[0]) for t in drawn} == {1, 2, 3}


@pytest.mark.parametrize("args", [
    ["--exhaustive-cap", "0", "--samples", "0"],
    ["--kmax", "3", "--qmax", "2"]])
def test_verify_operad_smallest_draws_return(args, capsys):
    # no tuple or tower at all, and the smallest window holding arity 3
    assert main(["--json", "verify-operad"] + args) == 0
    report = json.loads(capsys.readouterr().out.splitlines()[-1])
    config, items = report["config"], report["results"]["items"]
    towers = items["associativity (composition diagram)"]["instances"]
    assert towers == max(config["exhaustive_cap"] // 2, config["samples"])


def _window_draws(operad, rng):
    """The sampler's towers with a host of arity 2 or 3, and its sampled
    tuples with a host of arity 3."""
    pools = _symbol_pools(operad)
    towers = _assoc_tuples(operad, rng, 0, 450, *pools)
    tuples = _composable_tuples(operad, rng, 0, 450, *pools)
    return ([t for t in towers if _arity_of(t[0]) > 1],
            [t for t in tuples if _arity_of(t[0]) == 3])


def _tower_sign(gs, es_list):
    """(-1)^(sum over a < b of |g_b| * |e_a1 ... e_an|), the Koszul sign
    of moving each g_b past the arguments of the slots before it."""
    blocks = [sum(vec_degree(e) for e in es) for es in es_list]
    return (-1) ** sum(vec_degree(g) * sum(blocks[:b])
                       for b, g in enumerate(gs))


@pytest.mark.parametrize("n", [1, 2, None])
def test_axioms_on_hosts_of_arity_2_and_3(n, monkeypatch):
    # verify_operad_axioms on many of the sampler's draws with such hosts,
    # so associativity meets the sign -1 and outer equivariance every
    # non-identity permutation of an arity-3 host
    op = TruncatedChainOperad(n, 3, 5)
    towers, tuples = _window_draws(op, random.Random(11))
    flipped = 0
    for h, gs, es_list in towers:
        if _tower_sign(gs, es_list) == -1:
            flipped += bool(op.gamma(op.gamma(h, gs),
                                     [e for es in es_list for e in es]))
    nonzero = sum(bool(op.gamma(h, gs)) for h, gs in tuples)
    assert flipped >= 10 and nonzero >= 90, (flipped, nonzero)
    monkeypatch.setattr(operads, "_symbol_pools",
                        lambda operad: ({k: [] for k in (1, 2, 3)}, {}))
    monkeypatch.setattr(operads, "_composable_tuples",
                        lambda *args: tuples)
    monkeypatch.setattr(operads, "_assoc_tuples", lambda *args: towers)
    rep = verify_operad_axioms(op, cross_check=False)
    assert rep.passed, rep.to_dict()
    items = rep.items
    assert items["associativity (composition diagram)"].instances == \
        len(towers)
    assert items["equivariance (outer permutation)"].instances == \
        5 * len(tuples)


def test_corrupted_gamma_detected():
    # negative control: flipping one sign breaks the composition diagram
    op = TruncatedChainOperad(None, 2, 4)

    class Corrupt(TruncatedChainOperad):
        def gamma(self, h_vec, arg_vecs):
            out = gamma_substitution(h_vec, arg_vecs, self.n)
            if out and min(s.q for s in out) >= 2:
                first = sorted(out)[0]
                out = dict(out)
                out[first] = -out[first]
            return out

    bad = Corrupt(None, 2, 4)
    rep = verify_operad_axioms(bad, seed=7, exhaustive_cap=30, samples=20,
                               cross_check=True)
    assert not rep.passed
    names = {name for name, it in rep.items.items() if it.failures}
    assert names & {"associativity (composition diagram)",
                    "gamma is a chain map",
                    "substitution gamma equals matrix gamma"}


def test_witnesses_replay():
    op = TruncatedChainOperad(None, 2, 4)

    class Corrupt(TruncatedChainOperad):
        def gamma(self, h_vec, arg_vecs):
            out = gamma_substitution(h_vec, arg_vecs, self.n)
            if out and min(s.q for s in out) >= 2:
                first = sorted(out)[0]
                out = dict(out)
                out[first] = -out[first]
            return out

    bad = Corrupt(None, 2, 4)
    rep = verify_operad_axioms(bad, seed=9, exhaustive_cap=30, samples=20)
    item = rep.items.get("substitution gamma equals matrix gamma")
    assert item and item.failures
    tag, h, gs = item.failures[0]
    # re-evaluating the witness reproduces the discrepancy
    assert bad.gamma(h, gs) != gamma_matrix(h, gs, bad.n)


def test_homology_T1_and_T2():
    rep = operad_homology(1, None, (0, 1, 2), 4)
    assert rep.stabilized
    assert rep.groups == {0: (1, ()), 1: (0, ()), 2: (0, ())}
    rep = operad_homology(2, None, (0, 1, 2), 3)
    assert rep.stabilized
    assert rep.groups == {0: (1, ()), 1: (0, ()), 2: (0, ())}


def test_homology_filtration_levels():
    rep = operad_homology(2, 1, (0, 1, 2), 3)
    assert rep.groups == {0: (2, ()), 1: (0, ()), 2: (0, ())}
    rep = operad_homology(2, 2, (0, 1, 2), 3)
    assert rep.groups == {0: (1, ()), 1: (1, ()), 2: (0, ())}


# stand-ins for boxprod.type_contraction, s on local types (k, r, w,
# sizes) giving {w: c}, which the tests patch; each calls the real one,
# bound here before any patch, and the symbol form level_contraction below
# reads the patched one.  The broken ones keep s's shape: sign flipped at
# level 2 or 1, s = 0, a constant sign +1.  The misshapen ones do not:
# zeros_kept gives t's own w, so s(sym) keeps sym's zeros (it is c * sym);
# two_terms gives t's w beside s's.
type_contraction = boxprod.type_contraction


def local_type(sym):
    """sym's local type (k, r, w, sizes): w = f[:p + 1], w_0 then x, the
    first letter over phi = 1, and sizes[v] v's fiber size, ``_clip``-ped;
    the oracle of ``boxprod.cell_types``."""
    k, f, phi, r = sym
    p = phi.count(0)
    if p == len(f) or phi[p] != 1:
        raise boxprod.InvalidSymbol("no covering phi at a level r >= 1", sym)
    return k, r, f[:p + 1], tuple(map(boxprod._clip,
                                      map(f.count, range(k + 1))))


def level_contraction(sym):
    """s on one symbol, {tau: c} or {}: ``boxprod.type_contraction``, as it
    is bound when called, on sym's local type with sym's suffix f[p:],
    phi[p:] put back (p = |w_0|)."""
    k, f, phi, r = sym
    t = local_type(sym)
    p = len(t[2]) - 1
    return {boxprod._sym(k, w[:-1] + f[p:], (0,) * (len(w) - 1) + phi[p:], r):
            c for w, c in boxprod.type_contraction(t).items()}


def level_contraction_holds(sym):
    """``type_contraction_holds`` on sym's local type: the certificate on
    one symbol."""
    return type_contraction_holds(local_type(sym))


def signed(sign):
    return lambda t: {u: sign(t, c) for u, c in type_contraction(t).items()}


def zeros_kept(t):
    return {t[2]: c for c in type_contraction(t).values()}


STUBS = {"flipped_2": signed(lambda t, c: -c if t[1] == 2 else c),
         "flipped_1": signed(lambda t, c: -c if t[1] == 1 else c),
         "zero": lambda t: {},
         "plus_one": signed(lambda t, c: 1),
         "zeros_kept": zeros_kept,
         "two_terms": lambda t: {**type_contraction(t), t[2]: 1}}
# the broken stubs, each with the one level it breaks (None: every level)
BROKEN = (("flipped_2", 2), ("flipped_1", 1), ("zero", None),
          ("plus_one", None))
MISSHAPEN = ("zeros_kept", "two_terms")

# each stub with a call it must make raise: flipped_2 on T(2) at cap 3, the
# others on T2(2) at cap 1
BREAKS = (("flipped_2", (2, None, (0, 1, 2), 3)),
          ("zero", (2, 2, (0, 1, 2), 1)),
          ("zeros_kept", (2, 2, (0, 1, 2), 1)),
          ("two_terms", (2, 2, (0, 1, 2), 1)))


def test_not_stabilized_raised(monkeypatch):
    # the certificate is a check: a contraction with its sign flipped at
    # level 2, s = 0, or an s off its shape fails on some symbol, and the
    # call raises with the level-0 groups in a report that says so
    for name, args in BREAKS:
        monkeypatch.setattr(boxprod, "type_contraction", STUBS[name])
        with pytest.raises(NotStabilized) as info:
            operad_homology(*args)
        rep = info.value.args[0]
        assert not rep.stabilized, name
        monkeypatch.setattr(boxprod, "type_contraction", type_contraction)
        assert rep.groups == operad_homology(*args).groups, name


def test_not_stabilized_raised_under_optimize():
    # python -O strips assert statements; the certificate must still hold
    # for the contraction on T2(3) at cap 1, fail on every broken or
    # misshapen one, and give the full identity's verdict under each broken
    # one on T(2) at q <= 5
    import os
    import subprocess
    import sys
    import chainops
    script = "\n".join([
        "import test_operads as t",
        "from chainops import boxprod, operads as ops",
        "assert False, 'asserts are live'",
        "print('held', ops.operad_homology(3, 2, (0, 1, 2), 1).stabilized)",
        "for name, args in t.BREAKS:",
        "    boxprod.type_contraction = t.STUBS[name]",
        "    try:",
        "        ops.operad_homology(*args)",
        "    except ops.NotStabilized as exc:",
        "        print('raised', exc.args[0].stabilized)",
        "    else:",
        "        print('accepted')",
        "syms = [s for q in range(1, 6) for r in range(1, q + 2)",
        "        for s in t.enumerate_symbols(2, q, r)]",
        "for name, _ in t.BROKEN:",
        "    boxprod.type_contraction = t.STUBS[name]",
        "    print(name, sum(t.level_contraction_holds(s) != all(",
        "        u.phi.count(0) > s.phi.count(0) for u in t.identity_rest(",
        "            s, t.level_contraction)) for s in syms))",
    ])
    src = os.path.dirname(os.path.dirname(os.path.abspath(chainops.__file__)))
    here = os.path.dirname(os.path.abspath(__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, here]))
    proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == (
        ["held True"] + ["raised False"] * len(BREAKS)
        + ["%s 0" % name for name, _ in BROKEN])


# the sweep's shapes: T, T1, T2 and T3 at these (k, q_max), levels >= 1
SWEEP = ((1, 7), (2, 7), (3, 5), (4, 4))


def sweep_shapes(k_max):
    """(k, q, r, n) of each shape of the sweep with k <= k_max."""
    for n in (None, 1, 2, 3):
        for k, q_max in SWEEP:
            if k <= k_max:
                for q in range(k - 1, q_max + 1):
                    for r in range(1, q + 2):
                        yield k, q, r, n


def identity_rest(sym, s):
    """(ds + sd)(sym) - sym, every term, for d = t_boundary(., sym.r)."""
    r = sym.r
    ds = [(u, c * v) for t, c in s(sym).items()
          for u, v in boxprod.t_boundary(t, r).items()]
    sd = [(u, c * v) for t, c in boxprod.t_boundary(sym, r).items()
          for u, v in s(t).items()]
    return vec_sum(ds + sd + [(sym, -1)])


def image_types(t):
    """{type: c}: the local type of s's output on type t, x's fiber grown
    as ``type_contraction_holds`` grows it, with s's sign."""
    k, r, w, sizes = t
    x = w[-1]
    grown = sizes[:x] + (boxprod._clip(sizes[x] + 1),) + sizes[x + 1:]
    return {(k, r, w2, grown): c for w2, c in type_contraction(t).items()}


def test_level_contraction_identity_sweep():
    # every symbol of levels >= 1 of the sweep's shapes: (ds + sd)(sym) is
    # sym plus terms whose w_0 is longer by exactly one, s stays in the
    # family, its sign is sym's coefficient in the internal boundary of its
    # image, and the image's local type is s of sym's, sized as the check
    # sizes it; so level_contraction_holds' verdict is the full identity's
    seen = 0
    for k, q, r, n in sweep_shapes(4):
        above = set(enumerate_symbols(k, q + 1, r, n))
        for sym in enumerate_symbols(k, q, r, n):
            seen += 1
            image = level_contraction(sym)
            for t, c in image.items():
                assert t in above, (sym, t)
                assert boxprod.t_boundary(t, r)[sym] == c, sym
            assert {local_type(t): c for t, c in image.items()} == (
                image_types(local_type(sym))), sym
            w0 = sym.phi.count(0)
            rest = identity_rest(sym, level_contraction)
            assert all(u.phi.count(0) == w0 + 1 for u in rest), sym
            assert level_contraction_holds(sym)
    assert seen == 82932


def test_level_contraction_builds_no_f_table():
    # s's sign is a closed form and the check reads its faces from the
    # local type, so neither builds an f-table: on every symbol of the
    # sweep's T(4) shape at q = 4, level 2, they add no cache miss
    syms = enumerate_symbols(4, 4, 2)
    misses = boxprod._f_table.cache_info().misses
    assert sum(bool(level_contraction(sym)) for sym in syms) > 1000
    assert all(map(level_contraction_holds, syms))
    assert boxprod._f_table.cache_info().misses == misses


def table_faces(sym):
    """(t, (sign, face, covers)) for each face of the cached f-table's
    entries whose face is interleaved, in the table's order."""
    k, f, phi, r = sym
    phi_faces = boxprod._phi_table(phi, r)[2]
    out = []
    for t, sign, f2, _ in boxprod._f_table(k, f)[1]:
        phi2, covers, _ = phi_faces[t]
        face = Symbol(k, f2, phi2, r)
        if face.interleaved():
            out.append((t, (sign, face, covers)))
    return out


def symbol_contraction_holds(sym):
    """The certificate on one symbol, with no local type: s on sym and on
    its faces at t < p = |w_0|, the faces of tau = s(sym) at t <= p (those
    with fewer zeros in phi), read from the cached f-table, each s output
    checked for s's shape; the oracle of ``type_contraction_holds``."""
    k, _, phi, r = sym
    p = phi.count(0)
    below = [(v, u) for v, u, covers in boxprod._faces(sym)
             if covers and u.phi.count(0) < p]
    terms = [(sym, -1)]
    for v, u in [(1, sym)] + below:
        out = level_contraction(u)
        _, uf, uphi, _ = u
        shape = (k, (0,) + uphi, r, len(uf) + 1)
        for t, c in out.items():
            tk, tf, tphi, tr = t
            if len(out) > 1 or (tk, tphi, tr, len(tf)) != shape:
                return False
            if u is sym:
                terms += [(w, c * e) for e, w, covers in boxprod._faces(t)
                          if covers and w.phi.count(0) <= p]
            else:
                terms.append((t, c * v))
    return not vec_sum(terms)


def test_prefix_faces_read_the_f_table_entries():
    # the type-level face read gives the cached f-table's faces at t < stop
    # over phi = 0, with the same signs, faces and order, for every stop,
    # on sym's local type and on the type s gives; those faces cover.  The
    # full read gives every entry of the table, covers and order included
    seen = 0
    for shape in sweep_shapes(3):
        for sym in enumerate_symbols(*shape):
            assert boxprod._faces(sym) == [
                face for _, face in table_faces(sym)], sym
            p = sym.phi.count(0)
            image = level_contraction(sym)
            types = image_types(local_type(sym))
            for u, t in [(sym, local_type(sym))] + list(zip(image, types)):
                k, f, phi, r = u
                zeros = phi.count(0)
                table = table_faces(u)
                for stop in range(zeros + 1):
                    read = boxprod._type_faces(*t[2:], stop)
                    assert [(e, Symbol(k, w + f[zeros + 1:], phi[1:], r), True)
                            for e, w, _ in read] == [
                        face for i, face in table if i < stop], (u, stop)
                assert zeros == p + (u is not sym)
            seen += 1
    assert seen == 61956


def test_type_verdict_is_the_symbol_verdict(monkeypatch):
    # level_contraction_holds reads sym's local type only; on the sweep's
    # shapes with k <= 3 its verdict is the symbol oracle's, with the real
    # s and under each broken one
    syms = [sym for shape in sweep_shapes(3)
            for sym in enumerate_symbols(*shape)]
    for name, _ in ((None, None),) + BROKEN:
        monkeypatch.setattr(boxprod, "type_contraction",
                            STUBS.get(name, type_contraction))
        for sym in syms:
            assert level_contraction_holds(sym) == (
                symbol_contraction_holds(sym)), (name, sym)


def test_contracts_verdict_is_the_full_identity(monkeypatch):
    # level_contraction_holds reads only the terms over phi = 0; on the
    # sweep's shapes with k <= 3 its verdict is the full identity's under
    # each broken contraction, and a misshapen s is refused on every
    # symbol.  Both sides call s at sym's level only, so where a stub is s
    # they hold, as the sweep shows, and only the levels a stub breaks are
    # compared
    syms = [sym for shape in sweep_shapes(3)
            for sym in enumerate_symbols(*shape)]
    for name, level in BROKEN:
        monkeypatch.setattr(boxprod, "type_contraction", STUBS[name])
        verdicts = []
        for sym in (s for s in syms if level in (None, s.r)):
            held = all(u.phi.count(0) > sym.phi.count(0)
                       for u in identity_rest(sym, level_contraction))
            verdicts.append(level_contraction_holds(sym))
            assert verdicts[-1] == held, (name, sym)
        assert not all(verdicts), name
    for name in MISSHAPEN:
        monkeypatch.setattr(boxprod, "type_contraction", STUBS[name])
        assert not any(map(level_contraction_holds, syms)), name


def test_check_refuses_a_moved_x(monkeypatch):
    # an s that puts the new x first in w_0, not last, keeps every fiber
    # size, the length and the last letter, but names another symbol
    # wherever w_0 is not empty: the check reads tau's sizes as t's with
    # x's grown only for s's own w, so it refuses that s wherever it calls
    # it on such a w_0 and s is not 0 there
    monkeypatch.setattr(boxprod, "type_contraction", lambda t: {
        w[-1:] + w[:-1]: c for w, c in type_contraction(t).items()})
    refused = 0
    for shape in sweep_shapes(3):
        for sym in enumerate_symbols(*shape):
            p = sym.phi.count(0)
            held = p == 0 or p == 1 and not level_contraction(sym)
            assert level_contraction_holds(sym) == held, sym
            refused += not held
    assert refused == 22576


def test_contracts_reads_s_over_phi_zero_only(monkeypatch):
    # level_contraction_holds calls s at most 1 + |w_0| times per symbol:
    # on sym's type and on its faces that remove a zero of phi.  A
    # full-identity form of the check calls s on every face of sym as well
    # and fails this
    calls = []

    def counted(t):
        calls.append(t)
        return type_contraction(t)

    monkeypatch.setattr(boxprod, "type_contraction", counted)
    for n, k, q in ((None, 2, 6), (2, 3, 5), (1, 3, 5)):
        for r in range(1, q + 2):
            for sym in enumerate_symbols(k, q, r, n):
                calls.clear()
                assert level_contraction_holds(sym)
                assert len(calls) <= 1 + sym.phi.count(0), sym


# the windows (k, n, level cap) of the benchmark's homology jobs, each at
# degrees 0, 1, 2
HOMOLOGY_WINDOWS = ((3, 2, 1), (3, 1, 1), (2, None, 3), (2, 2, 5),
                    (2, 1, 5), (1, None, 6))


def test_each_type_is_checked_once(monkeypatch):
    # operad_homology checks each local type of its window once, however
    # many (level, degree) cells share it, and s at most 1 + p times per
    # type: fewer checks than symbols
    from chainops import operads as ops
    checked, calls = [], []

    def counted_check(t):
        checked.append(t)
        calls.append(0)
        return type_contraction_holds(t)

    def counted_s(t):
        calls[-1] += 1
        return type_contraction(t)

    monkeypatch.setattr(ops, "type_contraction_holds", counted_check)
    monkeypatch.setattr(boxprod, "type_contraction", counted_s)
    counts = []
    for k, n, cap in HOMOLOGY_WINDOWS:
        checked.clear()
        calls.clear()
        assert operad_homology(k, n, (0, 1, 2), cap).stabilized
        cells = [enumerate_symbols(k, e + k - 1 + r, r, n)
                 for r in range(1, cap + 2) for e in (-1, 0, 1, 2)
                 if e + r >= 0]
        assert len(set(checked)) == len(checked), (k, n, cap)
        assert set(checked) == {local_type(s) for cell in cells
                                for s in cell}, (k, n, cap)
        assert all(c <= len(t[2]) for t, c in zip(checked, calls))
        counts.append((len(checked), sum(map(len, cells))))
    assert all(c <= syms for c, syms in counts)
    assert tuple(map(sum, zip(*counts))) == (1572, 6678)


def test_cell_types_are_the_symbols_types():
    # cell_types finds the local types of a window {q: levels} with no
    # symbol built, from one search: they are those of the window's
    # symbols on each (k, n) of the sweep taken as one window, at n = 0
    # too, on each of its shapes as a one-cell window, and on empty cells
    # (not onto: k > q + 1; no covering phi: r > q + 1)
    shapes = list(sweep_shapes(4))
    shapes += [(k, q, r, 0) for k, q, r, n in shapes if n is None]
    windows = {}
    for k, q, r, n in shapes:
        windows.setdefault((k, n), {}).setdefault(q, []).append(r)
    for (k, n), window in windows.items():
        assert boxprod.cell_types(k, window, n) == {
            local_type(s) for q, levels in window.items() for r in levels
            for s in enumerate_symbols(k, q, r, n)}, (k, n)
    empty = [(3, 1, 1, None), (4, 2, 2, 2), (2, 3, 5, None), (1, 0, 2, 1)]
    sizes = []
    for k, q, r, n in shapes + empty:
        types = boxprod.cell_types(k, {q: (r,)}, n)
        assert types == set(map(local_type, enumerate_symbols(k, q, r, n))), (
            k, q, r, n)
        sizes.append(len(types))
    assert not any(sizes[len(shapes):])
    assert sum(sizes) == 13533
    assert boxprod.cell_types(2, {}) == set()
    for window in ({3: (0,)}, {3: (1,), 4: (2, 0)}, {-1: (1,)}):
        with pytest.raises(boxprod.InvalidSymbol):
            boxprod.cell_types(2, window)


def test_certificate_builds_no_symbol(monkeypatch):
    # operad_homology enumerates symbols for level 0 alone; the levels it
    # certifies come from cell_types.  A broken s still raises
    # NotStabilized with no symbol of a level r >= 1 built
    asked = []
    symbols = boxprod._symbols

    def recorded(k, q, r, n, cover):
        asked.append(r)
        return symbols(k, q, r, n, cover)

    monkeypatch.setattr(boxprod, "_symbols", recorded)
    for k, n, cap in HOMOLOGY_WINDOWS:
        assert operad_homology(k, n, (0, 1, 2), cap).stabilized
    for name, args in BREAKS:
        monkeypatch.setattr(boxprod, "type_contraction", STUBS[name])
        with pytest.raises(NotStabilized):
            operad_homology(*args)
    assert asked and not any(asked)


@pytest.mark.parametrize("k,n,cap", [
    (1, None, 4), (2, None, 3), (2, 1, 3), (2, 2, 3), (3, 1, 1), (3, 2, 1)])
def test_level_zero_groups_are_the_capped_groups(k, n, cap):
    # the groups operad_homology reads from level 0 are those of the
    # assembled level_cap and level_cap + 1 complexes
    groups = operad_homology(k, n, (0, 1, 2), cap).groups
    for c in (cap, cap + 1):
        cx = level_truncated_complex(k, n, c, (0, 2))
        assert reduced_homology(cx, (0, 1, 2)) == groups, c


def test_level_zero_homology_is_configuration_space():
    # level 0 carries the homology of T_n(k), that of F(R^n, k), torsion
    # free: every n <= 4 and k <= 4 but (4, 4), and T2(5)
    cases = [(n, k) for n in (1, 2, 3, 4) for k in (1, 2, 3, 4)
             if (n, k) != (4, 4)] + [(2, 5)]
    for n, k in cases:
        degrees = range((k - 1) * (n - 1) + 2)
        cx = level_truncated_complex(k, n, 0, (0, degrees[-1]))
        betti = cubes.configuration_betti(n, k)
        assert reduced_homology(cx, degrees) == {
            d: (betti.get(d, 0), ()) for d in degrees}, (n, k)


@pytest.mark.parametrize("k,n,window,caps", [
    (2, None, (0, 2), (1, 3)), (3, 1, (0, 1), (0, 2)), (3, 2, (0, 3), (0, 1))])
def test_level_quotient_equals_truncation(k, n, window, caps):
    # the symbols above cap L span a subcomplex of the cap L + 1 complex
    # (d^0 raises the level, the internal part keeps it), and the quotient
    # by it, the rows and columns with r <= L, is the cap L complex: the
    # same labels in the same order and the same matrices.  That exact
    # sequence is what lets the contraction of each level certify a cap
    for cap in caps:
        cx = level_truncated_complex(k, n, cap + 1, window)
        keep = {d: [i for i, s in enumerate(labels) if s.r <= cap]
                for d, labels in cx.basis.items()}
        want = level_truncated_complex(k, n, cap, window)
        assert want.window == cx.window
        assert want.basis == {d: tuple(cx.basis[d][i] for i in kept)
                              for d, kept in keep.items()}
        for d, m in want.diff.items():
            assert m == cx.diff[d].submatrix(keep[d - 1], keep[d])
            top = set(range(cx.diff[d].cols)) - set(keep[d])
            assert all(cx.basis[d - 1][i].r == cap + 1
                       for j, col in cx.diff[d].columns().items() if j in top
                       for i in col)


def test_one_dd_check_per_operad_homology(monkeypatch):
    # only level 0 is assembled, and the levels above it are certified
    # symbol by symbol with no matrix: one d o d check per call, on the
    # level-0 complex
    from chainops.complexes import GradedIntComplex
    checked = []
    check = GradedIntComplex.check_dd_zero

    def counted_check(cx):
        checked.append(cx)
        check(cx)

    monkeypatch.setattr(GradedIntComplex, "check_dd_zero", counted_check)
    for k, n, cap in ((2, None, 3), (3, 1, 2), (3, 2, 1)):
        checked.clear()
        operad_homology(k, n, (0, 1, 2), cap)
        assert len(checked) == 1
        assert {s.r for labels in checked[0].basis.values()
                for s in labels} == {0}


def test_family_t_window_guard(monkeypatch):
    # homology-operad --k 6 --qmax 2 reads T(6) through level 2 (level 0
    # assembled, levels 1 and 2 certified); the closed-form count refuses it
    # before any symbol is enumerated, while the largest family-T window of
    # the tests, T(2) through level 6, passes
    from chainops import operads as ops

    class Built(Exception):
        pass

    def stub(k, n, level_cap, window):
        raise Built(level_cap)

    monkeypatch.setattr(ops, "level_truncated_complex", stub)
    with pytest.raises(ops.InfeasibleSize,
                       match="level-2 window of T.6. has 2612444400 symbols"):
        ops.operad_homology(6, None, (0, 1, 2), 1)
    with pytest.raises(Built):
        ops.operad_homology(2, None, (0, 1, 2), 5)
    monkeypatch.setattr(ops, "MAX_WINDOW_SYMBOLS", 101233)
    with pytest.raises(ops.InfeasibleSize, match="has 101234 symbols"):
        ops.operad_homology(2, None, (0, 1, 2), 5)
    # Tn is not guarded: the count is only an upper bound there
    with pytest.raises(Built):
        ops.operad_homology(6, 1, (0, 1, 2), 1)


def test_little_cubes_comparison():
    # every T_n(k) with n, k <= 3 but T_3(3) against the closed form of
    # F(R^n, k), torsion included, in degrees 0 .. (k-1)(n-1) + 1, so that
    # the vanishing above its top degree is compared too
    for n in (1, 2, 3):
        for k in (1, 2, 3):
            if (n, k) == (3, 3):
                continue
            degrees = range((k - 1) * (n - 1) + 2)
            betti = cubes.configuration_betti(n, k)
            rep = operad_homology(k, n, degrees, 3)
            assert rep.groups == {d: (betti.get(d, 0), ()) for d in degrees}


def test_sigma_freeness_T2():
    # no symbol of T(2), q <= 6, fixed by the transposition
    for q in range(1, 7):
        for r in range(q + 2):
            for s in enumerate_symbols(2, q, r):
                assert act_perm_vec({s: 1}, (2, 1)) != {s: 1}


def test_filtration_inclusions_are_chain_maps():
    # T_n symbols sit inside T_{n+1} and T with the same differential and
    # the same composition
    rng = random.Random(13)
    for q in range(1, 5):
        for r in range(q + 2):
            for s in enumerate_symbols(2, q, r, 1):
                assert s in set(enumerate_symbols(2, q, r, 2))
                assert s in set(enumerate_symbols(2, q, r))
                b1 = boxprod.t_boundary(s)
                assert all(boxprod.complexity(t.f) <= 1 for t in b1)
    # gamma restricted to the filtration agrees with gamma upstairs
    pool = [s for q in range(1, 4) for r in range(q + 2)
            for s in enumerate_symbols(2, q, r, 1)]
    done = 0
    while done < 30:
        h = rng.choice(pool)
        term = rng.choice([t for t, _ in ker_expand(h)])
        gs = []
        ok = True
        for m in term.fiber_degrees():
            cands = [s for s in pool if s.r == m and s.q <= 3] + \
                [s for q in range(3) for s in enumerate_symbols(1, q, m, 1)
                 if s.r == m]
            if not cands:
                ok = False
                break
            gs.append({rng.choice(cands): 1})
        if not ok:
            continue
        low = gamma_substitution({h: 1}, gs, 1)
        high = gamma_substitution({h: 1}, gs, None)
        assert low == high
        done += 1


def test_block_permutation_shape():
    # two blocks of arities (2, 3) swapped by the transposition: the first
    # block of the permuted composite is the old second block
    assert block_permutation((2, 1), [2, 3]) == (4, 5, 1, 2, 3)
    bp = block_permutation((2, 1), [1, 1])
    assert sorted(bp) == [1, 2]
    assert block_permutation((1, 2), [2, 3]) == (1, 2, 3, 4, 5)
    # a 3-cycle with mixed arities is a bijection of the right size
    bp = block_permutation((2, 3, 1), [1, 2, 3])
    assert sorted(bp) == list(range(1, 7))


def test_symbol_complex_matches_level_truncation_ranks():
    # degree-0 chains agree where the windows coincide
    q_cx = symbol_complex(2, None, 4)
    l_cx = level_truncated_complex(2, None, 3, (0, 1))
    syms_q = {s for s in q_cx.basis[0]}
    syms_l = {s for s in l_cx.basis[0]}
    # level truncation keeps r <= 3, q-truncation keeps q <= 4; overlap
    both = {s for s in syms_q if s.r <= 3} & {s for s in syms_l if s.q <= 4}
    assert both


def test_sigma_freeness_T3():
    # no nonidentity permutation fixes a basis symbol of T(3), small window
    perms = [(2, 1, 3), (1, 3, 2), (2, 3, 1), (3, 1, 2), (3, 2, 1)]
    for q in range(2, 5):
        for r in range(q + 2):
            for s in enumerate_symbols(3, q, r):
                for sigma in perms:
                    moved, _sign = boxprod.act_perm(s, sigma)
                    assert moved != s


def test_outer_equivariance_on_hosts_of_arity_4(monkeypatch):
    # every non-identity sigma of the host's arity is checked, arity 4 too
    seen = []

    def counted(sigma, arities):
        seen.append(len(sigma))
        return block_permutation(sigma, arities)
    monkeypatch.setattr(operads, "block_permutation", counted)
    rep = verify_operad_axioms(TruncatedChainOperad(1, 4, 4), seed=7)
    assert 4 in seen
    assert rep.items["equivariance (outer permutation)"].failures == []
    assert rep.passed, rep.to_dict()
