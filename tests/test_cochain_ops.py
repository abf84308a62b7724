import os
import random
import subprocess
import sys
from itertools import combinations, product
from math import prod

import pytest

import chainops
from chainops import delta
from chainops.cochain_ops import (AugmentedCochainSystem, CochainElement,
                                  LevelMismatch, verify_identities)
from chainops.delta import FinOrd
from chainops.simplicial import (Cell, from_simplicial_complex,
                                 simplicial_circle, standard_simplex_sset)


@pytest.fixture(scope="module")
def d1():
    return AugmentedCochainSystem(standard_simplex_sset(1), 4)


@pytest.fixture(scope="module")
def d2():
    return AugmentedCochainSystem(standard_simplex_sset(2), 5)


def test_restrict_examples(d2):
    W = d2.W
    top = W.cell("0.1.2")
    assert d2.pullback(2, (0, 2))[top] == Cell((), "0.2")
    assert d2.pullback(2, (0, 1, 2))[top] == top
    e = W.cell("0.1")
    assert d2.pullback(1, (0,))[e] == Cell((), "0")
    assert d2.pullback(1, ())[e] == ()
    assert d2.cells(-1) == ((),)
    assert d2.pullback(-1, ()) == {(): ()}


def test_memoized_faces_equal_direct():
    graph = from_simplicial_complex([0, 1, 2, 3],
                                    [(0, 1), (1, 2), (2, 3), (0, 2)])
    for W in (standard_simplex_sset(2), simplicial_circle(), graph):
        cap = W.max_dim() + 2
        sys_ = AugmentedCochainSystem(W, cap)
        for _ in range(2):      # the second pass reads the memo
            for m in range(cap + 1):
                for size in range(1, m + 2):
                    for subset in combinations(range(m + 1), size):
                        table = sys_.pullback(m, subset)
                        for cell in sys_.cells(m):
                            assert table[cell] == W.restrict(cell, subset)
                assert sys_.pullback(m, ()) == dict.fromkeys(sys_.cells(m), ())
                for j in range(cap + 1):
                    for alpha in delta.all_ordered_maps(
                            FinOrd.bracket(j), FinOrd.bracket(m)):
                        table = sys_.pullback(m, alpha.values)
                        assert table is sys_.pullback(m, alpha.values)
                        assert list(table) == list(sys_.cells(m))
                        for cell in sys_.cells(m):
                            assert table[cell] == W.act(cell, alpha)
        # pushforward reads the tables
        for j in range(cap + 1):
            for m in range(cap + 1):
                for alpha in delta.all_ordered_maps(FinOrd.bracket(j),
                                                    FinOrd.bracket(m)):
                    for x in sys_.basis(j):
                        direct = {cell: x.value(W.act(cell, alpha))
                                  for cell in sys_.cells(m)}
                        assert sys_.pushforward(x, alpha) == \
                            CochainElement.make(m, direct)
        # cup, join and fiberwise operations against a direct evaluation;
        # the second pass reads the memo and returns the first's cochains
        first = {}
        for _ in range(2):
            for key, got, want in operations(sys_, cap):
                assert got == want, key
                assert first.setdefault(key, got) is got, key
        assert {key[0] for key in first} == {"cup", "sqcup", "angle"}
        with pytest.raises(LevelMismatch):
            sys_.pullback(cap + 1, ())


def direct_product(sys_, m, xs, subsets):
    """The level-m product of the x_i on the faces spanned by subsets[i],
    cell by cell through W.restrict (an empty subset reads the point ())."""
    W = sys_.W
    return CochainElement.make(m, {
        cell: prod(x.value(W.restrict(cell, sub) if sub else ())
                   for x, sub in zip(xs, subsets))
        for cell in sys_.cells(m)})


def operations(sys_, cap):
    """(key, value, direct value) of every cup and join of basis cochains
    within the cap, and of every two-valued fiberwise operation up to level
    min(cap, 3), empty fibers included."""
    for p in range(cap + 1):
        for q in range(cap + 1 - p):
            for x in sys_.basis(p):
                for y in sys_.basis(q):
                    yield (("cup", x, y), sys_.cup(x, y), direct_product(
                        sys_, p + q, (x, y),
                        (tuple(range(p + 1)), tuple(range(p, p + q + 1)))))
                    if p + q + 1 <= cap:
                        yield (("sqcup", x, y), sys_.sqcup(x, y),
                               direct_product(sys_, p + q + 1, (x, y), (
                                   tuple(range(p + 1)),
                                   tuple(range(p + 1, p + q + 2)))))
    for m in range(min(cap, 3) + 1):
        for f in product((1, 2), repeat=m + 1):
            fibers = tuple(tuple(t for t, v in enumerate(f) if v == i)
                           for i in (1, 2))
            for x in sys_.basis(len(fibers[0]) - 1):
                for y in sys_.basis(len(fibers[1]) - 1):
                    yield (("angle", f, x, y), sys_.angle(f, [x, y]),
                           direct_product(sys_, m, (x, y), fibers))


def test_identities_build_each_table_once(monkeypatch):
    # verify_identities reads the action only through the system's tables:
    # no per-cell action or restriction, and one table per ordered map
    from chainops.simplicial import FiniteSimplicialSet

    def refuse(*args):
        raise AssertionError("per-cell action during verify_identities")
    built = []
    pullback = FiniteSimplicialSet.pullback

    def counted(self, alpha):
        built.append((alpha.target.level, alpha.values))
        return pullback(self, alpha)
    monkeypatch.setattr(FiniteSimplicialSet, "act", refuse)
    monkeypatch.setattr(FiniteSimplicialSet, "restrict", refuse)
    monkeypatch.setattr(FiniteSimplicialSet, "pullback", counted)
    rep = verify_identities(standard_simplex_sset(2))
    assert rep.passed
    assert built and len(built) == len(set(built))


def test_identity_loops_stop_above_the_top_basis_level(monkeypatch):
    # no basis cochain lives above max_dim, so raising the cap past the
    # levels the identities read neither adds checks nor reads more bases
    calls = []
    basis = AugmentedCochainSystem.basis
    monkeypatch.setattr(AugmentedCochainSystem, "basis",
                        lambda self, m: calls.append(m) or basis(self, m))
    counts, items = [], []
    for cap in (40, 400):
        calls.clear()
        rep = verify_identities(simplicial_circle(), level_cap=cap)
        counts.append(len(calls))
        items.append(rep.to_dict()["items"])
    assert counts[0] == counts[1]
    assert items[0] == items[1]


def test_pushforward_between_augmentation_points(d1):
    eps = d1.epsilon().scale(3)
    empty = delta.all_ordered_maps(FinOrd(0), FinOrd(0))[0]
    assert d1.pushforward(eps, empty) == eps


def test_cup_on_zero_cochains(d1):
    # (x cup y)(v) = x(v) y(v) pointwise in degree zero
    x = d1.dual("0")
    y = d1.dual("1")
    assert d1.cup(x, x) == x
    assert d1.cup(x, y).values == ()


def test_cup_direct_evaluations(d1):
    W = d1.W
    v0, v1, e = d1.dual("0"), d1.dual("1"), d1.dual("0.1")
    edge = W.cell("0.1")
    assert d1.cup(v0, e).value(edge) == 1
    assert d1.cup(v1, e).value(edge) == 0
    assert d1.cup(e, v1).value(edge) == 1


def test_cup_associative_on_basis(d2):
    basis = [d2.dual(n) for m in range(3) for n in d2.W.nondegenerate(m)]
    for x in basis:
        for y in basis:
            for z in basis:
                if x.level + y.level + z.level > 2:
                    continue
                assert d2.cup(d2.cup(x, y), z) == d2.cup(x, d2.cup(y, z))


def test_sqcup_direct_evaluations(d1):
    W = d1.W
    v0, v1 = d1.dual("0"), d1.dual("1")
    edge = W.cell("0.1")
    assert d1.sqcup(v0, v1).value(edge) == 1
    assert d1.sqcup(v1, v0).value(edge) == 0


def test_angle_level_mismatch(d1):
    with pytest.raises(LevelMismatch):
        d1.angle((1, 2), [d1.dual("0.1"), d1.dual("0")])


def test_level_checks_under_optimize():
    # python -O strips assert statements; the level checks run before every
    # memo lookup and must still fire, also right after a memoized call
    script = "\n".join([
        "from chainops import delta",
        "from chainops.cochain_ops import AugmentedCochainSystem, LevelMismatch",
        "from chainops.simplicial import standard_simplex_sset",
        "assert False, 'asserts are live'",
        "sys_ = AugmentedCochainSystem(standard_simplex_sset(1), 3)",
        "x, e = sys_.dual('0'), sys_.dual('0.1')",
        "print(sys_.angle((1, 2), [x, x]) == sys_.angle((1, 2), [x, x]))",
        "for case in (lambda: sys_.angle((1, 3), [x, x]),",
        "             lambda: sys_.angle((1, 2), [e, x]),",
        "             lambda: sys_.pushforward(x, delta.coface(1, 0)),",
        "             lambda: sys_.cells(4)):",
        "    try:",
        "        case()",
        "    except LevelMismatch as exc:",
        "        print('rejected:', type(exc).__name__)",
        "    else:",
        "        print('accepted')",
    ])
    src = os.path.dirname(os.path.dirname(os.path.abspath(chainops.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["True"] + ["rejected: LevelMismatch"] * 4


# Instances per item of verify_identities, in the order the report makes
# them; the graph is the one the benchmark draws from seed 1
IDENTITY_ITEMS = (
    "cofaces of a cup product", "shared middle coface",
    "codegeneracies of a cup product", "cofaces of a join product",
    "codegeneracies of a join product", "join unit", "join from cup",
    "cup from join", "join is the block-partition operation",
    "naturality of fiberwise operations (k=2)",
    "symmetry of fiberwise operations",
    "associativity of fiberwise operations (k=3)",
    "3-ary operations decompose through 2-ary", "augmentation units")
IDENTITY_COUNTS = {
    "simplex2": (45, 27, 18, 36, 0, 6, 27, 27, 9, 757, 86, 399, 399, 14),
    "circle": (8, 4, 4, 14, 2, 2, 4, 4, 3, 651, 18, 90, 90, 4),
    "graph": (80, 48, 32, 64, 0, 8, 48, 48, 16, 1111, 144, 792, 792, 16),
}


def test_identity_instance_counts():
    graph = from_simplicial_complex([0, 1, 2, 3],
                                    [(0, 2), (1, 2), (1, 3), (2, 3)])
    for name, W, cap in (("simplex2", standard_simplex_sset(2), 2),
                         ("circle", simplicial_circle(), None),
                         ("graph", graph, 2)):
        rep = verify_identities(W, level_cap=cap, name=name)
        assert rep.passed, rep.to_dict()
        assert [(k, it.instances) for k, it in rep.items.items()] == \
            list(zip(IDENTITY_ITEMS, IDENTITY_COUNTS[name])), name


def test_naturality_builds_restrictions_only_for_checked_pairs(monkeypatch):
    # a (phi, g) whose fiber levels have no basis cochain checks nothing, and
    # the naturality loop skips it before building its restriction maps
    from chainops import cochain_ops
    graph = from_simplicial_complex([0, 1, 2, 3],
                                    [(0, 2), (1, 2), (1, 3), (2, 3)])
    built = []
    restriction_map = cochain_ops._restriction_map
    monkeypatch.setattr(cochain_ops, "_restriction_map",
                        lambda *args: built.append(args) or
                        restriction_map(*args))
    counts = {}
    for name, W, cap in (("simplex2", standard_simplex_sset(2), 2),
                         ("circle", simplicial_circle(), None),
                         ("graph", graph, 2)):
        built.clear()
        assert verify_identities(W, level_cap=cap, name=name).passed
        counts[name] = len(built)
    assert counts == {"simplex2": 209, "circle": 651, "graph": 145}


def test_identities_on_standard_simplices_and_circle():
    for W, name in [(standard_simplex_sset(2), "simplex2"),
                    (simplicial_circle(), "circle")]:
        rep = verify_identities(W, name=name)
        assert rep.passed, rep.to_dict()
        totals = sum(it.instances for it in rep.items.values())
        assert totals > 500


def test_corrupted_angle_fails_naturality(monkeypatch):
    # dropping the fiber restriction (using an initial segment instead)
    W = standard_simplex_sset(2)
    angle = AugmentedCochainSystem.angle

    def corrupt_angle(self, f, xs):
        from chainops.cochain_ops import CochainElement
        if not f:
            return angle(self, f, xs)
        k = len(xs)
        m = len(f) - 1
        fibers = [tuple(t for t, v in enumerate(f) if v == i + 1)
                  for i in range(k)]
        out = {}
        for cell in self.cells(m):
            prod = 1
            offset = 0
            for fib, x in zip(fibers, xs):
                seg = tuple(range(offset, offset + len(fib)))
                offset += len(fib)
                prod *= x.value(self.pullback(m, seg)[cell])
                if not prod:
                    break
            if prod:
                out[cell] = prod
        return CochainElement.make(m, out)

    monkeypatch.setattr(AugmentedCochainSystem, "angle", corrupt_angle)
    rep = verify_identities(W, level_cap=3, name="corrupt")
    assert not rep.passed
    assert rep.items["naturality of fiberwise operations (k=2)"].failures


def sampled_decomposition_check(W, seed=0, max_level=5, samples=60):
    """Decomposition check on sampled three-valued functions with larger
    sources: the 3-ary operation equals a composite of 2-ary ones."""
    rng = random.Random(seed)
    sys_ = AugmentedCochainSystem(W, max_level + 1)
    checked = 0
    for _ in range(samples * 5):
        if checked >= samples:
            break
        m = rng.randrange(2, max_level + 1)
        g = tuple(rng.randrange(1, 4) for _ in range(m + 1))
        fibs = [tuple(t for t, v in enumerate(g) if v == i) for i in (1, 2, 3)]
        levels = [len(fb) - 1 for fb in fibs]
        xs = []
        for lvl in levels:
            pool = sys_.basis(lvl)
            xs.append(rng.choice(pool) if pool else sys_.zero(lvl))
        alpha_g = tuple(1 if v in (1, 2) else 2 for v in g)
        g1 = tuple(v for v in g if v in (1, 2))
        left = sys_.angle(alpha_g, [sys_.angle(g1, [xs[0], xs[1]]), xs[2]])
        direct = sys_.angle(g, xs)
        assert left == direct, (g,)
        checked += 1
    return checked


def test_sampled_decomposition():
    assert sampled_decomposition_check(standard_simplex_sset(2), seed=3,
                                       max_level=5, samples=40) == 40
