import json
import math
import os
import pickle
import random
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction as F
from itertools import combinations, product

import pytest

import chainops
from chainops.cubes import (CubesElement, DegenerateInterval,
                            DisjointnessViolation, IntervalsElement,
                            InvalidCube, SampleTooLarge, TDMap,
                            _disjoint_interiors,
                            configuration_betti, count_components,
                            gamma_cubes, generated_operad_element,
                            intervals_to_cubes, sigma_cubes)


def rand_td(rng, n, denom=24):
    b = F(rng.randrange(1, denom), denom)
    a = tuple(F(rng.randrange(0, denom - b.numerator * (denom // denom) * 0 + 1), denom)
              for _ in range(n))
    a = tuple(min(x, 1 - b) for x in a)
    return TDMap(n, a, b)


def rand_element(rng, n, k, tries=300):
    for _ in range(tries):
        cubes = tuple(rand_td(rng, n) for _ in range(k))
        try:
            return CubesElement(n, cubes)
        except DisjointnessViolation:
            continue
    return None


def test_td_invariants():
    TDMap(2, (F(0), F(1, 2)), F(1, 2))
    with pytest.raises(AssertionError):
        TDMap(1, (F(3, 4),), F(1, 2))   # a + b > 1
    with pytest.raises(AssertionError):
        TDMap(1, (F(0),), F(0))          # b = 0


@dataclass(frozen=True, order=True)
class FractionTDMap:
    """Reference TD-map over Fractions: each coordinate a Fraction, the
    checks and composition written on them directly."""
    n: int
    a: tuple
    b: F

    def __post_init__(self):
        object.__setattr__(self, "a", tuple(F(x) for x in self.a))
        object.__setattr__(self, "b", F(self.b))
        if not (self.n >= 1 and len(self.a) == self.n and self.b > 0):
            raise AssertionError(self)
        for x in self.a:
            if x < 0 or x + self.b > 1:
                raise AssertionError(self)

    def compose(self, other):
        return FractionTDMap(self.n,
                             tuple(x + self.b * y for x, y in zip(self.a, other.a)),
                             self.b * other.b)

    def interval(self, coord):
        return (self.a[coord], self.a[coord] + self.b)


def ref_disjoint(c1, c2):
    for coord in range(c1.n):
        u1, v1 = c1.interval(coord)
        u2, v2 = c2.interval(coord)
        if v1 <= u2 or v2 <= u1:
            return True
    return False


def draw_pair(rng, n):
    """Fractions (a, b) of a TD-map over one of a few denominators; about one
    draw in five leaves the unit cube."""
    den = rng.choice((1, 2, 3, 4, 6, 8, 12, 24, 100))
    b = F(rng.randrange(1, den + 1), den)
    a = tuple(F(rng.randrange(0, den + 1), den) for _ in range(n))
    if rng.random() < 0.8:
        a = tuple(min(x, 1 - b) for x in a)
    return a, b


def test_integer_td_maps_match_fraction_reference():
    rng = random.Random(17)
    made = []
    rejected = 0
    for t in range(3000):
        n = 1 + t % 3
        a, b = draw_pair(rng, n)
        try:
            ref = FractionTDMap(n, a, b)
        except AssertionError:
            with pytest.raises(InvalidCube):
                TDMap(n, a, b)
            rejected += 1
            continue
        # Fraction, str and int inputs, and the integer constructor
        den = rng.choice((1, 2, 6)) * math.lcm(*(x.denominator
                                                  for x in a + (b,)))
        for td in (TDMap(n, a, b),
                   TDMap(n, tuple(str(x) for x in a), str(b)),
                   TDMap(n, tuple(int(x) if x.denominator == 1 else x
                                  for x in a), b),
                   TDMap.from_numerators(n, tuple(int(x * den) for x in a),
                                         int(b * den), den)):
            assert (td.n, td.a, td.b) == (ref.n, ref.a, ref.b)
            assert [td.interval(c) for c in range(n)] == \
                [ref.interval(c) for c in range(n)]
            assert repr(td) == repr(ref).replace("FractionTDMap", "TDMap")
            assert hash(td) == hash(ref)
            assert td == TDMap(n, a, b)
        made.append((td, ref))
    assert rejected > 100 and len(made) > 2000
    for _ in range(5000):
        (x, rx), (y, ry) = rng.choice(made), rng.choice(made)
        if x.n != y.n:
            assert x != y and (x < y) == (rx < ry)
            continue
        assert (x == y) == (rx == ry)
        assert (x < y, x <= y, x > y, x >= y) == (rx < ry, rx <= ry, rx > ry,
                                                   rx >= ry)
        assert _disjoint_interiors(x, y) == ref_disjoint(rx, ry)
        xy, rxy = x.compose(y), rx.compose(ry)
        assert (xy.a, xy.b) == (rxy.a, rxy.b)
        assert xy == TDMap(rxy.n, rxy.a, rxy.b) and hash(xy) == hash(rxy)
    tds = [td for td, _ in made]
    assert [(t.n, t.a, t.b) for t in sorted(tds)] == \
        [(r.n, r.a, r.b) for r in sorted(r for _, r in made)]


def test_td_map_integers_reduced_and_immutable():
    td = TDMap.from_numerators(2, (6, 0), 3, 12)
    assert (td.nums, td.bnum, td.den) == ((2, 0), 1, 4)
    assert td == TDMap(2, ("1/2", 0), F(1, 4)) == TDMap(2, (F(2, 4), "0"), "3/12")
    assert pickle.loads(pickle.dumps(td)) == td
    with pytest.raises(AttributeError):
        td.den = 8
    with pytest.raises(InvalidCube):
        TDMap.from_numerators(1, (0,), 1, 0)
    with pytest.raises(InvalidCube):
        TDMap.from_numerators(1, (3,), 2, 4)   # a + b > 1


def test_worked_composition():
    # exact affine composition with the stated constants
    kappa = TDMap(2, (F(55, 100), F(55, 100)), F(40, 100))
    lam = TDMap(2, (F(10, 100), F(30, 100)), F(25, 100))
    out = kappa.compose(lam)
    assert out.a == (F(59, 100), F(67, 100))
    assert out.b == F(1, 10)


def test_unit_laws():
    rng = random.Random(2)
    for n in (1, 2):
        for k in (1, 2, 3):
            c = rand_element(rng, n, k)
            assert c is not None
            unit = CubesElement.unit(n)
            assert gamma_cubes(unit, [c]) == c
            assert gamma_cubes(c, [unit] * k) == c


def test_associativity_exact():
    # Diagram-style associativity, exact over rationals
    rng = random.Random(5)
    done = 0
    while done < 1000:
        n = rng.choice((1, 2))
        k = rng.randrange(1, 4)
        c = rand_element(rng, n, k)
        if c is None:
            continue
        js = [rng.randrange(1, 4) for _ in range(k)]
        ds = [rand_element(rng, n, j) for j in js]
        if any(d is None for d in ds):
            continue
        iss = [[rng.randrange(1, 3) for _ in range(j)] for j in js]
        es = [[rand_element(rng, n, i) for i in row] for row in iss]
        if any(e is None for row in es for e in row):
            continue
        inner = [gamma_cubes(d, row) for d, row in zip(ds, es)]
        lhs = gamma_cubes(c, inner)
        flat = [e for row in es for e in row]
        rhs = gamma_cubes(gamma_cubes(c, ds), flat)
        assert lhs == rhs
        done += 1


def test_sigma_action_and_equivariance():
    rng = random.Random(7)
    done = 0
    while done < 200:
        n = rng.choice((1, 2))
        c = rand_element(rng, n, 2)
        d1 = rand_element(rng, n, rng.randrange(1, 3))
        d2 = rand_element(rng, n, rng.randrange(1, 3))
        if None in (c, d1, d2):
            continue
        assert sigma_cubes(c, (1, 2)) == c
        assert sigma_cubes(sigma_cubes(c, (2, 1)), (2, 1)) == c
        # gamma(c sigma; d1, d2) = gamma(c; d2, d1) block-permuted
        lhs = gamma_cubes(sigma_cubes(c, (2, 1)), [d1, d2])
        rhs = gamma_cubes(c, [d2, d1])
        j2, j1 = d2.k, d1.k
        block = tuple(range(j2 + 1, j2 + j1 + 1)) + tuple(range(1, j2 + 1))
        assert lhs == sigma_cubes(rhs, block)
        done += 1


def test_intervals():
    a = IntervalsElement(((F(0), F(1, 2)),))
    c = intervals_to_cubes(a)
    assert c.cubes[0] == TDMap(1, (F(0),), F(1, 2))
    # A(0) is a point: the empty tuple
    empty = IntervalsElement(())
    assert intervals_to_cubes(empty).k == 0
    with pytest.raises(DegenerateInterval):
        IntervalsElement(((F(1, 2), F(1, 2)),))
    # canonical order is increasing regardless of input order
    b = IntervalsElement(((F(1, 2), F(3, 4)), (F(0), F(1, 4))))
    assert b.intervals[0][0] == F(0)
    assert b.endpoints() == [F(0), F(1, 4), F(1, 2), F(3, 4)]


def test_generated_operad_element():
    a = IntervalsElement(((F(0), F(1, 4)), (F(1, 2), F(3, 4))))
    both = {generated_operad_element(a, (1, 2)).cubes,
            generated_operad_element(a, (2, 1)).cubes}
    assert len(both) == 2   # the two components of C_1(2)


def gamma_intervals(a, bs):
    """Non-symmetric composition of interval elements (via the 1-cube
    model, coming back to increasing order)."""
    composed = gamma_cubes(intervals_to_cubes(a),
                           [intervals_to_cubes(b) for b in bs])
    return IntervalsElement(tuple(c.interval(0) for c in composed.cubes))


def test_nonsymmetric_operad_closure():
    # composition of interval elements (increasing order) stays increasing
    # and is associative: the generated operad satisfies the plain axioms
    rng = random.Random(11)
    done = 0
    while done < 300:
        k = rng.randrange(1, 4)
        a = rand_element(rng, 1, k)
        bs = [rand_element(rng, 1, rng.randrange(1, 3)) for _ in range(k)]
        if a is None or any(b is None for b in bs):
            continue
        av = IntervalsElement(tuple(c.interval(0) for c in a.cubes))
        bvs = [IntervalsElement(tuple(c.interval(0) for c in b.cubes)) for b in bs]
        out = gamma_intervals(av, bvs)
        assert out.k == sum(b.k for b in bvs)
        unit = IntervalsElement(((F(0), F(1)),))
        assert gamma_intervals(unit, [av]) == av
        assert gamma_intervals(av, [unit] * av.k) == av
        done += 1


def test_count_components():
    # the sampled count is b_0 of the configuration space
    for n, k, resolution, b0 in ((1, 1, 4, 1), (1, 2, 5, 2), (2, 2, 4, 1),
                                 (1, 3, 4, 6), (2, 1, 4, 1)):
        comps = count_components(n, k, resolution)
        assert comps == b0 == configuration_betti(n, k)[0], (n, k)


def reference_count(n, k, resolution):
    """Components of the sampled configuration graph with Fraction maps:
    every k-tuple of grid maps with disjoint interiors, joined when some
    separating inequality of each pair holds at both ends of the segment."""
    R = resolution
    singles = [FractionTDMap(n, tuple(F(x, R) for x in a), F(b, R))
               for b in range(1, R + 1)
               for a in product(range(R - b + 1), repeat=n)]
    samples = [c for c in product(singles, repeat=k)
               if all(ref_disjoint(x, y) for x, y in combinations(c, 2))]

    def ends_before(c1, c2, coord):
        return c1.interval(coord)[1] <= c2.interval(coord)[0]

    def joined(c1, c2):
        return all(any(ends_before(c1[lo], c1[hi], coord) and
                       ends_before(c2[lo], c2[hi], coord)
                       for coord in range(n) for lo, hi in ((i, j), (j, i)))
                   for i, j in combinations(range(k), 2))

    parent = list(range(len(samples)))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for i, j in combinations(range(len(samples)), 2):
        if joined(samples[i], samples[j]):
            parent[find(i)] = find(j)
    return len({find(i) for i in range(len(samples))})


def test_grid_masks_match_fraction_reference():
    from chainops.cubes import _count_at, _grid_samples
    for n, k, resolution in ((1, 2, 3), (1, 3, 3), (2, 2, 2), (2, 2, 3),
                             (1, 2, 4), (2, 1, 3), (3, 2, 1)):
        samples = _grid_samples(n, k, resolution)
        want = reference_count(n, k, resolution)
        assert (_count_at(n, k, resolution) if samples else 0) == want, \
            (n, k, resolution)


def test_count_components_size_guard():
    # 225^2 = 50,625 candidate tuples at resolution 5, above the limit,
    # refused before any sample is drawn
    with pytest.raises(SampleTooLarge):
        count_components(3, 2, 4)


def test_configuration_betti_frozen_values():
    assert configuration_betti(2, 3) == {0: 1, 1: 3, 2: 2}
    assert configuration_betti(3, 3) == {0: 1, 2: 3, 4: 2}
    assert configuration_betti(2, 4) == {0: 1, 1: 6, 2: 11, 3: 6}
    assert configuration_betti(1, 4) == {0: 24}


def test_invalid_cubes_rejected_under_optimize(tmp_path):
    # python -O strips assert statements; the cube checks must still fire
    script = "\n".join([
        "from fractions import Fraction as F",
        "from chainops import cubes",
        "assert False, 'asserts are live'",
        "unit = cubes.CubesElement.unit(1)",
        "for bad in (lambda: cubes.TDMap(1, (F(3, 4),), F(1, 2)),",
        "            lambda: cubes.gamma_cubes(unit, [unit, unit]),",
        "            lambda: cubes.sigma_cubes(unit, (2,))):",
        "    try:",
        "        bad()",
        "    except cubes.InvalidCube as exc:",
        "        print('rejected:', exc)",
    ])
    src = os.path.dirname(os.path.dirname(os.path.abspath(chainops.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "rejected: TDMap(n=1, a=(Fraction(3, 4),), b=Fraction(1, 2))",
        "rejected: 1 cubes, 2 substitutes",
        "rejected: (2,)"]
    # the compose command refuses an outer cube that leaves [0, 1]
    path = tmp_path / "compose.json"
    path.write_text(json.dumps({"n": 1, "outer": [{"a": ["1/2"], "b": "3/4"}],
                                "inner": [[{"a": ["0"], "b": "1"}]]}))
    proc = subprocess.run([sys.executable, "-O", "-m", "chainops.cli", "--json",
                           "cubes", "--compose", str(path)], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2, proc.stdout
