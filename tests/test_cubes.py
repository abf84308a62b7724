import json
import os
import random
import subprocess
import sys
from fractions import Fraction as F

import pytest

import chainops
from chainops.cubes import (CubesElement, DegenerateInterval,
                            DisjointnessViolation, IntervalsElement,
                            SampleTooLarge, TDMap,
                            configuration_betti, count_components,
                            gamma_cubes, gamma_intervals,
                            generated_operad_element, intervals_to_cubes,
                            sigma_cubes)


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
