"""Numeric little-cubes and little-intervals operads over exact rationals.

Elements are tuples of translation-dilation maps of the unit n-cube with
pairwise disjoint interiors; composition is composition of affine maps, so
the operad axioms are exact equalities of Fractions and need no tolerance.
Two oracles for the arities: the closed-form Betti numbers of the
configuration space F(R^n, k), to which arity k is homotopy equivalent, and
a sampled component counter on a rational grid.
"""

import math
from dataclasses import dataclass
from fractions import Fraction


# count_components unions every pair of samples, so it refuses grids with
# more candidate tuples than this (at resolution + 1, the finer grid it reads)
MAX_CANDIDATES = 10_000


class InvalidCube(AssertionError):
    """A TD-map leaving the unit cube, or cubes, arities or permutations
    that do not fit together.  Raised explicitly, so the checks also run
    under ``python -O``; an AssertionError, as the checks were asserts."""


class DisjointnessViolation(Exception):
    pass


class DegenerateInterval(Exception):
    pass


class ResolutionTooCoarse(Exception):
    pass


class SampleTooLarge(Exception):
    pass


def _frac(x):
    return x if isinstance(x, Fraction) else Fraction(x)


@dataclass(frozen=True, order=True)
class TDMap:
    """t -> a + b*t per coordinate: translation after dilation, with the
    image inside the unit cube (a_i >= 0, b > 0, a_i + b <= 1)."""
    n: int
    a: tuple
    b: Fraction

    def __post_init__(self):
        object.__setattr__(self, "a", tuple(_frac(x) for x in self.a))
        object.__setattr__(self, "b", _frac(self.b))
        if not (self.n >= 1 and len(self.a) == self.n and self.b > 0):
            raise InvalidCube(self)
        for x in self.a:
            if x < 0 or x + self.b > 1:
                raise InvalidCube(self)

    def compose(self, other):
        """self o other, again a TD-map."""
        if self.n != other.n:
            raise InvalidCube((self, other))
        return TDMap(self.n,
                     tuple(x + self.b * y for x, y in zip(self.a, other.a)),
                     self.b * other.b)

    def interval(self, coord):
        return (self.a[coord], self.a[coord] + self.b)

    @classmethod
    def identity(cls, n):
        return cls(n, (Fraction(0),) * n, Fraction(1))


def _disjoint_interiors(c1, c2):
    for coord in range(c1.n):
        u1, v1 = c1.interval(coord)
        u2, v2 = c2.interval(coord)
        if v1 <= u2 or v2 <= u1:
            return True
    return False


@dataclass(frozen=True)
class CubesElement:
    """A point of the little n-cubes operad in arity k."""
    n: int
    cubes: tuple

    def __post_init__(self):
        for c in self.cubes:
            if not (isinstance(c, TDMap) and c.n == self.n):
                raise InvalidCube(c)
        for i in range(len(self.cubes)):
            for j in range(i + 1, len(self.cubes)):
                if not _disjoint_interiors(self.cubes[i], self.cubes[j]):
                    raise DisjointnessViolation((i, j))

    @property
    def k(self):
        return len(self.cubes)

    @classmethod
    def unit(cls, n):
        return cls(n, (TDMap.identity(n),))


def gamma_cubes(c, ds):
    """Operad composition: substitute d_i into the i-th cube of c."""
    if c.k != len(ds):
        raise InvalidCube("%d cubes, %d substitutes" % (c.k, len(ds)))
    cubes = []
    for kappa, d in zip(c.cubes, ds):
        if d.n != c.n:
            raise InvalidCube(d)
        for lam in d.cubes:
            cubes.append(kappa.compose(lam))
    return CubesElement(c.n, tuple(cubes))


def sigma_cubes(c, sigma):
    """Right symmetric action permuting the cubes: slot i of the result
    holds the old slot sigma[i] (1-based)."""
    if sorted(sigma) != list(range(1, c.k + 1)):
        raise InvalidCube(sigma)
    return CubesElement(c.n, tuple(c.cubes[v - 1] for v in sigma))


@dataclass(frozen=True)
class IntervalsElement:
    """A point of the little intervals non-symmetric operad: k closed
    subintervals of [0,1] with disjoint interiors, canonically listed by
    their increasing endpoint order."""
    intervals: tuple

    def __post_init__(self):
        ivs = []
        for u, v in self.intervals:
            u, v = _frac(u), _frac(v)
            if not (0 <= u < v <= 1):
                raise DegenerateInterval((u, v))
            ivs.append((u, v))
        for i in range(len(ivs)):
            for j in range(i + 1, len(ivs)):
                if not (ivs[i][1] <= ivs[j][0] or ivs[j][1] <= ivs[i][0]):
                    raise DisjointnessViolation((i, j))
        object.__setattr__(self, "intervals", tuple(sorted(ivs)))

    @property
    def k(self):
        return len(self.intervals)

    def endpoints(self):
        """The 2k endpoints in increasing order (the coordinates of the
        imbedding defining the topology)."""
        out = []
        for u, v in self.intervals:
            out.extend((u, v))
        return sorted(out)


def intervals_to_cubes(a):
    """The interval [u, v] becomes the TD-map (a=u, b=v-u); the canonical
    order is increasing."""
    return CubesElement(1, tuple(TDMap(1, (u,), v - u) for u, v in a.intervals))


def generated_operad_element(a, sigma):
    """The operad generated by a non-symmetric operad has k-th space
    A(k) x Sigma_k; the pair (a, sigma) lands in the 1-cubes by permuting
    the canonical increasing ordering."""
    cubes = intervals_to_cubes(a)
    return sigma_cubes(cubes, sigma)


def gamma_intervals(a, bs):
    """Non-symmetric composition of interval elements (via the 1-cube
    model, coming back to increasing order)."""
    composed = gamma_cubes(intervals_to_cubes(a), [intervals_to_cubes(b) for b in bs])
    return IntervalsElement(tuple(c.interval(0) for c in composed.cubes))


# -- oracles for the arities -------------------------------------------------

def configuration_betti(n, k):
    """Betti numbers {degree: rank} of F(R^n, k), which is torsion-free
    with Poincare polynomial prod_{j<k} (1 + j t^(n-1)) (Arnold; Cohen)."""
    betti = {0: 1}
    for j in range(1, k):
        nxt = dict(betti)
        for d, c in betti.items():
            nxt[d + n - 1] = nxt.get(d + n - 1, 0) + j * c
        betti = nxt
    return betti


def _grid_cubes(n, k, resolution):
    """All k-tuples of grid TD-maps with disjoint interiors; the grid has
    mesh 1/resolution."""
    R = resolution
    singles = []
    for bnum in range(1, R + 1):
        b = Fraction(bnum, R)
        starts = [Fraction(x, R) for x in range(R - bnum + 1)]
        from itertools import product
        for a in product(starts, repeat=n):
            singles.append(TDMap(n, a, b))
    from itertools import product
    out = []
    for combo in product(singles, repeat=k):
        ok = True
        for i in range(k):
            for j in range(i + 1, k):
                if not _disjoint_interiors(combo[i], combo[j]):
                    ok = False
                    break
            if not ok:
                break
        if ok:
            out.append(combo)
    return out


def _linear_path_valid(c1, c2):
    """Straight-line interpolation keeps interiors disjoint if some
    separating inequality holds at both endpoints (it is linear in the
    parameters, so it holds along the whole segment)."""
    k = len(c1)
    for i in range(k):
        for j in range(i + 1, k):
            found = False
            for coord in range(c1[i].n):
                for lo, hi in ((i, j), (j, i)):
                    if (c1[lo].interval(coord)[1] <= c1[hi].interval(coord)[0] and
                            c2[lo].interval(coord)[1] <= c2[hi].interval(coord)[0]):
                        found = True
                        break
                if found:
                    break
            if not found:
                return False
    return True


def _count_at(n, k, resolution):
    samples = _grid_cubes(n, k, resolution)
    if not samples:
        raise ResolutionTooCoarse((n, k, resolution))
    parent = list(range(len(samples)))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i in range(len(samples)):
        for j in range(i + 1, len(samples)):
            ri, rj = find(i), find(j)
            if ri != rj and _linear_path_valid(samples[i], samples[j]):
                parent[ri] = rj
    return len({find(i) for i in range(len(samples))})


def count_components(n, k, resolution):
    """Number of path components of the sampled configuration graph, with a
    refinement-stability guard (heuristic oracle, exact samples).  Raises
    SampleTooLarge, before sampling, when the grid at resolution + 1 has more
    than MAX_CANDIDATES candidate tuples, (sum_{j<=resolution+1} j^n)^k, at
    least (resolution + 1)^(n k): that bound is screened first, by logs."""
    top = resolution + 1
    if (n * k * math.log(top) > math.log(MAX_CANDIDATES) or
            sum(j ** n for j in range(1, top + 1)) ** k > MAX_CANDIDATES):
        raise SampleTooLarge(
            "n = %d, k = %d at resolution %d has more than %d candidate "
            "tuples" % (n, k, top, MAX_CANDIDATES))
    c1 = _count_at(n, k, resolution)
    c2 = _count_at(n, k, resolution + 1)
    if c1 != c2:
        raise ResolutionTooCoarse((n, k, resolution, c1, c2))
    return c1
