"""Numeric little-cubes and little-intervals operads over exact rationals.

Elements are tuples of translation-dilation maps of the unit n-cube with
pairwise disjoint interiors; composition is composition of affine maps, so
the operad axioms are exact equalities and need no tolerance.  A TD-map
keeps its coordinates as integer numerators over one shared denominator,
reduced by their gcd, so composition is integer products and the
disjointness tests are cross-multiplied integer compares; Fractions appear
only at the boundary (the constructor's inputs, ``a``, ``b`` and
``interval``).  Two oracles for the arities: the closed-form Betti numbers
of the configuration space F(R^n, k), to which arity k is homotopy
equivalent, and a sampled component counter on a rational grid, which
works on integer grid coordinates throughout.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import total_ordering
from itertools import combinations, product
from operator import and_


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


@total_ordering
class TDMap:
    """t -> a + b*t per coordinate: translation after dilation, with the
    image inside the unit cube (a_i >= 0, b > 0, a_i + b <= 1).

    Stored as the integers a_i = nums[i] / den and b = bnum / den with
    gcd(den, bnum, *nums) = 1, so equal maps store equal integers.
    ``TDMap(n, a, b)`` takes Fractions, ints or strings; ``from_numerators``
    takes the integers.  Immutable; equality, hash, order and repr are those
    of the fields (n, a, b) read as Fractions."""
    __slots__ = ("n", "nums", "bnum", "den")

    def __init__(self, n, a, b):
        a = tuple(map(_frac, a))
        b = _frac(b)
        den = math.lcm(b.denominator, *(x.denominator for x in a))
        # the lcm of reduced denominators leaves the numerators coprime to it
        _set_n(self, n)
        _set_nums(self, tuple([x.numerator * (den // x.denominator)
                               for x in a]))
        _set_bnum(self, b.numerator * (den // b.denominator))
        _set_den(self, den)
        self._check()

    @classmethod
    def from_numerators(cls, n, nums, bnum, den):
        """The map with a_i = nums[i] / den and b = bnum / den (integers,
        den >= 1), checked like the constructor's."""
        if den < 1:
            raise InvalidCube(("denominator", den))
        self = _td(n, tuple(nums), bnum, den)
        self._check()
        return self

    def _check(self):
        n, nums, bnum, den = self.n, self.nums, self.bnum, self.den
        if not (n >= 1 and len(nums) == n and bnum > 0):
            raise InvalidCube(self)
        for x in nums:
            if x < 0 or x + bnum > den:
                raise InvalidCube(self)

    def __setattr__(self, name, value):
        raise AttributeError("TDMap is immutable")

    def __delattr__(self, name):
        raise AttributeError("TDMap is immutable")

    def __reduce__(self):
        return (TDMap.from_numerators, (self.n, self.nums, self.bnum, self.den))

    @property
    def a(self):
        den = self.den
        return tuple(Fraction(x, den) for x in self.nums)

    @property
    def b(self):
        return Fraction(self.bnum, self.den)

    def compose(self, other):
        """self o other, again a TD-map."""
        if self.n != other.n:
            raise InvalidCube((self, other))
        d, b = other.den, self.bnum
        return _td(self.n,
                   tuple([x * d + b * y for x, y in zip(self.nums, other.nums)]),
                   b * other.bnum, self.den * d)

    def interval(self, coord):
        x, den = self.nums[coord], self.den
        return (Fraction(x, den), Fraction(x + self.bnum, den))

    @classmethod
    def identity(cls, n):
        return cls.from_numerators(n, (0,) * n, 1, 1)

    def _fields(self):
        return (self.n, self.a, self.b)

    def __eq__(self, other):
        if other.__class__ is not TDMap:
            return NotImplemented
        return (self.den == other.den and self.bnum == other.bnum and
                self.nums == other.nums and self.n == other.n)

    def __hash__(self):
        return hash(self._fields())

    def __lt__(self, other):
        if other.__class__ is not TDMap:
            return NotImplemented
        return self._fields() < other._fields()

    def __repr__(self):
        return "TDMap(n=%r, a=%r, b=%r)" % self._fields()


# the slots' own setters, past TDMap.__setattr__
_set_n, _set_nums, _set_bnum, _set_den = (
    TDMap.n.__set__, TDMap.nums.__set__, TDMap.bnum.__set__, TDMap.den.__set__)


def _td(n, nums, bnum, den):
    """The TDMap nums / den, bnum / den, divided through by the gcd of the
    integers, unchecked (hot loops)."""
    g = math.gcd(den, bnum, *nums)
    if g > 1:
        nums = tuple([x // g for x in nums])
        bnum //= g
        den //= g
    self = object.__new__(TDMap)
    _set_n(self, n)
    _set_nums(self, nums)
    _set_bnum(self, bnum)
    _set_den(self, den)
    return self


def _disjoint_interiors(c1, c2):
    """Some coordinate separates the two images, v1 <= u2 or v2 <= u1,
    compared over the common denominator den1 * den2."""
    d1, d2 = c1.den, c2.den
    b1, b2 = c1.bnum * d2, c2.bnum * d1
    for x, y in zip(c1.nums, c2.nums):
        x, y = x * d2, y * d1
        if x + b1 <= y or y + b2 <= x:
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
        for (i, c1), (j, c2) in combinations(enumerate(self.cubes), 2):
            if not _disjoint_interiors(c1, c2):
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


def _grid_samples(n, k, resolution):
    """The k-tuples of grid TD-maps (mesh 1/resolution) with disjoint
    interiors, each given by its separation masks: one mask per pair i < j
    of cubes, with bit 2c set when cube i ends before cube j starts in
    coordinate c and bit 2c + 1 when cube j ends before cube i starts.  A
    tuple has disjoint interiors when every mask is nonzero.  Grid maps are
    integer numerators over the resolution, so the compares are integer."""
    R = resolution
    singles = [(a, b) for b in range(1, R + 1)
               for a in product(range(R - b + 1), repeat=n)]

    def separations(s, t):
        (a1, b1), (a2, b2) = s, t
        mask = 0
        for c, (x, y) in enumerate(zip(a1, a2)):
            if x + b1 <= y:
                mask |= 1 << 2 * c
            if y + b2 <= x:
                mask |= 2 << 2 * c
        return mask

    table = [[separations(s, t) for t in singles] for s in singles]
    pairs = list(combinations(range(k), 2))
    out = []
    for combo in product(range(len(singles)), repeat=k):
        masks = tuple(table[combo[i]][combo[j]] for i, j in pairs)
        if all(masks):
            out.append(masks)
    return out


def _linear_path_valid(masks1, masks2):
    """Straight-line interpolation keeps interiors disjoint if, for every
    pair of cubes, some separating inequality holds at both endpoints (it is
    linear in the parameters, so it holds along the whole segment)."""
    return all(map(and_, masks1, masks2))


def _count_at(n, k, resolution):
    samples = _grid_samples(n, k, resolution)
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
