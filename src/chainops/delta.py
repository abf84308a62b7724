"""Finite ordered sets and order-preserving maps: the categories behind
cosimplicial objects.

Objects are skeletal: [m] = {0, ..., m} has size m+1, and the empty set
(size 0) is allowed for the augmented category.  Arbitrary finite totally
ordered sets are always presented through their unique isomorphism to some
[m]; subsets are kept as sorted index lists together with this renumbering.
"""

from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, combinations, product
from types import MappingProxyType


class IndexOutOfRange(Exception):
    pass


class InvalidOrderedMap(AssertionError):
    """A negative size, or values that do not give a weakly increasing map
    between the stated objects.  Raised explicitly, so the checks also run
    under ``python -O``; an AssertionError, as the checks were asserts."""


@dataclass(frozen=True, order=True)
class FinOrd:
    """The totally ordered set {0, ..., size-1}; size 0 is the empty set."""
    size: int

    def __post_init__(self):
        if self.size < 0:
            raise InvalidOrderedMap("negative size %r" % (self.size,))

    @classmethod
    def bracket(cls, m):
        """The object [m] = {0, ..., m}."""
        if m < -1:
            raise InvalidOrderedMap("no object [%d]" % m)
        return cls(m + 1)

    @property
    def level(self):
        """m such that this object is [m]; the empty set gives -1."""
        return self.size - 1


@dataclass(frozen=True, order=True)
class OrderedMap:
    """Weakly increasing map between skeletal finite ordered sets."""
    source: FinOrd
    target: FinOrd
    values: tuple

    def __post_init__(self):
        values = self.values
        if len(values) != self.source.size:
            raise InvalidOrderedMap("%d values for a source of size %d" %
                                    (len(values), self.source.size))
        for v in values:
            if not 0 <= v < self.target.size:
                raise InvalidOrderedMap("value %r outside a target of size %d"
                                        % (v, self.target.size))
        if any(a > b for a, b in zip(values, values[1:])):
            raise InvalidOrderedMap("values %r not weakly increasing" %
                                    (values,))

    def compose(self, other):
        """self o other."""
        if other.target != self.source:
            raise InvalidOrderedMap("a map out of %r after one into %r" %
                                    (self.source, other.target))
        return OrderedMap(other.source, self.target,
                          tuple(self.values[v] for v in other.values))

    @classmethod
    def identity(cls, obj):
        return cls(obj, obj, tuple(range(obj.size)))

    def is_injective(self):
        return len(set(self.values)) == len(self.values)

    def is_surjective(self):
        return set(self.values) == set(range(self.target.size))

    def image(self):
        return sorted(set(self.values))


@lru_cache(maxsize=None)
def coface(m, i):
    """d^i : [m] -> [m+1], the ordered injection missing i."""
    if not (0 <= i <= m + 1):
        raise IndexOutOfRange((m, i))
    vals = tuple(j if j < i else j + 1 for j in range(m + 1))
    return OrderedMap(FinOrd.bracket(m), FinOrd.bracket(m + 1), vals)


@lru_cache(maxsize=None)
def codegeneracy(m, i):
    """s^i : [m] -> [m-1], the ordered surjection hitting i twice."""
    if not (0 <= i <= m - 1):
        raise IndexOutOfRange((m, i))
    vals = tuple(j if j <= i else j - 1 for j in range(m + 1))
    return OrderedMap(FinOrd.bracket(m), FinOrd.bracket(m - 1), vals)


KINDS = {"d": "coface", "s": "codegeneracy"}


@lru_cache(maxsize=None)
def generators(top):
    """Delta's generators on the levels 0..top, by name: ("d", m, i) -> d^i
    and then ("s", m, i) -> s^i; read only, as callers share it."""
    gens = {("d", m, i): coface(m, i)
            for m in range(top) for i in range(m + 2)}
    gens.update((("s", m, i), codegeneracy(m, i))
                for m in range(1, top + 1) for i in range(m))
    return MappingProxyType(gens)


@lru_cache(maxsize=None)
def two_letter_words(top):
    """{b o a: ((a, b), ...)}: the composable pairs of generator names
    among the levels 0..top, grouped by composite, read only.  A one-word
    group that is no identity is a d^i s^j out of [top], whose other word
    would pass through [top + 1]."""
    groups = {}
    for (a, alpha), (b, beta) in product(generators(top).items(), repeat=2):
        if beta.source == alpha.target:
            groups.setdefault(beta.compose(alpha), []).append((a, b))
    return MappingProxyType({c: tuple(words) for c, words in groups.items()})


@lru_cache(maxsize=1024)
def fibers(k, f):
    """The fibers of f: [q] -> {1..k}, given by its values: (sizes, degrees,
    positions, order), with degree size - 1 (an empty fiber is the level
    [-1]), each fiber's positions as a sorted index list, and order[a] the
    rank of position a when the fibers are laid out one after another.
    The values must lie in 1..k, which callers check."""
    positions = [[] for _ in range(k)]
    for a, v in enumerate(f):
        positions[v - 1].append(a)
    in_fiber_order = list(chain.from_iterable(positions))
    order = sorted(range(len(f)), key=in_fiber_order.__getitem__)
    return (tuple(map(len, positions)), tuple(len(p) - 1 for p in positions),
            tuple(map(tuple, positions)), tuple(order))


def factor_epi_mono(phi):
    """Unique factorization phi = mono o epi with epi surjective and mono
    injective."""
    img = phi.image()
    pos = {v: k for k, v in enumerate(img)}
    mid = FinOrd(len(img))
    epi = OrderedMap(phi.source, mid, tuple(pos[v] for v in phi.values))
    mono = OrderedMap(mid, phi.target, tuple(img))
    return epi, mono


@lru_cache(maxsize=4096)
def decompose(phi):
    """Write phi as a tuple of generators (composed left to right as
    listed): first codegeneracies, then cofaces; empty for identities."""
    epi, mono = factor_epi_mono(phi)
    gens = []
    # epi = product of s^i: collapse repeated values one at a time
    cur = list(epi.values)
    m = len(cur) - 1
    while len(set(cur)) < len(cur):
        i = next(j for j in range(len(cur) - 1) if cur[j] == cur[j + 1])
        gens.append(("s", m, i))
        # s^i identifies positions i, i+1; on values, drop one duplicate
        cur = cur[:i] + cur[i + 1:]
        m -= 1
    # mono = product of d^i: insert missing values top-down
    missing = sorted(set(range(phi.target.size)) - set(mono.values))
    level = mono.source.level
    for i in sorted(missing):
        gens.append(("d", level, i))
        level += 1
    return tuple(gens)


def all_ordered_maps(src, tgt):
    """All weakly increasing maps FinOrd(src_size) -> FinOrd(tgt_size)."""
    s, t = src.size, tgt.size
    if s == 0:
        return [OrderedMap(src, tgt, ())]
    out = []
    # weakly increasing tuples of length s over t values
    for comb in combinations(range(t + s - 1), s):
        vals = tuple(c - k for k, c in enumerate(comb))
        out.append(OrderedMap(src, tgt, vals))
    return out


def all_injections(src, tgt):
    return [f for f in all_ordered_maps(src, tgt) if f.is_injective()]
