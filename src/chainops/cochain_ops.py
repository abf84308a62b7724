"""The cochain operation calculus on a finite simplicial set: cup product,
the degree-raising join product, the general fiberwise operations indexed by
functions to {1,...,k}, and the mechanical verification of the identities
relating them to the cosimplicial structure.

Cochains at level [m] are integer functions on all m-simplices (degenerate
ones included); the normalized cochains, which vanish on degenerates, are
the basis used by the verification suites.  The system is augmented: the
empty level is a copy of the integers with distinguished element eps, which
the operations consume on empty fibers.
"""

from dataclasses import dataclass
from functools import cached_property
from itertools import product

from . import delta
from .delta import FinOrd, OrderedMap
from .intmat import vec_sum
from .operads import CheckReport


# simplex:N is refused with more simplices, or cells on a level it reads
MAX_LEVEL_CELLS = 2000


class LevelMismatch(AssertionError):
    """Cochains at levels an operation does not take, or a fiber function
    with a value that names no cochain (raised explicitly, so the checks
    also run under ``python -O``)."""


@dataclass(frozen=True)
class CochainElement:
    """Integer function on the simplices of one level; ``level`` is the
    skeletal dimension m, -1 for the empty level.  The sorted values are
    the canonical form (equality, hashing, reports); ``value`` reads a dict
    built from them on first use."""
    level: int                  # >= -1
    values: tuple               # sorted ((cell, value), ...), zeros dropped

    @classmethod
    def make(cls, level, mapping):
        vals = tuple(sorted((c, v) for c, v in mapping.items() if v))
        return cls(level, vals)

    @cached_property
    def _lookup(self):
        return dict(self.values)

    def value(self, cell):
        return self._lookup.get(cell, 0)

    def __add__(self, other):
        if self.level != other.level:
            raise LevelMismatch((self.level, other.level))
        return CochainElement.make(self.level,
                                   vec_sum(self.values + other.values))

    def scale(self, c):
        return CochainElement.make(self.level, {k: c * v for k, v in self.values})


class AugmentedCochainSystem:
    """Levels of integer cochains on a finite simplicial set, with the full
    action of ordered maps and the fiberwise operations.  The empty level
    is [-1], with the single cell (); the action of an ordered map on a
    whole level, the basis of a level and the products (push-forwards and
    all operations) are each computed once for the life of the system."""

    def __init__(self, W, level_cap):
        self.W = W
        self.level_cap = level_cap
        self._tables = {}       # (m, values) -> pullback(m, values)
        self._bases = {}        # m -> basis(m)
        self._products = {}     # (m, xs, subsets) -> _product(...)
        self._values = {}       # its results, interned by value

    def cells(self, m):
        if m > self.level_cap:
            raise LevelMismatch((m, self.level_cap))
        return self.W.cells(m) if m >= 0 else ((),)

    def pullback(self, m, values):
        """The table {sigma: sigma o alpha} over the cells of level m, for
        the ordered map alpha into [m] with these values; a map out of [-1]
        sends every cell to the augmentation point ()."""
        key = (m, values)
        table = self._tables.get(key)
        if table is None:
            cells = self.cells(m)       # refuses levels above the cap
            if values:
                table = self.W.pullback(
                    OrderedMap(FinOrd(len(values)), FinOrd.bracket(m), values))
            else:
                table = dict.fromkeys(cells, ())
            self._tables[key] = table
        return table

    def epsilon(self):
        """The distinguished generator of the empty level."""
        return CochainElement.make(-1, {(): 1})

    def zero(self, level):
        return CochainElement.make(level, {})

    def dual(self, name):
        """Normalized basis cochain: the dual of a nondegenerate simplex,
        extended by zero on every other simplex."""
        cell = self.W.cell(name)
        return CochainElement.make(self.W.cell_dim(cell), {cell: 1})

    def basis(self, m):
        out = self._bases.get(m)
        if out is None:
            out = self._bases[m] = (self.epsilon(),) if m == -1 else tuple(
                self.dual(name) for name in self.W.nondegenerate(m))
        return out

    def pushforward(self, x, alpha):
        """The map of cochain levels induced by an ordered map of levels:
        (alpha_* x)(sigma) = x(sigma o alpha), the product of one factor."""
        if x.level != alpha.source.level:
            raise LevelMismatch((x.level, alpha.source.level))
        return self._product(alpha.target.level, (x,), (alpha.values,))

    def coface(self, x, i):
        return self.pushforward(x, delta.coface(x.level, i))

    def codegeneracy(self, x, i):
        return self.pushforward(x, delta.codegeneracy(x.level, i))

    # -- operations --------------------------------------------------------

    def _product(self, m, xs, subsets):
        """The level-m cochain whose value on a cell is the product of the
        x_i on its faces sigma o subsets[i] (maps into [m] by their values);
        memoized, each result interned by value apart from the memo."""
        cells = self.cells(m)       # refuses levels above the cap
        key = (m, tuple(xs), subsets)
        result = self._products.get(key)
        if result is not None:
            return result
        factors = [(x.value, self.pullback(m, subset))
                   for x, subset in zip(xs, subsets)]
        out = {}
        for cell in cells:
            prod = 1
            for value, table in factors:
                prod *= value(table[cell])
                if not prod:
                    break
            if prod:
                out[cell] = prod
        result = CochainElement.make(m, out)
        result = self._products[key] = self._values.setdefault(result, result)
        return result

    def cup(self, x, y):
        """Front-face/back-face product: the vertex p is shared."""
        p, q = x.level, y.level
        return self._product(p + q, (x, y),
                             (tuple(range(p + 1)), tuple(range(p, p + q + 1))))

    def sqcup(self, x, y):
        """Degree-raising join: the partition has no shared vertex."""
        p, q = x.level, y.level
        return self._product(p + q + 1, (x, y),
                             (tuple(range(p + 1)),
                              tuple(range(p + 1, p + q + 2))))

    def angle(self, f, xs):
        """The operation indexed by f: [m] -> {1..k} (as a tuple of values):
        multiply the evaluations on the fiber restrictions; empty fibers
        consume the augmentation class, and an empty f lands in the
        augmentation level."""
        k = len(xs)
        for v in f:
            if not 1 <= v <= k:
                raise LevelMismatch("f takes the value %d outside 1..%d"
                                    % (v, k))
        _, degrees, fibers, _ = delta.fibers(k, f)
        for d, x in zip(degrees, xs):
            if x.level != d:
                raise LevelMismatch((x.level, d))
        return self._product(len(f) - 1, xs, fibers)


# -- identity verification ----------------------------------------------------

def _restriction_map(f, g, phi):
    """The restriction of phi to the i-th fibers, skeletally renumbered."""
    return [OrderedMap(FinOrd(len(src)), FinOrd(len(tgt)),
                       tuple(tgt.index(phi.values[t]) for t in src))
            for src, tgt in zip(delta.fibers(2, f)[2], delta.fibers(2, g)[2])]


def verify_identities(W, level_cap=None, name="complex"):
    """Exhaustive verification of the cup/join/fiberwise-operation
    identities on all normalized basis cochains of W, within level caps.
    Returns a report; failures carry replayable witnesses."""
    if level_cap is None:
        level_cap = W.max_dim() + 2
    sys_ = AugmentedCochainSystem(W, level_cap)
    angle = sys_.angle
    report = CheckReport({"complex": name, "level_cap": level_cap})
    eps = sys_.epsilon()
    M = level_cap
    top = W.max_dim() + 1       # no basis cochain at a level above max_dim

    # unit 0-cochain: the constant function 1 on vertices
    e = sys_.zero(0)
    for x in sys_.basis(0):
        e = e + x

    # cup/join identities with the cosimplicial operators
    it_cup_d = report.item("cofaces of a cup product")
    it_shared = report.item("shared middle coface")
    it_cup_s = report.item("codegeneracies of a cup product")
    it_join_d = report.item("cofaces of a join product")
    it_join_s = report.item("codegeneracies of a join product")
    it_join_e = report.item("join unit")
    it_join_cup = report.item("join from cup")
    it_cup_join = report.item("cup from join")
    for p in range(min(M, top)):
        for q in range(min(M - p, top)):
            for x in sys_.basis(p):
                for y in sys_.basis(q):
                    if p + q + 1 <= M:
                        xy = sys_.cup(x, y)
                        for i in range(p + q + 1):
                            lhs = sys_.coface(xy, i)
                            if i <= p:
                                rhs = sys_.cup(sys_.coface(x, i), y)
                            else:
                                rhs = sys_.cup(x, sys_.coface(y, i - p))
                            it_cup_d.record(lhs == rhs, ("cup-coface", p, q, i, x, y))
                        lhs = sys_.cup(sys_.coface(x, p + 1), y)
                        rhs = sys_.cup(x, sys_.coface(y, 0))
                        it_shared.record(lhs == rhs, ("shared-coface", p, q, x, y))
                        for i in range(max(0, p + q - 1) + 1):
                            if p + q == 0:
                                continue
                            lhs = sys_.codegeneracy(xy, i)
                            if i <= p - 1:
                                rhs = sys_.cup(sys_.codegeneracy(x, i), y)
                            else:
                                rhs = sys_.cup(x, sys_.codegeneracy(y, i - p))
                            it_cup_s.record(lhs == rhs, ("cup-codegeneracy", p, q, i, x, y))
                    if p + q + 2 <= M:
                        xjy = sys_.sqcup(x, y)
                        for i in range(p + q + 3):
                            # for i >= p+2 the face deletes the
                            # (i-p-1)-st vertex of the back block (forced by
                            # naturality, which is checked exhaustively)
                            lhs = sys_.coface(xjy, i)
                            if i <= p + 1:
                                rhs = sys_.sqcup(sys_.coface(x, i), y)
                            else:
                                rhs = sys_.sqcup(x, sys_.coface(y, i - p - 1))
                            it_join_d.record(lhs == rhs, ("join-coface", p, q, i, x, y))
                        # seam coincidence: the top coface on the front block
                        # equals the zeroth coface on the back block
                        lhs = sys_.sqcup(sys_.coface(x, p + 1), y)
                        rhs = sys_.sqcup(x, sys_.coface(y, 0))
                        it_join_d.record(lhs == rhs, ("join-coface-seam", p, q, x, y))
                        for i in range(p + q + 1):
                            if i == p:
                                continue
                            lhs = sys_.codegeneracy(xjy, i)
                            if i < p:
                                rhs = sys_.sqcup(sys_.codegeneracy(x, i), y)
                            else:
                                rhs = sys_.sqcup(x, sys_.codegeneracy(y, i - p - 1))
                            it_join_s.record(lhs == rhs, ("join-codegeneracy", p, q, i, x, y))
                    if p + q + 1 <= M:
                        lhs = sys_.sqcup(x, y)
                        it_join_cup.record(
                            lhs == sys_.cup(sys_.coface(x, p + 1), y) and
                            lhs == sys_.cup(x, sys_.coface(y, 0)),
                            ("join-from-cup", p, q, x, y))
                        it_cup_join.record(
                            sys_.cup(x, y) == sys_.codegeneracy(lhs, p),
                            ("cup-from-join", p, q, x, y))
        if p + 1 <= M:
            for x in sys_.basis(p):
                lhs = sys_.codegeneracy(sys_.sqcup(x, e), p)
                rhs = sys_.codegeneracy(sys_.sqcup(e, x), 0)
                it_join_e.record(lhs == x and rhs == x, ("join-unit", p, x))

    # the join is the fiberwise operation of the two-block partition
    it_block = report.item("join is the block-partition operation")
    for p in range(min(M - 1, top)):
        for q in range(min(M - 1 - p, top)):
            f = tuple([1] * (p + 1) + [2] * (q + 1))
            for x in sys_.basis(p):
                for y in sys_.basis(q):
                    it_block.record(angle(f, [x, y]) == sys_.sqcup(x, y),
                                ("join-block", f, x, y))

    # naturality of the fiberwise operations
    it_nat = report.item("naturality of fiberwise operations (k=2)")
    for m1 in range(-1, min(3, M) + 1):
        for m2 in range(-1, min(3, M) + 1):
            for phi in delta.all_ordered_maps(FinOrd.bracket(m1),
                                              FinOrd.bracket(m2)):
                for g in product((1, 2), repeat=m2 + 1):
                    f = tuple(g[v] for v in phi.values)
                    xbasis, ybasis = map(sys_.basis, delta.fibers(2, f)[1])
                    if not (xbasis and ybasis):
                        continue
                    phis = _restriction_map(f, g, phi)
                    for x in xbasis:
                        for y in ybasis:
                            lhs = sys_.pushforward(angle(f, [x, y]), phi)
                            xs2 = sys_.pushforward(x, phis[0])
                            ys2 = sys_.pushforward(y, phis[1])
                            rhs = angle(g, [xs2, ys2])
                            it_nat.record(lhs == rhs,
                                        ("naturality", phi.values, g, x, y))

    # symmetry
    it_sym = report.item("symmetry of fiberwise operations")
    for m in range(0, min(4, M) + 1):
        for f in product((1, 2), repeat=m + 1):
            tf = tuple(3 - v for v in f)
            fib = delta.fibers(2, f)[1]
            for x in sys_.basis(fib[0]):
                for y in sys_.basis(fib[1]):
                    it_sym.record(angle(f, [x, y]) == angle(tf, [y, x]),
                                ("symmetry", f, x, y))

    # associativity through a three-block function, and the direct 3-ary
    it_assoc = report.item("associativity of fiberwise operations (k=3)")
    it_decomp = report.item("3-ary operations decompose through 2-ary")
    for m in range(0, min(3, M) + 1):
        for g in product((1, 2, 3), repeat=m + 1):
            levels = delta.fibers(3, g)[1]
            alpha_g = tuple(1 if v in (1, 2) else 2 for v in g)
            beta_g = tuple(1 if v == 1 else 2 for v in g)
            g1 = tuple(v for v in g if v in (1, 2))
            g2 = tuple(v - 1 for v in g if v in (2, 3))
            for x in sys_.basis(levels[0]):
                for y in sys_.basis(levels[1]):
                    for z in sys_.basis(levels[2]):
                        left = angle(alpha_g, [angle(g1, [x, y]), z])
                        right = angle(beta_g, [x, angle(g2, [y, z])])
                        direct = angle(g, [x, y, z])
                        it_assoc.record(left == right, ("associativity", g, x, y, z))
                        it_decomp.record(left == direct and right == direct,
                                    ("decomposition", g, x, y, z))

    # units
    it_unit = report.item("augmentation units")
    for m in range(0, min(4, M) + 1):
        f1 = (1,) * (m + 1)
        f2 = (2,) * (m + 1)
        for x in sys_.basis(m):
            it_unit.record(angle(f1, [x, eps]) == x, ("unit-right", m, x))
            it_unit.record(angle(f2, [eps, x]) == x, ("unit-left", m, x))

    return report
