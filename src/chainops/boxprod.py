"""Iterated box products of the standard cosimplicial chain complex, the
complexity filtration, and the surjection-symbol calculus.

A basis class of the k-fold box product evaluated on copies of the standard
cosimplicial chain complex, at cosimplicial level [r], is written as a
symbol

    {1,...,k}  <--f--  [q]  --phi-->  [r]

with f arbitrary-but-onto, phi order-preserving, and no position where phi
and f both repeat (such classes die in the colimit: the collapse morphism
identifies them with degenerate tensors).  Conormalizing additionally kills
the symbols whose phi misses a value in {1,...,r}; what survives is exactly
the normal-form basis used throughout the operad layer.

Enumeration is a depth-first search over f, one position at a time, that
only ever extends prefixes with a completion.  A value that would repeat
across an equal step of phi is skipped (condition (d)); a prefix whose
remaining positions can no longer reach every unseen value is cut (onto);
under a complexity bound n, a change counter per pair of values is kept and a
prefix is cut as soon as one exceeds n.  Appending v adds one change to the
pair {u, v} exactly when u occurred after the last v.  Results are sorted on
the plain tuple key (k, f, phi, r), which is the dataclass order, and cached.

The kernel form of the conormalization has an explicit section given by the
operator product (1 - d^r s^{r-1}) ... (1 - d^1 s^0); ``ker_expand`` applies
it symbolically and is the engine behind both composition pipelines.
"""

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, product
from operator import attrgetter

from .intmat import IntMatrix
from .complexes import GradedIntComplex


class ValueOutOfRange(Exception):
    pass


class BoundsExceeded(Exception):
    pass


class NormalizationFailure(Exception):
    pass


INFINITY = None   # complexity bound "no bound"


@dataclass(frozen=True, order=True)
class Symbol:
    """A basis symbol (f, phi) at arity k and cosimplicial level r."""
    k: int
    f: tuple
    phi: tuple
    r: int

    def __post_init__(self):
        k, f, phi = self.k, self.f, self.phi
        if not (k >= 1 and self.r >= 0 and len(f) == len(phi) >= 1):
            raise AssertionError("bad shape", self)
        if min(f) < 1 or max(f) > k:
            raise ValueOutOfRange(next(v for v in f if not 1 <= v <= k))
        # a sorted phi lies in [0, r] when its two ends do
        if list(phi) != sorted(phi) or phi[0] < 0 or phi[-1] > self.r:
            raise AssertionError("phi not order-preserving into [r]", self)

    @property
    def q(self):
        return len(self.f) - 1

    @property
    def total_degree(self):
        return self.q + 1 - self.k - self.r

    def fiber(self, i):
        return tuple(t for t, v in enumerate(self.f) if v == i)

    def fiber_sizes(self):
        sizes = [0] * self.k
        for v in self.f:
            sizes[v - 1] += 1
        return tuple(sizes)

    def fiber_degrees(self):
        return tuple(s - 1 for s in self.fiber_sizes())

    def is_onto(self):
        return set(self.f) == set(range(1, self.k + 1))

    def phi_covers(self):
        return set(range(1, self.r + 1)) <= set(self.phi)

    def interleaved(self):
        """Condition (d): phi(i) = phi(i+1) implies f(i) != f(i+1)."""
        return all(self.phi[i] != self.phi[i + 1] or self.f[i] != self.f[i + 1]
                   for i in range(self.q))

    def __repr__(self):
        return "S(k=%d,f=%s,phi=%s,r=%d)" % (
            self.k, "".join(map(str, self.f)), "".join(map(str, self.phi)), self.r)


def _sym(k, f, phi, r):
    """Fast constructor for inputs already known to be valid (hot loops)."""
    out = object.__new__(Symbol)
    object.__setattr__(out, "k", k)
    object.__setattr__(out, "f", f)
    object.__setattr__(out, "phi", phi)
    object.__setattr__(out, "r", r)
    return out


# The dataclass order of Symbol as a plain tuple, for C-level sorting.
symbol_key = attrgetter("k", "f", "phi", "r")


def complexity(seq):
    """Mixing measure of a sequence with values in {1..k}: the maximum over
    all two-value subsequences of the number of adjacent changes.  Empty and
    constant sequences have complexity 0."""
    values = sorted(set(seq))
    for v in values:
        if not isinstance(v, int) or v < 1:
            raise ValueOutOfRange(v)
    if len(values) <= 1:
        return 0
    if len(values) == 2:
        changes = 0
        for a, b in zip(seq, seq[1:]):
            if a != b:
                changes += 1
        return changes
    best = 0
    for a, b in combinations(values, 2):
        sub = [v for v in seq if v == a or v == b]
        best = max(best, sum(1 for x, y in zip(sub, sub[1:]) if x != y))
    return best


def _phis(q, r, cover):
    """Order-preserving [q] -> [r]; if cover, the image must contain
    {1,...,r} (condition (b)).  A covering phi is built directly from its
    image, {0..r} or {1..r}, and the positions where its value steps up."""
    if not cover:
        return [tuple(c - t for t, c in enumerate(comb))
                for comb in combinations(range(q + 1 + r), q + 1)]
    out = []
    for image in (range(r + 1), range(1, r + 1)):
        if not image:
            continue
        for steps in combinations(range(1, q + 1), len(image) - 1):
            ends = (0,) + steps + (q + 1,)
            out.append(tuple(v for v, a, b in zip(image, ends, ends[1:])
                             for _ in range(b - a)))
    return out


def _fs(k, phi, n):
    """Onto functions [q] -> {1..k} compatible with condition (d) along phi
    and of complexity <= n, in lexicographic order.

    Depth-first over positions.  A prefix is cut as soon as its remaining
    positions cannot reach every unseen value, or (when n is not None) as
    soon as a pair {u, v} has more than n changes: appending v adds one
    change to {u, v} exactly when u's last position comes after v's.  With
    n None no counters are kept.  ``complexity`` is the reference."""
    q1 = len(phi)
    if n is not None and n < 0:
        return []
    out = []
    seq = [0] * q1
    last = [-1] * (k + 1)           # last position of each value, -1 unseen
    repeat = [t > 0 and phi[t] == phi[t - 1] for t in range(q1)]
    values = range(1, k + 1)
    changes = None if n is None else [[0] * (k + 1) for _ in range(k + 1)]

    def grow(t, unseen):
        prev = seq[t - 1] if t else 0
        slack = q1 - 1 - t          # positions after t
        for v in values:
            if v == prev and repeat[t]:
                continue
            lv = last[v]
            rest = unseen - 1 if lv < 0 else unseen
            if rest > slack:
                continue
            bumped = ()
            if changes is not None and v != prev:
                bumped = [u for u in values if last[u] > lv]
                row = changes[v]
                if any(row[u] >= n for u in bumped):
                    continue
                for u in bumped:
                    row[u] += 1
                    changes[u][v] += 1
            seq[t] = v
            if slack:
                last[v] = t
                grow(t + 1, rest)
                last[v] = lv
            else:
                out.append(tuple(seq))
            for u in bumped:
                row[u] -= 1
                changes[u][v] -= 1

    grow(0, k)
    return out


def _symbols(k, q, r, n, cover):
    """Sorted tuple of the symbols (f, phi) at arity k, size q + 1 and level
    r, onto and interleaved, of complexity <= n.  ``_fs`` sees phi only
    through its equal steps, so phis sharing them share one search; k and r
    are fixed, so sorting on (f, phi) is sorting on the dataclass order."""
    found = {}
    pairs = []
    for phi in _phis(q, r, cover):
        steps = tuple(a == b for a, b in zip(phi, phi[1:]))
        fs = found.get(steps)
        if fs is None:
            fs = found[steps] = _fs(k, phi, n)
        pairs.extend((f, phi) for f in fs)
    pairs.sort()
    return tuple(_sym(k, f, phi, r) for f, phi in pairs)


@lru_cache(maxsize=4096)
def _enumerate_cached(k, q, r, n):
    return _symbols(k, q, r, n, cover=True)


def enumerate_symbols(k, q, r, n=INFINITY):
    """All symbols with conditions (a)-(d) and complexity(f) <= n, in
    deterministic lexicographic order."""
    assert k >= 1 and q >= 0 and r >= 0
    return list(_enumerate_cached(k, q, r, n))


@lru_cache(maxsize=4096)
def _box_basis_cached(k, q, r, n):
    return _symbols(k, q, r, n, cover=False)


def box_basis(k, q, r, n=INFINITY):
    """Basis of the k-fold box product at level [r], internal degree q+1-k:
    conditions (a), (c), (d) but no constraint on the image of phi.  A fresh
    list over a cached tuple, in the same order as enumerate_symbols."""
    assert k >= 1 and q >= 0 and r >= 0
    return list(_box_basis_cached(k, q, r, n))


# -- colimit canonicalization ----------------------------------------------

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


def act_ordered(sym, values, new_r):
    """Postcompose phi with an order-preserving map [r] -> [new_r]; classes
    where condition (d) collapses are zero.  Returns Symbol or None."""
    phi2 = tuple(values[p] for p in sym.phi)
    out = _sym(sym.k, sym.f, phi2, new_r)
    if not out.interleaved():
        return None
    return out


def act_coface(sym, i):
    vals = tuple(j if j < i else j + 1 for j in range(sym.r + 1))
    out = act_ordered(sym, vals, sym.r + 1)
    assert out is not None   # injective maps never collapse
    return out


def act_codegeneracy(sym, i):
    vals = tuple(j if j <= i else j - 1 for j in range(sym.r + 1))
    return act_ordered(sym, vals, sym.r - 1)


def _faces(sym):
    """(position, sign, face) for each face of the internal boundary that
    survives condition (d).  Removing position t of an interleaved symbol
    creates only the adjacency (t-1, t+1), so only that pair is checked;
    other symbols get the full check."""
    f, phi, k, q = sym.f, sym.phi, sym.k, sym.q
    sizes = [0] * k
    pos_in_fiber = []
    for v in f:
        pos_in_fiber.append(sizes[v - 1])
        sizes[v - 1] += 1
    prefix = [0] * (k + 1)
    for i in range(k):
        prefix[i + 1] = prefix[i] + sizes[i] - 1
    clean = sym.interleaved()
    out = []
    for t in range(q + 1):
        i = f[t]
        if sizes[i - 1] < 2:
            continue
        face = Symbol(k, f[:t] + f[t + 1:], phi[:t] + phi[t + 1:], sym.r)
        if clean:
            if 0 < t < q and phi[t - 1] == phi[t + 1] and f[t - 1] == f[t + 1]:
                continue
        elif not face.interleaved():
            continue
        sign = -1 if (prefix[i - 1] + pos_in_fiber[t]) % 2 else 1
        out.append((t, sign, face))
    return out


def internal_boundary(sym):
    """Boundary of the tensor of top simplices, canonicalized in the
    colimit; a list of (coefficient, Symbol) at level r, degree one lower.
    Condition (b) is not imposed here (box level, not conormalized)."""
    return [(sign, face) for _, sign, face in _faces(sym)]


def t_boundary(sym, level_cap=None):
    """Differential of the conormalized complex on the symbol basis: the
    internal boundary with non-covering phis killed, plus the coface part
    induced by d^0 with sign -(-1)^degree.  ``level_cap`` drops the coface
    part past the truncation level (quotient truncation)."""
    if not sym.phi_covers():
        raise AssertionError("t_boundary needs a covering phi", sym)
    phi, q = sym.phi, sym.q
    out = {}
    for t, sign, face in _faces(sym):
        # phi covers, so dropping position t uncovers phi[t] unless it is 0
        # or repeated next door (equal values of a sorted phi are adjacent)
        p = phi[t]
        if p == 0 or (t > 0 and phi[t - 1] == p) or (t < q and phi[t + 1] == p):
            out[face] = out.get(face, 0) + sign
    if 0 in phi and (level_cap is None or sym.r + 1 <= level_cap):
        sign = 1 if sym.total_degree % 2 else -1
        lifted = act_coface(sym, 0)
        assert lifted.phi_covers()
        out[lifted] = out.get(lifted, 0) + sign
    return {s: c for s, c in out.items() if c}


# -- kernel form -----------------------------------------------------------

@lru_cache(maxsize=None)
def ker_expand(sym):
    """The kernel-form representative of a symbol: the image of the
    projection (1 - d^r s^{r-1}) ... (1 - d^1 s^0), a vector over the box
    basis killed by every codegeneracy and congruent to the symbol modulo
    positive-coface images.  Frozen as a sorted tuple of (Symbol, coeff)."""
    vec = {sym: 1}
    for i in range(sym.r):
        new = dict(vec)
        for s, c in vec.items():
            t = act_codegeneracy(s, i)
            if t is not None:
                u = act_coface(t, i + 1)
                new[u] = new.get(u, 0) - c
        vec = {s: c for s, c in new.items() if c}
    return tuple(sorted(vec.items()))


def ker_expand_checked(sym):
    """ker_expand plus the mechanical verification that every codegeneracy
    kills the result; failure would signal a bug, never expected."""
    vec = dict(ker_expand(sym))
    for i in range(sym.r):
        img = {}
        for s, c in vec.items():
            t = act_codegeneracy(s, i)
            if t is not None:
                img[t] = img.get(t, 0) + c
        if any(img.values()):
            raise NormalizationFailure(("codegeneracy survives", sym, i))
    return vec


# -- symmetric group action ------------------------------------------------

def koszul_sign(degrees, perm):
    """Sign of permuting graded letters: ``perm[p]`` is the old index of the
    letter at new position p (0-based)."""
    sign = 1
    n = len(perm)
    for a in range(n):
        for b in range(a + 1, n):
            if perm[a] > perm[b] and degrees[perm[a]] % 2 and degrees[perm[b]] % 2:
                sign = -sign
    return sign


def act_perm(sym, sigma):
    """Right action of a permutation (sigma as a tuple: slot i of the result
    holds the old slot sigma[i], 1-based entries): relabel f and pick up the
    Koszul sign of reordering the tensor factors."""
    assert sorted(sigma) == list(range(1, sym.k + 1))
    inv = [0] * (sym.k + 1)
    for i, v in enumerate(sigma):
        inv[v] = i + 1
    f2 = tuple(inv[v] for v in sym.f)
    degs = sym.fiber_degrees()
    sign = koszul_sign(degs, tuple(v - 1 for v in sigma))
    return Symbol(sym.k, f2, sym.phi, sym.r), sign


# -- flattening (the coherence map on symbols) ------------------------------

def flatten(host, parts):
    """Compose a host symbol of arity k with one part symbol per slot; part
    i must live at level equal to the internal degree of the i-th fiber.
    Returns the flattened symbol (arity = sum of part arities) or None when
    the class dies in the colimit."""
    assert len(parts) == host.k
    fibers = [host.fiber(i + 1) for i in range(host.k)]
    for i, part in enumerate(parts):
        if part.r != len(fibers[i]) - 1:
            raise NormalizationFailure(("level mismatch", host, i, part))
    offsets = [0] * host.k
    for i in range(1, host.k):
        offsets[i] = offsets[i - 1] + parts[i - 1].k
    entries = []
    for i, part in enumerate(parts):
        for t in range(part.q + 1):
            anchor = fibers[i][part.phi[t]]
            entries.append((anchor, i, t, part.f[t] + offsets[i]))
    entries.sort()
    f2 = tuple(e[3] for e in entries)
    phi2 = tuple(host.phi[e[0]] for e in entries)
    total_k = offsets[-1] + parts[-1].k
    out = Symbol(total_k, f2, phi2, host.r)
    if not out.interleaved():
        return None
    assert out.is_onto()
    return out


# -- evaluated box levels ----------------------------------------------------

def box_level(k, n, r, q_cap):
    """The k-fold box product of standard cosimplicial chain complexes at
    level [r], with complexity filtration n, as a graded complex with symbol
    basis, truncated at q <= q_cap."""
    if q_cap < k - 1:
        raise BoundsExceeded((k, q_cap))
    mmax = q_cap + 1 - k
    basis = {m: tuple(box_basis(k, m + k - 1, r, n)) for m in range(mmax + 1)}
    return GradedIntComplex.from_boundary(
        (-1, mmax + 1), basis,
        lambda m, sym: ((face, sign) for sign, face in internal_boundary(sym)))


def box_cosimplicial(k, n, level_cap, q_cap):
    """The whole family of box levels 0..level_cap as a cosimplicial chain
    complex (generic machinery input; sizes stay moderate)."""
    from .cosimplicial import CosimplicialChainComplex
    levels = {r: box_level(k, n, r, q_cap) for r in range(level_cap + 1)}

    def op(alpha_values, new_r, src, tgt):
        def image(sym):
            out = act_ordered(sym, alpha_values, new_r)
            return () if out is None else ((out, 1),)
        lo, hi = src.window
        return {m: IntMatrix.from_images(src.basis[m], tgt.basis[m], image)
                for m in range(max(lo, 0), hi)}

    cofaces, codegens = {}, {}
    for r in range(level_cap):
        for i in range(r + 2):
            vals = tuple(j if j < i else j + 1 for j in range(r + 1))
            cofaces[(r, i)] = op(vals, r + 1, levels[r], levels[r + 1])
    for r in range(1, level_cap + 1):
        for i in range(r):
            vals = tuple(j if j <= i else j - 1 for j in range(r + 1))
            codegens[(r, i)] = op(vals, r - 1, levels[r], levels[r - 1])
    return CosimplicialChainComplex(levels, cofaces, codegens)


def conormalized_basis(k, n, q_cap):
    """Symbol basis of the conormalized box product, derived through the
    colimit machinery: start from the box basis and remove the image of the
    positive cofaces.  Returns {(q, r): tuple of Symbols}."""
    out = {}
    for q in range(k - 1, q_cap + 1):
        for r in range(q + 2):
            full = box_basis(k, q, r, n)
            if not full:
                continue
            # a coface moves phi and keeps f: group the lower basis by phi
            # and map each phi once; killed[phi] lists the sets of f over it
            killed = {}
            if r >= 1:
                lower = {}
                for s in box_basis(k, q, r - 1, n):
                    lower.setdefault(s.phi, set()).add(s.f)
                for i in range(1, r + 1):
                    vals = tuple(j if j < i else j + 1 for j in range(r))
                    for phi, fs in lower.items():
                        image = tuple(vals[p] for p in phi)
                        killed.setdefault(image, []).append(fs)
            survivors = tuple(s for s in full if not any(
                s.f in fs for fs in killed.get(s.phi, ())))
            if survivors:
                out[(q, r)] = survivors
    return out


# -- natural transformations out of the standard cosimplicial chain complex --

class NatTransform:
    """A natural transformation from the standard cosimplicial chain complex
    to a k-fold box product, of a fixed total degree: one kernel-form vector
    per cosimplicial level.  Symbols of the target operad give one-level
    transforms; linear combinations and the operad unit give families."""

    def __init__(self, arity, degree, components):
        self.arity = arity
        self.degree = degree
        self.components = {}
        for r, vec in components.items():
            vec = {s: c for s, c in vec.items() if c}
            if not vec:
                continue
            for s in vec:
                assert s.k == arity and s.r == r
                assert s.total_degree == degree
            self.components[r] = vec

    @classmethod
    def from_vector(cls, arity, vec):
        """Kernel-form family of a conormalized vector (dict Symbol ->
        coeff over symbols satisfying (a)-(d))."""
        degs = {s.total_degree for s in vec}
        assert len(degs) <= 1, "vector not homogeneous"
        degree = degs.pop() if degs else 0
        comp = {}
        for s, c in vec.items():
            assert s.phi_covers(), s
            target = comp.setdefault(s.r, {})
            for t, w in ker_expand(s):
                target[t] = target.get(t, 0) + c * w
        return cls(arity, degree, comp)

    @classmethod
    def identity(cls, level_cap):
        """The identity of the standard cosimplicial chain complex, i.e. the
        operad unit: top cell at every level."""
        comp = {}
        for r in range(level_cap + 1):
            sym = Symbol(1, (1,) * (r + 1), tuple(range(r + 1)), r)
            comp[r] = {sym: 1}
        return cls(1, 0, comp)

    def component(self, r):
        return self.components.get(r, {})


def apply_tuple(host, nats):
    """Value on a box-basis symbol of the map induced by one natural
    transformation per slot, flattened through the coherence map.  Returns a
    vector {Symbol: coeff} at the same level."""
    assert len(nats) == host.k
    degs = host.fiber_degrees()
    sign0 = 1
    acc = 0
    for i, nat in enumerate(nats):
        if nat.degree % 2 and acc % 2:
            sign0 = -sign0
        acc += degs[i]
    comps = []
    for i, nat in enumerate(nats):
        c = nat.component(degs[i])
        if not c:
            return {}
        comps.append(list(c.items()))
    out = {}
    for choice in product(*comps):
        parts = tuple(s for s, _ in choice)
        coeff = sign0
        for _, c in choice:
            coeff *= c
        flat = flatten(host, parts)
        if flat is not None:
            out[flat] = out.get(flat, 0) + coeff
    return {s: c for s, c in out.items() if c}


def box_functorial_map(k, nats, r, q_cap):
    """Matrix data of the induced map on the level-[r] box product for a
    tuple of per-slot natural transformations: {source Symbol: vector}.
    Raises IncompatibleInputs when arities do not match."""
    if len(nats) != k:
        raise IncompatibleInputs((k, len(nats)))
    table = {}
    for m in range(q_cap + 2 - k):
        for sym in box_basis(k, m + k - 1, r, INFINITY):
            table[sym] = apply_tuple(sym, nats)
    return table


class IncompatibleInputs(Exception):
    pass
