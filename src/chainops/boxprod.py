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
the normal-form basis used throughout the operad layer (``cokernel_project``
is that projection, and checks what it keeps).

Enumeration is one depth-first search over f, position by position, for
all phi at once: where f repeats, phi must step up (condition (d)).  A
prefix is cut when its repeats force more up steps than any phi has, when
its remaining positions cannot reach every unseen value (onto), or, under a
complexity bound n, once a pair of values has more than n changes; appending
v adds one change to the pair {u, v} exactly when u occurred after the last
v.  The search has two leaves: each f keeps the phi whose equal steps miss
its repeats, as Symbols (k, f, phi, r), sorted and cached, or gives the local
types at levels r >= 1 of a whole window's symbols in one search, none built.

The faces of a symbol merge two cached tables.  The f-table holds f's
repeats as a bit mask and, per position t of a fiber of two or more entries,
the Koszul sign, f without t and whether f[t-1] == f[t+1]; the phi-table
whether phi covers [1..r], its equal steps as a bit mask and, per t, phi
without t and whether that still covers.  Condition (d) holds when the two
masks share no bit.

The kernel form of the conormalization has an explicit section given by the
operator product (1 - d^r s^{r-1}) ... (1 - d^1 s^0); ``ker_expand`` gives
it in closed form, a signed sum over the sets of values of phi it lowers.

Every level r >= 1 of the conormalized complex is contractible under its
internal differential: ``type_contraction`` is the contraction, read in
the blocks w_0 | w_1 | ... of f over each value of phi; it and the check
of its identity act on local types, which keep only what the check reads,
and ``cell_types`` finds the local types of a window's cells.
"""

from functools import lru_cache, reduce
from itertools import accumulate, chain, combinations, islice, product
from math import comb, prod
from operator import eq, itemgetter, ne, or_
from types import MappingProxyType

from . import delta
from .intmat import IntMatrix, vec_sum
from .complexes import GradedIntComplex


class ValueOutOfRange(Exception):
    pass


class BoundsExceeded(Exception):
    """No symbols under a q cap: args[0] is (arity, q cap)."""


class NormalizationFailure(Exception):
    pass


class InvalidSymbol(AssertionError):
    """A symbol, or a shape asked of one, that breaks conditions (a)-(d)
    where the calculus guarantees them (raised explicitly, so the check
    also runs under ``python -O``)."""


class GradingMismatch(AssertionError):
    """Arities, levels or degrees that do not fit together (raised
    explicitly, like InvalidSymbol)."""


INFINITY = None   # complexity bound "no bound"


class Symbol(tuple):
    """A basis symbol (f, phi) at arity k and cosimplicial level r, stored as
    the tuple (k, f, phi, r): hashing, equality and order are the tuple's."""
    __slots__ = ()

    k = property(itemgetter(0))
    f = property(itemgetter(1))
    phi = property(itemgetter(2))
    r = property(itemgetter(3))

    def __new__(cls, k, f, phi, r):
        self = tuple.__new__(cls, (k, f, phi, r))
        if not (k >= 1 and r >= 0 and len(f) == len(phi) >= 1):
            raise AssertionError("bad shape", self)
        if min(f) < 1 or max(f) > k:
            raise ValueOutOfRange(next(v for v in f if not 1 <= v <= k))
        # a sorted phi lies in [0, r] when its two ends do
        if list(phi) != sorted(phi) or phi[0] < 0 or phi[-1] > r:
            raise AssertionError("phi not order-preserving into [r]", self)
        return self

    def __getnewargs__(self):
        return tuple(self)

    @property
    def q(self):
        return len(self.f) - 1

    @property
    def total_degree(self):
        return self.q + 1 - self.k - self.r

    def fiber_sizes(self):
        return _f_record(self[0], self[1])[0]

    def fiber_degrees(self):
        return _f_record(self[0], self[1])[1]

    def is_onto(self):
        return _f_record(self[0], self[1])[4]

    def phi_covers(self):
        return _phi_table(self[2], self[3])[0]

    def interleaved(self):
        """Condition (d): phi(i) = phi(i+1) implies f(i) != f(i+1)."""
        return not _repeats(tuple(zip(self[1], self[2])))

    def __repr__(self):
        return "S(k=%d,f=%s,phi=%s,r=%d)" % (
            self.k, "".join(map(str, self.f)), "".join(map(str, self.phi)), self.r)


def _repeats(pairs):
    """Whether two adjacent (f, phi) pairs are equal: condition (d) fails."""
    return any(map(eq, pairs, islice(pairs, 1, None)))


def _sym(k, f, phi, r):
    """Unchecked constructor for symbols valid by construction (hot loops)."""
    return tuple.__new__(Symbol, (k, f, phi, r))


def complexity(seq):
    """Mixing measure of a sequence with values in {1..k}: the maximum over
    all two-value subsequences of the number of adjacent changes.  Empty and
    constant sequences have complexity 0."""
    values = sorted(set(seq))
    for v in values:
        if not isinstance(v, int) or v < 1:
            raise ValueOutOfRange(v)
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


@lru_cache(maxsize=8192)
def _symbols(k, q, r, n, cover):
    """Sorted tuple of the symbols (f, phi) at arity k, size q + 1 and level
    r, onto and interleaved when cover, of complexity <= n; k and r are
    fixed, so sorting on (f, phi) is sorting on the symbols' order.  One
    cache serves enumerate_symbols (cover) and box_basis (not cover).

    Each f of ``_search``, in lexicographic order, keeps the sorted phis of
    ``_phis(q, r, cover)`` whose equal steps miss its repeats, so the
    symbols come sorted.  ``complexity`` is the reference."""
    phis = [(_steps(phi), phi) for phi in sorted(_phis(q, r, cover))]
    out = []

    def leaf(f, mask):
        out.extend(_sym(k, f, phi, r)
                   for steps, phi in phis if not steps & mask)

    if phis:
        _search(k, (q,), r, n, leaf)
    return tuple(out)


def _search(k, qs, r, n, leaf):
    """leaf(f, mask) for each onto f: [q] -> {1..k}, q in qs, of complexity
    <= n, in order, whose repeats (bits t - 1 of mask: f[t] == f[t - 1]) are
    <= r: one tree cut at max(qs), each f visited before its extensions."""
    if n is not None and n < 0:
        return
    q = max(qs, default=-1)
    seq = [0] * (q + 1)
    last = [-1] * (k + 1)           # last position of each value, -1 unseen
    values = range(1, k + 1)
    changes = None if n is None else [[0] * (k + 1) for _ in range(k + 1)]

    def grow(t, unseen, repeats):
        prev = seq[t - 1] if t else 0
        slack = q - t               # positions after t
        ends = t in qs
        for v in values:
            lv = last[v]
            rest = unseen - 1 if lv < 0 else unseen
            mask = repeats | 1 << (t - 1) if v == prev else repeats
            if rest > slack or mask.bit_count() > r:
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
            if ends and not rest:
                leaf(tuple(seq[:t + 1]) if slack else tuple(seq), mask)
            if slack:
                last[v] = t
                grow(t + 1, rest, mask)
                last[v] = lv
            for u in bumped:
                row[u] -= 1
                changes[u][v] -= 1

    grow(0, k, 0)


def _check_shape(k, q, r):
    if not (k >= 1 and q >= 0 and r >= 0):
        raise InvalidSymbol("no symbols of shape (k, q, r)", (k, q, r))


def enumerate_symbols(k, q, r, n=INFINITY):
    """All symbols with conditions (a)-(d) and complexity(f) <= n, in
    deterministic lexicographic order."""
    _check_shape(k, q, r)
    return list(_symbols(k, q, r, n, True))


def count_symbols(k, q, r):
    """len(enumerate_symbols(k, q, r)) in closed form, without building
    them.  A covering phi with image {0..r} has q - r equal steps, one
    with image {1..r} has q - r + 1; an f with no repeat at s equal steps
    into j given values has j (j - 1)^s j^(q - s) choices, and inclusion-
    exclusion over the values keeps the onto ones."""
    _check_shape(k, q, r)

    def onto(s):
        return sum((-1) ** (k - j) * comb(k, j) * j * (j - 1) ** s
                   * j ** (q - s) for j in range(1, k + 1))
    total = comb(q, r) * onto(q - r) if r <= q else 0
    if 1 <= r <= q + 1:
        total += comb(q, r - 1) * onto(q - r + 1)
    return total


def box_basis(k, q, r, n=INFINITY):
    """Basis of the k-fold box product at level [r], internal degree q+1-k:
    conditions (a), (c), (d) but no constraint on the image of phi.  A fresh
    list over a cached tuple, in the same order as enumerate_symbols."""
    _check_shape(k, q, r)
    return list(_symbols(k, q, r, n, False))


# -- the cosimplicial action -----------------------------------------------

def act_ordered(sym, values, new_r):
    """Postcompose phi with an order-preserving map [r] -> [new_r]; classes
    where condition (d) collapses are zero.  Returns Symbol or None."""
    k, f, phi, r = sym
    phi = tuple(map(values.__getitem__, phi))
    if _repeats(tuple(zip(f, phi))):
        return None
    return _sym(k, f, phi, new_r)


def act_coface(sym, i):
    out = act_ordered(sym, delta.coface(sym.r, i).values, sym.r + 1)
    if out is None:   # injective maps never collapse
        raise InvalidSymbol("coface collapsed", sym, i)
    return out


def act_codegeneracy(sym, i):
    return act_ordered(sym, delta.codegeneracy(sym.r, i).values, sym.r - 1)


def _steps(seq):
    """The positions s with seq[s] == seq[s + 1], as a bit mask."""
    return sum(1 << s for s, e in enumerate(map(eq, seq, islice(seq, 1, None)))
               if e)


def _f_faces(sizes, f, stop):
    """(t, Koszul sign, f without t, whether f[t - 1] == f[t + 1]) for each
    t < stop with sizes[f[t]] > 1; the i-th entry of v has the sign
    (-1)^(e(v) + i), e(v) the sum over u < v of sizes[u] - 1, read mod 2."""
    # e[v] starts at e(v) - 1, as sizes[0] - 1 = -1
    e = list(accumulate((s - 1 for s in sizes), initial=0))
    q = len(f) - 1
    for t, v in enumerate(f[:stop]):
        e[v] += 1
        if sizes[v] > 1:
            yield (t, -1 if e[v] % 2 else 1, f[:t] + f[t + 1:],
                   0 < t < q and f[t - 1] == f[t + 1])


# A basis is sorted by (k, f, phi, r), so the symbols of one f come together
# and a few f-tables serve a whole assembly.
@lru_cache(maxsize=16)
def _f_table(k, f):
    """The faces' share of f: its repeats as a bit mask, and ``_f_faces``
    over every position."""
    sizes = [0] * (k + 1)
    for v in f:
        sizes[v] += 1
    return _steps(f), tuple(_f_faces(sizes, f, None))


@lru_cache(maxsize=4096)
def _phi_table(phi, r):
    """The faces' share of phi at level r: whether it covers [1..r], its
    equal steps as a bit mask, and for each position t, (phi without t,
    whether that covers, whether phi[t - 1] == phi[t + 1])."""
    covers = set(range(1, r + 1)) <= set(phi)
    q = len(phi) - 1
    # equal values of a sorted phi are adjacent, so dropping t keeps the
    # cover unless phi[t] is positive and alone
    return covers, _steps(phi), tuple(
        (phi[:t] + phi[t + 1:], covers and (v == 0 or phi.count(v) > 1),
         0 < t < q and phi[t - 1] == phi[t + 1])
        for t, v in enumerate(phi))


def _faces(sym):
    """(sign, face, whether the face's phi covers) for each face of the
    internal boundary that survives condition (d).  Removing position t of
    an interleaved symbol creates only the adjacency (t-1, t+1), so only
    that pair is checked; others get the full check."""
    k, f, phi, r = sym
    repeats, f_faces = _f_table(k, f)
    _, equal, phi_faces = _phi_table(phi, r)
    clean = not repeats & equal
    out = []
    for t, sign, f2, bridged in f_faces:
        phi2, covers, flat = phi_faces[t]
        if clean and bridged and flat:
            continue
        face = _sym(k, f2, phi2, r)
        if clean or face.interleaved():
            out.append((sign, face, covers))
    return out


def internal_boundary(sym):
    """Boundary of the tensor of top simplices, canonicalized in the
    colimit; a list of (coefficient, Symbol) at level r, degree one lower.
    Condition (b) is not imposed here (box level, not conormalized)."""
    return [(sign, face) for sign, face, _ in _faces(sym)]


def t_boundary(sym, level_cap=None):
    """Differential of the conormalized complex on the symbol basis: the
    internal boundary with non-covering phis killed, plus the coface part
    induced by d^0 with sign -(-1)^degree.  ``level_cap`` drops the coface
    part past the truncation level (quotient truncation)."""
    _, _, phi, r = sym
    if not _phi_table(phi, r)[0]:
        raise InvalidSymbol("t_boundary needs a covering phi", sym)
    terms = [(face, sign) for sign, face, covers in _faces(sym) if covers]
    if 0 in phi and (level_cap is None or r + 1 <= level_cap):
        lifted = act_coface(sym, 0)
        if not lifted.phi_covers():
            raise InvalidSymbol("coface d^0 lost the cover", sym)
        terms.append((lifted, 1 if sym.total_degree % 2 else -1))
    return vec_sum(terms)


def _clip(c):
    """A fiber size as a local type keeps it: 1, 2 (even) or 3 (odd >= 3)."""
    return c if c < 3 else 2 + c % 2


def cell_types(k, window, n=INFINITY):
    """The local types (k, r, f[:p + 1], clipped fiber sizes) of the
    symbols of enumerate_symbols(k, q, r, n) over the cells of a window {q:
    levels r >= 1}, p the zeros of phi, from one search with no symbol
    built: an f of ``_search`` has a covering phi at r with p zeros iff p <=
    q + 1 - r, f[:p] has no repeat and f[p:] at most r - 1 repeats, so at
    most r in all, and a search cut at the top level loses no cell's f."""
    levels = [r for rs in window.values() for r in rs]
    if k < 1 or min(window, default=0) < 0 or min(levels, default=1) < 1:
        raise InvalidSymbol("no local types of shape (k, window)", (k, window))
    types, shared = set(), {}     # shared: one copy of each sizes tuple

    def leaf(f, mask):
        q = len(f) - 1
        sizes = tuple(map(_clip, map(f.count, range(k + 1))))
        sizes = shared.setdefault(sizes, sizes)
        low = (mask & -mask).bit_length() or q   # first t, f[t] == f[t - 1]
        types.update((k, r, f[:p + 1], sizes) for r in window[q]
                     for p in range(min(low, q + 1 - r) + 1)
                     if (mask >> p).bit_count() < r)

    _search(k, window, max(levels, default=0), n, leaf)
    return types


def type_contraction(t):
    """The contraction s of a level r >= 1 with its internal differential
    d = t_boundary(., r), on local types, as {w: c} or {}.  Write a symbol
    sym's f as blocks w_0 | w_1 | ... | w_r, w_j the letters over phi = j,
    let x open w_1 and p = |w_0|; sym's local type t is (k, r, w_0 + (x,),
    sizes), sizes[v] v's fiber size ``_clip``-ped.  If w_0 ends in x, s =
    0; else s(t) = {w_0 + (x, x): c} and s(sym) = c * tau, tau = (k, w_0 +
    (x,) + f[p:], (0,) * (p + 1) + phi[p:], r): s(t) with sym's suffix
    f[p:], phi[p:] put back, c sym's sign as a face of tau.  Appending x
    next to an x adds no change to any pair: s keeps T_n.

    (ds + sd)(sym) = sym + N(sym), N lengthening w_0 by one.  The face
    removing the i-th entry (from 0) of value v has sign (-1)^(e(v) + i),
    e(v) the sum of (fiber size - 1) below v; f is onto, so e(x) is
    #{letters below x} - (x - 1) and c = (-1)^(e(x) + #{x in w_0}), the
    closed form computed here from the sizes' parities.  If w_0 does not
    end in x: the face of tau at p is sym, with coefficient c * c = 1; the
    one at p + 1 (w_1's x) lengthens w_0, and so does s of sym's face
    removing that x.  Every other face of tau is s of the matching face of
    sym, both killed by (d) or the cover, or neither, but for w_0 ending in
    xy: removing y leaves xx over 0 in tau and kills s of sym's face.
    Removing v at m from tau moves c by (-1)^([v < x] + [v = x, m < p]);
    removing x at p moves the face sign at m by (-1)^([x < v] + [v = x, m >
    p]); m != p makes the sum odd, so these pairs cancel.  If w_0 ends in
    x: s(sym) = 0, and the face removing that x, of sign e, has a w_0 not
    ending in x (condition (d)), so s sends it to e * sym; other faces in
    w_0 or past w_1's x keep w_0's last x and w_1's first, or die, and s
    kills them; removing w_1's x lengthens w_0 under s.  Since |w_0| <= q +
    1, ds + sd = 1 + N is invertible in each degree and a polynomial in
    itself, so it keeps the boundaries, and every cycle z = (1 + N)^-1
    ds(z) is one: the level is acyclic there."""
    _, _, w, sizes = t
    x = w[-1]
    if w[-2:] == (x, x):
        return {}
    c = sum(sizes[:x]) - (x - 1) + w.count(x) - 1
    return {w + (x,): -1 if c % 2 else 1}


def _type_faces(w, sizes, stop):
    """(sign, w without i, w[i]) for each face of a type's w and sizes
    removing an i < stop over phi = 0 that keeps condition (d) there."""
    return [(sign, w2, w[i]) for i, sign, w2, _ in _f_faces(sizes, w, stop)
            if all(map(ne, w2, w2[1:-1]))]


def type_contraction_holds(t):
    """Whether (ds + sd)(sym) is sym plus terms with more zeros in phi, for
    s = ``type_contraction``, d = t_boundary(., r) and every sym of local
    type t.  Let p = |w_0|.  s has one shape, {} or its w with x appended,
    checked on each output read.  d has no coface part at level r, so the
    faces of tau = s(sym) at i > p keep p + 1 zeros, and those of sym at
    i >= p keep p, which s raises to p + 1: those terms are skipped.  The
    rest, tau's faces at i <= p and s of sym's at i < p, keep sym's suffix
    f[p:] and phi[p:], so a w names each.  A face exists where its fiber has
    two or more entries, (d) reads w, and signs read parities: tau's sizes
    are t's with x's grown, exact; a face's are t's with one lowered, right
    in parity, all s reads.  So t fixes the verdict; s runs <= 1 + p times."""
    k, r, w, sizes = t
    p, x = len(w) - 1, w[-1]
    below = [(e, (k, r, w2, sizes[:v] + (sizes[v] - 1,) + sizes[v + 1:]))
             for e, w2, v in _type_faces(w, sizes, p)]
    terms = [(w, -1)]
    for v, u in [(1, t)] + below:
        out = type_contraction(u)
        for tw, c in out.items():
            if len(out) > 1 or tw != u[2] + (x,):
                return False
            if u is t:
                grown = sizes[:x] + (_clip(sizes[x] + 1),) + sizes[x + 1:]
                faces = _type_faces(tw, grown, p + 1)
                terms += [(w2, c * e) for e, w2, _ in faces]
            else:
                terms.append((tw, c * v))
    return not vec_sum(terms)


# -- kernel form -----------------------------------------------------------

# An argument recurs in the checks on one composite or much later: 1024
# entries keep 98% of the hits of the axiom windows, and bound the memory.
@lru_cache(maxsize=1024)
def ker_expand(sym):
    """The kernel-form representative of a symbol: the image of the
    projection (1 - d^r s^{r-1}) ... (1 - d^1 s^0), a vector over the box
    basis killed by every codegeneracy and congruent to the symbol modulo
    positive-coface images.  Frozen as a sorted tuple of (Symbol, coeff).

    Every term keeps f: the product is the sum of (-1)^|S| phi_S, phi_S
    lowering each v in S to v - 1, over the S in [1..r] holding v - 1 when
    they hold v and a repeat of f sits on (v - 1, v) (condition (d)); it is
    0 if phi misses a value.  Lowering v before keeping it sorts the terms."""
    k, f, phi, r = sym
    reps = [t for t in range(len(f) - 1) if f[t] == f[t + 1]]
    if any(phi[t] == phi[t + 1] for t in reps):
        return ((_sym(k, f, phi, r), 1),)   # every lowered term dies
    if not _phi_table(phi, r)[0]:
        return ()
    tied = {phi[t + 1] for t in reps if phi[t + 1] == phi[t] + 1}
    terms = [((0,) * phi.count(0), 1, False)]  # (phi_S to v, sign, v in S)
    for v in range(1, r + 1):
        n = phi.count(v)
        steps = (((v - 1,) * n, -1, True), ((v,) * n, 1, False))
        terms = [(p + run, c * s, low) for p, c, below in terms
                 for run, s, low in steps if below or not low or v not in tied]
    return tuple((_sym(k, f, p, r), c) for p, c, _ in terms)


def ker_expand_checked(sym):
    """ker_expand plus the mechanical verification that every term is a
    box-basis symbol (onto and interleaved) and that every codegeneracy
    kills the result; failure would signal a bug, never expected."""
    vec = dict(ker_expand(sym))
    for s in vec:
        if not (s.is_onto() and s.interleaved()):
            raise NormalizationFailure(("not a box-basis symbol", sym, s))
    for i in range(sym.r):
        lowered = ((act_codegeneracy(s, i), c) for s, c in vec.items())
        if vec_sum((t, c) for t, c in lowered if t is not None):
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
    if sorted(sigma) != list(range(1, sym.k + 1)):
        raise GradingMismatch("not a permutation of the slots", sym, sigma)
    inv = [0] * (sym.k + 1)
    for i, v in enumerate(sigma):
        inv[v] = i + 1
    f2 = tuple(inv[v] for v in sym.f)
    degs = sym.fiber_degrees()
    sign = koszul_sign(degs, tuple(v - 1 for v in sigma))
    return _sym(sym.k, f2, sym.phi, sym.r), sign


# -- flattening (the coherence map on symbols) ------------------------------

# A composition's hosts, arguments and composites share few f's (about 200
# in each axiom window), so a small cache takes them.
@lru_cache(maxsize=4096)
def _f_record(k, f):
    """What a symbol's f determines: the sizes, degrees, positions and
    layout order of its fibers (``delta.fibers``, called uncached so that
    they are held once), whether f is onto, its complexity and its repeats
    as a bit mask."""
    fibers = delta.fibers.__wrapped__(k, f)
    return fibers + (0 not in fibers[0], complexity(f), _steps(f))


def _glue(runs, order, k, r):
    """The symbol of arity k at level r whose host position a reads the
    (value, phi) pairs runs[order[a]], or None when condition (d) kills
    it."""
    pairs = list(chain.from_iterable(map(runs.__getitem__, order)))
    if _repeats(pairs):
        return None
    f, phi = zip(*pairs)
    return _sym(k, f, phi, r)


def flatten(host, parts):
    """Compose a host symbol of arity k with one part symbol per slot; part
    i must live at level equal to the internal degree of the i-th fiber.
    Returns the flattened symbol (arity = sum of part arities) or None when
    the class dies in the colimit: ``apply_tuple`` on one-term
    transformations."""
    if len(parts) != host.k:
        raise GradingMismatch("one part per slot", host, parts)
    for part in parts:
        if not part.is_onto():
            raise InvalidSymbol("part not onto", host, part)
    # each part at its fiber's degree, where apply_tuple checks its level;
    # the transformations' degrees only sign the value, which is dropped
    nats = [object.__new__(NatTransform)._fill(part.k, 0, {d: {part: 1}})
            for part, d in zip(parts, host.fiber_degrees())]
    return next(iter(apply_tuple(host, nats)), None)


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
    complex (generic machinery input; sizes stay moderate), complete
    through internal degree q_cap + 1 - k."""
    from .cosimplicial import CosimplicialChainComplex, operator_tables
    levels = {r: box_level(k, n, r, q_cap) for r in range(level_cap + 1)}

    def op(_gen, alpha):
        def image(sym):
            out = act_ordered(sym, alpha.values, alpha.target.level)
            return () if out is None else ((out, 1),)
        src, tgt = levels[alpha.source.level], levels[alpha.target.level]
        lo, hi = src.window
        return {m: IntMatrix.from_images(src.basis[m], tgt.basis[m], image)
                for m in range(max(lo, 0), hi)}

    return CosimplicialChainComplex(levels, *operator_tables(level_cap, op),
                                    complete_degree=q_cap + 1 - k)


# -- natural transformations out of the standard cosimplicial chain complex --

class NatTransform:
    """A natural transformation from the standard cosimplicial chain complex
    to a k-fold box product, of a fixed total degree: one kernel-form vector
    per cosimplicial level.  Symbols of the target operad give one-level
    transforms; linear combinations and the operad unit give families.
    Immutable (``from_vector`` shares one instance between callers): the
    components are read-only mappings."""
    __slots__ = ("arity", "degree", "components")

    def __init__(self, arity, degree, components):
        for r, vec in components.items():
            for s, c in vec.items():
                if c:
                    _check_term(s, arity, r, degree)
        self._fill(arity, degree, components)

    def _fill(self, arity, degree, components):
        """Set the fields from checked terms: zero coefficients and empty
        levels dropped, every mapping read-only."""
        comps = {}
        for r, vec in components.items():
            vec = {s: c for s, c in vec.items() if c}
            if vec:
                comps[r] = MappingProxyType(vec)
        _setattr(self, "arity", arity)
        _setattr(self, "degree", degree)
        _setattr(self, "components", MappingProxyType(comps))
        return self

    def __setattr__(self, name, value):
        raise AttributeError("NatTransform is immutable")

    def __delattr__(self, name):
        raise AttributeError("NatTransform is immutable")

    @classmethod
    def from_vector(cls, arity, vec):
        """Kernel-form family of a conormalized vector (dict Symbol ->
        coeff over symbols satisfying (a)-(d)).  Memoized on the vector's
        items: one family per argument however often it is composed with."""
        return _family_of(arity, tuple(vec.items()))

    def component(self, r):
        return self.components.get(r, {})


_setattr = object.__setattr__


def _check_term(s, arity, r, degree):
    """A term of a transformation of this arity and degree at level r."""
    if not (s.k == arity and s.r == r and s.total_degree == degree):
        raise GradingMismatch("term off its arity, level or degree", s,
                              (arity, r, degree))
    # flattening is onto exactly when its parts are
    if not s.is_onto():
        raise InvalidSymbol("term not onto", s)


# Repeats come at short range (the unit in every gamma(g; 1..1), one
# argument across the checks on one composite), so a small cache takes
# nearly all of them; an unbounded one holds every argument ever seen.
@lru_cache(maxsize=64)
def _family_of(arity, items):
    """NatTransform.from_vector on the vector's items, of the first
    term's degree (``_check_term`` refuses any other)."""
    degree = items[0][0].total_degree if items else 0
    terms = {}
    for s, c in items:
        _, _, phi, r = s
        if not _phi_table(phi, r)[0]:
            raise InvalidSymbol("phi does not cover", s)
        # ker_expand keeps s's f, k, r and degree: one check covers its terms
        _check_term(s, arity, r, degree)
        level = terms.setdefault(r, {})
        for t, w in ker_expand(s):
            level[t] = level.get(t, 0) + c * w
    return object.__new__(NatTransform)._fill(arity, degree, terms)


def apply_tuple(host, nats, cover=False):
    """Value on a box-basis symbol of the map induced by one natural
    transformation per slot, flattened through the coherence map: a vector
    {Symbol: coeff} at the same level.  Part i, a term of slot i at the i-th
    fiber's degree, is cut into one run of (value, phi) pairs per position j
    of that fiber, its positions over phi value j, values shifted past the
    earlier slots; one part per slot is glued by laying the runs out in host
    order, onto when every part is (NatTransform and ``flatten`` check it).
    With ``cover``, only the choices that reach every value in [1..r] of the
    host's phi are glued, the part that the cokernel projection keeps; each
    part that a glued choice uses is cut once."""
    k, f, phi, r = host
    if len(nats) != k:
        raise GradingMismatch("one transformation per slot", host, len(nats))
    _, degs, fibers, order, *_ = _f_record(k, f)
    comps = [nat.components.get(d) for nat, d in zip(nats, degs)]
    if not all(comps) or cover and not _phi_table(phi, r)[0]:
        return {}
    full = (1 << r + 1) - 2 if cover else 0
    # per slot: its index, the host's phi over its fiber and the values
    # before it, and per term [part, coeff, host values reached, its cut]
    slots, odd, before, off = [], 0, 0, 0
    for i, (nat, comp, fib) in enumerate(zip(nats, comps, fibers)):
        hphi = [phi[a] for a in fib]
        bits = [1 << v for v in hphi]
        slots.append((i, hphi, off, [
            [s, c, full and reduce(or_, map(bits.__getitem__, s[2])), None]
            for s, c in comp.items()]))
        odd += nat.degree * before
        before += degs[i]
        off += nat.arity
    sign0 = -1 if odd % 2 else 1
    flats = []
    coeff, reach = itemgetter(1), itemgetter(2)
    for choice in product(*[slot[3] for slot in slots]):
        if full and reduce(or_, map(reach, choice)) & full != full:
            continue
        runs = []
        for (i, hphi, o, _), e in zip(slots, choice):
            if e[3] is None:
                part = e[0]
                if part[3] != degs[i]:
                    raise NormalizationFailure(
                        ("level mismatch", host, i, part))
                e[3] = [[] for _ in hphi]
                for v, p in zip(part[1], part[2]):
                    e[3][p].append((v + o, hphi[p]))
            runs += e[3]
        flat = _glue(runs, order, off, r)
        if flat is not None:
            flats.append((flat, sign0 * prod(map(coeff, choice))))
    return vec_sum(flats)


def cokernel_project(vec, n=INFINITY):
    """Projection from the box basis to the conormalized symbol basis: kill
    the symbols whose phi misses a positive value, and check that each kept
    symbol is onto, interleaved and of complexity <= n."""
    kept = {}
    for s, c in vec.items():
        k, f, phi, r = s
        covers, steps, _ = _phi_table(phi, r)
        if c and covers:
            *_, onto, complexity, repeats = _f_record(k, f)
            # interleaved: no repeat of f on an equal step of phi
            if not onto or repeats & steps:
                raise NormalizationFailure(s)
            if n is not INFINITY and complexity > n:
                raise NormalizationFailure(("complexity overflow", s, n))
            kept[s] = c
    return kept


def box_functorial_map(k, nats, r, q_cap):
    """Matrix data of the induced map on the level-[r] box product for a
    tuple of per-slot natural transformations: {source Symbol: vector}, a
    row for every basis symbol.  ``apply_tuple`` refuses a wrong slot count
    and gives {} to a row whose fiber degrees are no levels of the
    transformations."""
    return {sym: apply_tuple(sym, nats) for m in range(q_cap + 2 - k)
            for sym in box_basis(k, m + k - 1, r, INFINITY)}
