"""The chain operads built from conormalized box products: truncated
arities, the two composition pipelines, axiom verification, and homology with
stabilization certificates.

Composition is implemented twice and cross-validated:

* substitution: compose each term h of the first factor with the kernel
  forms of the arguments in one pass of ``boxprod.apply_tuple`` with
  ``cover``, which glues only the choices whose flattened phi covers [r]
  (of the kernel form of h only h covers, so no other term is expanded),
  and project back to the symbol basis with ``boxprod.cokernel_project``,
  which checks each symbol it keeps;
* matrix composite: apply the map that the arguments induce on the box
  product (``boxprod.apply_tuple``) to every term of the kernel form of the
  first factor, checked to be killed by the codegeneracies and to lie in
  the box basis, with no skip, and project the sum.

That the induced map is a chain map and natural in the level is tested on
whole box levels through ``boxprod.box_functorial_map`` in
``tests/test_boxprod.py``.

Truncations come in two flavors.  Axiom windows cap the simplex budget q
(the symbols span a subcomplex since the differential never raises q).
Homology caps the cosimplicial level r instead, as a quotient complex, and
each level r >= 1 has a contraction, so every cap has the homology of level
0, which is all that is assembled.
"""

import random
from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import islice, permutations, product

from . import boxprod
from .boxprod import (INFINITY, GradingMismatch, Symbol, act_perm,
                      apply_tuple, cokernel_project, count_symbols,
                      enumerate_symbols, ker_expand_checked,
                      koszul_sign, NatTransform,
                      t_boundary, type_contraction_holds, vec_sum)
from .complexes import GradedIntComplex, InfeasibleSize, reduced_homology


class NotStabilized(Exception):
    pass


# operad_homology, verify_operad_axioms and symbol_complex refuse a family-T
# window with more symbols than this.  Homology builds level 0's alone: T(3)
# at cap 2, degrees 0-2, 311,244 counted, takes 0.10 s at 18 MiB max RSS
# (CPython 3.11, 2-core x86-64; 0.26 s at 28 MiB when every cell was built)
MAX_WINDOW_SYMBOLS = 400_000


def _refuse_above_limit(size, window):
    if size > MAX_WINDOW_SYMBOLS:
        raise InfeasibleSize("the %s has %d symbols, above the limit %d"
                             % (window, size, MAX_WINDOW_SYMBOLS))


# -- vectors over the symbol basis -------------------------------------------

def boundary_vec(vec):
    return vec_sum((t, c * v) for s, c in vec.items()
                   for t, v in t_boundary(s).items())


def vec_degree(vec):
    degs = {s.total_degree for s in vec}
    if len(degs) > 1:
        raise GradingMismatch("inhomogeneous vector", degs)
    return degs.pop() if degs else None


# -- composition --------------------------------------------------------------

def gamma_substitution(h_vec, arg_vecs, n=INFINITY):
    """Composition by symbol substitution.  Arguments are vectors over the
    conormalized symbol basis, the operad unit included (the top cell at
    every level, as ``TruncatedChainOperad.unit`` builds it).  A flattened
    phi takes only its host's values: of the kernel form of h, only h itself
    covers [r], so each term of h is applied alone, with ``cover``."""
    if not h_vec or any(not v for v in arg_vecs):
        return {}
    nats = [NatTransform.from_vector(_arity_of(v), v) for v in arg_vecs]
    degree = _sym_of(h_vec).total_degree
    twist = _multilinear_twist(degree, nats)
    out = {}
    for h, c in h_vec.items():
        if len(h[1]) - h[0] - h[3] != degree:
            raise GradingMismatch("inhomogeneous vector",
                                  {s.total_degree for s in h_vec})
        for t, v in apply_tuple(h, nats, cover=True).items():
            out[t] = out.get(t, 0) + twist * c * v
    return cokernel_project(out, n)


def _multilinear_twist(degree, nats):
    """Sign converting the composite-of-maps convention into the standard
    multilinear one, so that gamma is a chain map for the tensor-product
    differential: (-1)^(|h| * sum |g_i|), |h| the degree given."""
    if degree % 2 and sum(nat.degree for nat in nats) % 2:
        return -1
    return 1


def gamma_matrix(h_vec, arg_vecs, n=INFINITY):
    """Composition by the induced map on the box product, evaluated on the
    checked kernel form of h term by term: the unskipped reference that
    ``gamma_substitution`` is cross-checked against.  Terms at different
    levels are different symbols, so one sum serves all levels."""
    if not h_vec or any(not v for v in arg_vecs):
        return {}
    nats = [NatTransform.from_vector(_arity_of(v), v) for v in arg_vecs]
    twist = _multilinear_twist(vec_degree(h_vec), nats)
    kvec = vec_sum((hk, c * w) for h, c in h_vec.items()
                   for hk, w in ker_expand_checked(h).items())
    return cokernel_project(vec_sum(
        (t, twist * c * v) for s, c in kvec.items()
        for t, v in apply_tuple(s, nats).items()), n)


def _arity_of(vec):
    ks = {s[0] for s in vec}
    if len(ks) != 1:
        raise GradingMismatch("empty or mixed-arity argument", ks)
    return ks.pop()


def block_permutation(sigma, arities):
    """The block permutation relating gamma(h.sigma; g_1..g_k) to
    gamma(h; g_{sigma^{-1}(1)}, ..., g_{sigma^{-1}(k)}): ``arities[i]`` is
    the arity of g_{i+1}.  Entries are 1-based; slot p of the permuted
    result holds the old slot out[p-1], matching the symbol action."""
    k = len(sigma)
    inv = [0] * (k + 1)
    for i, v in enumerate(sigma):
        inv[v] = i + 1
    # in the unpermuted composite, block s holds g_{inv[s]}
    offs = [0] * (k + 1)
    for s in range(1, k + 1):
        offs[s] = offs[s - 1] + arities[inv[s] - 1]
    out = []
    for i in range(1, k + 1):
        s = sigma[i - 1]
        out.extend(range(offs[s - 1] + 1, offs[s - 1] + arities[i - 1] + 1))
    return tuple(out)


def act_perm_vec(vec, sigma):
    return vec_sum((t, sign * c) for s, c in vec.items()
                   for t, sign in (act_perm(s, sigma),))


# -- the truncated operads ----------------------------------------------------

def family_name(n):
    """The family's name: T with no complexity bound n, else Tn."""
    return "T" if n is None else "T%d" % n


@dataclass
class TruncatedChainOperad:
    """The operad data, its unit and composition, truncated at simplex
    budget q <= q_cap: arity k has symbols exactly when k <= q_cap + 1."""
    n: object            # complexity bound (None for the E-infinity operad)
    k_max: int
    q_cap: int

    def __post_init__(self):
        if self.k_max > self.q_cap + 1:
            raise boxprod.BoundsExceeded((self.q_cap + 2, self.q_cap))

    @property
    def family(self):
        return family_name(self.n)

    def unit(self):
        """The operad unit: the identity family of the standard cosimplicial
        chain complex.  Truncated one level past the window so that the unit
        laws hold on every windowed symbol (levels reach q + 1)."""
        out = {}
        for r in range(self.q_cap + 2):
            out[Symbol(1, (1,) * (r + 1), tuple(range(r + 1)), r)] = 1
        return out

    def gamma(self, h_vec, arg_vecs):
        return gamma_substitution(h_vec, arg_vecs, self.n)


def symbol_complex(k, n, q_cap):
    """Subcomplex of the conormalized box product spanned by the symbols
    with q <= q_cap, graded by total degree.  A family-T window (n None)
    above MAX_WINDOW_SYMBOLS, counted by ``count_symbols``, raises
    InfeasibleSize before any enumeration."""
    if n is None:
        _refuse_above_limit(
            sum(count_symbols(k, q, r) for q in range(k - 1, q_cap + 1)
                for r in range(q + 2)),
            "q <= %d window of T(%d)" % (q_cap, k))
    by_degree = {}
    for q in range(k - 1, q_cap + 1):
        for r in range(q + 2):
            for s in enumerate_symbols(k, q, r, n):
                by_degree.setdefault(s.total_degree, []).append(s)
    if not by_degree:
        raise boxprod.BoundsExceeded((k, q_cap))
    lo, hi = min(by_degree) - 2, max(by_degree) + 2
    basis = {d: tuple(sorted(by_degree.get(d, ())))
             for d in range(lo, hi + 1)}
    return GradedIntComplex.from_boundary(
        (lo, hi), basis, lambda d, s: t_boundary(s).items())


def level_truncated_complex(k, n, level_cap, degree_window):
    """Quotient truncation by cosimplicial level r <= level_cap, restricted
    to total degrees in the window (padded so homology is computable)."""
    plo, phi_ = degree_window
    lo, hi = plo - 1, phi_ + 1
    basis = {}
    for d in range(lo, hi + 1):
        syms = []
        for r in range(level_cap + 1):
            q = d + k - 1 + r
            if q < k - 1:
                continue
            syms.extend(enumerate_symbols(k, q, r, n))
        basis[d] = tuple(sorted(syms))
    return GradedIntComplex.from_boundary(
        (lo, hi), basis, lambda d, s: t_boundary(s, level_cap=level_cap).items())


@dataclass
class HomologyReport:
    family: str
    k: int
    level_cap: int
    degrees: tuple
    groups: dict            # degree -> (betti, torsion)
    stabilized: bool

    def to_dict(self):
        return {
            "family": self.family, "k": self.k, "level_cap": self.level_cap,
            "degrees": list(self.degrees),
            "groups": {str(d): [b, list(t)] for d, (b, t) in self.groups.items()},
            "stabilized": self.stabilized,
        }


def operad_homology(k, n, degrees, level_cap):
    """Homology of the level-truncated operad arity, computed on level 0,
    and certified: ``boxprod.type_contraction_holds`` once on each local
    type of the (level, degree) cells of levels 1 .. level_cap + 1, degrees
    d - 1 and d for each d, found by one ``cell_types`` search over them all
    (the check reads no degree), so those levels are acyclic there and
    every cap up to level_cap + 1 has level 0's H_d; else NotStabilized
    carries the report.  A family-T window (n None) above
    MAX_WINDOW_SYMBOLS, counted by ``count_symbols``, raises InfeasibleSize
    before any enumeration."""
    degrees = tuple(degrees)
    window = (min(degrees), max(degrees))
    if n is None:
        _refuse_above_limit(
            sum(count_symbols(k, d + k - 1 + r, r)
                for d in range(window[0] - 1, window[1] + 2)
                for r in range(level_cap + 2) if d + r >= 0),
            "level-%d window of T(%d)" % (level_cap + 1, k))
    groups = reduced_homology(level_truncated_complex(k, n, 0, window),
                              degrees)
    cells = {}
    for r, d, i in product(range(1, level_cap + 2), degrees, (-1, 0)):
        if d + i + r >= 0:
            cells.setdefault(d + i + k - 1 + r, set()).add(r)
    stable = all(map(type_contraction_holds, boxprod.cell_types(k, cells, n)))
    report = HomologyReport(family_name(n), k, level_cap, degrees, groups,
                            stable)
    if not stable:
        raise NotStabilized(report)
    return report


# -- axiom verification -------------------------------------------------------

@dataclass
class CheckItem:
    name: str
    instances: int = 0
    failures: list = field(default_factory=list)

    def record(self, ok, witness):
        self.instances += 1
        if not ok:
            self.failures.append(witness)


@dataclass
class CheckReport:
    """Named check items under a header of ordered fields, e.g.
    {"family": "T", "q_cap": 4, "seed": 0}, which lead the dict form."""
    header: dict
    items: dict = field(default_factory=dict)

    def item(self, name):
        return self.items.setdefault(name, CheckItem(name))

    @property
    def passed(self):
        return all(not it.failures for it in self.items.values())

    def to_dict(self):
        return {
            **self.header, "passed": self.passed,
            "items": {name: {"instances": it.instances,
                             "failures": [repr(w) for w in it.failures]}
                      for name, it in sorted(self.items.items())},
        }


def _symbol_pools(operad):
    """The basis vectors {s: 1} of each arity, and the same vectors by
    level, each level's in increasing q (``_draw_args`` bisects on it)."""
    pool, by_r = {k: [] for k in range(1, operad.k_max + 1)}, {}
    for q in range(operad.q_cap + 1):
        for k in range(1, min(q + 1, operad.k_max) + 1):
            for r in range(q + 2):
                for s in enumerate_symbols(k, q, r, operad.n):
                    pool[k].append({s: 1})
                    by_r.setdefault(r, []).append(pool[k][-1])
    return pool, by_r


def verify_operad_axioms(operad, seed=0, exhaustive_cap=60, samples=40,
                         cross_check=True, unit_cap=2500):
    """Mechanical verification of the chain-operad axioms on the truncated
    windows: unit laws, the chain-map property of gamma, the associativity
    pentagon of multivariable composition, equivariance, and agreement of
    the two composition pipelines.  Exhaustive below the caps; above them
    each tuple and each tower is one seeded draw inside the q window
    (``_draw_args``).  Every failure is recorded with a replayable witness.
    A family-T window above MAX_WINDOW_SYMBOLS, counted by
    ``count_symbols``, raises InfeasibleSize before any enumeration."""
    if operad.n is None:
        _refuse_above_limit(
            sum(count_symbols(k, q, r) for k in range(1, operad.k_max + 1)
                for q in range(k - 1, operad.q_cap + 1) for r in range(q + 2)),
            "q <= %d window of T through arity %d"
            % (operad.q_cap, operad.k_max))
    rng = random.Random(seed)
    report = CheckReport({"family": operad.family, "q_cap": operad.q_cap,
                          "seed": seed})
    unit = operad.unit()
    pool, by_r = _symbol_pools(operad)

    # unit laws: exhaustive per arity up to the cap, sampled beyond
    item = report.item("unit laws")
    for k in range(1, operad.k_max + 1):
        gs = pool[k]
        if len(gs) > unit_cap:
            head = [g for g in gs if _sym_of(g).q <= 3]
            rest = [g for g in gs if _sym_of(g).q > 3]
            rng.shuffle(rest)
            gs = head + rest[:max(0, unit_cap - len(head))]
        for g in gs:
            lhs = operad.gamma(unit, [g])
            item.record(lhs == g, ("gamma(1;g)", g))
            rhs = operad.gamma(g, [unit] * k)
            item.record(rhs == g, ("gamma(g;1..1)", g))

    # composable tuples (h; g_1..g_k) with the result inside the window
    tuples = _composable_tuples(operad, rng, exhaustive_cap, samples,
                                pool, by_r)

    item = report.item("degree additivity")
    results = []
    for h, gs in tuples:
        out = operad.gamma(h, gs)
        results.append((h, gs, out))
        if out:
            want = vec_degree(h) + sum(vec_degree(g) for g in gs)
            item.record(vec_degree(out) == want, (h, gs))
        else:
            item.record(True, None)

    item = report.item("gamma is a chain map")
    for h, gs, out in results:
        lhs = boundary_vec(out)
        rhs = list(operad.gamma(boundary_vec(h), gs).items())
        sgn = vec_degree(h)
        for i, g in enumerate(gs):
            term = operad.gamma(h, gs[:i] + [boundary_vec(g)] + gs[i + 1:])
            sign = -1 if sgn % 2 else 1
            rhs += ((s, sign * c) for s, c in term.items())
            sgn += vec_degree(g)
        item.record(lhs == vec_sum(rhs), ("d gamma", h, gs))

    item = report.item("associativity (composition diagram)")
    for h, gs, es_list in _assoc_tuples(operad, rng, exhaustive_cap, samples,
                                        pool, by_r):
        inner = [operad.gamma(g, es) for g, es in zip(gs, es_list)]
        lhs = operad.gamma(h, inner)
        flat = [e for es in es_list for e in es]
        rhs = operad.gamma(operad.gamma(h, gs), flat)
        eps = 1
        degs_g = [vec_degree(g) for g in gs]
        degs_e = [[vec_degree(e) for e in es] for es in es_list]
        for mp in range(1, len(gs)):
            if degs_g[mp] % 2 and sum(sum(d) for d in degs_e[:mp]) % 2:
                eps = -eps
        item.record(lhs == {s: eps * c for s, c in rhs.items()},
                    ("assoc", h, gs, es_list))

    item = report.item("equivariance (outer permutation)")
    for h, gs, out in results:
        k = len(gs)
        # every sigma but the identity, which permutations yields first
        for sigma in islice(permutations(range(1, k + 1)), 1, None):
            inv = [0] * (k + 1)
            for i, v in enumerate(sigma):
                inv[v] = i + 1
            hs = act_perm_vec(h, sigma)
            lhs = operad.gamma(hs, gs)
            permuted = [gs[inv[s] - 1] for s in range(1, k + 1)]
            eps = koszul_sign([vec_degree(g) for g in gs],
                              tuple(inv[s] - 1 for s in range(1, k + 1)))
            bp = block_permutation(sigma, [_arity_of(g) for g in gs])
            rhs = act_perm_vec(operad.gamma(h, permuted), bp)
            item.record(lhs == {s: eps * c for s, c in rhs.items()},
                        ("outer equivariance", h, gs, sigma))

    item = report.item("equivariance (inner permutations)")
    for h, gs, out in results:
        k = len(gs)
        taus = [_some_perm(_arity_of(g), rng) for g in gs]
        if all(t is None for t in taus):
            item.record(True, None)
            continue
        taus = [t if t is not None else tuple(range(1, _arity_of(g) + 1))
                for t, g in zip(taus, gs)]
        lhs = operad.gamma(h, [act_perm_vec(g, t) for g, t in zip(gs, taus)])
        blocksum = tuple(
            v + sum(_arity_of(g) for g in gs[:i])
            for i, t in enumerate(taus) for v in t)
        rhs = act_perm_vec(out, blocksum)
        item.record(lhs == rhs, ("inner equivariance", h, gs, taus))

    if cross_check:
        item = report.item("substitution gamma equals matrix gamma")
        for h, gs, out in results:
            other = gamma_matrix(h, gs, operad.n)
            item.record(out == other, ("pipelines", h, gs))

    return report


def _some_perm(k, rng):
    if k < 2:
        return None
    vals = list(range(1, k + 1))
    rng.shuffle(vals)
    return tuple(vals)


def _sym_of(vec):
    return next(iter(vec))


def _q_of(vec):
    return _sym_of(vec).q


def _q_of_composite(gs):
    # flattening glues one part per kernel-term fiber; expansions preserve q
    return sum(_q_of(g) for g in gs) + len(gs) - 1


def _draw_args(hosts, by_r, q_cap, rng):
    """One argument at each fiber degree of the hosts, in order, with the
    composite inside the q window: its q + 1 is the sum of q + 1 over the
    arguments.  From the slack q_cap - (least such q), each level draws
    uniformly among its vectors whose q exceeds its least q by at most the
    slack left, and spends the excess.  Every level m <= q_cap holds the
    arity-1 symbol (1^(m+1), id_[m]) at q = m, and the fibers of a host
    hold its q + 1 letters, so the least q is at most that of the hosts'
    own composite: the slack is not negative while that is in the window."""
    levels = [m for h in hosts for m in _sym_of(h).fiber_degrees()]
    least = [_q_of(by_r[m][0]) for m in levels]
    slack = q_cap + 1 - sum(q + 1 for q in least)
    out = []
    for m, q in zip(levels, least):
        cands = by_r[m]
        out.append(cands[rng.randrange(
            bisect_right(cands, q + slack, key=_q_of))])
        slack -= _q_of(out[-1]) - q
    return out


def _composable_tuples(operad, rng, exhaustive_cap, samples, pool, by_r):
    """(h; g_1..g_k) tuples with the composite inside the q window:
    exhaustive over the smallest symbols (bounded by the cap), then one
    ``_draw_args`` per sampled tuple, with a host of uniform arity.
    ``pool`` and ``by_r`` are the pair ``_symbol_pools`` returns."""
    tiny = {k: [v for v in pool[k] if _sym_of(v).q <= max(1, k - 1)]
            for k in range(1, operad.k_max + 1)}
    out = []
    budget = exhaustive_cap * 20
    for k in range(1, operad.k_max + 1):
        for h in tiny[k]:
            for js in product(range(1, operad.k_max + 1), repeat=k):
                pools = [tiny[j] for j in js]
                size = 1
                for p in pools:
                    size *= len(p)
                if size == 0:
                    continue
                if size <= 3000:
                    combos = product(*pools)
                else:
                    combos = (tuple(p[rng.randrange(len(p))] for p in pools)
                              for _ in range(100))
                for gs in combos:
                    if _q_of_composite(gs) <= operad.q_cap:
                        out.append((h, list(gs)))
                if len(out) >= budget:
                    break
            if len(out) >= budget:
                break
        if len(out) >= budget:
            break
    rng.shuffle(out)
    out = out[:exhaustive_cap]
    for _ in range(exhaustive_cap + samples - len(out)):
        k = rng.randrange(1, operad.k_max + 1)
        h = pool[k][rng.randrange(len(pool[k]))]
        out.append((h, _draw_args([h], by_r, operad.q_cap, rng)))
    return out


def _assoc_tuples(operad, rng, exhaustive_cap, samples, pool, by_r):
    """max(exhaustive_cap // 2, samples) towers (h; g_i; e_ij), each one
    draw: a host of uniform arity, its g_i by ``_draw_args``, which keeps
    gamma(h; g) inside the q window, then every e_ij by one more, which
    keeps the flattened composite there."""
    out = []
    for _ in range(max(exhaustive_cap // 2, samples)):
        k = rng.randrange(1, operad.k_max + 1)
        h = pool[k][rng.randrange(len(pool[k]))]
        gs = _draw_args([h], by_r, operad.q_cap, rng)
        es = iter(_draw_args(gs, by_r, operad.q_cap, rng))
        out.append((h, gs, [[next(es) for _ in _sym_of(g).fiber_degrees()]
                            for g in gs]))
    return out
