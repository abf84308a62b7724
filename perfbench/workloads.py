"""The four benchmark workloads: their inputs, jobs and independent oracles.

A workload is a fixed list of jobs.  ``build_inputs(workload, seed)`` draws
everything random from the seed, before any job runs; each job is then
called once, in order, by a single caller, and returns an Outcome: how many
instances it verified and which of them failed.

Every job reaches chainops through module attributes (``operads.x``, never a
name imported from it), so the traced pass sees every call.

Sizes are fixed per workload and independent of the seed: the seed picks
symbols inside a stratum, vertices of a fixed-size graph, cube placements and
the axiom sampler's sub-seeds, never how many of them there are.
"""

import random
from dataclasses import dataclass, field
from fractions import Fraction as F

from chainops import (boxprod, cochain_ops, complexes, cosimplicial, cubes,
                      hochschild, operads, simplicial)

WORKLOADS = ("homology", "axioms", "totalize", "calculus")


@dataclass
class Outcome:
    """What one job verified.  ``failures`` counts every failed instance;
    ``unexplained`` counts those that are not a known, independently
    confirmed defect of the library."""
    checks: int = 0
    failures: int = 0
    unexplained: int = 0
    record: dict = field(default_factory=dict)

    def check(self, ok, known=False):
        self.checks += 1
        if not ok:
            self.failures += 1
            if not known:
                self.unexplained += 1

    def add(self, total, bad, known=False):
        """Count ``total`` instances of which ``bad`` failed."""
        self.checks += total
        self.failures += bad
        if not known:
            self.unexplained += bad

    def add_report(self, report):
        self.add(*report_counts(report))


def report_counts(report):
    """(instances, failures) of an operad, cochain or Gerstenhaber report."""
    total = bad = 0
    for item in report.items.values():
        if isinstance(item, list):          # GerstenhaberReport: [n, bad]
            total += item[0]
            bad += item[1]
        else:
            total += item.instances
            bad += len(item.failures)
    return total, bad


def sub_rng(seed, workload, part):
    return random.Random("%s:%d:%s" % (workload, seed, part))


# == homology ===================================================================

# (arity k, complexity bound n or None, level cap).  Each job computes the
# homology at the cap with its cap+1 stabilization certificate.
HOMOLOGY_JOBS = ((3, 2, 1), (3, 1, 1), (2, None, 3),
                 (2, 2, 5), (2, 1, 5), (1, None, 6))
HOMOLOGY_DEGREES = (0, 1, 2)


def configuration_betti(n, k):
    """Betti numbers of F(R^n, k) from its Poincare polynomial
    prod_{j<k} (1 + j t^(n-1)) (Arnold; Cohen); None stands for n = infinity,
    where T(k) is contractible."""
    if n is None:
        return {0: 1}
    poly = {0: 1}
    for j in range(1, k):
        nxt = {}
        for d, c in poly.items():
            nxt[d] = nxt.get(d, 0) + c
            nxt[d + n - 1] = nxt.get(d + n - 1, 0) + j * c
        poly = nxt
    return poly


def homology_job(k, n, level_cap):
    def job(inputs):
        out = Outcome()
        report = operads.operad_homology(k, n, HOMOLOGY_DEGREES, level_cap)
        out.check(report.stabilized)
        betti = configuration_betti(n, k)
        for d in HOMOLOGY_DEGREES:
            out.check(report.groups[d] == (betti.get(d, 0), ()))
        return out
    job.__name__ = "T%s(%d)@L%d" % ("" if n is None else n, k, level_cap)
    return job


# == axioms =====================================================================

# verify_operad_axioms windows: (n, k_max, q_cap) and the sampler settings.
AXIOM_OPERADS = ((1, 3, 5), (2, 3, 4), (None, 3, 4))
AXIOM_SETTINGS = {"exhaustive_cap": 30, "samples": 20, "unit_cap": 500,
                  "cross_check": False}

# Pipeline cross-check strata: (arity of h, level r of h), a fixed number of
# composable tuples each.  Within a stratum every h has the same fiber sizes
# (those of the first symbol), so every tuple costs about the same; the
# argument in slot 0 has arity 2, the others arity 1, and every argument
# sits at the level of its fiber of h.
PIPELINE_STRATA = tuple((k, r) for k in (1, 2, 3) for r in range(6))
PIPELINE_PER_STRATUM = 2

# Little-cubes unit and associativity loop: configurations per
# (k, arities of the inner elements) pair, 39 pairs in all.
CUBES_PER_TUPLE = 8


def _smallest_symbols(k, r, n):
    q = max(k - 1, r - 1, 0)
    while True:
        found = boxprod.enumerate_symbols(k, q, r, n)
        if found:
            return found
        q += 1


def draw_pipeline_tuples(rng):
    """The stratified (h; g_1..g_k) tuples, as symbol vectors."""
    strata = {}
    for k, r in PIPELINE_STRATA:
        hosts = _smallest_symbols(k, r, None)
        sizes = hosts[0].fiber_sizes()
        hosts = [h for h in hosts if h.fiber_sizes() == sizes]
        rows = []
        for _ in range(PIPELINE_PER_STRATUM):
            h = hosts[rng.randrange(len(hosts))]
            gs = []
            for slot, m in enumerate(h.fiber_degrees()):
                cands = _smallest_symbols(2 if slot == 0 else 1, m, None)
                gs.append({cands[rng.randrange(len(cands))]: 1})
            rows.append(({h: 1}, gs))
        strata[(k, r)] = rows
    return strata


def axiom_job(n, k_max, q_cap):
    def job(inputs):
        out = Outcome()
        operad = operads.TruncatedChainOperad(n, k_max, q_cap)
        seed = inputs["axiom_seeds"][(n, k_max, q_cap)]
        report = operads.verify_operad_axioms(operad, seed=seed,
                                              **AXIOM_SETTINGS)
        out.add_report(report)
        out.check(report.passed)
        out.record["items"] = {name: it.instances
                               for name, it in sorted(report.items.items())}
        return out
    job.__name__ = "verify:%s(%d,q<=%d)" % (
        "T" if n is None else "T%d" % n, k_max, q_cap)
    return job


def pipeline_job(inputs):
    out = Outcome()
    strata = draw_pipeline_tuples(inputs["pipeline_rng"])
    counts, nonzero = {}, 0
    for key, rows in strata.items():
        counts["%d,%d" % key] = len(rows)
        for h, gs in rows:
            sub = operads.gamma_substitution(h, gs)
            mat = operads.gamma_matrix(h, gs)
            out.check(sub == mat)
            nonzero += bool(sub)
    out.record["strata"] = counts
    out.record["nonzero_composites"] = nonzero
    return out


pipeline_job.__name__ = "pipelines"


def _grid_element(rng, n, k):
    """Raw data of a valid little-cubes element: cubes in distinct cells of
    a grid, shrunk and jittered inside their cells."""
    g = k + rng.randrange(0, 3)
    cells = rng.sample(range(g ** n), k)
    out = []
    for cell in cells:
        coords = []
        for _ in range(n):
            coords.append(cell % g)
            cell //= g
        b = F(rng.randrange(1, 5), 4) * F(1, g)
        a = tuple(F(c, g) + F(rng.randrange(0, 3), 8) * (F(1, g) - b)
                  for c in coords)
        out.append((a, b))
    return n, out


def _all_tuples(k):
    out = [()]
    for _ in range(k):
        out = [t + (j,) for t in out for j in (1, 2, 3)]
    return out


def draw_cube_configurations(rng):
    configs = []
    for k in (1, 2, 3):
        for js in _all_tuples(k):
            for t in range(CUBES_PER_TUPLE):
                n = 1 + t % 2
                c = _grid_element(rng, n, k)
                ds = [_grid_element(rng, n, j) for j in js]
                es = [[_grid_element(rng, n, 1 + (t + i) % 2)
                       for i in range(j)] for j in js]
                configs.append((n, c, ds, es))
    return configs


def _cubes_element(raw):
    n, maps = raw
    return cubes.CubesElement(n, tuple(cubes.TDMap(n, a, b) for a, b in maps))


def cubes_job(inputs):
    out = Outcome()
    gamma = cubes.gamma_cubes
    for n, c, ds, es in inputs["cube_configs"]:
        c = _cubes_element(c)
        ds = [_cubes_element(d) for d in ds]
        es = [[_cubes_element(e) for e in row] for row in es]
        unit = cubes.CubesElement.unit(n)
        out.check(gamma(unit, [c]) == c)
        out.check(gamma(c, [unit] * c.k) == c)
        inner = [gamma(d, row) for d, row in zip(ds, es)]
        flat = [e for row in es for e in row]
        out.check(gamma(c, inner) == gamma(gamma(c, ds), flat))
    out.record["configurations"] = len(inputs["cube_configs"])
    return out


cubes_job.__name__ = "cubes"


# == totalize ===================================================================

# conormalize_bicomplex(box_cosimplicial(2, n, L, q), L) for (n, L, q).
BICOMPLEX_JOBS = ((None, 3, 4), (2, 3, 5), (None, 2, 4))
# Seeded simplicial sets: (vertices, extra edges); each holds one triangle.
ZOO_SHAPES = ((3, 0), (4, 1), (4, 2), (5, 1)) * 4


def bicomplex_job(n, level_cap, q_cap):
    def job(inputs):
        out = Outcome()
        box = boxprod.box_cosimplicial(2, n, level_cap, q_cap)
        cx = cosimplicial.conormalize_bicomplex(box, level_cap)
        lo, hi = cx.window
        degrees = tuple(range(lo + 1, hi))
        reduced = complexes.reduced_homology(cx, degrees)
        for d in degrees:
            out.check(cx.homology(d) == reduced[d])
        return out
    job.__name__ = "bicomplex(%s,L%d,q%d)" % (n, level_cap, q_cap)
    return job


def draw_zoo(rng):
    """Fixed-size simplicial complexes: every vertex, one triangle and a
    fixed number of further edges, with the seed choosing which."""
    shapes = []
    for nv, extra in ZOO_SHAPES:
        verts = list(range(nv))
        tri = tuple(sorted(rng.sample(verts, 3)))
        tri_edges = {(tri[0], tri[1]), (tri[0], tri[2]), (tri[1], tri[2])}
        others = [(a, b) for a in verts for b in verts
                  if a < b and (a, b) not in tri_edges]
        edges = rng.sample(others, extra)
        shapes.append((verts, [(v,) for v in verts] + [tri] + edges))
    return shapes


def zoo_job(inputs):
    out = Outcome()
    sets = [simplicial.standard_simplex_sset(m) for m in range(3)]
    sets.append(simplicial.simplicial_circle())
    sets += [simplicial.from_simplicial_complex(v, f) for v, f in inputs["zoo"]]
    for W in sets:
        cap = W.max_dim() + 2
        A = W.dual_cosimplicial(cap)
        kernel = cosimplicial.conormalize_kernel(A)
        cokernel = cosimplicial.conormalize_cokernel(A)
        cosimplicial.compare_conormalizations(A, kernel, cokernel)
        out.check(True)
        for m in range(cap + 1):
            want = len(W.nondegenerate(m))
            out.check(kernel.complex.rank(-m) == want)
            out.check(cokernel.complex.rank(-m) == want)
    out.record["sets"] = len(sets)
    return out


zoo_job.__name__ = "conormalization zoo"


# == calculus ===================================================================

GRAPH_SIZE = (4, 4)          # vertices, edges of the seeded graph
HOCHSCHILD_ALGEBRAS = (("truncated", 3, 3), ("cyclic", 3, 3))   # kind, m, p_max
GERSTENHABER_JOBS = (("ut2", 3), ("m2", 2), ("dual-Z", 3))
KNOWN_DEFECT = "bracket is compatible with the differential"


def truncated_polynomial(m):
    """Z[x]/(x^m) over the integers, basis 1, x, ..., x^(m-1)."""
    s = [[tuple(1 if t == i + j else 0 for t in range(m)) for j in range(m)]
         for i in range(m)]
    unit = tuple(1 if t == 0 else 0 for t in range(m))
    return hochschild.FiniteRankAlgebra(s, unit, 0, name="Z[x]/(x^%d)" % m)


def cyclic_group_ring(m):
    """Z[C_m] over the integers, basis the group elements."""
    s = [[tuple(1 if t == (i + j) % m else 0 for t in range(m))
          for j in range(m)] for i in range(m)]
    unit = tuple(1 if t == 0 else 0 for t in range(m))
    return hochschild.FiniteRankAlgebra(s, unit, 0, name="Z[C%d]" % m)


def hochschild_closed_form(kind, m, p):
    """HH^p of Z[x]/(x^m) or Z[C_m] as (betti, torsion)."""
    if p == 0:
        return (m, ())
    if kind == "truncated":
        return (m - 1, ()) if p % 2 else (m - 1, (m,))
    return (0, ()) if p % 2 else (0, (m,) * m)


def draw_graph(rng):
    nv, ne = GRAPH_SIZE
    verts = list(range(nv))
    # a spanning path keeps every vertex, the rest of the edges are drawn
    order = verts[:]
    rng.shuffle(order)
    edges = {tuple(sorted(order[i:i + 2])) for i in range(nv - 1)}
    others = [(a, b) for a in verts for b in verts
              if a < b and (a, b) not in edges]
    edges |= set(rng.sample(others, ne - len(edges)))
    return verts, sorted(edges)


def cochain_job(label, level_cap):
    def job(inputs):
        out = Outcome()
        W = inputs["cochain_sets"][label]()
        report = cochain_ops.verify_identities(W, level_cap=level_cap,
                                               name=label)
        out.add_report(report)
        out.check(report.passed)
        return out
    job.__name__ = "identities:%s" % label
    return job


def hochschild_job(kind, m, p_max):
    def job(inputs):
        out = Outcome()
        R = truncated_polynomial(m) if kind == "truncated" else cyclic_group_ring(m)
        groups = hochschild.hochschild_cohomology(R, p_max)
        for p in range(p_max + 1):
            out.check(groups[p] == hochschild_closed_form(kind, m, p))
        return out
    job.__name__ = "HH:%s(%d)" % (kind, m)
    return job


def _bracket_sign_holds(R, p_max):
    """The compatibility identity d[a,b] = (-1)^(q+1) [da,b] + [a,db] on every
    pair of basis cochains with p, q <= p_max - 1: the independent check that
    the report's failures come from the sign in its check."""
    hh = hochschild
    ok = []
    for p in range(p_max):
        for q in range(p_max):
            if p + q < 1:
                continue
            sign = -1 if q % 2 == 0 else 1
            for a in hh.basis_cochains(R, p):
                for b in hh.basis_cochains(R, q):
                    lhs = hh.hochschild_differential(hh.gerstenhaber_bracket(a, b))
                    rhs = hh.gerstenhaber_bracket(
                        hh.hochschild_differential(a), b).scale(sign) + \
                        hh.gerstenhaber_bracket(a, hh.hochschild_differential(b))
                    ok.append((lhs + rhs.scale(-1)).is_zero())
    return ok


def gerstenhaber_job(name, p_max):
    def job(inputs):
        out = Outcome()
        R = {"ut2": hochschild.upper_triangular_mod2,
             "m2": hochschild.matrix2_mod2,
             "dual-Z": lambda: truncated_polynomial(2)}[name]()
        report = hochschild.gerstenhaber_report(R, p_max)
        confirmed = False
        if name == "dual-Z":
            # over Z the report's bracket check flags pairs on which the
            # correctly signed identity holds exactly; those failures are
            # counted, and are explained only if that identity holds on
            # every basis pair
            holds = _bracket_sign_holds(R, 3)
            for ok in holds:
                out.check(ok)
            confirmed = all(holds)
        for item_name, (total, bad) in sorted(report.items.items()):
            out.add(total, bad, known=confirmed and item_name == KNOWN_DEFECT)
        out.check(bool(report.certificates))
        out.record["report_failures"] = {k: v[1] for k, v in report.items.items()
                                         if v[1]}
        return out
    job.__name__ = "gerstenhaber:%s(p<=%d)" % (name, p_max)
    return job


# == assembly ===================================================================

def jobs(workload):
    if workload == "homology":
        return [homology_job(*spec) for spec in HOMOLOGY_JOBS]
    if workload == "axioms":
        return ([axiom_job(*spec) for spec in AXIOM_OPERADS] +
                [pipeline_job, cubes_job])
    if workload == "totalize":
        return [bicomplex_job(*spec) for spec in BICOMPLEX_JOBS] + [zoo_job]
    if workload == "calculus":
        return ([cochain_job(label, cap) for label, cap in
                 (("simplex2", 2), ("circle", None), ("graph", 2))] +
                [hochschild_job(*spec) for spec in HOCHSCHILD_ALGEBRAS] +
                [gerstenhaber_job(*spec) for spec in GERSTENHABER_JOBS])
    raise ValueError("unknown workload %r" % workload)


def build_inputs(workload, seed):
    """Everything the jobs need that is drawn from the seed."""
    inputs = {}
    if workload == "axioms":
        rng = sub_rng(seed, workload, "axiom-seeds")
        inputs["axiom_seeds"] = {spec: rng.randrange(2 ** 31)
                                 for spec in AXIOM_OPERADS}
        inputs["pipeline_rng"] = sub_rng(seed, workload, "pipelines")
        inputs["cube_configs"] = draw_cube_configurations(
            sub_rng(seed, workload, "cubes"))
    elif workload == "totalize":
        inputs["zoo"] = draw_zoo(sub_rng(seed, workload, "zoo"))
    elif workload == "calculus":
        verts, edges = draw_graph(sub_rng(seed, workload, "graph"))
        inputs["cochain_sets"] = {
            "simplex2": lambda: simplicial.standard_simplex_sset(2),
            "circle": simplicial.simplicial_circle,
            "graph": lambda: simplicial.from_simplicial_complex(verts, edges),
        }
    return inputs
