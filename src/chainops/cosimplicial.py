"""Cosimplicial abelian groups, cosimplicial chain complexes, and the
conormalization constructions.

Conormalization is realized in its two concrete forms: the intersection of
the kernels of the codegeneracies (differential the alternating coface sum)
and the cokernel of the positive cofaces (differential induced by the zeroth
coface).  ``compare_conormalizations`` produces an explicit isomorphism
certificate between the two.  For a cosimplicial chain complex the
conormalizations of the fixed internal degrees assemble into a bicomplex
whose totalization is truncated by cosimplicial level, with a stabilization
check guarding the truncation.
"""

from dataclasses import dataclass

from . import delta, intmat
from .intmat import IntMatrix, ShapeMismatch
from .complexes import GradedIntComplex, NotAChainMap, reduced_homology


class NonSplitKernel(Exception):
    pass


class TorsionCokernel(Exception):
    pass


class ComparisonFailed(Exception):
    pass


class WindowTooSmall(Exception):
    pass


class CosimplicialIdentityFails(AssertionError):
    """Operators that break a cosimplicial identity.  Raised explicitly, so
    the check also runs under ``python -O``."""


class CosimplicialAbGroup:
    """Levelwise finitely generated free abelian group with coface and
    codegeneracy matrices satisfying the cosimplicial identities."""

    def __init__(self, levels, cofaces, codegens, check=True):
        self.levels = {m: tuple(v) for m, v in levels.items()}
        self.max_level = max(self.levels)
        if sorted(self.levels) != list(range(self.max_level + 1)):
            raise ShapeMismatch("levels %r are not 0..top" % sorted(levels))
        self.cofaces = dict(cofaces)      # (m, i): A^m -> A^{m+1}
        self.codegens = dict(codegens)    # (m, i): A^m -> A^{m-1}
        self._ops = {"d": self.cofaces, "s": self.codegens}
        for (kind, m, i), alpha in delta.generators(self.max_level).items():
            mat = self._ops[kind][(m, i)]
            if (mat.rows, mat.cols) != (self.rank(alpha.target.level),
                                        self.rank(m)):
                raise ShapeMismatch("%s %r is %r" %
                                    (delta.KINDS[kind], (m, i), mat))
        if check:
            self._check_identities()

    def rank(self, m):
        return len(self.levels[m])

    def d(self, m, i):
        return self.cofaces[(m, i)]

    def s(self, m, i):
        return self.codegens[(m, i)]

    def _check_identities(self):
        """Functoriality on Delta's two-letter words: the words of a group
        have one matrix, the identity when their composite is one."""
        for composite, words in delta.two_letter_words(self.max_level).items():
            want = []
            if composite.is_injective() and composite.is_surjective():
                # the only automorphism of [m] is its identity
                want = [IntMatrix.identity(self.rank(composite.source.level))]
            elif len(words) == 1:
                continue
            for (ka, ma, ia), (kb, mb, ib) in words:
                want.append(self._ops[kb][mb, ib] * self._ops[ka][ma, ia])
                if want[-1] != want[0]:
                    raise CosimplicialIdentityFails("%s^j %s^i" % (kb, ka),
                                                    ma, ia, ib)

    def alternating_coface(self, m):
        """sum_i (-1)^i d^i : A^m -> A^{m+1} in one pass over the cofaces'
        columns; a cancelled entry or column that comes back is written
        last, as the sum of whole matrices one coface at a time writes it."""
        store = {}
        for i in range(m + 2):
            for j, col in self.d(m, i).columns().items():
                acc = store.setdefault(j, {})
                for r, v in col.items():
                    if x := acc.get(r, 0) + (-v if i % 2 else v):
                        acc[r] = x
                    else:
                        del acc[r]
                if not acc:
                    del store[j]
        return IntMatrix(self.rank(m + 1), self.rank(m), {
            (r, j): x for j, col in store.items() for r, x in col.items()})


@dataclass
class KernelConormalization:
    complex: GradedIntComplex
    inclusions: dict   # m -> IntMatrix (A^m <- K^m)
    retractions: dict  # m -> IntMatrix (K^m <- A^m), retraction o inclusion = id


@dataclass
class CokernelConormalization:
    complex: GradedIntComplex
    projections: dict      # m -> IntMatrix (Q^m <- A^m)
    sections: dict         # m -> IntMatrix (A^m <- Q^m), projection o section = id


def conormalize_kernel(A):
    """Kernel form: degree-m group is the intersection of the kernels of the
    codegeneracies, with differential the alternating coface sum.  Stored
    homologically in degree -m.  Each retraction is one solve: R = X^T for
    K^T X = 1, K the inclusion; with no X, K does not split."""
    M = A.max_level
    inclusions = {0: IntMatrix.identity(A.rank(0))}
    retractions = {0: inclusions[0]}
    for m in range(1, M + 1):
        stacked = A.s(m, 0)
        for i in range(1, m):
            stacked = stacked.stack_rows(A.s(m, i))
        ker = intmat.kernel_basis(stacked)
        x = intmat.solve(ker.transpose(), IntMatrix.identity(ker.cols))
        if x is None:
            raise NonSplitKernel(m)
        inclusions[m], retractions[m] = ker, x.transpose()
    basis = {-m: tuple("m%d:k%d" % (m, i) for i in range(inclusions[m].cols))
             for m in range(M + 1)}
    diff = {}
    for m in range(M):
        image = A.alternating_coface(m) * inclusions[m]
        diff[-m] = _restrict(inclusions[m + 1], retractions[m + 1], image, m)
    cx = GradedIntComplex((-M - 1, 1), basis, diff,
                          regrade="cochain (chain degree -m holds degree m)")
    return KernelConormalization(cx, inclusions, retractions)


def _restrict(inclusion, retraction, image, where):
    """x with inclusion * x == image, else NonSplitKernel(where)."""
    x = retraction * image
    if inclusion * x != image:
        raise NonSplitKernel(where)
    return x


def conormalize_cokernel(A):
    """Cokernel form: degree-m group is the cokernel of the positive
    cofaces, with differential P d^0 S induced by d^0, the same for every
    section S (P * S = 1) as d^0 d^i = d^(i+1) d^0.  Stored homologically
    in degree -m.  Raises TorsionCokernel if the cokernel is not free."""
    M = A.max_level
    projections, sections, labels = {}, {}, {}
    for m in range(M + 1):
        n = A.rank(m)
        if m == 0:
            projections[0] = sections[0] = IntMatrix.identity(n)
            labels[0] = tuple(A.levels[0])
            continue
        stacked = A.d(m - 1, 1)
        for i in range(2, m + 1):
            stacked = stacked.stack_cols(A.d(m - 1, i))
        diag, u, _v = intmat.smith_normal_form(stacked)
        if any(f != 1 for f in diag):
            raise TorsionCokernel((m, diag))
        r = len(diag)
        projections[m] = u.submatrix(range(r, n), range(n))
        sections[m] = intmat.solve(projections[m], IntMatrix.identity(n - r))
        labels[m] = tuple("m%d:q%d" % (m, i) for i in range(n - r))
    basis = {-m: labels[m] for m in range(M + 1)}
    diff = {}
    for m in range(M):
        diff[-m] = projections[m + 1] * A.d(m, 0) * sections[m]
    cx = GradedIntComplex((-M - 1, 1), basis, diff,
                          regrade="cochain (chain degree -m holds degree m)")
    return CokernelConormalization(cx, projections, sections)


@dataclass
class ConormalizationCertificate:
    """Mutually inverse chain maps between the kernel and cokernel forms."""
    iso: dict        # m -> IntMatrix, cokernel coords <- kernel coords
    inverse: dict    # m -> IntMatrix
    levels: int

    def verify(self, kernel_form, cokernel_form):
        kc, qc = kernel_form.complex, cokernel_form.complex
        for m in range(self.levels + 1):
            c, cinv = self.iso[m], self.inverse[m]
            if (cinv * c != IntMatrix.identity(c.cols)
                    or c * cinv != IntMatrix.identity(c.rows)):
                raise ComparisonFailed(m)
        for m in range(self.levels):
            lhs = self.iso[m + 1] * kc.differential(-m)
            rhs = qc.differential(-m) * self.iso[m]
            if lhs != rhs:
                raise ComparisonFailed(m)
        return True


def compare_conormalizations(A, kernel_form=None, cokernel_form=None):
    """Certificate that the two conormalization forms agree.  Raises
    ComparisonFailed with the first bad degree."""
    if kernel_form is None:
        kernel_form = conormalize_kernel(A)
    if cokernel_form is None:
        cokernel_form = conormalize_cokernel(A)
    M = A.max_level
    iso, inverse = {}, {}
    for m in range(M + 1):
        iso[m] = c = cokernel_form.projections[m] * kernel_form.inclusions[m]
        inverse[m] = intmat.solve(c, IntMatrix.identity(c.rows))
        if inverse[m] is None:
            raise ComparisonFailed(m)
    cert = ConormalizationCertificate(iso, inverse, M)
    cert.verify(kernel_form, cokernel_form)
    return cert


class CosimplicialChainComplex:
    """Levelwise graded integer complexes with cosimplicial operators that
    are chain maps satisfying the cosimplicial identities; a truncation
    records the top internal degree every level holds completely."""

    def __init__(self, levels, cofaces, codegens, complete_degree=None):
        # levels: r -> GradedIntComplex; operators: (r, i) -> {m: IntMatrix}
        self.levels = dict(levels)
        self.complete_degree = complete_degree
        self.max_level = max(self.levels)
        if sorted(self.levels) != list(range(self.max_level + 1)):
            raise ShapeMismatch("levels %r are not 0..top" % sorted(levels))
        self.cofaces = {k: dict(v) for k, v in cofaces.items()}
        self.codegens = {k: dict(v) for k, v in codegens.items()}
        self._ops = {"d": self.cofaces, "s": self.codegens}
        self._check()

    def internal_degrees(self):
        lo = min(c.window[0] for c in self.levels.values())
        hi = max(c.window[1] for c in self.levels.values())
        return lo, hi

    def _op(self, gen, alpha, m):
        """The generator gen = (kind, r, i), with map alpha, in internal
        degree m; zero where the tables give none."""
        shape = (self.levels[alpha.target.level].rank(m),
                 self.levels[gen[1]].rank(m))
        mat = self._ops[gen[0]].get(gen[1:], {}).get(m)
        if mat is None:
            mat = IntMatrix.zeros(*shape)
        if (mat.rows, mat.cols) != shape:
            raise ShapeMismatch("%s %r in degree %d is %r" %
                                (delta.KINDS[gen[0]], gen[1:], m, mat))
        return mat

    def _check(self):
        lo, hi = self.internal_degrees()
        # operators are chain maps
        for gen, alpha in delta.generators(self.max_level).items():
            src, tgt = self.levels[gen[1]], self.levels[alpha.target.level]
            for m in range(lo + 1, hi + 1):
                if src.rank(m) and (
                        _diff_or_zero(tgt, m) * self._op(gen, alpha, m) !=
                        self._op(gen, alpha, m - 1) * _diff_or_zero(src, m)):
                    raise NotAChainMap(delta.KINDS[gen[0]] +
                                       " not a chain map", *gen[1:], m)
        # identities levelwise
        for m in range(lo, hi + 1):
            self.level_ab_group(m, self.max_level, check=True)

    def level_ab_group(self, m, level_cap, check=False):
        """The cosimplicial abelian group obtained by fixing internal
        degree m, on the levels 0..level_cap."""
        levels = {r: self.levels[r].basis.get(m, ())
                  for r in range(level_cap + 1)}
        cofaces, codegens = operator_tables(
            level_cap, lambda gen, alpha: self._op(gen, alpha, m))
        return CosimplicialAbGroup(levels, cofaces, codegens, check=check)


def operator_tables(top, matrix):
    """The coface and codegeneracy tables {(m, i): matrix(gen, alpha)} on
    the levels 0..top, one entry per generator gen -> alpha of
    ``delta.generators(top)``."""
    tables = {"d": {}, "s": {}}
    for gen, alpha in delta.generators(top).items():
        tables[gen[0]][gen[1:]] = matrix(gen, alpha)
    return tables["d"], tables["s"]


def _diff_or_zero(cx, m):
    if m in cx.diff:
        return cx.diff[m]
    return IntMatrix.zeros(cx.rank(m - 1), cx.rank(m))


def conormalize_bicomplex(B, level_cap):
    """Totalization of the conormalization bicomplex of a cosimplicial chain
    complex, truncated as a quotient at cosimplicial level ``level_cap``.

    A generator at cosimplicial level r and internal degree m sits in total
    degree p = m - r; the total differential is the restricted internal
    differential plus -(-1)^p times the alternating coface sum.
    """
    if level_cap > B.max_level:
        raise WindowTooSmall((level_cap, B.max_level))
    mlo, mhi = B.internal_degrees()
    kernels = {}   # m -> KernelConormalization over levels 0..level_cap
    for m in range(mlo, mhi + 1):
        kernels[m] = conormalize_kernel(B.level_ab_group(m, level_cap))
    # internal differential restricted to the kernel subgroups
    internal = {}
    for m in range(mlo + 1, mhi + 1):
        for r in range(level_cap + 1):
            img = _diff_or_zero(B.levels[r], m) * kernels[m].inclusions[r]
            internal[(r, m)] = _restrict(kernels[m - 1].inclusions[r],
                                         kernels[m - 1].retractions[r], img,
                                         ("internal", r, m))
    # the total complex on labels p:r:m:i, blocks of a degree in (r, m) order
    blocks = {}
    for m in range(mlo, mhi + 1):
        for r in range(level_cap + 1):
            if kernels[m].inclusions[r].cols:
                blocks.setdefault(m - r, []).append((r, m))
    if not blocks:
        raise WindowTooSmall(level_cap)
    plo, phi = min(blocks) - 2, max(blocks) + 2

    def label(r, m, i):
        return "p%d:r%d:m%d:%d" % (m - r, r, m, i)
    basis = {p: tuple(label(r, m, i) for r, m in sorted(blocks.get(p, ()))
                      for i in range(kernels[m].inclusions[r].cols))
             for p in range(plo, phi + 1)}
    # a generator's boundary: the internal part (r, m) -> (r, m-1), then the
    # cosimplicial part (r, m) -> (r+1, m) with sign -(-1)^p
    images = {}
    for p, spots in blocks.items():
        sign = -1 if p % 2 == 0 else 1
        for r, m in spots:
            inner = internal[(r, m)].columns() if m > mlo else {}
            outer = kernels[m].complex.differential(-r).columns()
            for j in range(kernels[m].inclusions[r].cols):
                images[label(r, m, j)] = (
                    [(label(r, m - 1, i), v)
                     for i, v in inner.get(j, {}).items()] +
                    [(label(r + 1, m, i), sign * v)
                     for i, v in outer.get(j, {}).items()])
    return GradedIntComplex.from_boundary((plo, phi), basis,
                                          lambda p, x: images[x])


def stabilized_bicomplex_homology(B, level_cap, degrees):
    """Homology of the truncated totalization, certified by comparing the
    truncations at level_cap and level_cap + 1.  Raises WindowTooSmall when
    the groups do not agree on the requested degrees, and before computing
    when B is truncated below the internal degree d + level_cap + 2 that
    H_d at cap level_cap + 1 reads (total degree d + 1 at the top level)."""
    top = max(degrees) + level_cap + 2
    if B.complete_degree is not None and top > B.complete_degree:
        raise WindowTooSmall((top, B.complete_degree))
    h1 = reduced_homology(conormalize_bicomplex(B, level_cap), degrees)
    h2 = reduced_homology(conormalize_bicomplex(B, level_cap + 1), degrees)
    for d in h1:
        if h1[d] != h2[d]:
            raise WindowTooSmall((d, h1[d], h2[d]))
    return h1
