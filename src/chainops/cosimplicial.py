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
from .intmat import IntMatrix
from .complexes import GradedIntComplex


class NonSplitKernel(Exception):
    pass


class TorsionCokernel(Exception):
    pass


class ComparisonFailed(Exception):
    pass


class WindowTooSmall(Exception):
    pass


@dataclass(frozen=True)
class AugmentedFlag:
    """Optional empty-level data of an augmented cosimplicial group."""
    has_empty_level: bool
    empty_rank: int = 0
    to_level0: IntMatrix = None


class CosimplicialAbGroup:
    """Levelwise finitely generated free abelian group with coface and
    codegeneracy matrices satisfying the cosimplicial identities."""

    def __init__(self, levels, cofaces, codegens, augmentation=None, check=True):
        self.levels = {m: tuple(v) for m, v in levels.items()}
        self.max_level = max(self.levels)
        assert sorted(self.levels) == list(range(self.max_level + 1))
        self.cofaces = dict(cofaces)      # (m, i): A^m -> A^{m+1}
        self.codegens = dict(codegens)    # (m, i): A^m -> A^{m-1}
        for m in range(self.max_level):
            for i in range(m + 2):
                mat = self.cofaces[(m, i)]
                assert mat.rows == self.rank(m + 1) and mat.cols == self.rank(m)
        for m in range(1, self.max_level + 1):
            for i in range(m):
                mat = self.codegens[(m, i)]
                assert mat.rows == self.rank(m - 1) and mat.cols == self.rank(m)
        self.augmentation = augmentation
        if augmentation and augmentation.has_empty_level:
            iota = augmentation.to_level0
            assert iota is not None and iota.rows == self.rank(0)
            if self.max_level >= 1:
                d0, d1 = self.cofaces[(0, 0)], self.cofaces[(0, 1)]
                assert d0 * iota == d1 * iota, "augmentation not consistent"
        if check:
            self._check_identities()

    def rank(self, m):
        return len(self.levels[m])

    def d(self, m, i):
        return self.cofaces[(m, i)]

    def s(self, m, i):
        return self.codegens[(m, i)]

    def _check_identities(self):
        M = self.max_level
        for m in range(M - 1):
            for j in range(m + 3):
                for i in range(j):
                    # d^j d^i = d^i d^{j-1}, maps A^m -> A^{m+2}
                    assert self.d(m + 1, j) * self.d(m, i) == \
                        self.d(m + 1, i) * self.d(m, j - 1), (m, i, j)
        for m in range(2, M + 1):
            for j in range(m - 1):
                for i in range(j + 1):
                    # s^j s^i = s^i s^{j+1}, maps A^m -> A^{m-2}
                    assert self.s(m - 1, j) * self.s(m, i) == \
                        self.s(m - 1, i) * self.s(m, j + 1), (m, i, j)
        for m in range(M):
            for j in range(m + 1):
                for i in range(m + 2):
                    lhs = self.s(m + 1, j) * self.d(m, i)
                    if i < j:
                        rhs = self.d(m - 1, i) * self.s(m, j - 1)
                    elif i in (j, j + 1):
                        rhs = IntMatrix.identity(self.rank(m))
                    else:
                        rhs = self.d(m - 1, i - 1) * self.s(m, j)
                    assert lhs == rhs, (m, i, j)

    def operator(self, alpha):
        """Matrix of the operator induced by an arbitrary ordered map."""
        out = IntMatrix.identity(self.rank(alpha.source.level))
        for kind, m, i in delta.decompose(alpha):
            gen = self.d(m, i) if kind == "d" else self.s(m, i)
            out = gen * out
        return out

    def alternating_coface(self, m):
        """sum_i (-1)^i d^i : A^m -> A^{m+1}."""
        out = IntMatrix.zeros(self.rank(m + 1), self.rank(m))
        for i in range(m + 2):
            out = out + (-1) ** i * self.d(m, i)
        return out


@dataclass
class KernelConormalization:
    complex: GradedIntComplex
    inclusions: dict   # m -> IntMatrix (A^m <- K^m)


@dataclass
class CokernelConormalization:
    complex: GradedIntComplex
    projections: dict      # m -> IntMatrix (Q^m <- A^m)
    sections: dict         # m -> IntMatrix (A^m <- Q^m), projection o section = id
    coordinate_labels: bool = False


def conormalize_kernel(A):
    """Kernel form: degree-m group is the intersection of the kernels of the
    codegeneracies, with differential the alternating coface sum.  Stored
    homologically in degree -m."""
    M = A.max_level
    inclusions = {}
    for m in range(M + 1):
        if m == 0:
            inclusions[0] = IntMatrix.identity(A.rank(0))
            continue
        stacked = A.s(m, 0)
        for i in range(1, m):
            stacked = stacked.stack_rows(A.s(m, i))
        ker = intmat.kernel_basis(stacked)
        inv = intmat.snf_diagonal(ker)
        if any(f != 1 for f in inv):
            raise NonSplitKernel(m)
        inclusions[m] = ker
    basis = {-m: tuple("m%d:k%d" % (m, i) for i in range(inclusions[m].cols))
             for m in range(M + 1)}
    diff = {}
    for m in range(M):
        image = A.alternating_coface(m) * inclusions[m]
        x = intmat.solve(inclusions[m + 1], image)
        if x is None:
            raise NonSplitKernel(m)
        diff[-m] = x
    cx = GradedIntComplex((-M - 1, 1), basis, diff,
                          regrade="cochain (chain degree -m holds degree m)")
    return KernelConormalization(cx, inclusions)


def _coordinate_quotient(stacked):
    """If the image of ``stacked`` is spanned by +-1 unit columns, return the
    sorted list of killed coordinates, else None."""
    by_col = {}
    for (i, j), v in stacked.data.items():
        by_col.setdefault(j, []).append((i, v))
    killed = set()
    for col in by_col.values():
        if len(col) == 1 and abs(col[0][1]) == 1:
            killed.add(col[0][0])
        else:
            return None
    return sorted(killed)


def conormalize_cokernel(A):
    """Cokernel form: degree-m group is the cokernel of the positive
    cofaces, with differential induced by d^0.  Stored homologically in
    degree -m.  Raises TorsionCokernel if the cokernel is not free."""
    M = A.max_level
    projections, sections, labels = {}, {}, {}
    coordinate = True
    for m in range(M + 1):
        n = A.rank(m)
        if m == 0:
            projections[0] = IntMatrix.identity(n)
            sections[0] = IntMatrix.identity(n)
            labels[0] = tuple(A.levels[0])
            continue
        stacked = A.d(m - 1, 1)
        for i in range(2, m + 1):
            stacked = stacked.stack_cols(A.d(m - 1, i))
        killed = _coordinate_quotient(stacked)
        if killed is not None:
            keep = [i for i in range(n) if i not in killed]
            projections[m] = IntMatrix(len(keep), n,
                                       {(r, i): 1 for r, i in enumerate(keep)})
            sections[m] = IntMatrix(n, len(keep),
                                    {(i, r): 1 for r, i in enumerate(keep)})
            labels[m] = tuple(A.levels[m][i] for i in keep)
            continue
        coordinate = False
        diag, u, _v = intmat.smith_normal_form(stacked)
        if any(f != 1 for f in diag):
            raise TorsionCokernel((m, diag))
        r = len(diag)
        uinv = intmat.inverse_unimodular(u)
        projections[m] = IntMatrix(n - r, n,
                                   {(i - r, j): v for (i, j), v in u.data.items() if i >= r})
        sections[m] = IntMatrix(n, n - r,
                                {(i, j - r): v for (i, j), v in uinv.data.items() if j >= r})
        labels[m] = tuple("m%d:q%d" % (m, i) for i in range(n - r))
    basis = {-m: labels[m] for m in range(M + 1)}
    diff = {}
    for m in range(M):
        diff[-m] = projections[m + 1] * A.d(m, 0) * sections[m]
    cx = GradedIntComplex((-M - 1, 1), basis, diff,
                          regrade="cochain (chain degree -m holds degree m)")
    return CokernelConormalization(cx, projections, sections, coordinate)


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
        c = cokernel_form.projections[m] * kernel_form.inclusions[m]
        try:
            inverse[m] = intmat.inverse_unimodular(c)
        except intmat.NotUnimodular:
            raise ComparisonFailed(m)
        iso[m] = c
    cert = ConormalizationCertificate(iso, inverse, M)
    cert.verify(kernel_form, cokernel_form)
    return cert


class CosimplicialChainComplex:
    """Levelwise graded integer complexes with cosimplicial operators that
    are chain maps satisfying the cosimplicial identities."""

    def __init__(self, levels, cofaces, codegens, check=True):
        # levels: r -> GradedIntComplex; operators: (r, i) -> {m: IntMatrix}
        self.levels = dict(levels)
        self.max_level = max(self.levels)
        assert sorted(self.levels) == list(range(self.max_level + 1))
        self.cofaces = {k: dict(v) for k, v in cofaces.items()}
        self.codegens = {k: dict(v) for k, v in codegens.items()}
        if check:
            self._check()

    def internal_degrees(self):
        lo = min(c.window[0] for c in self.levels.values())
        hi = max(c.window[1] for c in self.levels.values())
        return lo, hi

    def _op(self, table, key, m, rows, cols):
        mat = table.get(key, {}).get(m)
        if mat is None:
            mat = IntMatrix.zeros(rows, cols)
        assert mat.rows == rows and mat.cols == cols
        return mat

    def d(self, r, i, m):
        src, tgt = self.levels[r], self.levels[r + 1]
        return self._op(self.cofaces, (r, i), m,
                        _rank_or_zero(tgt, m), _rank_or_zero(src, m))

    def s(self, r, i, m):
        src, tgt = self.levels[r], self.levels[r - 1]
        return self._op(self.codegens, (r, i), m,
                        _rank_or_zero(tgt, m), _rank_or_zero(src, m))

    def _check(self):
        lo, hi = self.internal_degrees()
        # operators are chain maps
        for r in range(self.max_level):
            for i in range(r + 2):
                for m in range(lo + 1, hi + 1):
                    if _rank_or_zero(self.levels[r], m) == 0:
                        continue
                    lhs = _diff_or_zero(self.levels[r + 1], m) * self.d(r, i, m)
                    rhs = self.d(r, i, m - 1) * _diff_or_zero(self.levels[r], m)
                    assert lhs == rhs, ("coface not a chain map", r, i, m)
        for r in range(1, self.max_level + 1):
            for i in range(r):
                for m in range(lo + 1, hi + 1):
                    if _rank_or_zero(self.levels[r], m) == 0:
                        continue
                    lhs = _diff_or_zero(self.levels[r - 1], m) * self.s(r, i, m)
                    rhs = self.s(r, i, m - 1) * _diff_or_zero(self.levels[r], m)
                    assert lhs == rhs, ("codegeneracy not a chain map", r, i, m)
        # identities levelwise
        for m in range(lo, hi + 1):
            self.level_ab_group(m, check=True)

    def level_ab_group(self, m, check=False):
        """The cosimplicial abelian group obtained by fixing internal
        degree m."""
        levels = {r: tuple("r%d:%s" % (r, _lab(lbl))
                           for lbl in _basis_or_empty(self.levels[r], m))
                  for r in range(self.max_level + 1)}
        cofaces = {(r, i): self.d(r, i, m)
                   for r in range(self.max_level) for i in range(r + 2)}
        codegens = {(r, i): self.s(r, i, m)
                    for r in range(1, self.max_level + 1) for i in range(r)}
        return CosimplicialAbGroup(levels, cofaces, codegens, check=check)


def _rank_or_zero(cx, m):
    lo, hi = cx.window
    return cx.rank(m) if lo <= m <= hi else 0


def _basis_or_empty(cx, m):
    lo, hi = cx.window
    return cx.basis[m] if lo <= m <= hi else ()


def _diff_or_zero(cx, m):
    lo, hi = cx.window
    if lo + 1 <= m <= hi:
        return cx.differential(m)
    return IntMatrix.zeros(_rank_or_zero(cx, m - 1), _rank_or_zero(cx, m))


def _lab(label):
    return label if isinstance(label, str) else repr(label)


def conormalize_bicomplex(B, level_cap, check=True):
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
        A = _truncated_ab_group(B, m, level_cap)
        kernels[m] = conormalize_kernel(A)
    # internal differential restricted to the kernel subgroups
    internal = {}
    for m in range(mlo + 1, mhi + 1):
        for r in range(level_cap + 1):
            img = _diff_or_zero(B.levels[r], m) * kernels[m].inclusions[r]
            x = intmat.solve(kernels[m - 1].inclusions[r], img)
            if x is None:
                raise NonSplitKernel(("internal", r, m))
            internal[(r, m)] = x
    # assemble total complex
    spots = {}
    for m in range(mlo, mhi + 1):
        for r in range(level_cap + 1):
            k = kernels[m].inclusions[r].cols
            if k:
                spots.setdefault(m - r, []).append((r, m, k))
    if not spots:
        raise WindowTooSmall(level_cap)
    plo, phi = min(spots) - 2, max(spots) + 2
    basis, offset = {}, {}
    for p in range(plo, phi + 1):
        labels = []
        for r, m, k in sorted(spots.get(p, [])):
            offset[(r, m)] = len(labels)
            labels.extend("p%d:r%d:m%d:%d" % (p, r, m, i) for i in range(k))
        basis[p] = tuple(labels)
    diff = {}
    for p in range(plo + 1, phi + 1):
        data = {}
        for r, m, k in sorted(spots.get(p, [])):
            base = offset[(r, m)]
            # internal part: (r, m) -> (r, m-1)
            mat = internal.get((r, m))
            if mat is not None and (r, m - 1) in offset:
                tbase = offset[(r, m - 1)]
                for (i, j), v in mat.data.items():
                    data[(tbase + i, base + j)] = data.get((tbase + i, base + j), 0) + v
            # cosimplicial part: (r, m) -> (r+1, m), sign -(-1)^p
            if r + 1 <= level_cap and (r + 1, m) in offset:
                cmat = kernels[m].complex.differential(-r)
                sign = -1 if p % 2 == 0 else 1
                tbase = offset[(r + 1, m)]
                for (i, j), v in cmat.data.items():
                    key = (tbase + i, base + j)
                    data[key] = data.get(key, 0) + sign * v
        diff[p] = IntMatrix(len(basis[p - 1]), len(basis[p]), data)
    return GradedIntComplex((plo, phi), basis, diff, check=check)


def _truncated_ab_group(B, m, level_cap):
    levels = {r: tuple("r%d:%s" % (r, _lab(lbl))
                       for lbl in _basis_or_empty(B.levels[r], m))
              for r in range(level_cap + 1)}
    cofaces = {(r, i): B.d(r, i, m)
               for r in range(level_cap) for i in range(r + 2)}
    codegens = {(r, i): B.s(r, i, m)
                for r in range(1, level_cap + 1) for i in range(r)}
    return CosimplicialAbGroup(levels, cofaces, codegens, check=False)


def stabilized_bicomplex_homology(B, level_cap, degrees):
    """Homology of the truncated totalization, certified by comparing the
    truncations at level_cap and level_cap + 1.  Raises WindowTooSmall when
    the groups do not agree on the requested degrees."""
    h1 = conormalize_bicomplex(B, level_cap).homology_table(degrees)
    h2 = conormalize_bicomplex(B, level_cap + 1).homology_table(degrees)
    for d in h1:
        if h1[d] != h2[d]:
            raise WindowTooSmall((d, h1[d], h2[d]))
    return h1
