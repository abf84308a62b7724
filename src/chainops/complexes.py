"""Finitely generated graded integer chain complexes with named bases.

Grading is homological everywhere: the differential in degree d maps to
degree d-1.  Cochain complexes are stored with their groups in negative
degrees (degree -m holds the m-cochains), recorded in the ``regrade``
attribute, so one homology engine serves both directions.
"""

import heapq
import json

from . import intmat
from .intmat import IntMatrix


class DegreeOutsideWindow(Exception):
    pass


class NotSquareZero(AssertionError):
    """d o d != 0.  Raised explicitly, so the check also runs under
    ``python -O``; an AssertionError, as the check used to be an assert."""


class GradedIntComplex:
    """Graded free abelian group with integer differentials.

    basis[d] is an ordered tuple of hashable labels, for every d in the
    closed truncation window [lo, hi].  diff[d] : C_d -> C_{d-1} for
    lo < d <= hi.  d o d = 0 is checked on construction (NotSquareZero).
    """

    def __init__(self, window, basis, diff, regrade=None, check=True):
        lo, hi = window
        assert lo <= hi
        self.window = (lo, hi)
        self.basis = {}
        for d in range(lo, hi + 1):
            labels = tuple(basis.get(d, ()))
            assert len(set(labels)) == len(labels), "duplicate labels in degree %d" % d
            self.basis[d] = labels
        self.diff = {}
        for d in range(lo + 1, hi + 1):
            m = diff.get(d)
            if m is None:
                m = IntMatrix.zeros(len(self.basis[d - 1]), len(self.basis[d]))
            assert m.rows == len(self.basis[d - 1]) and m.cols == len(self.basis[d]), \
                "differential shape mismatch in degree %d" % d
            self.diff[d] = m
        self.regrade = regrade
        if check:
            self.check_dd_zero()

    def check_dd_zero(self):
        lo, hi = self.window
        for d in range(lo + 2, hi + 1):
            prod = self.diff[d - 1] * self.diff[d]
            if not prod.is_zero():
                raise NotSquareZero(
                    "d o d != 0 between degrees %d -> %d" % (d, d - 2))

    def degrees(self):
        lo, hi = self.window
        return range(lo, hi + 1)

    def rank(self, d):
        return len(self.basis.get(d, ()))

    def differential(self, d):
        if d not in self.diff:
            raise DegreeOutsideWindow(d)
        return self.diff[d]

    def index_of(self, d, label):
        return self.basis[d].index(label)

    def homology(self, d):
        """(betti, torsion) of H_d, computed by ``reduced_homology``.

        Requires d-1, d, d+1 inside the truncation window.
        """
        return reduced_homology(self, (d,))[d]

    def homology_table(self, degrees):
        return reduced_homology(self, degrees)

    def to_json(self):
        """Deterministic JSON export: sparse triplets, stringified labels."""
        lo, hi = self.window
        obj = {
            "degrees": list(range(lo, hi + 1)),
            "basis": {str(d): [_label_str(x) for x in self.basis[d]]
                      for d in range(lo, hi + 1)},
            "differential": {
                str(d): sorted([i, j, v] for (i, j), v in self.diff[d].data.items())
                for d in range(lo + 1, hi + 1)
            },
        }
        if self.regrade is not None:
            obj["regrade"] = self.regrade
        return json.dumps(obj, sort_keys=True)

    def __repr__(self):
        lo, hi = self.window
        ranks = ",".join(str(self.rank(d)) for d in range(lo, hi + 1))
        return "GradedIntComplex([%d..%d], ranks=%s)" % (lo, hi, ranks)


def _label_str(label):
    return label if isinstance(label, str) else repr(label)


class ChainMap:
    """Degree-shifting map of graded complexes, commuting with the
    differentials up to the Koszul sign (-1)^shift on the shared window."""

    def __init__(self, source, target, matrices, degree_shift=0, check=True):
        self.source = source
        self.target = target
        self.shift = degree_shift
        self.matrices = {}
        for d, m in matrices.items():
            assert m.rows == target.rank(d + degree_shift), (d, m.rows)
            assert m.cols == source.rank(d), (d, m.cols)
            self.matrices[d] = m
        if check:
            self.check_chain_map()

    def matrix(self, d):
        m = self.matrices.get(d)
        if m is None:
            m = IntMatrix.zeros(self.target.rank(d + self.shift), self.source.rank(d))
        return m

    def check_chain_map(self):
        s, t, k = self.source, self.target, self.shift
        lo, hi = s.window
        tlo, thi = t.window
        sign = -1 if k % 2 else 1
        for d in range(lo + 1, hi + 1):
            if not (tlo + 1 <= d + k <= thi):
                continue
            left = t.differential(d + k) * self.matrix(d)
            right = sign * (self.matrix(d - 1) * s.differential(d))
            assert left == right, "not a chain map in degree %d" % d

    def compose(self, other):
        """self o other."""
        assert other.target is self.source or other.target == self.source
        mats = {}
        for d in other.matrices:
            mats[d] = self.matrix(d + other.shift) * other.matrix(d)
        return ChainMap(other.source, self.target, mats,
                        self.shift + other.shift, check=False)


def reduced_homology(cx, degrees):
    """Homology over a degree window, computed by first cancelling unit
    entries of the differential (an exact change of basis that removes an
    acyclic direct summand, so integral homology is preserved) and then
    running Smith normal form once on each residual differential.  Only
    the window min(degrees) - 1 .. max(degrees) + 1 is reduced.  This is
    the one homology path: ``GradedIntComplex.homology`` delegates here."""
    degrees = tuple(degrees)
    if not degrees:
        return {}
    for d in degrees:
        if not (cx.window[0] <= d - 1 and d + 1 <= cx.window[1]):
            raise DegreeOutsideWindow(d)
    lo, hi = min(degrees) - 1, max(degrees) + 1
    rows = {}   # degree -> {row_label: {col_label: value}} of the boundary
    cols = {}   # degree -> {col_label: {row_label: value}}
    active = {d: set((d, i) for i in range(cx.rank(d)))
              for d in range(lo, hi + 1)}
    for d in range(lo + 1, hi + 1):
        rows[d] = {}
        cols[d] = {}
        for (i, j), v in cx.diff[d].data.items():
            rows[d].setdefault((d - 1, i), {})[(d, j)] = v
            cols[d].setdefault((d, j), {})[(d - 1, i)] = v

    queue = []
    for d in range(lo + 1, hi + 1):
        for y, row in rows[d].items():
            for x, v in row.items():
                if v in (1, -1):
                    fill = (len(row) - 1) * (len(cols[d][x]) - 1)
                    heapq.heappush(queue, (fill, d, y, x))

    def cancel(d, y, x):
        eps = rows[d][y][x]
        row = dict(rows[d][y])
        col = dict(cols[d][x])
        del row[x]
        del col[y]
        # remove the pivot pair
        for z in rows[d][y]:
            if z != x:
                del cols[d][z][y]
        for w in cols[d][x]:
            if w != y:
                del rows[d][w][x]
        del rows[d][y]
        del cols[d][x]
        active[d].discard(x)
        active[d - 1].discard(y)
        # update d: B[w, z] -= B[y, z] / eps * B[w, x]
        for z, a in row.items():
            coeff = a * eps   # eps in {1, -1}: 1/eps == eps
            for w, b in col.items():
                cur = rows[d].get(w, {}).get(z, 0) - coeff * b
                if cur:
                    rows[d].setdefault(w, {})[z] = cur
                    cols[d].setdefault(z, {})[w] = cur
                    if cur in (1, -1):
                        fill = (len(rows[d][w]) - 1) * (len(cols[d][z]) - 1)
                        heapq.heappush(queue, (fill, d, w, z))
                else:
                    if z in rows[d].get(w, {}):
                        del rows[d][w][z]
                        del cols[d][z][w]
        # drop row x from the differential one degree up
        up = d + 1
        if up in cols:
            for z in list(rows.get(up, {}).get(x, {})):
                del cols[up][z][x]
            rows.get(up, {}).pop(x, None)
        # drop column y from the differential one degree down
        dn = d - 1
        if dn in rows:
            for w in list(cols.get(dn, {}).get(y, {})):
                del rows[dn][w][y]
            cols.get(dn, {}).pop(y, None)

    while queue:
        fill, d, y, x = heapq.heappop(queue)
        v = rows[d].get(y, {}).get(x)
        if v not in (1, -1):
            continue
        cur = (len(rows[d][y]) - 1) * (len(cols[d][x]) - 1)
        if cur > fill and queue and queue[0][0] < cur:
            heapq.heappush(queue, (cur, d, y, x))
            continue
        cancel(d, y, x)

    index = {d: {lab: i for i, lab in enumerate(sorted(active[d]))}
             for d in range(lo, hi + 1)}
    invariants = {}
    for d in sorted({e for d in degrees for e in (d, d + 1)}):
        src, tgt = index[d], index[d - 1]
        residual = IntMatrix(len(tgt), len(src),
                             {(tgt[w], src[z]): v
                              for z in active[d]
                              for w, v in cols[d].get(z, {}).items()})
        invariants[d] = intmat.snf_diagonal(residual)
    out = {}
    for d in degrees:
        inv = invariants[d + 1]
        betti = len(active[d]) - len(invariants[d]) - len(inv)
        out[d] = (betti, tuple(f for f in inv if f > 1))
    return out


def point_complex(label="pt"):
    return GradedIntComplex((-1, 1), {0: (label,)}, {})


def tensor(a, b):
    """Tensor product of chain complexes: basis pairs (x, y), Koszul sign
    d(x (x) y) = dx (x) y + (-1)^|x| x (x) dy."""
    alo, ahi = a.window
    blo, bhi = b.window
    lo, hi = alo + blo, ahi + bhi
    basis = {}
    bideg = {}   # (d, label) -> degree of the left factor
    index = {}   # (d, label) -> column position
    for d in range(lo, hi + 1):
        labels = []
        for i in range(max(alo, d - bhi), min(ahi, d - blo) + 1):
            for x in a.basis[i]:
                for y in b.basis[d - i]:
                    lab = (x, y)
                    bideg[(d, lab)] = i
                    index[(d, lab)] = len(labels)
                    labels.append(lab)
        basis[d] = tuple(labels)
    diff = {}
    for d in range(lo + 1, hi + 1):
        data = {}
        for col, (x, y) in enumerate(basis[d]):
            i = bideg[(d, (x, y))]
            j = d - i
            if i > alo:
                da = a.differential(i)
                xi = a.index_of(i, x)
                for (row_i, c), v in da.data.items():
                    if c == xi:
                        x2 = a.basis[i - 1][row_i]
                        row = index[(d - 1, (x2, y))]
                        data[(row, col)] = data.get((row, col), 0) + v
            if j > blo:
                db = b.differential(j)
                yj = b.index_of(j, y)
                sign = -1 if i % 2 else 1
                for (row_j, c), v in db.data.items():
                    if c == yj:
                        y2 = b.basis[j - 1][row_j]
                        row = index[(d - 1, (x, y2))]
                        data[(row, col)] = data.get((row, col), 0) + sign * v
        diff[d] = IntMatrix(len(basis[d - 1]), len(basis[d]), data)
    return GradedIntComplex((lo, hi), basis, diff)
