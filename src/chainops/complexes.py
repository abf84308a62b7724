"""Finitely generated graded chain complexes over Z or Z/p, with named
bases.

Grading is homological everywhere: the differential in degree d maps to
degree d-1.  Cochain complexes are stored with their groups in negative
degrees (degree -m holds the m-cochains), recorded in the ``regrade``
attribute, so one homology engine serves both directions and both rings.
"""

import json
from functools import partial

from . import intmat
from .intmat import IntMatrix, ShapeMismatch


class DegreeOutsideWindow(Exception):
    pass


class InfeasibleSize(Exception):
    """A request refused before any work because its size is above a
    limit: symbols of an operad window, or a Hochschild cochain space."""


class NotSquareZero(AssertionError):
    """d o d != 0.  Raised explicitly, so the check also runs under
    ``python -O``; an AssertionError, as the check used to be an assert."""


class InvalidComplex(AssertionError):
    """Duplicate labels in a degree, or a differential of the wrong shape
    (raised explicitly, like NotSquareZero)."""


class NotAChainMap(AssertionError):
    """Maps that do not commute with the differentials (raised explicitly,
    like NotSquareZero)."""


class GradedIntComplex:
    """Graded free module over Z (prime 0) or Z/prime, with differentials
    given by integer matrices, read mod prime over Z/prime.

    basis[d] is an ordered tuple of hashable labels, for every d in the
    closed truncation window [lo, hi].  diff[d] : C_d -> C_{d-1} for
    lo < d <= hi.  d o d = 0 in the coefficient ring is checked on
    construction (NotSquareZero).
    """

    def __init__(self, window, basis, diff, regrade=None, prime=0):
        lo, hi = window
        if lo > hi:
            raise InvalidComplex("empty window %r" % (window,))
        self.window = (lo, hi)
        self.basis = {}
        for d in range(lo, hi + 1):
            labels = tuple(basis.get(d, ()))
            if len(set(labels)) != len(labels):
                raise InvalidComplex("duplicate labels in degree %d" % d)
            self.basis[d] = labels
        self.diff = {}
        for d in range(lo + 1, hi + 1):
            m = diff.get(d)
            if m is None:
                m = IntMatrix.zeros(len(self.basis[d - 1]), len(self.basis[d]))
            if (m.rows, m.cols) != (len(self.basis[d - 1]), len(self.basis[d])):
                raise InvalidComplex("differential shape mismatch in degree %d" % d)
            self.diff[d] = m
        self.regrade = regrade
        self.prime = prime
        self.check_dd_zero()

    @classmethod
    def from_boundary(cls, window, basis, boundary):
        """The complex whose differential sends a label x of degree d to
        boundary(d, x), an iterable of (label of degree d - 1, coefficient)
        pairs, for every two consecutive degrees that ``basis`` lists."""
        diff = {d: IntMatrix.from_images(basis[d], basis[d - 1],
                                         partial(boundary, d))
                for d in basis if d - 1 in basis}
        return cls(window, basis, diff)

    def check_dd_zero(self):
        """Each d_(d-1) * d_d is zero in the ring: its column store, which
        the product leaves without zero entries, is empty over Z."""
        lo, hi = self.window
        p = self.prime
        for d in range(lo + 2, hi + 1):
            dd = (self.diff[d - 1] * self.diff[d]).columns()
            if any(x % p for c in dd.values() for x in c.values()) if p else dd:
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

    def homology(self, d):
        """(betti, torsion) of H_d, computed by ``reduced_homology``.

        Requires d-1, d, d+1 inside the truncation window.
        """
        return reduced_homology(self, (d,))[d]

    def to_json(self):
        """Deterministic JSON export: sparse triplets, stringified labels."""
        lo, hi = self.window
        obj = {
            "degrees": list(range(lo, hi + 1)),
            "basis": {str(d): [label_str(x) for x in self.basis[d]]
                      for d in range(lo, hi + 1)},
            "differential": {
                str(d): sorted([i, j, v] for j, col in self.diff[d].columns()
                               .items() for i, v in col.items())
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


def label_str(label):
    return label if isinstance(label, str) else repr(label)


class ChainMap:
    """Degree-shifting map of graded complexes, commuting with the
    differentials up to the Koszul sign (-1)^shift on the shared window."""

    def __init__(self, source, target, matrices, degree_shift=0):
        self.source = source
        self.target = target
        self.shift = degree_shift
        self.matrices = {}
        for d, m in matrices.items():
            if (m.rows, m.cols) != (target.rank(d + degree_shift),
                                    source.rank(d)):
                raise ShapeMismatch("chain map matrix %r in degree %d" % (m, d))
            self.matrices[d] = m
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
            if left != right:
                raise NotAChainMap("not a chain map in degree %d" % d)


def reduced_homology(cx, degrees):
    """Homology over a degree window, in the complex's coefficient ring.

    One ``intmat.Eliminator`` per differential of the window
    min(degrees) - 1 .. max(degrees) + 1 cancels its unit entries: +-1 over
    Z, every nonzero entry over Z/p.  Each cancellation of a pivot (y, x) in
    degree d is an exact change of basis that removes an acyclic direct
    summand, so homology is preserved; it drops row x of the differential
    one degree up and column y of the one below, which d o d = 0 makes
    combinations of the rows and columns kept.  Degrees go lowest first, so
    those rows leave the differential above before its heap is built.  Then
    the same engines find the invariant factors of what is left, and their
    pivots count the ranks.  Returns {d: (betti, torsion)}: the rank and the
    invariant factors > 1 over Z, the dimension and () over Z/p.  This is
    the one homology path: ``GradedIntComplex.homology`` delegates here."""
    degrees = tuple(degrees)
    if not degrees:
        return {}
    for d in degrees:
        _check_interior(cx, d)
    lo, hi = min(degrees) - 1, max(degrees) + 1
    engines = {d: intmat.Eliminator(cx.diff[d], cx.prime)
               for d in range(lo + 1, hi + 1)}
    for d, engine in engines.items():
        for y, x in engine.units():
            if d + 1 in engines:
                engines[d + 1].drop_row(x)
            if d - 1 in engines:
                engines[d - 1].drop_col(y)
    diag = {d: engines[d].run() for d in sorted({e for d in degrees
                                                  for e in (d, d + 1)})}
    return {d: (cx.rank(d) - len(diag[d]) - len(diag[d + 1]),
                tuple(f for f in diag[d + 1] if f > 1))
            for d in degrees}


def _check_interior(cx, d):
    if not (cx.window[0] <= d - 1 and d + 1 <= cx.window[1]):
        raise DegreeOutsideWindow(d)


def homology_basis(cx, degrees):
    """{d: cycles} for each d in ``degrees``: cycles of degree d, as
    {label: coefficient} vectors, whose classes form a basis of H_d over
    Z/p; needs d - 1 and d + 1 inside the window, like ``reduced_homology``.
    One tracked Smith normal form u * d_e * v of rank r serves d_e twice:
    columns r.. of v span ker d_e, and x in C_(e-1) is a boundary exactly
    when rows r.. of u * x vanish.  So with K the kernel basis of d_d and u
    from d_(d+1), rows r.. of u * K are the classes of K's columns; one
    elimination picks independent columns among them, and the columns of
    K there, in order, are returned."""
    if not cx.prime:
        raise InvalidComplex("homology bases need a prime field")
    degrees = tuple(degrees)
    for d in degrees:
        _check_interior(cx, d)
    p = cx.prime
    snf = {e: intmat.smith_normal_form(cx.diff[e], p)
           for e in sorted({e for d in degrees for e in (d, d + 1)})}
    out = {}
    for d in degrees:
        (diag, _, v), (image, u, _) = snf[d], snf[d + 1]
        r, s = len(diag), len(image)
        kernel = v.submatrix(range(v.rows), range(r, v.cols))
        classes = (u * kernel).submatrix(range(s, u.rows), range(kernel.cols))
        engine = intmat.Eliminator(classes, p)
        engine.run()
        labels, columns = cx.basis[d], kernel.columns()
        out[d] = [{labels[i]: x for i, x in sorted(columns[j].items())}
                  for j in sorted(j for _, j in engine.pivots)]
    return out


def tensor(a, b):
    """Tensor product of chain complexes: basis pairs (x, y), Koszul sign
    d(x (x) y) = dx (x) y + (-1)^|x| x (x) dy."""
    alo, ahi = a.window
    blo, bhi = b.window
    basis = {}
    bideg = {}   # (d, label) -> degree of the left factor
    for d in range(alo + blo, ahi + bhi + 1):
        pairs = [(i, (x, y))
                 for i in range(max(alo, d - bhi), min(ahi, d - blo) + 1)
                 for x in a.basis[i] for y in b.basis[d - i]]
        basis[d] = tuple(lab for _, lab in pairs)
        bideg.update(((d, lab), i) for i, lab in pairs)
    da = {i: _images(a, i) for i in a.diff}
    db = {j: _images(b, j) for j in b.diff}

    def boundary(d, lab):
        x, y = lab
        i = bideg[(d, lab)]
        sign = -1 if i % 2 else 1
        return ([((x2, y), v) for x2, v in da.get(i, {}).get(x, ())] +
                [((x, y2), sign * v) for y2, v in db.get(d - i, {}).get(y, ())])

    return GradedIntComplex.from_boundary((alo + blo, ahi + bhi), basis, boundary)


def _images(cx, d):
    """The differential out of degree d on labels:
    {label: [(label of degree d - 1, coefficient), ...]}."""
    src, tgt = cx.basis[d], cx.basis[d - 1]
    return {src[j]: [(tgt[i], v) for i, v in col.items()]
            for j, col in cx.diff[d].columns().items()}
