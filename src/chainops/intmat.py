"""Sparse integer matrices with exact arithmetic and the one elimination
engine: Smith normal form over Z or Z/p, with ranks, kernels and solvers
on top of it.

All entries are Python ints (arbitrary precision).  Matrices are immutable
after construction; every operation returns a fresh matrix.
"""

import heapq
from collections.abc import Mapping
from itertools import chain


class ShapeMismatch(AssertionError):
    """Matrix shapes or indices that do not fit together.  Raised
    explicitly, so the checks also run under ``python -O``; an
    AssertionError, as the checks used to be asserts."""


def vec_sum(terms, prime=0):
    """The sum of (key, coefficient) terms as a dict, over Z or, for a
    nonzero prime, with coefficients reduced mod prime; zeros are dropped
    and keys keep their first-seen order."""
    out = {}
    for s, c in terms:
        out[s] = out.get(s, 0) + c
    if prime:
        return {s: r for s, c in out.items() if (r := c % prime)}
    return {s: c for s, c in out.items() if c}


def exact_int(v):
    """v as an int; a value with a fractional part raises ValueError."""
    if (n := int(v)) != v:
        raise ValueError("non-integral entry %r" % (v,))
    return n


def _reduced(store, prime):
    """A copy of a column store, reduced mod prime over Z/prime, with no
    zeros or empty columns."""
    if not prime:
        return {j: dict(col) for j, col in store.items()}
    return {j: c for j, col in store.items()
            if (c := {i: r for i, v in col.items() if (r := v % prime)})}


class _Entries(Mapping):
    """The entries {(i, j): value} of a column store in column order: a
    read-only view, read on demand."""

    def __init__(self, store):
        self._store = store

    def __getitem__(self, key):
        return self._store[key[1]][key[0]]

    def __iter__(self):
        return ((i, j) for j, col in self._store.items() for i in col)

    def __len__(self):
        return sum(map(len, self._store.values()))


class IntMatrix:
    """A rows x cols integer matrix stored by column: ``_store`` maps each
    nonzero column j to {i: value}, no zeros, in the order written.  Matrices
    may share columns, so a store is never written once built.  ``data`` is
    a read-only {(i, j): value} view of the store, in column order."""

    __slots__ = ("rows", "cols", "_store")

    def __init__(self, rows, cols, data=None):
        if rows < 0 or cols < 0:
            raise ShapeMismatch("negative size: %d x %d" % (rows, cols))
        self.rows, self.cols = rows, cols
        self._store = store = {}
        for (i, j), v in (data or {}).items():
            if not (0 <= i < rows and 0 <= j < cols):
                raise ShapeMismatch("entry %r outside %d x %d"
                                    % ((i, j), rows, cols))
            if v:
                store.setdefault(j, {})[i] = exact_int(v)

    @classmethod
    def _trusted(cls, rows, cols, store):
        """A matrix on a column store that is in range, nonzero and int by
        construction: the constructor for results of other matrices."""
        self = object.__new__(cls)
        self.rows, self.cols, self._store = rows, cols, store
        return self

    @classmethod
    def zeros(cls, rows, cols):
        return cls(rows, cols)

    @classmethod
    def identity(cls, n):
        return cls._trusted(n, n, {i: {i: 1} for i in range(n)})

    @classmethod
    def from_images(cls, sources, targets, image):
        """Matrix of the map sending the j-th source label to image(label),
        an iterable of (target label, coefficient) pairs.  Repeated targets
        add up; a target outside ``targets`` raises KeyError, and a sum
        with a fractional part ValueError."""
        index = {t: i for i, t in enumerate(targets)}
        store = {}
        for j, s in enumerate(sources):
            col = {}
            for t, c in image(s):
                i = index[t]
                col[i] = col.get(i, 0) + c
            if col := {i: x if type(x) is int else exact_int(x)
                       for i, x in col.items() if x}:
                store[j] = col
        return cls._trusted(len(targets), len(sources), store)

    @property
    def data(self):
        return _Entries(self._store)

    def columns(self):
        """The column store {j: {i: value}} itself, for reading only."""
        return self._store

    def submatrix(self, rows, cols):
        """The entries at the given row and column indices, renumbered in
        the order given.  Entries keep their order in this matrix, so an
        ``Eliminator`` meets them as it would in the original."""
        ri = {i: a for a, i in enumerate(rows)}
        ci = {j: b for b, j in enumerate(cols)}
        if (len(ri) != len(rows) or len(ci) != len(cols)
                or not all(0 <= i < self.rows for i in ri)
                or not all(0 <= j < self.cols for j in ci)):
            raise ShapeMismatch("submatrix %r x %r of %r" % (rows, cols, self))
        return IntMatrix._trusted(len(ri), len(ci), {
            ci[j]: c for j, col in self._store.items() if j in ci
            and (c := {ri[i]: v for i, v in col.items() if i in ri})})

    def is_zero(self):
        return not self._store

    def transpose(self):
        return IntMatrix._trusted(self.cols, self.rows, _rows_of(self._store))

    def __eq__(self, other):
        return (isinstance(other, IntMatrix) and self.rows == other.rows
                and self.cols == other.cols and self._store == other._store)

    def __add__(self, other):
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ShapeMismatch("sum of %r and %r" % (self, other))
        a, b = self._store, other._store
        return IntMatrix._trusted(self.rows, self.cols, {
            j: c for j in dict.fromkeys(chain(a, b)) if (c := vec_sum(
                chain(a.get(j, {}).items(), b.get(j, {}).items())))})

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return -1 * self

    def __rmul__(self, c):
        c = exact_int(c)
        return IntMatrix._trusted(self.rows, self.cols, {
            j: {i: c * v for i, v in col.items()}
            for j, col in self._store.items()} if c else {})

    def __mul__(self, other):
        """Matrix product self @ other, one column of other at a time."""
        if self.cols != other.rows:
            raise ShapeMismatch("product of %r and %r" % (self, other))
        left, store = self._store, {}
        for l, col in other._store.items():
            if len(col) == 1:   # as in most coface columns: no sums
                (j, w), = col.items()
                if j in left:
                    store[l] = left[j] if w == 1 else {
                        i: v * w for i, v in left[j].items()}
                continue
            acc = {}
            for j, w in col.items():
                for i, v in left.get(j, {}).items():
                    acc[i] = acc.get(i, 0) + v * w
            if any(acc.values()):
                store[l] = {i: x for i, x in acc.items() if x}
        return IntMatrix._trusted(self.rows, other.cols, store)

    def stack_rows(self, other):
        """Block matrix [self; other]."""
        if self.cols != other.cols:
            raise ShapeMismatch("rows of %r stacked on %r" % (other, self))
        store = {j: dict(col) for j, col in self._store.items()}
        for j, col in other._store.items():
            store.setdefault(j, {}).update(
                (i + self.rows, v) for i, v in col.items())
        return IntMatrix._trusted(self.rows + other.rows, self.cols, store)

    def stack_cols(self, other):
        """Block matrix [self | other]."""
        if self.rows != other.rows:
            raise ShapeMismatch("columns of %r stacked on %r" % (other, self))
        store = dict(self._store)
        store.update((j + self.cols, col) for j, col in other._store.items())
        return IntMatrix._trusted(self.rows, self.cols + other.cols, store)

    def __repr__(self):
        return "IntMatrix(%d, %d, nnz=%d)" % (self.rows, self.cols, len(self.data))


def _rows_of(store):
    """The row store {i: {j: value}} of a column store: the transpose."""
    rows = {}
    for j, col in store.items():
        for i, v in col.items():
            rows.setdefault(i, {})[j] = v
    return rows


class NotUnimodular(AssertionError):
    """A matrix taken to be unimodular is not.  Raised explicitly, so the
    check also runs under ``python -O``; an AssertionError, as the check
    used to be an assert."""


class Eliminator:
    """Exact sparse elimination of one matrix, over Z (prime 0) or Z/p,
    indexed by its row and column positions.

    Unit pivots (+-1 over Z, every nonzero entry over Z/p) come off a lazy
    heap ordered by fill, (row length - 1) * (column length - 1), then row
    i, then column j: its keys are the ints (fill * rows + i) * cols + j.
    Each is cancelled by one Schur update, an exact change of basis that
    isolates the pivot (Kaczynski-Mrozek-Slusarek 1998; Mischaikow-Nanda
    2013).  The heap is built when ``units`` first runs, so rows and
    columns dropped before that never enter it; entries that become units
    later are pushed as they appear, so none is found by rescanning.  Over
    Z the non-unit pivots left after that take the smallest magnitude (then
    least fill) and go through a gcd loop with a divisibility fold, so the
    invariant factors come out in order d_1 | d_2 | ....  Nothing is
    swapped: ``pivots`` records each pivot's (row, column) in elimination
    order and ``diag`` its factor.

    With ``track`` the row operations are kept in ``u`` (row-major) and the
    column operations in ``v`` (column-major), so that after ``run`` the
    matrix u * m * v has diag[s] at (pivots[s]) and zeros elsewhere.
    ``drop_row`` and ``drop_col`` delete a row or column of the work matrix
    outright; ``reduced_homology`` uses them to pass a cancellation on to
    the neighbouring differentials.
    """

    def __init__(self, m, prime=0, track=False):
        self.prime = prime
        # j -> {i: value}, copied: the work matrix is written in place
        self.c = _reduced(m._store, prime)
        self.r = _rows_of(self.c)   # i -> {j: value}
        self.size, self.width = m.rows * m.cols, m.cols
        self.heap = None
        self.pivots = []
        self.diag = []
        self.track = track
        if track:
            self.u = {i: {i: 1} for i in range(m.rows)}
            self.v = {j: {j: 1} for j in range(m.cols)}

    def drop_row(self, i):
        for j in self.r.pop(i, ()):
            del self.c[j][i]

    def drop_col(self, j):
        for i in self.c.pop(j, ()):
            del self.r[i][j]

    def _set(self, i, j, val):
        # only _reduce comes here, over Z: over Z/p every entry is a unit
        # and ``units`` has cancelled them all before
        row = self.r.setdefault(i, {})
        if val:
            col = self.c.setdefault(j, {})
            row[j] = col[i] = val
            if val in (1, -1):
                heapq.heappush(self.heap, ((len(row) - 1) * (len(col) - 1)
                                           * self.size + i * self.width + j))
        elif j in row:
            del row[j]
            del self.c[j][i]

    def _combine(self, ops, dst, src, k):
        # ops[dst] += k * ops[src] on a tracked transform
        p = self.prime
        out = ops[dst]
        for j, x in ops[src].items():
            val = out.get(j, 0) + k * x
            if p:
                val %= p
            if val:
                out[j] = val
            else:
                out.pop(j, None)

    def _scale(self, ops, i, k):
        p = self.prime
        ops[i] = {j: (k * x) % p if p else k * x for j, x in ops[i].items()}

    def units(self):
        """Cancel unit pivots, least fill first, yielding each (row, column)
        as it goes.  A heap entry whose fill grew since it was pushed goes
        back in while a cheaper one waits."""
        rows, cols, p = self.r, self.c, self.prime
        size, width = self.size, self.width
        if self.heap is None:
            self.heap = [(len(row) - 1) * (len(cols[j]) - 1) * size
                         + i * width + j
                         for i, row in rows.items() for j, v in row.items()
                         if p or v in (1, -1)]
            heapq.heapify(self.heap)
        heap, pop = self.heap, heapq.heappop
        while heap:
            key = pop(heap)
            ij = key % size
            i, j = divmod(ij, width)
            row = rows.get(i)
            v = row.get(j) if row else None
            if v is None or not (p or v in (1, -1)):
                continue
            # cur > key exactly when the fill grew, as 0 <= ij < size
            cur = (len(row) - 1) * (len(cols[j]) - 1) * size
            if cur > key and heap and heap[0] < cur:
                heapq.heappush(heap, cur + ij)
                continue
            self._cancel(i, j, v)
            yield i, j

    def _cancel(self, i, j, e):
        p, rows, cols = self.prime, self.r, self.c
        inv = pow(e, -1, p) if p else e     # e itself for e = +-1 over Z
        row, col = rows.pop(i), cols.pop(j)
        for z in row:
            if z != j:
                del cols[z][i]
        for w in col:
            if w != i:
                del rows[w][j]
        del row[j]
        del col[i]
        # B[w, z] -= B[w, j] * inv * B[i, z]
        heap, push = self.heap, heapq.heappush
        size, width = self.size, self.width
        for z, a in row.items():
            coeff = a * inv
            cz = cols[z]
            for w, b in col.items():
                rw = rows[w]
                cur = rw.get(z, 0) - coeff * b
                if p:
                    cur %= p
                if cur:
                    rw[z] = cz[w] = cur
                    if p or cur in (1, -1):
                        push(heap, (len(rw) - 1) * (len(cz) - 1) * size
                             + w * width + z)
                elif z in rw:
                    del rw[z]
                    del cz[w]
        if self.track:
            for w, b in col.items():
                self._combine(self.u, w, i, -b * inv)
            for z, a in row.items():
                self._combine(self.v, z, j, -a * inv)
            if inv != 1:
                self._scale(self.u, i, inv)
        self.pivots.append((i, j))
        self.diag.append(1)

    def _add_row(self, dst, src, k):
        # row[dst] += k * row[src]
        dst_row = self.r[dst]
        for j, x in list(self.r[src].items()):
            self._set(dst, j, dst_row.get(j, 0) + k * x)
        if self.track:
            self._combine(self.u, dst, src, k)

    def _add_col(self, dst, src, k):
        # col[dst] += k * col[src]
        dst_col = self.c[dst]
        for i, x in list(self.c[src].items()):
            self._set(i, dst, dst_col.get(i, 0) + k * x)
        if self.track:
            self._combine(self.v, dst, src, k)

    def _smallest(self):
        best = None
        for i, row in self.r.items():
            for j, x in row.items():
                key = (abs(x), len(row) + len(self.c[j]))
                if best is None or key < best[0]:
                    best = (key, i, j)
        return None if best is None else best[1:]

    def _reduce(self, i, j):
        """Over Z: move the pivot at (i, j) by gcd steps until it is alone in
        its row and column and divides every entry left, then isolate it."""
        rows, cols = self.r, self.c
        while True:
            a = rows[i][j]
            for w in [w for w in cols[j] if w != i]:
                self._add_row(w, i, -(cols[j][w] // a))
                if j in rows[w]:        # a remainder smaller than a
                    i = w
                    break
            else:
                for z in [z for z in rows[i] if z != j]:
                    self._add_col(z, j, -(rows[i][z] // a))
                    if i in cols[z]:
                        j = z
                        break
                else:
                    if a < 0:
                        rows[i][j] = cols[j][i] = a = -a
                        if self.track:
                            self._scale(self.u, i, -1)
                    bad = next((w for w, row in rows.items() if w != i
                                for x in row.values() if x % a),
                               None) if a > 1 else None
                    if bad is None:
                        break
                    self._add_row(i, bad, 1)
        del rows[i]
        del cols[j]
        self.pivots.append((i, j))
        self.diag.append(a)

    def run(self):
        """Eliminate every entry; returns ``diag``."""
        while True:
            for _ in self.units():
                pass
            piv = self._smallest()
            if piv is None:
                return self.diag
            self._reduce(*piv)


def smith_normal_form(m, prime=0):
    """Return (diag, u, v) with u*m*v diagonal, d_1 | d_2 | ..., d_i > 0,
    and u, v unimodular.  Over Z/prime every d_i is 1 and u, v are
    invertible mod prime, with entries in 0..prime-1.  The empty matrix
    gives an empty diagonal.  The pivots' order, taken once as a
    permutation of u's rows and v's columns, puts them on the diagonal."""
    e = Eliminator(m, prime, track=True)
    diag = e.run()
    done_rows = [i for i, _ in e.pivots]
    done_cols = [j for _, j in e.pivots]
    row_order = done_rows + sorted(set(range(m.rows)).difference(done_rows))
    col_order = done_cols + sorted(set(range(m.cols)).difference(done_cols))
    u = IntMatrix._trusted(m.rows, m.rows, _rows_of(
        {s: e.u[i] for s, i in enumerate(row_order)}))
    v = IntMatrix._trusted(m.cols, m.cols,
                           {s: e.v[j] for s, j in enumerate(col_order)})
    return diag, u, v


def snf_diagonal(m, prime=0):
    """Invariant factors only (no transform tracking; faster)."""
    return Eliminator(m, prime).run()


def rank(m, prime=0):
    return len(snf_diagonal(m, prime))


def kernel_basis(m, prime=0):
    """Basis of the kernel of m over Z (or Z/prime), as an IntMatrix whose
    columns span ker(m).  Over Z the basis is saturated (the kernel is a
    direct summand)."""
    diag, _u, v = smith_normal_form(m, prime)
    return v.submatrix(range(m.cols), range(len(diag), m.cols))


def solve(m, b, prime=0):
    """One solution x of m x = b, where the columns of the IntMatrix b are
    the right-hand sides, over Z (or Z/prime), factoring m once.  None if
    some column has no solution."""
    if b.rows != m.rows:
        raise ShapeMismatch("solving %r against %r" % (m, b))
    diag, u, v = smith_normal_form(m, prime)
    y = _reduced((u * b)._store, prime)
    if any(i >= len(diag) or x % diag[i]
           for col in y.values() for i, x in col.items()):
        return None
    x = v * IntMatrix._trusted(m.cols, b.cols, {
        l: {i: x // diag[i] for i, x in col.items()} for l, col in y.items()})
    if prime:
        x = IntMatrix._trusted(x.rows, x.cols, _reduced(x._store, prime))
        if _reduced((m * x - b)._store, prime):
            return None
    return x


def inverse_unimodular(m):
    """Exact inverse of a unimodular square matrix; raises NotUnimodular
    for any other matrix."""
    if m.rows != m.cols:
        raise NotUnimodular("matrix is not square")
    diag, u, v = smith_normal_form(m)
    if len(diag) != m.rows or any(d != 1 for d in diag):
        raise NotUnimodular("matrix is not unimodular")
    # u m v = I  =>  m^{-1} = v u
    return v * u
