"""Sparse integer matrices with exact arithmetic and the one elimination
engine: Smith normal form over Z or Z/p, with ranks, kernels and solvers
on top of it.

All entries are Python ints (arbitrary precision).  Matrices are immutable
after construction; every operation returns a fresh matrix.
"""


class ShapeMismatch(AssertionError):
    """Matrix shapes or indices that do not fit together.  Raised
    explicitly, so the checks also run under ``python -O``; an
    AssertionError, as the checks used to be asserts."""


class IntMatrix:
    """A rows x cols integer matrix stored as {(i, j): value} with no zeros."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, rows, cols, data=None):
        if rows < 0 or cols < 0:
            raise ShapeMismatch("negative size: %d x %d" % (rows, cols))
        self.rows = rows
        self.cols = cols
        d = {}
        if data:
            for (i, j), v in data.items():
                if not (0 <= i < rows and 0 <= j < cols):
                    raise ShapeMismatch("entry %r outside %d x %d"
                                        % ((i, j), rows, cols))
                if v:
                    d[(i, j)] = int(v)
        self.data = d

    @classmethod
    def zeros(cls, rows, cols):
        return cls(rows, cols)

    @classmethod
    def identity(cls, n):
        return cls(n, n, {(i, i): 1 for i in range(n)})

    @classmethod
    def from_images(cls, sources, targets, image):
        """Matrix of the map sending the j-th source label to image(label),
        an iterable of (target label, coefficient) pairs.  Repeated targets
        add up; a target outside ``targets`` raises KeyError."""
        index = {t: i for i, t in enumerate(targets)}
        data = {}
        for j, s in enumerate(sources):
            for t, c in image(s):
                key = (index[t], j)
                data[key] = data.get(key, 0) + c
        return cls(len(targets), len(sources), data)

    def columns(self):
        """Column view {j: [(i, value), ...]} of the nonzero entries."""
        out = {}
        for (i, j), v in self.data.items():
            out.setdefault(j, []).append((i, v))
        return out

    @classmethod
    def from_rows(cls, rows_list):
        rows = len(rows_list)
        cols = len(rows_list[0]) if rows else 0
        data = {}
        for i, row in enumerate(rows_list):
            if len(row) != cols:
                raise ShapeMismatch("rows have varying lengths")
            for j, v in enumerate(row):
                if v:
                    data[(i, j)] = int(v)
        return cls(rows, cols, data)

    @classmethod
    def from_columns(cls, cols_list, rows=None):
        cols = len(cols_list)
        if rows is None:
            rows = len(cols_list[0]) if cols else 0
        data = {}
        for j, col in enumerate(cols_list):
            if len(col) != rows:
                raise ShapeMismatch("columns have varying lengths")
            for i, v in enumerate(col):
                if v:
                    data[(i, j)] = int(v)
        return cls(rows, cols, data)

    def to_rows(self):
        out = [[0] * self.cols for _ in range(self.rows)]
        for (i, j), v in self.data.items():
            out[i][j] = v
        return out

    def entry(self, i, j):
        return self.data.get((i, j), 0)

    def column(self, j):
        return [self.data.get((i, j), 0) for i in range(self.rows)]

    def is_zero(self):
        return not self.data

    def transpose(self):
        return IntMatrix(self.cols, self.rows,
                         {(j, i): v for (i, j), v in self.data.items()})

    def __eq__(self, other):
        return (isinstance(other, IntMatrix) and self.rows == other.rows
                and self.cols == other.cols and self.data == other.data)

    def __add__(self, other):
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ShapeMismatch("sum of %r and %r" % (self, other))
        data = dict(self.data)
        for k, v in other.data.items():
            data[k] = data.get(k, 0) + v
        return IntMatrix(self.rows, self.cols, data)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return IntMatrix(self.rows, self.cols,
                         {k: -v for k, v in self.data.items()})

    def __rmul__(self, c):
        c = int(c)
        return IntMatrix(self.rows, self.cols,
                         {k: c * v for k, v in self.data.items()})

    def __mul__(self, other):
        """Matrix product self @ other (sparse column-wise)."""
        if self.cols != other.rows:
            raise ShapeMismatch("product of %r and %r" % (self, other))
        rows_of = self.columns()
        data = {}
        for (j, l), w in other.data.items():
            for i, v in rows_of.get(j, ()):
                key = (i, l)
                data[key] = data.get(key, 0) + v * w
        return IntMatrix(self.rows, other.cols, data)

    def apply(self, vec):
        """Apply to a dense column vector (list of ints)."""
        if len(vec) != self.cols:
            raise ShapeMismatch("%r applied to a vector of length %d"
                                % (self, len(vec)))
        out = [0] * self.rows
        for (i, j), v in self.data.items():
            if vec[j]:
                out[i] += v * vec[j]
        return out

    def stack_rows(self, other):
        """Block matrix [self; other]."""
        if self.cols != other.cols:
            raise ShapeMismatch("rows of %r stacked on %r" % (other, self))
        data = dict(self.data)
        for (i, j), v in other.data.items():
            data[(i + self.rows, j)] = v
        return IntMatrix(self.rows + other.rows, self.cols, data)

    def stack_cols(self, other):
        """Block matrix [self | other]."""
        if self.rows != other.rows:
            raise ShapeMismatch("columns of %r stacked on %r" % (other, self))
        data = dict(self.data)
        for (i, j), v in other.data.items():
            data[(i, j + self.cols)] = v
        return IntMatrix(self.rows, self.cols + other.cols, data)

    def submatrix_cols(self, col_indices):
        pos = {j: l for l, j in enumerate(col_indices)}
        data = {}
        for (i, j), v in self.data.items():
            if j in pos:
                data[(i, pos[j])] = v
        return IntMatrix(self.rows, len(col_indices), data)

    def __repr__(self):
        return "IntMatrix(%d, %d, nnz=%d)" % (self.rows, self.cols, len(self.data))


class NotUnimodular(AssertionError):
    """A matrix taken to be unimodular is not.  Raised explicitly, so the
    check also runs under ``python -O``; an AssertionError, as the check
    used to be an assert."""


class _SNFWorker:
    """Row/column reduction to Smith normal form, over Z (prime 0) or Z/p.

    Pivots are chosen with smallest magnitude (and then least fill) to keep
    coefficient growth under control.  Over Z/p every entry is kept reduced
    mod p, each pivot is scaled to 1 and there is no divisibility pass.
    Optionally tracks the transforms u, v with u*m*v diagonal (unimodular
    over Z, invertible over Z/p).
    """

    def __init__(self, m, track=True, prime=0):
        self.rows = m.rows
        self.cols = m.cols
        self.prime = prime
        # row-major and column-major views of the work matrix
        self.r = {}   # i -> {j: v}
        self.c = {}   # j -> {i: v}
        for (i, j), v in m.data.items():
            if prime:
                v %= prime
                if not v:
                    continue
            self.r.setdefault(i, {})[j] = v
            self.c.setdefault(j, {})[i] = v
        self.track = track
        if track:
            self.u = {i: {i: 1} for i in range(self.rows)}   # row ops
            self.v = {j: {j: 1} for j in range(self.cols)}   # col ops, col-major

    def _set(self, i, j, val):
        if self.prime:
            val %= self.prime
        if val:
            self.r.setdefault(i, {})[j] = val
            self.c.setdefault(j, {})[i] = val
        else:
            if i in self.r and j in self.r[i]:
                del self.r[i][j]
                del self.c[j][i]

    def _combine(self, ops, dst, src, k):
        # ops[dst] += k*ops[src] on a tracked transform
        p = self.prime
        out = ops.setdefault(dst, {})
        for j, v in ops.get(src, {}).items():
            val = out.get(j, 0) + k * v
            if p:
                val %= p
            if val:
                out[j] = val
            else:
                out.pop(j, None)

    def _add_row(self, dst, src, k):
        # row[dst] += k*row[src]
        if not k:
            return
        for j, v in list(self.r.get(src, {}).items()):
            self._set(dst, j, self.r.get(dst, {}).get(j, 0) + k * v)
        if self.track:
            self._combine(self.u, dst, src, k)

    def _add_col(self, dst, src, k):
        # col[dst] += k*col[src]
        if not k:
            return
        for i, v in list(self.c.get(src, {}).items()):
            self._set(i, dst, self.r.get(i, {}).get(dst, 0) + k * v)
        if self.track:
            self._combine(self.v, dst, src, k)

    def _swap_rows(self, a, b):
        if a == b:
            return
        ra, rb = dict(self.r.get(a, {})), dict(self.r.get(b, {}))
        for j in set(ra) | set(rb):
            self._set(a, j, rb.get(j, 0))
            self._set(b, j, ra.get(j, 0))
        if self.track:
            self.u[a], self.u[b] = self.u.get(b, {}), self.u.get(a, {})

    def _swap_cols(self, a, b):
        if a == b:
            return
        ca, cb = dict(self.c.get(a, {})), dict(self.c.get(b, {}))
        for i in set(ca) | set(cb):
            va, vb = ca.get(i, 0), cb.get(i, 0)
            self._set(i, a, vb)
            self._set(i, b, va)
        if self.track:
            self.v[a], self.v[b] = self.v.get(b, {}), self.v.get(a, {})

    def _scale_row(self, i, k):
        # row[i] *= k, a unit: -1 over Z, a pivot's inverse over Z/p
        for j, v in list(self.r.get(i, {}).items()):
            self._set(i, j, k * v)
        if self.track:
            p = self.prime
            self.u[i] = {j: (k * v) % p if p else k * v
                         for j, v in self.u.get(i, {}).items()}

    def _find_pivot(self, s):
        best = None
        for i, row in self.r.items():
            if i < s:
                continue
            for j, v in row.items():
                if j < s:
                    continue
                key = (abs(v), len(row) + len(self.c[j]))
                if best is None or key < best[0]:
                    best = (key, i, j)
                    if key[0] == 1 and key[1] <= 2:
                        return i, j
        if best is None:
            return None
        return best[1], best[2]

    def run(self):
        s = 0
        n = min(self.rows, self.cols)
        p = self.prime
        diag = []
        while s < n:
            piv = self._find_pivot(s)
            if piv is None:
                break
            self._swap_rows(s, piv[0])
            self._swap_cols(s, piv[1])
            if p and self.r[s][s] != 1:
                self._scale_row(s, pow(self.r[s][s], -1, p))
            while True:
                a = self.r[s][s]
                # clear column s
                again = False
                for i in [i for i in list(self.c.get(s, {})) if i > s]:
                    v = self.r.get(i, {}).get(s, 0)
                    if v:
                        q = v // a
                        self._add_row(i, s, -q)
                        if self.r.get(i, {}).get(s, 0):
                            # remainder smaller than pivot: swap it up
                            self._swap_rows(s, i)
                            again = True
                            break
                if again:
                    continue
                for j in [j for j in list(self.r.get(s, {})) if j > s]:
                    v = self.r.get(s, {}).get(j, 0)
                    if v:
                        q = v // a
                        self._add_col(j, s, -q)
                        if self.r.get(s, {}).get(j, 0):
                            self._swap_cols(s, j)
                            again = True
                            break
                if again:
                    continue
                break
            # pivot now alone in its row and column
            a = self.r[s][s]
            if a < 0:
                self._scale_row(s, -1)
                a = -a
            if not p:
                # enforce divisibility: fold in any entry a does not divide
                bad = None
                for i, row in self.r.items():
                    if i <= s:
                        continue
                    for j, v in row.items():
                        if j > s and v % a:
                            bad = (i, j)
                            break
                    if bad:
                        break
                if bad:
                    self._add_row(s, bad[0], 1)
                    continue
            diag.append(a)
            s += 1
        return diag


def smith_normal_form(m, prime=0):
    """Return (diag, u, v) with u*m*v diagonal, d_1 | d_2 | ..., d_i > 0,
    and u, v unimodular.  Over Z/prime every d_i is 1 and u, v are
    invertible mod prime, with entries in 0..prime-1.  The empty matrix
    gives an empty diagonal."""
    worker = _SNFWorker(m, track=True, prime=prime)
    diag = worker.run()
    u = IntMatrix(m.rows, m.rows,
                  {(i, j): v for i, row in worker.u.items() for j, v in row.items()})
    v = IntMatrix(m.cols, m.cols,
                  {(i, j): v for j, col in worker.v.items() for i, v in col.items()})
    return diag, u, v


def snf_diagonal(m, prime=0):
    """Invariant factors only (no transform tracking; faster)."""
    return _SNFWorker(m, track=False, prime=prime).run()


def rank(m, prime=0):
    return len(snf_diagonal(m, prime))


def kernel_basis(m, prime=0):
    """Basis of the kernel of m over Z (or Z/prime), as an IntMatrix whose
    columns span ker(m).  Over Z the basis is saturated (the kernel is a
    direct summand)."""
    diag, _u, v = smith_normal_form(m, prime)
    r = len(diag)
    return IntMatrix(m.cols, m.cols - r,
                     {(i, j - r): x for (i, j), x in v.data.items() if j >= r})


def solve(m, b, prime=0):
    """One solution x of m x = b, where the columns of the IntMatrix b are
    the right-hand sides, over Z (or Z/prime), factoring m once.  None if
    some column has no solution."""
    if b.rows != m.rows:
        raise ShapeMismatch("solving %r against %r" % (m, b))
    diag, u, v = smith_normal_form(m, prime)
    y = {}
    for (i, l), x in (u * b).data.items():
        if prime:
            x %= prime
            if not x:
                continue
        if i >= len(diag) or x % diag[i]:
            return None
        y[(i, l)] = x // diag[i]
    x = v * IntMatrix(m.cols, b.cols, y)
    if prime:
        x = IntMatrix(x.rows, x.cols, {k: c % prime for k, c in x.data.items()})
        if any(c % prime for c in (m * x - b).data.values()):
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
