"""Finite simplicial sets in Eilenberg-Zilber normal form.

Every simplex is stored as a degeneracy word applied to a nondegenerate
simplex: ``Cell(word, base)`` with ``word`` a strictly decreasing tuple of
degeneracy indices (outermost first).  Faces of nondegenerate simplices are
given at construction; the face and degeneracy of an arbitrary cell are
computed by pushing operators through the word with the simplicial
identities, which are verified on all generators when the set is built.
"""

import json
from collections import namedtuple
from itertools import combinations, product

from . import delta
from .delta import FinOrd, OrderedMap
from .intmat import IntMatrix
from .complexes import GradedIntComplex


class Cell(namedtuple("Cell", "word base")):
    """A degeneracy word (strictly decreasing degeneracy indices, outermost
    first) applied to the nondegenerate simplex named base.  A plain tuple,
    so hashing, equality and order run in C: the pullback tables and the
    cochains are keyed by cells."""
    __slots__ = ()

    @property
    def is_degenerate(self):
        return bool(self.word)


def _push(word, i):
    """The word of s_i applied to a cell with this word, by
    s_i s_j = s_(j+1) s_i for i <= j; i is not checked."""
    if not word or i > word[0]:
        return (i,) + word
    return (word[0] + 1,) + _push(word[1:], i)


class InvalidSimplicialSet(AssertionError):
    """Simplices and faces that do not form a simplicial set, or a face,
    degeneracy, action or restriction that a cell does not have.  Raised
    explicitly, so the checks also run under ``python -O``; an
    AssertionError, as the checks used to be asserts."""


class FiniteSimplicialSet:
    """Nondegenerate simplices per dimension plus their faces."""

    def __init__(self, simplices, faces):
        self._cells = {}        # m -> cells(m); the set does not change
        self._face_table = {}   # (cell, i) -> d_i cell
        self.simplices = {d: tuple(names) for d, names in sorted(simplices.items())}
        self.dim_of = {}
        for d, names in self.simplices.items():
            if d < 0:
                raise InvalidSimplicialSet("negative dimension %r" % (d,))
            for name in names:
                if not isinstance(name, str):
                    raise InvalidSimplicialSet("simplex name %r is not a "
                                               "string" % (name,))
                if name in self.dim_of:
                    raise InvalidSimplicialSet("duplicate simplex name %r" % name)
                self.dim_of[name] = d
        self.faces = {}
        for name, fs in faces.items():
            d = self.dim_of.get(name)
            if d is None or d < 1:
                raise InvalidSimplicialSet("faces given for %r, which is not "
                                           "a simplex of dimension >= 1" % (name,))
            if len(fs) != d + 1:
                raise InvalidSimplicialSet("%r has dimension %d, so it needs "
                                           "%d faces, got %d" %
                                           (name, d, d + 1, len(fs)))
            self.faces[name] = tuple(fs)
            for c in fs:
                if not (isinstance(c, Cell) and c.base in self.dim_of
                        and self.cell_dim(c) == d - 1):
                    raise InvalidSimplicialSet(
                        "face %r of %r is not a cell of dimension %d" %
                        (c, name, d - 1))
                w = c.word      # normal: strictly decreasing in 0..d-2
                if not (all(type(a) is int and 0 <= a < d - 1 for a in w)
                        and all(a > b for a, b in zip(w, w[1:]))):
                    raise InvalidSimplicialSet("face %r of %r is not in normal "
                                               "form" % (c, name))
        for d, names in self.simplices.items():
            if d >= 1:
                for name in names:
                    if name not in self.faces:
                        raise InvalidSimplicialSet("missing faces for %r" % name)
        self._check_identities()

    # -- basic structure ---------------------------------------------------

    def max_dim(self):
        return max(self.simplices) if self.simplices else -1

    def nondegenerate(self, d):
        return self.simplices.get(d, ())

    def n_nondegenerate(self):
        return sum(len(v) for v in self.simplices.values())

    def cell(self, name):
        return Cell((), name)

    def cell_dim(self, c):
        return self.dim_of[c.base] + len(c.word)

    def face(self, c, i):
        """d_i of a cell, in normal form."""
        n = self.cell_dim(c)
        if not (0 <= i <= n and n >= 1):
            raise InvalidSimplicialSet("no face d_%d of the %d-cell %r" %
                                       (i, n, c))
        return self._face(c, i)

    def _face(self, c, i):
        """d_i c for i in range; memoized per (c, i), tails included."""
        out = self._face_table.get((c, i))
        if out is None:
            word, base = c
            if not word:
                out = self.faces[base][i]
            elif i - word[0] in (0, 1):
                out = Cell(word[1:], base)
            else:   # d_i s_j = s_(j-1) d_i for i < j, s_j d_(i-1) for i > j+1
                j = word[0]
                f = self._face(Cell(word[1:], base), i if i < j else i - 1)
                out = Cell(_push(f.word, j - 1 if i < j else j), f.base)
            self._face_table[c, i] = out
        return out

    def degeneracy(self, c, i):
        """s_i of a cell, in normal form."""
        n = self.cell_dim(c)
        if not 0 <= i <= n:
            raise InvalidSimplicialSet("no degeneracy s_%d of the %d-cell %r"
                                       % (i, n, c))
        return Cell(_push(c.word, i), c.base)

    def act(self, c, alpha):
        """Contravariant action: the cell c o alpha for alpha : [m] -> [m']
        with m' the dimension of c."""
        if alpha.target.level != self.cell_dim(c):
            raise InvalidSimplicialSet("a map into [%d] acting on the %d-cell "
                                       "%r" % (alpha.target.level,
                                               self.cell_dim(c), c))
        return self._apply(c, delta.decompose(alpha))

    def _apply(self, c, gens):
        """c o alpha for alpha given by ``delta.decompose(alpha)``, its
        dimension already checked (callers decompose alpha once for many
        cells)."""
        out = c
        for kind, _m, i in reversed(gens):
            out = (self._face(out, i) if kind == "d"
                   else Cell(_push(out.word, i), out.base))
        return out

    def restrict(self, c, subset):
        """The face of c spanned by a nonempty sorted subset of its vertex
        positions."""
        m = self.cell_dim(c)
        if not subset:
            raise InvalidSimplicialSet("empty restriction is the "
                                       "augmentation point")
        if not all(0 <= u <= m for u in subset):
            raise InvalidSimplicialSet("vertex positions %r outside the "
                                       "%d-cell %r" % (tuple(subset), m, c))
        inj = OrderedMap(FinOrd(len(subset)), FinOrd.bracket(m), tuple(subset))
        return self.act(c, inj)

    def pullback(self, alpha):
        """The table {c: c o alpha} over the cells of alpha's target
        dimension, alpha decomposed once."""
        if not alpha.source.size:
            raise InvalidSimplicialSet("a map out of [-1] pulls back to the "
                                       "augmentation point")
        gens = delta.decompose(alpha)
        return {c: self._apply(c, gens)
                for c in self.cells(alpha.target.level)}

    def cells(self, m):
        """All m-cells (degenerate included), deterministically ordered;
        memoized."""
        found = self._cells.get(m)
        if found is not None:
            return found
        # the words of the surjections [m] -> [j]: the (m - j)-subsets of
        # range(m), read in decreasing order
        out = [Cell(sub[::-1], name) for j, names in self.simplices.items()
               if j <= m for sub in combinations(range(m), m - j)
               for name in names]
        if len(set(out)) != len(out):
            raise InvalidSimplicialSet("two normal forms of one %d-cell" % m)
        found = self._cells[m] = tuple(sorted(out))
        return found

    def _check_identities(self):
        # d_i d_j c depends only on the composite [d-2] -> [d] of the cofaces
        for d, names in self.simplices.items():
            groups = [words for alpha, words in delta.two_letter_words(d).items()
                      if alpha.target.level == d == alpha.source.level + 2]
            for name, words in product(names, groups):
                if len({self._apply(self.cell(name), w) for w in words}) > 1:
                    raise InvalidSimplicialSet("simplicial identity fails on "
                                               "%r: %r" % (name, words))

    # -- derived algebra ---------------------------------------------------

    def cochain_complex(self):
        """Normalized cochain complex, stored homologically: chain degree -m
        holds the duals of the nondegenerate m-simplices."""
        top = self.max_dim()
        basis = {-m: tuple(self.nondegenerate(m)) for m in range(top + 1)}

        def faces(name):
            return ((f.base, (-1) ** i) for i, f in enumerate(self.faces[name])
                    if not f.is_degenerate)
        # the chain map -m -> -m-1 is the cochain differential C^m -> C^{m+1},
        # the transpose of the normalized boundary C_{m+1} -> C_m
        diff = {-m: IntMatrix.from_images(self.nondegenerate(m + 1),
                                          self.nondegenerate(m), faces).transpose()
                for m in range(top)}
        return GradedIntComplex((-top - 1, 1), basis, diff,
                                regrade="cochain (chain degree -m holds C^m)")

    def dual_cosimplicial(self, level_cap):
        """The cosimplicial abelian group of integer-valued functions on all
        simplices (degenerate included), levels 0..level_cap."""
        from .cosimplicial import CosimplicialAbGroup, operator_tables
        levels = {m: self.cells(m) for m in range(level_cap + 1)}

        def op_matrix(_gen, alpha):
            # transpose of the pullback c -> c o alpha of simplices; the
            # table lists the cells c in the order of their level
            return IntMatrix.from_images(
                self.pullback(alpha).values(), levels[alpha.source.level],
                lambda face: ((face, 1),)).transpose()

        return CosimplicialAbGroup(levels,
                                   *operator_tables(level_cap, op_matrix))

    # -- serialization -----------------------------------------------------

    def to_json(self):
        obj = {
            "simplices": {str(d): list(names) for d, names in self.simplices.items()},
            "faces": {name: [[list(c.word), c.base] for c in fs]
                      for name, fs in sorted(self.faces.items())},
        }
        return json.dumps(obj, sort_keys=True)

    @classmethod
    def from_json(cls, text):
        obj = json.loads(text)
        simplices = {int(d): names for d, names in obj["simplices"].items()}
        if not all(isinstance(names, list) for names in simplices.values()):
            raise InvalidSimplicialSet("simplex names must be a JSON list")
        faces = {name: tuple(Cell(tuple(w), b) for w, b in fs)
                 for name, fs in obj.get("faces", {}).items()}
        return cls(simplices, faces)


# -- standard models -------------------------------------------------------

def vertex_name(vertices):
    return ".".join(str(v) for v in vertices)


def standard_simplex_sset(n):
    """Delta^n as a simplicial set: nondegenerate j-simplices are the
    (j+1)-subsets of {0..n}."""
    return from_simplicial_complex(range(n + 1), [tuple(range(n + 1))])


def simplicial_circle():
    """Delta^1 with both endpoints identified: one vertex, one edge."""
    return FiniteSimplicialSet(
        {0: ("v",), 1: ("e",)},
        {"e": (Cell((), "v"), Cell((), "v"))})


def from_simplicial_complex(vertices, facets):
    """Simplicial set of an abstract simplicial complex (given by maximal
    faces); vertices are sorted to fix the ordering."""
    verts = sorted(vertices)
    pos = {v: i for i, v in enumerate(verts)}
    all_faces = set()
    for f in facets:
        f = tuple(sorted(f, key=lambda v: pos[v]))
        for k in range(1, len(f) + 1):
            for sub in combinations(f, k):
                all_faces.add(sub)
    simplices = {}
    faces = {}
    for f in sorted(all_faces, key=lambda f: (len(f), f)):
        d = len(f) - 1
        name = vertex_name(f)
        simplices.setdefault(d, []).append(name)
        if d >= 1:
            faces[name] = tuple(Cell((), vertex_name(f[:i] + f[i + 1:]))
                                for i in range(d + 1))
    return FiniteSimplicialSet({d: tuple(v) for d, v in simplices.items()}, faces)


def standard_simplex_chains(m):
    """Normalized chains of Delta^m: degree-j basis is the injective ordered
    maps [j] -> [m], the differential the alternating sum of vertex
    deletions."""
    basis = {j: tuple(f.values for f in delta.all_injections(
                 FinOrd.bracket(j), FinOrd.bracket(m)))
             for j in range(m + 1)}
    return GradedIntComplex.from_boundary(
        (-1, m + 1), basis,
        lambda j, vals: ((vals[:t] + vals[t + 1:], (-1) ** t) for t in range(j + 1)))
