"""Canonical subspaces of GF(q)^n and their lattice arithmetic.

A Subspace is identified with the unique RREF basis of its row space,
so equality, hashing, and sorting are plain data comparisons.  The
module also enumerates all k-dimensional subspaces of an ambient space
in a fixed order (echelon pivot pattern, then free entries), counts
them with Gaussian binomials, and lists projective points.  Each pivot
pattern is enumerated as arrays: a slab of coefficient matrices, the c-th
holding the base-q digits of c in its free entries, times the ambient
RREF basis through the field's add and mul tables.  That array core,
`_rref_slabs`, yields each slab of RREF bases as a (count, k, n) uint8
array; `enumerate_k_subspaces` makes a Subspace of each row as it is
reached, and `geometry` reads the bases themselves.

Vectors are tuples of field-element encodings; a projective point is
represented by the unique spanning vector whose leading nonzero
coordinate is 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from dataclasses import field as dataclass_field
from functools import lru_cache
from itertools import combinations, product

import numpy as np

from .gf import Field, _prime_power
from .linalg import Matrix, _dot

_SLAB = 1 << 16  # subspaces per slab of _rref_slabs


@dataclass(frozen=True)
class ProjectivePoint:
    """A 1-dimensional subspace, named by its monic representative vector."""

    rep: tuple

    def __post_init__(self):
        lead = next((x for x in self.rep if x), None)
        if lead != 1:
            raise ValueError(f"{self.rep} is not a canonical point representative")

    @classmethod
    def _monic(cls, rep: tuple) -> "ProjectivePoint":
        """A point from a representative that leads with 1 by construction,
        without the scan that checks it."""
        point = object.__new__(cls)
        object.__setattr__(point, "rep", rep)
        return point


def normalize_point(field: Field, vector) -> ProjectivePoint:
    """The canonical representative of the line through a nonzero vector."""
    vector = field._check_vector(vector)
    lead = next((x for x in vector if x), None)
    if lead is None:
        raise ValueError("the zero vector spans no projective point")
    if lead != 1:
        vector = field._lincomb((0,) * len(vector), (field.inv(lead),), (vector,))
    return ProjectivePoint(vector)


@dataclass(frozen=True)
class Subspace:
    """A subspace of GF(q)^n held as its RREF basis (no zero rows)."""

    field: Field
    ambient_dim: int
    basis_rows: tuple
    # the pivot column of each basis row, fixed by the basis; equality and
    # hashing read the basis alone
    pivots: tuple = dataclass_field(init=False, repr=False, compare=False)

    def __post_init__(self):
        """ValueError, naming the row, unless basis_rows is an RREF basis
        of ambient_dim entries a row."""
        rows = tuple(map(self.field._check_vector, self.basis_rows))
        pivots = []
        for i, row in enumerate(rows):
            if len(row) != self.ambient_dim:
                raise ValueError(f"basis row {i} has {len(row)} entries, not {self.ambient_dim}")
            if (p := next((j for j, x in enumerate(row) if x), None)) is None:
                raise ValueError(f"basis row {i} is zero")
            if pivots and p <= pivots[-1]:
                raise ValueError(f"basis row {i} has its pivot in column {p}, not right of row {i - 1}'s in column {pivots[-1]}")
            if row[p] != 1:
                raise ValueError(f"basis row {i} leads with {row[p]}, not 1")
            # rows below i are zero in column p, left of their own pivots
            if (k := next((k for k in range(i) if rows[k][p]), None)) is not None:
                raise ValueError(f"pivot column {p} of basis row {i} is not clear in row {k}")
            pivots.append(p)
        object.__setattr__(self, "basis_rows", rows)
        object.__setattr__(self, "pivots", tuple(pivots))

    @property
    def dim(self) -> int:
        return len(self.basis_rows)

    def basis_matrix(self) -> Matrix:
        return Matrix(self.field, self.basis_rows)

    def reduce_vector(self, vector):
        """Subtract the basis component of each pivot coordinate, all at
        once: in an RREF basis no row touches another row's pivot."""
        F = self.field
        vector = F._check_vector(vector)
        return F._lincomb(vector, [F._neg[vector[p]] for p in self.pivots], self.basis_rows)

    def contains_vector(self, vector) -> bool:
        if len(vector) != self.ambient_dim:
            raise ValueError("vector lives in a different ambient space")
        return not any(self.reduce_vector(vector))

    def contains(self, other) -> bool:
        if isinstance(other, ProjectivePoint):
            return self.contains_vector(other.rep)
        if isinstance(other, Subspace):
            self._check_ambient(other)
            return all(self.contains_vector(r) for r in other.basis_rows)
        return self.contains_vector(tuple(other))

    def sum(self, other: "Subspace") -> "Subspace":
        self._check_ambient(other)
        return span(self.field, self.ambient_dim, self.basis_rows + other.basis_rows)

    def intersect(self, other: "Subspace") -> "Subspace":
        """Computed as the kernel of the stacked dual bases."""
        self._check_ambient(other)
        n = self.ambient_dim
        if self.dim == 0 or other.dim == n:
            return self
        if other.dim == 0 or self.dim == n:
            return other
        duals = _dual_rows(self) + _dual_rows(other)
        rows = Matrix(self.field, duals).kernel_basis().nonzero_rows()
        return Subspace(self.field, n, tuple(rows))

    def dim_sum(self, other: "Subspace") -> int:
        self._check_ambient(other)
        return Matrix(self.field, self.basis_rows + other.basis_rows).rank()

    def dim_intersect(self, other: "Subspace") -> int:
        return self.dim + other.dim - self.dim_sum(other)

    def vectors(self):
        """All q^dim vectors, as tuples."""
        F = self.field
        zero = (0,) * self.ambient_dim
        return [
            F._lincomb(zero, coeffs, self.basis_rows)
            for coeffs in product(F.elements(), repeat=self.dim)
        ]

    def coefficients_of(self, vectors) -> Matrix:
        """Express vectors of this subspace in its basis coordinates.

        Because the basis is RREF, the coefficient of basis row j is
        just the vector's entry at that row's pivot column.
        """
        piv = self.pivots
        rows = []
        for v in vectors:
            if not self.contains_vector(v):
                raise ValueError("vector is not in the subspace")
            rows.append([v[p] for p in piv])
        return Matrix(self.field, rows)

    def _check_ambient(self, other: "Subspace"):
        if self.field != other.field or self.ambient_dim != other.ambient_dim:
            raise ValueError("subspaces live in different ambient spaces")

    def __repr__(self):
        rows = ",".join("".join(str(x) for x in r) for r in self.basis_rows)
        return f"Subspace({self.field!r}^{self.ambient_dim}, dim {self.dim}: [{rows}])"

    def to_json(self):
        return [list(r) for r in self.basis_rows]


@lru_cache(maxsize=None)
def _dual_rows(s: Subspace) -> tuple:
    """RREF basis of the standard-form orthogonal complement."""
    if s.dim == 0:
        return tuple(Matrix.identity(s.field, s.ambient_dim).entries)
    return tuple(s.basis_matrix().kernel_basis().nonzero_rows())


def span(field: Field, ambient_dim: int, vectors) -> Subspace:
    """The canonical subspace spanned by the given vectors."""
    vectors = [tuple(v) for v in vectors]
    if any(len(v) != ambient_dim for v in vectors):
        raise ValueError("vectors have mixed lengths")
    if not vectors:
        return Subspace(field, ambient_dim, ())
    reduced = Matrix(field, vectors).rref()[0]
    return Subspace(field, ambient_dim, tuple(reduced.nonzero_rows()))


def zero_space(field: Field, ambient_dim: int) -> Subspace:
    return Subspace(field, ambient_dim, ())


def full_space(field: Field, ambient_dim: int) -> Subspace:
    return Subspace(field, ambient_dim, tuple(Matrix.identity(field, ambient_dim).entries))


def coordinate_hyperplane(field: Field, ambient_dim: int) -> Subspace:
    """The span of the first n-1 standard basis vectors (last coordinate 0)."""
    rows = Matrix.identity(field, ambient_dim).entries[: ambient_dim - 1]
    return Subspace(field, ambient_dim, tuple(rows))


def gaussian_binomial(n: int, k: int, q: int) -> int:
    """Number of k-dimensional subspaces of GF(q)^n, as an exact integer.

    Arbitrary-precision arithmetic, so the product formula cannot
    silently wrap.  ValueError unless 0 <= k <= n and q is a prime power.
    """
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n, got n={n}, k={k}")
    _prime_power(q)
    num = 1
    den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    if num % den:  # the product formula always divides; a remainder means the arithmetic is wrong
        raise RuntimeError(f"the Gaussian binomial [{n} {k}]_{q} did not divide exactly")
    return num // den


def enumerate_k_subspaces(ambient: Subspace, k: int):
    """Yield every k-dimensional subspace of `ambient` exactly once.

    Order is deterministic: pivot-column patterns lexicographically,
    then the free entries of the echelon form in row-major order with
    values ascending.  Total count is gaussian_binomial(dim, k, q).
    Each is made from a row of `_rref_slabs`, only when it is reached.
    """
    F, n = ambient.field, ambient.ambient_dim
    for slab in _rref_slabs(ambient, k):
        for rows in slab:
            yield Subspace(F, n, tuple(map(tuple, rows.tolist())))


def _rref_slabs(ambient: Subspace, k: int):
    """Yield the RREF bases of the k-subspaces of `ambient`, in the order
    of `enumerate_k_subspaces`, a (count, k, n) uint8 slab at a time."""
    d = ambient.dim
    if not 0 <= k <= d:
        raise ValueError(f"need 0 <= k <= dim, got k={k}, dim={d}")
    F, n, q = ambient.field, ambient.ambient_dim, ambient.field.q
    add, mul = np.array(F._add, dtype=np.uint8), np.array(F._mul, dtype=np.uint8)
    basis = np.array(ambient.basis_rows, dtype=np.uint8).reshape(d, n)
    for piv in combinations(range(d), k):
        free = [(i, j) for i in range(k) for j in range(piv[i] + 1, d) if j not in piv]
        fi, fj = np.array(free, dtype=np.intp).reshape(-1, 2).T
        low = next(m for m in range(len(free), -1, -1) if q ** m <= _SLAB)  # digits varying in a slab
        high = len(free) - low
        coeff = np.zeros((q ** low, k, d), dtype=np.uint8)
        coeff[:, fi[high:], fj[high:]] = np.arange(q ** low)[:, None] // q ** np.arange(low - 1, -1, -1) % q
        for c in range(q ** high):  # a Python int: q ** len(free) can pass 2**63
            coeff[:, fi[:high], fj[:high]] = [c // q ** (high - 1 - t) % q for t in range(high)]
            # row i is basis row piv[i] plus each free entry times its basis
            # row; a product of RREF matrices is RREF, so none is re-reduced
            rows = np.repeat(basis[None, list(piv)], len(coeff), axis=0)
            for t in sorted({j for _, j in free}):
                rows = add[rows, mul[coeff[:, :, t, None], basis[t]]]
            yield rows


def projective_points(w: Subspace):
    """The points of [w]: canonical representatives, sorted by vector."""
    F = w.field
    zero = (0,) * w.ambient_dim
    d = w.dim
    reps = [
        F._lincomb(zero, (0,) * lead + (1,) + tail, w.basis_rows)
        for lead in range(d)
        for tail in product(F.elements(), repeat=d - lead - 1)
    ]
    reps.sort()
    # row `lead` of an RREF basis puts its pivot's 1 first in each rep
    return [ProjectivePoint._monic(r) for r in reps]


def affine_points(w: Subspace, h: Subspace):
    """The points of [w] that lie outside the hyperplane h."""
    if h.ambient_dim != w.ambient_dim or h.dim != h.ambient_dim - 1:
        raise ValueError("h must be a hyperplane of the ambient space")
    (dual,) = _dual_rows(h)
    return [pt for pt in projective_points(w) if _dot(w.field, dual, pt.rep)]
