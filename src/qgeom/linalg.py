"""Matrices over GF(q): reduced row echelon form, rank, kernel; and the
RREF of an integer array over a prime field.

RREF is the canonical form used everywhere downstream: it is unique
per row space, so subspace equality reduces to comparing basis data.
Matrices are immutable values; every operation returns a new one.
Entries are range-checked when a caller makes a Matrix; RREF and
products then run on the field's tables through its one row kernel,
`Field._lincomb`: an elimination step, and each output row of a product,
is one call.  What those tables compute from checked entries (the RREF,
products, kernel vectors, transposes, inverses, identities) is made by
the private `Matrix._computed`, which checks nothing again.  That table
RREF is the one elimination for `Matrix`, over every GF(p^f), and
`rank()` reads it.

Incidence ranks take one array path instead: `_rref_mod_p` streams the
row chunks its caller gives over GF(p) into an RREF basis, each chunk
converted to float64 in turn and reduced in one BLAS product (blocked
elimination over a word-size prime field, as in Dumas, Giorgi and
Pernet, "Dense linear algebra over word-size prime fields: the FFLAS
and FFPACK packages", ACM TOMS 35(3), 2008).  It is exact while
every product sum, at most r*(p-1)^2 for a basis of r rows, stays below
2^53.
"""

from __future__ import annotations

import numpy as np

from .gf import Field

_CHUNK_ROWS = 256  # rows per chunk that p_rank scatters and _rref_mod_p converts to float64


class Matrix:
    """A rows x cols matrix of field-element encodings."""

    __slots__ = ("field", "rows", "cols", "entries", "_rref")

    def __init__(self, field: Field, entries):
        rows = [field._check_vector(row) for row in entries]
        width = len(rows[0]) if rows else 0
        if any(len(r) != width for r in rows):
            raise ValueError("ragged rows")
        self.field = field
        self.rows = len(rows)
        self.cols = width
        self.entries = tuple(rows)
        self._rref = None

    @classmethod
    def _computed(cls, field: Field, rows) -> "Matrix":
        """A matrix of rows that the field's tables computed from checked
        entries: tuples of one length, each entry a field element, so none
        is checked again.  Only this module and `polarity` make one; a
        caller's rows go through Matrix(field, rows)."""
        m = object.__new__(cls)
        m.field = field
        m.rows = len(rows)
        m.cols = len(rows[0]) if rows else 0
        m.entries = tuple(rows)
        m._rref = None
        return m

    @classmethod
    def identity(cls, field: Field, n: int) -> "Matrix":
        return cls._computed(field, tuple(tuple(int(i == j) for j in range(n)) for i in range(n)))

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.field == other.field
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash((self.field, self.entries))

    def __repr__(self):
        body = "; ".join(" ".join(str(x) for x in row) for row in self.entries)
        return f"Matrix({self.field!r}, {self.rows}x{self.cols}: [{body}])"

    def transpose(self) -> "Matrix":
        return Matrix._computed(self.field, tuple(zip(*self.entries)))

    def matmul(self, other: "Matrix") -> "Matrix":
        if self.field != other.field or self.cols != other.rows:
            raise ValueError("inner dimensions do not match")
        F = self.field
        zero = (0,) * other.cols
        return Matrix._computed(F, tuple(F._lincomb(zero, arow, other.entries) for arow in self.entries))

    def apply(self, vector):
        """Row vector times matrix."""
        F = self.field
        if len(vector) != self.rows:
            raise ValueError("vector length does not match row count")
        vector = F._check_vector(vector)
        return F._lincomb((0,) * self.cols, vector, self.entries)

    def apply_col(self, vector):
        """Matrix times column vector: the columns, combined by the vector's entries."""
        F = self.field
        if len(vector) != self.cols:
            raise ValueError("vector length does not match column count")
        vector = F._check_vector(vector)
        return F._lincomb((0,) * self.rows, vector, zip(*self.entries))

    def inverse(self) -> "Matrix":
        """Inverse of a square matrix, by eliminating [self | I]."""
        n = self.rows
        if n != self.cols:
            raise ValueError("only square matrices invert")
        F = self.field
        ident = Matrix.identity(F, n)
        aug = Matrix._computed(F, tuple(self.entries[i] + ident.entries[i] for i in range(n)))
        red, rank, _ = aug.rref()
        if rank != n or any(red.entries[i][:n] != ident.entries[i] for i in range(n)):
            raise ValueError("matrix is singular")
        return Matrix._computed(F, tuple(red.entries[i][n:] for i in range(n)))

    # -- elimination --------------------------------------------------------

    def rref(self):
        """(R, rank, pivots): the unique reduced row echelon form.

        Leading entries are 1, pivot columns are cleared above and
        below, pivot columns strictly increase, zero rows sink to the
        bottom.
        """
        if self._rref is None:
            self._rref = self._compute_rref()
        return self._rref

    def _compute_rref(self):
        F = self.field
        work = list(self.entries)
        m, n = self.rows, self.cols
        zero = (0,) * n
        pivots = []
        r = 0
        for col in range(n):
            pr = next((i for i in range(r, m) if work[i][col]), None)
            if pr is None:
                continue
            work[r], work[pr] = work[pr], work[r]
            lead = work[r][col]
            if lead != 1:
                work[r] = F._lincomb(zero, (F.inv(lead),), (work[r],))
            for i in range(m):
                c = work[i][col]
                if i != r and c:
                    work[i] = F._lincomb(work[i], (F.neg(c),), (work[r],))
            pivots.append(col)
            r += 1
            if r == m:
                break
        reduced = Matrix._computed(F, work)
        reduced._rref = (reduced, r, tuple(pivots))
        return reduced, r, tuple(pivots)

    def rank(self) -> int:
        return self.rref()[1]

    def kernel_basis(self) -> "Matrix":
        """Basis of the right kernel {x : M x^T = 0}, as RREF rows."""
        F = self.field
        R, rank, pivots = self.rref()
        free = [j for j in range(self.cols) if j not in pivots]
        vecs = []
        for j in free:
            v = [0] * self.cols
            v[j] = 1
            for i, pc in enumerate(pivots):
                v[pc] = F.neg(R[i, j])
            vecs.append(tuple(v))
        return Matrix._computed(F, vecs).rref()[0] if vecs else Matrix._computed(F, ())

    def nonzero_rows(self):
        return [r for r in self.entries if any(r)]


def _dot(F: Field, u, v):
    """sum of u[i] * v[i] through the field's tables; entries must be valid."""
    add, mul = F._add, F._mul
    acc = 0
    for a, b in zip(u, v):
        acc = add[acc][mul[a][b]]
    return acc


def _rref_mod_p(chunks, shape, p: int):
    """(E, pivots): the RREF basis over GF(p) of the row space of a matrix
    of the given (rows, cols) shape, given as 2-D integer row chunks.

    Entries lie in 0..p-1 and p is a prime; E holds the nonzero RREF rows
    as uint8 (the rows of `Matrix.rref` over GF(p)) and pivots their
    leading columns.  Each chunk X is reduced against E in one product,
    X <- (X - X[:, pivots] E) mod p.  Then, while X has a nonzero row, its
    first one is made monic, its pivot column c is cleared from E
    (E <- (E - E[:, c] row) mod p) and from the rest of X, so that every
    later row of the chunk is reduced against it too, and it becomes the
    next row of E.  E is allocated once, min(rows, cols) rows, the rank
    bound; its rows stay in the order their pivots were found, paired with
    the pivots list, and are put in pivot order at the end.  Sums reach at
    most len(pivots) * (p-1)^2, exact in float64 while that is below 2^53:
    for p <= 251 any matrix narrower than about 10^11 columns.
    """
    inv = [0] + [pow(x, -1, p) for x in range(1, p)]
    e = np.empty((min(shape), shape[1]))
    piv = []
    for x in chunks:
        x = _mod(x - x[:, piv] @ e[: len(piv)], p)  # a float64 copy of the chunk, reduced
        x = x[x.any(axis=1)]
        while len(x):
            c = int(np.flatnonzero(x[0])[0])
            row = _mod(x[0] * inv[int(x[0, c])], p)
            e[: len(piv)] = _mod(e[: len(piv)] - np.outer(e[: len(piv), c], row), p)
            x = _mod(x[1:] - np.outer(x[1:, c], row), p)
            x = x[x.any(axis=1)]
            e[len(piv)] = row
            piv.append(c)
    return e[: len(piv)].astype(np.uint8)[np.argsort(piv)], tuple(sorted(piv))


def _mod(x: np.ndarray, p: int) -> np.ndarray:
    """x mod p in place, for integer-valued float64 x with |x| < 2^53, or
    float32 x with |x| <= 2^24: x / p then rounds to no further than a
    distance 1/p below the next integer, so its floor is exact."""
    quotient = x / p
    x -= np.multiply(np.floor(quotient, out=quotient), p, out=quotient)
    return x
