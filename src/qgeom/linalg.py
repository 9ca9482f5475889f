"""Matrices over GF(q): reduced row echelon form, rank, kernel.

RREF is the canonical form used everywhere downstream: it is unique
per row space, so subspace equality reduces to comparing basis data.
Matrices are immutable values; every operation returns a new one.
Entries are range-checked when a Matrix is made; RREF and products
then run on the field's tables (`Field._lincomb` and `_dot`).

rank() keeps two internal fast paths, each faster than the alternatives
where it is selected (one run each on a 2-core x86-64 host): over GF(2)
rows are bit-packed into Python ints, 0.24 s against 1.33 s for numpy
and 7.7 s for the table RREF on the 5797 x 341 incidence of the
(q,e) = (4,2) design; large matrices over odd prime fields go through
numpy elimination, 0.05 s against 0.36 s for the table RREF on the
1210 x 121 incidence at (3,2).
"""

from __future__ import annotations

import numpy as np

from .gf import Field

# Above this many cells, rank over an odd prime field switches to numpy.
_NUMPY_RANK_CELLS = 2000


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
    def identity(cls, field: Field, n: int) -> "Matrix":
        return cls(field, [[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def zeros(cls, field: Field, rows: int, cols: int) -> "Matrix":
        return cls(field, [[0] * cols for _ in range(rows)])

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]

    def row(self, i):
        return self.entries[i]

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
        return Matrix(self.field, list(zip(*self.entries)))

    def matmul(self, other: "Matrix") -> "Matrix":
        if self.field != other.field or self.cols != other.rows:
            raise ValueError("inner dimensions do not match")
        F = self.field
        cols = list(zip(*other.entries)) if other.rows else []
        out = []
        for arow in self.entries:
            out.append(
                [_dot(F, arow, col) for col in cols]
            )
        return Matrix(F, out)

    def apply(self, vector):
        """Row vector times matrix."""
        F = self.field
        if len(vector) != self.rows:
            raise ValueError("vector length does not match row count")
        vector = F._check_vector(vector)
        return tuple(_dot(F, vector, col) for col in zip(*self.entries))

    def apply_col(self, vector):
        """Matrix times column vector."""
        F = self.field
        if len(vector) != self.cols:
            raise ValueError("vector length does not match column count")
        vector = F._check_vector(vector)
        return tuple(_dot(F, row, vector) for row in self.entries)

    def inverse(self) -> "Matrix":
        """Inverse of a square matrix, by eliminating [self | I]."""
        n = self.rows
        if n != self.cols:
            raise ValueError("only square matrices invert")
        F = self.field
        ident = Matrix.identity(F, n)
        aug = Matrix(F, [self.entries[i] + ident.entries[i] for i in range(n)])
        red, rank, _ = aug.rref()
        if rank != n or any(red.entries[i][:n] != ident.entries[i] for i in range(n)):
            raise ValueError("matrix is singular")
        return Matrix(F, [red.entries[i][n:] for i in range(n)])

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
        reduced = Matrix(F, work)
        reduced._rref = (reduced, r, tuple(pivots))
        return reduced, r, tuple(pivots)

    def rank(self) -> int:
        if self._rref is not None:
            return self._rref[1]
        if self.field.q == 2:
            return _rank_gf2(self.entries)
        if self.field.f == 1 and self.rows * self.cols >= _NUMPY_RANK_CELLS:
            return _rank_prime_numpy(self.entries, self.field.p)
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
            vecs.append(v)
        return Matrix(F, vecs).rref()[0] if vecs else Matrix(F, [])

    def nonzero_rows(self):
        return [r for r in self.entries if any(r)]


def _dot(F: Field, u, v):
    """sum of u[i] * v[i] through the field's tables; entries must be valid."""
    add, mul = F._add, F._mul
    acc = 0
    for a, b in zip(u, v):
        acc = add[acc][mul[a][b]]
    return acc


def _rank_gf2(entries) -> int:
    # XOR basis keyed by lowest set bit.
    table = {}
    for row in entries:
        x = 0
        for j, b in enumerate(row):
            if b:
                x |= 1 << j
        while x:
            low = x & -x
            other = table.get(low)
            if other is None:
                table[low] = x
                break
            x ^= other
    return len(table)


def _rank_prime_numpy(entries, p: int) -> int:
    a = np.array(entries, dtype=np.int64) % p
    m, n = a.shape
    r = 0
    for col in range(n):
        hits = np.nonzero(a[r:, col])[0]
        if hits.size == 0:
            continue
        piv = r + hits[0]
        if piv != r:
            a[[r, piv]] = a[[piv, r]]
        a[r] = (a[r] * pow(int(a[r, col]), -1, p)) % p
        rest = np.nonzero(a[r + 1 :, col])[0] + r + 1
        if rest.size:
            a[rest] = (a[rest] - np.outer(a[rest, col], a[r])) % p
        r += 1
        if r == m:
            break
    return r
