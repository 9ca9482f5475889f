"""Polarities of a hyperplane: orthogonal complement under a fixed form.

The form is given by a gram matrix in the coordinates of the
hyperplane's RREF basis.  It must be square, nondegenerate, and either
symmetric or skew-symmetric, so that complementation is an
inclusion-reversing involution.  The default gram is the identity.
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Integral

from .gf import Field
from .linalg import Matrix
from .subspace import Subspace


@dataclass(frozen=True)
class Polarity:
    field: Field
    h: Subspace
    gram: Matrix

    def __post_init__(self):
        d = self.h.dim
        g = self.gram
        if g.rows != d or g.cols != d:
            raise ValueError(f"gram must be {d}x{d} for this hyperplane, got {g.rows}x{g.cols}")
        if g.field != self.field or self.h.field != self.field:
            raise ValueError("gram, hyperplane, and polarity must share one field")
        gt = g.transpose()
        F = self.field
        neg = Matrix._computed(F, tuple(tuple(F._neg[x] for x in row) for row in g.entries))
        if gt != g and gt != neg:
            raise ValueError("gram must be symmetric or skew-symmetric")
        if g.rank() != d:
            raise ValueError("gram is degenerate")

    def apply(self, w: Subspace) -> Subspace:
        """sigma(w): all x in h with x G v^T = 0 for every v in w."""
        if not self.h.contains(w):
            raise ValueError("polarity applies only to subspaces of its hyperplane")
        if w.dim == 0:
            return self.h
        F = self.field
        # w lies in h, whose basis is RREF: a vector's coordinates in it are
        # its entries at h's pivots
        piv = self.h.pivots
        coords = Matrix._computed(F, tuple(tuple(r[p] for p in piv) for r in w.basis_rows))
        kern = coords.matmul(self.gram).kernel_basis()
        zero = (0,) * self.h.ambient_dim
        rows = tuple(F._lincomb(zero, krow, self.h.basis_rows) for krow in kern.nonzero_rows())
        # kernel rows are RREF in h-coordinates; multiplying by the RREF
        # basis of h keeps them RREF in the ambient space (Subspace checks it).
        return Subspace(F, self.h.ambient_dim, rows)

    def __call__(self, w: Subspace) -> Subspace:
        return self.apply(w)


def polarity_new(field: Field, h: Subspace, gram=None) -> Polarity:
    """Build a polarity of h; gram defaults to the identity form.  A gram
    given as rows must hold integers (a bool is not one)."""
    if gram is None:
        gram = Matrix.identity(field, h.dim)
    elif not isinstance(gram, Matrix):
        gram = Matrix(field, [_integer_row(row, i) for i, row in enumerate(gram)])
    return Polarity(field, h, gram)


def _integer_row(row, i: int) -> list:
    """Row i of a gram as Python ints; an entry that is not an integer raises ValueError."""
    row = list(row)
    for j, x in enumerate(row):
        if isinstance(x, bool) or not isinstance(x, Integral):
            raise ValueError(f"gram entry at row {i}, column {j} is not an integer: {x!r}")
    return [int(x) for x in row]
