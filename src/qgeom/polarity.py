"""Polarities of a hyperplane: orthogonal complement under a fixed form.

The form is given by a gram matrix in the coordinates of the
hyperplane's RREF basis.  It must be square, nondegenerate, and either
symmetric or skew-symmetric, so that complementation is an
inclusion-reversing involution.  The default gram is the identity.
"""

from __future__ import annotations

from dataclasses import dataclass

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
        neg = Matrix(F, [[F.neg(x) for x in row] for row in g.entries])
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
        coords = self.h.coefficients_of(w.basis_rows)
        kern = coords.matmul(self.gram).kernel_basis()
        zero = (0,) * self.h.ambient_dim
        rows = tuple(F._lincomb(zero, krow, self.h.basis_rows) for krow in kern.nonzero_rows())
        # kernel rows are RREF in h-coordinates; multiplying by the RREF
        # basis of h keeps them RREF in the ambient space.
        return Subspace(F, self.h.ambient_dim, rows)

    def __call__(self, w: Subspace) -> Subspace:
        return self.apply(w)


def polarity_new(field: Field, h: Subspace, gram=None) -> Polarity:
    """Build a polarity of h; gram defaults to the identity form."""
    if gram is None:
        gram = Matrix.identity(field, h.dim)
    elif not isinstance(gram, Matrix):
        gram = Matrix(field, gram)
    return Polarity(field, h, gram)
