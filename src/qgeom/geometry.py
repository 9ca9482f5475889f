"""Grassmann and twisted Grassmann graphs, geometric and
pseudo-geometric designs, and the block map tying them together.

Vertex and block orders are deterministic: subspace enumeration order
throughout, with the twisted graph listing its A-family (subspaces not
inside the hyperplane) before its B-family.  Designs index points by
the sorted list of canonical projective representatives.

One instance (field, e, h, s) is one `_Instance`: the twisted graph, the
block map f, the JT design, the geometric design and the certificate,
each built the first time it is read and kept.  `twisted_grassmann` and
`jt_design` read it, and a verify run shares one across its checks.
The families are chosen by point sets from one enumeration of the
(e+1)-subspaces of V: A has a point off [h], and the rest, the JT
design's blocks inside h, come in the order of h's own enumeration.  In
each row of a basis inside h, the one column off h's pivots is fixed by
the row's earlier entries, so two such bases first differ in a column
both orders compare.

A family of subspaces has one record, `_Labels`: runs of (tag, RREF
bases from `subspace._rref_slabs`, point sets), and nothing else.  The
record gives the family's point sets grouped by size and their
`_SetIndex`, each made the first time it is read and kept.  A label
(tag, W) of a vertex or block is made from its basis row only when it is
read: the graph and the designs keep the record, and `Graph.labels` and
`Design.block_labels` are the tuples made from it the first time they are
read.  No check that passes, and no export, reads them.  A graph keeps
its record beside its labels (`Graph._family`), and `_vertex_index` is
the one function that turns a graph into its record: it reads the
record the graph was built from, or, for a graph given label tuples
(tag, W), checks them once and forms and keeps their record.

Every point set comes from one batched point action, `_point_images`:
x -> M.frob^i(x), GF(q)^k to GF(q)^n with q = p^f, is GF(p)-linear on
p-digits, so a batch of (n x k) matrices maps all points in one float32
BLAS product, reduced mod p, exact below 2**24.  Square maps give
`autgroup` its point permutations; the transposed RREF basis of a
k-subspace gives its points (`_basis_points`).
`_SetIndex` finds point sets among many, exactly, from rows of their
points in any order: a graph's vertices (`_Labels.index`), the sigma
point sets, and the blocks of a design.  Its key, the point mask, is its
own; no caller builds or reads one.  Point sets of several sizes are held
as `_by_size` gives them: per size, the numbers of the sets of that size
and one 2-D array of their points.

A `Design` holds its blocks only that way, in one `_SetIndex` over its
points (`Design.index`): one sorted point row per block.  That index is
the design's only index.  It answers the duplicate-block check,
`block_index`, `has_block`, the certificate lookup and every automorphism
check, and `incidence()` scatters its arrays.  `Design.blocks`, the
blocks as sorted tuples, is made from the arrays the first time it is
read; no check reads it unless it reports a failing block.  The block
map f of a whole instance is one array, one sorted row of [e+1]_q points
per vertex, and the JT design is built from its rows.

Every pairwise count goes through one representation and one kernel:
a subspace is the set of projective points it contains, a family of
subspaces or blocks is its point sets grouped by size, and its 0/1
incidence matrix N is scattered from those groups by one routine,
`_incidence`, whole or one slice of a group at a time (`_row_chunks`).
All intersection sizes are entries of N·Nᵀ, computed by `_pair_counts`
in blocks of 64 rows, each against the rows from its own start on: only
the upper triangle j >= i is formed, and every caller reads a pair i < j
there.  A d-dimensional subspace has [d]_q = (q^d-1)/(q-1) points, so
intersection dimensions are read off as point counts.  No check forms
the uint8 matrix of `Design.incidence()`, which serves the CSV export.

A graph is one packed adjacency matrix: `_count_graph` packs each row
block of counts straight into its rows from the block's start on, and
fills the same rows left of the block from the rows above it by
`_transpose_strip`, the packed transpose of one 8-byte column strip,
each 8 x 8 bit block transposed inside one uint64.  `Graph` checks
symmetry, and `formats.decode_graph6` mirrors its lower triangle, by the
same transpose, one strip at a time, so no whole transpose is formed.
The operations that need 0/1 columns unpack at most 64 rows at a time
(`_row_strips`).

The block map f works on the same point sets.  A polarity sigma of h
reverses inclusion, so sigma(U) is the intersection of sigma(c) over
the points c of U; `_sigma` holds sigma(c) once per point c of [h], in
one record per polarity: the points c, the subspaces sigma(c) (read by
the literal `autgroup.lift`), their point-set array and its `_SetIndex`
(read by the batched lift).  With S[c, x] = 1 when x lies in
sigma(c), x lies in sigma(W ∩ h) when W's row of points in [h] times S
reaches |W ∩ h| at x, so `_block_map` forms many blocks in one product.
Every sigma(c) lies in [h], so S is taken over [h]'s columns only: the
product covers [h] and nothing else, and the points of f(W) off [h] are
W's own.
"""

from __future__ import annotations

import math
import operator
from collections import Counter
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import groupby

import numpy as np

from .gf import Field, field_from_order
from .linalg import _mod
from .polarity import Polarity, polarity_new
from .subspace import Subspace, _rref_slabs, coordinate_hyperplane, full_space, projective_points


class Graph:
    """Undirected graph: labels plus `adj`, a read-only (n, ceil(n/8))
    uint8 matrix whose bit j of row i, little-endian within each byte,
    is set when vertices i and j are adjacent.  Labels given as a
    `_Labels` record are kept as given, and made a tuple when first read;
    the record stays in `_family`, which `_vertex_index` fills for a graph
    given label tuples."""

    __slots__ = ("_labels", "_family", "adj")

    def __init__(self, labels, adj):
        labels = labels if isinstance(labels, _Labels) else tuple(labels)
        n = len(labels)
        width = (n + 7) // 8
        if not (isinstance(adj, np.ndarray) and adj.dtype == np.uint8 and adj.shape == (n, width)):
            raise ValueError(f"adjacency must be a ({n}, {width}) uint8 array, one row per label")
        if n % 8 and (over := np.flatnonzero(adj[:, -1] >> n % 8)).size:
            raise ValueError(f"adjacency row {over[0]} has bits beyond vertex range")
        diag = np.arange(n)
        if (loops := np.flatnonzero(adj[diag, diag >> 3] >> (diag & 7) & 1)).size:
            raise ValueError(f"self-loop at vertex {loops[0]}")
        # Symmetry, 64 rows at a time, packed: those rows up to the strip's
        # end against the transpose of the same 64 columns, so each pair is
        # checked in the strip of its later row (bits past n are zero, above).
        for start in range(0, n, _BLOCK_ROWS):
            stop = min(start + _BLOCK_ROWS, n)
            rows = adj[start:stop, : (stop + 7) // 8]
            if not np.array_equal(rows, _transpose_strip(adj, stop, start // 8)[: stop - start]):
                raise ValueError("adjacency is not symmetric")
        adj = adj.view()
        adj.flags.writeable = False
        self._labels = labels
        self._family = labels if isinstance(labels, _Labels) else None
        self.adj = adj

    @classmethod
    def from_edges(cls, n: int, edges, labels=None):
        pairs = [_indices(e, f"edge {i}") for i, e in enumerate(edges)]
        if (bad := next((i for i, pair in enumerate(pairs) if len(pair) != 2), None)) is not None:
            raise ValueError(f"edge {bad} is not a pair of endpoints: {pairs[bad]}")
        try:
            ends = np.array(pairs, dtype=np.intp).reshape(len(pairs), 2)  # no edges: shape (0, 2)
            inside = not ends.size or (ends.min() >= 0 and ends.max() < n)
        except OverflowError:  # an endpoint past intp lies outside 0..n-1 too
            inside = False
        if not inside:
            raise ValueError(f"edge endpoints must lie in 0..{n - 1}")
        adj = np.zeros((n, (n + 7) // 8), dtype=np.uint8)
        u, v = np.concatenate([ends, ends[:, ::-1]]).T
        np.bitwise_or.at(adj, (u, v >> 3), (1 << (v & 7)).astype(np.uint8))
        return cls(labels if labels is not None else range(n), adj)

    @property
    def labels(self) -> tuple:
        if not isinstance(self._labels, tuple):
            self._labels = tuple(self._labels)
        return self._labels

    @property
    def n(self) -> int:
        return len(self.adj)

    def is_adjacent(self, i: int, j: int) -> bool:
        return bool((self.adj[i, j >> 3] >> (j & 7)) & 1)

    def degree(self, i: int) -> int:
        return int(np.bitwise_count(self.adj[i]).sum())

    def degrees(self):
        return np.bitwise_count(self.adj).sum(axis=1).tolist()

    def neighbors(self, i: int):
        return np.flatnonzero(np.unpackbits(self.adj[i], count=self.n, bitorder="little")).tolist()

    def num_edges(self) -> int:
        return int(np.bitwise_count(self.adj).sum()) // 2

    def edges(self):
        """Sorted (i, j) pairs with i < j."""
        out = []
        for i, j in _edge_strips(self.adj, self.n):
            out.extend(zip(i.tolist(), j.tolist()))
        return out

    def __repr__(self):
        return f"Graph(n={self.n}, edges={self.num_edges()})"


def _transpose_strip(adj: np.ndarray, r: int, c: int) -> np.ndarray:
    """Rows 8c..8c+8w-1 of the transpose of adj[:r], packed like adj: the
    (8w, ceil(r/8)) transpose of the w <= 8 byte column strip adj[:r, c:c+8].

    Each 8 x 8 bit block (8 rows, one byte column) is gathered into one
    uint64, one byte per row, and transposed in place by three
    shift/mask/XOR steps (Warren, Hacker's Delight, 7-3); the grid of
    blocks is then transposed by reordering their bytes.  Rows past r
    read as zero, so the last byte of each row is zero past bit r."""
    strip = adj[:r, c : c + 8]
    blocks = np.zeros(((r + 7) // 8 * 8, 8), dtype=np.uint8)
    blocks[:r, : strip.shape[1]] = strip
    # x[b, k]: byte i is the byte column c+k of row 8b+i, so bit 8i+j is (8b+i, 8(c+k)+j)
    x = blocks.reshape(-1, 8, 8).transpose(0, 2, 1).copy().view("<u8").reshape(-1, 8)
    for shift, mask in ((7, 0x00AA00AA00AA00AA), (14, 0x0000CCCC0000CCCC), (28, 0x00000000F0F0F0F0)):
        t = (x ^ (x >> np.uint64(shift))) & np.uint64(mask)
        x ^= t ^ (t << np.uint64(shift))
    # now bit 8j+i of x[b, k] is (8b+i, 8(c+k)+j): byte j is row 8(c+k)+j's byte b
    out = x.view(np.uint8).reshape(-1, 8, 8).transpose(1, 2, 0)
    return out[: strip.shape[1]].reshape(8 * strip.shape[1], (r + 7) // 8)


def _row_strips(adj: np.ndarray, n: int):
    """Yield (start, rows): rows start..start+63 of a packed adjacency
    matrix, unpacked to n 0/1 columns, so n x n bits are never formed."""
    for start in range(0, n, _BLOCK_ROWS):
        yield start, np.unpackbits(adj[start : start + _BLOCK_ROWS], axis=1, count=n, bitorder="little")


def _edge_strips(adj: np.ndarray, n: int):
    """Yield the edges (i, j), i < j, of each strip of `_row_strips` as two
    index arrays, in sorted order, so no list of all edges is formed."""
    for start, rows in _row_strips(adj, n):
        i, j = np.nonzero(np.triu(rows, start + 1))  # columns past the diagonal
        yield i + start, j


def _indices(values, what: str) -> tuple:
    """values as Python ints; a bool or another non-integer raises a
    ValueError that names the first such entry, or values if they are no
    sequence."""
    try:
        values = tuple(values)
    except TypeError:  # 5 or None where an edge or a block belongs
        raise ValueError(f"{what} is not a sequence of indices: {values!r}") from None
    types = set(map(type, values))  # checked per type: a design has many blocks
    if bad := {t for t in types if t is bool or not issubclass(t, (int, np.integer))}:
        i = next(i for i, x in enumerate(values) if type(x) in bad)
        raise ValueError(f"{what} has an index that is not an integer: entry {i} is {values[i]!r}")
    return values if types <= {int} else tuple(map(int, values))


def _permutation(images, what: str, n: int = None) -> np.ndarray:
    """images, a permutation of 0..n-1 (n its length by default), as a 1-D
    intp array.  A 1-D integer numpy array is taken as it is, anything else
    is read through `_indices`; ValueError names what if it is no such
    permutation."""
    if not (isinstance(images, np.ndarray) and images.ndim == 1 and images.dtype.kind in "iu"):
        images = _indices(images, what)
    n = len(images) if n is None else n
    try:
        perm = np.asarray(images, dtype=np.intp)
    except OverflowError:  # an image past intp lies outside 0..n-1 too
        perm = None
    if perm is None or not np.array_equal(np.sort(perm), np.arange(n)):
        raise ValueError(f"{what} is not a permutation of 0..{n - 1}")
    return perm


class Design:
    """Point set plus blocks, each a set of point indices.

    The blocks live in `index`, one `_SetIndex` over the v points: per
    block size, the block numbers and their points as one 2-D array, one
    sorted row per block.  That index is the design's only index; block
    lookups, the incidence matrix and the automorphism checks all read it.
    Blocks may be given as a 2-D integer array or as a sequence of index
    sequences, which may mix sizes.  Blocks must be distinct; repeated
    blocks raise at construction time, since the automorphism arguments
    downstream assume a block is recoverable from its point set.
    Block labels given as a `_Labels` record are kept as given, and made
    a tuple when first read, as `blocks` is.
    """

    __slots__ = ("points", "_block_labels", "index", "_blocks")

    def __init__(self, points, blocks, block_labels=None):
        self.points = tuple(points)
        v = len(self.points)
        if isinstance(blocks, np.ndarray) and blocks.ndim == 2 and blocks.dtype.kind in "iu":
            arrays = [blocks]
        else:  # index sequences, or an array of entries that are not integers, read row by row
            blocks = blocks.tolist() if isinstance(blocks, np.ndarray) else blocks
            rows = [_indices(block, f"block {bi}") for bi, block in enumerate(blocks)]
            arrays = [np.array(list(run)) for _, run in groupby(rows, len)]  # one per run of one size
        sets = []
        for a in arrays:
            a = np.sort(a, axis=1)
            repeats = (a[:, 1:] == a[:, :-1]).any(axis=1)
            if (bad := np.flatnonzero(repeats | ((a[:, :1] < 0) | (a[:, -1:] >= v)).any(axis=1))).size:
                bi = sum(map(len, sets)) + int(bad[0])
                fault = "repeats a point" if repeats[bad[0]] else f"has point indices outside 0..{v - 1}"
                raise ValueError(f"block {bi} {fault}")
            sets.append(a.astype(_index_dtype(v), copy=False))
        self.index = _SetIndex(_by_size(sets), v)
        first = self.index.firsts()
        if (again := np.flatnonzero(first != np.arange(len(first)))).size:
            raise ValueError(f"blocks {first[again[0]]} and {again[0]} are identical")
        self._blocks = None
        if block_labels is None:
            block_labels = range(self.b)
        self._block_labels = block_labels if isinstance(block_labels, _Labels) else tuple(block_labels)
        if len(self._block_labels) != self.b:
            raise ValueError("one label per block required")

    @property
    def v(self) -> int:
        return len(self.points)

    @property
    def b(self) -> int:
        return len(self.index)

    @property
    def block_labels(self) -> tuple:
        if not isinstance(self._block_labels, tuple):
            self._block_labels = tuple(self._block_labels)
        return self._block_labels

    @property
    def blocks(self) -> tuple:
        """Each block as a sorted tuple of point indices, in block order,
        made from the index's arrays the first time it is read."""
        if self._blocks is None:
            blocks = [()] * self.b
            for rows, pts in self.index.groups:
                for r, t in zip(rows.tolist(), pts.tolist()):
                    blocks[r] = tuple(t)
            self._blocks = tuple(blocks)
        return self._blocks

    def _row(self, block) -> int:
        """The number of the block holding exactly the points of block, or -1."""
        pts = np.array(list(block))
        if len(pts) and pts.dtype.kind not in "iu":
            return -1
        return int(self.index.find(pts.reshape(1, -1).astype(np.intp))[0])

    def block_index(self, block) -> int:
        if (row := self._row(block)) < 0:
            raise KeyError(block)
        return row

    def has_block(self, block) -> bool:
        return self._row(block) >= 0

    def incidence(self) -> np.ndarray:
        """The b x v 0/1 incidence matrix (uint8), rows in block order."""
        return _incidence(self.index.groups, self.v, np.uint8)

    def __repr__(self):
        return f"Design(v={self.v}, b={self.b})"


class _Labels:
    """The one record of a family of subspaces of GF(q)^n: runs of (tag,
    RREF bases, point sets), a (count, k, n) uint8 array and a (count,
    [k]_q) array of sorted point rows each.  Row i is the i-th subspace
    across the runs; its label is (tag, W), or the bare W in a run whose tag
    is None, with W made from the basis row, through the validating
    constructor, each time the row is read.  The point sets grouped by size
    and their index are made the first time they are read and kept, so the
    runs of a family that nothing indexes are never joined into a copy."""

    def __init__(self, field: Field, runs):
        self.field = field
        self.runs = tuple(runs)
        self.n = self.runs[0][1].shape[2]

    @classmethod
    def of(cls, field: Field, *runs) -> _Labels:
        """The record of runs (tag, RREF bases), their point sets formed
        from their bases."""
        return cls(field, [(tag, bases, _basis_points(field, bases)) for tag, bases in runs])

    def __len__(self):
        return sum(len(bases) for _, bases, _ in self.runs)

    def __getitem__(self, i):
        tag, w = self.pair(i)
        return w if tag is None else (tag, w)

    def pair(self, i) -> tuple:
        """(tag, W) of row i, whatever its tag."""
        i = operator.index(i)
        for tag, bases, _ in self.runs:  # i counts on from one run to the next
            if 0 <= i < len(bases):
                return tag, Subspace(self.field, self.n, tuple(map(tuple, bases[i].tolist())))
            i -= len(bases)
        raise IndexError("label index out of range")

    @property
    def points(self) -> int:
        """v, the number of points of GF(q)^n."""
        return _point_count(self.n, self.field.q)

    @cached_property
    def groups(self) -> list:
        """The point sets grouped by size (`_by_size`); a size held by one
        run keeps its array, not a copy."""
        return _by_size([sets for _, _, sets in self.runs])

    @cached_property
    def index(self) -> _SetIndex:
        """The index of the point sets, rows in record order."""
        return _SetIndex(self.groups, self.points)


@dataclass(frozen=True)
class DesignParameters:
    v: int
    b: int
    r: int
    k: int
    lambda_: int

    def __post_init__(self):
        if self.b * self.k != self.v * self.r:
            raise ValueError("counting identity b*k = v*r fails")
        if self.lambda_ * (self.v - 1) != self.r * (self.k - 1):
            raise ValueError("counting identity lambda*(v-1) = r*(k-1) fails")

    def to_json(self):
        return {"v": self.v, "b": self.b, "r": self.r, "k": self.k, "lambda": self.lambda_}


@lru_cache(maxsize=None)
def _point_order(field: Field, n: int):
    """Canonical [V] point list and rep -> index lookup."""
    pts = projective_points(full_space(field, n))
    return tuple(pts), {p.rep: i for i, p in enumerate(pts)}


def point_index_map(field: Field, n: int) -> dict:
    return _point_order(field, n)[1]


def _index_dtype(v: int):
    """The smallest unsigned dtype holding the point indices 0..v-1."""
    return np.uint8 if v <= 256 else np.uint16 if v <= 65536 else np.uint32


@lru_cache(maxsize=None)
def _field_arrays(field: Field):
    """(mul, digit, table): the field's product table; digit[x, d], the
    d-th p-digit of x; and the float32 GF(p) matrices of the maps
    y -> x.frob^i(y), one per element x and Frobenius power i:
    table[t, i*q + x, d] is the d-th p-digit of x.frob^i(p^t)."""
    p, f = field.p, field.f
    mul = np.array(field._mul, dtype=np.intp)
    digit = (np.arange(field.q)[:, None] // p ** np.arange(f) % p).astype(np.uint8)
    basis = np.array([[field.frobenius(p ** t, i) for t in range(f)] for i in range(f)], dtype=np.intp)
    return mul, digit, digit[mul[:, basis]].transpose(2, 1, 0, 3).reshape(f, f * field.q, f).astype(np.float32)


@lru_cache(maxsize=None)
def _vector_tables(field: Field, n: int):
    """(digits, radix, point_of) for GF(q)^n read as GF(p)^(n*f).

    digits holds the float32 p-digit expansion of each canonical point
    representative, digit-major (column t*n + c is digit t of coordinate
    c); the float32 radix turns a coordinate-major expansion into the
    vector's code, the sum of x_r q^(n-1-r); point_of[code] is the point
    of each of the (q-1)v nonzero vectors, so no image is rescaled.
    """
    points = _point_order(field, n)[0]
    mul, digit, _ = _field_arrays(field)
    reps = np.array([pt.rep for pt in points], dtype=np.intp)
    weights = field.q ** np.arange(n - 1, -1, -1, dtype=np.int64)
    radix = (weights[:, None] * field.p ** np.arange(field.f)).ravel().astype(np.float32)
    point_of = np.zeros(field.q ** n, dtype=_index_dtype(len(points)))
    point_of[mul[1:][:, reps] @ weights] = np.arange(len(points))
    return digit[reps].transpose(0, 2, 1).reshape(len(points), -1).astype(np.float32), radix, point_of


def _point_images(field: Field, mats: np.ndarray, frobs: np.ndarray) -> np.ndarray:
    """Entry (g, j): the point of GF(q)^n that the map x -> mats[g].frob^frobs[g](x)
    sends point j of GF(q)^k to, for (n x k) matrices of rank k.  Maps are
    taken a slab of about _SLAB_BYTES of temporaries at a time.

    A slab's image digits are one float32 BLAS product, reduced mod p, and
    their codes one more product: exact while every sum, at most
    k*f*(p-1)^2, and every code, below q^n, stay within 2**24."""
    n, k = mats.shape[1:]
    p, f = field.p, field.f
    if max(field.q ** n, k * f * (p - 1) ** 2) > _EXACT_F32:
        raise ValueError(f"GF({field.q})^{n} is beyond exact float32 point codes and sums (2**24)")
    digits, table = _vector_tables(field, k)[0], _field_arrays(field)[2]
    _, radix, point_of = _vector_tables(field, n)
    out = np.empty((len(mats), len(digits)), dtype=point_of.dtype)
    # per map: its table rows and their intp indices, the images and their quotient by p,
    # the codes and their intp copy
    per = max(1, _SLAB_BYTES // (k * n * (4 * f * f + 8) + len(digits) * (8 * n * f + 12)))
    for start in range(0, len(mats), per):
        m, i = mats[start : start + per], frobs[start : start + per]
        # rows (t, c), columns (map, r, d): block (r, c) of a map is the GF(p) matrix of x -> M[r,c].frob^i(x)
        blocks = np.take(table, (m + field.q * i[:, None, None]).transpose(2, 0, 1), axis=1)
        codes = _mod(digits @ blocks.reshape(k * f, -1), p).reshape(-1, n * f) @ radix
        out[start : start + per] = point_of[codes.astype(np.intp).reshape(len(digits), -1).T]
    return out


def _basis_points(field: Field, bases: np.ndarray) -> np.ndarray:
    """The point sets of the subspaces whose bases are the rows of a
    (count, k, n) array, one sorted row each: the points of GF(q)^k under
    each transposed basis."""
    if not bases.shape[1]:  # the zero subspace has no points
        return np.zeros((len(bases), 0), dtype=np.uint8)
    out = _point_images(field, bases.transpose(0, 2, 1), np.zeros(len(bases), dtype=np.intp))
    out.sort(axis=1)
    return out


def _bases(subspaces) -> np.ndarray:
    """The RREF bases of subspaces of one dimension and space, as one
    (count, k, n) uint8 array."""
    w = subspaces[0]
    return np.array([u.basis_rows for u in subspaces], dtype=np.uint8).reshape(len(subspaces), w.dim, w.ambient_dim)


def _point_array(subspaces) -> np.ndarray:
    """The point sets of subspaces of one dimension, one sorted row each."""
    return _basis_points(subspaces[0].field, _bases(subspaces))


def _all_bases(ambient: Subspace, k: int) -> np.ndarray:
    """The RREF bases of the k-subspaces of ambient, in enumeration order,
    as one (count, k, n) uint8 array."""
    return np.concatenate([*_rref_slabs(ambient, k)])


def _by_size(arrays) -> list:
    """Point sets given as the rows of 2-D arrays, numbered on from one
    array to the next, as (numbers, points) per set size: the numbers of
    the sets of that size and their points, one row each.  A size held by
    one array keeps that array as its points, not a copy."""
    groups, start = {}, 0
    for a in arrays:
        groups.setdefault(a.shape[1], []).append((np.arange(start, start + len(a)), a))
        start += len(a)
    return [parts[0] if len(parts) == 1 else tuple(np.concatenate(part) for part in zip(*parts)) for parts in groups.values()]


def _point_count(d: int, q: int) -> int:
    """[d]_q, the number of points of a d-dimensional subspace ([0]_q = 0)."""
    return (q ** d - 1) // (q - 1)


def _incidence(groups, v: int, dtype) -> np.ndarray:
    """The 0/1 rows, of the given dtype, of point sets grouped by size
    (`_by_size`): row i has a 1 in each of its v columns that set i holds."""
    out = np.zeros((sum(len(numbers) for numbers, _ in groups), v), dtype=dtype)
    for numbers, pts in groups:
        out[numbers[:, None], pts] = 1
    return out


def _row_chunks(groups, v: int, height: int):
    """Yield (numbers, rows) for each slice of at most height sets of each
    group: the slice's set numbers and its float32 `_incidence` rows."""
    for numbers, pts in groups:
        for start in range(0, len(numbers), height):
            yield numbers[start : start + height], _incidence(_by_size([pts[start : start + height]]), v, np.float32)


_BLOCK_ROWS = 64
_SLAB_BYTES = 1 << 20  # temporaries of one slab of a batched kernel
_EXACT_F32 = 2 ** 24


def _mask_words(points: np.ndarray, v: int) -> np.ndarray:
    """The ceil(v/64) uint64 words of the point mask of each row of
    point indices (last axis)."""
    rows = points.reshape(math.prod(points.shape[:-1]), points.shape[-1])
    width = max(1, (v + 63) // 64)  # v = 0 keeps one (empty) word
    # Both branches give the same words; the first exists for speed: the
    # (2,2) census (v = 31) takes about half the time with it as with the
    # packed row alone (3.75 s against 7.39 s, median of 10 runs each)
    if width == 1:  # one word: OR in one column of points at a time
        words = np.zeros((len(rows), 1), dtype=np.uint64)
        for column in rows.T:
            words[:, 0] |= np.left_shift(np.uint64(1), column, dtype=np.uint64, casting="unsafe")
    else:  # set the bits of 0/1 rows, then pack them into words, a slab of rows at a time
        words = np.empty((len(rows), width), dtype=np.uint64)
        per = max(1, _SLAB_BYTES // (64 * width))
        for start in range(0, len(rows), per):
            bits = np.zeros((len(rows[start : start + per]), 64 * width), dtype=np.uint8)
            bits[np.arange(len(bits))[:, None], rows[start : start + per]] = 1
            words[start : start + per] = np.packbits(bits, axis=1, bitorder="little").view(np.uint64)
    return words.reshape(points.shape[:-1] + (width,))


_MIX = np.uint64(0x9E3779B97F4A7C15)  # odd; its product's top bits mix all words


def _fold(words) -> np.ndarray:
    """One 64-bit multiplicative hash per key: words[w] holds word w of
    every key, as uint64; equal keys fold to equal hashes."""
    h = words[0] * _MIX
    for word in words[1:]:
        h = (h ^ word) * _MIX
    return h


class _SetIndex:
    """An exact hashed index of point sets over v points.

    The key of a set is the ceil(v/64) words of its point mask; only this
    class builds or reads one (`_mask_words`), and callers pass point rows
    or point permutations.
    Keys sit in an open-addressed table with linear probing, found by the
    top bits of a multiplicative hash; a lookup answers a row only after
    comparing every word of the key, so a hash collision is never taken as
    a match.  Keys go in by one pass in the order of their home slots, a
    stable sort, so equal keys keep set order: the i-th takes slot
    i + max over j <= i of (home_j - j), linear probing done in home order.
    The table has one spare slot per set past its end, so no probe wraps.
    """

    def __init__(self, groups, v: int):
        """groups: (numbers, points) per set size, as `_by_size` gives them."""
        self.v = v
        self.groups = groups
        keys = np.empty((max(1, (v + 63) // 64), sum(len(rows) for rows, _ in groups)), dtype=np.uint64)
        per = max(1, _SLAB_BYTES // (8 * len(keys)))  # sets per slab of mask words
        for rows, pts in groups:
            for start in range(0, len(rows), per):
                keys[:, rows[start : start + per]] = _mask_words(pts[start : start + per], v).T
        self._keys = list(keys)  # word w of every key, contiguous
        self.bits = max(1, 4 * len(self) - 1).bit_length()  # load at most 1/4
        home = self._home(self._keys)
        order = np.argsort(home, kind="stable")
        at = np.maximum.accumulate(home[order] - np.arange(len(self))) + np.arange(len(self))
        self.slots = np.full((1 << self.bits) + len(self), -1, dtype=np.intp)
        self.slots[at] = order
        self.max_probe = int((at - home[order]).max(initial=0))

    def __len__(self):
        return len(self._keys[0])

    def _home(self, words) -> np.ndarray:
        return (_fold(words) >> np.uint64(64 - self.bits)).astype(np.intp)

    def _matches(self, slot: np.ndarray, words) -> np.ndarray:
        """Is each slot filled with a key equal to words in every word?"""
        same = slot >= 0
        for column, word in zip(self._keys, words):
            same &= column[slot] == word
        return same

    def _lookup(self, words) -> np.ndarray:
        """The row of the first set with each key, or -1 if absent; words[w]
        holds word w of every key, as `_keys` does."""
        if not len(self):  # no key to compare with
            return np.full(len(words[0]), -1, dtype=np.intp)
        at = self._home(words)
        slot = self.slots[at]
        out = np.where(self._matches(slot, words), slot, -1)
        # a set whose slot holds another key walks on; an empty slot ends the walk
        todo = np.flatnonzero((slot >= 0) & (out < 0))
        for probe in range(1, self.max_probe + 1):
            if not todo.size:
                break
            slot = self.slots[at[todo] + probe]
            same = self._matches(slot, [word[todo] for word in words])
            out[todo[same]] = slot[same]
            todo = todo[(slot >= 0) & ~same]
        return out

    def find(self, points: np.ndarray) -> np.ndarray:
        """The row of the set holding exactly the points of each row of a 2-D
        integer array, in any order, or -1 where that row is no set here:
        a point outside 0..v-1, a repeated point, or a set not held."""
        inside = ((points >= 0) & (points < self.v)).all(axis=1)
        words = _mask_words(np.where(inside[:, None], points, 0), self.v)
        # a repeated point sets fewer bits than the row has entries
        inside &= np.bitwise_count(words).sum(axis=1) == points.shape[1]
        return np.where(inside, self._lookup(words.T), -1)

    def firsts(self) -> np.ndarray:
        """Entry i: the row of the first set equal to set i (i itself unless
        an earlier set holds the same points)."""
        return self._lookup(self._keys)

    def images(self, perms: np.ndarray) -> np.ndarray:
        """Entry (g, j): the row of the image of set j under the point
        permutation perms[g], or -1 where that image is not a set here.
        Images are formed a slab of about _SLAB_BYTES at a time; a
        permutation's images are in range and distinct, so no row is
        checked as `find` checks it."""
        out = np.empty((len(perms), len(self)), dtype=np.int32)
        for rows, pts in self.groups:
            per = max(1, _SLAB_BYTES // (64 * len(self._keys)))  # sets per slab, 64 bytes per key word
            for r in range(0, len(rows), per):
                sets = pts[r : r + per]
                step = max(1, per // len(sets))  # elements per slab
                for g in range(0, len(perms), step):
                    words = _mask_words(perms[g : g + step, sets], self.v)
                    found = self._lookup(words.reshape(-1, words.shape[-1]).T)
                    out[g : g + step, rows[r : r + per]] = found.reshape(-1, len(sets))
        return out


def _vertex_index(g: Graph) -> _Labels:
    """The record of a graph's vertex family, rows in vertex order: the one
    function that turns a graph into its record.  A graph built from a
    record keeps it; one given label tuples (tag, W) gets its record here
    on first use, one run per run of labels of one tag and dimension, and
    keeps it.  ValueError if the graph has no vertices, or names the first
    label that is no (tag, Subspace) pair or whose W lies in another space
    than vertex 0's; a run of bare subspaces holds no such pairs."""
    if g._family is None:
        labels = g.labels
        if not labels:
            raise ValueError("the graph has no vertices")
        ws = [label[1] if isinstance(label, tuple) and len(label) == 2 else None for label in labels]
        for j, w in enumerate(ws):  # ws[0] is checked first, so it is a Subspace when read
            if not isinstance(w, Subspace) or (w.field, w.ambient_dim) != (ws[0].field, ws[0].ambient_dim):
                raise ValueError(f"vertex {j} has label {labels[j]!r}: labels must be (tag, Subspace) pairs of one space")
        runs = [list(run) for _, run in groupby(labels, lambda label: (label[0], label[1].dim))]
        g._family = _Labels.of(ws[0].field, *[(run[0][0], _bases([w for _, w in run])) for run in runs])
    sizes = [len(bases) for _, bases, _ in g._family.runs]  # a bare run's first vertex is refused
    if (bare := next((sum(sizes[:i]) for i, (tag, *_) in enumerate(g._family.runs) if tag is None), None)) is not None:
        raise ValueError(f"vertex {bare} has label {g._labels[bare]!r}: labels must be (tag, Subspace) pairs of one space")
    return g._family


def _pair_counts(groups, v: int):
    """Yield (start, counts) with counts = n[start:start+64] @ n[start:].T.

    The one pairwise-intersection kernel: n is the float32 `_incidence` of
    point sets over v points, grouped by size (`_by_size`), scattered from
    the groups, and counts[i, j] is the number of points that sets start+i
    and start+j share.  Each row block meets only the rows from its own
    start on, so every pair j >= i is formed once and the lower triangle
    never; a caller that needs a pair i > j reads it as (j, i).  The
    products run in float32 through BLAS, which is exact while every sum is
    below 2**24; row blocks keep the full rows x rows matrix out of memory.
    Every counts is a view of one buffer, which the next block overwrites.
    """
    if v >= _EXACT_F32:
        raise ValueError(f"{v} columns exceed exact float32 counting")
    f = _incidence(groups, v, np.float32)
    out = np.empty((_BLOCK_ROWS, len(f)), dtype=np.float32)
    for start in range(0, len(f), _BLOCK_ROWS):
        rows = f[start : start + _BLOCK_ROWS]
        yield start, np.matmul(rows, f[start:].T, out=out[: len(rows), : len(f) - start])


def _count_graph(labels, groups, v: int, target, family=None) -> Graph:
    """The graph on point sets over v points, grouped by size (`_by_size`),
    one per label: sets i != j are adjacent when they share
    target[family[i]][family[j]] points, or `target` points when no
    families are given.

    Each row block of `_pair_counts` fills its rows from its own start on
    (start is a multiple of 64, so a whole byte), and the same rows left of
    the block are the transpose of the block's 64 columns in the rows above
    it (`_transpose_strip`), which their own blocks wrote before, so every
    byte is written once."""
    n = len(labels)
    if family is None:
        family = np.zeros(n, dtype=np.intp)
        target = [[target]]
    # row a: the count that makes a family-a row adjacent to each row
    target = np.asarray(target, dtype=np.float32)[:, family]
    adj = np.empty((n, (n + 7) // 8), dtype=np.uint8)
    hits = np.empty((_BLOCK_ROWS, n), dtype=bool)
    for start, counts in _pair_counts(groups, v):
        size = len(counts)
        hit = hits[:size, : counts.shape[1]]
        block = family[start : start + size]
        runs = [0, *(np.flatnonzero(np.diff(block)) + 1).tolist(), size]  # rows of one family
        for a, b in zip(runs, runs[1:]):
            np.equal(counts[a:b], target[block[a], start:], out=hit[a:b])
        hit[np.arange(size), np.arange(size)] = False
        adj[start : start + size, start // 8 :] = np.packbits(hit, axis=1, bitorder="little")
        adj[start : start + size, : start // 8] = _transpose_strip(adj, start, start // 8)[:size]
    return Graph(labels, adj)


def grassmann_graph(n: int, k: int, q: int) -> Graph:
    """J_q(n,k): k-subspaces of GF(q)^n, adjacent when meeting in dim k-1."""
    if not 1 <= k <= n - 1:
        raise ValueError(f"need 1 <= k <= n-1, got k={k}, n={n}")
    field = field_from_order(q)
    labels = _Labels.of(field, (None, _all_bases(full_space(field, n), k)))
    return _count_graph(labels, labels.groups, labels.points, _point_count(k - 1, q))


def twisted_grassmann(field: Field, e: int, h: Subspace = None, s: Polarity = None) -> Graph:
    """The van Dam-Koolen twisted Grassmann graph on A ∪ B.

    A holds the (e+1)-subspaces of V not inside h, B the (e-1)-subspaces
    of h; A vertices come first.  Adjacency: A-A pairs meet in dim e,
    an A vertex covers its B neighbors, B-B pairs meet in dim e-2.  The
    polarity argument is accepted for signature parity with the design
    constructor; the graph itself never consults it.
    """
    return _Instance(field, e, h, s).graph


def pg_design(field: Field, e: int) -> Design:
    """The geometric design: points of PG(2e,q), blocks the (e+1)-subspaces."""
    if e < 1:
        raise ValueError(f"e must be >= 1, got {e}")
    labels = _Labels.of(field, ("PG", _all_bases(full_space(field, 2 * e + 1), e + 1)))
    return Design(_point_order(field, 2 * e + 1)[0], labels.runs[0][2], labels)


@dataclass(frozen=True)
class _Sigma:
    """sigma of every point of [h] under one polarity (see `_sigma`)."""

    points: np.ndarray  # the points c of [h], in index order
    images: tuple  # sigma(c) of each, as a subspace
    sets: np.ndarray  # the point set of each sigma(c), one sorted row per c
    index: _SetIndex  # the index of those point sets, rows in the order of points


@lru_cache(maxsize=None)
def _sigma(s: Polarity) -> _Sigma:
    """The one table of sigma images of a polarity: each sigma(c) is a
    hyperplane of h, given for every point c of [h]."""
    points = _point_order(s.field, s.h.ambient_dim)[0]
    h_points = _point_array([s.h])[0].astype(np.intp)
    images = tuple(s.apply(Subspace(s.field, s.h.ambient_dim, (points[c].rep,))) for c in h_points.tolist())
    sets = _point_array(images)
    return _Sigma(h_points, images, sets, _SetIndex(_by_size([sets]), len(points)))


def _block_map(labels: _Labels, h: Subspace, s: Polarity) -> np.ndarray:
    """f of each subspace W of a record (see `f_map`), one sorted row of
    [e+1]_q point indices each: with N the 0/1 rows of the record's point
    sets, one product N_h.S per slab of rows (module docstring); outside
    h, f(W) holds the points of W.  A W is made only when an error names it."""
    if h.dim % 2 != 0 or h.ambient_dim != h.dim + 1:
        raise ValueError("h must be a hyperplane of odd-dimensional ambient space")
    if s.h != h:
        raise ValueError("polarity is not a polarity of h")
    if (labels.field, labels.n) != (h.field, h.ambient_dim):
        raise ValueError("w and h live in different ambient spaces")
    e, v = h.dim // 2, labels.points
    k, k_b = _point_count(e + 1, h.field.q), _point_count(e - 1, h.field.q)
    sigma = _sigma(s)
    # S[c, x] = 1 when the point x lies in sigma(c), for points c and x of [h]
    # (every sigma(c) lies in [h]), rows and columns in the order of sigma.points
    sig = _incidence(_by_size([np.searchsorted(sigma.points, sigma.sets)]), len(sigma.points), np.float32)
    out = np.empty((len(labels), k), dtype=_index_dtype(v))
    for rows, n in _row_chunks(labels.groups, v, max(1, _SLAB_BYTES // (16 * v))):  # about 16 bytes a column
        on_h = n[:, sigma.points]
        size, inside = n.sum(axis=1), on_h.sum(axis=1)
        # a point set of [e+1]_q points is an (e+1)-subspace, one of [e-1]_q an (e-1)-subspace
        if not (((size == k) & (inside < size)) | ((size == k_b) & (inside == size))).all():
            raise ValueError("w is in neither vertex family of the twisted graph")
        # outside [h], the points of W; in [h], the points in sigma(c) for all
        # |W ∩ h| points c of W ∩ h (all of [h] when there are none: sigma(0) = h)
        blocks = n > 0
        blocks[:, sigma.points] = on_h @ sig == inside[:, None]
        if (wrong := np.flatnonzero(blocks.sum(axis=1) != k)).size:
            raise ValueError(f"f of {labels.pair(rows[wrong[0]])[1]} has {blocks[wrong[0]].sum()} points, not {k}")
        out[rows] = (np.flatnonzero(blocks) % v).reshape(len(blocks), k)  # 2-D nonzero is several times slower
    return out


def f_map(w: Subspace, h: Subspace, s: Polarity) -> frozenset:
    """The block of point indices assigned to a twisted-graph vertex.

    For w in the A family: points of s(w ∩ h) together with the points
    of w outside h.  For w in the B family: points of s(w).  Either way
    the block has (q^(e+1)-1)/(q-1) points.  s(U) is the intersection of
    s(c) over the points c of U.  A batch of one of `_block_map`.
    """
    return frozenset(_block_map(_Labels.of(w.field, (None, _bases([w]))), h, s)[0].tolist())


def jt_design(field: Field, e: int, h: Subspace = None, s: Polarity = None) -> Design:
    """The Jungnickel-Tonchev design: f-images of the A family, then the
    point sets of the (e+1)-subspaces of h."""
    return _Instance(field, e, h, s).jt


def block_graph(d: Design, threshold: int) -> Graph:
    """Blocks as vertices, adjacent when the intersection size hits threshold."""
    if threshold < 0:
        raise ValueError("threshold must be >= 0")
    return _count_graph(d._block_labels, d.index.groups, d.v, threshold)


def intersection_spectrum(d: Design) -> Counter:
    """Multiset of |B1 ∩ B2| over unordered distinct block pairs."""
    hist = np.zeros(d.v + 1, dtype=np.int64)
    for _, counts in _pair_counts(d.index.groups, d.v):
        size = len(counts)
        # the pairs j > i: above the diagonal of the block's own rows, then every later row
        for part in counts[np.triu_indices(size, 1)], counts[:, size:]:
            hist += np.bincount(part.astype(np.intp).ravel(), minlength=d.v + 1)
    return Counter({size: int(c) for size, c in enumerate(hist) if c})


@dataclass(frozen=True)
class IsoCertificate:
    """An explicit vertex permutation claimed to be an isomorphism: mapping
    holds the image of each vertex, integers that permute 0..n-1 (read by
    `_permutation`), kept as Python ints."""

    mapping: tuple
    source: str
    target: str

    def __post_init__(self):
        object.__setattr__(self, "mapping", tuple(_permutation(self.mapping, "mapping").tolist()))

    def to_json(self):
        return {"mapping": list(self.mapping), "source": self.source, "target": self.target}


def _certificate(d: Design, blocks) -> IsoCertificate:
    """The block map as an index permutation: vertex i goes to the block of
    d holding exactly the point indices of row i of the 2-D array blocks.
    ValueError names the first vertex whose image is not a block of d."""
    mapping = d.index.find(blocks)
    if (missing := np.flatnonzero(mapping < 0)).size:
        i = int(missing[0])
        raise ValueError(f"f of vertex {i} is not a block of the design: {tuple(blocks[i].tolist())}")
    return IsoCertificate(mapping, source=f"twisted-grassmann[{len(blocks)}]", target=f"design-blocks[{d.b}]")


class _Instance:
    """One instance (field, e, h, s): the twisted graph, the block map f and
    the JT design, with what the checks read beside them.  Each is built the
    first time it is read, and only once; the instance holds point-set
    arrays, never incidence matrices.  h defaults to the coordinate
    hyperplane and s to the identity-gram polarity of h; only f, and what is
    built from it, consults s."""

    def __init__(self, field: Field, e: int, h: Subspace = None, s: Polarity = None):
        if e < 2:
            raise ValueError(f"e must be >= 2, got {e}")
        n = 2 * e + 1
        if h is None:
            h = coordinate_hyperplane(field, n)
        if h.ambient_dim != n or h.dim != n - 1:
            raise ValueError(f"h must be a hyperplane of GF({field.q})^{n}")
        if h.field != field:
            raise ValueError("h is defined over a different field")
        self.field, self.e, self.h = field, e, h
        self.s = polarity_new(field, h) if s is None else s
        self.points = _point_order(field, n)[0]

    @cached_property
    def _subspaces(self):
        """The RREF bases of the (e+1)-subspaces of V, from one enumeration,
        and their point-set array."""
        bases = _all_bases(full_space(self.field, 2 * self.e + 1), self.e + 1)
        return bases, _basis_points(self.field, bases)

    @cached_property
    def families(self):
        """(A, B, the blocks inside h), each a run of a `_Labels` record:
        (tag, RREF bases, point-set array), tagged "A", "B" and "B".

        A holds the (e+1)-subspaces of V with a point off [h]; the rest are
        the (e+1)-subspaces of h, in h's own enumeration order (module
        docstring).  B holds the (e-1)-subspaces of h."""
        bases, sets = self._subspaces
        in_h = np.zeros(len(self.points), dtype=bool)
        in_h[_point_array([self.h])[0]] = True
        off = ~in_h[sets].all(axis=1)
        b = _all_bases(self.h, self.e - 1)
        return ("A", bases[off], sets[off]), ("B", b, _basis_points(self.field, b)), ("B", bases[~off], sets[~off])

    @cached_property
    def labels(self) -> _Labels:
        """The vertex record: ("A", W) for each of A, then ("B", W) for each
        of B, each made when it is read, and their point sets and index."""
        return _Labels(self.field, self.families[:2])

    @cached_property
    def graph(self) -> Graph:
        """The twisted Grassmann graph (see `twisted_grassmann`)."""
        q, e, v = self.field.q, self.e, len(self.points)
        # families i and j (A = 0, B = 1) are adjacent on [e-i-j]_q shared
        # points; A covering B means all [e-1]_q points of B lie in A.
        target = [[_point_count(e - i - j, q) for j in range(2)] for i in range(2)]
        family = np.repeat([0, 1], [len(bases) for _, bases, _ in self.labels.runs])
        return _count_graph(self.labels, self.labels.groups, v, target, family)

    @cached_property
    def f(self) -> np.ndarray:
        """f(W) of every vertex, in vertex order: one sorted row of [e+1]_q
        point indices each."""
        return _block_map(self.labels, self.h, self.s)

    @cached_property
    def jt(self) -> Design:
        """The JT design: the blocks f(A), then the blocks inside h."""
        a, _, inside = self.families  # runs (tag, RREF bases, point sets)
        return Design(self.points, np.vstack([self.f[: len(a[1])], inside[2]]), _Labels(self.field, [a, inside]))

    @cached_property
    def pg(self) -> Design:
        """The geometric design, from the same enumeration as the families
        (see `pg_design`)."""
        bases, sets = self._subspaces
        return Design(self.points, sets, _Labels(self.field, [("PG", bases, sets)]))

    @cached_property
    def certificate(self) -> IsoCertificate:
        """The JT block of every f(W), as `f_certificate` gives it."""
        return _certificate(self.jt, self.f)
