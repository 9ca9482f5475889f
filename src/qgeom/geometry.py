"""Grassmann and twisted Grassmann graphs, geometric and
pseudo-geometric designs, and the block map tying them together.

Vertex and block orders are deterministic: subspace enumeration order
throughout, with the twisted graph listing its A-family (subspaces not
inside the hyperplane) before its B-family.  Designs index points by
the sorted list of canonical projective representatives.

One instance (field, e, h, s) is one `_Instance`: the twisted graph, the
block map f, the JT design and the geometric design, the certificate
and the vertex point-set index, each built the first time it is read and
kept.  `twisted_grassmann` and `jt_design` read it, and a verify run
shares one across its checks.  The families are chosen by point sets
from one enumeration of the (e+1)-subspaces of V: A has a point off [h],
and the rest, the JT design's blocks inside h, come in the order of h's
own enumeration.  In each row of a basis inside h, the one column off
h's pivots is fixed by the row's earlier entries, so two such bases
first differ in a column both orders compare.

The instance holds each family as two arrays, its RREF bases (from
`subspace._rref_slabs`) and its point sets, and nothing else.  A label
(tag, W) of a vertex or block is made from its basis row only when it is
read (`_Labels`): the graph and the designs keep that sequence, and
`Graph.labels` and `Design.block_labels` are the tuples made from it the
first time they are read.  No check that passes, and no export, reads them.

Every point set comes from one batched point action, `_point_images`:
x -> M.frob^i(x), GF(q)^k to GF(q)^n with q = p^f, is GF(p)-linear on
p-digits, so a batch of (n x k) matrices maps all points in one integer
product mod p.  Square maps give `autgroup` its point permutations; the
transposed RREF basis of a k-subspace gives its points (`_point_sets`).
`_SetIndex` finds point sets among many by their point masks, exactly:
the instance's vertex index, the sigma point sets, and the blocks of a
design.  Point sets of several sizes are held as `_by_size` gives them:
per size, the numbers of the sets of that size and one 2-D array of
their points.

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
subspaces or blocks is the 0/1 incidence matrix N of those point sets,
and all intersection sizes are entries of N·Nᵀ, computed by
`_pair_counts` in blocks of 64 rows, each against the rows from its own
start on: only the upper triangle j >= i is formed, and every caller
reads a pair i < j there.  A d-dimensional subspace has [d]_q =
(q^d-1)/(q-1) points, so intersection dimensions are read off as point
counts.

A graph is one packed adjacency matrix: `_count_graph` packs each row
block of counts straight into its rows from the block's start on, and
mirrors the block into its own 64 columns of the rows below it.  The
operations that need 0/1 columns unpack at most 64 rows at a time
(`_row_strips`).

The block map f works on the same point sets.  A polarity sigma of h
reverses inclusion, so sigma(U) is the intersection of sigma(c) over
the points c of U; `_sigma` holds sigma(c) once per point c of [h], in
one record per polarity: the points c, the subspaces sigma(c) (read by
the literal `autgroup.lift`), their point-set array and its `_SetIndex`
(read by the batched lift).  With S[c, x] = 1 when x lies in
sigma(c), x lies in sigma(W ∩ h) when W's row of points in [h] times S
reaches |W ∩ h| at x, so `_block_map` forms many blocks in one product.
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
from .polarity import Polarity, polarity_new
from .subspace import Subspace, _rref_slabs, coordinate_hyperplane, enumerate_k_subspaces, full_space, projective_points


class Graph:
    """Undirected graph: labels plus `adj`, a read-only (n, ceil(n/8))
    uint8 matrix whose bit j of row i, little-endian within each byte,
    is set when vertices i and j are adjacent.  Labels given as a
    `_Labels` sequence are kept as given, and made a tuple when first read."""

    __slots__ = ("_labels", "adj", "__weakref__")

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
        # Symmetry, 64 rows at a time: those rows against the same 64 columns.
        for start, rows in _row_strips(adj, n):
            cols = adj[:, start // 8 : (start + _BLOCK_ROWS) // 8]
            cols = np.unpackbits(cols, axis=1, count=len(rows), bitorder="little")
            if not np.array_equal(rows, cols.T):
                raise ValueError("adjacency is not symmetric")
        adj = adj.view()
        adj.flags.writeable = False
        self._labels = labels
        self.adj = adj

    @classmethod
    def from_edges(cls, n: int, edges, labels=None):
        pairs = [_indices(e, f"edge {i}") for i, e in enumerate(edges)]
        try:
            ends = np.array(pairs, dtype=np.intp).reshape(len(pairs), 2)  # a 4-tuple is no two edges
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
    """values as Python ints; a bool or another non-integer raises ValueError."""
    values = tuple(values)
    types = set(map(type, values))  # checked per type: a design has many blocks
    if any(t is bool or not issubclass(t, (int, np.integer)) for t in types):
        raise ValueError(f"{what} has an index that is not an integer: {values}")
    return values if types <= {int} else tuple(map(int, values))


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
    Block labels given as a `_Labels` sequence are kept as given, and made
    a tuple when first read, as `blocks` is.
    """

    __slots__ = ("points", "_block_labels", "index", "_blocks", "__weakref__")

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
        first = self.index.find(self.index.columns)  # the first block with each key
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
        if (len(pts) and pts.dtype.kind not in "iu") or len(np.unique(pts)) < len(pts):
            return -1
        if not ((0 <= pts) & (pts < self.v)).all():
            return -1
        return int(self.index.find(_mask_words(pts.astype(np.intp), self.v)[:, None])[0])

    def block_index(self, block) -> int:
        if (row := self._row(block)) < 0:
            raise KeyError(block)
        return row

    def has_block(self, block) -> bool:
        return self._row(block) >= 0

    def incidence(self) -> np.ndarray:
        """The b x v 0/1 incidence matrix (uint8), rows in block order."""
        out = np.zeros((self.b, self.v), dtype=np.uint8)
        for rows, pts in self.index.groups:
            out[rows[:, None], pts] = 1
        return out

    def __repr__(self):
        return f"Design(v={self.v}, b={self.b})"


class _Labels:
    """Labels (tag, W) held as runs of (tag, RREF bases): row i is the i-th
    basis across the runs, with its run's tag.  Its Subspace is made from
    the basis row, through the validating constructor, each time the row
    is read."""

    __slots__ = ("field", "runs")

    def __init__(self, field: Field, runs):
        self.field = field
        self.runs = tuple(runs)  # (tag, a (count, k, n) uint8 array of bases) each

    def __len__(self):
        return sum(len(bases) for _, bases in self.runs)

    def __getitem__(self, i):
        i = operator.index(i)
        for tag, bases in self.runs:  # i counts on from one run to the next
            if 0 <= i < len(bases):
                return tag, self._subspace(bases[i])
            i -= len(bases)
        raise IndexError("label index out of range")

    def __iter__(self):
        for tag, bases in self.runs:
            for basis in bases:
                yield tag, self._subspace(basis)

    def _subspace(self, basis: np.ndarray) -> Subspace:
        return Subspace(self.field, basis.shape[1], tuple(map(tuple, basis.tolist())))


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
    """(mul, digit, basis): the field's product table; digit[x, d], the
    d-th p-digit of x; and basis[i, k] = frob^i(p^k), the image of the
    k-th GF(p)-basis element under the i-th Frobenius power."""
    p, f = field.p, field.f
    mul = np.array(field._mul, dtype=np.intp)
    digit = (np.arange(field.q)[:, None] // p ** np.arange(f) % p).astype(np.uint8)
    basis = np.array([[field.frobenius(p ** k, i) for k in range(f)] for i in range(f)], dtype=np.intp)
    return mul, digit, basis


@lru_cache(maxsize=None)
def _vector_tables(field: Field, n: int):
    """(digits, radix, point_of) for GF(q)^n read as GF(p)^(n*f).

    digits holds the p-digit expansion of each canonical point
    representative, coordinate-major; radix turns an expansion into the
    vector's code, the sum of x_r q^(n-1-r); point_of[code] is the point
    of each of the (q-1)v nonzero vectors, so no image is rescaled.
    """
    points = _point_order(field, n)[0]
    mul, digit, _ = _field_arrays(field)
    reps = np.array([pt.rep for pt in points], dtype=np.intp)
    weights = field.q ** np.arange(n - 1, -1, -1, dtype=np.int64)
    radix = (weights[:, None] * field.p ** np.arange(field.f)).ravel()
    point_of = np.zeros(field.q ** n, dtype=_index_dtype(len(points)))
    point_of[mul[1:][:, reps] @ weights] = np.arange(len(points))
    return digit[reps].reshape(len(points), -1), radix, point_of


def _point_images(field: Field, mats: np.ndarray, frobs: np.ndarray) -> np.ndarray:
    """Entry (g, j): the point of GF(q)^n that the map x -> mats[g].frob^frobs[g](x)
    sends point j of GF(q)^k to, for (n x k) matrices of rank k.  Maps are
    taken a slab of about _SLAB_BYTES of temporaries at a time."""
    mul, digit, basis = _field_arrays(field)
    n, k = mats.shape[1:]
    digits = _vector_tables(field, k)[0]
    _, radix, point_of = _vector_tables(field, n)
    # int32 where a sum of products could leave uint8
    dtype = np.dtype(np.int32 if digits.shape[1] * (field.p - 1) ** 2 > 255 else np.uint8)
    out = np.empty((len(mats), len(digits)), dtype=point_of.dtype)
    # per map: the image digits, their int64 copy for the product with radix, the codes
    per = max(1, _SLAB_BYTES // (len(digits) * (len(radix) * (dtype.itemsize + 8) + 8)))
    for start in range(0, len(mats), per):
        m, i = mats[start : start + per], frobs[start : start + per]
        # block (r, c) of a map is the f x f GF(p) matrix of x -> M[r,c].frob^i(x):
        # column t holds the digits of M[r,c].frob^i(p^t)
        parts = digit[mul[m[..., None], basis[i][:, None, None]]]  # map, r, c, t, d
        expanded = parts.transpose(0, 1, 4, 2, 3).reshape(len(m), len(radix), -1).astype(dtype, copy=False)
        images = digits @ expanded.transpose(0, 2, 1) % field.p
        out[start : start + per] = point_of[images @ radix]
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


def _point_array(subspaces) -> np.ndarray:
    """The point sets of subspaces of one dimension, one sorted row each."""
    w = subspaces[0]
    bases = np.array([u.basis_rows for u in subspaces], dtype=np.uint8)
    return _basis_points(w.field, bases.reshape(len(subspaces), w.dim, w.ambient_dim))


def _all_bases(ambient: Subspace, k: int) -> np.ndarray:
    """The RREF bases of the k-subspaces of ambient, in enumeration order,
    as one (count, k, n) uint8 array."""
    return np.concatenate([*_rref_slabs(ambient, k)])


def _point_sets(subspaces) -> list:
    """The point sets of subspaces (one field and ambient space) grouped by
    size (`_by_size`), one `_point_array` batch per run of one dimension."""
    return _by_size([_point_array(list(run)) for _, run in groupby(subspaces, lambda w: w.dim)])


def _by_size(arrays) -> list:
    """Point sets given as the rows of 2-D arrays, numbered on from one
    array to the next, as (numbers, points) per set size: the numbers of
    the sets of that size and their points, one row each."""
    groups, start = {}, 0
    for a in arrays:
        groups.setdefault(a.shape[1], []).append((np.arange(start, start + len(a)), a))
        start += len(a)
    return [tuple(np.concatenate(part) for part in zip(*parts)) for parts in groups.values()]


def _point_count(d: int, q: int) -> int:
    """[d]_q, the number of points of a d-dimensional subspace ([0]_q = 0)."""
    return (q ** d - 1) // (q - 1)


def _incidence(point_sets: np.ndarray, v: int) -> np.ndarray:
    """One uint8 row per row of a 2-D point-index array, with a 1 in each of
    its v columns that the row holds."""
    out = np.zeros((len(point_sets), v), dtype=np.uint8)
    np.put_along_axis(out, point_sets.astype(np.intp), 1, axis=1)
    return out


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


class _SetIndex:
    """An exact hashed index of point sets over v points.

    The key of a set is the ceil(v/64) words of its point mask.  Keys sit
    in an open-addressed table with linear probing, found by the top bits
    of a multiplicative hash; a lookup answers a row only after comparing
    every word of the key, so a hash collision is never taken as a match.
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
        self.columns = list(keys)  # word w of every key, contiguous
        self.bits = max(1, 4 * len(self) - 1).bit_length()  # load at most 1/4
        self.slots = np.full(1 << self.bits, -1, dtype=np.intp)
        home = self._home(self.columns)
        pending = np.arange(len(self))
        self.max_probe = -1
        while pending.size:  # round r places keys at home + r, first come first
            self.max_probe += 1
            at = (home[pending] + self.max_probe) & (len(self.slots) - 1)
            free = np.flatnonzero(self.slots[at] < 0)
            at, first = np.unique(at[free], return_index=True)
            self.slots[at] = pending[free[first]]
            pending = np.delete(pending, free[first])

    def __len__(self):
        return len(self.columns[0])

    def _home(self, words) -> np.ndarray:
        h = words[0] * _MIX
        for word in words[1:]:
            h = (h ^ word) * _MIX
        return (h >> np.uint64(64 - self.bits)).astype(np.intp)

    def _matches(self, slot: np.ndarray, words) -> np.ndarray:
        """Is each slot filled with a key equal to words in every word?"""
        same = slot >= 0
        for column, word in zip(self.columns, words):
            same &= column[slot] == word
        return same

    def find(self, words) -> np.ndarray:
        """The row of each set given by its mask words, or -1 if absent.
        words[w] holds word w of every set, as `columns` holds the keys': a
        list of word arrays, or the transpose of `_mask_words` rows."""
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
            slot = self.slots[(at[todo] + probe) & (len(self.slots) - 1)]
            same = self._matches(slot, [word[todo] for word in words])
            out[todo[same]] = slot[same]
            todo = todo[(slot >= 0) & ~same]
        return out

    def images(self, perms: np.ndarray) -> np.ndarray:
        """Entry (g, j): the row of the image of set j under the point
        permutation perms[g], or -1 where that image is not a set here.
        Images are formed a slab of about _SLAB_BYTES at a time."""
        out = np.empty((len(perms), len(self)), dtype=np.int32)
        for rows, pts in self.groups:
            per = max(1, _SLAB_BYTES // (64 * len(self.columns)))  # sets per slab, 64 bytes per key word
            for r in range(0, len(rows), per):
                sets = pts[r : r + per]
                step = max(1, per // len(sets))  # elements per slab
                for g in range(0, len(perms), step):
                    words = _mask_words(perms[g : g + step, sets], self.v)
                    found = self.find(words.reshape(-1, words.shape[-1]).T)
                    out[g : g + step, rows[r : r + per]] = found.reshape(-1, len(sets))
        return out


def _pair_counts(n: np.ndarray):
    """Yield (start, counts) with counts = n[start:start+64] @ n[start:].T.

    The one pairwise-intersection kernel: for a 0/1 matrix n, counts[i, j]
    is the number of columns where rows start+i and start+j both hold a 1.
    Each row block meets only the rows from its own start on, so every pair
    j >= i is formed once and the lower triangle never; a caller that needs
    a pair i > j reads it as (j, i).  The products run in float32 through
    BLAS, which is exact while every sum is below 2**24; row blocks keep
    the full rows x rows matrix out of memory.  Every counts is a view of
    one buffer, which the next block overwrites.
    """
    if n.shape[1] >= _EXACT_F32:
        raise ValueError(f"{n.shape[1]} columns exceed exact float32 counting")
    f = n.astype(np.float32)
    out = np.empty((_BLOCK_ROWS, len(f)), dtype=np.float32)
    for start in range(0, len(f), _BLOCK_ROWS):
        rows = f[start : start + _BLOCK_ROWS]
        yield start, np.matmul(rows, f[start:].T, out=out[: len(rows), : len(f) - start])


def _count_graph(labels, n: np.ndarray, target, family=None) -> Graph:
    """The graph on the rows of n: rows i != j are adjacent when they share
    target[family[i]][family[j]] columns, or `target` columns when no
    families are given.

    Each row block of `_pair_counts` fills its rows from its own start on,
    and its transpose fills its 64 columns (8 bytes, as _BLOCK_ROWS is a
    multiple of 8) in the rows below it, so every byte is written once."""
    if family is None:
        family = np.zeros(len(n), dtype=np.intp)
        target = [[target]]
    # row a: the count that makes a family-a row adjacent to each row
    target = np.asarray(target, dtype=np.float32)[:, family]
    adj = np.empty((len(n), (len(n) + 7) // 8), dtype=np.uint8)
    hits = np.empty((_BLOCK_ROWS, len(n)), dtype=bool)
    for start, counts in _pair_counts(n):
        size = len(counts)
        hit = hits[:size, : counts.shape[1]]
        block = family[start : start + size]
        for a in range(block.min(), block.max() + 1):  # the families of the block's rows
            np.equal(counts, target[a, start:], out=hit, where=(block == a)[:, None])
        hit[np.arange(size), np.arange(size)] = False
        adj[start : start + size, start // 8 :] = np.packbits(hit, axis=1, bitorder="little")
        # byte b of row start+size+j: the hits of rows start+8b..start+8b+7 in column j
        col = start // 8
        adj[start + size :, col : col + 8] = np.packbits(hit[:, size:], axis=0, bitorder="little").T
    return Graph(labels, adj)


def grassmann_graph(n: int, k: int, q: int) -> Graph:
    """J_q(n,k): k-subspaces of GF(q)^n, adjacent when meeting in dim k-1."""
    if not 1 <= k <= n - 1:
        raise ValueError(f"need 1 <= k <= n-1, got k={k}, n={n}")
    field = field_from_order(q)
    subs = list(enumerate_k_subspaces(full_space(field, n), k))
    inc = _incidence(_point_array(subs), len(_point_order(field, n)[0]))
    return _count_graph(subs, inc, _point_count(k - 1, q))


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
    bases = _all_bases(full_space(field, 2 * e + 1), e + 1)
    points = _point_order(field, 2 * e + 1)[0]
    return Design(points, _basis_points(field, bases), _Labels(field, [("PG", bases)]))


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


def _block_map(labels, groups, h: Subspace, s: Polarity) -> np.ndarray:
    """f of each subspace W of GF(q)^n (see `f_map`), one sorted row of
    [e+1]_q point indices each, given their point sets grouped by size
    (`_by_size`): with N the 0/1 rows of those sets, one product N_h.S per
    slab of rows (module docstring); outside h, f(W) holds the points of W.
    Row i of labels is (tag, W) for set i; only a W named in an error is read."""
    if h.dim % 2 != 0 or h.ambient_dim != h.dim + 1:
        raise ValueError("h must be a hyperplane of odd-dimensional ambient space")
    if s.h != h:
        raise ValueError("polarity is not a polarity of h")
    e = h.dim // 2
    v = len(_point_order(h.field, h.ambient_dim)[0])
    k, k_b = _point_count(e + 1, h.field.q), _point_count(e - 1, h.field.q)
    sigma = _sigma(s)
    in_h = np.isin(np.arange(v), sigma.points)
    # S[c, x] = 1 when the point x lies in sigma(c), one row per point c of [h]
    sig = _incidence(sigma.sets, v).astype(np.float32)
    out = np.empty((sum(len(rows) for rows, _ in groups), k), dtype=_index_dtype(v))
    per = max(1, _SLAB_BYTES // (8 * v))  # rows per slab, about 8 bytes a column
    for rows, pts in groups:
        for start in range(0, len(rows), per):
            n = _incidence(pts[start : start + per], v)
            size, inside = n.sum(axis=1), n[:, in_h].sum(axis=1)
            # a point set of [e+1]_q points is an (e+1)-subspace, one of [e-1]_q an (e-1)-subspace
            if not (((size == k) & (inside < size)) | ((size == k_b) & (inside == size))).all():
                raise ValueError("w is in neither vertex family of the twisted graph")
            # in [h], the points in sigma(c) for all |W ∩ h| points c of W ∩ h (all
            # of [h] when there are none: sigma(0) = h); outside [h], those of W
            blocks = np.where(in_h, n[:, sigma.points].astype(np.float32) @ sig == inside[:, None], n > 0)
            if (wrong := np.flatnonzero(blocks.sum(axis=1) != k)).size:
                raise ValueError(f"f of {labels[rows[start + wrong[0]]][1]} has {blocks[wrong[0]].sum()} points, not {k}")
            out[rows[start : start + per]] = np.nonzero(blocks)[1].reshape(len(blocks), k)
    return out


def f_map(w: Subspace, h: Subspace, s: Polarity) -> frozenset:
    """The block of point indices assigned to a twisted-graph vertex.

    For w in the A family: points of s(w ∩ h) together with the points
    of w outside h.  For w in the B family: points of s(w).  Either way
    the block has (q^(e+1)-1)/(q-1) points.  s(U) is the intersection of
    s(c) over the points c of U.  A batch of one of `_block_map`.
    """
    return frozenset(_block_map([(None, w)], _vertex_sets([w], h), h, s)[0].tolist())


def _vertex_sets(ws, h: Subspace) -> list:
    """The point sets of the subspaces ws, grouped by size (`_point_sets`),
    once each is known to live in h's ambient space."""
    if any(w.field != h.field or w.ambient_dim != h.ambient_dim for w in ws):
        raise ValueError("w and h live in different ambient spaces")
    return _point_sets(ws)


def jt_design(field: Field, e: int, h: Subspace = None, s: Polarity = None) -> Design:
    """The Jungnickel-Tonchev design: f-images of the A family, then the
    point sets of the (e+1)-subspaces of h."""
    return _Instance(field, e, h, s).jt


def block_graph(d: Design, threshold: int) -> Graph:
    """Blocks as vertices, adjacent when the intersection size hits threshold."""
    if threshold < 0:
        raise ValueError("threshold must be >= 0")
    return _count_graph(d._block_labels, d.incidence(), threshold)


def intersection_spectrum(d: Design) -> Counter:
    """Multiset of |B1 ∩ B2| over unordered distinct block pairs."""
    hist = np.zeros(d.v + 1, dtype=np.int64)
    for _, counts in _pair_counts(d.incidence()):
        size = len(counts)
        # the pairs j > i: above the diagonal of the block's own rows, then every later row
        for part in counts[np.triu_indices(size, 1)], counts[:, size:]:
            hist += np.bincount(part.astype(np.intp).ravel(), minlength=d.v + 1)
    return Counter({size: int(c) for size, c in enumerate(hist) if c})


@dataclass(frozen=True)
class IsoCertificate:
    """An explicit vertex permutation claimed to be an isomorphism."""

    mapping: tuple
    source: str
    target: str

    def __post_init__(self):
        n = len(self.mapping)
        if sorted(self.mapping) != list(range(n)):
            raise ValueError("mapping is not a bijection of 0..n-1")

    def to_json(self):
        return {"mapping": list(self.mapping), "source": self.source, "target": self.target}


def _certificate(d: Design, blocks) -> IsoCertificate:
    """The block map as an index permutation: vertex i goes to the block of
    d holding exactly the point indices of row i of the 2-D array blocks.
    ValueError names the first vertex whose image is not a block of d."""
    inside = (blocks < d.v).all(axis=1)  # a point past d's is in no block of d
    mapping = np.where(inside, d.index.find(_mask_words(np.where(inside[:, None], blocks, 0), d.v).T), -1)
    if (missing := np.flatnonzero(mapping < 0)).size:
        i = int(missing[0])
        raise ValueError(f"f of vertex {i} is not a block of the design: {tuple(blocks[i].tolist())}")
    return IsoCertificate(tuple(mapping.tolist()), source=f"twisted-grassmann[{len(blocks)}]", target=f"design-blocks[{d.b}]")


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
        """(A, B, the blocks inside h), each as (RREF bases, point-set array).

        A holds the (e+1)-subspaces of V with a point off [h]; the rest are
        the (e+1)-subspaces of h, in h's own enumeration order (module
        docstring).  B holds the (e-1)-subspaces of h."""
        bases, sets = self._subspaces
        in_h = np.zeros(len(self.points), dtype=bool)
        in_h[_point_array([self.h])[0]] = True
        off = ~in_h[sets].all(axis=1)
        b = _all_bases(self.h, self.e - 1)
        return (bases[off], sets[off]), (b, _basis_points(self.field, b)), (bases[~off], sets[~off])

    @cached_property
    def labels(self) -> _Labels:
        """The vertex labels: ("A", W) for each of A, then ("B", W) for each
        of B, each made when it is read."""
        (a, _), (b, _), _ = self.families
        return _Labels(self.field, [("A", a), ("B", b)])

    @cached_property
    def graph(self) -> Graph:
        """The twisted Grassmann graph (see `twisted_grassmann`)."""
        (a, a_sets), (b, b_sets), _ = self.families
        q, e, v = self.field.q, self.e, len(self.points)
        inc = np.vstack([_incidence(a_sets, v), _incidence(b_sets, v)])
        # families i and j (A = 0, B = 1) are adjacent on [e-i-j]_q shared
        # points; A covering B means all [e-1]_q points of B lie in A.
        target = [[_point_count(e - i - j, q) for j in range(2)] for i in range(2)]
        return _count_graph(self.labels, inc, target, np.repeat([0, 1], [len(a), len(b)]))

    @cached_property
    def f(self) -> np.ndarray:
        """f(W) of every vertex, in vertex order: one sorted row of [e+1]_q
        point indices each."""
        (_, a_sets), (_, b_sets), _ = self.families
        return _block_map(self.labels, _by_size([a_sets, b_sets]), self.h, self.s)

    @cached_property
    def jt(self) -> Design:
        """The JT design: the blocks f(A), then the blocks inside h."""
        (a, _), _, (inside, inside_sets) = self.families
        labels = _Labels(self.field, [("A", a), ("B", inside)])
        return Design(self.points, np.vstack([self.f[: len(a)], inside_sets]), labels)

    @cached_property
    def pg(self) -> Design:
        """The geometric design, from the same enumeration as the families
        (see `pg_design`)."""
        bases, sets = self._subspaces
        return Design(self.points, sets, _Labels(self.field, [("PG", bases)]))

    @cached_property
    def certificate(self) -> IsoCertificate:
        """The JT block of every f(W), as `f_certificate` gives it."""
        return _certificate(self.jt, self.f)

    @cached_property
    def vertex_index(self) -> _SetIndex:
        """The index of the vertex point sets, rows in vertex order."""
        (_, a_sets), (_, b_sets), _ = self.families
        return _SetIndex(_by_size([a_sets, b_sets]), len(self.points))
