"""Hyperplane-stabilizing semilinear maps and their lift to design
automorphisms.

Convention: a semilinear map acts on column vectors as x -> M . frob(x),
Frobenius first.  The two possible orders differ by conjugation, so one
is fixed here once and exercised by the composition tests.  Stabilizer
elements are upper block-triangular [[A, b], [0, d]] in the standard
basis, with the hyperplane spanned by the first 2e coordinates.

The lift phi' permutes the points of [V]: on points of [H] it acts as
sigma.phi.sigma, elsewhere directly as phi.  lift() walks that
composition literally, subspace by subspace, reading sigma of each
point from `geometry._sigma_table`, the one table of sigma images.

Everything else acts through one batched point action:

- `geometry._point_images`, which also gives the point sets of
  subspaces: the point permutations of a batch of maps x -> M.frob^i(x)
  as one integer product mod p (see the `geometry` docstring).
- `_lift_batch`: a point c of [H] goes to the point whose sigma point
  set is pi(sigma(c)), with pi phi's point permutation; every other point
  goes through pi.
- `_SetIndex`: the one exact index of point sets (blocks, vertex point
  sets, sigma point sets).  A key is the ceil(v/64) words of a set's
  point mask; lookups are hashed and answer a row only after comparing
  every word.  Indexes are kept per design and per graph, held weakly.

`check_theorem2_batch`, `check_theorem2_relation` (a batch of one),
`vertex_permutation`, `is_design_automorphism` and the census all use
it.  The batched lifts are compared with the literal lift() in-run on a
fixed prime stride, element 0 first: every 31st element of a Theorem-2
batch (so every single check_theorem2_relation call), every 4001st of
the census.  Vertex 0's image is compared with the literal
phi.apply_subspace for every element.  `stabilizer_generators` lists
generators of the stabilizer; their vertex permutations give the orbits
that `drg.intersection_array` runs its BFS from.
"""

from __future__ import annotations

import random
import time
import weakref
from contextlib import nullcontext
from dataclasses import dataclass
from functools import lru_cache, partial
from itertools import product

import numpy as np

from .gf import Field, field_new, is_prime
from .geometry import _SLAB_BYTES, Design, Graph, jt_design
from .geometry import _index_dtype, _point_images, _point_order, _point_sets, _sigma_table
from .linalg import Matrix
from .polarity import Polarity, polarity_new
from .subspace import (
    ProjectivePoint,
    Subspace,
    coordinate_hyperplane,
    normalize_point,
    span,
)


@dataclass(frozen=True)
class SemilinearMap:
    """x -> matrix . frob^i(x), required to stabilize the standard hyperplane."""

    matrix: Matrix
    frob: int

    def __post_init__(self):
        m = self.matrix
        n = m.rows
        if m.cols != n:
            raise ValueError("matrix must be square")
        F = m.field
        if not 0 <= self.frob < F.f:
            raise ValueError(f"frob must lie in [0, {F.f})")
        if m.rank() != n:
            raise ValueError("matrix is singular")
        if any(m.entries[n - 1][j] for j in range(n - 1)):
            raise ValueError("matrix does not stabilize the standard hyperplane")

    @property
    def field(self) -> Field:
        return self.matrix.field

    @property
    def dim(self) -> int:
        return self.matrix.rows

    @classmethod
    def identity(cls, field: Field, n: int) -> "SemilinearMap":
        return cls(Matrix.identity(field, n), 0)

    def apply_vector(self, v):
        F = self.field
        if self.frob:
            v = tuple(F.frobenius(x, self.frob) for x in v)
        return self.matrix.apply_col(v)

    def apply_point(self, p: ProjectivePoint) -> ProjectivePoint:
        return normalize_point(self.field, self.apply_vector(p.rep))

    def apply_subspace(self, s: Subspace) -> Subspace:
        return span(self.field, s.ambient_dim, [self.apply_vector(r) for r in s.basis_rows])

    def compose(self, other: "SemilinearMap") -> "SemilinearMap":
        """self after other."""
        if self.field != other.field or self.dim != other.dim:
            raise ValueError("maps act on different spaces")
        F = self.field
        i = self.frob
        twisted = Matrix(
            F, [[F.frobenius(x, i) for x in row] for row in other.matrix.entries]
        )
        return SemilinearMap(self.matrix.matmul(twisted), (i + other.frob) % F.f)

    def inverse(self) -> "SemilinearMap":
        F = self.field
        j = (F.f - self.frob) % F.f
        inv = self.matrix.inverse()
        return SemilinearMap(
            Matrix(F, [[F.frobenius(x, j) for x in row] for row in inv.entries]), j
        )

    def to_json(self):
        return {"matrix": [list(r) for r in self.matrix.entries], "frob": self.frob}


@dataclass(frozen=True)
class PointPermutation:
    perm: tuple

    def __post_init__(self):
        if sorted(self.perm) != list(range(len(self.perm))):
            raise ValueError("not a permutation of 0..n-1")

    def apply(self, i: int) -> int:
        return self.perm[i]

    def compose(self, other: "PointPermutation") -> "PointPermutation":
        """self after other."""
        return PointPermutation(tuple(self.perm[j] for j in other.perm))

    def inverse(self) -> "PointPermutation":
        inv = [0] * len(self.perm)
        for i, j in enumerate(self.perm):
            inv[j] = i
        return PointPermutation(tuple(inv))

    @property
    def is_identity(self) -> bool:
        return all(i == j for i, j in enumerate(self.perm))

    def to_json(self):
        return {"perm": list(self.perm)}


@dataclass(frozen=True)
class NotAutomorphism:
    """First block whose image is not a block; falsy so callers can branch."""

    block: int
    image: tuple

    def __bool__(self):
        return False

    def to_json(self):
        return {"block": self.block, "image": list(self.image)}


@dataclass(frozen=True)
class Theorem2Violation:
    """Vertex where the lifted block action disagrees with f.phi; falsy."""

    vertex: int
    expected: int
    found: int

    def __bool__(self):
        return False

    def to_json(self):
        return {"vertex": self.vertex, "expected": self.expected, "found": self.found}


def random_stabilizer_element(field: Field, e: int, seed) -> SemilinearMap:
    """Uniform element of the hyperplane stabilizer in the semilinear group.

    Uniformity comes from the unique factorization into an invertible
    2e x 2e block (rejection-sampled), a mixing column, a nonzero
    corner, and a Frobenius power.
    """
    rng = random.Random(seed if isinstance(seed, int) else str(seed))
    m = 2 * e
    q = field.q
    while True:
        block = [[rng.randrange(q) for _ in range(m)] for _ in range(m)]
        if Matrix(field, block).rank() == m:
            break
    mix = [rng.randrange(q) for _ in range(m)]
    corner = rng.randrange(1, q)
    frob = rng.randrange(field.f)
    rows = [tuple(block[i]) + (mix[i],) for i in range(m)]
    rows.append((0,) * m + (corner,))
    return SemilinearMap(Matrix(field, rows), frob)


def stabilizer_generators(field: Field, e: int) -> list:
    """Generators of the hyperplane stabilizer in the semilinear group of
    GF(q)^(2e+1), q = p^f, with omega the field's primitive element:

    - the transvections I + omega^k E_ij, i != j < 2e, k < f, which
      generate SL(2e, q) because the omega^k span GF(q) over GF(p);
    - the mixing translations I + omega^k E_(i,2e), i < 2e, k < f;
    - diag(omega, 1, ..., 1) when q > 2, completing GL(2e, q), while the
      corner scalar is a scalar matrix times an element of GL(2e, q);
    - Frobenius when f > 1.

    Nothing downstream needs them to generate the whole group: a missing
    generator only leaves orbits unmerged.
    """
    if e < 1:
        raise ValueError(f"e must be >= 1, got {e}")
    m = 2 * e
    powers = field._exp[: field.f]  # omega^k, k < f: the field's table of powers of omega

    def elementary(i, j, x):
        rows = [[int(r == c) for c in range(m + 1)] for r in range(m + 1)]
        rows[i][j] = x
        return SemilinearMap(Matrix(field, rows), 0)

    gens = [elementary(i, j, x) for i in range(m) for j in range(m + 1) if i != j for x in powers]
    if field.q > 2:
        gens.append(elementary(0, 0, field._exp[1]))
    if field.f > 1:
        gens.append(SemilinearMap(Matrix.identity(field, m + 1), 1))
    return gens


def lift(phi: SemilinearMap, s: Polarity) -> PointPermutation:
    """The point permutation phi' of [V].

    Points of [H] go through sigma, then phi, then sigma again; the
    rest map through phi directly.
    """
    field = phi.field
    n = phi.dim
    h = s.h
    if h.ambient_dim != n:
        raise ValueError("polarity hyperplane does not match the map's space")
    for r in h.basis_rows:
        if not h.contains_vector(phi.apply_vector(r)):
            raise ValueError("phi does not stabilize the polarity's hyperplane")
    points, index = _point_order(field, n)
    sigma = _sigma_table(s)
    perm = []
    for c, p in enumerate(points):
        if c in sigma:
            image = s.apply(phi.apply_subspace(sigma[c][0]))
            rep = normalize_point(field, image.basis_rows[0]).rep
        else:
            rep = normalize_point(field, phi.apply_vector(p.rep)).rep
        perm.append(index[rep])
    return PointPermutation(tuple(perm))


# -- one batched point action (see the module docstring) ---------------------


def _mask_words(points: np.ndarray, v: int) -> np.ndarray:
    """The ceil(v/64) uint64 words of the point mask of each row of
    point indices (last axis)."""
    rows = points.reshape(-1, points.shape[-1])
    width = (v + 63) // 64
    # Both branches give the same words; the first exists for speed: the
    # (2,2) census (v = 31) takes about half the time with it as with the
    # packed row alone (3.75 s against 7.39 s, median of 10 runs each)
    if width == 1:  # one word: OR in one column of points at a time
        words = np.zeros((len(rows), 1), dtype=np.uint64)
        for column in rows.T:
            words[:, 0] |= np.left_shift(np.uint64(1), column, dtype=np.uint64, casting="unsafe")
    else:  # set the bits of a 0/1 row, then pack it into words
        bits = np.zeros((len(rows), 64 * width), dtype=np.uint8)
        bits[np.arange(len(rows))[:, None], rows] = 1
        words = np.packbits(bits, axis=1, bitorder="little").view(np.uint64)
    return words.reshape(points.shape[:-1] + (width,))


_MIX = np.uint64(0x9E3779B97F4A7C15)  # odd; its product's top bits mix all words


class _SetIndex:
    """An exact hashed index of point sets over v points.

    The key of a set is the ceil(v/64) words of its point mask.  Keys sit
    in an open-addressed table with linear probing, found by the top bits
    of a multiplicative hash; a lookup answers a row only after comparing
    every word of the key, so a hash collision is never taken as a match.
    """

    def __init__(self, sets, v: int):
        self.v = v
        by_size = {}
        for row, pts in enumerate(sets):
            by_size.setdefault(len(pts), []).append(row)
        self.groups = [
            (np.array(rows), np.array([sorted(sets[r]) for r in rows], dtype=np.intp).reshape(len(rows), size))
            for size, rows in by_size.items()
        ]
        keys = np.empty((len(sets), (v + 63) // 64), dtype=np.uint64)
        for rows, pts in self.groups:
            keys[rows] = _mask_words(pts, v)
        self.columns = list(keys.T.copy())  # word w of every key, contiguous
        self.bits = max(1, 4 * len(sets) - 1).bit_length()  # load at most 1/4
        self.slots = np.full(1 << self.bits, -1, dtype=np.intp)
        home = self._home(keys)
        pending = np.arange(len(sets))
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

    def _home(self, words: np.ndarray) -> np.ndarray:
        h = words[:, 0] * _MIX
        for w in range(1, words.shape[1]):
            h = (h ^ words[:, w]) * _MIX
        return (h >> np.uint64(64 - self.bits)).astype(np.intp)

    def _matches(self, slot: np.ndarray, words: np.ndarray) -> np.ndarray:
        """Is each slot filled with a key equal to words in every word?"""
        same = slot >= 0
        for w, column in enumerate(self.columns):
            same &= column[slot] == words[:, w]
        return same

    def find(self, words: np.ndarray) -> np.ndarray:
        """The row of each set given by its mask words, or -1 if absent."""
        at = self._home(words)
        slot = self.slots[at]
        out = np.where(self._matches(slot, words), slot, -1)
        # a set whose slot holds another key walks on; an empty slot ends the walk
        todo = np.flatnonzero((slot >= 0) & (out < 0))
        for probe in range(1, self.max_probe + 1):
            if not todo.size:
                break
            slot = self.slots[(at[todo] + probe) & (len(self.slots) - 1)]
            same = self._matches(slot, words[todo])
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
                    found = self.find(words.reshape(-1, words.shape[-1]))
                    out[g : g + step, rows[r : r + per]] = found.reshape(-1, len(sets))
        return out


# per design or graph, held weakly: an index goes when its object does
_INDEXES = weakref.WeakKeyDictionary()


def _set_index(obj) -> _SetIndex:
    """The index of a design's blocks or of a twisted graph's vertex point sets."""
    if (index := _INDEXES.get(obj)) is None:
        if isinstance(obj, Design):
            index = _SetIndex(obj.blocks, obj.v)
        else:
            subs = [w for _, w in obj.labels]
            index = _SetIndex(_point_sets(subs), len(_point_order(subs[0].field, subs[0].ambient_dim)[0]))
        _INDEXES[obj] = index
    return index


@lru_cache(maxsize=None)
def _sigma_index(s: Polarity):
    """(the points c of [h], the index of their sigma(c) point sets)."""
    table = _sigma_table(s)
    v = len(_point_order(s.field, s.h.ambient_dim)[0])
    return np.array(list(table)), _SetIndex([pts for _, pts in table.values()], v)


def _lift_batch(s: Polarity, pi: np.ndarray) -> np.ndarray:
    """The lifts of the maps whose point permutations are the rows of pi.

    A point c of [h] goes to the point whose sigma point set is
    pi(sigma(c)); every other point goes through pi.
    """
    h_points, sigma = _sigma_index(s)
    rows = sigma.images(pi)
    if (rows < 0).any():
        raise ValueError("phi does not stabilize the polarity's hyperplane")
    lifted = pi.copy()
    lifted[:, h_points] = h_points[rows]
    return lifted


def _maps_as_arrays(maps):
    """(field, matrices, Frobenius powers) of a batch of maps on one space."""
    field = maps[0].field
    if any(phi.field != field or phi.dim != maps[0].dim for phi in maps):
        raise ValueError("maps act on different spaces")
    mats = np.array([phi.matrix.entries for phi in maps], dtype=np.intp)
    return field, mats, np.array([phi.frob for phi in maps], dtype=np.intp)


def _not_automorphism(d: Design, perm, rows: np.ndarray):
    """NotAutomorphism for the first block whose row is -1, or None."""
    missing = np.flatnonzero(rows < 0)
    if not missing.size:
        return None
    bi = int(missing[0])
    return NotAutomorphism(bi, tuple(sorted(int(perm[i]) for i in d.blocks[bi])))


def _block_rows(d: Design, p: PointPermutation) -> np.ndarray:
    if len(p.perm) != d.v:
        raise ValueError(f"permutation degree {len(p.perm)} != point count {d.v}")
    return _set_index(d).images(np.array([p.perm], dtype=_index_dtype(d.v)))[0]


def is_design_automorphism(d: Design, p: PointPermutation):
    """True, or the first block whose image fails to be a block."""
    missing = _not_automorphism(d, p.perm, _block_rows(d, p))
    return True if missing is None else missing


def induced_block_permutation(d: Design, p: PointPermutation):
    """Block index permutation induced by a point permutation, or None
    if some image block is missing."""
    rows = _block_rows(d, p)
    return None if (rows < 0).any() else tuple(rows.tolist())


def _check_vertex_images(g: Graph, phi: SemilinearMap, images: np.ndarray):
    if (images < 0).any():
        raise ValueError("phi does not map the graph's vertex families onto themselves")
    if g.labels[images[0]][1] != phi.apply_subspace(g.labels[0][1]):
        raise RuntimeError("the point-level vertex action diverged from phi.apply_subspace at vertex 0")


def vertex_permutation(g: Graph, phi: SemilinearMap) -> tuple:
    """phi's action on the vertices of a twisted Grassmann graph g: entry
    j is the vertex phi(W_j).  Computed at point level; vertex 0's image
    is compared with the literal phi.apply_subspace on every call."""
    images = _set_index(g).images(_point_images(*_maps_as_arrays([phi])))[0]
    _check_vertex_images(g, phi, images)
    return tuple(images.tolist())


_ORACLE_STRIDE = 31  # prime; elements 0, 31, 62, ... are also lifted literally
_THEOREM2_CHUNK = 64  # elements per batch


def _spot_check_lifts(what: str, lifted: np.ndarray, phi_at, s: Polarity, start: int, stride: int) -> int:
    """Compare every stride-th batched lift (row g: element start + g, map
    phi_at(g); element 0 first) with lift(); returns the count or raises RuntimeError."""
    spots = range(-start % stride, len(lifted), stride)
    for g in spots:
        if tuple(lifted[g].tolist()) != lift(phi := phi_at(g), s).perm:
            matrix = [list(row) for row in phi.matrix.entries]
            raise RuntimeError(f"{what} diverged from the literal lift at element {start + g}: {matrix}")
    return len(spots)


def check_theorem2_batch(d: Design, g: Graph, cert, maps, s: Polarity, progress=None):
    """check_theorem2_relation for each of maps, in bounded chunks.

    Returns (results, cross_checked): one result per map, in order, and
    the number of batched lifts compared with the literal lift() (every
    _ORACLE_STRIDE-th element, element 0 first; a difference raises
    RuntimeError).  progress, if given, is called with the fraction done.
    """
    results = []
    cross_checked = 0
    mapping = np.array(cert.mapping, dtype=np.intp)
    for start in range(0, len(maps), _THEOREM2_CHUNK):
        chunk = maps[start : start + _THEOREM2_CHUNK]
        pi = _point_images(*_maps_as_arrays(chunk))
        lifted = _lift_batch(s, pi)
        alpha = _set_index(d).images(lifted)
        vertices = _set_index(g).images(pi)
        cross_checked += _spot_check_lifts("batched lift", lifted, chunk.__getitem__, s, start, _ORACLE_STRIDE)
        for k, phi in enumerate(chunk):
            if (missing := _not_automorphism(d, lifted[k], alpha[k])) is not None:
                results.append(missing)
                continue
            _check_vertex_images(g, phi, vertices[k])
            expected = mapping[vertices[k]]
            found = alpha[k, mapping]
            wrong = np.flatnonzero(found != expected)
            results.append(
                Theorem2Violation(int(wrong[0]), int(expected[wrong[0]]), int(found[wrong[0]]))
                if wrong.size else True
            )
        if progress:
            progress(min(1.0, (start + _THEOREM2_CHUNK) / len(maps)))
    return results, cross_checked


def check_theorem2_relation(d: Design, g: Graph, cert, phi: SemilinearMap, s: Polarity):
    """Does the lifted block action alpha satisfy alpha.f = f.phi?

    cert must be the block-map certificate: cert.mapping[j] is the
    design block of vertex j.  The right side f(phi(W)) is resolved by
    locating phi(W) among the graph's vertices and reading its certified
    block, so the check ties the certificate, the lift, and the vertex
    action together.  Returns True, the lift's NotAutomorphism if the
    lift does not permute the blocks, or the first vertex (in vertex
    order) where the relation fails, as a Theorem2Violation.  The
    batched lift is compared with the literal lift() on every call.
    """
    return check_theorem2_batch(d, g, cert, [phi], s)[0][0]


def stabilizer_order(q: int, e: int, f: int) -> int:
    """|PGammaL(V)_H| = q^(2e) . |GL(2e,q)| . f, as an exact integer.

    Counts the block-triangular shapes modulo scalars: the GL block,
    the mixing column, and the field automorphisms.  Python integers
    are unbounded, so the product is exact at any size.
    """
    if _char_root(q, f) is None:
        raise ValueError(f"q={q} is not p^f for f={f} with p prime")
    if e < 0:
        raise ValueError("e must be >= 0")
    m = 2 * e
    gl = 1
    for i in range(m):
        gl *= q ** m - q ** i
    return q ** m * gl * f


def _char_root(q: int, f: int):
    if f < 1:
        return None
    p = round(q ** (1.0 / f))
    for cand in (p - 1, p, p + 1):
        if cand >= 2 and cand ** f == q:
            return cand if is_prime(cand) else None
    return None


@dataclass(frozen=True)
class LiftCheckReport:
    group_order: int
    verified: int
    distinct: int
    identity_count: int
    failures: tuple
    cross_checked: int
    elapsed: float

    @property
    def ok(self) -> bool:
        return (
            not self.failures
            and self.verified == self.group_order
            and self.distinct == self.group_order
            and self.identity_count == 1
        )

    def to_json(self):
        return {
            "group_order": self.group_order,
            "verified": self.verified,
            "distinct": self.distinct,
            "identity_count": self.identity_count,
            "failures": [list(f) for f in self.failures],
            "cross_checked": self.cross_checked,
            "elapsed": self.elapsed,
            "pass": self.ok,
        }


def _general_linear(p: int, m: int) -> np.ndarray:
    """GL(m, p) as a (count, m, m) array, each row chosen in turn outside
    the span of the rows before it."""
    vecs = np.array(list(product(range(p), repeat=m)), dtype=np.int64)
    radix = p ** np.arange(m - 1, -1, -1)
    mats = np.zeros((1, 0, m), dtype=np.int64)
    for k in range(m):
        coeffs = np.array(list(product(range(p), repeat=k)), dtype=np.int64)
        spanned = np.einsum("ck,akm->acm", coeffs, mats) % p @ radix
        outside = np.ones((len(mats), len(vecs)), dtype=bool)
        outside[np.arange(len(mats))[:, None], spanned] = False
        a, v = np.nonzero(outside)
        mats = np.concatenate([mats[a], vecs[v, None]], axis=1)
    return mats


def _census_chunk(start, mats, *, s, blocks, spot_stride):
    """Lift [[A, b], [0, 1]] for every A in mats and every b; pure function.

    Returns the lifts' point permutations in element order (A major, b
    minor, element numbers from start), the (matrix rows, first failing
    block) of each lift that is not a design automorphism, and the number
    of lifts cross-checked against the literal lift().
    """
    field, n, m = s.field, mats.shape[1] + 1, mats.shape[1]
    bs = np.array(list(product(range(field.p), repeat=m)), dtype=np.intp)
    phis = np.zeros((len(mats), len(bs), n, n), dtype=np.intp)
    phis[:, :, :m, :m] = mats[:, None]
    phis[:, :, :m, m] = bs
    phis[:, :, m, m] = 1
    phis = phis.reshape(-1, n, n)
    perms = _lift_batch(s, _point_images(field, phis, np.zeros(len(phis), dtype=np.intp)))
    ok = blocks.images(perms) >= 0
    failures = [
        (tuple(map(tuple, phis[g].tolist())), int(np.argmin(ok[g])))
        for g in np.flatnonzero(~ok.all(axis=1))
    ]
    return perms, failures, _spot_check_lifts(
        "census", perms, lambda g: SemilinearMap(Matrix(field, phis[g].tolist()), 0), s, start, spot_stride
    )


def exhaustive_lift_check(field: Field = None, e: int = 2, jobs: int = 1,
                          progress=None, *, s: Polarity = None) -> LiftCheckReport:
    """Lift every element of the (2,2) hyperplane stabilizer and verify.

    Enumerates GL(2e, p) times all mixing columns, the corner fixed at 1
    modulo scalars (the field is prime, so no Frobenius), under the
    polarity s of the coordinate hyperplane (identity gram by default).
    Checks that each lift permutes the design's blocks, and that all
    322560 point permutations are pairwise distinct with exactly one
    identity; a fixed prime stride of them, element 0 first, is compared
    with the literal lift().  Refuses instances other than (q,e) = (2,2).
    """
    if field is None:
        field = field_new(2, 1)
    if field.q != 2 or e != 2:
        raise ValueError("exhaustive enumeration is supported only at (q,e)=(2,2)")
    t0 = time.time()
    n = 2 * e + 1
    h = coordinate_hyperplane(field, n)
    if s is None:
        s = polarity_new(field, h)
    if s.field != field or s.h != h:
        raise ValueError("the census needs a polarity of the coordinate hyperplane")
    d = jt_design(field, e, h, s)
    v = d.v
    gl = _general_linear(field.p, 2 * e)
    order = stabilizer_order(field.q, e, field.f)
    per_a = field.p ** (2 * e)
    assert len(gl) * per_a == order
    step = 64  # A blocks per chunk
    starts = range(0, len(gl), step)
    work = partial(
        _census_chunk, s=s, blocks=_set_index(d), spot_stride=4001,  # prime; 81 literal lifts
    )
    perms = np.empty((order, v), dtype=np.uint8)
    verified = cross_checked = 0
    failures = []
    pool = None
    if jobs > 1:
        # imported here, so that every other command starts without them
        from concurrent.futures import ProcessPoolExecutor
        from multiprocessing import get_context

        pool = ProcessPoolExecutor(jobs, mp_context=get_context("spawn"))
    with pool or nullcontext():
        results = (pool.map if pool else map)(
            work, [i * per_a for i in starts], [gl[i : i + step] for i in starts]
        )
        for i, (chunk, chunk_failures, spots) in zip(starts, results):
            perms[i * per_a : i * per_a + len(chunk)] = chunk
            verified += len(chunk)
            failures.extend(chunk_failures)
            cross_checked += spots
            if progress:
                progress(min(1.0, (i + step) / len(gl)))

    return LiftCheckReport(
        group_order=order,
        verified=verified,
        distinct=len(np.unique(perms.view(np.dtype((np.void, v))))),
        identity_count=int((perms == np.arange(v)).all(axis=1).sum()),
        failures=tuple(failures),
        cross_checked=cross_checked,
        elapsed=time.time() - t0,
    )
