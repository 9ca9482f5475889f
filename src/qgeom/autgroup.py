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
point from `geometry._sigma`, the one table of sigma images.

Everything else acts through one batched point action:

- `geometry._point_images`, which also gives the point sets of
  subspaces: the point permutations of a batch of maps x -> M.frob^i(x)
  as one float32 BLAS product, reduced mod p, exact below 2**24 (see
  the `geometry` docstring).  `_point_perms` gives it a batch of
  `SemilinearMap`s.
- `_lift_batch`: a point c of [H] goes to the point whose sigma point
  set is pi(sigma(c)), with pi phi's point permutation; every other point
  goes through pi.  It finds pi(sigma(c)) in the index that `_sigma`
  keeps beside the sigma point sets, once per run of rows whose pi
  agree on every point of [H].
- `geometry._SetIndex`: the one exact index of point sets (blocks,
  vertex point sets, sigma point sets).  It is asked with point rows or
  point permutations and keeps its key, the set's point mask, to itself;
  lookups are hashed and answer a row only after comparing the whole
  key.  A design's blocks live in its own index, `Design.index`.
- A graph's vertices are one record, `geometry._Labels`: their labels,
  point sets and index together, so no function here is given one
  family's labels with another's index.  A verify run reads the record
  of its `geometry._Instance`; the public functions here that take a
  graph read `geometry._vertex_index`, which gives the record the graph
  keeps, or checks the graph's label tuples and forms their record once.
- `_vertex_images`: the vertex action, the one path from a batch of
  maps to vertex images.  It refuses the first map of another space than
  the record's before that map's point permutation is formed, forms the
  maps' point permutations itself, once (`_point_perms`), looks the
  images of the vertex point sets up in the record's index, and returns
  the permutations with the images.  `vertex_permutation`,
  `check_theorem2_batch` and the drg check's generators go through it:
  `check_theorem2_batch` lifts each chunk by the permutations it returns,
  so one point action serves the lift and the vertex images both, and
  the drg check passes all of its generators at once.

`check_theorem2_batch`, `check_theorem2_relation` (a batch of one),
`vertex_permutation`, `is_design_automorphism` and the census all use
this action.  The batched lifts are compared with the literal lift() in-run on a
fixed prime stride, element 0 first: every 31st element of a Theorem-2
batch (so every single check_theorem2_relation call), every 4001st of
the census.  Vertex 0's image is compared with the literal
phi.apply_subspace for every element.  `stabilizer_generators` lists
generators of the stabilizer; their vertex permutations give the orbits
that `drg.intersection_array` runs its BFS from.

The (2,2) census, `exhaustive_lift_check`, proves all 322560 lifts
design automorphisms by factorization.  Every element factors uniquely
as [[A, b], [0, 1]] = T_b.L_A, with T_b = [[I, b], [0, 1]] and
L_A = [[A, 0], [0, 1]], and the lift is a homomorphism.  Only the
factors' lifts go through the block check: the 16 translations once,
the 20160 linear maps in their chunks, 3.13M block lookups in all
against 50.0M for every element.  Each element's lift is still formed
from its own matrix, and is proven when it equals lift(T_b).lift(L_A)
in every entry and both factors passed, since a product of design
automorphisms is one.  Every other element takes the block check
itself, so the failures are those of the direct check.  The maps go
A major and b minor, and [[A, b], [0, 1]] acts on [H] as A, so each
A's 16 elements form one run of `_lift_batch` and share its sigma
lookups: 20160 rows looked up, not 322560.  The census runs its 315
chunks of 64 A in turn, in the calling process.  Distinctness, the
identity count and the literal-lift spot checks read every lift;
distinctness is counted by one 64-bit key per lift (`_distinct_rows`),
with the lifts that share a key compared in full.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from itertools import product

import numpy as np

from .gf import Field, _prime_power, field_new
from .geometry import Design, Graph, _Instance
from .geometry import _fold, _index_dtype, _permutation, _point_images, _point_order, _sigma, _vertex_index
from .linalg import Matrix
from .polarity import Polarity
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
    """A permutation of the points 0..n-1: perm holds their integer images
    (read by `geometry._permutation`), kept as Python ints."""

    perm: tuple

    def __post_init__(self):
        object.__setattr__(self, "perm", tuple(_permutation(self.perm, "perm").tolist()))

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
    if field != s.field:
        raise ValueError(f"phi acts over GF({field.q}), the polarity over GF({s.field.q})")
    if h.ambient_dim != n:
        raise ValueError("polarity hyperplane does not match the map's space")
    for r in h.basis_rows:
        if not h.contains_vector(phi.apply_vector(r)):
            raise ValueError("phi does not stabilize the polarity's hyperplane")
    points, index = _point_order(field, n)
    sigma = _sigma(s)
    sigma_of = dict(zip(sigma.points.tolist(), sigma.images))
    perm = []
    for c, p in enumerate(points):
        if c in sigma_of:
            image = s.apply(phi.apply_subspace(sigma_of[c]))
            rep = normalize_point(field, image.basis_rows[0]).rep
        else:
            rep = normalize_point(field, phi.apply_vector(p.rep)).rep
        perm.append(index[rep])
    return PointPermutation(tuple(perm))


# -- one batched point action (see the module docstring) ---------------------


def _lift_batch(s: Polarity, pi: np.ndarray) -> np.ndarray:
    """The lifts of the maps whose point permutations are the rows of pi.

    A point c of [h] goes to the point whose sigma point set is
    pi(sigma(c)); every other point goes through pi.  sigma(c) lies in
    [h], so a row's [h] entries depend only on pi's restriction to [h].
    A run of rows starts wherever that restriction differs, in any entry,
    from the row before's; only each run's first row is looked up in
    sigma's index, and the run takes its answer.  Exact for any batch:
    the census's maps, A major and b minor, act on [h] as A, so each A's
    run holds all its b; random maps each start their own.
    """
    sigma = _sigma(s)
    on_h = pi[:, sigma.points]
    head = np.ones(len(pi), dtype=bool)
    head[1:] = (on_h[1:] != on_h[:-1]).any(axis=1)
    rows = sigma.index.images(pi[head])
    if (rows < 0).any():
        raise ValueError("phi does not stabilize the polarity's hyperplane")
    lifted = pi.copy()
    lifted[:, sigma.points] = sigma.points.astype(pi.dtype)[rows][np.cumsum(head) - 1]
    return lifted


def _point_perms(maps) -> np.ndarray:
    """The point permutations of a batch of maps that act on one space (as
    `_vertex_images` checks), row g for maps[g]: one `_point_images` call."""
    mats = np.array([phi.matrix.entries for phi in maps], dtype=np.intp)
    return _point_images(maps[0].field, mats, np.array([phi.frob for phi in maps], dtype=np.intp))


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
    return d.index.images(np.array([p.perm], dtype=_index_dtype(d.v)))[0]


def is_design_automorphism(d: Design, p: PointPermutation):
    """True, or the first block whose image fails to be a block."""
    missing = _not_automorphism(d, p.perm, _block_rows(d, p))
    return True if missing is None else missing


def induced_block_permutation(d: Design, p: PointPermutation):
    """Block index permutation induced by a point permutation, or None
    if some image block is missing."""
    rows = _block_rows(d, p)
    return None if (rows < 0).any() else tuple(rows.tolist())


def _vertex_images(labels, maps) -> tuple:
    """(pi, images) for a vertex record of labels (tag, W) (`geometry._Labels`):
    row g of pi is the point permutation of maps[g], and entry j of row g
    of images is the vertex maps[g](W_j).  ValueError, naming both spaces,
    for the first map that acts on another field or dimension than the
    record's, before any point permutation is formed.  Computed at point
    level; the image of vertex 0 is compared with the literal
    phi.apply_subspace for every map."""
    if (phi := next((phi for phi in maps if (phi.field, phi.dim) != (labels.field, labels.n)), None)) is not None:
        raise ValueError(f"phi acts on GF({phi.field.q})^{phi.dim}, the graph's vertices lie in GF({labels.field.q})^{labels.n}")
    pi = _point_perms(maps)
    images = labels.index.images(pi)
    if (images < 0).any():
        raise ValueError("phi does not map the graph's vertex families onto themselves")
    w = labels[0][1]
    for phi, first in zip(maps, images[:, 0].tolist()):
        if labels[first][1] != phi.apply_subspace(w):
            raise RuntimeError("the point-level vertex action diverged from phi.apply_subspace at vertex 0")
    return pi, images


def vertex_permutation(g: Graph, phi: SemilinearMap) -> tuple:
    """phi's action on the vertices of a twisted Grassmann graph g: entry
    j is the vertex phi(W_j).  Computed at point level; vertex 0's image
    is compared with the literal phi.apply_subspace on every call."""
    return tuple(_vertex_images(_vertex_index(g), [phi])[1][0].tolist())


_ORACLE_STRIDE = 31  # prime; elements 0, 31, 62, ... are also lifted literally
_CENSUS_STRIDE = 4001  # prime; the census compares 81 of its lifts with lift()
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


def check_theorem2_batch(d: Design, labels, cert, maps, s: Polarity, progress=None):
    """check_theorem2_relation for each of maps, in bounded chunks, on the
    graph whose vertex record is labels (`_vertex_images`).  ValueError,
    naming both sides, if d has another point count than the record's
    space, if cert has another length than the graph's vertex count or d's
    block count, or if s or a map acts on another space (a map in its
    chunk, before the chunk's point permutations are formed).

    Returns (results, cross_checked): one result per map, in order, and
    the number of batched lifts compared with the literal lift() (every
    _ORACLE_STRIDE-th element, element 0 first; a difference raises
    RuntimeError).  progress, if given, is called with the fraction done.
    """
    space = f"GF({labels.field.q})^{labels.n}"
    if d.v != labels.points:
        raise ValueError(f"the design has {d.v} points, the graph's space {space} has {labels.points}")
    if len(cert.mapping) != len(labels) or len(cert.mapping) != d.b:
        raise ValueError(f"the certificate maps {len(cert.mapping)} vertices, the graph has {len(labels)} and the design {d.b} blocks")
    if s.field != labels.field or s.h.ambient_dim != labels.n:
        raise ValueError(f"the polarity acts on GF({s.field.q})^{s.h.ambient_dim}, the graph's vertices lie in {space}")
    results = []
    cross_checked = 0
    mapping = np.array(cert.mapping, dtype=np.intp)
    for start in range(0, len(maps), _THEOREM2_CHUNK):
        chunk = maps[start : start + _THEOREM2_CHUNK]
        pi, vertices = _vertex_images(labels, chunk)
        lifted = _lift_batch(s, pi)
        alpha = d.index.images(lifted)
        cross_checked += _spot_check_lifts("batched lift", lifted, chunk.__getitem__, s, start, _ORACLE_STRIDE)
        for k in range(len(chunk)):
            if (missing := _not_automorphism(d, lifted[k], alpha[k])) is not None:
                results.append(missing)
                continue
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
    return check_theorem2_batch(d, _vertex_index(g), cert, [phi], s)[0][0]


def stabilizer_order(q: int, e: int, f: int) -> int:
    """|PGammaL(V)_H| = q^(2e) . |GL(2e,q)| . f, as an exact integer.

    Counts the block-triangular shapes modulo scalars: the GL block,
    the mixing column, and the field automorphisms.  Python integers
    are unbounded, so the product is exact at any size.
    """
    if _prime_power(q)[1] != f:
        raise ValueError(f"q={q} is not p^f for f={f} with p prime")
    if e < 0:
        raise ValueError("e must be >= 0")
    m = 2 * e
    gl = 1
    for i in range(m):
        gl *= q ** m - q ** i
    return q ** m * gl * f


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


def _distinct_rows(rows: np.ndarray) -> int:
    """The number of distinct rows of a 2-D uint8 array, exactly.

    Each row, zero-padded to whole uint64 words, folds into one 64-bit
    key by `geometry._fold`, the hash of `geometry._SetIndex`, and the
    keys are sorted once.  Equal rows share a key, so rows of different
    keys are distinct; the rows whose key is shared are compared in full,
    by one sort of those rows, so a collision is never taken as a
    duplicate.
    """
    padded = np.zeros((len(rows), (rows.shape[1] + 7) // 8 * 8), dtype=np.uint8)
    padded[:, : rows.shape[1]] = rows
    key = _fold(padded.view(np.uint64).T)
    ordered = np.sort(key)
    shared = np.unique(ordered[1:][ordered[1:] == ordered[:-1]])
    if not shared.size:
        return len(rows)
    tied = np.isin(key, shared)  # the rows of shared keys, counted by their distinct values
    return len(rows) - int(tied.sum()) + len(np.unique(rows[tied], axis=0))


def _census_lifts(s: Polarity, mats: np.ndarray):
    """The maps [[A, b], [0, 1]] for every A in mats and every b in GF(p)^m,
    A major and b minor (b = 0 first), and their batched lifts."""
    field, m = s.field, mats.shape[1]
    bs = np.array(list(product(range(field.p), repeat=m)), dtype=np.intp)
    phis = np.zeros((len(mats), len(bs), m + 1, m + 1), dtype=np.intp)
    phis[:, :, :m, :m] = mats[:, None]
    phis[:, :, :m, m] = bs
    phis[:, :, m, m] = 1
    phis = phis.reshape(-1, m + 1, m + 1)
    return phis, _lift_batch(s, _point_images(field, phis, np.zeros(len(phis), dtype=np.intp)))


def _census_chunk(start, mats, *, s, blocks, trans, trans_ok):
    """Lift [[A, b], [0, 1]] = T_b.L_A for every A in mats and every b, and
    prove each lift a design automorphism: one chunk of the census, which
    `exhaustive_lift_check` runs in turn, in one process.

    Every lift is formed from its own matrix.  The b = 0 lift of each A is
    lift(L_A), checked directly against blocks.  trans holds lift(T_b) for
    every b, in b order, and trans_ok which of them passed that check.  An
    element is proven when both its factors passed and its lift equals
    lift(T_b).lift(L_A) in every entry: a product of automorphisms is one.
    Every other element is checked directly, so the failures are those the
    direct check of every element gives.

    Returns the lifts' point permutations in element order (A major, b
    minor, element numbers from start), the (matrix rows, first failing
    block) of each lift that is not a design automorphism, and the number
    of lifts cross-checked against the literal lift().
    """
    phis, perms = _census_lifts(s, mats)
    by_a = perms.reshape(len(mats), len(trans), -1)
    linear_ok = (blocks.images(by_a[:, 0]) >= 0).all(axis=1)
    # entry (a, b, x) of the product: lift(T_b)(lift(L_A)(x))
    composed = trans[:, by_a[:, 0]].swapaxes(0, 1)
    proven = ((by_a == composed).all(axis=2) & linear_ok[:, None] & trans_ok).ravel()
    rest = np.flatnonzero(~proven)
    ok = blocks.images(perms[rest]) >= 0
    failures = [
        (tuple(map(tuple, phis[g].tolist())), int(np.argmin(row)))
        for g, row in zip(rest.tolist(), ok) if not row.all()
    ]
    return perms, failures, _spot_check_lifts(
        "census", perms, lambda g: SemilinearMap(Matrix(s.field, phis[g].tolist()), 0), s, start, _CENSUS_STRIDE
    )


def exhaustive_lift_check(s: Polarity = None, progress=None, *, inst: _Instance = None) -> LiftCheckReport:
    """Lift every element of the (2,2) hyperplane stabilizer and verify.

    Enumerates GL(2e, p) times all mixing columns, the corner fixed at 1
    modulo scalars (the field is prime, so no Frobenius), under a
    polarity s of the coordinate hyperplane of GF(2)^5.  The polarity and
    the JT design come from inst, a verify run's instance, when it is
    given; otherwise from s (the identity gram by default), with an
    instance of its own.

    Proves each lift a design automorphism by its factors (see
    `_census_chunk`): the 16 translation lifts are checked directly here,
    once, and the linear lifts in chunks of 64 A, one chunk after another
    in this process; progress, if given, is called with the fraction done
    after each.  Checks that all 322560 point permutations are pairwise
    distinct with exactly one identity; a fixed prime stride of them,
    element 0 first, is compared with the literal lift().  Refuses instances other than (q,e) = (2,2) before it
    builds anything.
    """
    if inst is not None:
        if s is not None:
            raise TypeError("pass inst alone: it carries the polarity")
        field, e, s = inst.field, inst.e, inst.s
    else:  # s.h is a hyperplane of GF(q)^(2e+1)
        field, e = (field_new(2, 1), 2) if s is None else (s.field, s.h.dim // 2)
    if field.q != 2 or e != 2:
        raise ValueError("exhaustive enumeration is supported only at (q,e)=(2,2)")
    t0 = time.perf_counter()
    inst = _Instance(field, e, None, s) if inst is None else inst
    if inst.s.field != field or inst.s.h != inst.h or inst.h != coordinate_hyperplane(field, 2 * e + 1):
        raise ValueError("the census needs a polarity of the coordinate hyperplane")
    s, d = inst.s, inst.jt
    v = d.v
    gl = _general_linear(field.p, 2 * e)
    order = stabilizer_order(field.q, e, field.f)
    per_a = field.p ** (2 * e)
    if len(gl) * per_a != order:  # a short GL would leave rows of perms unset
        raise RuntimeError(f"the census enumerates {len(gl) * per_a} elements, not the stabilizer order {order}")
    # the translations T_b, lifted and checked once and passed to every chunk
    _, trans = _census_lifts(s, np.eye(2 * e, dtype=np.intp)[None])
    trans_ok = (d.index.images(trans) >= 0).all(axis=1)
    step = 64  # A blocks per chunk
    perms = np.empty((order, v), dtype=np.uint8)
    verified = cross_checked = 0
    failures = []
    for i in range(0, len(gl), step):
        chunk, chunk_failures, spots = _census_chunk(
            i * per_a, gl[i : i + step], s=s, blocks=d.index, trans=trans, trans_ok=trans_ok
        )
        perms[i * per_a : i * per_a + len(chunk)] = chunk
        verified += len(chunk)
        failures.extend(chunk_failures)
        cross_checked += spots
        if progress:
            progress(min(1.0, (i + step) / len(gl)))

    return LiftCheckReport(
        group_order=order,
        verified=verified,
        distinct=_distinct_rows(perms),
        identity_count=int((perms == np.arange(v)).all(axis=1).sum()),
        failures=tuple(failures),
        cross_checked=cross_checked,
        elapsed=time.perf_counter() - t0,
    )
