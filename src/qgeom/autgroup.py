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
point from `geometry._sigma_table`, the one table of sigma images.  The
exhaustive census takes the same composition at point level, for a
batch of elements at once: phi's point permutation pi comes from one
product over the canonical point representatives, and a point c of [H]
goes to the point whose sigma (the table's point set) is pi(sigma(c)).
A fixed stride of the census's lifts is compared with lift() in-run.

The vertex action `vertex_permutation`, which the Theorem-2 check
alpha.f = f.phi uses, also acts at point level: phi(W) is the vertex
whose point set is pi of W's points, looked up in a per-graph table of
vertex point sets.  Vertex 0's image is compared with the literal
phi.apply_subspace in every call.  `stabilizer_generators` lists
generators of the stabilizer; their vertex permutations give the orbits
that `drg.intersection_array` runs its BFS from.
"""

from __future__ import annotations

import random
import time
import weakref
from contextlib import nullcontext
from dataclasses import dataclass
from functools import partial
from itertools import product

import numpy as np

from .gf import Field, field_new, is_prime
from .geometry import Design, Graph, jt_design, _point_order, _points_of, _sigma_table
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


def _block_images(d: Design, p: PointPermutation):
    """The image of each block under p, up to the first image that is not
    a block: (images, None), or (images so far, NotAutomorphism)."""
    if len(p.perm) != d.v:
        raise ValueError(f"permutation degree {len(p.perm)} != point count {d.v}")
    images = []
    for bi, blk in enumerate(d.blocks):
        img = tuple(sorted(p.perm[i] for i in blk))
        if not d.has_block(img):
            return images, NotAutomorphism(bi, img)
        images.append(img)
    return images, None


def is_design_automorphism(d: Design, p: PointPermutation):
    """True, or the first block whose image fails to be a block."""
    _, missing = _block_images(d, p)
    return True if missing is None else missing


def induced_block_permutation(d: Design, p: PointPermutation):
    """Block index permutation induced by a point permutation, or None
    if some image block is missing."""
    images, missing = _block_images(d, p)
    return None if missing is not None else tuple(map(d.block_index, images))


# per graph, held weakly: a graph's tables go when the graph does
_POINT_SETS = weakref.WeakKeyDictionary()


def _vertex_point_sets(g: Graph):
    """The point set of each vertex W_j, and the vertex of each
    (family tag, point set)."""
    if (tables := _POINT_SETS.get(g)) is None:
        first = g.labels[0][1]
        index = _point_order(first.field, first.ambient_dim)[1]
        sets = [frozenset(_points_of(w, index)) for _, w in g.labels]
        vertex_of = {(tag, pts): j for j, ((tag, _), pts) in enumerate(zip(g.labels, sets))}
        tables = _POINT_SETS[g] = (sets, vertex_of)
    return tables


def _vertex_images(g: Graph, phi: SemilinearMap) -> list:
    """The vertex phi(W_j) for every vertex j: the vertex whose point set
    is pi of W_j's, with pi phi's point permutation."""
    points, index = _point_order(phi.field, phi.dim)
    pi = [index[phi.apply_point(p).rep] for p in points]
    sets, vertex_of = _vertex_point_sets(g)
    return [vertex_of[tag, frozenset(pi[c] for c in pts)] for (tag, _), pts in zip(g.labels, sets)]


def vertex_permutation(g: Graph, phi: SemilinearMap) -> tuple:
    """phi's action on the vertices of a twisted Grassmann graph g: entry
    j is the vertex phi(W_j).  Computed at point level; vertex 0's image
    is compared with the literal phi.apply_subspace on every call."""
    try:
        images = _vertex_images(g, phi)
    except KeyError:
        raise ValueError("phi does not map the graph's vertex families onto themselves") from None
    if g.labels[images[0]][1] != phi.apply_subspace(g.labels[0][1]):
        raise RuntimeError("the point-level vertex action diverged from phi.apply_subspace at vertex 0")
    return tuple(images)


def check_theorem2_relation(d: Design, g: Graph, cert, phi: SemilinearMap, s: Polarity):
    """Does the lifted block action alpha satisfy alpha.f = f.phi?

    cert must be the block-map certificate: cert.mapping[j] is the
    design block of vertex j.  The right side f(phi(W)) is resolved by
    locating phi(W) among the graph's vertices and reading its certified
    block, so the check ties the certificate, the lift, and the vertex
    action together.  Returns True, the lift's NotAutomorphism if the
    lift does not permute the blocks, or the first vertex (in vertex
    order) where the relation fails, as a Theorem2Violation.
    """
    images, missing = _block_images(d, lift(phi, s))
    if missing is not None:
        return missing
    alpha = [d.block_index(img) for img in images]
    for j, i in enumerate(vertex_permutation(g, phi)):
        expected = cert.mapping[i]
        found = alpha[cert.mapping[j]]
        if found != expected:
            return Theorem2Violation(j, expected, found)
    return True


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


def _point_masks(perms: np.ndarray, sets: np.ndarray) -> np.ndarray:
    """int64 point mask of each point set under each row of perms."""
    bits = perms[:, sets].astype(np.int64)
    return np.left_shift(1, bits, out=bits).sum(axis=-1)


def _find(keys: np.ndarray, masks: np.ndarray) -> np.ndarray:
    """Position of each mask in the sorted keys, or -1 where it is absent."""
    pos = np.minimum(np.searchsorted(keys, masks), len(keys) - 1)
    return np.where(keys[pos] == masks, pos, -1)


def _census_chunk(start, mats, *, s, reps, code_index, sigma, blocks, spot_stride):
    """Lift [[A, b], [0, 1]] for every A in mats and every b; pure function.

    Returns the lifts' point permutations in element order (A major, b
    minor, element numbers from start), the (matrix rows, first failing
    block) of each lift that is not a design automorphism, and the number
    of lifts cross-checked against the literal lift().
    """
    p, n, m = s.field.p, reps.shape[1], mats.shape[1]
    bs = np.array(list(product(range(p), repeat=m)), dtype=np.int64)
    phis = np.zeros((len(mats), len(bs), n, n), dtype=np.int64)
    phis[:, :, :m, :m] = mats[:, None]
    phis[:, :, :m, m] = bs
    phis[:, :, m, m] = 1
    phis = phis.reshape(-1, n, n)
    # phi's point permutation: image representatives, scaled to lead with 1
    img = np.einsum("gij,vj->gvi", phis, reps) % p
    lead = np.take_along_axis(img, (img != 0).argmax(axis=2)[..., None], axis=2)
    inverse = np.array([0] + [pow(x, p - 2, p) for x in range(1, p)])
    perms = code_index[(img * inverse[lead] % p) @ (p ** np.arange(n - 1, -1, -1))]
    # on [H] the lift is sigma.phi.sigma: c goes to the point whose sigma
    # is phi(sigma(c)), a hyperplane of H because phi fixes H
    h_points, sigma_sets, sigma_keys, sigma_owner = sigma
    perms[:, h_points] = sigma_owner[_find(sigma_keys, _point_masks(perms, sigma_sets))]
    block_keys, block_sets = blocks
    ok = _find(block_keys, _point_masks(perms, block_sets)) >= 0
    failures = [
        (tuple(map(tuple, phis[g].tolist())), int(np.argmin(ok[g])))
        for g in np.flatnonzero(~ok.all(axis=1))
    ]
    spots = range(-start % spot_stride, len(phis), spot_stride)
    for g in spots:
        literal = lift(SemilinearMap(Matrix(s.field, phis[g].tolist()), 0), s)
        if tuple(perms[g].tolist()) != literal.perm:
            raise RuntimeError(
                f"census diverged from the literal lift at element {start + g}: "
                f"{phis[g].tolist()}"
            )
    return perms, failures, len(spots)


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
    points = _point_order(field, n)[0]
    reps = np.array([pt.rep for pt in points], dtype=np.int64)
    code_index = np.zeros(field.p ** n, dtype=np.uint8)
    code_index[reps @ (field.p ** np.arange(n - 1, -1, -1))] = np.arange(len(points))
    table = _sigma_table(s)
    h_points = np.array(list(table))
    sigma_sets = np.array([sorted(pts) for _, pts in table.values()])
    sigma_masks = _point_masks(np.arange(len(points))[None], sigma_sets)[0]
    by_mask = np.argsort(sigma_masks)
    sigma = (h_points, sigma_sets, sigma_masks[by_mask], h_points[by_mask])
    blocks = (np.sort(np.array(d.block_masks(), dtype=np.int64)), np.array(d.blocks))

    gl = _general_linear(field.p, 2 * e)
    order = stabilizer_order(field.q, e, field.f)
    per_a = field.p ** (2 * e)
    assert len(gl) * per_a == order
    step = 64  # A blocks per chunk
    starts = range(0, len(gl), step)
    work = partial(
        _census_chunk, s=s, reps=reps, code_index=code_index, sigma=sigma,
        blocks=blocks, spot_stride=4001,  # prime; 81 literal lifts
    )
    perms = np.empty((order, len(points)), dtype=np.uint8)
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
        distinct=len(np.unique(perms.view(np.dtype((np.void, len(points)))))),
        identity_count=int((perms == np.arange(len(points))).all(axis=1).sum()),
        failures=tuple(failures),
        cross_checked=cross_checked,
        elapsed=time.time() - t0,
    )
