"""Structure verification: distance-regularity, isomorphism
certificates, 2-design parameters, and incidence p-rank.

Distance-regularity is checked from one base vertex per orbit of the
automorphisms the caller supplies, or from every vertex when none are
given.  The definition quantifies over all vertex pairs, and the graphs
this package cares about are not all vertex-transitive, but an
automorphism carries the BFS levels of u onto those of its image, so the
counts seen from u hold from every vertex of u's orbit.  Each
permutation that merges orbits is proved an automorphism, so the orbits
used lie inside orbits of the full automorphism group; too few
generators cost extra bases, never rigour.  Violations come back as
values carrying the first witness of the scan; malformed inputs
(disconnected or irregular graphs, permutations that are not
automorphisms) raise instead.

The check has two private parts: `_orbit_bases`, the union-find that
gives the orbit bases and the permutations that merged orbits, and
`_scan`, the BFS and its counts.  Between the two, the caller proves
each merging permutation once.  `intersection_array`, the public entry,
proves the bare vertex permutations it is given densely, by
`_maps_onto`; `verify drg` proves the stabilizer's generators at point
level instead, when `autgroup._vertex_images` finds every image in the
vertex index (the argument is at `cli._verify_drg`), and runs no dense
map test.  Nor does `verify thm1`: it compares Γ byte for byte with the
threshold graph of its own f rows, in vertex order, and
`check_isomorphism`, the public certificate test, is its oracle.

Graph checks work on `Graph`'s packed adjacency rows: a BFS level is a
packed vertex mask, read about _SLAB_BYTES of rows at a time, and one
read of a level's rows gives the next level and each vertex's b and c as
popcounts of its row ANDed with masks.  A vertex map is tested column
strip by column strip through `geometry._transpose_strip`, so no
adjacency is unpacked.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from dataclasses import field as dataclass_field

import numpy as np

from .gf import _prime_power, field_new
from .geometry import Design, DesignParameters, Graph, IsoCertificate
from .geometry import _SLAB_BYTES, _block_map, _certificate, _members, _permutation, _point_count, _row_chunks
from .geometry import _transpose_strip, _vertex_index
from .linalg import _CHUNK_ROWS, _rref_mod_p
from .polarity import Polarity
from .subspace import Subspace


class GraphStructureError(Exception):
    """The graph fails a precondition (disconnected or irregular)."""

    def __init__(self, reason: str, witness):
        super().__init__(f"{reason}: witness {witness}")
        self.reason = reason
        self.witness = witness


@dataclass(frozen=True)
class ScanCounts:
    """How an intersection-array scan ran: the BFS bases it ran, the
    vertex orbits it found, and the automorphisms it verified."""

    bfs_bases: int
    orbits: int
    automorphisms_checked: int

    def to_json(self):
        return asdict(self)


@dataclass(frozen=True)
class IntersectionArray:
    b: tuple
    c: tuple
    diameter: int
    # how the array was found; not part of the array's value
    scan: ScanCounts = dataclass_field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if len(self.b) != self.diameter or len(self.c) != self.diameter:
            raise ValueError("need diameter many b and c entries")
        if any(x <= 0 for x in self.b) or any(x <= 0 for x in self.c):
            raise ValueError("intersection numbers must be positive")
        if self.c and self.c[0] != 1:
            raise ValueError("c_1 must be 1")

    def __str__(self):
        bs = ",".join(str(x) for x in self.b)
        cs = ",".join(str(x) for x in self.c)
        return "{" + bs + ";" + cs + "}"

    def to_json(self):
        return {"b": list(self.b), "c": list(self.c), "diameter": self.diameter}


@dataclass(frozen=True)
class NotDRG:
    """Witness that some pair of vertices breaks distance-regularity."""

    base: int
    vertex: int
    distance: int
    kind: str  # "b" or "c"
    expected: int
    found: int
    base_label: str
    vertex_label: str
    scan: ScanCounts = dataclass_field(default=None, compare=False, repr=False)

    def to_json(self):
        return {
            "base": self.base,
            "vertex": self.vertex,
            "distance": self.distance,
            "kind": self.kind,
            "expected": self.expected,
            "found": self.found,
            "base_label": self.base_label,
            "vertex_label": self.vertex_label,
        }


@dataclass(frozen=True)
class NotDesign:
    """Witness that a point configuration is not a 2-design."""

    kind: str  # "block_size", "replication", or "pair_count"
    witness: tuple
    expected: int
    found: int

    def to_json(self):
        return {
            "kind": self.kind,
            "witness": list(self.witness),
            "expected": self.expected,
            "found": self.found,
        }


def _level_rows(adj: np.ndarray, level: np.ndarray, n: int):
    """Yield (members, rows): the vertices of a packed level in increasing
    order and their adjacency rows, about _SLAB_BYTES of rows at a time."""
    members = _members(level, n)
    per = max(1, _SLAB_BYTES // adj.shape[1])
    for start in range(0, len(members), per):
        yield members[start : start + per], adj[members[start : start + per]]


def _find(parent: list, v: int) -> int:
    while parent[v] != v:
        parent[v] = v = parent[parent[v]]
    return v


def _orbit_bases(n: int, perms):
    """The smallest vertex of each orbit of the group the vertex
    permutations perms generate, and a dict that maps the index k of
    each permutation that merged orbits to perms[k] as a 1-D intp array.

    ValueError names the first of perms that `_permutation` refuses.
    Nothing here proves a permutation an automorphism: one that merges
    no orbits changes nothing, and the caller proves those returned.
    """
    orbit = np.arange(n)  # each vertex's orbit, named by its smallest vertex
    parent = list(range(n))  # union-find; the smaller root wins, so a root is that smallest vertex
    merging = {}
    for k, images in enumerate(perms):
        perm = _permutation(images, f"automorphism {k}", n)
        moved = orbit != orbit[perm]
        if not moved.any():
            continue
        merging[k] = perm
        for u, v in set(zip(orbit[moved].tolist(), orbit[perm[moved]].tolist())):
            u, v = _find(parent, u), _find(parent, v)
            parent[max(u, v)] = min(u, v)
        orbit = np.array([_find(parent, u) for u in orbit.tolist()])
    return sorted(set(orbit.tolist())), merging


def _scan(g: Graph, bases, checked):
    """The intersection array from a BFS at each of bases, or the NotDRG
    witness; its ScanCounts count the automorphisms proved, `checked`.
    g has a vertex and bases covers the orbits of proved automorphisms:
    degrees are constant on an orbit, so were g irregular, b at distance
    0 would differ between two bases (`intersection_array` raises on an
    irregular graph before it gets here).

    One pass over the rows of each level i gives the next level (the OR
    of the rows, less the vertices seen) and, for each vertex u of level
    i, b(u) = |N(u) - seen| and c(u) = |N(u) & level i-1|: each neighbor
    of u not yet seen lies at distance i+1.  Every count is kept until
    the base's BFS ends, so a disconnected graph raises before any count
    is compared.  The first occurrence of distance i anywhere in the scan
    sets the expected counts, and the witness is the scan's first
    disagreeing vertex, b before c.
    """
    b = {}
    c = {}
    for run, base in enumerate(bases, 1):
        seen = np.zeros(g.adj.shape[1], dtype=np.uint8)
        seen[base >> 3] = 1 << (base & 7)
        down, level, levels = 0, seen.copy(), []  # down: the level before; c_0 = 0 every time
        while level.any():
            up, counts = np.zeros_like(seen), []
            for members, rows in _level_rows(g.adj, level, g.n):
                up |= np.bitwise_or.reduce(rows, axis=0)
                counts.append((members, np.bitwise_count(rows & ~seen).sum(axis=1), np.bitwise_count(rows & down).sum(axis=1)))
            levels.append(counts)
            down, level = level, up & ~seen
            seen |= level
        if (missing := _members(~seen, g.n)).size:
            raise GraphStructureError("disconnected", (base, int(missing[0])))
        for i, counts in enumerate(levels):
            for members, bu, cu in counts:
                wrong_b = bu != b.setdefault(i, int(bu[0]))
                wrong = np.flatnonzero(wrong_b | (cu != c.setdefault(i, int(cu[0]))))
                if wrong.size:
                    j = wrong[0]
                    u = int(members[j])
                    kind, expected, found = ("b", b[i], bu[j]) if wrong_b[j] else ("c", c[i], cu[j])
                    # the two labels alone, read from what the graph holds: a record forms no other
                    return NotDRG(
                        base, u, i, kind, expected, int(found), repr(g._labels[base]), repr(g._labels[u]),
                        ScanCounts(run, len(bases), len(checked)),
                    )
    d = max(b)
    return IntersectionArray(
        tuple(b[i] for i in range(d)),
        tuple(c[i] for i in range(1, d + 1)),
        d,
        ScanCounts(len(bases), len(bases), len(checked)),
    )


def intersection_array(g: Graph, automorphisms=()):
    """The intersection array, or a NotDRG witness.

    Runs a BFS from the smallest vertex of each orbit of the group the
    automorphisms generate, so from every vertex when none are given.
    Each automorphism is a sequence of vertex images.  GraphStructureError
    names an empty or irregular graph first; then ValueError names the
    first automorphism that is not a permutation, and then the first that
    merges orbits but does not preserve adjacency, tested densely by
    `_maps_onto` (one that merges none is passed over unverified).  For a
    vertex u at distance i from a base, the neighbor counts one level out
    and one level back must agree with the first occurrence of distance i
    anywhere in the scan.  The witness is the scan's first disagreeing
    vertex, b before c.  The result's `scan` holds the counts of bases,
    orbits and verified automorphisms.
    """
    if g.n == 0:
        raise GraphStructureError("empty", ())
    degs = np.asarray(g.degrees())
    if (irregular := np.flatnonzero(degs != degs[0])).size:
        raise GraphStructureError("irregular", (0, int(irregular[0])))
    bases, merging = _orbit_bases(g.n, automorphisms)
    for k, perm in merging.items():
        if not _maps_onto(g.adj, g.adj, perm, g.n):
            raise ValueError(f"automorphism {k} is not a graph automorphism: it does not preserve adjacency")
    return _scan(g, bases, merging)


def grassmann_array(n: int, k: int, q: int) -> IntersectionArray:
    """The intersection array of J_q(n,k) in closed form, with diameter
    d = min(k, n-k): b_j = q^(2j+1) [k-j]_q [n-k-j]_q for 0 <= j < d and
    c_j = [j]_q^2 for 1 <= j <= d (Brouwer, Cohen and Neumaier,
    Distance-Regular Graphs, 1989, Thm 9.3.3).  ValueError unless
    1 <= k <= n-1 and q is a prime power."""
    if not 1 <= k <= n - 1:
        raise ValueError(f"need 1 <= k <= n-1, got n={n}, k={k}")
    _prime_power(q)
    d = min(k, n - k)
    return IntersectionArray(
        tuple(q ** (2 * j + 1) * _point_count(k - j, q) * _point_count(n - k - j, q) for j in range(d)),
        tuple(_point_count(j, q) ** 2 for j in range(1, d + 1)),
        d,
    )


def check_isomorphism(g1: Graph, g2: Graph, cert: IsoCertificate) -> bool:
    """Does cert map g1 onto g2 edge-for-edge and non-edge-for-non-edge?

    Compares the full permuted adjacency row of every vertex, 64 rows at
    a time, so missing edges are caught as well as wrong ones.
    """
    if not isinstance(cert, IsoCertificate):
        raise ValueError(f"cert must be an IsoCertificate, got {type(cert).__name__}")
    if g1.n != g2.n:
        raise ValueError(f"vertex counts differ: {g1.n} vs {g2.n}")
    if len(cert.mapping) != g1.n:
        raise ValueError("certificate size does not match the graphs")
    return _maps_onto(g1.adj, g2.adj, np.asarray(cert.mapping, dtype=np.intp), g1.n)


def _maps_onto(adj1: np.ndarray, adj2: np.ndarray, mp: np.ndarray, n: int) -> bool:
    """Does the vertex bijection mp carry the packed adjacency adj1 onto
    adj2, edges to edges and non-edges to non-edges?  Each 8-byte column
    strip of adj2's rows mp(0), ..., mp(n-1) is transposed packed: its row
    for vertex mp(j) holds adj2[mp(i), mp(j)] for every i, so it must be
    row j of adj1, which is symmetric (`Graph` checks it)."""
    inv = np.argsort(mp)
    for c in range(0, adj1.shape[1], 8):
        cols = _transpose_strip(adj2[mp, c : c + 8], n, 0)  # row k: adj2[mp(i), 8c + k] for each i
        if not np.array_equal(cols[: n - 8 * c], adj1[inv[8 * c : 8 * c + 64]]):
            return False
    return True


def f_certificate(g: Graph, d: Design, h: Subspace, s: Polarity) -> IsoCertificate:
    """The block map as an index permutation: twisted vertex i goes to
    the design block holding exactly the points of f(W_i).  ValueError
    names the first vertex whose image is not a block of d, and any label
    that `geometry._vertex_index` refuses."""
    return _certificate(d, _block_map(_vertex_index(g), h, s))


def check_2design(d: Design):
    """DesignParameters if d is a 2-design, else the first violation.

    Scans blocks, then points, then point pairs, each in index order,
    so a failing design always reports the same witness.  Every count is
    read from the block groups of `Design.index`, and no b x v matrix is
    formed.  k comes from the group widths: block 0 lies in the first
    group, and every other group has another size.  Replication is one
    bincount of the group left.  For the pair counts, the entries of its
    (b, k) point array are sorted by point, and their rows, r at a time,
    are the blocks through each point in turn (a point -> block
    transpose).  The counts of point x with every point are one exact
    integer bincount of the points of the blocks through x, and the scan
    stops at the first y > x whose count is not lambda, the count of the
    pair (0, 1).
    """
    v, groups = d.v, d.index.groups
    if d.b == 0 or v == 0:
        raise ValueError("empty design")
    (_, pts), *others = groups
    k = pts.shape[1]
    if others:
        bi, found = min((int(numbers[0]), sets.shape[1]) for numbers, sets in others)
        return NotDesign("block_size", (bi,), k, found)
    rep = np.bincount(pts.ravel(), minlength=v)
    r = int(rep[0])
    if (bad := np.flatnonzero(rep != r)).size:
        return NotDesign("replication", (int(bad[0]),), r, int(rep[bad[0]]))
    through = (np.argsort(pts, axis=None) // k).reshape(v, r)  # row x: the blocks through point x
    lam = 0
    for x in range(v):
        counts = np.bincount(pts[through[x]].ravel(), minlength=v)
        if x == 0 and v > 1:
            lam = int(counts[1])
        if (bad := np.flatnonzero(counts[x + 1 :] != lam)).size:
            y = x + 1 + int(bad[0])
            return NotDesign("pair_count", (x, y), lam, int(counts[y]))
    return DesignParameters(v=v, b=d.b, r=r, k=k, lambda_=lam)


def p_rank(d: Design, p: int) -> int:
    """Rank of the b x v incidence matrix over GF(p), which is never formed:
    the `_row_chunks` of _CHUNK_ROWS blocks of `Design.index` are reduced
    in turn.  The rank does not depend on the order of the rows."""
    field_new(p, 1)  # ValueError unless p is a prime up to Q_MAX, which keeps the rank exact
    chunks = (n for _, n in _row_chunks(d.index.groups, d.v, _CHUNK_ROWS))
    return len(_rref_mod_p(chunks, (d.b, d.v), p)[1])


def vertex_statistics(g: Graph):
    """Per-vertex degree and triangle count, for structural exploration."""
    out = []
    for u, row in enumerate(g.adj):
        # each triangle at u is seen from both of its other corners
        tri = int(np.bitwise_count(g.adj[g.neighbors(u)] & row).sum()) // 2
        out.append({"degree": g.degree(u), "triangles": tri})
    return out
