"""Structure verification: distance-regularity, isomorphism
certificates, 2-design parameters, and incidence p-rank.

Distance-regularity is checked from every base vertex, not just one.
The definition quantifies over all vertex pairs, and the graphs this
package cares about are not all vertex-transitive, so a single-base
check would prove nothing.  Violations come back as values carrying
the lexicographically smallest witness; malformed inputs (disconnected
or irregular graphs) raise instead.

Graph checks work on `Graph`'s packed adjacency rows: a BFS level is a
packed vertex mask, and b and c are popcounts of rows ANDed with levels.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gf import field_new
from .geometry import Design, DesignParameters, Graph, _pair_counts, _row_strips, f_map
from .linalg import Matrix
from .polarity import Polarity
from .subspace import Subspace


class GraphStructureError(Exception):
    """The graph fails a precondition (disconnected or irregular)."""

    def __init__(self, reason: str, witness):
        super().__init__(f"{reason}: witness {witness}")
        self.reason = reason
        self.witness = witness


@dataclass(frozen=True)
class IntersectionArray:
    b: tuple
    c: tuple
    diameter: int

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


def _bfs_levels(adj: np.ndarray, base: int, n: int):
    """Packed masks of the distance classes from base, and of all vertices
    seen: each level is the OR of the last one's rows, minus those seen."""
    seen = np.zeros(adj.shape[1], dtype=np.uint8)
    seen[base >> 3] = 1 << (base & 7)
    levels = [seen.copy()]
    while True:
        nxt = np.bitwise_or.reduce(adj[_members(levels[-1], n)], axis=0) & ~seen
        if not nxt.any():
            return levels, seen
        levels.append(nxt)
        seen |= nxt


def _members(mask: np.ndarray, n: int) -> np.ndarray:
    """The vertices of a packed mask, in increasing order."""
    return np.flatnonzero(np.unpackbits(mask, count=n, bitorder="little"))


def intersection_array(g: Graph):
    """The intersection array, or a NotDRG witness.

    Runs a BFS from every vertex; for a vertex u at distance i from the
    base, the neighbor counts one level out and one level back must
    agree with the first occurrence of distance i anywhere in the scan.
    The witness is the scan's first disagreeing vertex, b before c.
    """
    n = g.n
    if n == 0:
        raise GraphStructureError("empty", ())
    degs = np.asarray(g.degrees())
    if (irregular := np.flatnonzero(degs != degs[0])).size:
        raise GraphStructureError("irregular", (0, int(irregular[0])))
    b = {}
    c = {}
    for base in range(n):
        levels, seen = _bfs_levels(g.adj, base, n)
        if (missing := _members(~seen, n)).size:
            raise GraphStructureError("disconnected", (base, int(missing[0])))
        # the levels before the base and past the last are empty, so c_0 = 0 every time
        for i, (down, level, up) in enumerate(zip([0, *levels], levels, [*levels[1:], 0])):
            members = _members(level, n)
            rows = g.adj[members]
            bu = np.bitwise_count(rows & up).sum(axis=1)
            cu = np.bitwise_count(rows & down).sum(axis=1)
            wrong_b = bu != b.setdefault(i, int(bu[0]))
            wrong = np.flatnonzero(wrong_b | (cu != c.setdefault(i, int(cu[0]))))
            if wrong.size:
                j = wrong[0]
                u = int(members[j])
                kind, expected, found = ("b", b[i], bu[j]) if wrong_b[j] else ("c", c[i], cu[j])
                return NotDRG(base, u, i, kind, expected, int(found), repr(g.labels[base]), repr(g.labels[u]))
    d = max(b)
    assert b[d] == 0 and all(b[i] > 0 for i in range(d))
    return IntersectionArray(
        tuple(b[i] for i in range(d)),
        tuple(c[i] for i in range(1, d + 1)),
        d,
    )


def check_isomorphism(g1: Graph, g2: Graph, cert: IsoCertificate) -> bool:
    """Does cert map g1 onto g2 edge-for-edge and non-edge-for-non-edge?

    Compares the full permuted adjacency row of every vertex, 64 rows at
    a time, so missing edges are caught as well as wrong ones.
    """
    if g1.n != g2.n:
        raise ValueError(f"vertex counts differ: {g1.n} vs {g2.n}")
    if len(cert.mapping) != g1.n:
        raise ValueError("certificate size does not match the graphs")
    mp = np.asarray(cert.mapping, dtype=np.intp)
    inverse = np.argsort(mp)
    for start, rows in _row_strips(g1.adj, g1.n):
        image = np.packbits(rows[:, inverse], axis=1, bitorder="little")
        if not np.array_equal(image, g2.adj[mp[start : start + len(rows)]]):
            return False
    return True


def f_certificate(g: Graph, d: Design, h: Subspace, s: Polarity) -> IsoCertificate:
    """The block map as an index permutation: twisted vertex i goes to
    the design block holding exactly the points of f(W_i)."""
    mapping = []
    for tag, w in g.labels:
        mapping.append(d.block_index(sorted(f_map(w, h, s))))
    return IsoCertificate(
        tuple(mapping),
        source=f"twisted-grassmann[{g.n}]",
        target=f"design-blocks[{d.b}]",
    )


def check_2design(d: Design):
    """DesignParameters if d is a 2-design, else the first violation.

    Scans blocks, then points, then point pairs, each in index order,
    so a failing design always reports the same witness.
    """
    if d.b == 0:
        raise ValueError("empty design")
    k = len(d.blocks[0])
    for bi, blk in enumerate(d.blocks):
        if len(blk) != k:
            return NotDesign("block_size", (bi,), k, len(blk))
    v = d.v
    inc = d.incidence()
    rep = inc.sum(axis=0, dtype=np.int64)
    r = int(rep[0])
    (bad,) = np.nonzero(rep != r)
    if bad.size:
        p = int(bad[0])
        return NotDesign("replication", (p,), r, int(rep[p]))
    lam = 0
    cols = np.arange(v)
    for start, counts in _pair_counts(inc.T):
        if start == 0 and v > 1:
            lam = int(counts[0, 1])
        rows = np.arange(start, start + len(counts))
        wrong = np.argwhere((counts != lam) & (cols > rows[:, None]))
        if len(wrong):
            a, bb = (int(x) for x in wrong[0])
            return NotDesign("pair_count", (start + a, bb), lam, int(counts[a, bb]))
    return DesignParameters(v=v, b=d.b, r=r, k=k, lambda_=lam)


def p_rank(d: Design, p: int) -> int:
    """Rank of the b x v incidence matrix over GF(p)."""
    field = field_new(p, 1)
    return Matrix(field, d.incidence().tolist()).rank()


def vertex_statistics(g: Graph):
    """Per-vertex degree and triangle count, for structural exploration."""
    out = []
    for u, row in enumerate(g.adj):
        # each triangle at u is seen from both of its other corners
        tri = int(np.bitwise_count(g.adj[g.neighbors(u)] & row).sum()) // 2
        out.append({"degree": g.degree(u), "triangles": tri})
    return out
