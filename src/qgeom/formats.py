"""Serialization: graph6, DIMACS edge lists, JSON, and incidence CSV.

graph6 follows the standard ASCII encoding: a size header, then the
upper triangle of the adjacency matrix read column by column, six bits
per printable character.  Vertex order is construction order, so
identical objects serialize byte-identically.
"""

from __future__ import annotations

import numpy as np

from .geometry import _BLOCK_ROWS, Design, Graph, _edge_strips

_G6_MAX = 258047


def _g6_size(n: int) -> str:
    if n < 0:
        raise ValueError("negative size")
    if n <= 62:
        return chr(n + 63)
    if n <= _G6_MAX:
        return "~" + "".join(chr(((n >> s) & 63) + 63) for s in (12, 6, 0))
    raise ValueError(f"graphs beyond {_G6_MAX} vertices are not supported")


def encode_graph6(g: Graph) -> str:
    """The graph6 string, written 64 rows at a time: column j of the upper
    triangle is row j up to the diagonal, and the bits short of a whole
    6-bit group carry over into the next strip."""
    n = g.n
    weights = np.array([32, 16, 8, 4, 2, 1], dtype=np.uint8)
    parts, carry = [_g6_size(n)], np.zeros(0, dtype=np.uint8)
    for start in range(0, n, _BLOCK_ROWS):
        stop = min(start + _BLOCK_ROWS, n)
        rows = np.unpackbits(g.adj[start:stop], axis=1, count=stop, bitorder="little")
        bits = np.concatenate([carry, rows[np.arange(stop) < np.arange(start, stop)[:, None]]])
        whole = len(bits) - len(bits) % 6
        parts.append((bits[:whole].reshape(-1, 6) @ weights + 63).tobytes().decode("ascii"))
        carry = bits[whole:]
    if carry.size:  # the last group, zero-padded
        parts.append(chr(int(carry @ weights[: len(carry)]) + 63))
    return "".join(parts)


def decode_graph6(s: str) -> Graph:
    s = s.strip()
    if not s:
        raise ValueError("empty graph6 string")
    if s[0] == "~":
        if len(s) < 4:
            raise ValueError("truncated graph6 size")
        n = 0
        for ch in s[1:4]:
            n = (n << 6) | (ord(ch) - 63)
        body = s[4:]
    else:
        n = ord(s[0]) - 63
        body = s[1:]
    if n < 0:
        raise ValueError("bad graph6 size byte")
    need = n * (n - 1) // 2
    if len(body) != (need + 5) // 6:
        raise ValueError(f"graph6 body length {len(body)} does not fit {n} vertices")
    vals = np.frombuffer(body.encode("utf-32-le"), dtype=np.uint32).astype(np.int64) - 63
    if (bad := np.flatnonzero((vals < 0) | (vals >= 64))).size:
        raise ValueError(f"byte {body[bad[0]]!r} outside graph6 range")
    bits = np.zeros(need + 1, dtype=np.uint8)  # bits[need] stays 0: the diagonal reads it
    bits[:need] = np.unpackbits(vals.astype(np.uint8)[:, None], axis=1)[:, 2:].ravel()[:need]
    # Bit (i, j) with i < j sits at j(j-1)/2 + i; fill 64 rows at a time.
    adj = np.empty((n, (n + 7) // 8), dtype=np.uint8)
    cols = np.arange(n)
    for start in range(0, n, _BLOCK_ROWS):
        rows = np.arange(start, min(start + _BLOCK_ROWS, n))[:, None]
        hi, lo = np.maximum(rows, cols), np.minimum(rows, cols)
        index = np.where(rows == cols, need, hi * (hi - 1) // 2 + lo)
        adj[start : start + len(rows)] = np.packbits(bits[index], axis=1, bitorder="little")
    return Graph(range(n), adj)


def encode_dimacs(g: Graph) -> str:
    """The DIMACS edge list, 1-based, written strip by strip so that no
    Python object per edge is formed."""
    parts = [f"p edge {g.n} {g.num_edges()}\n"]
    for i, j in _edge_strips(g.adj, g.n):
        parts.append("".join(map("e %d %d\n".__mod__, zip((i + 1).tolist(), (j + 1).tolist()))))
    return "".join(parts)


def encode_graph_json(g: Graph) -> str:
    """json.dumps(graph_to_json(g)), written strip by strip like
    `encode_dimacs`."""
    strips = (
        ", ".join(map("[%d, %d]".__mod__, zip(i.tolist(), j.tolist())))
        for i, j in _edge_strips(g.adj, g.n)
    )
    return f'{{"n": {g.n}, "edges": [' + ", ".join(filter(None, strips)) + "]}"


def graph_to_json(g: Graph) -> dict:
    return {"n": g.n, "edges": [[i, j] for i, j in g.edges()]}


def graph_from_json(obj: dict) -> Graph:
    return Graph.from_edges(obj["n"], obj["edges"])


def design_to_json(d: Design) -> dict:
    return {"v": d.v, "blocks": [list(b) for b in d.blocks]}


def design_from_json(obj: dict) -> Design:
    return Design(range(obj["v"]), obj["blocks"])


def incidence_csv(d: Design) -> str:
    """One line of comma-separated 0/1 entries per block (one newline for no
    blocks), written from the incidence matrix's bytes."""
    text = np.full((d.b, 2 * d.v), ord(","), dtype=np.uint8)
    text[:, ::2] = d.incidence() + ord("0")
    text[:, -1:] = ord("\n")
    return text.tobytes().decode("ascii") or "\n"
