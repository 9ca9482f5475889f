"""Serialization: graph6, DIMACS edge lists, JSON, and incidence CSV.

graph6 follows the standard ASCII encoding: a size header, then the
upper triangle of the adjacency matrix read column by column, six bits
per printable character.  Vertex order is construction order, so
identical objects serialize byte-identically.
"""

from __future__ import annotations

import numpy as np

from .geometry import _BLOCK_ROWS, Design, Graph, _edge_strips, _transpose_strip

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
    if s[:2] == "~~":  # the 8-byte form, for sizes the encoder never writes
        raise ValueError(f"graphs beyond {_G6_MAX} vertices are not supported")
    if s[0] == "~" and len(s) < 4:
        raise ValueError("truncated graph6 size")
    # one size byte of 0..62 ('?'..'}'), or '~' and three of 0..63 each
    size, top, body = (s[1:4], "~", s[4:]) if s[0] == "~" else (s[0], "}", s[1:])
    if (bad := next((ch for ch in size if not "?" <= ch <= top), None)) is not None:
        raise ValueError(f"byte {bad!r} outside graph6 range")
    n = 0
    for ch in size:
        n = (n << 6) | (ord(ch) - 63)
    need = n * (n - 1) // 2
    if len(body) != (need + 5) // 6:
        raise ValueError(f"graph6 body length {len(body)} does not fit {n} vertices")
    raw = np.frombuffer(body.encode("ascii"), dtype=np.uint8) if body.isascii() else None
    if raw is None or raw.size and (raw.min() < 63 or raw.max() > 126):
        bad = next(ch for ch in body if not "?" <= ch <= "~")
        raise ValueError(f"byte {bad!r} outside graph6 range")
    # Bit (i, j) with i < j sits at j(j-1)/2 + i, so row j's strictly lower
    # prefix is the stream's next j bits: fill those 64 rows at a time, each
    # strip from the characters that hold its bits, then OR into each strip
    # the transpose of its 64 columns.  Rows an earlier strip's OR changed
    # gained, in these columns, only the mirrors of this strip's own lower
    # bits, so the transpose is the same in any order.
    adj = np.zeros((n, (n + 7) // 8), dtype=np.uint8)
    for start in range(0, n, _BLOCK_ROWS):
        stop = min(start + _BLOCK_ROWS, n)
        first, last = start * (start - 1) // 2, stop * (stop - 1) // 2
        chars = raw[first // 6 : (last + 5) // 6] - 63
        below = np.arange(stop) < np.arange(start, stop)[:, None]
        lower = np.zeros(below.shape, dtype=np.uint8)
        lower[below] = np.unpackbits(chars[:, None], axis=1)[:, 2:].ravel()[first % 6 : last - first // 6 * 6]
        adj[start:stop, : (stop + 7) // 8] = np.packbits(lower, axis=1, bitorder="little")
    for start in range(0, n, _BLOCK_ROWS):
        rows = adj[start : start + _BLOCK_ROWS]
        rows |= _transpose_strip(adj, n, start // 8)[: len(rows)]
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


def _entry(obj, key: str, kind: type):
    """obj[key], refused with a ValueError that names key unless obj is a
    JSON object whose entry there has type kind: a list, or an int that is
    not negative (a bool or a float is no int)."""
    if not isinstance(obj, dict) or key not in obj:
        raise ValueError(f"the JSON object has no {key!r} entry")
    if type(value := obj[key]) is not kind or kind is int and value < 0:
        raise ValueError(f"{key!r} must be {'a non-negative integer' if kind is int else 'a list'}, got {value!r}")
    return value


def graph_from_json(obj: dict) -> Graph:
    return Graph.from_edges(_entry(obj, "n", int), _entry(obj, "edges", list))


def design_to_json(d: Design) -> dict:
    return {"v": d.v, "blocks": [list(b) for b in d.blocks]}


def design_from_json(obj: dict) -> Design:
    return Design(range(_entry(obj, "v", int)), _entry(obj, "blocks", list))


def incidence_csv(d: Design) -> str:
    """One line of comma-separated 0/1 entries per block (one newline for no
    blocks), written from the incidence matrix's bytes."""
    text = np.full((d.b, 2 * d.v), ord(","), dtype=np.uint8)
    text[:, ::2] = d.incidence() + ord("0")
    text[:, -1:] = ord("\n")
    return text.tobytes().decode("ascii") or "\n"
