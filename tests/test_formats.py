import hashlib
import json
import random

import numpy as np
import pytest

from qgeom import (
    Design,
    Graph,
    decode_graph6,
    design_from_json,
    design_to_json,
    encode_dimacs,
    encode_graph6,
    encode_graph_json,
    graph_from_json,
    graph_to_json,
    incidence_csv,
    pg_design,
    field_new,
    twisted_grassmann,
)
from qgeom.cli import _serialize


def random_graph(n, p, rng):
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    return Graph.from_edges(n, edges)


def test_graph6_base_cases():
    assert encode_graph6(Graph.from_edges(1, [])) == "@"
    assert encode_graph6(Graph.from_edges(2, [(0, 1)])) == "A_"
    k4 = Graph.from_edges(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
    assert encode_graph6(k4) == "C~"
    c5 = Graph.from_edges(5, [(i, (i + 1) % 5) for i in range(5)])
    assert encode_graph6(c5) == "Dhc"


def _literal_graph6(g):
    """graph6 one bit at a time: the size header, then bit (i, j), i < j, of
    the upper triangle column by column, six bits per character."""
    n = g.n
    header = chr(n + 63) if n <= 62 else "~" + "".join(chr((n >> s & 63) + 63) for s in (12, 6, 0))
    bits = [int(g.is_adjacent(i, j)) for j in range(1, n) for i in range(j)]
    bits += [0] * (-len(bits) % 6)
    return header + "".join(chr(63 + int("".join(map(str, bits[t : t + 6])), 2)) for t in range(0, len(bits), 6))


@pytest.mark.parametrize("n", [0, 1, 2, 7, 63, 64, 65, 129, 200])
def test_graph6_matches_the_literal_encoder(n):
    # rows 0..127 hold 8128 bits, 4 past a whole group, so from n = 129 on a
    # 6-bit group spans two strips of 64 rows
    rng = random.Random(n)
    for p in (0.0, 0.5, 1.0):
        g = random_graph(n, p, rng)
        assert encode_graph6(g) == _literal_graph6(g)


def test_graph6_decode_base_cases():
    g = decode_graph6("Dhc")
    assert g.n == 5
    assert sorted(g.edges()) == [(0, 1), (0, 4), (1, 2), (2, 3), (3, 4)]
    assert decode_graph6("@").n == 1
    assert decode_graph6("A_").is_adjacent(0, 1)


def _literal_decode(text):
    """The 0/1 matrix of a graph6 string, one bit at a time."""
    n = ord(text[0]) - 63 if text[0] != "~" else sum((ord(ch) - 63) << s for ch, s in zip(text[1:4], (12, 6, 0)))
    bits = [ord(ch) - 63 >> t & 1 for ch in text[1 if text[0] != "~" else 4 :] for t in range(5, -1, -1)]
    dense = np.zeros((n, n), dtype=np.uint8)
    pairs = [(i, j) for j in range(1, n) for i in range(j)]
    for (i, j), bit in zip(pairs, bits):
        dense[i, j] = dense[j, i] = bit
    return dense


@pytest.mark.parametrize("n", [*range(1, 71), 130])
def test_graph6_decode_matches_the_literal_decoder(n):
    # random bodies, padding bits included, and the empty and complete graphs
    rng = random.Random(n)
    header = _literal_graph6(Graph.from_edges(n, []))[: 1 if n <= 62 else 4]
    length = (n * (n - 1) // 2 + 5) // 6
    for body in ("?" * length, "~" * length, "".join(chr(rng.randrange(63, 127)) for _ in range(length))):
        g = decode_graph6(header + body)
        assert np.array_equal(np.unpackbits(g.adj, axis=1, count=n, bitorder="little"), _literal_decode(header + body))


def test_graph6_round_trip_small():
    rng = random.Random(1)
    for n in (1, 2, 3, 5, 8, 13, 30, 62, 63, 100):
        g = random_graph(n, 0.3, rng)
        g2 = decode_graph6(encode_graph6(g))
        assert g2.n == g.n
        assert np.array_equal(g2.adj, g.adj)


def test_graph6_large_n_header():
    g = Graph.from_edges(63, [(0, 62)])
    text = encode_graph6(g)
    assert text.startswith("~")
    back = decode_graph6(text)
    assert back.n == 63
    assert back.is_adjacent(0, 62)


def test_graph6_rejects_malformed():
    with pytest.raises(ValueError):
        decode_graph6("")
    with pytest.raises(ValueError):
        decode_graph6("D")  # truncated body
    with pytest.raises(ValueError):
        decode_graph6("D" + chr(30))  # byte below printable range
    for ch in ("\u00e9", "\ud800", ">", "\x7f"):  # non-ASCII, a lone surrogate, just below and above the range
        with pytest.raises(ValueError) as info:
            decode_graph6("D" + ch + "c")
        assert str(info.value) == f"byte {ch!r} outside graph6 range"
    # a one-byte size is '?'..'}', and the three bytes after '~' are '?'..'~';
    # 336 body bytes fit 64 vertices, so only the header is wrong
    for header, ch in ((chr(127), chr(127)), ("~??" + chr(127), chr(127)), ("~?>?", ">")):
        with pytest.raises(ValueError) as info:
            decode_graph6(header + "?" * 336)
        assert str(info.value) == f"byte {ch!r} outside graph6 range"
    with pytest.raises(ValueError) as info:
        decode_graph6("~~?????~" + "?" * 10)  # the 8-byte form
    assert str(info.value) == "graphs beyond 258047 vertices are not supported"


def test_graph6_decode_peak_stays_near_the_adjacency(tg32):
    # the (3,2) graph's adjacency is 0.18 MiB and its body 0.12 MiB; the
    # decoder reads the body as bytes once and unpacks 64 rows at a time
    import tracemalloc

    text = encode_graph6(tg32)
    tracemalloc.start()
    try:
        back = decode_graph6(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(back.adj, tg32.adj)
    assert peak < 1.5 * 2**20, peak


def test_dimacs_exact():
    g = Graph.from_edges(2, [(0, 1)])
    assert encode_dimacs(g) == "p edge 2 1\ne 1 2\n"
    c4 = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    lines = encode_dimacs(c4).splitlines()
    assert lines[0] == "p edge 4 4"
    assert "e 1 2" in lines and "e 1 4" in lines


def test_graph_json_round_trip(tg22):
    data = graph_to_json(tg22)
    assert data["n"] == 155
    g2 = graph_from_json(data)
    assert np.array_equal(g2.adj, tg22.adj)


def test_strip_writers_match_the_edge_list(tg22):
    rng = random.Random(11)
    # 0 edges, one edge past the first 64-row strip, a strip with no edges
    graphs = [Graph.from_edges(3, []), Graph.from_edges(70, [(65, 69)]), tg22]
    graphs += [random_graph(n, 0.2, rng) for n in (1, 2, 63, 64, 65, 130)]
    for g in graphs:
        edges = g.edges()
        assert encode_graph_json(g) == json.dumps({"n": g.n, "edges": [list(e) for e in edges]})
        assert encode_graph_json(g) == json.dumps(graph_to_json(g))
        lines = [f"p edge {g.n} {len(edges)}"] + [f"e {i + 1} {j + 1}" for i, j in edges]
        assert encode_dimacs(g) == "\n".join(lines) + "\n"


def test_design_json_round_trip(jt22):
    data = design_to_json(jt22)
    assert data["v"] == 31
    d2 = design_from_json(data)
    assert d2.blocks == jt22.blocks


@pytest.mark.parametrize("block", [[0.5, 1], [1.0, 2], [True, 2], ["1", 2], [None, 1]])
def test_design_json_rejects_non_integer_points(block):
    data = json.loads(json.dumps({"v": 3, "blocks": [[0, 1], block]}))
    with pytest.raises(ValueError, match="block 1 has an index that is not an integer"):
        design_from_json(data)


def test_graph_json_rejects_edges_that_are_not_pairs():
    for edges in ([[0, 1, 2, 3]], [[0], [1]], [[0, 1], [2]]):
        with pytest.raises(ValueError):
            graph_from_json({"n": 4, "edges": edges})


@pytest.mark.parametrize("edge", [[0.7, 1.9], [1.0, 2], [True, 2], [0, False]])
def test_graph_json_rejects_non_integer_endpoints(edge):
    data = json.loads(json.dumps({"n": 3, "edges": [[0, 1], edge]}))
    with pytest.raises(ValueError, match="edge 1 has an index that is not an integer"):
        graph_from_json(data)


@pytest.mark.parametrize(
    "text,message",
    [
        ('{"n": 3, "edges": [5]}', "edge 0 is not a sequence of indices: 5"),
        ('{"n": 3, "edges": [null]}', "edge 0 is not a sequence of indices: None"),
        ('{"n": "3", "edges": []}', "'n' must be a non-negative integer, got '3'"),
        ('{"n": true, "edges": []}', "'n' must be a non-negative integer, got True"),
        ('{"n": 3}', "the JSON object has no 'edges' entry"),
        ('{"n": -1, "edges": []}', "'n' must be a non-negative integer, got -1"),
    ],
    ids=["edge-int", "edge-null", "n-string", "n-bool", "no-edges", "n-negative"],
)
def test_graph_json_refuses_malformed_input_by_name(text, message):
    with pytest.raises(ValueError) as info:
        graph_from_json(json.loads(text))
    assert str(info.value) == message


@pytest.mark.parametrize(
    "text,message",
    [
        ('{"v": 3, "blocks": [5]}', "block 0 is not a sequence of indices: 5"),
        ('{"v": "3", "blocks": []}', "'v' must be a non-negative integer, got '3'"),
        ('{"v": 3.0, "blocks": []}', "'v' must be a non-negative integer, got 3.0"),
        ('{"v": -2, "blocks": []}', "'v' must be a non-negative integer, got -2"),
    ],
    ids=["block-int", "v-string", "v-float", "v-negative"],
)
def test_design_json_refuses_malformed_input_by_name(text, message):
    with pytest.raises(ValueError) as info:
        design_from_json(json.loads(text))
    assert str(info.value) == message


def test_numpy_integer_indices_are_plain_ints():
    d = Design(range(3), [np.array([2, 0], dtype=np.uint8), (np.int64(1), 2)])
    assert d.blocks == ((0, 2), (1, 2)) and all(type(x) is int for b in d.blocks for x in b)
    g = Graph.from_edges(3, np.array([[0, 2]], dtype=np.int32))
    assert g.edges() == [(0, 2)]
    assert graph_from_json({"n": 3, "edges": []}).num_edges() == 0


def test_incidence_csv_shape(jt22):
    text = incidence_csv(jt22)
    rows = text.strip().split("\n")
    assert len(rows) == 155
    for row in rows:
        cells = row.split(",")
        assert len(cells) == 31
        assert sum(int(c) for c in cells) == 7


def test_incidence_csv_matches_the_joined_rows(jt22):
    for d in (Design([], []), Design([], [[]]), Design(range(3), [[0, 2], [1]]), jt22):
        rows = d.incidence().tolist()
        assert incidence_csv(d) == "\n".join(",".join(str(x) for x in row) for row in rows) + "\n"


def test_incidence_csv_fano():
    fano = pg_design(field_new(2), 1)
    text = incidence_csv(fano)
    rows = text.strip().split("\n")
    assert len(rows) == 7
    assert all(sum(int(c) for c in r.split(",")) == 3 for r in rows)


# SHA-256 of the twisted graph's exports (coordinate hyperplane, identity
# polarity), as `qgeom build twisted --format ...` writes them.
EXPORT_SHA256 = {
    (2, "graph6"): "e92efb62f2df921f7cb308e976b2bd110d6cafad185f2f68465f0f87de9a5efc",
    (2, "dimacs-edges"): "e7160c8496dcca86f373ae75c6fa854f35d240fdeb24aa63018ccf71016768b2",
    (2, "json"): "5683ccef8fc12d016bc23653f0eb72b05116721321dadfd28fa48abfc7c3d538",
    (3, "graph6"): "2b5095f928e61a3bf076c2300380be63222695964828b72b2446ab9b41f89776",
    (3, "dimacs-edges"): "8502b244d38436fa766fc04ee6de8bc0ccba3e27cf8cc855c8d4a71eedbdbbf4",
    (3, "json"): "8daab76a50bed0f28f292c573e0cd259a3deaf6128a3741d31674883b92943ee",
}


@pytest.mark.parametrize("q", [2, 3])
def test_twisted_graph_exports_are_pinned(q):
    g = twisted_grassmann(field_new(q), 2)
    for fmt in ("graph6", "dimacs-edges", "json"):
        digest = hashlib.sha256(_serialize(g, fmt).encode()).hexdigest()
        assert digest == EXPORT_SHA256[q, fmt], fmt
