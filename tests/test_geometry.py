import math
import random
from collections import Counter
from itertools import combinations

import numpy as np
import pytest

from qgeom import (
    Design,
    DesignParameters,
    Graph,
    affine_points,
    block_graph,
    coordinate_hyperplane,
    enumerate_k_subspaces,
    f_certificate,
    f_map,
    field_from_order,
    field_new,
    full_space,
    gaussian_binomial,
    graph_from_json,
    grassmann_graph,
    intersection_spectrum,
    jt_design,
    pg_design,
    point_index_map,
    polarity_new,
    projective_points,
    span,
    stabilizer_generators,
    twisted_grassmann,
    vertex_permutation,
)

E = [tuple(1 if j == i else 0 for j in range(5)) for i in range(5)]


def test_graph_validation():
    with pytest.raises(ValueError, match="not symmetric"):
        Graph(["a", "b"], np.array([[0b10], [0b00]], dtype=np.uint8))
    with pytest.raises(ValueError, match="self-loop"):
        Graph(["a"], np.array([[0b1]], dtype=np.uint8))
    g = Graph.from_edges(3, [(0, 1), (1, 2)])
    assert g.is_adjacent(0, 1) and g.is_adjacent(2, 1)
    assert not g.is_adjacent(0, 2)
    assert list(g.degrees()) == [1, 2, 1]
    assert g.num_edges() == 2
    assert list(g.edges()) == [(0, 1), (1, 2)]
    assert g.neighbors(1) == [0, 2]
    assert not g.adj.flags.writeable


def test_graph_rejects_bits_in_the_padding():
    # 11 vertices fill one byte and 3 bits of the next; bit 11 is padding
    path = np.zeros((11, 2), dtype=np.uint8)
    path[0, 0], path[1, 0] = 0b10, 0b01
    Graph(range(11), path)
    for row in (0, 10):
        bad = path.copy()
        bad[row, 1] |= 1 << 3
        with pytest.raises(ValueError, match=f"row {row} has bits beyond vertex range"):
            Graph(range(11), bad)


def test_graph_rejects_wrong_shape_or_dtype():
    with pytest.raises(ValueError, match="uint8"):
        Graph(["a", "b"], [[0b10], [0b01]])
    with pytest.raises(ValueError, match="uint8"):
        Graph(["a", "b"], np.array([[0b10], [0b01]], dtype=np.int64))
    with pytest.raises(ValueError, match="one row per label"):
        Graph(["a", "b", "c"], np.array([[0b10], [0b01]], dtype=np.uint8))
    for bad_edge in [(0, 3), (-1, 0)]:
        with pytest.raises(ValueError, match="edge endpoints"):
            Graph.from_edges(3, [bad_edge])


def test_graph_from_edges_names_the_labels_when_their_count_is_not_n():
    for labels in (["a"], ["a", "b", "c", "d"], []):
        with pytest.raises(ValueError) as exc:
            Graph.from_edges(3, [(0, 1)], labels=labels)
        assert str(exc.value) == "one label per vertex required"


@pytest.mark.parametrize("end", [2**70, -(2**70)])
def test_graph_from_edges_names_an_endpoint_past_int64(end):
    with pytest.raises(ValueError, match=r"edge endpoints must lie in 0\.\.2"):
        Graph.from_edges(3, [(0, end)])


@pytest.mark.parametrize(
    "edges, bad",
    [
        ([(0,)], "edge 0 is not a pair of endpoints: (0,)"),
        ([(0, 1, 2)], "edge 0 is not a pair of endpoints: (0, 1, 2)"),
        ([(0, 1), (1, 2, 0, 2)], "edge 1 is not a pair of endpoints: (1, 2, 0, 2)"),
        ([(0, 1), (1,), (1, 2, 0)], "edge 1 is not a pair of endpoints: (1,)"),
    ],
    ids=["1-tuple", "3-tuple", "4-tuple", "mixed"],
)
def test_graph_from_edges_names_an_edge_that_is_not_a_pair(edges, bad):
    for build in (lambda: Graph.from_edges(3, edges), lambda: graph_from_json({"n": 3, "edges": edges})):
        with pytest.raises(ValueError) as exc:
            build()
        assert str(exc.value) == bad


def test_graph_symmetry_checked_beyond_the_first_strip():
    # a 100-cycle is symmetric; each single flipped bit outside rows and
    # columns 0..63 (or across the strip boundary) breaks symmetry
    n = 100
    bits = np.zeros((n, n), dtype=np.uint8)
    for i in range(n):
        bits[i, (i + 1) % n] = bits[i, (i - 1) % n] = 1
    Graph(range(n), np.packbits(bits, axis=1, bitorder="little"))
    for i, j in [(70, 90), (90, 70), (5, 80), (99, 0)]:
        bad = bits.copy()
        bad[i, j] ^= 1
        with pytest.raises(ValueError, match="not symmetric"):
            Graph(range(n), np.packbits(bad, axis=1, bitorder="little"))


@pytest.mark.parametrize("n", [1, 7, 8, 9, 63, 64, 65, 129, 130])
def test_transpose_strip_matches_the_unpacked_transpose(n):
    # every byte column strip, the last one ragged when 8 does not divide n,
    # of the rows above a row block (r = 64t) and of all rows
    from qgeom.geometry import _transpose_strip

    adj = np.random.default_rng(n).integers(0, 256, (n, (n + 7) // 8), dtype=np.uint8)
    for r in sorted({0, 1, 63, 64, 128, n - 1, n} & set(range(n + 1))):
        for c in range(0, adj.shape[1], 8):
            cols = np.unpackbits(adj[:r, c : c + 8], axis=1, bitorder="little")
            assert np.array_equal(_transpose_strip(adj, r, c), np.packbits(cols.T, axis=1, bitorder="little"))


@pytest.mark.parametrize("n", [9, 65, 130])
def test_graph_refuses_every_flipped_off_diagonal_bit(n):
    # all n(n-1) flips at n = 9 and 65, a seeded sample of 400 at n = 130
    rng = np.random.default_rng(n)
    upper = np.triu(rng.integers(0, 2, (n, n), dtype=np.uint8), 1)
    adj = np.packbits(upper | upper.T, axis=1, bitorder="little")
    Graph(range(n), adj)
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    if n > 65:
        pairs = [pairs[t] for t in rng.choice(len(pairs), 400, replace=False)]
    for i, j in pairs:
        bad = adj.copy()
        bad[i, j >> 3] ^= 1 << (j & 7)
        with pytest.raises(ValueError, match="not symmetric"):
            Graph(range(n), bad)


def test_design_validation():
    d = Design(range(3), [(0, 1), (1, 2)])
    assert d.v == 3 and d.b == 2
    assert d.block_index((1, 0)) == 0
    with pytest.raises(ValueError):
        Design(range(3), [(0, 1), (1, 0)])  # duplicate after sorting
    with pytest.raises(ValueError):
        Design(range(2), [(0, 2)])


def test_design_parameters_consistency():
    p = DesignParameters(7, 7, 3, 3, 1)
    assert p.to_json()["v"] == 7
    with pytest.raises(ValueError):
        DesignParameters(7, 7, 3, 3, 2)
    with pytest.raises(ValueError):
        DesignParameters(8, 7, 3, 3, 1)


def test_grassmann_line_graph_is_complete():
    # 1-subspaces always meet in dim 0, so J_q(n,1) is complete
    g = grassmann_graph(3, 1, 2)
    assert g.n == 7
    assert all(d == 6 for d in g.degrees())


def test_grassmann_5_2_basic():
    g = grassmann_graph(5, 2, 2)
    assert g.n == 155
    assert set(g.degrees()) == {42}
    h = grassmann_graph(5, 3, 2)
    assert h.n == 155
    assert set(h.degrees()) == {42}


def test_twisted_vertex_split(tg22):
    assert tg22.n == 155
    tags = [lab[0] for lab in tg22.labels]
    assert tags.count("A") == 140
    assert tags.count("B") == 15
    assert tags == ["A"] * 140 + ["B"] * 15
    assert set(tg22.degrees()) == {42}


def test_twisted_32_shape(tg32):
    assert tg32.n == 1210
    tags = [lab[0] for lab in tg32.labels]
    assert tags.count("A") == 1170
    assert tags.count("B") == 40
    assert set(tg32.degrees()) == {156}


def test_twisted_adjacency_cases(setting22, tg22):
    field, h, s = setting22
    by_label = {lab: i for i, lab in enumerate(tg22.labels)}
    # two A vertices sharing a 2-dim intersection
    w1 = span(field, 5, [E[0], E[1], E[4]])
    w2 = span(field, 5, [E[0], E[2], E[4]])
    assert tg22.is_adjacent(by_label[("A", w1)], by_label[("A", w2)])
    # an A vertex covers a contained B vertex
    b1 = span(field, 5, [E[0]])
    assert tg22.is_adjacent(by_label[("A", w1)], by_label[("B", b1)])
    b2 = span(field, 5, [E[2]])
    assert not tg22.is_adjacent(by_label[("A", w1)], by_label[("B", b2)])
    # two B vertices always meet in dim 0 here, hence are adjacent
    assert tg22.is_adjacent(by_label[("B", b1)], by_label[("B", b2)])


def test_pair_counts_match_the_literal_subspace_path(tg22):
    # every pair, against intersection dimensions computed by elimination
    def literal(a, b):
        (ta, wa), (tb, wb) = a, b
        if ta != tb:
            big, small = (wa, wb) if ta == "A" else (wb, wa)
            return big.contains(small)
        return wa.dim_intersect(wb) == (2 if ta == "A" else 0)

    pairs = list(combinations(range(tg22.n), 2))
    assert len(pairs) == 11935
    for i, j in pairs:
        assert tg22.is_adjacent(i, j) == literal(tg22.labels[i], tg22.labels[j])
    g = grassmann_graph(5, 2, 2)
    for i, j in combinations(range(g.n), 2):
        assert g.is_adjacent(i, j) == (g.labels[i].dim_intersect(g.labels[j]) == 1)


def test_pair_counts_beyond_one_byte():
    # two blocks sharing 300 points: a count that wraps in 8-bit arithmetic
    d = Design(range(302), [range(0, 301), range(1, 302)])
    assert dict(intersection_spectrum(d)) == {300: 1}
    assert block_graph(d, 300).edges() == [(0, 1)]


@pytest.mark.parametrize("height", [1, 7, 8, 63, 64, 65, 129, 200])
def test_pair_counts_and_count_graph_match_the_full_product(height):
    from qgeom.geometry import _by_size, _count_graph, _pair_counts

    rng = np.random.default_rng(height)
    # sets of 4 and 6 of 12 points: one size throughout; the size changing at
    # row 5 (inside the first row block), at row 64 (on a block boundary) and
    # at row 70 (inside the second); sizes alternating every 3 rows, several
    # runs per block; and sizes drawn from 0..12, many groups interleaved
    steps = [np.arange(height) >= at for at in (5, 64, 70)] + [np.arange(height) // 3 % 2 == 1]
    mixed = 0  # adjacent pairs of two sizes
    for sizes in [np.full(height, 4), *(np.where(step, 6, 4) for step in steps), rng.integers(0, 13, height)]:
        n = np.zeros((height, 12), dtype=np.uint8)
        for row, size in zip(n, sizes):
            row[rng.choice(12, size, replace=False)] = 1
        full = n.astype(np.int64) @ n.T.astype(np.int64)
        groups = _by_size([np.flatnonzero(row)[None] for row in n])  # one group per set size
        starts = []
        for start, counts in _pair_counts(groups, 12):
            starts.append(start)
            assert np.array_equal(counts, full[start : start + 64, start:])
        assert starts == list(range(0, height, 64))
        # a constant, and a rule that reads both sizes: two sets of 4, or two
        # of 6, sharing 1 point, a set of 4 and a set of 6 sharing 4
        for rule in (lambda a, b: 2, lambda a, b: a * b % 5):
            expected = full == np.array([[rule(a, b) for b in sizes.tolist()] for a in sizes.tolist()])
            np.fill_diagonal(expected, False)
            g = _count_graph(range(height), groups, 12, rule)
            assert np.array_equal(np.unpackbits(g.adj, axis=1, count=height, bitorder="little"), expected)
            assert height < 8 or expected.any()
            mixed += int((expected & (sizes[:, None] != sizes)).sum())
    assert height < 8 or mixed > 0


def _meet_rule(q: int):
    """The dense oracle's rule for the twisted graph and J_q(n,k):
    subspaces U and W are adjacent when dim(U ∩ W) = (dim U + dim W)/2 - 1.
    A d-subspace has a = [d]_q points, and (q-1)a + 1 = q^d, so the product
    of that term over the two sets is q^(dim U + dim W)."""
    return lambda a, b: (q ** (round(math.log((a * (q - 1) + 1) * (b * (q - 1) + 1), q)) // 2 - 1) - 1) // (q - 1)


def _dense_meet_graph(labels):
    """The meet graph of a record from every pairwise count."""
    from qgeom.geometry import _count_graph

    return _count_graph(labels, labels.groups, labels.points, _meet_rule(labels.field.q))


@pytest.mark.parametrize(
    "q,e,seed", [(2, 2, None), (3, 2, None), (4, 2, None), (2, 3, None), (2, 2, 0), (3, 2, 1)],
    ids=["q2e2", "q3e2", "q4e2", "q2e3", "q2e2-random0", "q3e2-random1"],
)
def test_twisted_graph_is_the_dense_meet_rule(q, e, seed):
    # the shared-hyperplane kernel against every pairwise count, byte for
    # byte: at e = 2 the B vertices are points, whose hyperplane is the
    # empty set, so all of B is one bucket
    field = field_from_order(q)
    h = None if seed is None else _random_hyperplane(field, 2 * e + 1, random.Random(seed))
    assert seed is None or h != coordinate_hyperplane(field, 2 * e + 1)
    g = twisted_grassmann(field, e, h)
    assert g.adj.tobytes() == _dense_meet_graph(g._family).adj.tobytes()


@pytest.mark.parametrize("n,k,q", [(n, k, q) for q in (2, 3) for n in range(2, 6) for k in range(1, n)] + [(5, 2, 4)])
def test_grassmann_graph_is_the_dense_meet_rule(n, k, q):
    g = grassmann_graph(n, k, q)
    assert g.adj.tobytes() == _dense_meet_graph(g._family).adj.tobytes()
    assert (g.num_edges() == g.n * (g.n - 1) // 2) == (k in (1, n - 1))  # complete exactly at the ends


def test_intersection_spectrum_matches_every_pair_beyond_one_row_block(jt22):
    rng = random.Random(5)
    blocks = sorted({tuple(sorted(rng.sample(range(20), rng.randrange(1, 12)))) for _ in range(150)})
    for d in (Design(range(20), blocks), jt22):
        assert d.b > 64
        literal = Counter(len(set(x) & set(y)) for x, y in combinations(d.blocks, 2))
        assert intersection_spectrum(d) == literal


def test_pg_design_shape(pg22):
    assert pg22.v == 31
    assert pg22.b == 155
    assert all(len(blk) == 7 for blk in pg22.blocks)
    assert all(lab[0] == "PG" for lab in pg22.block_labels)


def test_jt_design_shape(jt22):
    assert jt22.v == 31
    assert jt22.b == 155
    assert all(len(blk) == 7 for blk in jt22.blocks)
    tags = [lab[0] for lab in jt22.block_labels]
    assert tags == ["A"] * 140 + ["B"] * 15


def test_jt_design_32_shape(jt32):
    assert jt32.v == 121
    assert jt32.b == 1210
    assert all(len(blk) == 13 for blk in jt32.blocks)


def test_f_map_worked_example(setting22):
    field, h, s = setting22
    w = span(field, 5, [E[0], E[1], E[4]])
    pts = f_map(w, h, s)
    idx = point_index_map(field, 5)
    expected_reps = {
        (0, 0, 1, 0, 0),
        (0, 0, 0, 1, 0),
        (0, 0, 1, 1, 0),
        (0, 0, 0, 0, 1),
        (1, 0, 0, 0, 1),
        (0, 1, 0, 0, 1),
        (1, 1, 0, 0, 1),
    }
    assert pts == frozenset(idx[r] for r in expected_reps)


def test_f_map_on_b_family(setting22, jt22):
    field, h, s = setting22
    # a 1-subspace of H maps to the 7 points of its polar 3-space
    w = span(field, 5, [E[0]])
    pts = f_map(w, h, s)
    idx = point_index_map(field, 5)
    polar = span(field, 5, [E[1], E[2], E[3]])
    assert pts == frozenset(idx[p.rep] for p in projective_points(polar))
    assert jt22.has_block(sorted(pts))


def test_f_map_images_are_blocks_and_distinct(setting22, tg22, jt22):
    field, h, s = setting22
    images = []
    for tag, w in tg22.labels:
        if tag == "A":
            images.append(f_map(w, h, s))
    assert len(set(images)) == 140
    for img in images:
        assert len(img) == 7
        assert jt22.has_block(sorted(img))


def test_f_map_rejects_wrong_family(setting22):
    field, h, s = setting22
    with pytest.raises(ValueError):
        f_map(span(field, 5, [E[0], E[1]]), h, s)  # middle dimension
    with pytest.raises(ValueError):
        f_map(span(field, 5, [E[0], E[1], E[2]]), h, s)  # (e+1)-dim but inside h
    with pytest.raises(ValueError):
        f_map(span(field, 5, [E[4]]), h, s)  # (e-1)-dim but outside h
    with pytest.raises(ValueError):
        f_map(span(field_new(3), 5, [E[0]]), h, s)  # another field


def _literal_f_map(w, h, s):
    """f subspace by subspace: the points of s(w ∩ h) and the points of w
    outside h for the A family, the points of s(w) for the B family."""
    idx = point_index_map(w.field, w.ambient_dim)
    if h.contains(w):
        pts = projective_points(s.apply(w))
    else:
        pts = projective_points(s.apply(w.intersect(h))) + affine_points(w, h)
    return frozenset(idx[p.rep] for p in pts)


# pairs coordinates 0,1 and 2,3; alternating, so symplectic, over GF(2)
PAIRED_GRAM = [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]]


@pytest.mark.parametrize("gram", [None, PAIRED_GRAM], ids=["identity", "paired"])
@pytest.mark.parametrize(
    "q,seed", [(2, None), (3, None), (4, None), (2, 0), (2, 1), (3, 0), (3, 1)],
    ids=["2", "3", "4", "2-random0", "2-random1", "3-random0", "3-random1"],
)
def test_f_map_matches_the_literal_subspace_map(q, seed, gram):
    # the batched rows (jt_design's A blocks, f_certificate's blocks) and
    # f_map against f taken subspace by subspace; a seeded sample at q = 4.
    # Under a seeded random hyperplane, [h]'s points fall anywhere in the
    # point order, not on the coordinate hyperplane's regular stride.
    field = field_from_order(q)
    h = coordinate_hyperplane(field, 5) if seed is None else _random_hyperplane(field, 5, random.Random(10 * q + seed))
    assert seed is None or h != coordinate_hyperplane(field, 5)
    s = polarity_new(field, h, gram)
    g = twisted_grassmann(field, 2, h, s)
    d = jt_design(field, 2, h, s)
    cert = f_certificate(g, d, h, s)
    assert {tag for tag, _ in g.labels} == {"A", "B"}
    a_blocks = {w: blk for (tag, w), blk in zip(d.block_labels, d.blocks) if tag == "A"}
    vertices = range(g.n) if q < 4 else sorted(random.Random(q).sample(range(g.n), 300))
    for j in vertices:
        tag, w = g.labels[j]
        literal = _literal_f_map(w, h, s)
        assert frozenset(d.blocks[cert.mapping[j]]) == literal
        assert tag == "B" or frozenset(a_blocks[w]) == literal
        assert f_map(w, h, s) == literal


def test_f_certificate_rejects_a_label_in_neither_family(setting22, tg22, jt22):
    field, h, s = setting22
    middle = ("A", span(field, 5, [E[0], E[1]]))  # dimension e: neither family
    g = Graph.from_edges(4, [], labels=tg22.labels[:3] + (middle,))
    with pytest.raises(ValueError, match="neither vertex family"):
        f_certificate(g, jt22, h, s)
    with pytest.raises(ValueError, match="not a polarity of h"):
        f_certificate(tg22, jt22, span(field, 5, E[1:]), s)
    with pytest.raises(ValueError, match="odd-dimensional"):
        f_map(tg22.labels[0][1], span(field, 5, E[1:4]), s)


def test_f_certificate_names_the_first_vertex_whose_image_is_no_block(setting22, tg22, pg22):
    # f of an A vertex mixes polar and affine points, so it is no PG block
    field, h, s = setting22
    with pytest.raises(ValueError, match=r"f of vertex 0 is not a block of the design: \(1, 3, 4, 5, 12, 20, 28\)"):
        f_certificate(tg22, pg22, h, s)


@pytest.mark.parametrize("q,gram", [(2, None), (3, None), (2, PAIRED_GRAM)], ids=["q2", "q3", "q2-paired"])
def test_instance_certificate_is_f_certificate(q, gram):
    from qgeom.geometry import _Instance

    field = field_from_order(q)
    h = coordinate_hyperplane(field, 5)
    s = polarity_new(field, h, gram)
    literal = f_certificate(twisted_grassmann(field, 2, h, s), jt_design(field, 2, h, s), h, s)
    assert _Instance(field, 2, h, s).certificate == literal


def test_batched_f_is_the_same_in_slabs_of_one(monkeypatch, setting32, tg32, jt32):
    import qgeom.geometry as geometry

    field, h, s = setting32
    cert = f_certificate(tg32, jt32, h, s)
    monkeypatch.setattr(geometry, "_SLAB_BYTES", 1)  # one subspace or map per slab
    assert jt_design(field, 2, h, s).blocks == jt32.blocks
    assert f_certificate(tg32, jt32, h, s) == cert


def test_jt_block_sizes_follow_family_formulas(setting22, jt22):
    # A blocks: (q^e - 1)/(q - 1) polar points + q^e affine points
    field, h, s = setting22
    for (tag, w), blk in zip(jt22.block_labels, jt22.blocks):
        assert len(blk) == 7
        if tag == "A":
            inside = [p for p in blk if point_in_h(field, jt22, p)]
            assert len(inside) == 3
        else:
            assert all(point_in_h(field, jt22, p) for p in blk)


def point_in_h(field, d, p):
    return d.points[p].rep[-1] == 0


def test_intersection_spectrum_fano():
    fano = pg_design(field_new(2), 1)
    assert fano.v == 7 and fano.b == 7
    spectrum = intersection_spectrum(fano)
    assert dict(spectrum) == {1: 21}


def test_intersection_spectra_match(jt22, pg22):
    s_jt = intersection_spectrum(jt22)
    s_pg = intersection_spectrum(pg22)
    assert dict(s_jt) == {1: 8680, 3: 3255}
    assert s_jt == s_pg
    assert sum(s_jt.values()) == 155 * 154 // 2


def test_block_graph_of_pg_is_grassmann(pg22):
    bg = block_graph(pg22, 3)
    g = grassmann_graph(5, 3, 2)
    index_of = {sub: i for i, sub in enumerate(g.labels)}
    for j, (tag, u) in enumerate(pg22.block_labels):
        assert tag == "PG"
        assert index_of[u] is not None
    # adjacency transported along matching labels
    perm = [index_of[u] for (tag, u) in pg22.block_labels]
    for i in range(bg.n):
        for j in range(i + 1, bg.n):
            assert bg.is_adjacent(i, j) == g.is_adjacent(perm[i], perm[j])


def test_adjacency_iff_block_intersection_sampled(tg22, jt22, cert22):
    # vertex adjacency matches the 3-point intersection rule on f-images
    masks = [sum(1 << i for i in blk) for blk in jt22.blocks]
    to_block = cert22.mapping
    rng = random.Random(4)
    for _ in range(3000):
        i = rng.randrange(155)
        j = rng.randrange(155)
        if i == j:
            continue
        same = (masks[to_block[i]] & masks[to_block[j]]).bit_count() == 3
        assert tg22.is_adjacent(i, j) == same


# (p, f, n): GF(q)^n for q = 2, 3, 4, an odd-p extension field and an f = 3 field; then the
# planes of the largest prime field and of the fields of most p-digits, the edges of float32 exactness
_POINT_SET_SPACES = [(2, 1, 5), (3, 1, 4), (2, 2, 4), (3, 2, 3), (2, 3, 3), (251, 1, 2), (2, 8, 2), (3, 5, 2)]


@pytest.mark.parametrize("p,f,n", _POINT_SET_SPACES, ids=["q2", "q3", "q4", "q9", "q8", "q251", "q256", "q243"])
def test_point_sets_match_projective_points(p, f, n):
    from qgeom.geometry import _vertex_index

    field = field_new(p, f)
    index = point_index_map(field, n)
    # every k-subspace, k = 0..n-1, as the label tuples of one graph: one kernel batch per dimension
    subs = [w for k in range(n) for w in enumerate_k_subspaces(full_space(field, n), k)]
    assert len(subs) == sum(gaussian_binomial(n, k, field.q) for k in range(n))
    groups = _vertex_index(Graph.from_edges(len(subs), [], labels=[(w.dim, w) for w in subs])).groups
    assert sorted(pts.shape[1] for _, pts in groups) == [(field.q ** k - 1) // (field.q - 1) for k in range(n)]
    sets = [None] * len(subs)
    for rows, pts in groups:
        for r, row in zip(rows.tolist(), pts.tolist()):
            sets[r] = row
    assert sets == [sorted(index[pt.rep] for pt in projective_points(w)) for w in subs]


def _map_batch(maps):
    """The (field, matrices, Frobenius powers) arguments of `_point_images`
    for a batch of semilinear maps."""
    mats = np.array([phi.matrix.entries for phi in maps], dtype=np.intp)
    return maps[0].field, mats, np.array([phi.frob for phi in maps], dtype=np.intp)


@pytest.mark.parametrize("p,f", [(251, 1), (2, 8), (3, 5)], ids=["q251", "q256", "q243"])
def test_point_images_of_square_maps_at_the_edges_of_exactness(p, f):
    # q = 251 has the largest digit products, q = 256 and 243 the most digits per coordinate
    from qgeom.autgroup import SemilinearMap
    from qgeom.geometry import _point_images, _point_order
    from qgeom.linalg import Matrix

    field, rng = field_new(p, f), random.Random(p * f)
    q = field.q
    rows = [[[q - 1, q - 1], [0, q - 1]]]  # every digit p - 1
    rows += [[[rng.randrange(1, q), rng.randrange(q)], [0, rng.randrange(1, q)]] for _ in range(11)]
    maps = [SemilinearMap(Matrix(field, r), j % f) for j, r in enumerate(rows)]  # every Frobenius power
    points, index = _point_order(field, 2)
    literal = [[index[phi.apply_point(pt).rep] for pt in points] for phi in maps]
    assert _point_images(*_map_batch(maps)).tolist() == literal


def test_point_images_refuse_codes_and_sums_beyond_exact_float32():
    from types import SimpleNamespace

    from qgeom.geometry import _field_arrays, _point_images, _vector_tables

    before = _vector_tables.cache_info(), _field_arrays.cache_info()
    with pytest.raises(ValueError, match=r"GF\(256\)\^4 .*\(2\*\*24\)"):
        _point_images(field_new(2, 8), np.zeros((1, 4, 1), dtype=np.intp), np.zeros(1, dtype=np.intp))
    # 4093^2 < 2**24, but a sum of two digit products reaches 2 * 4092^2
    with pytest.raises(ValueError, match=r"GF\(4093\)\^2 .*\(2\*\*24\)"):
        _point_images(SimpleNamespace(p=4093, f=1, q=4093), np.zeros((1, 2, 2), dtype=np.intp), np.zeros(1, np.intp))
    assert (_vector_tables.cache_info(), _field_arrays.cache_info()) == before  # nothing built


@pytest.mark.parametrize("q,n", [(2, 5), (3, 5), (4, 5), (5, 5), (2, 7), (8, 4), (9, 4), (16, 3)])
def test_basis_images_of_rref_bases_are_increasing_rows(q, n):
    # c -> cB keeps the order of monic vectors for an RREF basis B, so every
    # point row comes out of the point action sorted
    from qgeom.geometry import _basis_images
    from qgeom.subspace import _rref_slabs

    field = field_from_order(q)
    for k in range(1, n):
        for bases in _rref_slabs(full_space(field, n), k):
            rows = _basis_images(field, bases).astype(np.int64)
            assert rows.shape[1] == (q ** k - 1) // (q - 1)
            assert (np.diff(rows, axis=1) > 0).all()


def test_the_twisted_graph_forms_each_point_row_once(monkeypatch):
    # Γ reads its vertices' point rows from the record, so a fresh instance
    # maps each (e+1)-subspace of V, each B vertex and h once into GF(3)^5
    import qgeom.geometry as geometry

    rows, point_images = Counter(), geometry._point_images

    def spy(field, mats, frobs):
        rows[mats.shape[1]] += len(mats)
        return point_images(field, mats, frobs)

    monkeypatch.setattr(geometry, "_point_images", spy)
    inst = geometry._Instance(field_from_order(3), 2)
    inst.graph
    assert rows[5] == gaussian_binomial(5, 3, 3) + gaussian_binomial(4, 1, 3) + 1 == 1251


def test_point_images_name_a_product_that_is_not_finite(monkeypatch):
    import qgeom.geometry as geometry

    field = field_new(3)
    bases = geometry._all_bases(full_space(field, 5), 3)[:4]
    vector_tables = geometry._vector_tables

    def poisoned(field, n):
        digits, radix, point_of = vector_tables(field, n)
        digits = digits.copy()
        digits[1, 0] = np.nan
        return digits, radix, point_of

    monkeypatch.setattr(geometry, "_vector_tables", poisoned)
    with pytest.raises(FloatingPointError) as exc:
        geometry._basis_images(field, bases)
    assert str(exc.value) == "the float32 point-image product into GF(3)^5 is not finite"


def test_point_images_are_the_same_in_slabs_of_one(monkeypatch):
    import qgeom.geometry as geometry
    from qgeom.autgroup import random_stabilizer_element

    field = field_new(3, 2)
    subs = list(enumerate_k_subspaces(full_space(field, 3), 2))
    whole = geometry._point_array(subs)
    monkeypatch.setattr(geometry, "_SLAB_BYTES", 1)
    assert np.array_equal(geometry._point_array(subs), whole)

    sizes = []  # maps per slab, read off the products that _mod reduces

    def spy(x, p):
        sizes.append(x.shape[1] // (5 * field.f))
        return mod(x, p)

    mod = geometry._mod
    monkeypatch.setattr(geometry, "_mod", spy)
    # square semilinear maps with every Frobenius power in one batch of 23, a prime, so
    # that every slab of 2..22 maps ends mid-way through it
    for p, f, split in [(2, 2, 1 << 17), (2, 3, 3 << 20), (3, 2, 3 << 20)]:
        field = field_new(p, f)
        maps = [random_stabilizer_element(field, 2, (p, f, j)) for j in range(23)]
        assert {phi.frob for phi in maps} == set(range(f))
        runs = {}
        for slab in (1 << 30, 1, split):
            monkeypatch.setattr(geometry, "_SLAB_BYTES", slab)
            sizes.clear()
            runs[slab] = geometry._point_images(*_map_batch(maps)), tuple(sizes)
        assert runs[1 << 30][1] == (23,) and runs[1][1] == (1,) * 23
        assert 1 < runs[split][1][0] < 23, runs[split][1]
        assert all(np.array_equal(images, runs[1 << 30][0]) for images, _ in runs.values())


@pytest.mark.parametrize("v,dtype", [(256, np.uint8), (257, np.uint16), (65536, np.uint16), (65537, np.uint32)])
def test_index_dtype_holds_every_point_index(v, dtype):
    from qgeom.geometry import _index_dtype

    assert _index_dtype(v) == dtype
    assert np.iinfo(_index_dtype(v)).max >= v - 1


def test_twisted_rejects_bad_instance():
    f = field_new(2)
    with pytest.raises(ValueError):
        twisted_grassmann(f, 1)
    with pytest.raises(ValueError):
        twisted_grassmann(f, 2, span(f, 5, [E[0], E[1]]))


def test_block_graph_threshold_sensitivity(pg22):
    # threshold 1 connects blocks meeting in a single point
    bg1 = block_graph(pg22, 1)
    bg3 = block_graph(pg22, 3)
    assert bg1.num_edges() == 8680
    assert bg3.num_edges() == 3255


def _random_hyperplane(field, n, rng):
    while (h := span(field, n, [[rng.randrange(field.q) for _ in range(n)] for _ in range(n - 1)])).dim < n - 1:
        pass
    return h


@pytest.mark.parametrize("q", [2, 3, 4])
def test_split_by_points_keeps_the_order_of_the_hyperplane(q):
    # the (e+1)-subspaces of V inside h come out of V's enumeration in the
    # order of h's own enumeration, so one enumeration gives both families
    from qgeom.geometry import _Instance
    from qgeom.subspace import Subspace

    field = field_from_order(q)
    rng = random.Random(q)
    for _ in range(3):
        h = _random_hyperplane(field, 5, rng)
        (tag_a, a_bases, a_sets), (tag_b, *_), (tag_rest, rest_bases, rest_sets) = _Instance(field, 2, h).families
        assert (tag_a, tag_b, tag_rest) == ("A", "B", "B")
        assert a_bases.dtype == rest_bases.dtype == np.uint8 and a_bases.shape[1:] == rest_bases.shape[1:] == (3, 5)
        a_subs, rest = ([Subspace(field, 5, tuple(map(tuple, b))) for b in bases.tolist()] for bases in (a_bases, rest_bases))
        assert rest == list(enumerate_k_subspaces(h, 3))
        assert len(set(a_subs)) + len(rest) == gaussian_binomial(5, 3, q) and set(a_subs).isdisjoint(rest)
        index = point_index_map(field, 5)
        for subs, sets in ((a_subs[:: 97], a_sets[:: 97]), (rest, rest_sets)):
            assert sets.tolist() == [sorted(index[p.rep] for p in projective_points(w)) for w in subs]
        if q < 4:  # the literal filter, all of V's 1-, 2- and 3-subspaces
            assert a_subs == [w for w in enumerate_k_subspaces(full_space(field, 5), 3) if not h.contains(w)]
            for k in (1, 2):
                inside = [w for w in enumerate_k_subspaces(full_space(field, 5), k) if h.contains(w)]
                assert inside == list(enumerate_k_subspaces(h, k))


def test_families_are_chosen_without_subspace_containment(monkeypatch):
    from qgeom.geometry import _sigma
    from qgeom.subspace import Subspace

    field = field_new(2)
    h = coordinate_hyperplane(field, 5)
    s = polarity_new(field, h)
    _sigma(s)  # Polarity.apply checks containment; the table is built once per polarity
    expected = twisted_grassmann(field, 2, h, s), jt_design(field, 2, h, s)

    def refuse(self, other):
        raise AssertionError("Subspace.contains was called")

    monkeypatch.setattr(Subspace, "contains", refuse)
    tg, d = twisted_grassmann(field, 2, h, s), jt_design(field, 2, h, s)
    assert tg.labels == expected[0].labels and np.array_equal(tg.adj, expected[0].adj)
    assert (d.blocks, d.block_labels) == (expected[1].blocks, expected[1].block_labels)


def test_by_size_keeps_a_one_part_group_as_given():
    from qgeom.geometry import _by_size

    a, b, c = (np.arange(n * w, dtype=np.uint16).reshape(n, w) for n, w in ((3, 2), (2, 4), (4, 2)))
    ((numbers, pts),) = _by_size([a])
    assert np.shares_memory(pts, a) and numbers.tolist() == [0, 1, 2]
    (two, two_pts), (four, four_pts) = _by_size([a, b, c])
    assert np.shares_memory(four_pts, b) and four.tolist() == [3, 4]
    # a size held by two arrays is one new array, in set order
    assert not np.shares_memory(two_pts, a) and not np.shares_memory(two_pts, c)
    assert two.tolist() == [0, 1, 2, 5, 6, 7, 8] and two_pts.tolist() == [*a.tolist(), *c.tolist()]


def test_incidence_is_the_same_from_arrays_lists_and_ragged_sets():
    from qgeom.geometry import _by_size, _incidence, _Instance, _point_array

    field = field_new(3)
    h = coordinate_hyperplane(field, 5)
    (_, _, a_sets), _, _ = _Instance(field, 2, h).families
    b_sets = _point_array(list(enumerate_k_subspaces(h, 1)))
    v = 121
    from_array = _incidence(_by_size([a_sets]), v, np.uint8)
    assert from_array.dtype == np.uint8 and from_array.shape == (len(a_sets), v)
    assert (from_array.sum(axis=1) == a_sets.shape[1]).all()
    assert from_array.tobytes() == Design(range(v), a_sets).incidence().tobytes()
    assert _incidence(_by_size([a_sets]), v, np.float32).tobytes() == from_array.astype(np.float32).tobytes()
    mixed = Design(range(v), [*a_sets.tolist(), *b_sets.tolist()]).incidence()
    # two groups, each scattered to the rows of its own set numbers
    assert mixed.tobytes() == _incidence(_by_size([a_sets, b_sets]), v, np.uint8).tobytes()
    assert mixed.tobytes() == np.vstack([from_array, _incidence(_by_size([b_sets]), v, np.uint8)]).tobytes()
    for empty in (_incidence(_by_size([np.zeros((0, 4), dtype=np.uint8)]), v, np.uint8), Design(range(v), []).incidence()):
        assert empty.tobytes() == np.zeros((0, v), dtype=np.uint8).tobytes()
    ragged = Design(range(4), [(0, 1, 2), (3,), ()]).incidence()
    assert ragged.tobytes() == np.array([[1, 1, 1, 0], [0, 0, 0, 1], [0, 0, 0, 0]], dtype=np.uint8).tobytes()


@pytest.mark.parametrize("q", [2, 3])
def test_instance_f_is_one_array_of_sorted_blocks(q):
    from qgeom.geometry import _Instance

    inst = _Instance(field_new(q), 2)
    f = inst.f
    assert isinstance(f, np.ndarray) and f.dtype.kind == "u"
    assert f.shape == (len(inst.labels), q ** 2 + q + 1)
    assert (np.diff(f.astype(np.intp), axis=1) > 0).all()


@pytest.mark.parametrize("q", [2, 3])
def test_design_from_an_array_equals_the_design_from_its_rows(q):
    from qgeom.geometry import _Instance

    inst = _Instance(field_new(q), 2)
    (_, a, _), _, (_, _, inside_sets) = inst.families
    arr = np.vstack([inst.f[: len(a)], inside_sets])[:, ::-1]  # rows unsorted: the design sorts them
    from_array, from_rows = Design(inst.points, arr), Design(inst.points, arr.tolist())
    assert from_array.blocks == from_rows.blocks == inst.jt.blocks
    assert from_array.incidence().tobytes() == from_rows.incidence().tobytes() == inst.jt.incidence().tobytes()
    for d in (from_array, from_rows):
        assert [(r.tolist(), p.tolist()) for r, p in d.index.groups] == [
            (r.tolist(), p.tolist()) for r, p in inst.jt.index.groups
        ]
        assert np.array_equal(d.index.slots, inst.jt.index.slots)


@pytest.mark.parametrize(
    "blocks, names",
    [
        (np.array([[True, False], [False, True]]), "block 0 has an index that is not an integer"),
        (np.array([[0.0, 1.0], [1.0, 2.0]]), "block 0 has an index that is not an integer"),
        (np.array([[0, 1], [2, 3], [1, 1]]), "block 2 repeats a point"),
        (np.array([[0, 1], [2, 4], [1, 3]]), "block 1 has point indices outside 0..3"),
        (np.array([[0, 1], [2, 3], [1, 0]]), "blocks 0 and 2 are identical"),
    ],
    ids=["bool", "float", "repeat", "range", "identical"],
)
def test_design_refuses_an_array_as_it_refuses_its_rows(blocks, names):
    with pytest.raises(ValueError, match=names) as from_array:
        Design(range(4), blocks)
    with pytest.raises(ValueError, match=names) as from_rows:
        Design(range(4), blocks.tolist())
    assert str(from_array.value) == str(from_rows.value)


def test_design_of_one_empty_block_builds_an_index():
    d = Design([], [[]])
    assert d.b == 1 and len(d.index) == 1 and d.has_block(()) and d.block_index([]) == 0
    assert d.index.find(np.zeros((1, 0), dtype=np.uint8)).tolist() == [0]
    assert Design([], []).b == 0 and not Design([], []).has_block(())


def test_design_lookups_refuse_what_is_not_a_block():
    d = Design(range(4), [(0, 1), (1, 2, 3)])
    assert d.block_index([3, 2, 1]) == 1 and d.has_block(np.array([1, 0]))
    for other in ([0, 0, 1], [0, 4], [-1, 0], [0.0, 1], ["0", "1"], [None, 1], [2**70, 1], [1], [0, 1, 2]):
        assert not d.has_block(other)
    with pytest.raises(KeyError):
        d.block_index([0, 2])


def test_block_map_names_a_subspace_whose_image_has_the_wrong_size(monkeypatch):
    import qgeom.geometry as geometry

    inst = geometry._Instance(field_new(2), 2)
    real = geometry._sigma(inst.s)
    # every sigma(c) loses a point, so f(W) falls short of [e+1]_q = 7 points
    broken = geometry._Sigma(real.points, real.images, real.sets[:, 1:], real.index)
    monkeypatch.setattr(geometry, "_sigma", lambda s: broken)
    with pytest.raises(ValueError, match=r"f of Subspace\(GF\(2\)\^5, dim \d: .*\) has \d+ points, not 7"):
        inst.f


def test_design_index_survives_pickling(jt22):
    import pickle

    index = pickle.loads(pickle.dumps(jt22.index))
    for rows, pts in index.groups:
        assert index.find(pts).tolist() == rows.tolist()
    d = pickle.loads(pickle.dumps(jt22))
    assert d.blocks == jt22.blocks and d.block_labels == jt22.block_labels


def test_only_the_set_index_builds_or_reads_mask_words():
    # a new key for `_SetIndex` changes that class alone; `_MIX`,
    # `_SetIndex` and `_Labels` are named, and a record's `.runs` read, in
    # geometry alone (everything else folds through `_fold` and reads a
    # graph's point sets through the record `_vertex_index` gives), maps
    # reach vertex images through `autgroup._vertex_images` alone, so no
    # module but geometry and autgroup names `_point_images` and none names
    # the map-array helper `_maps_as_arrays`, and the package starts no
    # worker processes
    import ast
    from pathlib import Path

    import qgeom

    def named(node, name):
        return (
            (isinstance(node, ast.Name) and node.id == name)
            or (isinstance(node, ast.alias) and node.name == name)
            or (isinstance(node, ast.Attribute) and node.attr == name)
        )

    def outside(node, module):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef)) and node.name in ("_SetIndex", "_mask_words"):
            return
        if named(node, "_mask_words") or named(node, "_keys") or named(node, "_maps_as_arrays"):
            yield node
        elif module not in ("geometry", "autgroup") and named(node, "_point_images"):
            yield node
        elif module != "geometry" and (any(named(node, name) for name in ("_MIX", "_SetIndex", "_Labels")) or (isinstance(node, ast.Attribute) and node.attr == "runs")):
            yield node
        for child in ast.iter_child_nodes(node):
            yield from outside(child, module)

    def pools(tree):
        for node in ast.walk(tree):
            names = [a.name for a in node.names] if isinstance(node, ast.Import) else []
            if isinstance(node, ast.ImportFrom) and node.module:
                names = [node.module]
            if any(n.split(".")[0] in ("multiprocessing", "concurrent") for n in names):
                yield node

    paths = sorted(Path(qgeom.__file__).parent.glob("*.py"))
    trees = {path.name: ast.parse(path.read_text()) for path in paths}
    found = [f"{name}:{node.lineno}" for name, tree in trees.items() for node in outside(tree, name[:-3])]
    found += [f"{name}:{node.lineno} imports a pool" for name, tree in trees.items() for node in pools(tree)]
    assert found == []


def test_only_the_exports_unpack_adjacency_bits():
    # packed adjacency columns are read through `_transpose_strip` alone:
    # no module but geometry (`_edge_strips`, `_members`, the mask words)
    # and formats (the graph6 codec) names np.unpackbits or np.packbits,
    # and no module names or defines `_row_strips`
    import ast
    from pathlib import Path

    import qgeom

    found = []
    for path in sorted(Path(qgeom.__file__).parent.glob("*.py")):
        banned = {"_row_strips"} | ({"unpackbits", "packbits"} if path.stem not in ("geometry", "formats") else set())
        for node in ast.walk(ast.parse(path.read_text())):
            # an attribute, a name, an imported alias or a definition
            if {getattr(node, key, None) for key in ("attr", "id", "name")} & banned:
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_verify_drg_names_no_dense_map_test():
    # `verify drg` proves its generators at point level and reaches the
    # scan through `drg._orbit_bases` and `drg._scan`: cli names neither the
    # dense map test nor the public entry that runs it
    import ast
    from pathlib import Path

    import qgeom

    banned = {"_maps_onto", "intersection_array"}
    tree = ast.parse((Path(qgeom.__file__).parent / "cli.py").read_text())
    found = [node.lineno for node in ast.walk(tree) if {getattr(node, key, None) for key in ("attr", "id", "name")} & banned]
    assert found == []


def test_verify_thm1_names_no_block_graph():
    # `verify thm1` compares Γ with the graph of its own f rows, byte for
    # byte: cli names neither the JT-ordered block graph nor the certificate
    # map test, which stay public and the tests' oracle
    import ast
    from pathlib import Path

    import qgeom

    banned = {"block_graph", "check_isomorphism"}
    tree = ast.parse((Path(qgeom.__file__).parent / "cli.py").read_text())
    found = [node.lineno for node in ast.walk(tree) if {getattr(node, key, None) for key in ("attr", "id", "name")} & banned]
    assert found == []


def test_counts_are_refused_unless_non_negative_integers(pg22):
    for value in (True, 2.5, -1, "3"):
        with pytest.raises(ValueError) as caught:
            block_graph(pg22, value)
        assert str(caught.value) == f"threshold must be a non-negative integer, got {value!r}"
    for value in (True, 2.0, -1):
        with pytest.raises(ValueError) as caught:
            Graph.from_edges(value, [])
        assert str(caught.value) == f"n must be a non-negative integer, got {value!r}"
    assert block_graph(pg22, np.int64(3)).adj.tobytes() == block_graph(pg22, 3).adj.tobytes()
    assert Graph.from_edges(np.uint8(2), [(0, 1)]).edges() == [(0, 1)]


def test_instance_refuses_a_polarity_of_another_hyperplane_or_field(f2):
    from qgeom.geometry import _Instance

    f3 = field_new(3)
    h = coordinate_hyperplane(f2, 5)
    other = span(f2, 5, [(1, 0, 0, 0, 1), (0, 1, 0, 0, 0), (0, 0, 1, 0, 0), (0, 0, 0, 1, 0)])
    for s in (polarity_new(f3, coordinate_hyperplane(f3, 5)), polarity_new(f2, other)):
        for build in (_Instance, twisted_grassmann, jt_design):
            with pytest.raises(ValueError) as caught:
                build(f2, 2, h, s)
            assert str(caught.value) == "polarity is not a polarity of h"
    with pytest.raises(ValueError) as caught:  # h by default: the coordinate hyperplane
        _Instance(f2, 2, None, polarity_new(f2, other))
    assert str(caught.value) == "polarity is not a polarity of h"


def test_certificate_refuses_blocks_past_the_design_points(setting32, tg32, jt22):
    field, h, s = setting32
    with pytest.raises(ValueError, match="f of vertex 0 is not a block of the design"):
        f_certificate(tg32, jt22, h, s)


_SYMPLECTIC = [[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]]


@pytest.mark.parametrize("gram", [None, _SYMPLECTIC], ids=["identity", "symplectic"])
@pytest.mark.parametrize("q", [2, 3])
def test_labels_are_made_on_read_and_equal_the_enumeration(q, gram):
    from qgeom.geometry import _Instance

    field = field_new(q)
    h = coordinate_hyperplane(field, 5)
    gram = None if gram is None else [[x % q for x in row] for row in gram]
    inst = _Instance(field, 2, h, polarity_new(field, h, gram))
    everything = list(enumerate_k_subspaces(full_space(field, 5), 3))
    a = [w for w in everything if not h.contains(w)]
    inside = [w for w in everything if h.contains(w)]
    b = list(enumerate_k_subspaces(h, 1))
    literal = {
        "graph": [("A", w) for w in a] + [("B", w) for w in b],
        "jt": [("A", w) for w in a] + [("B", u) for u in inside],
        "pg": [("PG", u) for u in everything],
    }
    built = {"graph": inst.graph, "jt": inst.jt, "pg": inst.pg, "pg_design": pg_design(field, 2)}
    for name, obj in built.items():
        stored = "_labels" if name == "graph" else "_block_labels"
        assert not isinstance(getattr(obj, stored), tuple), name  # nothing has read them yet
        labels = obj.labels if name == "graph" else obj.block_labels
        assert isinstance(labels, tuple) and labels == tuple(literal[name.split("_")[0]]), name
        assert getattr(obj, stored) is labels  # made once, then kept


def test_pickled_graph_and_design_keep_their_labels(setting22):
    import pickle

    from qgeom.geometry import _Instance

    field, h, s = setting22
    inst = _Instance(field, 2, h, s)
    g, d = pickle.loads(pickle.dumps(inst.graph)), pickle.loads(pickle.dumps(inst.jt))
    assert not isinstance(g._labels, tuple) and not isinstance(d._block_labels, tuple)  # still made on read
    assert g._family is g._labels  # the record the graph keeps
    assert g.labels == inst.graph.labels and d.block_labels == inst.jt.block_labels
    assert np.array_equal(g.adj, inst.graph.adj) and d.blocks == inst.jt.blocks
    # after its labels are read, the graph still keeps its record, and it gives the same vertex permutations
    assert [tag for tag, *_ in g._family.runs] == ["A", "B"]
    gens = stabilizer_generators(field, 2)
    assert [vertex_permutation(g, phi) for phi in gens] == [vertex_permutation(inst.graph, phi) for phi in gens]
    indexed = pickle.loads(pickle.dumps(g))  # its record now holds its index
    assert "index" in vars(indexed._family) and vertex_permutation(indexed, gens[3]) == vertex_permutation(g, gens[3])


@pytest.mark.parametrize("n, k, q", [(5, 2, 2), (5, 3, 2), (4, 2, 3), (5, 2, 4)])
def test_grassmann_graph_reads_the_array_core(n, k, q):
    from qgeom.geometry import _by_size, _count_graph, _point_array

    g = grassmann_graph(n, k, q)
    assert not isinstance(g._labels, tuple)  # made on read
    assert g._family is g._labels and [tag for tag, *_ in g._family.runs] == [None]  # a record of bare subspaces
    subs = tuple(enumerate_k_subspaces(full_space(field_from_order(q), n), k))
    assert g.labels == subs  # bare subspaces, in enumeration order
    # the adjacency of the literal subspace list's point sets
    threshold = (q ** (k - 1) - 1) // (q - 1)  # two k-subspaces meeting in dim k-1
    literal = _count_graph(subs, _by_size([_point_array(subs)]), (q ** n - 1) // (q - 1), lambda a, b: threshold)
    assert g.adj.tobytes() == literal.adj.tobytes()
