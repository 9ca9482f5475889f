import random
from itertools import combinations

import numpy as np
import pytest

from qgeom import (
    Design,
    DesignParameters,
    Graph,
    GraphStructureError,
    IntersectionArray,
    IsoCertificate,
    NotDRG,
    NotDesign,
    block_graph,
    check_2design,
    check_isomorphism,
    coordinate_hyperplane,
    f_certificate,
    field_new,
    grassmann_array,
    grassmann_graph,
    intersection_array,
    jt_design,
    p_rank,
    pg_design,
    polarity_new,
    stabilizer_generators,
    vertex_permutation,
    vertex_statistics,
)
from qgeom.drg import _maps_onto


def cycle(n):
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def complete(n):
    return Graph.from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def cube():
    edges = [(u, u ^ (1 << b)) for u in range(8) for b in range(3) if u < u ^ (1 << b)]
    return Graph.from_edges(8, edges)


def petersen():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return Graph.from_edges(10, outer + spokes + inner)


def prism():
    # two triangles joined by a matching; regular but not distance-regular
    edges = [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (0, 3), (1, 4), (2, 5)]
    return Graph.from_edges(6, edges)


def test_intersection_array_sanity_cases():
    assert intersection_array(complete(5)) == IntersectionArray((4,), (1,), 1)
    assert intersection_array(cycle(6)) == IntersectionArray((2, 1, 1), (1, 1, 2), 3)
    assert intersection_array(cube()) == IntersectionArray((3, 2, 1), (1, 2, 3), 3)
    assert intersection_array(petersen()) == IntersectionArray((3, 2), (1, 1), 2)


def test_intersection_array_str():
    ia = intersection_array(petersen())
    assert str(ia) == "{3,2;1,1}"


def test_prism_is_not_drg():
    res = intersection_array(prism())
    assert isinstance(res, NotDRG)
    assert res.kind in ("b", "c")
    # witness indices must describe a real vertex pair at the stated distance
    assert 0 <= res.base < 6 and 0 <= res.vertex < 6


def pentagonal_prism():
    # C5 x K2: outer cycle 0-4, inner cycle 5-9, spokes i - i+5
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    return Graph.from_edges(10, outer + inner + spokes)


def test_notdrg_witness_is_lexicographically_first():
    r1 = intersection_array(prism())
    r2 = intersection_array(prism())
    assert r1 == r2
    assert r1 == NotDRG(0, 3, 1, "b", 1, 2, "0", "3")
    # the first mismatch is a c count at distance 2, reached before any b mismatch
    assert intersection_array(pentagonal_prism()) == NotDRG(0, 6, 2, "c", 1, 2, "0", "6")


def test_rotation_of_pentagonal_prism_keeps_the_witness():
    rotation = [(i + 1) % 5 for i in range(5)] + [5 + (i + 1) % 5 for i in range(5)]
    res = intersection_array(pentagonal_prism(), [rotation])
    assert res == NotDRG(0, 6, 2, "c", 1, 2, "0", "6")
    # the witness turns up in the first of the two orbits' scans
    assert (res.scan.bfs_bases, res.scan.orbits, res.scan.automorphisms_checked) == (1, 2, 1)


def test_automorphisms_that_merge_nothing_are_not_needed():
    g = cycle(6)
    rotation = [(i + 1) % 6 for i in range(6)]
    ia = intersection_array(g, [rotation, rotation, list(range(6))])
    assert ia == intersection_array(g) == IntersectionArray((2, 1, 1), (1, 1, 2), 3)
    assert (ia.scan.bfs_bases, ia.scan.orbits, ia.scan.automorphisms_checked) == (1, 1, 1)
    full = intersection_array(g).scan
    assert (full.bfs_bases, full.orbits, full.automorphisms_checked) == (6, 6, 0)


def test_non_automorphisms_are_refused(tg22):
    n = tg22.n
    swapped = list(range(n))
    swapped[0], swapped[1] = swapped[1], swapped[0]
    with pytest.raises(ValueError, match="automorphism 0 is not a graph automorphism"):
        intersection_array(tg22, [swapped])
    # a bad permutation that merges orbits is caught after good ones were used;
    # the swap of an outer and an inner vertex joins the rotation's two orbits
    rotation = [(i + 1) % 5 for i in range(5)] + [5 + (i + 1) % 5 for i in range(5)]
    swap = [5, 1, 2, 3, 4, 0, 6, 7, 8, 9]
    with pytest.raises(ValueError, match="automorphism 1 is not a graph automorphism"):
        intersection_array(pentagonal_prism(), [rotation, swap])
    for wrong in ([0, 0, 1, 2, 3, 4], [0, 1, 2], [0, 1, 2, 3, 4, 6]):
        with pytest.raises(ValueError, match="automorphism 0 is not a permutation"):
            intersection_array(cycle(6), [wrong])


@pytest.mark.parametrize("q", [2, 3])
def test_orbit_scan_matches_the_full_scan(request, q):
    tg = request.getfixturevalue(f"tg{q}2")
    field = field_new(q)
    perms = [vertex_permutation(tg, phi) for phi in stabilizer_generators(field, 2)]
    full = intersection_array(tg)
    reduced = intersection_array(tg, perms)
    assert reduced == full == grassmann_array(5, 2, q)
    assert full.scan.bfs_bases == tg.n
    assert (reduced.scan.bfs_bases, reduced.scan.orbits) == (2, 2)
    assert 1 <= reduced.scan.automorphisms_checked <= len(perms)


@pytest.mark.parametrize("n, k, q", [(5, 2, 2), (5, 2, 3), (6, 3, 2)])
def test_grassmann_array_matches_the_full_scan(n, k, q):
    assert grassmann_array(n, k, q) == intersection_array(grassmann_graph(n, k, q))


def test_grassmann_array_values():
    assert grassmann_array(5, 2, 2) == IntersectionArray((42, 24), (1, 9), 2)
    assert grassmann_array(5, 2, 4) == IntersectionArray((420, 320), (1, 25), 2)
    assert grassmann_array(7, 3, 2) == IntersectionArray((210, 168, 96), (1, 9, 49), 3)
    # J_q(n,k) and J_q(n,n-k) are isomorphic
    assert grassmann_array(7, 4, 3) == grassmann_array(7, 3, 3)
    for n, k, q in [(5, 0, 2), (5, 5, 2), (5, 2, 1)]:
        with pytest.raises(ValueError):
            grassmann_array(n, k, q)


def test_irregular_graph_raises():
    g = Graph.from_edges(3, [(0, 1)])
    with pytest.raises(GraphStructureError):
        intersection_array(g)


def test_disconnected_graph_raises():
    g = Graph.from_edges(4, [(0, 1), (2, 3)])
    with pytest.raises(GraphStructureError) as err:
        intersection_array(g)
    assert err.value.reason == "disconnected"


def test_single_vertex_graph():
    g = Graph.from_edges(1, [])
    ia = intersection_array(g)
    assert ia.diameter == 0


def test_class_size_recursion_sums_to_n(tg22):
    ia = intersection_array(tg22)
    k = [1]
    for i in range(ia.diameter):
        assert (k[i] * ia.b[i]) % ia.c[i] == 0
        k.append(k[i] * ia.b[i] // ia.c[i])
    assert sum(k) == tg22.n
    assert k == [1, 42, 112]


def test_twisted_and_grassmann_arrays_agree(tg22):
    ia_t = intersection_array(tg22)
    ia_g = intersection_array(grassmann_graph(5, 2, 2))
    assert ia_t == ia_g == IntersectionArray((42, 24), (1, 9), 2)


def test_check_isomorphism_detects_corruption(tg22):
    n = tg22.n
    ident = IsoCertificate(tuple(range(n)), "g", "g")
    assert check_isomorphism(tg22, tg22, ident)
    swapped = list(range(n))
    swapped[0], swapped[1] = swapped[1], swapped[0]
    # 0 and 1 have different neighborhoods, so the swap breaks adjacency
    assert not check_isomorphism(tg22, tg22, IsoCertificate(tuple(swapped), "g", "g"))


def _packed(dense):
    return np.packbits(dense, axis=1, bitorder="little")


def _maps_onto_literally(dense1, dense2, mp):
    n = len(mp)
    return all(dense2[mp[i], mp[j]] == dense1[i, j] for i in range(n) for j in range(n))


def _swapped(mp, i, j):
    mp = mp.copy()
    mp[i], mp[j] = mp[j], mp[i]
    return mp


# (n, swap): the images of two vertices swapped in the first 64-row strip,
# across rows 63 and 64, and reaching into the last, partial strip
_DENSE_CASES = [(n, None) for n in (0, 1, 7, 8, 63, 64, 65, 129)] + [
    (7, (0, 1)), (8, (0, 5)), (63, (0, 1)), (129, (0, 63)),
    (65, (63, 64)), (129, (63, 64)),
    (7, (5, 6)), (65, (1, 64)), (129, (128, 127)),
]


@pytest.mark.parametrize("n, swap", _DENSE_CASES, ids=[f"n{n}" + (f"-swap{s[0]}-{s[1]}" if s else "") for n, s in _DENSE_CASES])
def test_maps_onto_matches_the_literal_test(n, swap):
    # a random graph, its image under a random bijection, and that bijection
    # (then with two images swapped) or an unrelated one, each against the oracle
    rng = np.random.default_rng(n)
    upper = np.triu(rng.integers(0, 2, (n, n), dtype=np.uint8), 1)
    dense1 = upper | upper.T
    perm = rng.permutation(n)
    dense2 = np.zeros_like(dense1)
    dense2[np.ix_(perm, perm)] = dense1
    maps = [perm, rng.permutation(n)] if swap is None else [_swapped(perm, *swap)]
    for mp in maps:
        expected = _maps_onto_literally(dense1, dense2, mp)
        assert _maps_onto(_packed(dense1), _packed(dense2), mp, n) == expected
    if swap is None:
        assert _maps_onto_literally(dense1, dense2, perm)
    else:  # each swap breaks adjacency in these seeded graphs
        assert not expected


def test_check_isomorphism_refuses_a_target_with_one_edge_moved(tg22, jt22, setting22):
    _, h, s = setting22
    cert = f_certificate(tg22, jt22, h, s)
    target = block_graph(jt22, 3)
    assert check_isomorphism(tg22, target, cert)
    dense = np.unpackbits(target.adj, axis=1, count=target.n, bitorder="little")
    u = 0
    v = int(np.flatnonzero(dense[u])[0])
    w = int(np.flatnonzero(dense[u] == 0)[1])  # [0] is u itself
    dense[[u, v], [v, u]] = 0
    dense[[u, w], [w, u]] = 1
    moved = Graph(target.labels, _packed(dense))
    assert not check_isomorphism(tg22, moved, cert)


def test_certificate_rejects_non_bijection():
    with pytest.raises(ValueError):
        IsoCertificate((0, 0, 1), "s", "t")


def test_check_isomorphism_needs_matching_sizes(tg22):
    small = complete(3)
    with pytest.raises(ValueError):
        check_isomorphism(tg22, small, IsoCertificate((0, 1, 2), "s", "t"))


def test_fano_is_2_design():
    fano = pg_design(field_new(2), 1)
    params = check_2design(fano)
    assert params == DesignParameters(v=7, b=7, r=3, k=3, lambda_=1)


def test_jt_is_2_design(jt22):
    params = check_2design(jt22)
    assert params == DesignParameters(v=31, b=155, r=35, k=7, lambda_=7)


def test_check_2design_witnesses():
    # uneven block size
    d = Design(range(4), [(0, 1), (0, 1, 2)])
    res = check_2design(d)
    assert res == NotDesign("block_size", (1,), 2, 3)
    # pair (0,3) never covered
    d = Design(range(4), [(0, 1), (1, 2), (2, 3), (0, 2), (1, 3), (0, 3)])
    ok = check_2design(d)
    assert isinstance(ok, DesignParameters)
    d = Design(range(4), [(0, 1), (1, 2), (2, 3)])
    assert check_2design(d) == NotDesign("replication", (1,), 1, 2)
    # a single point has no pairs, so lambda is 0
    assert check_2design(Design(range(1), [(0,)])) == DesignParameters(1, 1, 1, 1, 0)


def test_check_2design_pair_witness():
    with pytest.raises(ValueError):
        Design(range(4), [(0, 1), (2, 3), (0, 1)])  # duplicate blocks rejected
    d = Design(range(5), [(0, 1, 2), (0, 3, 4), (1, 3, 4), (2, 3, 4)])
    assert check_2design(d) == NotDesign("replication", (3,), 2, 3)
    # even replication, but the pair (0,3) is never covered
    d = Design(range(4), [(0, 1), (2, 3), (0, 2), (1, 3)])
    assert check_2design(d) == NotDesign("pair_count", (0, 3), 1, 0)


def test_check_2design_pair_witness_in_a_later_row_block(jt32):
    # Two blocks with the same points below 64 trade one point each: every
    # replication and every pair count of a point below 64 stay, so the first
    # bad pair lies in the second row block of 64 points.
    blocks = list(jt32.blocks)
    low = {}
    for i, block in enumerate(blocks):
        key = tuple(p for p in block if p < 64)
        if key in low:
            break
        low[key] = i
    j = low[key]
    a, b = min(set(blocks[i]) - set(blocks[j])), min(set(blocks[j]) - set(blocks[i]))
    blocks[i] = sorted(set(blocks[i]) - {a} | {b})
    blocks[j] = sorted(set(blocks[j]) - {b} | {a})
    d = Design(range(jt32.v), blocks)
    inc = d.incidence().astype(int)
    counts = ((x, y, int(inc[:, x] @ inc[:, y])) for x, y in combinations(range(d.v), 2))
    x, y, found = next(c for c in counts if c[2] != 13)
    assert x >= 64
    assert check_2design(d) == NotDesign("pair_count", (x, y), 13, found)


def test_p_rank_values(jt22, pg22):
    fano = pg_design(field_new(2), 1)
    assert p_rank(fano, 2) == 4
    assert p_rank(fano, 3) == 6
    assert p_rank(jt22, 2) == 16
    assert p_rank(pg22, 2) == 16
    assert p_rank(jt22, 3) == 31


def test_p_rank_of_the_benchmark_instance(jt32, f3):
    assert p_rank(jt32, 3) == p_rank(pg_design(f3, 2), 3) == 61


def test_p_rank_across_many_chunks(f2):
    # 11811 blocks: dozens of row chunks, most reduced to zero by the basis
    h = coordinate_hyperplane(f2, 7)
    jt = jt_design(f2, 3, h, polarity_new(f2, h))
    assert p_rank(jt, 2) == p_rank(pg_design(f2, 3), 2) == 64


def test_p_rank_over_gf4_designs(f4):
    # the JT and PG designs of GF(4) differ in 2-rank
    h = coordinate_hyperplane(f4, 5)
    assert p_rank(jt_design(f4, 2, h, polarity_new(f4, h)), 2) == 154
    assert p_rank(pg_design(f4, 2), 2) == 146


@pytest.mark.parametrize("p", [4, 1, 257])
def test_p_rank_rejects_a_p_that_is_not_a_supported_prime(pg22, p):
    with pytest.raises(ValueError):
        p_rank(pg22, p)


def test_p_rank_is_permutation_invariant(jt22):
    rng = random.Random(8)
    perm = list(range(31))
    rng.shuffle(perm)
    relabeled = Design(
        range(31), [sorted(perm[p] for p in blk) for blk in jt22.blocks]
    )
    assert p_rank(relabeled, 2) == p_rank(jt22, 2)


def test_vertex_statistics_constant_on_drg(tg22):
    # distance-regularity forces k*a_1/2 = 42*17/2 triangles at every vertex,
    # so this invariant cannot distinguish the two vertex families
    stats = vertex_statistics(tg22)
    assert all(s["degree"] == 42 for s in stats)
    assert {s["triangles"] for s in stats} == {357}


def test_vertex_statistics_detects_asymmetry():
    # triangle with a pendant vertex
    paw = Graph.from_edges(4, [(0, 1), (1, 2), (0, 2), (2, 3)])
    stats = vertex_statistics(paw)
    assert [s["triangles"] for s in stats] == [1, 1, 1, 0]
    assert [s["degree"] for s in stats] == [2, 2, 3, 1]
