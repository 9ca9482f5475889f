import json
import random
import tracemalloc
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
    PointPermutation,
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
    span,
    stabilizer_generators,
    vertex_permutation,
    vertex_statistics,
)
from qgeom.cli import main
from qgeom.drg import _maps_onto
from qgeom.linalg import Matrix


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
    for q in (0, 6, 10):  # no field has q elements
        with pytest.raises(ValueError, match=f"q={q} is not a prime power"):
            grassmann_array(5, 2, q)


def test_a_disconnected_graph_raises_before_any_count_is_compared():
    # the pentagonal prism plus K4, both 3-regular: the scan from vertex 0
    # meets the prism's NotDRG witness, but no count is compared before the
    # BFS from that base has shown the graph disconnected
    edges = pentagonal_prism().edges() + [(10 + i, 10 + j) for i, j in combinations(range(4), 2)]
    with pytest.raises(GraphStructureError) as err:
        intersection_array(Graph.from_edges(14, edges))
    assert (err.value.reason, err.value.witness) == ("disconnected", (0, 10))


def test_errors_keep_their_precedence():
    # an empty or irregular graph is named before a bad map, and a bad map
    # before a disconnected graph
    with pytest.raises(GraphStructureError, match="empty"):
        intersection_array(Graph.from_edges(0, []), [[0]])
    with pytest.raises(GraphStructureError, match="irregular"):
        intersection_array(Graph.from_edges(3, [(0, 1)]), [[0, 0, 1], [2, 1, 0]])
    triangles = Graph.from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    with pytest.raises(ValueError, match="automorphism 1 is not a permutation"):
        intersection_array(triangles, [[1, 0, 2, 3, 4, 5], [0, 0, 1, 2, 3, 4]])
    with pytest.raises(ValueError, match="automorphism 1 is not a graph automorphism"):
        intersection_array(triangles, [[1, 0, 2, 3, 4, 5], [3, 1, 2, 0, 4, 5]])
    with pytest.raises(GraphStructureError, match="disconnected"):
        intersection_array(triangles, [[1, 0, 2, 3, 4, 5], [3, 4, 5, 0, 1, 2]])


_PAIRED = [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]]
_SYMPLECTIC_3 = [[0, 1, 0, 0], [2, 0, 0, 0], [0, 0, 0, 1], [0, 0, 2, 0]]


@pytest.mark.parametrize(
    "q, e, gram", [(2, 2, None), (2, 2, _PAIRED), (3, 2, _SYMPLECTIC_3), (2, 3, None)], ids=["22", "22-paired", "32-symplectic", "23"]
)
def test_point_level_proof_passes_the_dense_oracle(q, e, gram):
    # every generator whose images `_vertex_images` finds is an automorphism
    # of the dense graph, and the scan from the orbits of those images alone
    # is the array, scan counts included, that the dense path proves
    from qgeom.autgroup import _vertex_images
    from qgeom.drg import _orbit_bases, _scan
    from qgeom.geometry import _Instance

    field = field_new(q)
    h = coordinate_hyperplane(field, 2 * e + 1)
    inst = _Instance(field, e, h, polarity_new(field, h, gram))
    g = inst.graph
    images = _vertex_images(inst.labels, stabilizer_generators(field, e))[1]
    assert all(_maps_onto(g.adj, g.adj, perm, g.n) for perm in images)
    reduced, dense = _scan(g, *_orbit_bases(g.n, images)), intersection_array(g, images)
    assert reduced == dense == grassmann_array(2 * e + 1, e, q)
    assert reduced.scan == dense.scan and (reduced.scan.bfs_bases, reduced.scan.orbits) == (2, 2)


def test_verify_drg_runs_no_dense_map_test(monkeypatch, capsys, tg32, setting32):
    # `verify drg` proves its generators at point level alone; the public
    # entry proves the 7 of 17 that merge orbits densely
    import qgeom.drg as drg

    calls, maps_onto = [], drg._maps_onto
    monkeypatch.setattr(drg, "_maps_onto", lambda *args: calls.append(args[2]) or maps_onto(*args))
    assert main(["verify", "drg", "--q", "3", "--e", "2"]) == 0
    details = json.loads(capsys.readouterr().out)["details"]
    assert calls == [] and (details["automorphisms_checked"], details["bfs_bases"], details["orbits"]) == (7, 2, 2)
    gens = [vertex_permutation(tg32, phi) for phi in stabilizer_generators(setting32[0], 2)]
    assert intersection_array(tg32, gens).scan.automorphisms_checked == len(calls) == 7


def test_verify_drg_refuses_a_generator_that_moves_the_families(monkeypatch, capsys, f2):
    # the standard generators move the families of another hyperplane, so
    # some image is not a vertex, and the point-level proof refuses it
    import qgeom.cli as cli

    h = span(f2, 5, [(1, 0, 0, 0, 0), (0, 1, 0, 0, 0), (0, 0, 1, 0, 0), (0, 0, 0, 1, 1)])
    monkeypatch.setattr(cli, "coordinate_hyperplane", lambda field, n: h)
    assert main(["verify", "drg"]) == 2
    assert "vertex families" in capsys.readouterr().err


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
# across rows 63 and 64, and reaching into the last, partial strip; at
# n = 72 and 136 the last 8-byte column strip is one byte wide, at byte 8
# and at byte 16
_DENSE_CASES = [(n, None) for n in (0, 1, 7, 8, 63, 64, 65, 72, 129, 136)] + [
    (7, (0, 1)), (8, (0, 5)), (63, (0, 1)), (129, (0, 63)),
    (65, (63, 64)), (129, (63, 64)),
    (7, (5, 6)), (65, (1, 64)), (129, (128, 127)),
    (72, (0, 71)), (136, (64, 135)),
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


def _edge_switched(tg):
    """tg after one degree-preserving edge switch, (0, a) and (c, d) to
    (0, d) and (c, a), as a graph that keeps tg's record."""
    dense = np.unpackbits(tg.adj, axis=1, count=tg.n, bitorder="little")
    a = tg.neighbors(0)[0]
    c, d = next((c, d) for c, d in tg.edges() if len({0, a, c, d}) == 4 and not dense[0, d] and not dense[c, a])
    for i, j, bit in ((0, a, 0), (c, d, 0), (0, d, 1), (c, a, 1)):
        dense[i, j] = dense[j, i] = bit
    return Graph(tg._family, _packed(dense))


def test_notdrg_names_its_witnesses_from_two_labels(monkeypatch, tg32):
    # on the edge-switched graph, naming the two witness vertices forms
    # two Subspaces, not one per vertex
    from qgeom.subspace import Subspace

    g = _edge_switched(tg32)
    formed, post_init = [], Subspace.__post_init__
    monkeypatch.setattr(Subspace, "__post_init__", lambda w: formed.append(w) or post_init(w))
    res = intersection_array(g)
    assert isinstance(res, NotDRG) and len(formed) == 2
    assert (res.base_label, res.vertex_label) == (repr(tg32._family[res.base]), repr(tg32._family[res.vertex]))
    assert res == intersection_array(Graph([tg32._family[i] for i in range(g.n)], g.adj))  # label tuples alike


def test_bfs_reads_each_level_in_strips_of_rows(monkeypatch, tg32, setting32):
    # with two 152-byte rows per strip, the (3,2) levels of 156 and 1053
    # vertices span hundreds of strips; the array, its scan counts and the
    # edge-switched graph's witness (the third vertex of level 1, so in the
    # second strip) are those of the one-strip scan
    import qgeom.drg as drg

    gens = [vertex_permutation(tg32, phi) for phi in stabilizer_generators(setting32[0], 2)]
    g = _edge_switched(tg32)
    whole = [intersection_array(tg32, gens), intersection_array(g)]
    sizes, level_rows = [], drg._level_rows

    def spy(adj, level, n):
        for members, rows in level_rows(adj, level, n):
            sizes.append(len(rows))
            yield members, rows

    monkeypatch.setattr(drg, "_level_rows", spy)
    monkeypatch.setattr(drg, "_SLAB_BYTES", 2 * tg32.adj.shape[1] + 1)
    strips = [intersection_array(tg32, gens), intersection_array(g)]
    assert strips == whole and [r.scan for r in strips] == [r.scan for r in whole]
    assert strips[0].scan.bfs_bases == 2 and isinstance(strips[1], NotDRG) and strips[1].distance == 1
    assert max(sizes) == 2 and len(sizes) > 1000


def test_certificate_rejects_non_bijection():
    with pytest.raises(ValueError):
        IsoCertificate((0, 0, 1), "s", "t")


def _integer_entry_points():
    """Each public reader of a vertex map or point permutation, on 0..2."""
    k3 = complete(3)
    return {
        "automorphism": lambda images: intersection_array(k3, [images]),
        "certificate": lambda images: IsoCertificate(images, "s", "t"),
        "point permutation": lambda images: PointPermutation(images),
    }


@pytest.mark.parametrize("entry", ["automorphism", "certificate", "point permutation"])
@pytest.mark.parametrize(
    "images",
    [("1", "0", "2"), (1.0, 0.0, 2.0), (1.7, 0.2, 2.0), (True, False, 2), (None, 0, 2), (1, 0, 2**70),
     np.array([1.0, 0.0, 2.0]), np.array([True, False, True]), np.array([1, 0, 2**64 - 1], dtype=np.uint64)],
    ids=["str", "float", "truncating-float", "bool", "None", "2**70", "float-array", "bool-array", "uint64-array"],
)
def test_vertex_maps_and_permutations_take_integers_only(entry, images):
    with pytest.raises(ValueError, match="not an integer|not a permutation"):
        _integer_entry_points()[entry](images)


@pytest.mark.parametrize(
    "what, read",
    [
        ("mapping", lambda images: IsoCertificate(images, "s", "t")),
        ("automorphism 0", lambda images: intersection_array(complete(3), [images])),
        ("block 0", lambda images: Design(range(len(images)), [images])),
    ],
    ids=["certificate", "automorphism", "block"],
)
def test_a_non_integer_index_is_named_alone(what, read):
    # a (7,2)-size vertex map with one float: the message names that entry, not all of them
    images = list(range(140050))
    images[5] = 5.0
    with pytest.raises(ValueError) as err:
        read(images)
    assert str(err.value) == f"{what} has an index that is not an integer: entry 5 is 5.0"
    assert len(str(err.value)) < 200


@pytest.mark.parametrize("images", [(np.int64(1), 0, np.uint8(2)), np.array([1, 0, 2], dtype=np.int32)], ids=["scalars", "array"])
def test_numpy_integer_images_are_kept_as_python_ints(images):
    k3 = complete(3)
    assert intersection_array(k3, [images]).scan.automorphisms_checked == 1
    cert, perm = IsoCertificate(images, "s", "t"), PointPermutation(images)
    assert cert.mapping == perm.perm == (1, 0, 2)
    assert {type(x) for x in cert.mapping + perm.perm} == {int}
    assert json.loads(json.dumps(cert.to_json()))["mapping"] == json.loads(json.dumps(perm.to_json()))["perm"] == [1, 0, 2]


def test_check_isomorphism_refuses_a_bare_mapping(tg22):
    with pytest.raises(ValueError) as caught:
        check_isomorphism(tg22, tg22, tuple(range(tg22.n)))
    assert str(caught.value) == "cert must be an IsoCertificate, got tuple"


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


@pytest.mark.parametrize("blocks", [[], [()]], ids=["no blocks", "no points"])
def test_check_2design_refuses_an_empty_design(blocks):
    with pytest.raises(ValueError, match="^empty design$"):
        check_2design(Design(range(0), blocks))


def test_check_2design_pair_witness():
    with pytest.raises(ValueError):
        Design(range(4), [(0, 1), (2, 3), (0, 1)])  # duplicate blocks rejected
    d = Design(range(5), [(0, 1, 2), (0, 3, 4), (1, 3, 4), (2, 3, 4)])
    assert check_2design(d) == NotDesign("replication", (3,), 2, 3)
    # even replication, but the pair (0,3) is never covered
    d = Design(range(4), [(0, 1), (2, 3), (0, 2), (1, 3)])
    assert check_2design(d) == NotDesign("pair_count", (0, 3), 1, 0)
    # lambda is the count of the pair (0,1), so here (0,2) is the wrong pair
    d = Design(range(4), [(0, 1), (2, 3), (0, 3), (1, 2)])
    assert check_2design(d) == NotDesign("pair_count", (0, 2), 1, 0)


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


def _literal_2design(d: Design):
    """check_2design's verdict from an int64 incidence matrix and every
    point pair, in the same scan order."""
    inc = d.incidence().astype(np.int64)
    sizes, rep = inc.sum(axis=1), inc.sum(axis=0)
    k, r = int(sizes[0]), int(rep[0])
    if (bad := np.flatnonzero(sizes != k)).size:
        return NotDesign("block_size", (int(bad[0]),), k, int(sizes[bad[0]]))
    if (bad := np.flatnonzero(rep != r)).size:
        return NotDesign("replication", (int(bad[0]),), r, int(rep[bad[0]]))
    lam = int(inc[:, 0] @ inc[:, 1]) if d.v > 1 else 0
    for x, y in combinations(range(d.v), 2):
        if (found := int(inc[:, x] @ inc[:, y])) != lam:
            return NotDesign("pair_count", (x, y), lam, found)
    return DesignParameters(v=d.v, b=d.b, r=r, k=k, lambda_=lam)


def _mutated(d: Design, rng: random.Random) -> Design:
    """d with one seeded fault: two blocks trading a point (pair counts
    change, replication does not), a point moved, a point or a block
    dropped, or nothing."""
    blocks = [set(b) for b in d.blocks]
    i, j = rng.sample(range(d.b), 2)
    kind = rng.randrange(5)
    if kind == 0 and blocks[i] - blocks[j] and blocks[j] - blocks[i]:
        a, b = rng.choice(sorted(blocks[i] - blocks[j])), rng.choice(sorted(blocks[j] - blocks[i]))
        blocks[i] ^= {a, b}
        blocks[j] ^= {a, b}
    elif kind == 1:
        blocks[i] ^= {rng.choice(sorted(blocks[i])), rng.choice(sorted(set(range(d.v)) - blocks[i]))}
    elif kind == 2:
        blocks[i].discard(rng.choice(sorted(blocks[i])))
    elif kind == 3:
        del blocks[i]
    rows = [sorted(b) for b in blocks]
    return Design(range(d.v), rows) if len(set(map(tuple, rows))) == len(rows) else d


def test_check_2design_matches_the_literal_check_on_mutated_designs(jt22, jt32):
    rng = random.Random(20)
    kinds = set()
    for trial in range(40):
        d = _mutated(jt22 if trial % 2 else jt32, rng)
        expected = _literal_2design(d)
        assert check_2design(d) == expected, trial
        kinds.add(getattr(expected, "kind", "design"))
    assert kinds == {"block_size", "replication", "pair_count", "design"}


def test_check_2design_of_few_blocks_on_many_points_stays_small():
    # N^T N would be 20000 x 20000, 1.6 GB in float32; the scan forms one row of pair counts at a time
    d = Design(range(20000), [range(10000), range(10000, 20000)])
    tracemalloc.start()
    try:
        found = check_2design(d)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert found == NotDesign("pair_count", (0, 10000), 1, 0)
    assert peak <= 27.2 * 2**20


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


def test_p_rank_of_mixed_and_empty_blocks():
    # one Design.index group per block size (the empty block's has width 0), two of
    # them past one chunk of rows, met in an order other than the block order
    rng = random.Random(12)
    blocks = {()}
    while len(blocks) < 700:
        blocks.add(tuple(sorted(rng.sample(range(40), rng.choice((1, 3, 5))))))
    blocks = list(blocks)
    rng.shuffle(blocks)
    d = Design(range(40), blocks)
    assert sorted(len(pts) for _, pts in d.index.groups)[-1] > 256
    for p in (2, 3, 5):
        assert p_rank(d, p) == Matrix(field_new(p), d.incidence().tolist()).rank()


def test_p_rank_of_few_blocks_on_many_points_stays_small():
    # the basis is sized by the rank bound min(b, v) = 3 rows; v x v floats would be
    # 3.2 GB, which np.empty allocates without touching, so only tracemalloc sees it
    d = Design(range(20000), [(0, 1), (1, 2), (19998, 19999)])
    tracemalloc.start()
    try:
        rank = p_rank(d, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rank == 3
    assert peak < 8 * 2**20


def _timeless(report):
    """A verify report with every elapsed time taken out, at any depth."""
    if isinstance(report, dict):
        return {key: _timeless(value) for key, value in report.items() if key != "elapsed"}
    return [_timeless(x) for x in report] if isinstance(report, list) else report


@pytest.mark.parametrize("q, rank", [(2, 16), (3, 61)])
def test_p_rank_never_forms_the_incidence_matrix(monkeypatch, capsys, q, rank):
    # nor does any other verify check: only the incidence-CSV export reads it
    checks = ["design", "spectrum", "thm1", *(["all"] if q == 3 else [])]
    expected = {}
    for check in checks:
        assert main(["verify", check, "--q", str(q)]) == 0
        expected[check] = _timeless(json.loads(capsys.readouterr().out))

    def refuse(d):
        raise AssertionError("the incidence matrix was formed")

    jt, pg = jt_design(field_new(q), 2), pg_design(field_new(q), 2)
    monkeypatch.setattr(Design, "incidence", refuse)
    assert p_rank(jt, q) == p_rank(pg, q) == rank
    assert main(["verify", "prank", "--q", str(q)]) == 0
    details = json.loads(capsys.readouterr().out)["details"]
    assert details == {"p": q, "jt_rank": rank, "pg_rank": rank}
    for check in checks:
        assert main(["verify", check, "--q", str(q)]) == 0
        assert _timeless(json.loads(capsys.readouterr().out)) == expected[check]


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
