import random
from itertools import product

import numpy as np
import pytest

from qgeom import (
    Design,
    Graph,
    IsoCertificate,
    Matrix,
    NotAutomorphism,
    PointPermutation,
    SemilinearMap,
    Subspace,
    Theorem2Violation,
    check_theorem2_relation,
    coordinate_hyperplane,
    exhaustive_lift_check,
    f_certificate,
    f_map,
    field_from_order,
    field_new,
    grassmann_graph,
    induced_block_permutation,
    is_design_automorphism,
    jt_design,
    lift,
    point_index_map,
    polarity_new,
    random_stabilizer_element,
    span,
    stabilizer_generators,
    stabilizer_order,
    twisted_grassmann,
    vertex_permutation,
)


def test_semilinear_requires_h_stabilization():
    f = field_new(2)
    # last row touches the block columns: does not stabilize the hyperplane
    rows = [
        (1, 0, 0, 0, 0),
        (0, 1, 0, 0, 0),
        (0, 0, 1, 0, 0),
        (0, 0, 0, 1, 0),
        (1, 0, 0, 0, 1),
    ]
    with pytest.raises(ValueError):
        SemilinearMap(Matrix(f, rows), 0)


def test_semilinear_requires_invertible():
    f = field_new(2)
    rows = [(1, 0), (1, 0)]
    with pytest.raises(ValueError):
        SemilinearMap(Matrix(f, rows), 0)


def test_semilinear_frob_range():
    f = field_new(2, 2)
    m = Matrix.identity(f, 3)
    SemilinearMap(m, 1)
    with pytest.raises(ValueError):
        SemilinearMap(m, 2)


def test_apply_vector_frobenius_first():
    # x -> M (x^p), so with M = diag(g, 1) and x = (g, g), over GF(4):
    # frobenius maps g to g^2, then the matrix scales coordinate 0 by g
    f = field_new(2, 2)
    g = 2  # a generator of GF(4)
    m = Matrix(f, [(g, 0), (0, 1)])
    phi = SemilinearMap(m, 1)
    out = phi.apply_vector((g, g))
    g2 = f.frobenius(g)
    assert out == (f.mul(g, g2), g2)


def test_compose_is_apply_after_apply():
    f = field_new(2, 2)
    rng = random.Random(6)
    for _ in range(50):
        a = random_stabilizer_element(f, 1, rng.randrange(10**9))
        b = random_stabilizer_element(f, 1, rng.randrange(10**9))
        ab = a.compose(b)
        for _ in range(5):
            v = tuple(rng.randrange(4) for _ in range(3))
            assert ab.apply_vector(v) == a.apply_vector(b.apply_vector(v))


def test_inverse_round_trip():
    f = field_new(3, 2)
    rng = random.Random(10)
    for _ in range(25):
        phi = random_stabilizer_element(f, 1, rng.randrange(10**9))
        both = phi.compose(phi.inverse())
        n = phi.dim
        for _ in range(5):
            v = tuple(rng.randrange(9) for _ in range(n))
            assert both.apply_vector(v) == v


def test_random_stabilizer_element_is_deterministic():
    f = field_new(2)
    a = random_stabilizer_element(f, 2, 42)
    b = random_stabilizer_element(f, 2, 42)
    assert a == b
    c = random_stabilizer_element(f, 2, 43)
    assert a != c


def test_random_stabilizer_element_shape():
    f = field_new(3)
    phi = random_stabilizer_element(f, 2, 7)
    rows = phi.matrix.entries
    assert rows[4][:4] == (0, 0, 0, 0)
    assert rows[4][4] != 0


def test_frobenius_powers_are_sampled():
    f = field_new(2, 2)
    seen = {random_stabilizer_element(f, 1, i).frob for i in range(60)}
    assert seen == {0, 1}


def test_apply_subspace_preserves_dimension(setting22):
    field, h, s = setting22
    rng = random.Random(3)
    for i in range(20):
        phi = random_stabilizer_element(field, 2, i)
        w = span(field, 5, [tuple(rng.randrange(2) for _ in range(5)) for _ in range(3)])
        img = phi.apply_subspace(w)
        assert img.dim == w.dim
        assert phi.apply_subspace(h) == h


def test_lift_hand_example(setting22):
    field, h, s = setting22
    # swap e1 and e2; identity elsewhere
    rows = [
        (0, 1, 0, 0, 0),
        (1, 0, 0, 0, 0),
        (0, 0, 1, 0, 0),
        (0, 0, 0, 1, 0),
        (0, 0, 0, 0, 1),
    ]
    phi = SemilinearMap(Matrix(field, rows), 0)
    perm = lift(phi, s)
    idx = point_index_map(field, 5)
    assert perm.apply(idx[(1, 0, 0, 0, 0)]) == idx[(0, 1, 0, 0, 0)]
    assert perm.apply(idx[(0, 1, 0, 0, 0)]) == idx[(1, 0, 0, 0, 0)]
    assert perm.apply(idx[(0, 0, 0, 0, 1)]) == idx[(0, 0, 0, 0, 1)]
    # a point outside H moves by phi directly
    assert perm.apply(idx[(1, 0, 0, 0, 1)]) == idx[(0, 1, 0, 0, 1)]


def test_lift_of_scalar_is_identity():
    f = field_new(3)
    rows = [[2 if i == j else 0 for j in range(5)] for i in range(5)]
    phi = SemilinearMap(Matrix(f, rows), 0)
    from qgeom import coordinate_hyperplane, polarity_new

    h = coordinate_hyperplane(f, 5)
    s = polarity_new(f, h)
    assert lift(phi, s).is_identity


def test_lift_is_group_homomorphism(setting22):
    field, h, s = setting22
    rng = random.Random(100)
    for trial in range(100):
        a = random_stabilizer_element(field, 2, (100, trial, 0))
        b = random_stabilizer_element(field, 2, (100, trial, 1))
        la = lift(a, s)
        lb = lift(b, s)
        assert lift(a.compose(b), s) == la.compose(lb)


def test_lift_homomorphism_gf3_sampled(setting32):
    field, h, s = setting32
    for trial in range(10):
        a = random_stabilizer_element(field, 2, (7, trial, 0))
        b = random_stabilizer_element(field, 2, (7, trial, 1))
        assert lift(a.compose(b), s) == lift(a, s).compose(lift(b, s))


def test_lift_rejects_map_not_stabilizing_that_hyperplane(setting22):
    from qgeom import polarity_new, span as mkspan

    field, h, s = setting22
    # valid stabilizer of the coordinate hyperplane, paired with a
    # polarity of a different hyperplane it moves
    rows = [
        (1, 0, 0, 0, 0),
        (0, 1, 0, 0, 0),
        (0, 0, 1, 0, 0),
        (0, 0, 0, 1, 1),
        (0, 0, 0, 0, 1),
    ]
    phi = SemilinearMap(Matrix(field, rows), 0)
    other_h = mkspan(
        field,
        5,
        [(1, 0, 0, 0, 0), (0, 1, 0, 0, 0), (0, 0, 1, 0, 0), (0, 0, 0, 0, 1)],
    )
    s2 = polarity_new(field, other_h)
    with pytest.raises(ValueError):
        lift(phi, s2)


def test_lifted_maps_are_design_automorphisms(setting22, jt22):
    field, h, s = setting22
    for i in range(50):
        phi = random_stabilizer_element(field, 2, (1, i))
        perm = lift(phi, s)
        assert is_design_automorphism(jt22, perm) is True
        blocks = induced_block_permutation(jt22, perm)
        assert blocks is not None
        assert sorted(blocks) == list(range(155))


def test_non_automorphism_is_reported(jt22):
    # transposing two points of one block generally breaks the design
    perm = list(range(31))
    perm[0], perm[30] = perm[30], perm[0]
    res = is_design_automorphism(jt22, PointPermutation(tuple(perm)))
    assert res is not True
    assert isinstance(res, NotAutomorphism)
    assert not res
    img = sorted(res.image)
    assert not jt22.has_block(img)
    assert induced_block_permutation(jt22, PointPermutation(tuple(perm))) is None


def test_non_automorphism_names_its_block_without_the_block_tuples(setting22):
    # the witness reads the failing block from the design's index, so no
    # block tuple is made; it is the image of that block's points
    from qgeom.geometry import _Instance

    field, h, s = setting22
    d = _Instance(field, 2, h, s).jt  # a design of its own: the fixtures' may have made their tuples
    perm = list(range(31))
    perm[0], perm[30] = perm[30], perm[0]
    res = is_design_automorphism(d, PointPermutation(tuple(perm)))
    assert isinstance(res, NotAutomorphism) and d._blocks is None
    assert res.image == tuple(sorted(perm[i] for i in d.blocks[res.block])) and not d.has_block(res.image)


def test_theorem2_relation_holds(setting22, tg22, jt22, cert22):
    field, h, s = setting22
    for i in range(25):
        phi = random_stabilizer_element(field, 2, (2, i))
        assert check_theorem2_relation(jt22, tg22, cert22, phi, s) is True


def test_theorem2_relation_detects_corruption(setting22, tg22, jt22, cert22):
    from qgeom import IsoCertificate

    field, h, s = setting22
    bad = list(cert22.mapping)
    bad[0], bad[1] = bad[1], bad[0]
    bad_cert = IsoCertificate(tuple(bad), cert22.source, cert22.target)
    phi = random_stabilizer_element(field, 2, (3, 0))
    res = check_theorem2_relation(jt22, tg22, bad_cert, phi, s)
    assert res == Theorem2Violation(vertex=0, expected=18, found=54)
    assert not res


def test_theorem2_relation_returns_the_lifts_non_automorphism(swap_lifted_points, setting22, tg22, jt22, cert22):
    field, h, s = setting22
    swapped = swap_lifted_points()
    phi = random_stabilizer_element(field, 2, (4, 0))
    res = check_theorem2_relation(jt22, tg22, cert22, phi, s)
    assert isinstance(res, NotAutomorphism)
    assert res == is_design_automorphism(jt22, swapped(phi, s))


def test_theorem2_relation_raises_when_the_batched_lift_diverges(swap_lifted_points, setting22, tg22, jt22, cert22):
    field, h, s = setting22
    swap_lifted_points(lift_too=False)
    phi = random_stabilizer_element(field, 2, (4, 0))
    with pytest.raises(RuntimeError, match="literal lift at element 0"):
        check_theorem2_relation(jt22, tg22, cert22, phi, s)


def test_point_level_vertex_images_match_apply_subspace(setting22, tg22):
    from qgeom.autgroup import _point_perms
    from qgeom.geometry import _vertex_index

    field, h, s = setting22
    vertex_of = {label: j for j, label in enumerate(tg22.labels)}
    maps = [random_stabilizer_element(field, 2, (5, i)) for i in range(25)]
    images = _vertex_index(tg22).index.images(_point_perms(maps))
    for phi, row in zip(maps, images.tolist()):
        assert row == [vertex_of[(tag, phi.apply_subspace(w))] for tag, w in tg22.labels]


def test_theorem2_relation_raises_when_the_vertex_action_diverges(monkeypatch, setting22, tg22, jt22, cert22):
    from qgeom.geometry import _vertex_index

    field, h, s = setting22
    labels = _vertex_index(tg22)

    class Shifted:
        """The graph's vertex index, with every image of vertex 0 moved on by one."""

        def __init__(self, index):
            self.index = index

        def images(self, pi):
            images = self.index.images(pi)
            images[:, 0] = (images[:, 0] + 1) % tg22.n
            return images

    monkeypatch.setattr(labels, "index", Shifted(labels.index))  # the index the graph's record keeps
    phi = random_stabilizer_element(field, 2, (6, 0))
    with pytest.raises(RuntimeError, match="vertex 0"):
        check_theorem2_relation(jt22, tg22, cert22, phi, s)


def _paired_gram(m):
    """The form pairing coordinates 2i and 2i+1 of the hyperplane."""
    return [[int(i ^ 1 == j) for j in range(m)] for i in range(m)]


_KERNEL_INSTANCES = [(2, 1, 2), (3, 1, 2), (2, 2, 2), (2, 1, 3)]


@pytest.mark.parametrize("paired", [False, True], ids=["identity", "paired"])
@pytest.mark.parametrize("p,f,e", _KERNEL_INSTANCES, ids=["q2e2", "q3e2", "q4e2", "q2e3"])
def test_batched_point_action_matches_the_literal_maps(p, f, e, paired):
    from qgeom.autgroup import _lift_batch, _point_perms
    from qgeom.geometry import _point_order

    field = field_new(p, f)
    h = coordinate_hyperplane(field, 2 * e + 1)
    s = polarity_new(field, h, _paired_gram(2 * e) if paired else None)
    points, index = _point_order(field, 2 * e + 1)
    maps = stabilizer_generators(field, e) + [random_stabilizer_element(field, e, (11, i)) for i in range(20)]
    assert {phi.frob for phi in maps} == set(range(f))
    pi = _point_perms(maps)
    lifted = _lift_batch(s, pi)
    for phi, images, lifted_perm in zip(maps, pi.tolist(), lifted.tolist()):
        assert images == [index[phi.apply_point(pt).rep] for pt in points]
        assert tuple(lifted_perm) == lift(phi, s).perm


def _census_maps(p, mats):
    """[[A, b], [0, 1]] for each A in mats and every b in GF(p)^m, A major
    and b minor: the census's batch order."""
    m = mats.shape[1]
    bs = np.array(list(product(range(p), repeat=m)), dtype=np.intp)
    phis = np.zeros((len(mats), len(bs), m + 1, m + 1), dtype=np.intp)
    phis[:, :, :m, :m] = mats[:, None]
    phis[:, :, :m, m] = bs
    phis[:, :, m, m] = 1
    return phis.reshape(-1, m + 1, m + 1)


def _census_pi(s, mats):
    """The point permutations of `_census_maps` over s's field."""
    from qgeom.geometry import _point_images

    phis = _census_maps(s.field.p, mats)
    return _point_images(s.field, phis, np.zeros(len(phis), dtype=np.intp))


@pytest.mark.parametrize("paired", [False, True], ids=["identity", "paired"])
def test_lift_batch_shares_sigma_lookups_exactly(paired):
    # A census chunk shares one lookup per A (runs of 16 rows); random maps
    # start a run at every row.  Either way the batch gives each row's lift
    # alone, a batch of one, where no run is shared.
    from qgeom.autgroup import _general_linear, _lift_batch, _point_perms

    f = field_new(2)
    s = polarity_new(f, coordinate_hyperplane(f, 5), _paired_gram(4) if paired else None)
    f3 = field_new(3)
    s3 = polarity_new(f3, coordinate_hyperplane(f3, 5), _paired_gram(4) if paired else None)
    random_pi = _point_perms([random_stabilizer_element(f3, 2, (13, i)) for i in range(40)])
    for t, pi in ((s, _census_pi(s, _general_linear(2, 4)[:64])), (s3, random_pi)):
        lifted = _lift_batch(t, pi)
        assert np.array_equal(lifted, np.concatenate([_lift_batch(t, row[None]) for row in pi]))


def test_lift_batch_looks_up_a_row_that_differs_on_one_point_of_h(setting22):
    # Row 1 is row 0 with the images of a point c of [h] and a point off [h]
    # swapped: the two agree on every point of [h] but c.  A permutation
    # that maps every sigma point set onto one is a collineation of [h], so
    # row 1 maps some sigma(c') off them, and the batch must raise as row 1
    # alone does, whichever point of [h] c is.
    from qgeom.autgroup import _lift_batch, _point_perms
    from qgeom.geometry import _sigma

    field, h, s = setting22
    h_points = _sigma(s).points
    off_h = np.setdiff1d(np.arange(31), h_points)
    pi = _point_perms([random_stabilizer_element(field, 2, (14, 0))])
    _lift_batch(s, pi)  # the map itself stabilizes [h]
    for c in h_points.tolist():
        row = pi[0].copy()
        row[[c, off_h[0]]] = row[[off_h[0], c]]
        assert (row[h_points] != pi[0, h_points]).sum() == 1
        for batch in (row[None], np.stack([pi[0], row]), np.stack([pi[0], pi[0], row, pi[0]])):
            with pytest.raises(ValueError, match="does not stabilize"):
                _lift_batch(s, batch)


def test_set_index_finds_every_key_at_its_own_row(setting22, setting32, jt22, jt32, tg22, tg32):
    from qgeom.geometry import _Instance, _sigma, _vertex_index

    for (field, h, s), d, g in ((setting22, jt22, tg22), (setting32, jt32, tg32)):
        for index in (d.index, _vertex_index(g).index, _sigma(s).index, _Instance(field, 2, h, s).labels.index):
            identity = np.arange(d.v, dtype=np.uint8)[None]
            assert index.images(identity)[0].tolist() == list(range(len(index)))
            for rows, pts in index.groups:
                assert index.find(pts).tolist() == rows.tolist()


@pytest.mark.parametrize("q", [2, 3])
def test_set_index_agrees_with_has_block_on_random_sets(request, q):
    d = request.getfixturevalue(f"jt{q}2")
    k = len(d.blocks[0])
    rng = random.Random(q)
    sets = [sorted(rng.sample(range(d.v), k)) for _ in range(2000)]
    sets += [list(d.blocks[rng.randrange(d.b)]) for _ in range(200)]
    found = d.index.find(np.array(sets))
    for pts, row in zip(sets, found.tolist()):
        assert (row >= 0) == d.has_block(pts)
        if row >= 0:
            assert d.blocks[row] == tuple(pts)


@pytest.mark.parametrize("v", [31, 64, 65, 130])
def test_mask_words_are_the_point_mask(v):
    # one word (v <= 64) and several words take different branches
    from qgeom.geometry import _mask_words

    rng = random.Random(v)
    sets = [rng.sample(range(v), 7) for _ in range(50)] + [[0, 1, 2, 3, 4, 5, v - 1]]
    words = _mask_words(np.array(sets, dtype=np.uint8), v)
    assert words.shape == (len(sets), (v + 63) // 64) and words.dtype == np.uint64
    for pts, row in zip(sets, words.tolist()):
        assert sum(w << (64 * i) for i, w in enumerate(row)) == sum(1 << p for p in pts)


def test_set_index_compares_every_word():
    from qgeom.geometry import _by_size, _SetIndex

    # keys share their first word and differ only in the second
    keys = [[0, 1, 2, 64 + i] for i in range(20)]
    index = _SetIndex(_by_size([np.array(keys)]), 100)
    assert len(index) == 20
    assert index.find(np.array(keys)).tolist() == list(range(20))
    others = np.array([[0, 1, 2, 84 + i] for i in range(16)] + [[0, 1, 2, 3]] + [[1, 2, 3, 64 + i] for i in range(20)])
    assert (index.find(others) == -1).all()


def test_set_index_walks_one_chain_of_every_key(monkeypatch, jt32):
    # every key's home is slot 0, so the index is one probe chain of all b blocks
    import qgeom.geometry as geometry

    monkeypatch.setattr(geometry._SetIndex, "_home", lambda self, words: np.zeros(len(words[0]), dtype=np.intp))
    blocks = np.array(jt32.blocks)
    d = Design(jt32.points, blocks)
    assert d.index.max_probe == d.b - 1
    rng = np.random.default_rng(32)
    assert d.index.find(rng.permuted(blocks, axis=1)).tolist() == list(range(d.b))
    held = set(jt32.blocks)
    others = []
    while len(others) < 50:
        if (pts := tuple(sorted(rng.choice(d.v, blocks.shape[1], replace=False).tolist()))) not in held:
            others.append(pts)
    assert (d.index.find(np.array(others)) == -1).all()
    assert d.index.images(np.arange(d.v, dtype=np.uint8)[None])[0].tolist() == list(range(d.b))
    with pytest.raises(ValueError, match="blocks 0 and 2 are identical"):
        Design(jt32.points, blocks[[0, 1, 0]])


@pytest.mark.parametrize("v", [64, 65])
def test_set_index_lookups_across_the_word_boundary(v):
    # v = 64 keys fill one mask word, v = 65 spill point 64 into a second
    rng = random.Random(v)
    blocks = sorted({tuple(sorted(rng.sample(range(v), 5))) for _ in range(60)} | {(0, 1, 2, 3, v - 1)})
    a, b, c, e, f = blocks[0]
    d = Design(range(v), blocks + [(a, b, c, e)])  # a repeated point in a row of five could name this one
    last = [i for i, pts in enumerate(blocks) if v - 1 in pts]
    shuffled = np.array([rng.sample(blocks[i], 5) for i in last])
    assert len(last) > 1 and d.index.find(shuffled).tolist() == last
    assert d.index.find(np.array([[e, c, b, a]])).tolist() == [len(blocks)]
    bad = np.array([[a, a, b, c, e], [a, b, c, e, v], [a, b, c, e, f + 2 * v], [-1, b, c, e, f]], dtype=np.intp)
    assert (d.index.find(bad) == -1).all()
    assert not d.has_block((-1, b, c, e, f)) and not d.has_block((a, a, b, c, e))


def test_theorem2_batch_matches_single_calls(setting32, tg32, jt32):
    from qgeom.autgroup import check_theorem2_batch
    from qgeom.geometry import _vertex_index

    field, h, s = setting32
    cert = f_certificate(tg32, jt32, h, s)
    maps = [random_stabilizer_element(field, 2, (12, i)) for i in range(70)]
    results, cross_checked = check_theorem2_batch(jt32, _vertex_index(tg32), cert, maps, s)
    assert results == [True] * 70
    assert cross_checked == 3  # elements 0, 31 and 62
    assert check_theorem2_relation(jt32, tg32, cert, maps[5], s) is True


def test_stabilizer_generators_shapes():
    # (2e)^2 f transvections and mixing translations, diag(omega, 1, ...) when
    # q > 2, Frobenius when f > 1
    for (p, f, e), count in {(2, 1, 2): 16, (3, 1, 2): 17, (2, 2, 2): 34, (2, 1, 3): 36}.items():
        field = field_new(p, f)
        gens = stabilizer_generators(field, e)
        assert len(gens) == count
        assert len({(g.matrix.entries, g.frob) for g in gens}) == count
        assert [g.frob for g in gens].count(1) == (f > 1)
    with pytest.raises(ValueError):
        stabilizer_generators(field_new(2), 0)


@pytest.mark.parametrize("q", [2, 3])
def test_stabilizer_generators_satisfy_theorem2(request, q):
    field, h, s = request.getfixturevalue(f"setting{q}2")
    tg = request.getfixturevalue(f"tg{q}2")
    jt = request.getfixturevalue(f"jt{q}2")
    cert = f_certificate(tg, jt, h, s)
    for phi in stabilizer_generators(field, 2):
        assert check_theorem2_relation(jt, tg, cert, phi, s) is True
        images = vertex_permutation(tg, phi)
        assert sorted(images) == list(range(tg.n))


def test_vertex_permutation_refuses_a_map_that_moves_the_families(f2):
    # the twisted graph of another hyperplane: the standard stabilizer moves it
    h = span(f2, 5, [(1, 0, 0, 0, 0), (0, 1, 0, 0, 0), (0, 0, 1, 0, 0), (0, 0, 0, 1, 1)])
    tg = twisted_grassmann(f2, 2, h)
    (phi,) = [g for g in stabilizer_generators(f2, 2) if g.matrix.entries[3][4]]
    with pytest.raises(ValueError, match="vertex families"):
        vertex_permutation(tg, phi)


@pytest.mark.parametrize("setting", ["setting22", "setting32"])
def test_readme_sequence_forms_the_vertex_point_sets_once(monkeypatch, request, setting):
    # f_certificate, every generator's vertex permutation and a Theorem-2
    # check all read the one record of the graph, formed from its label tuples once
    import qgeom.geometry as geometry

    field, h, s = request.getfixturevalue(setting)
    tg = twisted_grassmann(field, 2, h, s)
    g, d = Graph(tg.labels, tg.adj), jt_design(field, 2, h, s)  # a graph given label tuples
    assert g._family is None
    formed, basis_images = [], geometry._basis_images
    monkeypatch.setattr(geometry, "_basis_images", lambda field, bases: formed.append(len(bases)) or basis_images(field, bases))
    cert = f_certificate(g, d, h, s)
    gens = stabilizer_generators(field, 2)
    assert all(len(vertex_permutation(g, phi)) == g.n for phi in gens)
    assert check_theorem2_relation(d, g, cert, gens[0], s) is True
    assert formed == [len(bases) for _, bases, _ in tg._family.runs]  # one batch per run: A, then B
    assert sum(formed) == g.n and [tag for tag, *_ in g._family.runs] == ["A", "B"]


def _mixed_graph():
    w = {p: Subspace(field_new(p), 5, ((1, 0, 0, 0, 0),)) for p in (2, 3)}
    return Graph.from_edges(2, [], labels=[("A", w[2]), ("B", w[3])])


@pytest.mark.parametrize(
    "graph,message",
    [
        (lambda: Graph.from_edges(0, []), "the graph has no vertices"),
        (lambda: Graph.from_edges(3, []), "vertex 0 has label 0: labels must be (tag, Subspace) pairs of one space"),
        (
            _mixed_graph,
            "vertex 1 has label ('B', Subspace(GF(3)^5, dim 1: [10000])): labels must be (tag, Subspace) pairs of one space",
        ),
        (  # a record of bare subspaces, kept by the graph
            lambda: grassmann_graph(5, 2, 2),
            "vertex 0 has label Subspace(GF(2)^5, dim 2: [10000,01000]): labels must be (tag, Subspace) pairs of one space",
        ),
        (  # a tag None marks a run of bare subspaces in a record
            lambda: Graph.from_edges(1, [], labels=[(None, Subspace(field_new(2), 5, ((1, 0, 0, 0, 0),)))]),
            "vertex 0 has label (None, Subspace(GF(2)^5, dim 1: [10000])): labels must be (tag, Subspace) pairs of one space",
        ),
    ],
    ids=["no-vertices", "integer-labels", "two-fields", "grassmann", "none-tag"],
)
@pytest.mark.parametrize("helper", ["f_certificate", "vertex_permutation", "check_theorem2_relation"])
def test_graph_helpers_refuse_labels_that_are_no_subspaces_of_one_space(helper, graph, message, setting22, jt22, cert22):
    field, h, s = setting22
    phi = random_stabilizer_element(field, 2, seed=0)
    call = {
        "f_certificate": lambda g: f_certificate(g, jt22, h, s),
        "vertex_permutation": lambda g: vertex_permutation(g, phi),
        "check_theorem2_relation": lambda g: check_theorem2_relation(jt22, g, cert22, phi, s),
    }[helper]
    with pytest.raises(ValueError) as info:
        call(graph())
    assert str(info.value) == message


def test_f_certificate_and_f_map_refuse_an_h_of_another_space(setting22, tg32, jt22):
    field, h, s = setting22
    with pytest.raises(ValueError, match="w and h live in different ambient spaces"):
        f_certificate(tg32, jt22, h, s)
    with pytest.raises(ValueError, match="w and h live in different ambient spaces"):
        f_map(tg32.labels[0][1], h, s)


@pytest.mark.parametrize("gram", ["identity", "paired"])
@pytest.mark.parametrize("q", [2, 3])
def test_graph_helpers_read_the_record_twisted_grassmann_built(monkeypatch, q, gram):
    # the graph keeps its record after its labels are read, and the helpers
    # give the values of the same labels as tuples without forming any
    field = field_new(q)
    h = coordinate_hyperplane(field, 5)
    s = polarity_new(field, h, None if gram == "identity" else _paired_gram(4))
    tg, d = twisted_grassmann(field, 2, h, s), jt_design(field, 2, h, s)
    maps = [*stabilizer_generators(field, 2), random_stabilizer_element(field, 2, (27, q))]

    def helpers(g):
        cert = f_certificate(g, d, h, s)
        return cert, [vertex_permutation(g, phi) for phi in maps], [check_theorem2_relation(d, g, cert, phi, s) for phi in maps[-2:]]

    expected = helpers(Graph(tg.labels, tg.adj))  # tg's labels are read, and its record kept

    def refuse(self):
        raise AssertionError("a label tuple was formed")

    monkeypatch.setattr(Graph, "labels", property(refuse))
    assert helpers(tg) == expected
    assert expected[2] == [True, True] and all(sorted(images) == list(range(tg.n)) for images in expected[1])


@pytest.mark.parametrize(
    "graph,q,n,message",
    [
        ("tg32", 2, 5, "phi acts on GF(2)^5, the graph's vertices lie in GF(3)^5"),
        ("tg22", 3, 5, "phi acts on GF(3)^5, the graph's vertices lie in GF(2)^5"),
        ("tg22", 2, 7, "phi acts on GF(2)^7, the graph's vertices lie in GF(2)^5"),
    ],
    ids=["gf2-map-gf3-graph", "gf3-map-gf2-graph", "another-dimension"],
)
def test_vertex_permutation_refuses_a_map_of_another_space(request, graph, q, n, message):
    phi = random_stabilizer_element(field_new(q), (n - 1) // 2, 0)
    with pytest.raises(ValueError) as info:
        vertex_permutation(request.getfixturevalue(graph), phi)
    assert str(info.value) == message


@pytest.mark.parametrize(
    "case,message",
    [
        ("short-certificate", "the certificate maps 100 vertices, the graph has 155 and the design 155 blocks"),
        ("fewer-blocks", "the certificate maps 155 vertices, the graph has 155 and the design 154 blocks"),
        ("gf3-design", "the design has 121 points, the graph's space GF(2)^5 has 31"),
        ("more-points", "the design has 40 points, the graph's space GF(2)^5 has 31"),
        ("gf3-polarity", "the polarity acts on GF(3)^5, the graph's vertices lie in GF(2)^5"),
        ("gf3-map", "phi acts on GF(3)^5, the graph's vertices lie in GF(2)^5"),
    ],
)
def test_theorem2_relation_refuses_parts_of_another_graph(case, message, setting22, setting32, tg22, jt22, jt32, cert22):
    field, h, s = setting22
    d, cert, phi = jt22, cert22, random_stabilizer_element(field, 2, 0)
    if case == "short-certificate":
        cert = IsoCertificate(range(100), "twisted-grassmann[100]", "design-blocks[100]")
    elif case == "fewer-blocks":
        d = Design(jt22.points, jt22.blocks[:154])
    elif case == "gf3-design":
        d = jt32
    elif case == "more-points":
        d = Design(range(40), jt22.blocks)
    elif case == "gf3-polarity":
        s = setting32[2]
    else:
        phi = random_stabilizer_element(setting32[0], 2, 0)
    with pytest.raises(ValueError) as info:
        check_theorem2_relation(d, tg22, cert, phi, s)
    assert str(info.value) == message


@pytest.mark.parametrize("q", [3, 4])
def test_lift_refuses_a_map_over_another_field(setting22, q):
    field, h, s = setting22
    with pytest.raises(ValueError) as info:
        lift(random_stabilizer_element(field_from_order(q), 2, 0), s)
    assert str(info.value) == f"phi acts over GF({q}), the polarity over GF(2)"


def test_stabilizer_order_values():
    assert stabilizer_order(2, 2, 1) == 322560
    assert stabilizer_order(3, 2, 1) == 1965150720
    assert stabilizer_order(2, 0, 1) == 1
    assert stabilizer_order(4, 1, 2) == 2 * (16 * (16 - 1) * (16 - 4))
    assert stabilizer_order(2**10, 1, 10) == 10 * (2**20 * (2**20 - 1) * (2**20 - 2**10))  # past Q_MAX
    with pytest.raises(ValueError):
        stabilizer_order(6, 2, 1)
    with pytest.raises(ValueError):
        stabilizer_order(4, 2, 3)


def test_point_permutation_algebra():
    p = PointPermutation((1, 2, 0))
    q = PointPermutation((0, 2, 1))
    assert p.compose(q).perm == (1, 0, 2)
    assert p.compose(p.inverse()).is_identity
    with pytest.raises(ValueError):
        PointPermutation((0, 0, 1))


def test_point_permutations_of_two_degrees_do_not_compose():
    three, two = PointPermutation((1, 0, 2)), PointPermutation((0, 1))
    with pytest.raises(ValueError, match="of 3 points after one of 2"):
        three.compose(two)
    with pytest.raises(ValueError, match="of 2 points after one of 3"):
        two.compose(three)


def _symplectic_polarity():
    f = field_new(2)
    h = coordinate_hyperplane(f, 5)
    gram = [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]]
    return f, polarity_new(f, h, gram)


def test_census_under_a_symplectic_polarity():
    f, s = _symplectic_polarity()
    rep = exhaustive_lift_check(s)
    assert rep.ok
    assert rep.verified == rep.distinct == 322560
    assert rep.identity_count == 1
    assert rep.cross_checked >= 1


def test_census_refuses_other_instances_before_building(monkeypatch):
    from qgeom.geometry import _Instance

    def no_build(inst):
        raise AssertionError("the census built a design before refusing")

    monkeypatch.setattr(_Instance, "jt", property(no_build))
    f3, f = field_new(3), field_new(2)
    for field, e in ((f3, 2), (f, 3)):  # the polarity's field, and its hyperplane's dimension 2e
        with pytest.raises(ValueError, match=r"\(q,e\)=\(2,2\)"):
            exhaustive_lift_check(polarity_new(field, coordinate_hyperplane(field, 2 * e + 1)))
    other = span(f, 5, [(1, 0, 0, 0, 1), (0, 1, 0, 0, 0), (0, 0, 1, 0, 0), (0, 0, 0, 1, 0)])
    with pytest.raises(ValueError, match="coordinate hyperplane"):
        exhaustive_lift_check(polarity_new(f, other))


def test_census_raises_when_it_diverges_from_the_literal_lift(monkeypatch):
    import qgeom.autgroup as autgroup

    literal = autgroup.lift
    calls = []

    def swapped(phi, s):
        calls.append(phi)
        perm = list(literal(phi, s).perm)
        perm[0], perm[1] = perm[1], perm[0]
        return PointPermutation(tuple(perm))

    monkeypatch.setattr(autgroup, "lift", swapped)
    with pytest.raises(RuntimeError, match="element 0:"):
        exhaustive_lift_check()
    assert len(calls) == 1


def _direct_census_chunk(start, mats, *, s, blocks):
    """The census chunk with the block check on every element: the oracle
    for the factored proof of `_census_chunk`."""
    from qgeom.autgroup import _CENSUS_STRIDE, _lift_batch, _spot_check_lifts

    field = s.field
    phis = _census_maps(field.p, mats)
    perms = _lift_batch(s, _census_pi(s, mats))
    ok = blocks.images(perms) >= 0
    failures = [
        (tuple(map(tuple, phis[g].tolist())), int(np.argmin(ok[g])))
        for g in np.flatnonzero(~ok.all(axis=1))
    ]
    return perms, failures, _spot_check_lifts(
        "census", perms, lambda g: SemilinearMap(Matrix(field, phis[g].tolist()), 0), s, start, _CENSUS_STRIDE
    )


@pytest.mark.parametrize("setting", ["identity", "symplectic", "mutant"])
def test_factored_census_chunk_matches_the_direct_check(setting):
    from qgeom.autgroup import _census_chunk, _census_lifts, _general_linear
    from qgeom.geometry import _Instance

    f, s = _symplectic_polarity() if setting == "symplectic" else (field_new(2), None)
    inst = _Instance(f, 2, None, s)
    s, d = inst.s, inst.jt
    if setting == "mutant":  # block 0 replaced by a 7-set that is no block: most lifts fail
        assert not d.has_block(tuple(range(7)))
        d = Design(d.points, [tuple(range(7))] + list(d.blocks[1:]))
    _, trans = _census_lifts(s, np.eye(4, dtype=np.intp)[None])
    trans_ok = (d.index.images(trans) >= 0).all(axis=1)
    gl = _general_linear(2, 4)
    (identity,) = np.flatnonzero((gl == np.eye(4)).all(axis=(1, 2)))
    starts = (0, identity // 64 * 64, len(gl) - 64)  # the first chunk, A = I's, the last
    linear_failed = 0
    for a in starts:
        mats = gl[a : a + 64]
        perms, failures, spots = _census_chunk(
            16 * a, mats, s=s, blocks=d.index, trans=trans, trans_ok=trans_ok
        )
        direct_perms, direct_failures, direct_spots = _direct_census_chunk(16 * a, mats, s=s, blocks=d.index)
        assert np.array_equal(perms, direct_perms)
        assert failures == direct_failures
        assert spots == direct_spots
        linear_failed += sum(all(row[4] == 0 for row in fail[0][:4]) for fail in failures)  # b = 0
    if setting == "mutant":  # both kinds of factor fail somewhere
        assert not trans_ok.all() and linear_failed
    else:
        assert trans_ok.all() and not linear_failed


def test_census_reports_a_lift_that_is_not_the_product_of_its_factors(monkeypatch):
    # Element x's batched lift repeats entry x+1 at entry x: it differs from
    # lift(T_b).lift(L_A) in entry x alone, and maps a block through both
    # points onto 6 points.  No element is a factor (b != 0) or on the spot
    # stride, so only the block check can report it, whichever entry is hit.
    import qgeom.autgroup as autgroup
    from qgeom.autgroup import _general_linear, _lift_batch
    from qgeom.geometry import _Instance, _point_images

    f = field_new(2)
    gl = _general_linear(2, 4)
    bs = list(product(range(2), repeat=4))
    elements = [16 * (600 * x + 7) + 1 + x % 15 for x in range(31)]
    assert all(g % 16 and g % 4001 for g in elements)
    phis = np.zeros((31, 5, 5), dtype=np.intp)
    phis[:, :4, :4] = gl[[g // 16 for g in elements]]
    phis[:, :4, 4] = [bs[g % 16] for g in elements]
    phis[:, 4, 4] = 1
    pi = _point_images(f, phis, np.zeros(31, dtype=np.intp))
    targets = {row.tobytes(): x for x, row in enumerate(pi)}

    def corrupted(s, pi):
        lifted = _lift_batch(s, pi)
        for g, row in enumerate(pi):
            if (x := targets.get(row.tobytes())) is not None:
                lifted[g, x] = lifted[g, (x + 1) % 31]
        return lifted

    inst = _Instance(f, 2)
    wrong = corrupted(inst.s, pi)
    blocks_ok = inst.jt.index.images(wrong) >= 0
    monkeypatch.setattr(autgroup, "_lift_batch", corrupted)
    rep = exhaustive_lift_check(inst=inst)
    assert list(rep.failures) == [
        (tuple(map(tuple, phi.tolist())), int(np.argmin(ok))) for phi, ok in zip(phis, blocks_ok)
    ]
    assert not rep.ok


def test_census_reads_the_callers_instance(monkeypatch):
    from qgeom.geometry import _Instance

    inst = _Instance(field_new(2), 2)
    with pytest.raises(TypeError, match="inst alone"):
        exhaustive_lift_check(inst.s, inst=inst)

    def no_build(inst):
        raise AssertionError("the census built a design before refusing")

    monkeypatch.setattr(_Instance, "jt", property(no_build))
    with pytest.raises(ValueError, match=r"\(q,e\)=\(2,2\)"):
        exhaustive_lift_check(inst=_Instance(field_new(3), 2))


@pytest.mark.parametrize("width", [1, 7, 8, 9, 31, 32, 33])
def test_distinct_rows_is_the_exact_count(monkeypatch, width):
    import qgeom.autgroup as autgroup
    import qgeom.geometry as geometry

    def unique_count(rows):
        return len(np.unique(rows.view(np.dtype((np.void, rows.shape[1])))))

    rng = np.random.default_rng(width)
    for n in (2, 50, 1000):
        rows = rng.integers(0, 4, (n, width), dtype=np.uint8)
        rows[rng.integers(0, n, n // 3)] = rows[rng.integers(0, n, n // 3)]  # planted duplicates
        counts = [autgroup._distinct_rows(rows)]
        with monkeypatch.context() as m:
            m.setattr(geometry, "_MIX", np.uint64(0))  # every row shares one key
            counts.append(autgroup._distinct_rows(rows))
        assert counts == [unique_count(rows)] * 2
    for n in (0, 1):
        rows = rng.integers(0, 4, (n, width), dtype=np.uint8)
        assert autgroup._distinct_rows(rows) == n


def test_distinct_rows_folds_its_keys_a_slab_at_a_time(monkeypatch):
    # 40 bytes a slab: 5 rows of 8 padded bytes down to 1 of 40, so every
    # count crosses slabs and most end on a short one
    import qgeom.autgroup as autgroup

    monkeypatch.setattr(autgroup, "_SLAB_BYTES", 40)
    rng = np.random.default_rng(40)
    for width in (1, 8, 9, 33):
        for n in (0, 1, 7, 50, 1000):
            rows = rng.integers(0, 3, (n, width), dtype=np.uint8)
            if n:
                rows[rng.integers(0, n, n // 3)] = rows[rng.integers(0, n, n // 3)]  # planted duplicates
            assert autgroup._distinct_rows(rows) == len(np.unique(rows, axis=0))


def test_census_counts_a_copied_lift_once(monkeypatch):
    # Element 16006's batched lift is replaced by element 16005's, its
    # neighbour in the same chunk.  Neither is a factor (b != 0) or on the
    # spot stride, and the copy is a design automorphism, so the block
    # check passes and only the distinct count shows it.
    import qgeom.autgroup as autgroup
    from qgeom.autgroup import _general_linear, _lift_batch

    f = field_new(2)
    g = 16005
    per_chunk = 16 * autgroup._CENSUS_CHUNK  # maps per census chunk
    assert g % 16 and (g + 1) % 16 and (g + 1) % 4001 and g // per_chunk == (g + 1) // per_chunk
    target = _census_pi(polarity_new(f, coordinate_hyperplane(f, 5)), _general_linear(2, 4)[[g // 16]])[(g + 1) % 16]
    copies = []

    def copied(s, pi):
        lifted = _lift_batch(s, pi)
        for k in np.flatnonzero((pi == target).all(axis=1)).tolist():
            copies.append(k)
            lifted[k] = lifted[k - 1]
        return lifted

    monkeypatch.setattr(autgroup, "_lift_batch", copied)
    rep = exhaustive_lift_check()
    assert copies == [(g + 1) % per_chunk]
    assert rep.distinct == 322559 and rep.verified == 322560 and rep.identity_count == 1
    assert rep.failures == () and not rep.ok


def _planted_census_failures(elements):
    """(corrupt, expected): a `_lift_batch` stand-in whose lift of each of
    elements repeats its next entry at one entry, so that it maps some
    block onto no block, and the census failures that the direct block
    check of those lifts gives, in element order."""
    from qgeom.autgroup import _general_linear, _lift_batch
    from qgeom.geometry import _Instance, _point_images

    f = field_new(2)
    gl = _general_linear(2, 4)
    bs = list(product(range(2), repeat=4))
    phis = np.zeros((len(elements), 5, 5), dtype=np.intp)
    phis[:, :4, :4] = gl[[g // 16 for g in elements]]
    phis[:, :4, 4] = [bs[g % 16] for g in elements]
    phis[:, 4, 4] = 1
    pi = _point_images(f, phis, np.zeros(len(elements), dtype=np.intp))
    targets = {row.tobytes(): x % 31 for x, row in enumerate(pi)}

    def corrupt(s, pi):
        lifted = _lift_batch(s, pi)
        for g, row in enumerate(pi):
            if (x := targets.get(row.tobytes())) is not None:
                lifted[g, x] = lifted[g, (x + 1) % 31]
        return lifted

    inst = _Instance(f, 2)
    blocks_ok = inst.jt.index.images(corrupt(inst.s, pi)) >= 0
    assert not blocks_ok.all(axis=1).any()
    return corrupt, [(tuple(map(tuple, phi.tolist())), int(np.argmin(ok))) for phi, ok in zip(phis, blocks_ok)]


def test_census_does_not_depend_on_chunk_size(monkeypatch):
    # 64 A a chunk divides the 20160 A evenly; 11 and the default leave a
    # short last chunk.  Each size gives the same report, progress that
    # rises to 1.0, and the same witnesses for failures planted on either
    # side of a chunk boundary of every size, and at the last element.
    import qgeom.autgroup as autgroup
    from qgeom.autgroup import _general_linear

    sizes = (autgroup._CENSUS_CHUNK, 64, 11)
    assert [len(_general_linear(2, 4)) % size == 0 for size in sizes] == [False, True, False]
    identity = int(np.flatnonzero((_general_linear(2, 4) == np.eye(4)).all(axis=(1, 2)))[0])
    elements = sorted({322559} | {16 * size * k + d for size in sizes for k in (1, 3) for d in (-1, 0)})
    # none is a translation T_b (A = I), element 0 or on the spot stride
    assert all(g // 16 != identity and g % 4001 for g in elements)
    corrupt, planted = _planted_census_failures(elements)
    reports, faulty = [], []
    for size in sizes:
        monkeypatch.setattr(autgroup, "_CENSUS_CHUNK", size)
        fractions = []
        report = exhaustive_lift_check(progress=fractions.append).to_json()
        report.pop("elapsed")
        reports.append(report)
        assert all(a < b for a, b in zip(fractions, fractions[1:])) and fractions[-1] == 1.0
        assert len(fractions) == -(-20160 // size)
        with monkeypatch.context() as m:
            m.setattr(autgroup, "_lift_batch", corrupt)
            faulty.append(list(exhaustive_lift_check().failures))
    assert reports[0]["pass"] and reports[0]["cross_checked"] == 81
    assert reports == [reports[0]] * len(sizes)
    assert faulty == [planted] * len(sizes)


def test_census_refuses_a_short_general_linear(monkeypatch):
    import qgeom.autgroup as autgroup

    full = autgroup._general_linear
    monkeypatch.setattr(autgroup, "_general_linear", lambda p, m: full(p, m)[:-1])
    with pytest.raises(RuntimeError, match="322544 elements, not the stabilizer order 322560"):
        exhaustive_lift_check()
