import random
from itertools import product

import numpy as np
import pytest

from qgeom import (
    Matrix,
    NotAutomorphism,
    PointPermutation,
    SemilinearMap,
    Theorem2Violation,
    check_theorem2_relation,
    coordinate_hyperplane,
    exhaustive_lift_check,
    f_certificate,
    field_new,
    induced_block_permutation,
    is_design_automorphism,
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
    from qgeom.autgroup import _maps_as_arrays, _point_images, _set_index

    field, h, s = setting22
    vertex_of = {label: j for j, label in enumerate(tg22.labels)}
    maps = [random_stabilizer_element(field, 2, (5, i)) for i in range(25)]
    images = _set_index(tg22).images(_point_images(*_maps_as_arrays(maps)))
    for phi, row in zip(maps, images.tolist()):
        assert row == [vertex_of[(tag, phi.apply_subspace(w))] for tag, w in tg22.labels]


def test_theorem2_relation_raises_when_the_vertex_action_diverges(monkeypatch, setting22, tg22, jt22, cert22):
    import qgeom.autgroup as autgroup

    field, h, s = setting22
    point_level = autgroup._set_index

    class Shifted:
        """The graph's vertex index, with every image of vertex 0 moved on by one."""

        def __init__(self, index):
            self.index = index

        def images(self, pi):
            images = self.index.images(pi)
            images[:, 0] = (images[:, 0] + 1) % tg22.n
            return images

    monkeypatch.setattr(autgroup, "_set_index", lambda obj: Shifted(point_level(obj)) if obj is tg22 else point_level(obj))
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
    from qgeom.autgroup import _lift_batch, _maps_as_arrays, _point_images
    from qgeom.geometry import _point_order

    field = field_new(p, f)
    h = coordinate_hyperplane(field, 2 * e + 1)
    s = polarity_new(field, h, _paired_gram(2 * e) if paired else None)
    points, index = _point_order(field, 2 * e + 1)
    maps = stabilizer_generators(field, e) + [random_stabilizer_element(field, e, (11, i)) for i in range(20)]
    assert {phi.frob for phi in maps} == set(range(f))
    pi = _point_images(*_maps_as_arrays(maps))
    lifted = _lift_batch(s, pi)
    for phi, images, lifted_perm in zip(maps, pi.tolist(), lifted.tolist()):
        assert images == [index[phi.apply_point(pt).rep] for pt in points]
        assert tuple(lifted_perm) == lift(phi, s).perm


def test_set_index_finds_every_key_at_its_own_row(setting22, setting32, jt22, jt32, tg22, tg32):
    from qgeom.autgroup import _set_index
    from qgeom.geometry import _Instance, _mask_words, _sigma

    for (field, h, s), d, g in ((setting22, jt22, tg22), (setting32, jt32, tg32)):
        for index in (d.index, _set_index(g), _sigma(s).index, _Instance(field, 2, h, s).vertex_index):
            identity = np.arange(d.v, dtype=np.uint8)[None]
            assert index.images(identity)[0].tolist() == list(range(len(index)))
            for rows, pts in index.groups:
                assert index.find(_mask_words(pts, d.v).T).tolist() == rows.tolist()


@pytest.mark.parametrize("q", [2, 3])
def test_set_index_agrees_with_has_block_on_random_sets(request, q):
    from qgeom.geometry import _mask_words

    d = request.getfixturevalue(f"jt{q}2")
    k = len(d.blocks[0])
    rng = random.Random(q)
    sets = [sorted(rng.sample(range(d.v), k)) for _ in range(2000)]
    sets += [list(d.blocks[rng.randrange(d.b)]) for _ in range(200)]
    found = d.index.find(_mask_words(np.array(sets), d.v).T)
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
    from qgeom.geometry import _by_size, _SetIndex, _mask_words

    # keys share their first word and differ only in the second
    keys = [[0, 1, 2, 64 + i] for i in range(20)]
    index = _SetIndex(_by_size([np.array(keys)]), 100)
    assert len(index) == 20 and len(index.columns) == 2
    assert index.find(_mask_words(np.array(keys), 100).T).tolist() == list(range(20))
    others = np.array([[0, 1, 2, 84 + i] for i in range(16)] + [[0, 1, 2, 3]] + [[1, 2, 3, 64 + i] for i in range(20)])
    assert (index.find(_mask_words(others, 100).T) == -1).all()


def test_theorem2_batch_matches_single_calls(setting32, tg32, jt32):
    from qgeom.autgroup import _set_index, check_theorem2_batch

    field, h, s = setting32
    cert = f_certificate(tg32, jt32, h, s)
    maps = [random_stabilizer_element(field, 2, (12, i)) for i in range(70)]
    results, cross_checked = check_theorem2_batch(jt32, tg32.labels, _set_index(tg32), cert, maps, s)
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


def _symplectic_polarity():
    f = field_new(2)
    h = coordinate_hyperplane(f, 5)
    gram = [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]]
    return f, polarity_new(f, h, gram)


def test_census_under_a_symplectic_polarity():
    f, s = _symplectic_polarity()
    rep = exhaustive_lift_check(f, 2, s=s)
    assert rep.ok
    assert rep.verified == rep.distinct == 322560
    assert rep.identity_count == 1
    assert rep.cross_checked >= 1


def test_census_refuses_other_instances_before_building(monkeypatch):
    from qgeom.geometry import _Instance

    def no_build(inst):
        raise AssertionError("the census built a design before refusing")

    monkeypatch.setattr(_Instance, "jt", property(no_build))
    with pytest.raises(ValueError, match=r"\(q,e\)=\(2,2\)"):
        exhaustive_lift_check(field_new(3), 2)
    f = field_new(2)
    other = span(f, 5, [(1, 0, 0, 0, 1), (0, 1, 0, 0, 0), (0, 0, 1, 0, 0), (0, 0, 0, 1, 0)])
    with pytest.raises(ValueError, match="coordinate hyperplane"):
        exhaustive_lift_check(f, 2, s=polarity_new(f, other))


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
        exhaustive_lift_check(field_new(2), 2)
    assert len(calls) == 1


def _direct_census_chunk(start, mats, *, s, blocks, spot_stride):
    """The census chunk with the block check on every element: the oracle
    for the factored proof of `_census_chunk`."""
    from qgeom.autgroup import _lift_batch, _spot_check_lifts
    from qgeom.geometry import _point_images

    field, n, m = s.field, mats.shape[1] + 1, mats.shape[1]
    bs = np.array(list(product(range(field.p), repeat=m)), dtype=np.intp)
    phis = np.zeros((len(mats), len(bs), n, n), dtype=np.intp)
    phis[:, :, :m, :m] = mats[:, None]
    phis[:, :, :m, m] = bs
    phis[:, :, m, m] = 1
    phis = phis.reshape(-1, n, n)
    perms = _lift_batch(s, _point_images(field, phis, np.zeros(len(phis), dtype=np.intp)))
    ok = blocks.images(perms) >= 0
    failures = [
        (tuple(map(tuple, phis[g].tolist())), int(np.argmin(ok[g])))
        for g in np.flatnonzero(~ok.all(axis=1))
    ]
    return perms, failures, _spot_check_lifts(
        "census", perms, lambda g: SemilinearMap(Matrix(field, phis[g].tolist()), 0), s, start, spot_stride
    )


@pytest.mark.parametrize("setting", ["identity", "symplectic", "mutant"])
def test_factored_census_chunk_matches_the_direct_check(setting):
    from qgeom import Design
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
            16 * a, mats, s=s, blocks=d.index, trans=trans, trans_ok=trans_ok, spot_stride=4001
        )
        direct_perms, direct_failures, direct_spots = _direct_census_chunk(
            16 * a, mats, s=s, blocks=d.index, spot_stride=4001
        )
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


def test_census_pool_gives_the_single_process_report():
    one, two = (exhaustive_lift_check(field_new(2), 2, jobs=jobs).to_json() for jobs in (1, 2))
    assert {**two, "elapsed": None} == {**one, "elapsed": None}
    assert one["pass"] and one["cross_checked"] == 81


def test_census_reads_the_callers_instance(monkeypatch):
    from qgeom.geometry import _Instance

    inst = _Instance(field_new(2), 2)
    with pytest.raises(TypeError, match="inst alone"):
        exhaustive_lift_check(field_new(2), inst=inst)

    def no_build(inst):
        raise AssertionError("the census built a design before refusing")

    monkeypatch.setattr(_Instance, "jt", property(no_build))
    with pytest.raises(ValueError, match=r"\(q,e\)=\(2,2\)"):
        exhaustive_lift_check(inst=_Instance(field_new(3), 2))
