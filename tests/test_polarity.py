import random

import pytest

from qgeom import (
    coordinate_hyperplane,
    enumerate_k_subspaces,
    field_new,
    polarity_new,
    span,
)


def all_subspaces(amb):
    for k in range(amb.dim + 1):
        yield from enumerate_k_subspaces(amb, k)


def test_involution_inclusion_reversal_de_morgan_exhaustive(setting22):
    # every law over all 67 subspaces of the 4-dim hyperplane
    field, h, s = setting22
    subs = list(all_subspaces(h))
    assert len(subs) == 67
    for w in subs:
        sw = s.apply(w)
        assert sw.dim == h.dim - w.dim
        assert s.apply(sw) == w
    for u in subs:
        su = s.apply(u)
        for w in subs:
            sw = s.apply(w)
            if u.contains(w):
                assert sw.contains(su)
    # sigma(U + W) = sigma(U) meet sigma(W) on a deterministic sample of pairs
    for i in range(0, 67, 3):
        for j in range(1, 67, 5):
            u, w = subs[i], subs[j]
            assert s.apply(u.sum(w)) == s.apply(u).intersect(s.apply(w))
            assert s.apply(u.intersect(w)) == s.apply(u).sum(s.apply(w))


def test_polarity_dim_law_gf3(setting32):
    field, h, s = setting32
    rng = random.Random(5)
    for _ in range(150):
        k = rng.randrange(0, 5)
        vecs = [tuple(rng.randrange(3) for _ in range(5)) for _ in range(k)]
        vecs = [v[:4] + (0,) for v in vecs]  # stay inside the hyperplane
        w = span(field, 5, vecs)
        sw = s.apply(w)
        assert sw.dim == 4 - w.dim
        assert s.apply(sw) == w


def test_polarity_with_nonidentity_gram():
    f = field_new(2)
    h = coordinate_hyperplane(f, 5)
    gram = [
        [0, 1, 0, 0],
        [1, 0, 0, 0],
        [0, 0, 0, 1],
        [0, 0, 1, 0],
    ]
    s = polarity_new(f, h, gram)
    for w in all_subspaces(h):
        sw = s.apply(w)
        assert sw.dim == 4 - w.dim
        assert s.apply(sw) == w
    # hyperbolic pairing sends <e1> to the span of {e1, e3, e4}
    e1 = span(f, 5, [(1, 0, 0, 0, 0)])
    img = s.apply(e1)
    assert img.contains_vector((1, 0, 0, 0, 0))
    assert not img.contains_vector((0, 1, 0, 0, 0))


def test_skew_gram_gf3():
    f = field_new(3)
    h = coordinate_hyperplane(f, 5)
    gram = [
        [0, 1, 0, 0],
        [2, 0, 0, 0],
        [0, 0, 0, 1],
        [0, 0, 2, 0],
    ]
    s = polarity_new(f, h, gram)
    rng = random.Random(9)
    for _ in range(60):
        k = rng.randrange(0, 5)
        vecs = [tuple(rng.randrange(3) for _ in range(4)) + (0,) for _ in range(k)]
        w = span(f, 5, vecs)
        assert s.apply(s.apply(w)) == w


def test_extreme_subspaces(setting22):
    field, h, s = setting22
    from qgeom import zero_space

    z = zero_space(field, 5)
    assert s.apply(z) == h
    assert s.apply(h) == z


def test_apply_rejects_subspace_outside_h(setting22):
    field, h, s = setting22
    w = span(field, 5, [(0, 0, 0, 0, 1)])
    with pytest.raises(ValueError):
        s.apply(w)


def test_apply_refuses_with_its_message(setting22):
    # a point off h, a line through one, and a plane that meets h in a line
    field, h, s = setting22
    for rows in ([(1, 1, 0, 0, 1)], [(1, 0, 0, 0, 0), (0, 0, 0, 0, 1)], [(1, 0, 0, 0, 0), (0, 1, 0, 0, 0), (0, 0, 1, 0, 1)]):
        with pytest.raises(ValueError, match="^polarity applies only to subspaces of its hyperplane$"):
            s.apply(span(field, 5, rows))


@pytest.mark.parametrize("q", [3, 4])
def test_apply_is_the_definition(q):
    # sigma(w) = {x in h : x G v^T = 0 for every v in w}, found by trying
    # every vector of h, under a symmetric gram that is not the identity
    # and a hyperplane that is not the coordinate one
    from qgeom import field_from_order

    f = field_from_order(q)
    h = span(f, 4, [(1, 0, 0, 1), (0, 1, 0, 2), (0, 0, 1, 1)])
    gram = [[1, 1, 0], [1, 0, 0], [0, 0, 2]]
    s = polarity_new(f, h, gram)
    g = s.gram
    coords = {x: tuple(x[p] for p in h.pivots) for x in h.vectors()}
    rng = random.Random(q)
    for w in all_subspaces(h):
        if rng.random() > 0.3 and w.dim not in (0, 3):
            continue
        kept = [x for x, cx in coords.items() if not any(_form(f, g, cx, coords[v]) for v in w.basis_rows)]
        assert s.apply(w) == span(f, 4, kept)


def _form(f, g, x, y):
    """x G y^T over f, entry by entry."""
    acc = 0
    for i, row in enumerate(g.entries):
        for j, gij in enumerate(row):
            acc = f.add(acc, f.mul(f.mul(x[i], gij), y[j]))
    return acc


def test_degenerate_gram_rejected():
    f = field_new(2)
    h = coordinate_hyperplane(f, 5)
    singular = [
        [1, 0, 0, 0],
        [0, 1, 0, 0],
        [0, 0, 1, 0],
        [0, 0, 0, 0],
    ]
    with pytest.raises(ValueError):
        polarity_new(f, h, singular)


def test_asymmetric_gram_rejected():
    f = field_new(3)
    h = coordinate_hyperplane(f, 5)
    lopsided = [
        [1, 1, 0, 0],
        [0, 1, 0, 0],
        [0, 0, 1, 0],
        [0, 0, 0, 1],
    ]
    with pytest.raises(ValueError):
        polarity_new(f, h, lopsided)


def test_wrong_shape_gram_rejected():
    f = field_new(2)
    h = coordinate_hyperplane(f, 5)
    with pytest.raises(ValueError):
        polarity_new(f, h, [[1, 0], [0, 1]])


def test_gram_rows_take_integers_only():
    import numpy as np

    f = field_new(3)
    h = coordinate_hyperplane(f, 5)
    identity = [[int(i == j) for j in range(4)] for i in range(4)]
    s = polarity_new(f, h, np.array(identity, dtype=np.int64))  # numpy integers are integers
    assert s.gram == polarity_new(f, h).gram
    assert all(type(x) is int for row in s.gram.entries for x in row)
    for entry in (1.0, True, "1", None):
        bad = [row[:] for row in identity]
        bad[3][3] = entry
        with pytest.raises(ValueError, match="row 3, column 3"):
            polarity_new(f, h, bad)
