import random
from itertools import combinations

import pytest

from qgeom import (
    ProjectivePoint,
    affine_points,
    coordinate_hyperplane,
    enumerate_k_subspaces,
    field_new,
    full_space,
    gaussian_binomial,
    projective_points,
    Subspace,
    span,
    zero_space,
)


def random_subspace(field, n, rng):
    k = rng.randrange(0, n + 1)
    vecs = [tuple(rng.randrange(field.q) for _ in range(n)) for _ in range(k)]
    return span(field, n, vecs)


def test_span_is_canonical():
    f = field_new(2)
    a = span(f, 3, [(1, 1, 0), (0, 1, 1)])
    b = span(f, 3, [(1, 0, 1), (1, 1, 0), (0, 1, 1)])
    assert a == b
    assert a.basis_rows == ((1, 0, 1), (0, 1, 1))
    assert hash(a) == hash(b)


def test_pivots_are_stored_outside_equality():
    f = field_new(3)
    a = span(f, 4, [(1, 0, 2, 0), (0, 0, 1, 1)])
    assert a.pivots == (0, 2)
    assert a.pivots is a.pivots
    # equality and hashing read the basis alone
    other = Subspace(f, 4, a.basis_rows)
    object.__setattr__(other, "pivots", ())
    assert a == other and hash(a) == hash(other)
    assert "pivots" not in repr(a)


def test_dim_and_containment():
    f = field_new(3)
    w = span(f, 4, [(1, 0, 2, 0), (0, 1, 1, 0)])
    assert w.dim == 2
    assert w.contains_vector((1, 1, 0, 0))
    assert not w.contains_vector((0, 0, 0, 1))
    assert full_space(f, 4).contains(w)
    assert w.contains(zero_space(f, 4))
    assert not w.contains(full_space(f, 4))


def test_gaussian_binomial_values():
    assert gaussian_binomial(4, 2, 2) == 35
    assert gaussian_binomial(5, 2, 2) == 155
    assert gaussian_binomial(5, 3, 2) == 155
    assert gaussian_binomial(5, 2, 3) == 1210
    assert gaussian_binomial(3, 1, 4) == 21
    assert gaussian_binomial(4, 0, 2) == 1
    assert gaussian_binomial(4, 4, 2) == 1
    with pytest.raises(ValueError):
        gaussian_binomial(3, 5, 2)


@pytest.mark.parametrize("q", [2, 3])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_enumeration_counts_match_gaussian_binomials(q, n):
    f = field_new(q)
    amb = full_space(f, n)
    for k in range(0, n + 1):
        subs = list(enumerate_k_subspaces(amb, k))
        assert len(subs) == gaussian_binomial(n, k, q)
        assert len(set(subs)) == len(subs)
        for s in subs:
            assert s.dim == k and amb.contains(s)


def test_enumeration_within_proper_subspace():
    f = field_new(2)
    h = coordinate_hyperplane(f, 5)
    twos = list(enumerate_k_subspaces(h, 2))
    assert len(twos) == gaussian_binomial(4, 2, 2) == 35
    for s in twos:
        assert h.contains(s)
        assert s.ambient_dim == 5


def test_modular_dimension_identity_bulk():
    # dim(U) + dim(W) == dim(U+W) + dim(U∩W), 10^4 random pairs
    rng = random.Random(2024)
    fields = [field_new(2), field_new(3), field_new(2, 2)]
    checked = 0
    while checked < 10_000:
        f = rng.choice(fields)
        n = rng.randrange(1, 6)
        u = random_subspace(f, n, rng)
        w = random_subspace(f, n, rng)
        s = u.sum(w)
        i = u.intersect(w)
        assert u.dim + w.dim == s.dim + i.dim
        assert s.contains(u) and s.contains(w)
        assert u.contains(i) and w.contains(i)
        assert u.dim_sum(w) == s.dim
        assert u.dim_intersect(w) == i.dim
        checked += 1


def test_lattice_algebra():
    rng = random.Random(77)
    f = field_new(2)
    for _ in range(100):
        u = random_subspace(f, 4, rng)
        w = random_subspace(f, 4, rng)
        x = random_subspace(f, 4, rng)
        assert u.sum(w) == w.sum(u)
        assert u.intersect(w) == w.intersect(u)
        assert u.sum(u) == u
        assert u.intersect(u) == u
        assert u.sum(w).sum(x) == u.sum(w.sum(x))
        assert u.intersect(w).intersect(x) == u.intersect(w.intersect(x))


def test_vectors_and_points():
    f = field_new(2)
    w = span(f, 5, [(1, 0, 0, 0, 0), (0, 1, 0, 0, 0)])
    vecs = set(w.vectors())
    assert len(vecs) == 4
    pts = projective_points(w)
    assert len(pts) == 3
    assert all(isinstance(p, ProjectivePoint) for p in pts)
    reps = {p.rep for p in pts}
    assert reps == {(1, 0, 0, 0, 0), (0, 1, 0, 0, 0), (1, 1, 0, 0, 0)}


def test_projective_point_checks_its_representative():
    for rep in [(2, 1, 0), (0, 2, 1), (0, 0, 0)]:
        with pytest.raises(ValueError, match="canonical point representative"):
            ProjectivePoint(rep)
    # projective_points skips that check, so its representatives must pass it
    rng = random.Random(3)
    for f in (field_new(3), field_new(2, 2)):
        for _ in range(20):
            w = random_subspace(f, 4, rng)
            pts = projective_points(w)
            assert pts == [ProjectivePoint(p.rep) for p in pts]
            assert len(pts) == (f.q ** w.dim - 1) // (f.q - 1)


def test_projective_point_count_general():
    f = field_new(3)
    w = full_space(f, 3)
    assert len(projective_points(w)) == (27 - 1) // 2 == 13


def test_affine_points_split():
    f = field_new(2)
    h = coordinate_hyperplane(f, 5)
    v = full_space(f, 5)
    outside = affine_points(v, h)
    assert len(outside) == 16
    inside = projective_points(h)
    assert len(inside) == 15
    assert len(projective_points(v)) == 31
    assert set(outside).isdisjoint(inside)


def test_affine_points_of_contained_subspace():
    f = field_new(2)
    h = coordinate_hyperplane(f, 5)
    w = span(f, 5, [(1, 0, 0, 0, 0), (0, 0, 0, 0, 1)])
    out = affine_points(w, h)
    assert {p.rep for p in out} == {(0, 0, 0, 0, 1), (1, 0, 0, 0, 1)}


def test_coefficients_of_roundtrip():
    f = field_new(3)
    w = span(f, 4, [(1, 0, 1, 2), (0, 1, 2, 0)])
    vecs = [(1, 1, 0, 2), (2, 0, 2, 1)]
    coeff = w.coefficients_of(vecs)
    for c, v in zip(coeff.entries, vecs):
        rebuilt = [0, 0, 0, 0]
        for ci, row in zip(c, w.basis_rows):
            for j in range(4):
                rebuilt[j] = f.add(rebuilt[j], f.mul(ci, row[j]))
        assert tuple(rebuilt) == v


def test_coefficients_of_rejects_outside_vector():
    f = field_new(2)
    w = span(f, 3, [(1, 0, 0)])
    with pytest.raises(ValueError):
        w.coefficients_of([(0, 1, 0)])


def test_subspace_counts_of_small_hyperplane():
    # 1 + 15 + 35 + 15 + 1 subspaces of a 4-dim space over GF(2)
    f = field_new(2)
    h = coordinate_hyperplane(f, 5)
    total = sum(len(list(enumerate_k_subspaces(h, k))) for k in range(5))
    assert total == 67


def test_enumeration_order_is_deterministic():
    f = field_new(2)
    amb = full_space(f, 4)
    first = [s.basis_rows for s in enumerate_k_subspaces(amb, 2)]
    second = [s.basis_rows for s in enumerate_k_subspaces(amb, 2)]
    assert first == second
    assert first[0] == ((1, 0, 0, 0), (0, 1, 0, 0))
