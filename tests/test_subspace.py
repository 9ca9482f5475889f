import random
from itertools import combinations, islice, product

import pytest

from qgeom import (
    ProjectivePoint,
    affine_points,
    coordinate_hyperplane,
    enumerate_k_subspaces,
    field_from_order,
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
    for q in (0, 1, 6, 12):  # no field has q elements
        with pytest.raises(ValueError, match=f"q={q} is not a prime power"):
            gaussian_binomial(3, 1, q)


def test_the_package_has_no_assert_statement():
    # `python -O` drops assert statements, so no check in the package is
    # one: gaussian_binomial's exact division raises RuntimeError instead
    import ast
    from pathlib import Path

    import qgeom

    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(Path(qgeom.__file__).parent.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


@pytest.mark.parametrize(
    "q, rows, message",
    [
        (2, ((1, 1, 0), (1, 0, 0)), "basis row 1 has its pivot in column 0, not right of row 0's in column 0"),
        (2, ((0, 1, 0), (1, 0, 0)), "basis row 1 has its pivot in column 0, not right of row 0's in column 1"),
        (2, ((1, 0),), "basis row 0 has 2 entries, not 3"),
        (2, ((1, 0, 0), (0, 1, 0, 0)), "basis row 1 has 4 entries, not 3"),
        (2, ((1, 0, 0), (0, 0, 0)), "basis row 1 is zero"),
        (3, ((1, 0, 0), (0, 2, 1)), "basis row 1 leads with 2, not 1"),
        (2, ((1, 1, 0), (0, 1, 1)), "pivot column 1 of basis row 1 is not clear in row 0"),
    ],
    ids=["repeated-pivot", "falling-pivot", "short-row", "long-row", "zero-row", "lead-2", "pivot-not-clear"],
)
def test_subspace_refuses_a_basis_that_is_not_its_rref(q, rows, message):
    with pytest.raises(ValueError) as err:
        Subspace(field_new(q), 3, rows)
    assert str(err.value) == message


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


def _literal_enumeration(ambient, k):
    """The scalar enumerator, one `_lincomb` per basis row: the oracle for
    the slab-wise `enumerate_k_subspaces`."""
    d = ambient.dim
    if not 0 <= k <= d:
        raise ValueError(f"need 0 <= k <= dim, got k={k}, dim={d}")
    F = ambient.field
    n = ambient.ambient_dim
    basis = ambient.basis_rows
    zero = (0,) * n
    if k == 0:
        yield Subspace(F, n, ())
        return
    for piv in combinations(range(d), k):
        pivset = set(piv)
        free = [
            (i, j)
            for i in range(k)
            for j in range(piv[i] + 1, d)
            if j not in pivset
        ]
        for values in product(F.elements(), repeat=len(free)):
            coeff = [[0] * d for _ in range(k)]
            for i, p in enumerate(piv):
                coeff[i][p] = 1
            for (i, j), v in zip(free, values):
                coeff[i][j] = v
            rows = tuple(F._lincomb(zero, crow, basis) for crow in coeff)
            yield Subspace(F, n, rows)


def _ambients():
    """Full spaces, the coordinate hyperplane, the two non-coordinate
    hyperplanes of the automorphism tests and a plane, by id."""
    f2 = field_new(2)
    yield from ((f"GF({q})^{n}", full_space(field_from_order(q), n)) for q, n in [(2, 5), (3, 5), (4, 5), (8, 4), (9, 4)])
    yield "coordinate-hyperplane", coordinate_hyperplane(field_new(3), 5)
    yield "h-x3=x4", span(f2, 5, [(1, 0, 0, 0, 0), (0, 1, 0, 0, 0), (0, 0, 1, 0, 0), (0, 0, 0, 1, 1)])
    yield "h-x0=x4", span(f2, 5, [(1, 0, 0, 0, 1), (0, 1, 0, 0, 0), (0, 0, 1, 0, 0), (0, 0, 0, 1, 0)])
    yield "plane", span(field_new(2, 2), 4, [(1, 2, 0, 3), (0, 0, 1, 1)])


_AMBIENTS = dict(_ambients())


@pytest.mark.parametrize("name", list(_AMBIENTS))
def test_enumeration_matches_the_scalar_oracle(name):
    amb = _AMBIENTS[name]
    for k in range(amb.dim + 1):
        assert list(enumerate_k_subspaces(amb, k)) == list(_literal_enumeration(amb, k)), k


def test_enumeration_keeps_its_errors():
    amb = full_space(field_new(3), 3)
    for k in (-1, 4):
        with pytest.raises(ValueError, match="need 0 <= k <= dim"):
            next(enumerate_k_subspaces(amb, k))


@pytest.mark.parametrize("q, n, k", [(256, 7, 3), (16, 9, 4)])
def test_enumeration_is_lazy_on_huge_patterns(q, n, k):
    # the first pivot pattern holds 2^96 (resp. 2^80) subspaces, so only a
    # slab-wise enumerator returns its first elements
    amb = full_space(field_from_order(q), n)
    assert list(islice(enumerate_k_subspaces(amb, k), 5)) == list(islice(_literal_enumeration(amb, k), 5))


def test_enumeration_across_slabs(monkeypatch):
    import qgeom.subspace as subspace

    # one free entry per slab at q = 256, so the next 10 (of 11) come from
    # the Python-int counter; then small slabs against whole enumerations
    monkeypatch.setattr(subspace, "_SLAB", 256)
    amb = full_space(field_from_order(256), 7)
    assert list(islice(enumerate_k_subspaces(amb, 3), 600)) == list(islice(_literal_enumeration(amb, 3), 600))
    monkeypatch.setattr(subspace, "_SLAB", 4)
    for amb in (full_space(field_new(3), 4), _AMBIENTS["h-x3=x4"]):
        for k in range(amb.dim + 1):
            assert list(enumerate_k_subspaces(amb, k)) == list(_literal_enumeration(amb, k))
