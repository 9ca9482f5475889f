import random

import pytest

from qgeom import (
    Matrix,
    SemilinearMap,
    Subspace,
    coordinate_hyperplane,
    field_from_order,
    field_new,
)
from qgeom.gf import Q_MAX, _prime_power
from qgeom.linalg import _dot
from qgeom.subspace import normalize_point

PRIME_POWERS_16 = [2, 3, 4, 5, 7, 8, 9, 11, 13, 16]


def axiom_suite(field):
    els = list(field.elements())
    q = field.q
    assert len(els) == q
    assert els[0] == 0 and 1 in els

    for a in els:
        assert field.add(a, 0) == a
        assert field.mul(a, 1) == a
        assert field.add(a, field.neg(a)) == 0
        if a != 0:
            assert field.mul(a, field.inv(a)) == 1

    for a in els:
        for b in els:
            assert field.add(a, b) == field.add(b, a)
            assert field.mul(a, b) == field.mul(b, a)

    for a in els:
        for b in els:
            for c in els:
                assert field.add(field.add(a, b), c) == field.add(a, field.add(b, c))
                assert field.mul(field.mul(a, b), c) == field.mul(a, field.mul(b, c))
                assert field.mul(a, field.add(b, c)) == field.add(
                    field.mul(a, b), field.mul(a, c)
                )


@pytest.mark.parametrize("q", PRIME_POWERS_16)
def test_field_axioms_exhaustive(q):
    axiom_suite(field_from_order(q))


def test_prime_field_is_mod_arithmetic():
    f = field_new(7)
    for a in range(7):
        for b in range(7):
            assert f.add(a, b) == (a + b) % 7
            assert f.mul(a, b) == (a * b) % 7


def test_gf4_structure():
    f = field_new(2, 2)
    assert f.q == 4
    # modulus x^2 + x + 1, stored little-endian
    assert f.modulus == (1, 1, 1)
    # elements 2 and 3 encode x and x+1; x * (x+1) = x^2 + x = 1
    assert f.mul(2, 3) == 1
    assert f.mul(2, 2) == 3
    assert f.add(2, 3) == 1


def test_gf8_and_gf9():
    f8 = field_new(2, 3)
    assert f8.frobenius(5, 3) == 5
    f9 = field_new(3, 2)
    for a in f9.elements():
        assert f9.frobenius(a, 2) == a
        assert f9.frobenius(a) == f9.mul(f9.mul(a, a), a)


def test_frobenius_is_additive_and_multiplicative():
    f = field_new(2, 4)
    rng = random.Random(11)
    for _ in range(200):
        a = rng.randrange(16)
        b = rng.randrange(16)
        assert f.frobenius(f.add(a, b)) == f.add(f.frobenius(a), f.frobenius(b))
        assert f.frobenius(f.mul(a, b)) == f.mul(f.frobenius(a), f.frobenius(b))


def test_pow_matches_repeated_multiplication():
    f = field_new(3, 2)
    for a in f.elements():
        acc = 1
        for n in range(1, 10):
            acc = f.mul(acc, a)
            assert f.pow(a, n) == acc
    assert f.pow(0, 0) == 1
    with pytest.raises(ZeroDivisionError):
        f.pow(0, -1)


def test_field_from_order_rejects_non_prime_powers():
    for q in (1, 6, 10, 12, 0, -4):
        with pytest.raises(ValueError):
            field_from_order(q)


def test_prime_power_factors_past_the_field_bound():
    # integers only: no field tables, so no Q_MAX limit
    cases = {2: (2, 1), 4: (2, 2), 9: (3, 2), 256: (2, 8), 257: (257, 1), 1024: (2, 10), 3**13: (3, 13), 1009**2: (1009, 2)}
    assert {q: _prime_power(q) for q in cases} == cases
    for q in (1, 0, -4, 6, 12, 2**10 * 3, 1009 * 1013):
        with pytest.raises(ValueError, match=f"q={q} is not a prime power"):
            _prime_power(q)


def test_field_new_is_cached():
    assert field_new(2, 2) is field_new(2, 2)
    assert field_from_order(4) is field_new(2, 2)


def test_element_range_checked():
    f = field_new(5)
    with pytest.raises(ValueError):
        f.add(5, 0)
    with pytest.raises(ValueError):
        f.mul(-1, 2)
    with pytest.raises(ZeroDivisionError):
        f.inv(0)


def test_field_order_bound():
    assert Q_MAX == 256
    f = field_new(2, 8)
    assert f.q == Q_MAX
    for a in range(1, 256):
        assert f.mul(a, f.inv(a)) == 1
        assert f.add(a, 255) == a ^ 255
    with pytest.raises(ValueError, match="exceeds"):
        field_new(2, 9)


@pytest.mark.parametrize("q", PRIME_POWERS_16)
def test_row_kernel_matches_scalar_fold(q):
    f = field_from_order(q)
    rng = random.Random(q)
    for _ in range(50):
        n = rng.randrange(1, 7)
        start = tuple(rng.randrange(q) for _ in range(n))
        rows = [tuple(rng.randrange(q) for _ in range(n)) for _ in range(rng.randrange(4))]
        coeffs = [rng.randrange(q) for _ in rows]
        want = list(start)
        for c, row in zip(coeffs, rows):
            want = [f.add(x, f.mul(c, y)) for x, y in zip(want, row)]
        assert f._lincomb(start, coeffs, rows) == tuple(want)
        other = tuple(rng.randrange(q) for _ in range(n))
        dot = 0
        for x, y in zip(start, other):
            dot = f.add(dot, f.mul(x, y))
        assert _dot(f, start, other) == dot


def _entry_points():
    """Every place a raw element enters, as a call on one element x of GF(4)."""
    f = field_new(2, 2)
    h = coordinate_hyperplane(f, 3)
    m = Matrix.identity(f, 3)
    phi = SemilinearMap.identity(f, 3)
    return f, {
        "Field.check": lambda x: f.check(x),
        "Field.add": lambda x: f.add(1, x),
        "Field.neg": lambda x: f.neg(x),
        "Field.sub": lambda x: f.sub(x, 1),
        "Field.mul": lambda x: f.mul(2, x),
        "Field.inv": lambda x: f.inv(x),
        "Field.div": lambda x: f.div(1, x),
        "Field.pow": lambda x: f.pow(x, 2),
        "Field.frobenius": lambda x: f.frobenius(x),
        "Matrix": lambda x: Matrix(f, [[1, x], [0, 1]]),
        "Matrix.apply": lambda x: m.apply((1, x, 0)),
        "Matrix.apply_col": lambda x: m.apply_col((0, 1, x)),
        "Subspace": lambda x: Subspace(f, 3, ((1, 0, x),)),
        "Subspace.contains_vector": lambda x: h.contains_vector((x, 0, 0)),
        "Subspace.reduce_vector": lambda x: h.reduce_vector((x, 0, 0)),
        "normalize_point": lambda x: normalize_point(f, (0, 2, x)),
        "SemilinearMap.apply_vector": lambda x: phi.apply_vector((1, x, 0)),
    }


@pytest.mark.parametrize("name", sorted(_entry_points()[1]))
def test_entry_points_reject_non_elements(name):
    f, calls = _entry_points()
    call = calls[name]
    call(1)  # a valid element passes
    for bad in (-1, f.q):
        with pytest.raises(ValueError, match="is not an element of GF"):
            call(bad)
