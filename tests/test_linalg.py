import random

import pytest

from qgeom import Matrix, field_new


def random_matrix(field, rows, cols, rng):
    return Matrix(field, [tuple(rng.randrange(field.q) for _ in range(cols)) for _ in range(rows)])


def test_rref_is_idempotent_and_canonical():
    rng = random.Random(3)
    for field in (field_new(2), field_new(3), field_new(2, 2), field_new(3, 2)):
        for _ in range(40):
            m = random_matrix(field, rng.randrange(1, 6), rng.randrange(1, 6), rng)
            r, rank, pivots = m.rref()
            r2, rank2, pivots2 = Matrix(field, r.entries).rref()
            assert r.entries == r2.entries
            assert rank == rank2 == len(pivots)
            # pivot columns are unit vectors
            for i, c in enumerate(pivots):
                col = [row[c] for row in r.entries]
                assert col[i] == 1
                assert all(x == 0 for j, x in enumerate(col) if j != i)


def test_row_space_invariant_under_row_shuffle():
    rng = random.Random(7)
    f = field_new(3)
    for _ in range(30):
        rows = [tuple(rng.randrange(3) for _ in range(4)) for _ in range(4)]
        r1 = Matrix(f, rows).rref()[0].entries
        shuffled = rows[:]
        rng.shuffle(shuffled)
        r2 = Matrix(f, shuffled).rref()[0].entries
        assert r1 == r2


def test_rank_nullity():
    rng = random.Random(5)
    for field in (field_new(2), field_new(5), field_new(3, 2)):
        for _ in range(30):
            cols = rng.randrange(1, 7)
            m = random_matrix(field, rng.randrange(1, 7), cols, rng)
            k = m.kernel_basis()
            assert m.rank() + k.rows == cols
            for v in k.entries:
                assert all(x == 0 for x in m.apply_col(v))


def test_gf2_and_generic_rank_paths_agree():
    rng = random.Random(9)
    f = field_new(2)
    for _ in range(50):
        m = random_matrix(f, rng.randrange(1, 10), rng.randrange(1, 10), rng)
        assert m.rank() == m.rref()[1]


def test_matmul_and_apply():
    f = field_new(3)
    a = Matrix(f, [(1, 2), (0, 1)])
    b = Matrix(f, [(2, 0), (1, 1)])
    assert a.matmul(b).entries == ((1, 2), (1, 1))
    assert a.apply((1, 1)) == (1, 0)  # row vector times matrix
    assert a.apply_col((1, 1)) == (0, 1)  # matrix times column


def test_inverse():
    rng = random.Random(13)
    f = field_new(5)
    eye = Matrix.identity(f, 3).entries
    found = 0
    while found < 20:
        m = random_matrix(f, 3, 3, rng)
        if m.rank() < 3:
            continue
        found += 1
        inv = m.inverse()
        assert m.matmul(inv).entries == eye
        assert inv.matmul(m).entries == eye
    with pytest.raises(ValueError):
        Matrix(f, [(1, 2), (2, 4)]).inverse()


def test_kernel_of_known_map():
    f = field_new(2)
    m = Matrix(f, [(1, 1, 0), (0, 0, 1)])
    k = m.kernel_basis()
    assert (k.rows, k.cols) == (1, 3)
    assert k.entries == ((1, 1, 0),)


def test_fano_incidence_rank_mod_2():
    # lines of the 7-point projective plane
    lines = [
        (0, 1, 2),
        (0, 3, 4),
        (0, 5, 6),
        (1, 3, 5),
        (1, 4, 6),
        (2, 3, 6),
        (2, 4, 5),
    ]
    f = field_new(2)
    rows = [tuple(1 if p in line else 0 for p in range(7)) for line in lines]
    assert Matrix(f, rows).rank() == 4
    f3 = field_new(3)
    assert Matrix(f3, rows).rank() == 6


def test_shape_validation():
    f = field_new(2)
    with pytest.raises(ValueError):
        Matrix(f, [(1, 0), (1,)])
    with pytest.raises(ValueError):
        Matrix(f, [(2, 0)])
