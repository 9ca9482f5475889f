import random

import numpy as np
import pytest

from qgeom import Matrix, field_new
from qgeom import linalg


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
        a = np.array(m.entries)
        assert m.rank() == len(linalg._rref_mod_p([a], a.shape, 2)[1])


def _array_cases(rng, p):
    """Seeded (name, matrix) pairs over GF(p): each rank regime and shape."""

    def of_rank(m, n, r):  # rank at most r: an (m x r)(r x n) product
        return rng.integers(0, p, (m, r)) @ rng.integers(0, p, (r, n)) % p

    def invertible(n):  # unit lower times unit upper triangular, columns shuffled
        lower = np.tril(rng.integers(0, p, (n, n)), -1) + np.eye(n, dtype=np.int64)
        upper = np.triu(rng.integers(0, p, (n, n)), 1) + np.eye(n, dtype=np.int64)
        return (lower @ upper % p)[:, rng.permutation(n)]

    with_zero_rows = rng.integers(0, p, (12, 7))
    with_zero_rows[[0, 4, 5, 11]] = 0
    return [
        ("full rank", invertible(9)),
        ("rank deficient", of_rank(10, 8, 3)),
        ("rank one", of_rank(6, 6, 1)),
        ("all zero", np.zeros((5, 6), dtype=np.int64)),
        ("zero rows", with_zero_rows),
        ("wide", rng.integers(0, p, (3, 40))),
        ("wide deficient", of_rank(6, 30, 4)),
        ("tall", rng.integers(0, p, (40, 3))),
        ("tall deficient", of_rank(50, 9, 5)),
    ]


def _assert_table_rref(field, a, basis, pivots, name):
    """basis and pivots are the nonzero rows and pivot columns of Matrix.rref."""
    r, rank, expected = Matrix(field, a.tolist()).rref()
    assert pivots == expected, name
    assert basis.dtype == np.uint8 and basis.shape == (rank, a.shape[1]), name
    assert basis.tolist() == [list(row) for row in r.entries[:rank]], name


@pytest.mark.parametrize("p", [2, 3, 5, 7])
@pytest.mark.parametrize("chunk", [1, 3, "height"])
def test_array_rref_matches_the_table_rref(p, chunk):
    rng = np.random.default_rng(100 * p + (0 if chunk == "height" else chunk))
    field = field_new(p)
    for _ in range(4):
        for name, a in _array_cases(rng, p):
            size = len(a) if chunk == "height" else chunk
            chunks = [a[i : i + size].astype(np.uint8) for i in range(0, len(a), size)]
            basis, pivots = linalg._rref_mod_p(chunks, a.shape, p)
            assert len(pivots) == 9 or name != "full rank"
            _assert_table_rref(field, a, basis, pivots, name)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_array_rref_of_shuffled_rows_in_random_chunks(p):
    # the row space, and so its RREF, does not depend on the order or the grouping of the rows
    rng = np.random.default_rng(1000 + p)
    field = field_new(p)
    for _ in range(4):
        for name, a in _array_cases(rng, p):
            rows = a[rng.permutation(len(a))].astype(np.uint8)
            cuts = np.sort(rng.choice(np.arange(1, len(a)), rng.integers(0, len(a)), replace=False))
            basis, pivots = linalg._rref_mod_p(np.split(rows, cuts), a.shape, p)
            _assert_table_rref(field, a, basis, pivots, name)


def test_matmul_and_apply():
    f = field_new(3)
    a = Matrix(f, [(1, 2), (0, 1)])
    b = Matrix(f, [(2, 0), (1, 1)])
    assert a.matmul(b).entries == ((1, 2), (1, 1))
    assert a.apply((1, 1)) == (1, 0)  # row vector times matrix
    assert a.apply_col((1, 1)) == (0, 1)  # matrix times column


def _shaped(field, rows, cols, rng):
    """A random rows x cols matrix; a Matrix of no rows has no columns."""
    return Matrix(field, [[rng.randrange(field.q) for _ in range(cols)] for _ in range(rows)])


@pytest.mark.parametrize("p, f", [(2, 1), (3, 1), (2, 2), (2, 3), (3, 2)], ids=["GF2", "GF3", "GF4", "GF8", "GF9"])
def test_products_match_a_per_entry_dot_oracle(p, f):
    # every entry of a product is one `_dot` of a row and a column, over
    # shapes with no rows, no columns and no inner dimension too
    F = field_new(p, f)
    rng = random.Random(100 * p + f)
    shapes = [(0, 0, 0), (2, 0, 0), (3, 2, 0), (1, 1, 1), (1, 4, 1), (4, 1, 3)]
    shapes += [tuple(rng.randrange(1, 6) for _ in range(3)) for _ in range(25)]
    for m, k, n in shapes:
        a = _shaped(F, m, k, rng)
        b = _shaped(F, k, n if k else 0, rng)
        cols = list(zip(*b.entries))
        product_ = a.matmul(b)
        assert product_ == Matrix(F, [[linalg._dot(F, row, col) for col in cols] for row in a.entries])
        assert (product_.rows, product_.cols) == (a.rows, b.cols)
        x = tuple(rng.randrange(F.q) for _ in range(a.rows))
        y = tuple(rng.randrange(F.q) for _ in range(a.cols))
        assert a.apply(x) == tuple(linalg._dot(F, x, col) for col in zip(*a.entries)) and len(a.apply(x)) == a.cols
        assert a.apply_col(y) == tuple(linalg._dot(F, row, y) for row in a.entries) and len(a.apply_col(y)) == a.rows
        assert all(type(v) is int for v in a.apply(x) + a.apply_col(y))


@pytest.mark.parametrize("entry, message", [(3, "3 is not an element of GF(3)"), (True, "vector entry 0 is not an integer: True"), (1.5, "vector entry 0 is not an integer: 1.5")])
def test_a_callers_entries_are_still_checked(entry, message):
    F = field_new(3)
    with pytest.raises(ValueError) as err:
        Matrix(F, [[entry]])
    assert str(err.value) == message
    with pytest.raises(ValueError) as err:
        Matrix.identity(F, 1).apply_col((entry,))
    assert str(err.value) == message


def test_only_linalg_and_polarity_make_unchecked_matrices():
    # `Matrix._computed` skips the entry check: only the results that the
    # field's tables computed in linalg and polarity are made by it
    import ast
    from pathlib import Path

    import qgeom

    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(Path(qgeom.__file__).parent.glob("*.py")) if path.stem not in ("linalg", "polarity")
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute) and node.attr == "_computed"
    ]
    assert found == []


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


@pytest.mark.parametrize("bad", [0.5, 1.0, True, np.bool_(True), "1", None], ids=repr)
def test_field_entries_that_are_not_integers_are_refused(bad):
    from qgeom import SemilinearMap, coordinate_hyperplane, polarity_new, span
    from qgeom.subspace import Subspace, normalize_point

    F = field_new(3)
    eye = [[int(i == j) for j in range(4)] for i in range(4)]
    makers = [
        lambda: Matrix(F, [[bad, 0], [0, 1]]),
        lambda: Matrix(F, [[1, 0], [0, 1]]).apply_col((bad, 1)),
        lambda: Subspace(F, 2, ((1, bad),)),
        lambda: span(F, 2, [(1, bad)]),
        lambda: normalize_point(F, (1, bad)),
        lambda: SemilinearMap(Matrix(F, [[1, 0, 0], [0, 1, 0], [0, 0, bad]]), 0),
        lambda: polarity_new(F, coordinate_hyperplane(F, 5), Matrix(F, [*eye[:3], [0, 0, 0, bad]])),
    ]
    for make in makers:
        with pytest.raises(ValueError, match=r"vector entry \d is not an integer: "):
            make()


def test_numpy_integer_field_entries_are_ints():
    from qgeom.subspace import Subspace, normalize_point

    F = field_new(3)
    m = Matrix(F, [[np.int64(1), np.uint8(0)], [0, np.int32(1)]])
    assert m == Matrix.identity(F, 2) and all(type(x) is int for row in m.entries for x in row)
    assert normalize_point(F, (np.int64(2), 1)).rep == (1, 2)
    w = Subspace(F, 2, ((np.int64(1), np.int64(2)),))
    assert w.basis_rows == ((1, 2),) and type(w.basis_rows[0][0]) is int
