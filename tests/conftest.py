import pytest

from qgeom import (
    PointPermutation,
    coordinate_hyperplane,
    f_certificate,
    field_new,
    jt_design,
    pg_design,
    polarity_new,
    twisted_grassmann,
)


@pytest.fixture(scope="session")
def f2():
    return field_new(2)


@pytest.fixture(scope="session")
def f3():
    return field_new(3)


@pytest.fixture(scope="session")
def f4():
    return field_new(2, 2)


@pytest.fixture(scope="session")
def setting22(f2):
    h = coordinate_hyperplane(f2, 5)
    return f2, h, polarity_new(f2, h)


@pytest.fixture(scope="session")
def tg22(setting22):
    field, h, s = setting22
    return twisted_grassmann(field, 2, h, s)


@pytest.fixture(scope="session")
def jt22(setting22):
    field, h, s = setting22
    return jt_design(field, 2, h, s)


@pytest.fixture(scope="session")
def pg22(f2):
    return pg_design(f2, 2)


@pytest.fixture(scope="session")
def cert22(setting22, tg22, jt22):
    field, h, s = setting22
    return f_certificate(tg22, jt22, h, s)


@pytest.fixture(scope="session")
def setting32(f3):
    h = coordinate_hyperplane(f3, 5)
    return f3, h, polarity_new(f3, h)


@pytest.fixture(scope="session")
def tg32(setting32):
    field, h, s = setting32
    return twisted_grassmann(field, 2, h, s)


@pytest.fixture(scope="session")
def jt32(setting32):
    field, h, s = setting32
    return jt_design(field, 2, h, s)


@pytest.fixture
def swap_lifted_points(monkeypatch):
    """A function that patches the batched lift to swap the images of
    points 0 and 1, and the literal lift() the same way unless told
    otherwise; it returns the patched literal lift."""
    import qgeom.autgroup as autgroup

    literal, batched = autgroup.lift, autgroup._lift_batch

    def swapped(phi, s):
        perm = list(literal(phi, s).perm)
        perm[0], perm[1] = perm[1], perm[0]
        return PointPermutation(tuple(perm))

    def swapped_batch(s, pi):
        out = batched(s, pi)
        out[:, [0, 1]] = out[:, [1, 0]]
        return out

    def patch(lift_too=True):
        monkeypatch.setattr(autgroup, "_lift_batch", swapped_batch)
        if lift_too:
            monkeypatch.setattr(autgroup, "lift", swapped)
        return swapped

    return patch
