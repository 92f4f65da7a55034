"""Invertible local operators and their elementary decompositions."""

import random

import pytest

from slocc2mn.scalars import GaussianRational, ZERO, ONE
from slocc2mn.matrices import Matrix
from slocc2mn.states import PureState
from slocc2mn.operators import (
    ElementaryFactor,
    OperatorTriple,
    random_ilo,
    random_invertible,
    mapping_vector_to_basis,
    decompose_elementary,
)
from slocc2mn.families import ClassLabel, make_canonical


def test_elementary_factor_matrices():
    swap = ElementaryFactor(party="A", kind="swap", i=0, j=2).to_matrix(3)
    assert swap @ swap == Matrix.identity(3)
    scale = ElementaryFactor(
        party="A", kind="scale", i=1, alpha=GaussianRational(5)
    ).to_matrix(2)
    assert scale[1, 1] == GaussianRational(5) and scale[0, 0] == ONE
    add = ElementaryFactor(
        party="A", kind="add", i=0, j=1, alpha=GaussianRational(3)
    ).to_matrix(2)
    assert add.det() == ONE


def test_operator_triple_compose_inverse_apply():
    dims = (2, 3, 3)
    s = make_canonical(ClassLabel("Psi2"))
    g = random_ilo(dims, 5)
    h = random_ilo(dims, 6)
    gh = OperatorTriple(g.v_a @ h.v_a, g.v_b @ h.v_b, g.v_c @ h.v_c)
    assert gh.apply(s) == g.apply(h.apply(s))
    assert g.inverse().apply(g.apply(s)) == s
    assert OperatorTriple.identity(dims).apply(s) == s


def test_operator_triple_rejects_singular():
    sing = Matrix([[ZERO, ZERO], [ZERO, ZERO]])
    with pytest.raises(ValueError):
        OperatorTriple(sing, Matrix.identity(3), Matrix.identity(3))


def test_random_ilo_deterministic_and_invertible():
    dims = (2, 3, 5)
    g1 = random_ilo(dims, 123)
    g2 = random_ilo(dims, 123)
    g3 = random_ilo(dims, 124)
    assert g1 == g2
    assert g1 != g3
    for m in g1.matrices().values():
        assert not m.det().is_zero()


def _image(g: Matrix, v) -> list:
    """g v, for v a list of scalars."""
    col = g @ Matrix([[x] for x in v])
    return [col[r, 0] for r in range(g.rows)]


def test_mapping_vector_to_basis_on_trailing_zeros():
    # the closed form pivots on v's last nonzero entry, so vectors with zero
    # tails, Gaussian-rational entries and every target are checked
    rng = random.Random(49)
    for _ in range(60):
        dim = rng.randint(1, 6)
        last = rng.randrange(dim)
        v = [GaussianRational(rng.randint(-5, 5), rng.randint(-2, 2)) / rng.randint(1, 4)
             for _ in range(last)]
        v.append(GaussianRational(rng.choice((-3, -1, 2, 5)), rng.randint(-1, 1)) / rng.randint(1, 3))
        v += [ZERO] * (dim - last - 1)
        target = rng.randrange(dim)
        g = mapping_vector_to_basis(v, dim, target)
        assert not g.det().is_zero()
        assert _image(g, v) == [ONE if r == target else ZERO for r in range(dim)]
    with pytest.raises(ValueError):
        mapping_vector_to_basis([ZERO, ZERO], 2)


def test_mapping_vector_to_basis():
    rng = random.Random(50)
    for _ in range(20):
        dim = rng.randint(2, 5)
        v = [GaussianRational(rng.randint(-4, 4)) for _ in range(dim)]
        if all(e.is_zero() for e in v):
            continue
        target = rng.randrange(dim)
        g = mapping_vector_to_basis(v, dim, target)
        image = _image(g, v)
        assert all(
            (image[r] == ONE) == (r == target) or image[r].is_zero()
            for r in range(dim)
        )
        assert [e.is_zero() for e in image] == [r != target for r in range(dim)]


def test_decompose_elementary_reproduces_matrix():
    rng = random.Random(51)
    for dim in (2, 3, 4):
        for _ in range(10):
            m = random_invertible(dim, rng)
            factors = decompose_elementary("B", m)
            product = Matrix.identity(dim)
            for f in factors:
                product = product @ f.to_matrix(dim)
            assert product == m
            assert all(f.party == "B" for f in factors)


def test_decompose_elementary_rejects_singular():
    with pytest.raises(ValueError):
        decompose_elementary("A", Matrix([[ZERO, ZERO], [ZERO, ZERO]]))
    with pytest.raises(ValueError):
        decompose_elementary("A", Matrix([[ONE, ONE, ONE]]))


def test_decomposition_replay_on_state():
    # applying the factors right-to-left reproduces the one-shot local action
    rng = random.Random(52)
    s = make_canonical(ClassLabel("Upsilon0", 2))
    for party, dim in zip("ABC", s.dims):
        m = random_invertible(dim, rng)
        factors = decompose_elementary(party, m)
        replayed = s
        for f in reversed(factors):
            replayed = replayed.apply_local(party, f.to_matrix(dim))
        assert replayed == s.apply_local(party, m)
