"""Convolution algebra against an independently coded oracle.

The oracle computes (f * h)(g) = sum_t f(t) h(t^{-1} g) pointwise with
explicit inverses; the implementation scatters products over the group
table.  Agreement on random elements checks both index conventions.
"""

import random
from fractions import Fraction

import pytest
from oracles import from_coeffs, relabelled_catalog, valuation

from padicamen.errors import InternalCheckError
from padicamen.finite_group import cyclic, dihedral, quaternion8, symmetric
from padicamen.group_algebra import (AlgebraElement, GroupAlgebra,
                                     augmentation, convolve,
                                     format_norm_exponent, i0_identity,
                                     norm_exponent)


def oracle_convolve(f, h):
    grp = f.algebra.group
    n = grp.order
    out = {}
    for g in range(n):
        total = Fraction(0)
        for t in range(n):
            total += f.coeffs.get(t, 0) * \
                h.coeffs.get(grp.table[grp.inverses[t]][g], 0)
        out[g] = total
    return from_coeffs(f.algebra, out)


def random_element(rng, alg, span=9):
    return from_coeffs(alg, {
        g: Fraction(rng.randint(-span, span), rng.randint(1, 4))
        for g in range(alg.group.order)
    })


GROUPS = [cyclic(5), cyclic(8), dihedral(4), symmetric(3), quaternion8()]


def test_convolution_matches_oracle():
    rng = random.Random(1234)
    for grp in GROUPS:
        alg = GroupAlgebra(grp)
        for _ in range(40):
            f, h = random_element(rng, alg), random_element(rng, alg)
            assert convolve(f, h) == oracle_convolve(f, h)


def test_delta_e_is_identity():
    rng = random.Random(55)
    for grp in GROUPS:
        alg = GroupAlgebra(grp)
        one = alg.one()
        for _ in range(10):
            f = random_element(rng, alg)
            assert convolve(one, f) == f
            assert convolve(f, one) == f


def test_convolution_ring_axioms():
    rng = random.Random(808)
    grp = dihedral(4)
    alg = GroupAlgebra(grp)
    for _ in range(25):
        f = random_element(rng, alg)
        g = random_element(rng, alg)
        h = random_element(rng, alg)
        assert convolve(convolve(f, g), h) == convolve(f, convolve(g, h))
        assert convolve(f, g + h) == convolve(f, g) + convolve(f, h)
        assert convolve(f + g, h) == convolve(f, h) + convolve(g, h)


def test_delta_convolution_follows_table():
    grp = symmetric(3)
    alg = GroupAlgebra(grp)
    for g in range(grp.order):
        for h in range(grp.order):
            assert convolve(alg.delta(g), alg.delta(h)) == \
                alg.delta(grp.table[g][h])


@pytest.mark.parametrize("grp", list(relabelled_catalog(8, 13)),
                         ids=lambda g: "%s@%d" % (g.name, g.identity))
def test_product_index_follows_the_table(grp):
    # each algebra's rule against the product read straight off G's table;
    # the enveloping second leg reads table[y][s], never opposite_table
    alg = GroupAlgebra(grp)
    table, n = grp.table, grp.order
    pairs = [(g, s) for g in range(n) for s in range(n)]
    for i in range(n):
        for j in range(n):
            assert alg.product_index(i, j) == table[i][j]
    for i, (g, s) in enumerate(pairs):
        for j, (x, y) in enumerate(pairs):
            assert alg.tensor.product_index(i, j) == \
                table[g][x] * n + table[s][y]
            assert alg.enveloping.product_index(i, j) == \
                table[g][x] * n + table[y][s]


def test_norm_exponent():
    alg = GroupAlgebra(cyclic(4))
    f = from_coeffs(alg, {0: 2, 2: Fraction(1, 4), 3: 3})
    # |2|_2 = 2^-1, |1/4|_2 = 2^2, |3|_2 = 1: sup norm exponent 2
    assert norm_exponent(f, 2) == 2
    assert norm_exponent(AlgebraElement(alg, {}), 2) is None
    assert norm_exponent(alg.one(), 2) == 0
    assert format_norm_exponent(None) == "-inf"
    assert format_norm_exponent(2) == 2


def test_augmentation_is_multiplicative():
    rng = random.Random(4242)
    alg = GroupAlgebra(symmetric(3))
    for _ in range(50):
        f, h = random_element(rng, alg), random_element(rng, alg)
        assert augmentation(convolve(f, h)) == \
            augmentation(f) * augmentation(h)
    assert augmentation(alg.one()) == 1


def test_i0_basis_and_membership():
    # I_0 has the basis delta_g - delta_e, g != e
    for grp in GROUPS:
        alg = GroupAlgebra(grp)
        one = alg.delta(grp.identity)
        basis = [alg.delta(g) - one for g in grp.elements()
                 if g != grp.identity]
        assert len(basis) == grp.order - 1
        for b in basis:
            assert augmentation(b) == 0
        assert augmentation(alg.one()) != 0
        assert augmentation(AlgebraElement(alg, {})) == 0


def test_i0_identity_values():
    alg = GroupAlgebra(cyclic(4))
    e0 = i0_identity(alg)
    assert e0.coeffs == {0: Fraction(3, 4), 1: Fraction(-1, 4),
                         2: Fraction(-1, 4), 3: Fraction(-1, 4)}
    assert norm_exponent(e0, 2) == 2  # v_2(4)
    # identity on all of I_0, not just the basis
    rng = random.Random(17)
    for _ in range(20):
        f = from_coeffs(alg, {g: rng.randint(-5, 5) for g in range(4)})
        f = f - alg.ones().scale(Fraction(augmentation(f), 4))
        assert augmentation(f) == 0
        assert convolve(f, e0) == f
        assert convolve(e0, f) == f


def test_i0_identity_norm_is_group_order_valuation():
    for grp in GROUPS:
        e0 = i0_identity(GroupAlgebra(grp))
        for p in (2, 3, 5):
            assert norm_exponent(e0, p) == valuation(grp.order, p)


def test_i0_identity_rejects_a_wrong_constant(monkeypatch):
    # delta_e - (2/n).1 is a right identity on I_0 too, since f.1 =
    # epsilon(f).1 = 0 there: only the augmentation tells it from e_0
    ones = GroupAlgebra.ones
    monkeypatch.setattr(GroupAlgebra, "ones", lambda self: ones(self).scale(2))
    alg = GroupAlgebra(symmetric(3))
    wrong = alg.one() - alg.ones().scale(Fraction(1, 6))
    e = alg.group.identity
    i0 = [alg.delta(g) - alg.one() for g in alg.group.elements() if g != e]
    assert all(convolve(f, wrong) == f for f in i0)
    with pytest.raises(InternalCheckError, match="nonzero augmentation"):
        i0_identity(alg)


def test_i0_identity_trivial_group():
    alg = GroupAlgebra(cyclic(1))
    e0 = i0_identity(alg)
    assert e0.is_zero()
    assert norm_exponent(e0, 3) is None


def test_coefficients_are_sparse():
    alg = GroupAlgebra(cyclic(4))
    f = from_coeffs(alg, {1: 2, 3: -1})
    assert f.coeffs == {1: 2, 3: -1}
    assert (f - f).coeffs == {} and f.scale(0).coeffs == {}
    assert (f + alg.delta(3)).coeffs == {1: 2}
    assert convolve(alg.delta(2), f).coeffs == {3: 2, 1: -1}
    assert alg.one().coeffs == {0: 1}
    m = from_coeffs(alg, {2: Fraction(1, 2)})
    assert m.coeffs == {2: Fraction(1, 2)}


def test_doc_round_trip():
    alg = GroupAlgebra(symmetric(3))
    f = from_coeffs(alg, {0: Fraction(1, 2), 2: -3, 4: Fraction(7, 5)})
    doc = f.to_doc()
    assert set(doc) == {"012", "102", "201"}  # zeros skipped
    index = {lab: i for i, lab in enumerate(alg.group.labels)}
    coeffs = {index[lab]: Fraction(text) for lab, text in doc.items()}
    assert from_coeffs(alg, coeffs) == f


def test_functional_pairing():
    alg = GroupAlgebra(cyclic(3))
    # a mean is an element read as a functional, and m(1) is its
    # augmentation
    m = AlgebraElement(alg, dict.fromkeys(range(3), 1), 3)
    assert augmentation(m) == 1


def test_incompatible_algebras_rejected():
    f = GroupAlgebra(cyclic(4)).one()
    h = GroupAlgebra(cyclic(5)).one()
    with pytest.raises(ValueError):
        convolve(f, h)
    with pytest.raises(ValueError):
        f + h
