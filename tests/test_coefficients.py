"""Int numerators over one denominator against plain Fraction arithmetic.

Every element holds a dict of nonzero int numerators and one positive int
denominator in lowest terms.  The oracle is the Fraction sum and product
of tests/oracles.py; random sparse rational elements of l(G), l(G x G)
and l(G x G^op) over the catalog(8) groups must give the same
coefficients, augmentations, norms and documents, and one value
built two ways must be one representation.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (fraction_add, fraction_convolve, from_coeffs,
                     valuation)
from padicamen.amenability import render_json
from padicamen.finite_group import catalog, symmetric
from padicamen.group_algebra import (AlgebraElement, GroupAlgebra,
                                     augmentation, convolve, norm_exponent)

GROUPS = catalog(8)
PRIMES = (2, 3, 5, 7)
SETTINGS = settings(max_examples=150, deadline=None, derandomize=True,
                    database=None)

RATIONALS = st.fractions(min_value=-60, max_value=60, max_denominator=36)


@st.composite
def algebras(draw):
    """One of l(G), l(G x G), l(G x G^op), and a prime to read norms at."""
    grp = draw(st.sampled_from(GROUPS))
    p = draw(st.sampled_from(PRIMES))
    base = GroupAlgebra(grp)
    return draw(st.sampled_from((base, base.tensor, base.enveloping))), p


def rational_dicts(alg):
    return st.dictionaries(st.integers(0, alg.dim - 1), RATIONALS,
                           max_size=8)


@st.composite
def operands(draw):
    """An algebra, a prime and two rational coefficient dicts on the
    algebra, zeros kept; b sometimes cancels some of a's coefficients."""
    alg, p = draw(algebras())
    a = draw(rational_dicts(alg))
    b = draw(rational_dicts(alg))
    for k, v in a.items():
        if draw(st.booleans()):
            b[k] = -v
    return alg, p, a, b


def nonzero(coeffs):
    return {k: Fraction(v) for k, v in coeffs.items() if v}


def assert_lowest_terms(x):
    assert x.den > 0 and all(type(v) is int and v for v in x.num.values())
    assert math.gcd(x.den, *x.num.values()) == 1


def oracle_doc(alg, coeffs):
    labels, n = alg.group.labels, alg.base.dim

    def text(c):
        return "%d/%d" % (c.numerator, c.denominator)

    if alg is alg.base:
        return {labels[k]: text(c) for k, c in coeffs.items()}
    out = {}
    for k, c in coeffs.items():
        g, h = divmod(k, n)
        out.setdefault(labels[g], {})[labels[h]] = text(c)
    return out


def oracle_norm(coeffs, p):
    return max((-valuation(c, p) for c in coeffs.values()), default=None)


@SETTINGS
@given(operands(), st.integers(-12, 12), RATIONALS)
def test_arithmetic_matches_fraction_oracle(ops, c, q):
    alg, p, a, b = ops
    fa, fb = nonzero(a), nonzero(b)
    x = from_coeffs(alg, a)
    y = from_coeffs(alg, b)
    results = {
        "from_coeffs": (x, fa),
        "+": (x + y, fraction_add(fa, fb)),
        "-": (x - y, fraction_add(fa, {k: -v for k, v in fb.items()})),
        "neg": (-x, {k: -v for k, v in fa.items()}),
        "int scale": (x.scale(c), nonzero({k: c * v for k, v in fa.items()})),
        "scale": (x.scale(q), nonzero({k: q * v for k, v in fa.items()})),
        "convolve": (convolve(x, y), fraction_convolve(alg, fa, fb)),
    }
    for what, (z, expected) in results.items():
        assert_lowest_terms(z)
        assert z.coeffs == expected, what
        assert z == from_coeffs(alg, expected), what
        assert norm_exponent(z, p) == oracle_norm(expected, p), what
        assert augmentation(z) == sum(expected.values()), what
        # exact either way: an int over denominator 1, else a Fraction
        assert type(augmentation(z)) is (int if z.den == 1 else Fraction)
        assert z.to_doc() == oracle_doc(alg, expected), what


@SETTINGS
@given(algebras().flatmap(lambda alg_p: st.tuples(
    st.just(alg_p[0]), rational_dicts(alg_p[0]))),
    st.integers(1, 720), st.sampled_from((1, -1)))
def test_one_value_built_two_ways_is_one_representation(data, factor, sign):
    alg, a = data
    x = from_coeffs(alg, a)
    # the same value with a common factor and a sign in num and den
    f = sign * factor
    y = AlgebraElement(alg, {k: f * v for k, v in x.num.items()}, f * x.den)
    assert y == x and (y.num, y.den) == (x.num, x.den)
    assert render_json(y.to_doc()) == render_json(x.to_doc())
    # the same value as a sum of two halves
    half = x.scale(Fraction(1, 2))
    assert half + half == x and render_json((half + half).to_doc()) == \
        render_json(x.to_doc())


ALG = GroupAlgebra(symmetric(3))


def test_sum_reduces_over_the_common_denominator():
    half = AlgebraElement(ALG, {1: 1}, 2)
    total = half + half
    assert (total.num, total.den) == ({1: 1}, 1) and total == ALG.delta(1)
    # different denominators: 1/2 + 1/3 = 5/6, and 1/2 - 1/2 = 0 over 1
    third = AlgebraElement(ALG, {1: 1}, 3)
    assert ((half + third).num, (half + third).den) == ({1: 5}, 6)
    zero = half - half
    assert (zero.num, zero.den) == ({}, 1) and zero == AlgebraElement(ALG, {})


def test_product_takes_both_denominators():
    x = AlgebraElement(ALG, {1: 1}, 2) * AlgebraElement(ALG, {2: 1}, 3)
    assert (x.num, x.den) == ({ALG.group.table[1][2]: 1}, 6)
    # 2/3 * 3/4 = 1/2 after the gcd
    y = AlgebraElement(ALG, {0: 2}, 3) * AlgebraElement(ALG, {0: 3}, 4)
    assert (y.num, y.den) == ({0: 1}, 2)


def test_negative_denominator_moves_its_sign_to_the_numerators():
    x = AlgebraElement(ALG, {0: 1, 3: -2}, -6)
    assert (x.num, x.den) == ({0: -1, 3: 2}, 6)
    assert x == from_coeffs(ALG, {0: Fraction(-1, 6), 3: Fraction(1, 3)})
    assert x.to_doc() == {ALG.label(0): "-1/6", ALG.label(3): "1/3"}


@pytest.mark.parametrize("c", [0, 1, -1, 4, Fraction(3, 4), Fraction(-2, 3)])
def test_scale_keeps_lowest_terms(c):
    x = AlgebraElement(ALG, {0: 1, 2: 3}, 4)
    y = x.scale(c)
    assert_lowest_terms(y)
    assert y.coeffs == nonzero({k: c * v for k, v in x.coeffs.items()})
