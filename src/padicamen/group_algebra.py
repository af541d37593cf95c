"""The convolution algebra l(G) over Q_p, its tensor algebras, norms, duals.

Over a non-Archimedean field the completed tensor product of two
sup-normed l-spaces is the l-space of the product set with the sup norm,
so l(G) (x) l(G) = l(G x G) and the enveloping algebra
l(G) (x) l(G)^op = l(G x G^op) are group algebras themselves.  Each of the
three is l(G x H) for the group H whose Cayley table is `second`:
delta_g (x) delta_h = delta_(g,h) has the flat index g*m + h, m = |H|, and
the one product rule is delta_(g,h) * delta_(x,y) = delta_(gx, second[h][y]).
GroupAlgebra.product_index states it on flat indices, and convolve is its
bilinear extension.  l(G) is l(G x 1); its tensor and enveloping algebras
take H = G and H = G^op, the opposite group.

Elements are sparse and exact: a SparseVec, a dict from flat basis index
to a nonzero int numerator, over one positive int denominator shared by
every coefficient.  The pair is kept in lowest terms, so one value has
one representation and equality is structural; products and sums are int
arithmetic.  A rational enters as a shared denominator: the averaging
functional and the closed-form diagonal through the (num, den)
constructor, the mean and e_0 through scale(Fraction(1, n)); from_coeffs
builds an element from a map of rational coefficients, and the coeffs
property reads them back as Fractions for documents and repr.  An element of l(G) is read in three ways, all legitimate in
finite dimension: as an algebra element sum alpha_g delta_g, as a
bounded function on G, and as the functional phi -> sum_g alpha_g phi(g)
on functions.  A mean is an element read the third way, and its value on
the constant function 1 is its augmentation: m(1) = augmentation(m).

The algebras hold no prime: their elements and products are rational and
the same over every Q_p.  The norm is the sup of |alpha|_p over the
coefficients, tracked as an integer exponent by norm_exponent(f, p), the
one function here that reads a prime; the zero element gets the marker
None since its norm is 0 and not any power of p.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import Dict, Iterable, Mapping, Optional, Tuple

from .errors import InternalCheckError
from .finite_group import FiniteGroup
from .valued_field import ScalarLike, int_valuation, require_prime

_TRIVIAL = ((0,),)  # Cayley table of the trivial group

SparseVec = Dict[int, int]


def _text(c: Fraction) -> str:
    return f"{c.numerator}/{c.denominator}"


class GroupAlgebra:
    """l(G) over Q_p, as l(G x 1).

    first and second are the Cayley tables of the two factors, dim the
    number of basis vectors and unit the flat index of the identity.  The
    tensor algebras are built once per object, so elements of one algebra
    pass the operand check by identity.
    """

    def __init__(self, group: FiniteGroup):
        self.group = group
        self.base = self
        self.first, self.second = group.table, _TRIVIAL
        self.dim = group.order
        self.unit = group.identity

    @functools.cached_property
    def tensor(self) -> "TensorAlgebra":
        """l(G) (x) l(G) = l(G x G)."""
        return TensorAlgebra(self, self.group.table)

    @functools.cached_property
    def enveloping(self) -> "TensorAlgebra":
        """l(G) (x) l(G)^op = l(G x G^op): the second leg multiplies in
        the opposite order."""
        return TensorAlgebra(self, self.group.opposite_table)

    def compatible(self, other: "GroupAlgebra") -> bool:
        if self is other:
            return True
        return (type(self) is type(other)
                and self.second == other.second
                and self.group.table == other.group.table
                and self.group.labels == other.group.labels)

    def product_index(self, i: int, j: int) -> int:
        """The flat index of e_i * e_j: the product rule
        delta_(g,s) * delta_(x,y) = delta_(first[g][x], second[s][y])."""
        m = len(self.second)
        g, s = divmod(i, m)
        x, y = divmod(j, m)
        return self.first[g][x] * m + self.second[s][y]

    def delta(self, k: int) -> "AlgebraElement":
        return AlgebraElement(self, {k: 1})

    def one(self) -> "AlgebraElement":
        """The multiplicative identity delta_e."""
        return self.delta(self.unit)

    def ones(self) -> "AlgebraElement":
        """The all-ones vector, i.e. the constant function 1."""
        return AlgebraElement(self, dict.fromkeys(range(self.dim), 1))

    def label(self, k: int) -> str:
        return self.group.labels[k]

    def doc(self, coeffs: Mapping[int, Fraction]) -> Dict:
        labels = self.group.labels
        return {labels[k]: _text(c) for k, c in coeffs.items()}

    def __repr__(self):
        return f"GroupAlgebra({self.group.name})"


class TensorAlgebra(GroupAlgebra):
    """l(G) (x) l(G) or l(G) (x) l(G)^op over the base l(G), as l(G x H)
    for H = G or G^op given by its Cayley table.  Its own tensor and
    enveloping attributes are those of the base."""

    def __init__(self, base: GroupAlgebra, second):
        self.group, self.base = base.group, base
        self.first, self.second = base.first, second
        n = base.dim
        self.dim = n * n
        self.unit = base.unit * n + base.unit

    tensor = property(lambda self: self.base.tensor)
    enveloping = property(lambda self: self.base.enveloping)

    def label(self, k: int) -> str:
        g, h = divmod(k, self.base.dim)
        return "%s(x)%s" % (self.group.labels[g], self.group.labels[h])

    def doc(self, coeffs: Mapping[int, Fraction]) -> Dict:
        """{label of g: {label of h: coefficient of delta_g (x) delta_h}}."""
        labels = self.group.labels
        out: Dict[str, Dict[str, str]] = {}
        for k, c in coeffs.items():
            g, h = divmod(k, self.base.dim)
            out.setdefault(labels[g], {})[labels[h]] = _text(c)
        return out

    def __repr__(self):
        kind = "tensor" if self.second is self.group.table else "enveloping"
        return f"TensorAlgebra({self.group.name}, {kind})"


class AlgebraElement:
    """Element of l(G) or of one of its tensor algebras.

    The coefficient of e_k is num[k] / den: num maps a flat basis index to
    a nonzero int and den is a positive int.  The constructor brings the
    pair to lowest terms (den > 0, gcd(den, *num) = 1, den = 1 for zero),
    so equal elements have equal pairs.  It trusts its callers to pass
    ints; a rational coefficient enters through den, through scale by a
    Fraction, or through from_coeffs.  Nothing is mutated once the
    element is built.
    """

    __slots__ = ("algebra", "num", "den")

    def __init__(self, algebra: GroupAlgebra, num: SparseVec, den: int = 1):
        if den != 1:
            if den < 0:
                num, den = {k: -v for k, v in num.items()}, -den
            g = math.gcd(den, *num.values())
            if g != 1:
                num, den = {k: v // g for k, v in num.items()}, den // g
        self.algebra = algebra
        self.num = num
        self.den = den

    @classmethod
    def from_coeffs(cls, algebra: GroupAlgebra,
                    coeffs: Mapping[int, ScalarLike]) -> "AlgebraElement":
        """The element with the given rational coefficients, zeros
        dropped."""
        fracs = {k: Fraction(c) for k, c in coeffs.items()}
        den = math.lcm(*(c.denominator for c in fracs.values()))
        return cls(algebra, {k: c.numerator * (den // c.denominator)
                             for k, c in fracs.items() if c}, den)

    @property
    def coeffs(self) -> Dict[int, Fraction]:
        """The coefficients as Fractions, for documents and repr."""
        return {k: Fraction(v, self.den) for k, v in self.num.items()}

    def is_zero(self) -> bool:
        return not self.num

    def _require_same(self, other):
        if not isinstance(other, AlgebraElement) or \
                not self.algebra.compatible(other.algebra):
            raise ValueError(
                "operands live in different algebras or types: %r vs %r"
                % (self, other)
            )

    def __eq__(self, other):
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        return self.algebra.compatible(other.algebra) and \
            self.den == other.den and self.num == other.num

    def scale(self, c: ScalarLike) -> "AlgebraElement":
        """c times the element; an int c stays in int arithmetic."""
        if isinstance(c, int):
            top, bottom = c, 1
        else:
            c = Fraction(c)
            top, bottom = c.numerator, c.denominator
        if not top:
            return AlgebraElement(self.algebra, {})
        return AlgebraElement(self.algebra,
                              {k: top * v for k, v in self.num.items()},
                              self.den * bottom)

    def to_doc(self) -> Dict:
        return self.algebra.doc(self.coeffs)

    def __repr__(self):
        body = ", ".join(
            f"{self.algebra.label(k)}: {c}"
            for k, c in sorted(self.coeffs.items())) or "0"
        return f"AlgebraElement({body})"

    def __add__(self, other) -> "AlgebraElement":
        self._require_same(other)
        a, b = self.den, other.den
        if a == b:
            out, factor = dict(self.num), 1
        else:
            # over the common denominator a*b
            out, factor = {k: v * b for k, v in self.num.items()}, a
        for k, v in other.num.items():
            nv = out.get(k, 0) + v * factor
            if nv:
                out[k] = nv
            else:
                del out[k]
        return AlgebraElement(self.algebra, out, a if a == b else a * b)

    def __sub__(self, other) -> "AlgebraElement":
        return self + -other

    def __neg__(self) -> "AlgebraElement":
        return AlgebraElement(
            self.algebra, {k: -v for k, v in self.num.items()}, self.den)

    def __mul__(self, other) -> "AlgebraElement":
        return convolve(self, other)


def convolve(f: AlgebraElement, h: AlgebraElement) -> AlgebraElement:
    """The product of l(G x H), exactly: the bilinear extension of
    product_index, on the int numerators over the product of the two
    denominators."""
    f._require_same(h)
    index = f.algebra.product_index
    right = h.num.items()
    out: SparseVec = {}
    for i, a in f.num.items():
        for j, b in right:
            k = index(i, j)
            if k in out:
                out[k] += a * b
            else:
                out[k] = a * b
    return AlgebraElement(f.algebra, {k: v for k, v in out.items() if v},
                          f.den * h.den)


def norm_exponent(f, p: int) -> Optional[int]:
    """e with ||f||_p = p**e, or None for the zero element (norm 0): the
    sup of |num/den|_p is p**(v_p(den) - min v_p(num))."""
    require_prime(p)
    if not f.num:
        return None
    return int_valuation(f.den, p) - min(
        int_valuation(v, p) for v in f.num.values())


def format_norm_exponent(e: Optional[int]):
    """JSON form of a norm exponent: the integer, or "-inf" for norm 0."""
    return "-inf" if e is None else e


def augmentation(f: AlgebraElement) -> ScalarLike:
    """epsilon(f) = sum_g f(g), exactly: an int when the denominator is 1,
    as it is on every basis element, and a Fraction otherwise."""
    total = sum(f.num.values())
    return total if f.den == 1 else Fraction(total, f.den)


def i0_identity(algebra: GroupAlgebra) -> AlgebraElement:
    """The exact identity element of I_0: e_0 = delta_e - |G|^{-1} * ones.

    Verified before returning; failure here is an implementation bug,
    never a data condition.  epsilon(e_0) = 0 puts e_0 in I_0.  For s in
    S = group.generators, (delta_s - delta_e).e_0 = delta_s - delta_e
    says delta_s.X = X for X = delta_e - e_0, so X is left invariant
    under every g, a word in S: X = c.1, and e_0.f = f - c.epsilon(f).1 =
    f = f.e_0 for f in I_0.  The |S| checks hold for every c, so only the
    first pins c = 1/|G|.  The norm exponent of e_0 is v_p(|G|), the
    quantity that separates the two amenability notions.
    """
    n = algebra.group.order
    e0 = algebra.one() - algebra.ones().scale(Fraction(1, n))
    if augmentation(e0) != 0:
        raise InternalCheckError("candidate I_0 identity has nonzero augmentation")
    for s in algebra.group.generators:
        f = algebra.delta(s) - algebra.one()
        if convolve(f, e0) != f:
            raise InternalCheckError(
                "I_0 identity fails on basis element %r" % (f,))
    return e0


def basis_classes(size: int,
                  pairs: Iterable[Tuple[int, int]]) -> Tuple[int, ...]:
    """The quotient of Q^size by span{e_i - e_j : (i, j) in pairs}.

    Its basis is the classes of the equivalence the pairs generate: the
    dimension is the number of classes and e_k projects to its class,
    exactly over any field.  Entry k of the result is the smallest index
    in the class of k.
    """
    # path halving, the smaller root winning each union: parent[k] <= k
    # throughout, so each root is its class minimum, and one ascending
    # pass sends k to its root, as it has sent parent[k] to its own
    parent = list(range(size))
    for i, j in pairs:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        while parent[j] != j:
            parent[j] = parent[parent[j]]
            j = parent[j]
        lo, hi = (i, j) if i < j else (j, i)
        parent[hi] = lo
    for k in range(size):
        parent[k] = parent[parent[k]]
    return tuple(parent)
