"""The convolution algebra l(G) over Q_p, with its sup norm and duals.

Elements are dense coefficient vectors over the group.  The same vector
type is read in three ways, all legitimate in finite dimension: as an
algebra element sum alpha_g delta_g, as a bounded function on G, and (via
the explicit pairing) as a functional on functions.  DualFunctional is a
separate type reserved for means, i.e. functionals on the function space.

The norm is max_g |alpha_g|_p, tracked as an integer exponent; the zero
element gets the marker None since its norm is 0 and not any power of p.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Optional, Sequence

from .errors import InternalCheckError
from .finite_group import FiniteGroup
from .valued_field import FieldDescriptor, valuation

_ZERO = Fraction(0)
_ONE = Fraction(1)


class GroupAlgebra:
    """Context object tying a finite group to a prime."""

    def __init__(self, group: FiniteGroup, prime: int):
        self.group = group
        self.field = FieldDescriptor(prime)

    @property
    def prime(self) -> int:
        return self.field.prime

    def compatible(self, other: "GroupAlgebra") -> bool:
        if self is other:
            return True
        return (self.prime == other.prime
                and self.group.table == other.group.table
                and self.group.labels == other.group.labels)

    def element(self, coeffs: Sequence) -> "AlgebraElement":
        coeffs = tuple(Fraction(c) for c in coeffs)
        if len(coeffs) != self.group.order:
            raise ValueError(
                "coefficient vector of length %d for group of order %d"
                % (len(coeffs), self.group.order)
            )
        return AlgebraElement(self, coeffs)

    def zero(self) -> "AlgebraElement":
        return AlgebraElement(self, (_ZERO,) * self.group.order)

    def delta(self, g: int) -> "AlgebraElement":
        coeffs = [_ZERO] * self.group.order
        coeffs[g] = _ONE
        return AlgebraElement(self, tuple(coeffs))

    def one(self) -> "AlgebraElement":
        """The multiplicative identity delta_e."""
        return self.delta(self.group.identity)

    def ones(self) -> "AlgebraElement":
        """The all-ones vector, i.e. the constant function 1 on G."""
        return AlgebraElement(self, (_ONE,) * self.group.order)

    def functional(self, coeffs: Sequence) -> "DualFunctional":
        coeffs = tuple(Fraction(c) for c in coeffs)
        if len(coeffs) != self.group.order:
            raise ValueError(
                "functional vector of length %d for group of order %d"
                % (len(coeffs), self.group.order)
            )
        return DualFunctional(self, coeffs)

    def __repr__(self):
        return f"GroupAlgebra({self.group.name}, p={self.prime})"


class _CoeffVector:
    """Shared coefficient-vector mechanics for elements and functionals."""

    __slots__ = ("algebra", "coeffs")

    def __init__(self, algebra: GroupAlgebra, coeffs):
        self.algebra = algebra
        self.coeffs = coeffs

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def _require_same(self, other):
        if type(self) is not type(other) or \
                not self.algebra.compatible(other.algebra):
            raise ValueError(
                "operands live in different algebras or types: %r vs %r"
                % (self, other)
            )

    def __eq__(self, other):
        if type(self) is not type(other):
            return NotImplemented
        return self.algebra.compatible(other.algebra) and \
            self.coeffs == other.coeffs

    def __hash__(self):
        return hash((type(self).__name__, self.coeffs))

    def to_doc(self) -> Dict[str, str]:
        labels = self.algebra.group.labels
        return {
            labels[i]: f"{c.numerator}/{c.denominator}"
            for i, c in enumerate(self.coeffs) if c
        }

    def __repr__(self):
        body = ", ".join(
            f"{lab}: {c}" for lab, c in
            zip(self.algebra.group.labels, self.coeffs) if c
        ) or "0"
        return f"{type(self).__name__}({body})"


class AlgebraElement(_CoeffVector):
    """Element of l(G): coefficients alpha_g, convolution product."""

    def __add__(self, other) -> "AlgebraElement":
        self._require_same(other)
        return AlgebraElement(
            self.algebra,
            tuple(a + b for a, b in zip(self.coeffs, other.coeffs)),
        )

    def __sub__(self, other) -> "AlgebraElement":
        self._require_same(other)
        return AlgebraElement(
            self.algebra,
            tuple(a - b for a, b in zip(self.coeffs, other.coeffs)),
        )

    def __neg__(self) -> "AlgebraElement":
        return AlgebraElement(self.algebra, tuple(-a for a in self.coeffs))

    def scale(self, c) -> "AlgebraElement":
        c = Fraction(c)
        return AlgebraElement(self.algebra, tuple(c * a for a in self.coeffs))

    def __mul__(self, other) -> "AlgebraElement":
        return convolve(self, other)


class DualFunctional(_CoeffVector):
    """Functional on the function space: m(f) = sum_h m_h f(h)."""

    def pair(self, f: AlgebraElement) -> Fraction:
        if not self.algebra.compatible(f.algebra):
            raise ValueError("functional and function live over different data")
        return sum(
            (m * a for m, a in zip(self.coeffs, f.coeffs)), _ZERO
        )

    def scale(self, c) -> "DualFunctional":
        c = Fraction(c)
        return DualFunctional(self.algebra, tuple(c * m for m in self.coeffs))


def convolve(f: AlgebraElement, h: AlgebraElement) -> AlgebraElement:
    """(f * h)(g) = sum_t f(t) h(t^{-1} g), computed exactly."""
    f._require_same(h)
    table = f.algebra.group.table
    out = [_ZERO] * f.algebra.group.order
    for t, a in enumerate(f.coeffs):
        if not a:
            continue
        row = table[t]
        for s, b in enumerate(h.coeffs):
            if b:
                out[row[s]] += a * b
    return AlgebraElement(f.algebra, tuple(out))


def norm_exponent(f) -> Optional[int]:
    """e with ||f|| = p**e, or None for the zero element (norm 0)."""
    p = f.algebra.prime
    best: Optional[int] = None
    for c in f.coeffs:
        if c:
            e = -valuation(c, p)
            if best is None or e > best:
                best = e
    return best


def format_norm_exponent(e: Optional[int]):
    """JSON form of a norm exponent: the integer, or "-inf" for norm 0."""
    return "-inf" if e is None else e


def augmentation(f: AlgebraElement) -> Fraction:
    """epsilon(f) = sum_g f(g)."""
    return sum(f.coeffs, _ZERO)


def i0_membership(f: AlgebraElement) -> bool:
    """Membership in the augmentation ideal I_0 = ker epsilon."""
    return augmentation(f) == 0


def i0_basis(algebra: GroupAlgebra) -> List[AlgebraElement]:
    """Basis of I_0: delta_g - delta_e for g != e (empty for order 1)."""
    e = algebra.group.identity
    one = algebra.delta(e)
    return [
        algebra.delta(g) - one
        for g in algebra.group.elements() if g != e
    ]


def i0_identity(algebra: GroupAlgebra) -> AlgebraElement:
    """The exact identity element of I_0: e_0 = delta_e - |G|^{-1} * ones.

    Verified as a two-sided identity on an I_0 basis before returning;
    failure here is an implementation bug, never a data condition.  Its
    norm exponent is v_p(|G|), the quantity that separates the two
    amenability notions.
    """
    n = algebra.group.order
    e0 = algebra.one() - algebra.ones().scale(Fraction(1, n))
    if not i0_membership(e0):
        raise InternalCheckError("candidate I_0 identity has nonzero augmentation")
    for f in i0_basis(algebra):
        if convolve(f, e0) != f or convolve(e0, f) != f:
            raise InternalCheckError(
                "I_0 identity fails on basis element %r" % (f,))
    return e0


def left_translate(g: int, phi: AlgebraElement) -> AlgebraElement:
    """(g . phi)(x) = phi(g^{-1} x) for phi a function on G."""
    grp = phi.algebra.group
    row = grp.table[grp.inverses[g]]
    return AlgebraElement(
        phi.algebra,
        tuple(phi.coeffs[row[x]] for x in grp.elements()),
    )

