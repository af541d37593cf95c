"""Exact linear algebra over the rationals: rank, kernels, span equality.

Everything here is tolerance-free `fractions.Fraction` arithmetic.  The
workhorse is an incremental reduced-echelon engine over sparse rows
(dicts mapping column index to nonzero value).  Rows are reduced as they
arrive and the basis is kept fully back-eliminated, so every pivot row is
supported on its own pivot column plus free columns only.  With the
permutation-like systems produced by group algebras this keeps fill-in
near the dimension of the solution space instead of the ambient space.

Pivoting is deterministic (smallest eligible column), so kernels are
reproducible byte for byte.

The package itself eliminates nothing: its quotients are partitions of a
basis and its derivations are certified through the virtual diagonal.
The tests use this module as the independent oracle for both, and check
it against sympy.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Iterable, List, Sequence, Union

SparseVec = Dict[int, Fraction]
DenseVec = List[Fraction]
VecLike = Union[SparseVec, Sequence]

_ONE = Fraction(1)


def as_sparse(vec: VecLike) -> SparseVec:
    """Copy a dense sequence or sparse dict into a clean sparse dict."""
    if isinstance(vec, dict):
        return {j: v for j, v in vec.items() if v}
    return {j: v for j, v in enumerate(vec) if v}


def as_dense(vec: SparseVec, length: int) -> DenseVec:
    out = [Fraction(0)] * length
    for j, v in vec.items():
        out[j] = Fraction(v)
    return out


class Echelon:
    """Incremental reduced echelon basis for the row space of a matrix.

    pivot_rows maps a pivot column to its normalized row.  Invariant:
    every stored row has value 1 at its pivot column and is zero at every
    other pivot column.
    """

    def __init__(self, ncols: int):
        self.ncols = ncols
        self.pivot_rows: Dict[int, SparseVec] = {}

    @property
    def rank(self) -> int:
        return len(self.pivot_rows)

    def free_columns(self) -> List[int]:
        return [c for c in range(self.ncols) if c not in self.pivot_rows]

    def reduce(self, row: VecLike) -> SparseVec:
        """Residual of row against the current basis (a fresh dict).

        The residual is supported on free columns only.  Eliminating a
        pivot column can introduce entries only at free columns, so one
        pass over the incoming columns in increasing order suffices.
        """
        row = as_sparse(row)
        pivots = self.pivot_rows
        for c in sorted(row):
            if c not in pivots:
                continue
            coef = row.pop(c)
            for j, v in pivots[c].items():
                if j == c:
                    continue
                nv = row.get(j, 0) - coef * v
                if nv:
                    row[j] = nv
                else:
                    row.pop(j, None)
        return row

    def add_row(self, row: VecLike) -> bool:
        """Absorb a row; True if it enlarged the row space."""
        res = self.reduce(row)
        if not res:
            return False
        pc = min(res)
        inv = _ONE / res[pc]
        if inv == 1:
            nrow = res
        else:
            nrow = {j: inv * v for j, v in res.items()}
        # keep older pivot rows reduced against the new one
        for prow in self.pivot_rows.values():
            coef = prow.pop(pc, None)
            if coef is None:
                continue
            for j, v in nrow.items():
                if j == pc:
                    continue
                nv = prow.get(j, 0) - coef * v
                if nv:
                    prow[j] = nv
                else:
                    prow.pop(j, None)
        self.pivot_rows[pc] = nrow
        return True

    def add_rows(self, rows: Iterable[VecLike]) -> None:
        for row in rows:
            self.add_row(row)

    def contains(self, vec: VecLike) -> bool:
        """Span membership, decided exactly."""
        return not self.reduce(vec)

    def kernel_basis(self) -> List[SparseVec]:
        """Basis of the null space of the absorbed rows, one vector per
        free column, ordered by free column index."""
        basis = []
        for f in self.free_columns():
            vec: SparseVec = {f: _ONE}
            for c, prow in self.pivot_rows.items():
                coef = prow.get(f)
                if coef:
                    vec[c] = -coef
            basis.append(vec)
        return basis


def kernel_basis_sparse(rows: Iterable[VecLike], ncols: int) -> List[SparseVec]:
    ech = Echelon(ncols)
    ech.add_rows(rows)
    return ech.kernel_basis()


def span_echelon(vectors: Iterable[VecLike], ncols: int) -> Echelon:
    ech = Echelon(ncols)
    ech.add_rows(vectors)
    return ech


def spans_equal(vecs_a: Sequence[VecLike], vecs_b: Sequence[VecLike],
                ncols: int) -> bool:
    """Exact span equality, checked by mutual membership."""
    ech_a = span_echelon(vecs_a, ncols)
    ech_b = span_echelon(vecs_b, ncols)
    if ech_a.rank != ech_b.rank:
        return False
    return all(ech_a.contains(v) for v in vecs_b) and \
        all(ech_b.contains(v) for v in vecs_a)
