"""Invertible local operator triples and their elementary generators.

Every proof-style manipulation in this package is a product of three kinds of
elementary operators per party: diagonal scalings, single off-diagonal
additions, and basis swaps.  Arbitrary triples can be decomposed back into
that generator set for auditable traces.  The reduction step's A and B
operators, which send a product witness's factors to basis kets, are written
in closed form (:func:`mapping_vector_to_basis`), with no elimination.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .scalars import GaussianRational, ZERO, ONE, _int_row
from .matrices import Matrix, _over_pivot
from .states import PureState


@dataclass(frozen=True)
class ElementaryFactor:
    """One elementary generator: kind 'scale' | 'add' | 'swap'.

    scale: |i> -> alpha |i> on `party` (alpha nonzero).
    add:   |target> -> |target> + alpha |source>  (matrix: column action on
           kets; entry (source_row, target_col)... see to_matrix).
    swap:  |i> <-> |j>.
    """

    party: str
    kind: str
    i: int
    j: int = 0
    alpha: GaussianRational = ONE

    def to_matrix(self, dim: int) -> Matrix:
        grid = [[ONE if r == c else ZERO for c in range(dim)] for r in range(dim)]
        if self.kind == "scale":
            grid[self.i][self.i] = self.alpha
        elif self.kind == "add":
            # ket |i> gains alpha|j>: column i picks up alpha in row j
            grid[self.j][self.i] = grid[self.j][self.i] + self.alpha
        elif self.kind == "swap":
            grid[self.i][self.i] = ZERO
            grid[self.j][self.j] = ZERO
            grid[self.i][self.j] = ONE
            grid[self.j][self.i] = ONE
        else:
            raise ValueError(f"unknown elementary kind {self.kind!r}")
        return Matrix(grid)


class OperatorTriple:
    """Three invertible square matrices, one per party."""

    __slots__ = ("v_a", "v_b", "v_c")

    def __init__(self, v_a: Matrix, v_b: Matrix, v_c: Matrix, check: bool = True):
        for m in (v_a, v_b, v_c):
            if m.rows != m.cols:
                raise ValueError("local operators must be square")
            if check and m.det().is_zero():
                raise ValueError("local operator is singular")
        object.__setattr__(self, "v_a", v_a)
        object.__setattr__(self, "v_b", v_b)
        object.__setattr__(self, "v_c", v_c)

    def __setattr__(self, name, value):
        raise AttributeError("OperatorTriple is immutable")

    def matrices(self):
        return {"A": self.v_a, "B": self.v_b, "C": self.v_c}

    def dims(self):
        return (self.v_a.rows, self.v_b.rows, self.v_c.rows)

    @staticmethod
    def identity(dims) -> "OperatorTriple":
        return OperatorTriple(
            Matrix.identity(dims[0]), Matrix.identity(dims[1]), Matrix.identity(dims[2]),
            check=False,
        )

    def apply(self, s: PureState) -> PureState:
        if self.dims() != s.dims:
            raise ValueError("operator dims do not match state dims")
        return s.apply_local("A", self.v_a).apply_local("B", self.v_b).apply_local("C", self.v_c)

    def inverse(self) -> "OperatorTriple":
        return OperatorTriple(
            self.v_a.inverse(), self.v_b.inverse(), self.v_c.inverse(), check=False
        )

    def __eq__(self, other):
        return (
            isinstance(other, OperatorTriple)
            and self.v_a == other.v_a
            and self.v_b == other.v_b
            and self.v_c == other.v_c
        )

    def __repr__(self):
        return f"OperatorTriple(A={self.v_a!r}, B={self.v_b!r}, C={self.v_c!r})"


def random_scalar(rng: random.Random) -> GaussianRational:
    """One entry from the small Gaussian-rational sampling grid."""
    from fractions import Fraction

    re = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
    im = Fraction(0)
    if rng.random() < 0.25:
        im = Fraction(rng.randint(-1, 1))
    return GaussianRational(re, im)


def random_invertible(dim: int, rng: random.Random) -> Matrix:
    while True:
        m = Matrix([[random_scalar(rng) for _ in range(dim)] for _ in range(dim)])
        if not m.det().is_zero():
            return m


def random_ilo(dims, seed: int) -> OperatorTriple:
    """Deterministic-for-seed random invertible triple with Gaussian grid entries."""
    rng = random.Random(seed)
    return OperatorTriple(*(random_invertible(d, rng) for d in dims), check=False)


def mapping_vector_to_basis(v, dim: int, target: int = 0) -> Matrix:
    """Invertible matrix sending the nonzero ket ``v`` to the ket |target>:
    the inverse of [v, e_j (j != L)], L the last nonzero index of v, rows 0
    and ``target`` swapped.  Its row 0 is e_L / v_L and the row of e_j is
    e_j - (v_j / v_L) e_L, built on v's Gaussian-integer form."""
    ints, den = _int_row(v)
    last = max((j for j, (a, b) in enumerate(ints) if a or b), default=None)
    if last is None:
        raise ValueError("cannot map the zero vector to a basis ket")
    p = ints[last]
    zero = (0, 0)
    rows = [_over_pivot([(den, 0) if c == last else zero for c in range(dim)], p)]
    for j, (a, b) in enumerate(ints):
        if j != last:
            rows.append(_over_pivot(
                [p if c == j else (-a, -b) if c == last else zero for c in range(dim)], p))
    rows[0], rows[target] = rows[target], rows[0]
    return Matrix._from_ints([r for r, _ in rows], [d for _, d in rows], dim)


def decompose_elementary(party: str, m: Matrix):
    """Write an invertible matrix as a product of elementary factors.

    Returns factors f1..fk with to_matrix(f1) @ ... @ to_matrix(fk) == m,
    via Gauss-Jordan: we reduce m to the identity by left-multiplications and
    invert the record.
    """
    n = m.rows
    if n != m.cols or m.det().is_zero():
        raise ValueError("decomposition requires an invertible square matrix")
    work = [list(row) for row in m.entries]
    inverse_ops: list[ElementaryFactor] = []

    def left_apply(f: ElementaryFactor):
        mat = f.to_matrix(n)
        new = [
            [
                sum((mat[r, k] * work[k][c] for k in range(n)), ZERO)
                for c in range(n)
            ]
            for r in range(n)
        ]
        for r in range(n):
            work[r] = new[r]

    for c in range(n):
        pivot = None
        for r in range(c, n):
            if not work[r][c].is_zero():
                pivot = r
                break
        assert pivot is not None
        if pivot != c:
            f = ElementaryFactor(party=party, kind="swap", i=c, j=pivot)
            left_apply(f)
            inverse_ops.append(f)  # swaps are involutions
        if work[c][c] != ONE:
            alpha = work[c][c]
            f = ElementaryFactor(party=party, kind="scale", i=c, alpha=alpha.inverse())
            left_apply(f)
            inverse_ops.append(ElementaryFactor(party=party, kind="scale", i=c, alpha=alpha))
        for r in range(n):
            if r != c and not work[r][c].is_zero():
                coeff = work[r][c]
                # left-multiplying by add(target=c... we need row op: row_r -= coeff*row_c
                # matrix E with E[r][c] = -coeff; as elementary: ket |c> gains -coeff|r>
                f = ElementaryFactor(party=party, kind="add", i=c, j=r, alpha=-coeff)
                left_apply(f)
                inverse_ops.append(
                    ElementaryFactor(party=party, kind="add", i=c, j=r, alpha=coeff)
                )
    # ops L1..Lk reduce m to I, so m = inv(L1) @ ... @ inv(Lk) in recorded order
    return inverse_ops
