"""Dense matrices over Gaussian rationals, and matrix pencils A + t*B.

Everything here is exact and deterministic: rank, reduced row echelon form,
nullspace, inverses and minor polynomials never round, and the rank of a
pencil at an irrational parameter value comes from an elimination modulo the
polynomial the value is a root of (:meth:`Pencil.ranks_over`), so no floating
point is used.

All elimination goes through one kernel, :func:`_eliminate`.  It works on rows
of Gaussian integers stored as ``(re, im)`` pairs of Python ints; a matrix
clears each row's denominators once and keeps that integer form for every
later call.  Elimination is fraction-free (Bareiss, *Math. Comp.* 22, 1968):
each step cross-multiplies a row with the pivot row and divides exactly by
the previous pivot, so entries stay minors of the input and no rational is
reduced on the way.  ``Matrix.rank``, ``det``, ``nullspace``, ``rref``
(with or without its transform), :func:`certified_nullspace` and the pencil
minors all run on it, and :func:`stack_vectorized` shares its integer row
form.  Pencil entries and minors are polynomials in their Gaussian-integer
form, a 2 x 2 minor written out in closed form and any other taken by
:func:`poly_matrix_det` from the pencil's integer rows, so the minor gcds
never leave the integers.
:class:`GaussianRational` values are built only for the results handed back.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import factorial, gcd, lcm, prod

from .scalars import GaussianRational, ZERO, ONE, _int_row, _scalar
from .polynomials import (
    Poly, poly_gcd, poly_gcd_many, exact_roots_of, _imaginary_unit_mod, _poly_mul, _poly_sub,
)

# -- the Gaussian-integer kernel ----------------------------------------------


def _step(p, f, row, prow, q, start):
    """(p*row - f*prow) / q on Gaussian-integer rows, the division exact.

    Entries before column ``start`` are zero in both rows and kept as is;
    ``prow`` is not read when ``f`` is zero.  When p, f and q are all real
    (the rows may still be complex), each part is p*a - f*c divided by q in
    the one expression that forms it; otherwise the complex product is
    formed first and divided by q, times conj(q) over |q|^2 when q is
    complex.
    """
    pr, pi = p
    fr, fi = f
    qr, qi = q
    if not (pi or fi or qi):
        if not fr:
            if qr == 1:
                new = [(pr * a, pr * b) for a, b in row[start:]]
            else:
                new = [(pr * a // qr, pr * b // qr) for a, b in row[start:]]
        elif qr == 1:
            new = [(pr * a - fr * c, pr * b - fr * d) for (a, b), (c, d) in zip(row[start:], prow[start:])]
        else:
            new = [
                ((pr * a - fr * c) // qr, (pr * b - fr * d) // qr)
                for (a, b), (c, d) in zip(row[start:], prow[start:])
            ]
        return row[:start] + new if start else new
    if not fr and not fi:
        new = [(pr * a - pi * b, pr * b + pi * a) for a, b in row[start:]]
    else:
        new = [
            (pr * a - pi * b - fr * c + fi * d, pr * b + pi * a - fr * d - fi * c)
            for (a, b), (c, d) in zip(row[start:], prow[start:])
        ]
    if qi:
        n = qr * qr + qi * qi
        new = [((a * qr + b * qi) // n, (b * qr - a * qi) // n) for a, b in new]
    elif qr != 1:
        new = [(a // qr, b // qr) for a, b in new]
    return row[:start] + new if start else new


def _eliminate(rows, npiv: int, reduced: bool = False):
    """Fraction-free Gaussian elimination over the Gaussian integers.

    ``rows`` is a list of rows of ``(re, im)`` int pairs; the list is reordered
    and its rows replaced, never mutated.  Pivots are searched in the first
    ``npiv`` columns only, so trailing columns (a transform) ride along.

    This is Bareiss's one-step elimination: step k replaces each other row by
    (p_k * row - f * pivot row) / p_(k-1), an exact division, so every entry
    is a minor of the input and operands grow only linearly.  A row whose
    entry f in the pivot column is zero would just be scaled by
    p_k / p_(k-1); it is left alone and its level recorded, and the scalings
    it skipped are folded into the divisor of its next real step, which keeps
    sparse systems sparse.

    Returns ``(pivots, sign)``: ``rows[i]`` has its pivot at ``pivots[i]``,
    the rows past ``len(pivots)`` vanish on the first ``npiv`` columns, and
    ``sign`` is the parity of the row swaps.  For a square input of full rank
    ``sign`` times the last pivot is the determinant.  With ``reduced`` the
    rows above each pivot are cleared as well (fraction-free Gauss-Jordan);
    every pivot then equals the last one, D, and the pivot rows are D times
    the reduced row echelon form.
    """
    n = len(rows)
    pivots: list[int] = []
    divisor = [(1, 0)]  # divisor[j] = p_(j-1): the divisor of a row's step j
    level = [0] * n  # elimination steps each row has seen
    sign = 1
    k = 0
    for c in range(npiv):
        if k == n:
            break
        for r in range(k, n):
            a, b = rows[r][c]
            if a or b:
                break
        else:
            continue
        if r != k:
            rows[k], rows[r] = rows[r], rows[k]
            level[k], level[r] = level[r], level[k]
            sign = -sign
        if level[k] < k:  # catch up on the scalings the pivot row skipped
            rows[k] = _step(divisor[k], (0, 0), rows[k], None, divisor[level[k]], c)
        level[k] = k + 1
        prow = rows[k]
        p = prow[c]
        for r in range(0 if reduced else k + 1, n):
            f = rows[r][c]
            if r != k and (f[0] or f[1]):
                rows[r] = _step(p, f, rows[r], prow, divisor[level[r]], c if r > k else 0)
                level[r] = k + 1
        divisor.append(p)
        pivots.append(c)
        k += 1
    if reduced:
        for i in range(k):
            if level[i] < k:
                rows[i] = _step(divisor[k], (0, 0), rows[i], None, divisor[level[i]], 0)
    return pivots, sign


def _null_vectors(rows, pivots, ncols):
    """Gaussian-integer nullspace basis from reduced rows of
    :func:`_eliminate`, as ``(D, vectors)``: for each non-pivot column c the
    vector D*e_c minus column c of the rows placed at the pivot columns."""
    d = rows[0][pivots[0]] if pivots else (1, 0)
    pivset = set(pivots)
    out = []
    for fc in range(ncols):
        if fc in pivset:
            continue
        w = [(0, 0)] * ncols
        w[fc] = d
        for row, pc in zip(rows, pivots):
            a, b = row[fc]
            w[pc] = (-a, -b)
        out.append(w)
    return d, out


def _primitive_ints(ints):
    """Gaussian-integer pairs divided by the gcd of all their parts, the sign
    fixed so the first nonzero pair has a positive real part (or a zero real
    part and a positive imaginary one); an all-zero list is returned as is."""
    g = gcd(*[x for pair in ints for x in pair])
    if not g:
        return ints
    for a, b in ints:
        if a or b:
            if a < 0 or (not a and b < 0):
                g = -g
            break
    return [(a // g, b // g) for a, b in ints]


def _over_pivot(ints, p):
    """(pairs, den): the Gaussian integers ``ints`` divided by the Gaussian
    integer p != 0, as times conj(p) over |p|^2 with the content removed."""
    c, d = p
    if d:
        n = c * c + d * d
        ints = [(a * c + b * d, b * c - a * d) for a, b in ints]
    elif c < 0:
        n = -c
        ints = [(-a, -b) for a, b in ints]
    else:
        n = c
    g = gcd(n, *[x for pair in ints for x in pair])
    if g != 1:
        ints = [(a // g, b // g) for a, b in ints]
        n //= g
    return ints, n


_CERT_PRIME = 1000000009  # = 1 mod 4, so -1 has a square root modulo it


_IMROOT = _imaginary_unit_mod(_CERT_PRIME)


def certified_nullspace(m: "Matrix"):
    """Exact right nullspace, accelerated by a modular pivot-row prefilter.

    Elimination modulo a prime selects a candidate subset of pivot rows; the
    kernel reduces that subset exactly, and every remaining row is checked
    against the subset's Gaussian-integer null vectors (a row that fails
    joins the subset).  Equal row spaces have equal reduced echelon forms, so
    the result is Matrix.nullspace()'s basis without exact elimination of the
    rows that the pivots already span.  It is given in the integer form of
    :meth:`Matrix._null_ints`; no :class:`GaussianRational` is built.
    """
    rows, _ = m._int_form()
    p, root = _CERT_PRIME, _IMROOT
    subset: list[int] = []
    reduced: list[tuple[int, list[int]]] = []  # (pivot column, reduced row)
    for idx, row in enumerate(rows):
        work = [(a + b * root) % p for a, b in row]
        for pc, prow in reduced:
            if work[pc]:
                f = work[pc] * pow(prow[pc], -1, p) % p
                work = [(a - f * b) % p for a, b in zip(work, prow)]
        for c, val in enumerate(work):
            if val:
                reduced.append((c, work))
                subset.append(idx)
                break
    chosen = set(subset)
    while True:
        ech = [rows[i] for i in subset]
        pivots, _ = _eliminate(ech, m.cols, reduced=True)
        ech = ech[: len(pivots)]
        pivot, vectors = _null_vectors(ech, pivots, m.cols)
        bad = None
        for idx, row in enumerate(rows):
            if idx in chosen:
                continue
            for w in vectors:
                re = im = 0
                for (a, b), (c, d) in zip(row, w):
                    if c or d:
                        re += a * c - b * d
                        im += a * d + b * c
                if re or im:
                    bad = idx
                    break
            if bad is not None:
                break
        if bad is None:
            return [_over_pivot(w, pivot) for w in vectors]
        subset.append(bad)
        chosen.add(bad)


class Matrix:
    """Immutable dense matrix with :class:`GaussianRational` entries.

    A matrix is built either from its entries or, inside this module, from its
    Gaussian-integer rows (see :func:`_eliminate`); each form is derived from
    the other on first use and then kept.
    """

    __slots__ = ("rows", "cols", "_entries", "_ints")

    def __init__(self, entries):
        rows = tuple(tuple(GaussianRational.coerce(e) for e in row) for row in entries)
        if not rows or not rows[0]:
            raise ValueError("matrix must have at least one row and column")
        ncols = len(rows[0])
        if any(len(r) != ncols for r in rows):
            raise ValueError("ragged rows")
        object.__setattr__(self, "rows", len(rows))
        object.__setattr__(self, "cols", ncols)
        object.__setattr__(self, "_entries", rows)
        object.__setattr__(self, "_ints", None)

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    @staticmethod
    def _from_ints(rows, dens, cols: int) -> "Matrix":
        """Matrix whose row i is ``rows[i] / dens[i]`` (Gaussian-integer pairs)."""
        m = object.__new__(Matrix)
        object.__setattr__(m, "rows", len(rows))
        object.__setattr__(m, "cols", cols)
        object.__setattr__(m, "_entries", None)
        object.__setattr__(m, "_ints", (rows, dens))
        return m

    @property
    def entries(self):
        if self._entries is None:
            rows, dens = self._ints
            object.__setattr__(
                self,
                "_entries",
                tuple(tuple(_scalar(a, b, d) for a, b in row) for row, d in zip(rows, dens)),
            )
        return self._entries

    def _int_form(self):
        """(rows of Gaussian-integer pairs, row denominators), cached."""
        if self._ints is None:
            rows, dens = [], []
            for row in self._entries:
                ints, d = _int_row(row)
                rows.append(ints)
                dens.append(d)
            object.__setattr__(self, "_ints", (rows, dens))
        return self._ints

    # -- constructors -------------------------------------------------------

    @staticmethod
    def identity(n: int) -> "Matrix":
        return Matrix([[ONE if i == j else ZERO for j in range(n)] for i in range(n)])

    def shape(self):
        return (self.rows, self.cols)

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]

    def __eq__(self, other):
        return isinstance(other, Matrix) and self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    def __repr__(self):
        body = "; ".join(" ".join(str(e) for e in row) for row in self.entries)
        return f"Matrix[{self.rows}x{self.cols}: {body}]"

    # -- algebra ------------------------------------------------------------

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise ValueError("shape mismatch in product")
        out = []
        for i in range(self.rows):
            row = []
            for j in range(other.cols):
                acc = ZERO
                for k in range(self.cols):
                    a = self[i, k]
                    if not a.is_zero():
                        acc = acc + a * other[k, j]
                row.append(acc)
            out.append(row)
        return Matrix(out)

    def is_zero(self) -> bool:
        return not any(a or b for row in self._int_form()[0] for a, b in row)

    # -- elimination (all through _eliminate) -------------------------------

    def rref(self, transform: bool = True):
        """Reduced row echelon form.

        Returns (R, pivots, T) with T invertible, T @ self == R, and pivots the
        pivot column indices.  R and pivots are unique; the rows of T past the
        rank span the left nullspace, each a primitive Gaussian-integer
        vector.  Fully exact and deterministic.  With ``transform=False`` T is
        None and the kernel eliminates the rows of self alone, without the
        identity block that would carry T; R and pivots are the same.

        R and T are built in Gaussian-integer form, no
        :class:`GaussianRational` made until an entry is read: the kernel
        leaves D times the RREF in each pivot row, and that row becomes
        itself times conj(D) over |D|^2, the content removed.
        """
        ints, dens = self._int_form()
        n, m = self.rows, self.cols
        zero = (0, 0)
        if transform:
            # [D*self | D] with D = diag(dens): row operations L turn it into
            # [L*D*self | L*D], so T = L*D
            work = [
                list(row) + [(d, 0) if j == i else zero for j in range(n)]
                for i, (row, d) in enumerate(zip(ints, dens))
            ]
        else:
            work = list(ints)
        pivots, _ = _eliminate(work, m, reduced=True)
        rank = len(pivots)
        lead = [row[pc] for row, pc in zip(work, pivots)]
        r = [_over_pivot(row[:m], p) for row, p in zip(work, lead)]
        r += [([zero] * m, 1) for _ in range(n - rank)]
        t = None
        if transform:
            t = [_over_pivot(row[m:], p) for row, p in zip(work, lead)]
            t += [(_primitive_ints(row[m:]), 1) for row in work[rank:]]
            t = Matrix._from_ints([x for x, _ in t], [d for _, d in t], n)
        return Matrix._from_ints([x for x, _ in r], [d for _, d in r], m), tuple(pivots), t

    def rank(self) -> int:
        """Number of pivots of the kernel's forward elimination."""
        return len(_eliminate(list(self._int_form()[0]), self.cols)[0])

    def nullspace(self):
        """Basis of the right nullspace as a list of scalar tuples: for each
        non-pivot column c, the vector with a one at c, zeros at the other
        non-pivot columns, and minus column c of the RREF at the pivots."""
        return [tuple(_scalar(a, b, n) for a, b in ints) for ints, n in self._null_ints()]

    def _null_ints(self):
        """The basis of :meth:`nullspace` in integer form: ``(pairs, den)``
        per vector, the vector being ``pairs / den`` (see :func:`_over_pivot`)."""
        rows = list(self._int_form()[0])
        pivots, _ = _eliminate(rows, self.cols, reduced=True)
        d, vectors = _null_vectors(rows, pivots, self.cols)
        return [_over_pivot(w, d) for w in vectors]

    def det(self) -> GaussianRational:
        if self.rows != self.cols:
            raise ValueError("determinant of non-square matrix")
        ints, dens = self._int_form()
        rows = list(ints)
        pivots, sign = _eliminate(rows, self.rows)
        if len(pivots) < self.rows:
            return ZERO
        a, b = rows[-1][-1]  # the last pivot
        return _scalar(sign * a, sign * b, prod(dens))

    def inverse(self) -> "Matrix":
        if self.rows != self.cols:
            raise ValueError("inverse of non-square matrix")
        r, pivots, t = self.rref()
        if len(pivots) != self.rows:
            raise ValueError("matrix is singular")
        return t


def stack_vectorized(mats) -> Matrix:
    """Stack vec(m) of each matrix as rows (for independence/rank tests),
    concatenating the matrices' Gaussian-integer rows."""
    rows, dens = [], []
    for m in mats:
        ints, ds = m._int_form()
        d = lcm(*ds)
        rows.append([
            (a * (d // rd), b * (d // rd)) if rd != d else (a, b)
            for row, rd in zip(ints, ds)
            for a, b in row
        ])
        dens.append(d)
    return Matrix._from_ints(rows, dens, len(rows[0]))


# -- polynomial determinants and pencils -------------------------------------


def _interpolate(values):
    """Coefficients, constant first, of the Gaussian-integer polynomial of
    degree below len(values) through (j, values[j]) for j = 0, 1, ...

    Newton's forward differences at consecutive integers, expanded over
    falling factorials and divided once by d!; everything stays integral.
    """
    d = len(values) - 1
    diffs = [list(values)]
    for j in range(1, d + 1):
        prev = diffs[-1]
        diffs.append([(b[0] - a[0], b[1] - a[1]) for a, b in zip(prev, prev[1:])])
    out = [[0, 0] for _ in range(d + 1)]
    falling = [1]  # t (t-1) ... (t-j+1), constant first
    total = scale = factorial(d)  # scale runs through d! / j!
    for j in range(d + 1):
        re, im = diffs[j][0]
        for i, c in enumerate(falling):
            out[i][0] += re * scale * c
            out[i][1] += im * scale * c
        falling = [0] + falling  # times t ...
        for i in range(len(falling) - 1):
            falling[i] -= j * falling[i + 1]  # ... minus j times the old one
        if j < d:
            scale //= j + 1
    return [(re // total, im // total) for re, im in out]


def _poly_det_ints(rows, bound: int):
    """Coefficients of the determinant of a square matrix whose entries are
    Gaussian-integer polynomials (lists of pairs, constant first), given a
    bound on its degree: a closed form for sides 2 and 3 (the 3 x 3 one
    expanded along its first row), above that evaluation at 0..bound and
    interpolation, one ``Matrix.det`` per point.  The bound is the sum of the
    rows' degrees, so a pencil row free of t adds no point.
    :func:`poly_matrix_det` is its one caller, so every pencil minor other
    than a closed-form 2 x 2 one comes through here."""
    if len(rows) == 2:
        (p, q), (r, s) = rows
        return _poly_sub(_poly_mul(p, s), _poly_mul(q, r))
    if len(rows) == 3:
        (a, b, c), (d, e, f), (g, h, i) = rows
        cof_a = _poly_sub(_poly_mul(e, i), _poly_mul(f, h))
        cof_b = _poly_sub(_poly_mul(d, i), _poly_mul(f, g))
        cof_c = _poly_sub(_poly_mul(d, h), _poly_mul(e, g))
        return _poly_sub(_poly_mul(a, cof_a), _poly_sub(_poly_mul(b, cof_b), _poly_mul(c, cof_c)))
    values = []
    for t in range(bound + 1):
        mat = []
        for row in rows:
            vals = []
            for coeffs in row:
                re = im = 0
                for a, b in reversed(coeffs):
                    re, im = re * t + a, im * t + b
                vals.append((re, im))
            mat.append(vals)
        d = Matrix._from_ints(mat, [1] * len(mat), len(mat)).det()
        values.append((d.re.numerator, d.im.numerator))
    return _interpolate(values)


def poly_matrix_det(rows, den: int) -> Poly:
    """Determinant of a small square matrix of Gaussian-integer polynomial
    entries (sequences of ``(re, im)`` pairs, constant first, trailing zeros
    allowed), divided by ``den``: the product of the row denominators when
    row i stands for ``rows[i] / d_i``.

    The degree bound of :func:`_poly_det_ints` is the sum of the rows'
    degrees, for a pencil minor the number of rows with a nonzero t term;
    an all-zero row gives zero at once.  The result is built in integer form.
    """
    if not rows:
        return Poly.constant(ONE)
    bound = 0
    for row in rows:
        d = max((k for coeffs in row for k, (a, b) in enumerate(coeffs) if a or b), default=-1)
        if d < 0:
            return Poly()  # an all-zero row
        bound += d
    if len(rows) == 1:
        return Poly._from_ints(rows[0][0], den)
    return Poly._from_ints(_poly_det_ints(rows, bound), den)


def _pivot_rows(rows, cols) -> tuple[int, ...]:
    """Indices of the first pivot rows of the Gaussian-integer ``rows``
    restricted to the columns ``cols``: as many as the columns' rank."""
    return tuple(_eliminate([[row[j] for row in rows] for j in cols], len(rows))[0])


def _int_matmul(x, y):
    """Product of two Gaussian-integer matrices given as rows of pairs."""
    cols = list(zip(*y))
    return [
        [
            (
                sum(a * c - b * d for (a, b), (c, d) in zip(row, col)),
                sum(a * d + b * c for (a, b), (c, d) in zip(row, col)),
            )
            for col in cols
        ]
        for row in x
    ]


def _minor2(a0, b0, a1, b1, j: int, n: int, den: int) -> Poly:
    """The minor of A + t*B on two rows and the columns j < n, the rows given
    as Gaussian-integer rows a0 + t*b0 and a1 + t*b1 over ``den``.

    With [[p, q], [r, s]] the selected entries of A and [[P, Q], [R, S]]
    those of B, the minor is (p s - q r) + (p S + P s - q R - Q r) t
    + (P S - Q R) t^2, every product one of Gaussian integers.
    """
    (pr, pi), (qr, qi), (rr, ri), (sr, si) = a0[j], a0[n], a1[j], a1[n]
    (Pr, Pi), (Qr, Qi), (Rr, Ri), (Sr, Si) = b0[j], b0[n], b1[j], b1[n]
    return Poly._from_ints(
        (
            (pr * sr - pi * si - qr * rr + qi * ri, pr * si + pi * sr - qr * ri - qi * rr),
            (
                pr * Sr - pi * Si + Pr * sr - Pi * si - qr * Rr + qi * Ri - Qr * rr + Qi * ri,
                pr * Si + pi * Sr + Pr * si + Pi * sr - qr * Ri - qi * Rr - Qr * ri - Qi * rr,
            ),
            (Pr * Sr - Pi * Si - Qr * Rr + Qi * Ri, Pr * Si + Pi * Sr - Qr * Ri - Qi * Rr),
        ),
        den,
    )


@dataclass(frozen=True)
class ExceptionalPoint:
    """A pencil parameter value where the rank drops below the generic rank.

    ``location`` is 'finite' or 'infinity'; ``rank`` is the exact rank at the
    point.  ``parameter`` is the root when it is Gaussian-rational, the monic
    square-free :class:`Poly` it is a root of when it is irrational (one
    point per root, sharing that factor), and None at infinity.
    """

    location: str
    rank: int
    parameter: object = None


@dataclass(frozen=True)
class PencilRankProfile:
    generic_rank: int
    exceptional: tuple[ExceptionalPoint, ...]

    def rank_multiset(self) -> tuple[int, ...]:
        return tuple(sorted(p.rank for p in self.exceptional))

    def key(self):
        return (self.generic_rank, self.rank_multiset())


class Pencil:
    """One-parameter matrix family A + t*B with equal-shape exact members."""

    __slots__ = ("a", "b", "_pivots", "_profile", "_ints")

    def __init__(self, a: Matrix, b: Matrix):
        if a.shape() != b.shape():
            raise ValueError("pencil members must share a shape")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "_pivots", None)
        object.__setattr__(self, "_profile", None)
        object.__setattr__(self, "_ints", None)

    def __setattr__(self, name, value):
        raise AttributeError("Pencil is immutable")

    def shape(self):
        return self.a.shape()

    def _int_form(self):
        """(A rows, B rows, dens): Gaussian-integer rows with row i of A equal
        to ``A rows[i] / dens[i]`` and likewise for B; cached."""
        if self._ints is None:
            a_rows, a_dens = self.a._int_form()
            b_rows, b_dens = self.b._int_form()
            out_a, out_b, dens = [], [], []
            for ar, da, br, db in zip(a_rows, a_dens, b_rows, b_dens):
                d = lcm(da, db)
                sa, sb = d // da, d // db
                out_a.append([(x * sa, y * sa) for x, y in ar] if sa != 1 else ar)
                out_b.append([(x * sb, y * sb) for x, y in br] if sb != 1 else br)
                dens.append(d)
            object.__setattr__(self, "_ints", (out_a, out_b, dens))
        return self._ints

    def at(self, t) -> Matrix:
        t = GaussianRational.coerce(t)
        q = lcm(t.re.denominator, t.im.denominator)
        pr = t.re.numerator * (q // t.re.denominator)
        pi = t.im.numerator * (q // t.im.denominator)
        a_rows, b_rows, dens = self._int_form()
        # row i of A + (p/q) B is (q a_i + p b_i) / (q d_i)
        rows = [
            [(q * x + pr * u - pi * v, q * y + pr * v + pi * u) for (x, y), (u, v) in zip(ar, br)]
            for ar, br in zip(a_rows, b_rows)
        ]
        return Matrix._from_ints(rows, [q * d for d in dens], self.a.cols)

    def _int_rows_at(self, t: int):
        """Gaussian-integer rows of A + t*B at the integer t, row i scaled
        by its denominator (which leaves the rank and pivots unchanged): read
        straight from the cached integer rows, the rows of A themselves at
        t = 0."""
        a_rows, b_rows, _ = self._int_form()
        if not t:
            return a_rows
        return [
            [(x + t * u, y + t * v) for (x, y), (u, v) in zip(ar, br)]
            for ar, br in zip(a_rows, b_rows)
        ]

    def entry_poly(self, i: int, j: int) -> Poly:
        """The entry A[i, j] + t B[i, j], built from the integer rows."""
        a_rows, b_rows, dens = self._int_form()
        return Poly._from_ints((a_rows[i][j], b_rows[i][j]), dens[i])

    def _minor(self, rsel, csel) -> Poly:
        """The minor of A + t*B on the rows ``rsel`` and the columns
        ``csel``: :func:`poly_matrix_det` of the selected (A, B) integer
        entries over the product of their row denominators."""
        a_rows, b_rows, dens = self._int_form()
        return poly_matrix_det(
            [[(a_rows[i][j], b_rows[i][j]) for j in csel] for i in rsel], prod(dens[i] for i in rsel)
        )

    def minor_polynomials(self, k: int):
        """Generator of the k x k minors of A + t*B as polynomials, in
        row-major order of the row and column selections.

        The size is checked on the call; each minor is computed only when it
        is read, so a caller that stops early saves the rest.  A 2 x 2 minor
        is written out in closed form from the integer rows
        (:func:`_minor2`); any other is :meth:`_minor`.
        """
        rows, cols = self.shape()
        if k <= 0:
            raise ValueError("minor size must be positive")
        if k > min(rows, cols):
            raise ValueError("minor size exceeds matrix shape")
        if k == 2:
            a_rows, b_rows, dens = self._int_form()
            return (
                _minor2(a_rows[i], b_rows[i], a_rows[l], b_rows[l], j, n, dens[i] * dens[l])
                for i, l in itertools.combinations(range(rows), 2)
                for j, n in itertools.combinations(range(cols), 2)
            )
        return (
            self._minor(rsel, csel)
            for rsel in itertools.combinations(range(rows), k)
            for csel in itertools.combinations(range(cols), k)
        )

    def minor_gcd(self, k: int) -> Poly:
        """Monic gcd of all k x k minors, read until the gcd is a unit.

        Returns the zero polynomial when every minor vanishes identically.
        """
        return poly_gcd_many(self.minor_polynomials(k))

    def minor_root_multiple(self, k: int) -> Poly:
        """A monic multiple of minor_gcd(k) whose roots are all roots of it
        or spurious; zero when every k x k minor vanishes identically.

        Every k x k minor vanishes wherever A + tB has rank below k, so the
        gcd of any two of them is such a multiple.  The two are read at the
        first t = 0, 1, ... where :meth:`generic_rank` saw rank k or more:
        the first k pivot columns there and the first k pivot rows among
        them, once in order and once with rows and columns reversed.  Both
        are nonzero at t, so neither vanishes identically.  A square pencil
        of side k gives its determinant alone.  Callers check each candidate
        root by the rank at it, which drops the spurious ones.
        """
        rows, cols = self.shape()
        if k <= 0 or k > min(rows, cols):
            raise ValueError("bad minor size")
        if k == rows == cols:
            return self._minor(range(k), range(k)).monic()
        if k > self.generic_rank():
            return Poly()
        t = next(t for t, piv in enumerate(self._pivots) if len(piv) >= k)
        at_t = self._int_rows_at(t)
        flipped = [row[::-1] for row in reversed(at_t)]
        csel = self._pivots[t][:k]
        fsel = _eliminate(list(flipped), cols)[0][:k]
        frows = _pivot_rows(flipped, fsel)
        selections = {
            (_pivot_rows(at_t, csel), csel),
            (tuple(rows - 1 - i for i in frows), tuple(cols - 1 - j for j in fsel)),
        }
        return poly_gcd_many(self._minor(*sel) for sel in selections)

    def generic_rank(self) -> int:
        """Rank over the rational-function field: the largest rank at
        t = 0, 1, ..., min(rows, cols), stopping once it is min(rows, cols).

        Exact: a g x g minor that is not identically zero has degree at most
        g <= min(rows, cols) in t, so it vanishes at no more than g of these
        min(rows, cols) + 1 points.  The pivot columns of each point are kept
        for :meth:`minor_root_multiple`.
        """
        if self._pivots is None:
            full = min(self.shape())
            pivots = []
            for t in range(full + 1):
                pivots.append(tuple(_eliminate(list(self._int_rows_at(t)), self.a.cols)[0]))
                if len(pivots[-1]) == full:
                    break
            object.__setattr__(self, "_pivots", pivots)
        return max(map(len, self._pivots))

    def ranks_over(self, f: Poly) -> list[tuple[Poly, int]]:
        """Rank of A + alpha*B at the roots alpha of the square-free ``f``, as
        pairs (factor, rank): the monic factors multiply to f's monic form,
        and the rank is the same at every root of one factor.

        Dynamic evaluation (Della Dora, Dicrescenzo & Duval, *EUROCAL '85*,
        LNCS 204): a fraction-free elimination over Q(i)[t]/(f), each entry
        reduced modulo f.  The pivot is a nonzero entry of least degree; it is
        a unit unless it shares a factor g = gcd(p, f) with f, and then the
        elimination goes on twice, modulo g (where p vanishes) and modulo
        f / g (where it is a unit).  No root is located, so irrational roots
        get exact ranks.
        """
        rows, cols = self.shape()
        f = f.monic()
        todo = [(f, [[self.entry_poly(i, j) % f for j in range(cols)] for i in range(rows)], 0)]
        out = []
        while todo:
            f, mat, rank = todo.pop()
            mat = [row for row in mat if any(row)]
            if not mat:
                out.append((f, rank))
                continue
            p, i, j = min(
                ((e, i, j) for i, row in enumerate(mat) for j, e in enumerate(row) if e),
                key=lambda x: x[0].degree,
            )
            if p.degree > 0:
                g = poly_gcd(p, f)
                if g.degree > 0:
                    for h in (f // g, g):
                        todo.append((h, [[e % h for e in row] for row in mat], rank))
                    continue
            prow = mat.pop(i)
            # rows with a zero in column j only lose that column
            mat = [
                [(p * e - row[j] * q) % f for e, q in zip(row, prow)] if row[j] else row
                for row in mat
            ]
            todo.append((f, [row[:j] + row[j + 1:] for row in mat], rank + 1))
        return out

    def rank_profile(self) -> PencilRankProfile:
        """Generic rank plus the multiset of ranks at exceptional points;
        cached.

        Exceptional finite points are the distinct roots of the gcd of the
        generic-rank-sized minors; the point at infinity is exceptional when
        rank(B) is below the generic rank.  The candidates are the roots of
        :meth:`minor_root_multiple`, and each is kept only where the rank
        drops.  Gaussian-rational roots are evaluated one by one; the
        irrational ones get their ranks from :meth:`ranks_over`, one point per
        root, the factor as parameter.
        """
        if self._profile is not None:
            return self._profile
        if self.a.is_zero() and self.b.is_zero():
            raise ValueError("zero pencil has no rank profile")
        g = self.generic_rank()
        points = []
        if g > 0:
            gcd = self.minor_root_multiple(g)  # nonzero, as g is the generic rank
            if gcd.degree > 0:
                exact, rest = exact_roots_of(gcd)
                for r in exact:
                    rk = self.at(r).rank()
                    if rk < g:  # spurious candidate roots do not drop the rank
                        points.append(
                            ExceptionalPoint(location="finite", parameter=r, rank=rk)
                        )
                for residual in rest:
                    for f, rk in self.ranks_over(residual):
                        if rk < g:
                            point = ExceptionalPoint(location="finite", parameter=f, rank=rk)
                            points.extend([point] * f.degree)
        rb = self.b.rank()
        if rb < g:
            points.append(ExceptionalPoint(location="infinity", rank=rb))
        profile = PencilRankProfile(generic_rank=g, exceptional=tuple(points))
        object.__setattr__(self, "_profile", profile)
        return profile
