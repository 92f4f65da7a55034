"""Tripartite pure states with exact amplitudes.

A state is stored sparse and in one form only, the Gaussian-integer form
that :class:`~slocc2mn.matrices.Matrix` and
:class:`~slocc2mn.polynomials.Poly` keep: ``{(i, j, k): (re, im)}`` pairs of
Python ints over one positive denominator, with the content removed (the gcd
of the denominator and every part is 1), so equal amplitudes have equal
stored forms.  Unfolding grids, slices, party permutations, local operators
and :func:`compress_to_ranks` read and write that form; :attr:`PureState.amps`
builds :class:`GaussianRational` values on each read and does not keep
them.  The local ranks and the compression read the unfoldings' integer
grids, the ranks with no :class:`Matrix` built and the compression with no
intermediate state.  The canonical families all
have O(M) nonzero amplitudes.  Equality is up to a global nonzero scalar:
the first nonzero amplitude in lexicographic index order is scaled to one.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, lcm

from .scalars import GaussianRational, ZERO, ONE, _int_row, _scalar
from .matrices import Matrix, _eliminate

PARTIES = ("A", "B", "C")

# One tuple per amplitude index, shared by every state the public constructor
# builds: a program holding many parsed states of one shape (a census, a
# batch of state files) keeps each index once, not once per state.
_INDICES: dict[tuple, tuple] = {}


@dataclass(frozen=True)
class LocalRankProfile:
    r_a: int
    r_b: int
    r_c: int

    def as_tuple(self):
        return (self.r_a, self.r_b, self.r_c)


def _grid(dims, ints, p: int):
    """The Gaussian-integer rows of the party-``p`` unfolding (party-vs-rest
    matrix) of the amplitudes ``ints``, over a denominator the caller keeps:
    rows indexed by party p, columns by the other two in A<B<C order."""
    q1, q2 = [q for q in range(3) if q != p]
    d2 = dims[q2]
    grid = [[(0, 0)] * (dims[q1] * d2) for _ in range(dims[p])]
    for idx, v in ints.items():
        grid[idx[p]][idx[q1] * d2 + idx[q2]] = v
    return grid


class PureState:
    """Pure state of an (d_A, d_B, d_C) system, unnormalized, exact.

    Holds the nonzero amplitudes as Gaussian integers ``_ints[idx]`` over the
    positive denominator ``_den``, the content removed (see the module
    docstring); :attr:`amps` is built from them on each read.
    """

    __slots__ = ("dims", "_ints", "_den")

    def __init__(self, dims, amplitudes):
        dims = tuple(int(d) for d in dims)
        if len(dims) != 3 or any(d < 1 for d in dims):
            raise ValueError(f"bad dims {dims}")
        amps = {}
        for idx, val in dict(amplitudes).items():
            i, j, k = idx
            if not (0 <= i < dims[0] and 0 <= j < dims[1] and 0 <= k < dims[2]):
                raise ValueError(f"index {idx} out of range for dims {dims}")
            v = GaussianRational.coerce(val)
            if not v.is_zero():
                idx = (int(i), int(j), int(k))
                amps[_INDICES.setdefault(idx, idx)] = v
        if not amps:
            raise ValueError("state must have at least one nonzero amplitude")
        # the least common denominator leaves no content
        ints, den = _int_row(list(amps.values()))
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "_ints", dict(zip(amps, ints)))
        object.__setattr__(self, "_den", den)

    def __setattr__(self, name, value):
        raise AttributeError("PureState is immutable")

    @staticmethod
    def _from_ints(dims, ints, den: int = 1) -> "PureState":
        """The state with amplitudes ``ints[idx] / den`` (Gaussian-integer
        pairs, ``den > 0``); zero entries are dropped and the content removed."""
        ints = {idx: v for idx, v in ints.items() if v[0] or v[1]}
        if not ints:
            raise ValueError("state must have at least one nonzero amplitude")
        if den != 1:
            g = gcd(den, *[x for pair in ints.values() for x in pair])
            if g != 1:
                ints = {idx: (a // g, b // g) for idx, (a, b) in ints.items()}
                den //= g
        s = object.__new__(PureState)
        object.__setattr__(s, "dims", tuple(dims))
        object.__setattr__(s, "_ints", ints)
        object.__setattr__(s, "_den", den)
        return s

    @property
    def amps(self) -> dict:
        """The nonzero amplitudes as {index: GaussianRational}, built on each
        read and not kept."""
        den = self._den
        return {idx: _scalar(a, b, den) for idx, (a, b) in self._ints.items()}

    @staticmethod
    def from_kets(dims, kets) -> "PureState":
        """Build from a list of (i, j, k) or ((i, j, k), coeff) entries."""
        amps: dict = {}
        for item in kets:
            if len(item) == 3 and all(isinstance(x, int) for x in item):
                idx, coeff = tuple(item), ONE
            else:
                idx, coeff = tuple(item[0]), GaussianRational.coerce(item[1])
            amps[idx] = amps.get(idx, ZERO) + coeff
        return PureState(dims, amps)

    def normalized_leading(self) -> "PureState":
        """Scale so the lexicographically first nonzero amplitude is 1."""
        c, d = self._ints[min(self._ints)]
        # v / v0 = n / n0 = n * conj(n0) / |n0|^2: the denominator cancels
        ints = {idx: (a * c + b * d, b * c - a * d) for idx, (a, b) in self._ints.items()}
        return PureState._from_ints(self.dims, ints, c * c + d * d)

    def equals_up_to_scalar(self, other: "PureState") -> bool:
        if self.dims != other.dims or self._ints.keys() != other._ints.keys():
            return False
        first = min(self._ints)
        pr, pi = self._ints[first]
        qr, qi = other._ints[first]
        # self = lambda * other iff n_k * m_first == m_k * n_first for every k
        for idx, (a, b) in self._ints.items():
            c, d = other._ints[idx]
            if a * qr - b * qi != c * pr - d * pi or a * qi + b * qr != c * pi + d * pr:
                return False
        return True

    def __eq__(self, other):
        return isinstance(other, PureState) and self.equals_up_to_scalar(other)

    def __hash__(self):
        n = self.normalized_leading()
        return hash((n.dims, n._den, tuple(sorted(n._ints.items()))))

    def __repr__(self):
        terms = ", ".join(
            f"{idx}:{val}" for idx, val in sorted(self.amps.items())
        )
        return f"PureState(dims={self.dims}, {{{terms}}})"

    # -- slices --------------------------------------------------------------

    def slices(self, party: str):
        p = PARTIES.index(party)
        q1, q2 = [q for q in range(3) if q != p]
        d1, d2 = self.dims[q1], self.dims[q2]
        grids = [[[(0, 0)] * d2 for _ in range(d1)] for _ in range(self.dims[p])]
        for idx, v in self._ints.items():
            grids[idx[p]][idx[q1]][idx[q2]] = v
        return [Matrix._from_ints(g, [self._den] * d1, d2) for g in grids]

    # -- core operations -----------------------------------------------------

    def local_ranks(self) -> LocalRankProfile:
        """The kernel's pivot counts on the unfoldings' integer grids."""
        grids = [_grid(self.dims, self._ints, p) for p in range(3)]
        return LocalRankProfile(*(len(_eliminate(g, len(g[0]))[0]) for g in grids))

    def apply_local(self, party: str, m: Matrix) -> "PureState":
        """Contract the chosen index with a square matrix (new = m @ old)."""
        p = PARTIES.index(party)
        d = self.dims[p]
        if m.shape() != (d, d):
            raise ValueError(f"operator shape {m.shape()} does not match dim {d}")
        rows, dens = m._int_form()
        big = lcm(*dens)
        # column src of m over the one denominator big: [(dst, entry), ...]
        cols = [[] for _ in range(d)]
        for dst, (row, rd) in enumerate(zip(rows, dens)):
            f = big // rd
            for src, (c, e) in enumerate(row):
                if c or e:
                    cols[src].append((dst, c * f, e * f))
        ints: dict = {}
        for idx, (a, b) in self._ints.items():
            for dst, c, e in cols[idx[p]]:
                key = idx[:p] + (dst,) + idx[p + 1:]
                re, im = ints.get(key, (0, 0))
                ints[key] = (re + a * c - b * e, im + a * e + b * c)
        if not any(a or b for a, b in ints.values()):
            raise ValueError("local operator annihilates the state (singular)")
        return PureState._from_ints(self.dims, ints, self._den * big)

    def permute_parties(self, order) -> "PureState":
        """Relabel parties; order is a permutation string such as 'BAC'."""
        perm = [PARTIES.index(ch) for ch in order]
        if sorted(perm) != [0, 1, 2]:
            raise ValueError(f"bad permutation {order!r}")
        dims = tuple(self.dims[p] for p in perm)
        ints = {tuple(idx[p] for p in perm): v for idx, v in self._ints.items()}
        return PureState._from_ints(dims, ints, self._den)


def compress_to_ranks(s: PureState, transform: bool = True):
    """Shrink each party dimension to its local rank.

    Returns (state, per-party basis changes applied in the original dims).
    The basis changes map the support onto the leading basis vectors; trailing
    dimensions are dropped.  The local ranks are the pivot counts of the
    three row reductions, so the compressed dims are the local ranks.  One
    loop carries the integer amplitudes from party to party: each party's
    reduced rows, brought to their lcm (no content left), are the next
    party's amplitudes.  The state depends only on the reduced rows, so with
    ``transform=False`` each unfolding is reduced alone
    (``Matrix.rref(transform=False)``) and the basis changes are None.
    """
    changes = {}
    ranks = []
    ints, den = s._ints, s._den
    for p, party in enumerate(PARTIES):
        q1, q2 = [q for q in range(3) if q != p]
        d2 = s.dims[q2]
        grid = _grid(s.dims, ints, p)
        r, pivots, changes[party] = Matrix._from_ints(
            grid, [den] * len(grid), len(grid[0])).rref(transform)
        ranks.append(len(pivots))
        # applying the basis change to the party turns its unfolding into r
        rows, dens = r._int_form()
        den = lcm(*dens)
        ints = {}
        for i, (row, d) in enumerate(zip(rows, dens)):
            f = den // d
            for col, (a, b) in enumerate(row):
                if a or b:
                    idx = [0, 0, 0]
                    idx[p] = i
                    idx[q1], idx[q2] = divmod(col, d2)
                    ints[tuple(idx)] = (a * f, b * f)
    for idx in ints:
        if any(idx[q] >= ranks[q] for q in range(3)):
            raise AssertionError("support outside rank block after compression")
    return PureState._from_ints(tuple(ranks), ints, den), changes if transform else None
