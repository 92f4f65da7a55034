"""Canonical representatives of the true-tripartite 2 x M x N classes.

One table gives every family: ``_SMALL`` the shape and kets of each small
family (GHZ and W in 2x2x2, Psi1..Psi6 in 2x3x3, and two 2x4x4 examples
that no theorem classifies), ``_PARAMETRIC`` the shape offset, least
parameter and kets of each parametric family (Upsilon0, Upsilon1/2 and
Theta0..Theta5).  Label validation, the canonical states and the labels of
a shape are all read from it; at the Theta shape's least parameter, 2x3x4,
only five classes survive, since Theta4's least parameter is 2.  Expression
generators (I)-(V) cover the bracketed 2x3x3 normal forms used in
exhaustive sweeps.
"""

from __future__ import annotations

from dataclasses import dataclass

from .scalars import GaussianRational, _int_row
from .states import PureState

# small family -> (shape, kets with amplitude one)
_SMALL = {
    "GHZ": ((2, 2, 2), [(0, 0, 0), (1, 1, 1)]),
    "W": ((2, 2, 2), [(0, 0, 1), (0, 1, 0), (1, 0, 0)]),
    "Psi1": ((2, 3, 3), [(0, 0, 0), (1, 1, 1), (0, 2, 2), (1, 2, 2)]),
    "Psi2": ((2, 3, 3), [(0, 1, 0), (0, 0, 1), (1, 1, 2), (1, 2, 1)]),
    "Psi3": ((2, 3, 3), [(0, 0, 0), (1, 1, 1), (0, 2, 2)]),
    "Psi4": ((2, 3, 3), [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 2), (1, 2, 1)]),
    "Psi5": ((2, 3, 3), [(1, 0, 0), (0, 1, 0), (0, 0, 1), (0, 2, 2)]),
    "Psi6": ((2, 3, 3), [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 2, 2)]),
    "Phi0Example": ((2, 4, 4), [(0, 0, 0), (1, 1, 1), (0, 2, 2), (0, 3, 3)]),
    "Phi1Example": ((2, 4, 4), [(0, 0, 1), (0, 1, 0), (1, 0, 0), (0, 2, 2), (0, 3, 3)]),
}
# examples of an unclassified shape: no shape lists them among its labels
_EXAMPLES = ("Phi0Example", "Phi1Example")

# parametric family -> (k, least m, the family it extends, its kets at m in
# front of that family's).  Its canonical state at m lives in
# 2 x (m + k) x (2m + k); Upsilon0(m) is the sum of |0,i,i> + |1,i,i+m>.
_PARAMETRIC = {
    "Upsilon0": (0, 2, None, lambda m: [k for i in range(m) for k in ((0, i, i), (1, i, i + m))]),
    "Upsilon1": (1, 1, "Upsilon0", lambda m: [(0, m, 2 * m)]),
    "Upsilon2": (1, 1, "Upsilon0", lambda m: [(0, m, 2 * m), (1, m, m - 1)]),
    "Theta0": (2, 1, "Upsilon1", lambda m: [(1, m + 1, 2 * m + 1)]),
    "Theta1": (2, 1, "Upsilon1", lambda m: [(0, m + 1, 2 * m + 1)]),
    "Theta2": (2, 1, "Upsilon2", lambda m: [(1, m + 1, 2 * m + 1)]),
    "Theta3": (2, 1, "Upsilon1", lambda m: [(0, m + 1, 2 * m + 1), (1, m + 1, 2 * m)]),
    "Theta4": (2, 2, "Upsilon2", lambda m: [(0, m + 1, 2 * m + 1), (1, m + 1, 0)]),
    "Theta5": (2, 1, "Upsilon2", lambda m: [(0, m + 1, 2 * m + 1), (1, m + 1, 2 * m)]),
}

SMALL_FAMILIES = tuple(_SMALL)
PARAMETRIC_FAMILIES = tuple(_PARAMETRIC)
SENTINEL_FAMILIES = ("NotTrueTripartite", "Unknown")


@dataclass(frozen=True)
class ClassLabel:
    """A SLOCC class name: family plus (for parametric families) a parameter.

    The parameter counts the repeated block; it is at least the family's
    least m in ``_PARAMETRIC``.
    """

    family: str
    m_parameter: int | None = None

    def __post_init__(self):
        if self.family in SMALL_FAMILIES or self.family in SENTINEL_FAMILIES:
            if self.m_parameter is not None:
                raise ValueError(f"{self.family} takes no parameter")
            return
        if self.family not in _PARAMETRIC:
            raise ValueError(f"unknown family {self.family!r}")
        if self.m_parameter is None:
            raise ValueError(f"{self.family} needs a parameter")
        least = _PARAMETRIC[self.family][1]
        if self.m_parameter < least:
            raise ValueError(f"{self.family} needs m >= {least}")

    def render(self) -> str:
        if self.m_parameter is None:
            return self.family
        return f"{self.family}({self.m_parameter})"

    @staticmethod
    def parse(text: str) -> "ClassLabel":
        text = text.strip()
        if "(" in text:
            fam, rest = text.split("(", 1)
            return ClassLabel(fam.strip(), int(rest.rstrip(") ")))
        return ClassLabel(text)


def canonical_dims(family: str, m: int | None = None) -> tuple:
    """The shape of a family's canonical state at parameter ``m``."""
    if family in _SMALL:
        return _SMALL[family][0]
    k = _PARAMETRIC[family][0]
    return (2, m + k, 2 * m + k)


def _parametric_kets(family: str, m: int) -> list:
    _, _, base, kets = _PARAMETRIC[family]
    return kets(m) + (_parametric_kets(base, m) if base else [])


def make_canonical(label: ClassLabel) -> PureState:
    """The canonical representative state for a class label."""
    fam, m = label.family, label.m_parameter
    if fam in SENTINEL_FAMILIES:
        raise ValueError(f"{fam} has no canonical state")
    if fam in _SMALL:
        return PureState.from_kets(*_SMALL[fam])
    return PureState.from_kets(canonical_dims(fam, m), _parametric_kets(fam, m))


def all_labels_for_shape(dims) -> list[ClassLabel]:
    """Every class label whose canonical state has exactly these dims."""
    dims = tuple(dims)
    d_a, d_b, d_c = dims
    out = [
        ClassLabel(fam) for fam, (shape, _) in _SMALL.items()
        if shape == dims and fam not in _EXAMPLES
    ]
    for fam, (k, least, _, _) in _PARAMETRIC.items():
        m = d_b - k
        if d_a == 2 and d_c == 2 * m + k and m >= least:
            out.append(ClassLabel(fam, m))
    return out


# -- parametrized 2x3x3 expression generators --------------------------------


# the kets whose coefficient is one, per expression
_UNIT_KETS = {
    "I": ((0, 0, 0), (1, 1, 1)),
    "II": ((0, 0, 1), (0, 1, 0), (1, 0, 0)),
    "III": ((0, 0, 0), (1, 1, 1)),
    "IV": ((0, 0, 1), (0, 1, 0), (1, 0, 0)),
    "V": ((0, 2, 2), (1, 2, 1), (0, 0, 0), (1, 1, 0)),
}


def make_expression(which: str, a=0, b=0, c=0, d=0, f=0, g=0) -> PureState:
    """Build one of the five 2x3x3 normal-form expressions.

    I:   (a|0> + b|1>)|22> + |000> + |111>
    II:  (a|0> + b|1>)|22> + |001> + |010> + |100>
    III: I  + (c|0> + d|1>)|2>(f|0> + g|1>)
    IV:  II + (c|0> + d|1>)|2>(f|0> + g|1>)
    V:   |022> + |121> + |000> + |110>

    The coefficients are ints, Fractions or GaussianRationals; brackets
    (a, b), and for III and IV (c, d) and (f, g), must be nonzero.  The
    amplitudes are built as Gaussian integers over one denominator: the six
    coefficients over their least common denominator D, and for III and
    IV, whose products c*f, c*g, d*f, d*g are over D^2, everything else
    scaled up to D^2 as well.
    """
    if which not in _UNIT_KETS:
        raise ValueError(f"unknown expression {which!r}")
    if which == "V":
        return PureState._from_ints((2, 3, 3), dict.fromkeys(_UNIT_KETS["V"], (1, 0)))
    if not (a or b):
        raise ValueError("bracket (a, b) must be nonzero")
    mixed = which in ("III", "IV")
    if mixed and not ((c or d) and (f or g)):
        raise ValueError("brackets (c, d) and (f, g) must be nonzero")
    (a, b, c, d, f, g), den = _int_row([GaussianRational.coerce(v) for v in (a, b, c, d, f, g)])
    scale = den if mixed else 1
    ints = dict.fromkeys(_UNIT_KETS[which], (den * scale, 0))
    ints[(0, 2, 2)] = (a[0] * scale, a[1] * scale)
    ints[(1, 2, 2)] = (b[0] * scale, b[1] * scale)
    if mixed:
        for i, (cr, ci) in enumerate((c, d)):
            for k, (fr, fi) in enumerate((f, g)):
                ints[(i, 2, k)] = (cr * fr - ci * fi, cr * fi + ci * fr)
    return PureState._from_ints((2, 3, 3), ints, den * scale)


def expression_branch_label(which: str, a=0, b=0, c=0, d=0, f=0, g=0) -> ClassLabel:
    """The predicted class of an expression from its coefficient conditions,
    the coefficients given as to :func:`make_expression`.

    I:  ab != 0 -> Psi1, else Psi3.   II: b != 0 -> Psi6, else Psi5.
    IV: b != 0 -> Psi6; for b = 0 the |121> coefficient dg decides: dg != 0
    -> Psi4, else the second bracket degenerates into the expression-II
    pattern and the state is Psi5.  V -> Psi2.  III has no closed branch rule
    here and is classified directly.
    """
    if which == "I":
        return ClassLabel("Psi1") if a and b else ClassLabel("Psi3")
    if which == "II":
        return ClassLabel("Psi6") if b else ClassLabel("Psi5")
    if which == "IV":
        if b:
            return ClassLabel("Psi6")
        return ClassLabel("Psi4") if d and g else ClassLabel("Psi5")
    if which == "V":
        return ClassLabel("Psi2")
    raise ValueError(f"no closed branch rule for expression {which!r}")
