"""Canonical representatives of the true-tripartite 2 x M x N classes.

Small-system classes: GHZ and W (2x2x2), Psi1..Psi6 (2x3x3).  Parametric
families: Upsilon0(M) in 2 x M x 2M, Upsilon1(M)/Upsilon2(M) in
2 x (M+1) x (2M+1), Theta0(M)..Theta5(M) in 2 x (M+2) x (2M+2).  The shape
2 x 3 x 4 (parameter value 1 of the Theta shape) is special: only five
classes survive there, with Theta4 absent, and dedicated representatives are
provided.  Expression generators (I)-(V) cover the bracketed 2x3x3 normal
forms used in exhaustive sweeps.
"""

from __future__ import annotations

from dataclasses import dataclass

from .scalars import GaussianRational, _int_row
from .states import PureState

SMALL_FAMILIES = (
    "GHZ", "W", "Psi1", "Psi2", "Psi3", "Psi4", "Psi5", "Psi6",
    "Phi0Example", "Phi1Example",
)
PARAMETRIC_FAMILIES = (
    "Upsilon0", "Upsilon1", "Upsilon2",
    "Theta0", "Theta1", "Theta2", "Theta3", "Theta4", "Theta5",
)
SENTINEL_FAMILIES = ("NotTrueTripartite", "Unknown")


@dataclass(frozen=True)
class ClassLabel:
    """A SLOCC class name: family plus (for parametric families) a parameter.

    The parameter counts the repeated block: Upsilon0(m) lives in 2 x m x 2m
    with m >= 2, Upsilon1/2(m) in 2 x (m+1) x (2m+1) with m >= 1, and
    Theta*(m) in 2 x (m+2) x (2m+2) with m >= 2; at m == 1 the Theta shape is
    2 x 3 x 4 where Theta4 does not occur.
    """

    family: str
    m_parameter: int | None = None

    def __post_init__(self):
        if self.family in SMALL_FAMILIES or self.family in SENTINEL_FAMILIES:
            if self.m_parameter is not None:
                raise ValueError(f"{self.family} takes no parameter")
            return
        if self.family not in PARAMETRIC_FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        m = self.m_parameter
        if m is None:
            raise ValueError(f"{self.family} needs a parameter")
        if self.family == "Upsilon0" and m < 2:
            raise ValueError("Upsilon0 needs m >= 2")
        if self.family in ("Upsilon1", "Upsilon2") and m < 1:
            raise ValueError(f"{self.family} needs m >= 1")
        if self.family.startswith("Theta"):
            if m < 1:
                raise ValueError(f"{self.family} needs m >= 1")
            if m == 1 and self.family == "Theta4":
                raise ValueError("Theta4 does not occur in the 2x3x4 shape (m == 1)")

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


def _upsilon0_kets(m: int):
    kets = []
    for i in range(m):
        kets.append((0, i, i))
        kets.append((1, i, i + m))
    return kets


def make_canonical(label: ClassLabel) -> PureState:
    """The canonical representative state for a class label."""
    fam, m = label.family, label.m_parameter
    if fam in SENTINEL_FAMILIES:
        raise ValueError(f"{fam} has no canonical state")
    if fam == "GHZ":
        return PureState.from_kets((2, 2, 2), [(0, 0, 0), (1, 1, 1)])
    if fam == "W":
        return PureState.from_kets((2, 2, 2), [(0, 0, 1), (0, 1, 0), (1, 0, 0)])
    if fam == "Psi1":
        return PureState.from_kets(
            (2, 3, 3), [(0, 0, 0), (1, 1, 1), (0, 2, 2), (1, 2, 2)]
        )
    if fam == "Psi2":
        return PureState.from_kets(
            (2, 3, 3), [(0, 1, 0), (0, 0, 1), (1, 1, 2), (1, 2, 1)]
        )
    if fam == "Psi3":
        return PureState.from_kets((2, 3, 3), [(0, 0, 0), (1, 1, 1), (0, 2, 2)])
    if fam == "Psi4":
        return PureState.from_kets(
            (2, 3, 3), [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 2), (1, 2, 1)]
        )
    if fam == "Psi5":
        return PureState.from_kets(
            (2, 3, 3), [(1, 0, 0), (0, 1, 0), (0, 0, 1), (0, 2, 2)]
        )
    if fam == "Psi6":
        return PureState.from_kets(
            (2, 3, 3), [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 2, 2)]
        )
    if fam == "Phi0Example":
        return PureState.from_kets(
            (2, 4, 4), [(0, 0, 0), (1, 1, 1), (0, 2, 2), (0, 3, 3)]
        )
    if fam == "Phi1Example":
        return PureState.from_kets(
            (2, 4, 4), [(0, 0, 1), (0, 1, 0), (1, 0, 0), (0, 2, 2), (0, 3, 3)]
        )
    if fam == "Upsilon0":
        return PureState.from_kets((2, m, 2 * m), _upsilon0_kets(m))
    if fam == "Upsilon1":
        kets = [(0, m, 2 * m)] + _upsilon0_kets(m)
        return PureState.from_kets((2, m + 1, 2 * m + 1), kets)
    if fam == "Upsilon2":
        kets = [(0, m, 2 * m), (1, m, m - 1)] + _upsilon0_kets(m)
        return PureState.from_kets((2, m + 1, 2 * m + 1), kets)
    if fam.startswith("Theta"):
        if m == 1:
            return _theta_2x3x4(fam)
        base1 = [(0, m, 2 * m)] + _upsilon0_kets(m)  # Upsilon1 block
        base2 = [(0, m, 2 * m), (1, m, m - 1)] + _upsilon0_kets(m)  # Upsilon2 block
        dims = (2, m + 2, 2 * m + 2)
        extra = {
            "Theta0": ([(1, m + 1, 2 * m + 1)], base1),
            "Theta1": ([(0, m + 1, 2 * m + 1)], base1),
            "Theta2": ([(1, m + 1, 2 * m + 1)], base2),
            "Theta3": ([(0, m + 1, 2 * m + 1), (1, m + 1, 2 * m)], base1),
            "Theta4": ([(0, m + 1, 2 * m + 1), (1, m + 1, 0)], base2),
            "Theta5": ([(0, m + 1, 2 * m + 1), (1, m + 1, 2 * m)], base2),
        }[fam]
        return PureState.from_kets(dims, extra[0] + extra[1])
    raise ValueError(f"unknown family {fam!r}")


def _theta_2x3x4(fam: str) -> PureState:
    """Representatives of the five classes surviving in the 2x3x4 shape."""
    dims = (2, 3, 4)
    kets = {
        "Theta0": [(1, 2, 3), (0, 1, 2), (0, 0, 0), (1, 0, 1)],
        "Theta1": [(0, 2, 3), (0, 1, 2), (0, 0, 0), (1, 0, 1)],
        "Theta2": [(1, 2, 3), (0, 1, 2), (1, 1, 0), (0, 0, 0), (1, 0, 1)],
        "Theta3": [(0, 2, 3), (1, 2, 2), (0, 1, 2), (0, 0, 0), (1, 0, 1)],
        "Theta5": [(0, 2, 3), (1, 2, 2), (0, 1, 2), (1, 1, 0), (0, 0, 0), (1, 0, 1)],
    }
    if fam not in kets:
        raise ValueError(f"{fam} does not occur in the 2x3x4 shape")
    return PureState.from_kets(dims, kets[fam])


def all_labels_for_shape(dims) -> list[ClassLabel]:
    """Every class label whose canonical state has exactly these dims."""
    d_a, d_b, d_c = dims
    if d_a != 2:
        return []
    if (d_b, d_c) == (2, 2):
        return [ClassLabel("GHZ"), ClassLabel("W")]
    if (d_b, d_c) == (3, 3):
        return [ClassLabel(f"Psi{i}") for i in range(1, 7)]
    out: list[ClassLabel] = []
    if d_c == 2 * d_b and d_b >= 2:
        out.append(ClassLabel("Upsilon0", d_b))
    if d_c == 2 * d_b - 1 and d_b >= 2:
        out.append(ClassLabel("Upsilon1", d_b - 1))
        out.append(ClassLabel("Upsilon2", d_b - 1))
    if d_c == 2 * d_b - 2 and d_b >= 3:
        m = d_b - 2
        fams = ["Theta0", "Theta1", "Theta2", "Theta3", "Theta4", "Theta5"]
        if m == 1:
            fams.remove("Theta4")
        out.extend(ClassLabel(f, m) for f in fams)
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
