"""Canonical family states, labels, and the 2x3x3 expression generators."""

import importlib.util
import itertools
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from slocc2mn.scalars import GaussianRational, ZERO
from slocc2mn.states import PureState
from slocc2mn.families import (
    SMALL_FAMILIES,
    PARAMETRIC_FAMILIES,
    ClassLabel,
    make_canonical,
    make_expression,
    expression_branch_label,
    all_labels_for_shape,
)
from slocc2mn.classify import classify


def test_label_parse_render_round_trip():
    for text in ("GHZ", "Psi4", "Upsilon0(3)", "Theta5(2)", "Upsilon1(1)"):
        assert ClassLabel.parse(text).render() == text


def test_label_validation():
    with pytest.raises(ValueError):
        ClassLabel("GHZ", 2)  # no parameter allowed
    with pytest.raises(ValueError):
        ClassLabel("Upsilon0")  # parameter required
    with pytest.raises(ValueError):
        ClassLabel("Upsilon0", 1)  # minimum parameter is 2
    with pytest.raises(ValueError):
        ClassLabel("Theta4", 1)  # absent from the 2x3x4 shape
    with pytest.raises(ValueError):
        ClassLabel("NoSuchFamily")


def test_canonical_dims():
    expected = {
        ("GHZ", None): (2, 2, 2),
        ("W", None): (2, 2, 2),
        ("Psi1", None): (2, 3, 3),
        ("Phi0Example", None): (2, 4, 4),
        ("Upsilon0", 3): (2, 3, 6),
        ("Upsilon1", 2): (2, 3, 5),
        ("Upsilon2", 2): (2, 3, 5),
        ("Theta0", 2): (2, 4, 6),
        ("Theta3", 1): (2, 3, 4),
    }
    for (fam, m), dims in expected.items():
        s = make_canonical(ClassLabel(fam, m))
        assert s.dims == dims
        # every canonical representative is a true tripartite state
        assert s.local_ranks().as_tuple() == dims


def test_sentinels_have_no_canonical_state():
    with pytest.raises(ValueError):
        make_canonical(ClassLabel("Unknown"))


def test_all_labels_for_shape():
    assert [l.render() for l in all_labels_for_shape((2, 2, 2))] == ["GHZ", "W"]
    assert len(all_labels_for_shape((2, 3, 3))) == 6
    assert [l.render() for l in all_labels_for_shape((2, 2, 3))] == [
        "Upsilon1(1)",
        "Upsilon2(1)",
    ]
    theta_m1 = [l.render() for l in all_labels_for_shape((2, 3, 4))]
    assert "Theta4(1)" not in theta_m1 and len(theta_m1) == 5
    assert len(all_labels_for_shape((2, 4, 6))) == 6
    assert all_labels_for_shape((3, 4, 5)) == []
    assert all_labels_for_shape((2, 4, 4)) == []  # deliberately uncovered shape


def test_labels_are_dims_consistent():
    for dims in itertools.product(range(1, 4), range(1, 17), range(1, 17)):
        if dims[1] <= dims[2]:
            for label in all_labels_for_shape(dims):
                assert make_canonical(label).dims == dims


def test_every_library_label_is_listed_for_its_shape():
    labels = [ClassLabel(fam) for fam in SMALL_FAMILIES]
    for fam in PARAMETRIC_FAMILIES:
        for m in range(7):
            try:
                labels.append(ClassLabel(fam, m))
            except ValueError:
                pass  # below the family's least parameter
    assert {label.family for label in labels} == set(SMALL_FAMILIES + PARAMETRIC_FAMILIES)
    # all but the examples of an unclassified shape
    for label in labels:
        listed = label in all_labels_for_shape(make_canonical(label).dims)
        assert listed == (label.family not in ("Phi0Example", "Phi1Example"))


def test_benchmark_library_labels_match_the_table(monkeypatch):
    # the benchmark keeps its own list of the library's labels
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # for its dataclasses
    spec.loader.exec_module(workloads)
    bench = workloads.library_labels(3)
    shapes = {make_canonical(label).dims for label in bench}
    table = [label for dims in shapes for label in all_labels_for_shape(dims)]
    assert len(bench) == len(set(bench))
    assert set(bench) == set(table)


def test_expression_structures():
    s = make_expression("I", a=1, b=2)
    assert s.dims == (2, 3, 3)
    assert s.amps.get((0, 2, 2), ZERO) == GaussianRational(1)
    assert s.amps.get((1, 2, 2), ZERO) == GaussianRational(2)
    s5 = make_expression("V")
    assert len(s5.amps) == 4


def test_expression_rejects_zero_brackets():
    with pytest.raises(ValueError):
        make_expression("I", a=0, b=0)
    with pytest.raises(ValueError):
        make_expression("III", a=1, b=1, c=0, d=0, f=1, g=1)
    with pytest.raises(ValueError):
        make_expression("nope", a=1, b=1)


def _oracle_expression(which, **kw):
    """The five expressions built by GaussianRational additions, one ket at a
    time."""
    a, b, c, d, f, g = (GaussianRational.coerce(kw.get(k, 0)) for k in "abcdfg")
    amps = {}

    def add(i, j, k, v):
        if not v.is_zero():
            amps[(i, j, k)] = amps.get((i, j, k), ZERO) + v

    one = GaussianRational(1)
    if which == "V":
        for idx in ((0, 2, 2), (1, 2, 1), (0, 0, 0), (1, 1, 0)):
            add(*idx, one)
        return PureState((2, 3, 3), amps)
    if a.is_zero() and b.is_zero():
        raise ValueError("bracket (a, b) must be nonzero")
    add(0, 2, 2, a)
    add(1, 2, 2, b)
    if which in ("I", "III"):
        for idx in ((0, 0, 0), (1, 1, 1)):
            add(*idx, one)
    else:
        for idx in ((0, 0, 1), (0, 1, 0), (1, 0, 0)):
            add(*idx, one)
    if which in ("III", "IV"):
        if (c.is_zero() and d.is_zero()) or (f.is_zero() and g.is_zero()):
            raise ValueError("brackets (c, d) and (f, g) must be nonzero")
        for i, ci in ((0, c), (1, d)):
            for k, fk in ((0, f), (1, g)):
                add(i, 2, k, ci * fk)
    return PureState((2, 3, 3), amps)


@pytest.mark.parametrize("which", ["I", "II", "III", "IV", "V"])
def test_expression_matches_rational_oracle(which):
    # every coefficient point of {-1, 0, 1}^6, then points with denominators
    # and imaginary parts: the same amplitudes, not just the same state up
    # to scalar, and a ValueError exactly where the oracle raises one
    rng = random.Random(5)
    odd = (ZERO, GaussianRational(Fraction(-1, 2)), GaussianRational(Fraction(2, 3), 1),
           GaussianRational(0, Fraction(-1, 3)), GaussianRational(3, Fraction(5, 4)))
    points = list(itertools.product((-1, 0, 1), repeat=6))
    points += [[rng.choice(odd) for _ in range(6)] for _ in range(300)]
    for point in points:
        kw = dict(zip("abcdfg", point))
        try:
            expected = _oracle_expression(which, **kw)
        except ValueError:
            with pytest.raises(ValueError):
                make_expression(which, **kw)
            continue
        state = make_expression(which, **kw)
        assert state.dims == expected.dims
        assert state.amps == expected.amps


def test_expression_branch_rules_match_classifier():
    cases = [
        ("I", dict(a=1, b=1)),
        ("I", dict(a=1, b=0)),
        ("II", dict(a=1, b=2)),
        ("II", dict(a=1, b=0)),
        ("IV", dict(a=2, b=1, c=1, d=1, f=1, g=2)),
        ("IV", dict(a=1, b=0, c=1, d=0, f=0, g=1)),
        ("V", dict()),
    ]
    for which, kw in cases:
        state = make_expression(which, **kw)
        if state.local_ranks().as_tuple() != (2, 3, 3):
            continue
        assert classify(state, want_proof=False).label == expression_branch_label(which, **kw)


def test_branch_rule_rejects_expression_three():
    with pytest.raises(ValueError):
        expression_branch_label("III", a=1, b=1, c=1, d=1, f=1, g=1)
