import random

import pytest

from conftest import random_formula, random_lasso
from pmcsynth.gba import (
    CapacityError,
    GbaError,
    check_reverse_deterministic,
    dump,
    elementary,
    make_gba,
    sat_relation,
    translate,
)
from pmcsynth.ltl import (
    LassoWord,
    Next,
    Until,
    eval_lasso,
    parse_formula,
    subformulas,
)
from pmcsynth.product import accepts_lasso


def test_elementary_membership_and_order():
    f = parse_formula("a U b")
    assert elementary(f) == (Next(f),)

    gfa = parse_formula("G F a")
    el = elementary(gfa)
    assert len(el) == 2
    # inner F a occurs first bottom-up, so its promise gets bit 0
    fa = parse_formula("F a")
    assert el[0] == Next(fa)

    assert elementary(parse_formula("a & !b")) == ()
    assert elementary(parse_formula("X X a")) == (
        Next(parse_formula("a")),
        Next(parse_formula("X a")),
    )


@pytest.mark.parametrize(
    "text",
    ["a U b", "G F a", "F G a", "a U (b U a)", "X a & F b", "G (a -> F b)"],
)
def test_translate_matches_satisfaction_relation(text):
    """Every edge of the tableau agrees with the reference relation.

    For each letter a and target subset U there must be exactly one subset
    source V (the promise set forced by (U, a)), plus an edge from the
    initial state exactly when (U, a) satisfies the formula itself, and the
    acceptance sets must mark exactly the edges where each until is
    discharged or not owed.
    """
    f = parse_formula(text)
    A = translate(f)
    el = A.el
    n = A.n_el
    init_id = 1 << n
    untils = [s for s in subformulas(f) if isinstance(s, Until)]
    assert len(A.acceptance) == len(untils)

    for a_mask in range(A.n_letters()):
        letter = A.mask_letter(a_mask)
        for U in range(1 << n):
            U_set = frozenset(el[i] for i in range(n) if U >> i & 1)
            V = 0
            for i, x in enumerate(el):
                if sat_relation(U_set, letter, x.arg):
                    V |= 1 << i
            for src in range(1 << n):
                present = U in A.transitions.get((src, a_mask), ())
                assert present == (src == V)
            init_edge = U in A.transitions.get((init_id, a_mask), ())
            assert init_edge == sat_relation(U_set, letter, f)

            srcs = [V, init_id] if init_edge else [V]
            for k, u in enumerate(untils):
                marked = sat_relation(U_set, letter, u.right) or not sat_relation(
                    U_set, letter, u
                )
                for src in srcs:
                    assert ((src, a_mask, U) in A.acceptance[k]) == marked


def test_translate_state_count():
    A = translate(parse_formula("G F a"))
    assert len(A.states) == (1 << A.n_el) + 1
    assert A.initial == (1 << A.n_el,)
    assert A.states[-1] == "init"


def test_translate_el_cap():
    with pytest.raises(CapacityError):
        translate(parse_formula("G F a"), el_cap=1)
    translate(parse_formula("G F a"), el_cap=2)  # at the cap is fine


def test_tableau_is_reverse_deterministic():
    rng = random.Random(7)
    seen = 0
    while seen < 40:
        f = random_formula(rng)
        if len(elementary(f)) > 4:
            continue
        seen += 1
        report = check_reverse_deterministic(translate(f))
        assert report.exactly_one, f"{f} -> {report.violations[:3]}"
        assert report.at_most_one


def _loop_automaton():
    # two-state loop with a branch; q1 has no x-predecessor, so the
    # reenterable part is at-most-one but not exactly-one reverse
    # deterministic.
    return make_gba(
        ap=("w", "x", "y", "z"),
        states=("q1", "q2", "q3"),
        initial=("q1",),
        edges=[
            ("q1", {"x"}, "q2"),
            ("q1", {"w"}, "q2"),
            ("q2", {"y"}, "q1"),
            ("q2", {"z"}, "q1"),
            ("q2", {"y"}, "q3"),
            ("q3", {"y"}, "q2"),
        ],
        acceptance=[[("q2", {"y"}, "q1")]],
    )


def test_hand_built_automaton_rd_report():
    A = _loop_automaton()
    report = check_reverse_deterministic(A)
    assert report.at_most_one
    assert not report.exactly_one
    assert report.reenterable == {0, 1, 2}
    # (q1, {x}) has no predecessor: the count-zero violation is recorded
    assert (0, A.letter_mask(frozenset({"x"})), 0) in report.violations


def test_make_gba_validation():
    with pytest.raises(GbaError):
        make_gba(("a",), ("s", "s"), ("s",), [])
    with pytest.raises(GbaError):
        make_gba(
            ("a",),
            ("s", "t"),
            ("s",),
            [("s", {"a"}, "t")],
            acceptance=[[("t", {"a"}, "s")]],  # not a transition
        )


def test_letter_mask_round_trip():
    A = _loop_automaton()
    for mask in range(A.n_letters()):
        assert A.letter_mask(A.mask_letter(mask)) == mask
    # props outside ap are ignored
    assert A.letter_mask(frozenset({"x", "unknown"})) == A.letter_mask(
        frozenset({"x"})
    )


W, X, Y, Z = (frozenset({p}) for p in "wxyz")


def test_accepts_lasso_hand_cases():
    A = _loop_automaton()
    # (x y)^w cycles q1 -> q2 -> q1 through the accepting edge
    assert accepts_lasso(A, LassoWord((), (X, Y)))
    # (x z)^w avoids the accepting edge forever
    assert not accepts_lasso(A, LassoWord((), (X, Z)))
    # x y y y ... gets stuck alternating q2/q3 without the accepting edge
    assert not accepts_lasso(A, LassoWord((X,), (Y,)))
    # w z x y (x y)^w reaches the good cycle after a detour
    assert accepts_lasso(A, LassoWord((W, Z), (X, Y)))


def test_accepts_lasso_agrees_with_semantics():
    rng = random.Random(19)
    checked = 0
    while checked < 60:
        f = random_formula(rng)
        if len(elementary(f)) > 3:
            continue
        checked += 1
        A = translate(f)
        for _ in range(8):
            w = random_lasso(rng)
            assert accepts_lasso(A, w) == eval_lasso(f, w), (f, w)


def test_dump_shape():
    A = translate(parse_formula("F a"))
    text = dump(A)
    lines = text.splitlines()
    assert lines[0] == "ap: a"
    assert lines[1].startswith("init:")
    assert sum(1 for l in lines if l.startswith("state ")) == len(A.states)
    assert sum(1 for l in lines if l.startswith("edge ")) == len(A.edges())
    assert any(l.startswith("acc 0:") for l in lines)
