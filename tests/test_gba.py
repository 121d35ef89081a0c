import random
from dataclasses import replace

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from random_inputs import SEED, formula_corpus, random_formula, random_lasso
from pmcsynth import gba
from pmcsynth.gba import (
    CapacityError,
    Gba,
    GbaError,
    check_reverse_deterministic,
    dump,
    elementary,
    make_gba,
    sat_relation,
    translate,
)
from pmcsynth.ltl import (
    And,
    Atom,
    LassoWord,
    LtlError,
    LtlFormula,
    Next,
    Not,
    Top,
    Until,
    atomic_props,
    eval_lasso,
    parse_formula,
    pretty,
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
    el = elementary(f)
    n = len(el)
    init_id = 1 << n
    untils = [s for s in subformulas(f) if isinstance(s, Until)]
    assert A.n_sets == len(untils)

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
                    assert A.acceptance.get((src, a_mask, U), 0) >> k & 1 == marked


def _triples(A: Gba) -> tuple[frozenset[tuple[int, int, int]], ...]:
    """Acceptance as one set of (src, letter mask, dst) triples per set."""
    return tuple(
        frozenset(e for e, m in A.acceptance.items() if m >> k & 1) for k in range(A.n_sets)
    )


def _reference_translate(
    formula: LtlFormula,
) -> tuple[Gba, tuple[frozenset[tuple[int, int, int]], ...]]:
    """The tableau loop that ``translate`` compiled: a dict from subformula
    to truth value, filled anew for every (letter, subset) round.  Returns
    the automaton without its acceptance masks, and one set of edge triples
    per until."""
    el = elementary(formula)
    props = tuple(sorted(atomic_props(formula)))

    n = len(el)
    n_subsets = 1 << n
    n_letters = 1 << len(props)
    el_bit = {x: i for i, x in enumerate(el)}
    subs = subformulas(formula)
    untils = [s for s in subs if isinstance(s, Until)]

    init_id = n_subsets
    transitions: dict[tuple[int, int], list[int]] = {}
    acc_sets: list[set[tuple[int, int, int]]] = [set() for _ in untils]

    for a in range(n_letters):
        letter_bits = {name for i, name in enumerate(props) if a >> i & 1}
        for U in range(n_subsets):
            val: dict[LtlFormula, bool] = {}
            for sub in subs:
                match sub:
                    case Top():
                        v = True
                    case Atom(name):
                        v = name in letter_bits
                    case Not(arg):
                        v = not val[arg]
                    case And(l, r):
                        v = val[l] and val[r]
                    case Next():
                        v = bool(U >> el_bit[sub] & 1)
                    case Until(l, r):
                        v = val[r] or (val[l] and bool(U >> el_bit[Next(sub)] & 1))
                    case _:
                        raise LtlError(f"not an LTL node: {sub!r}")
                val[sub] = v
            V = 0
            for i, x in enumerate(el):
                if val[x.arg]:
                    V |= 1 << i
            transitions.setdefault((V, a), []).append(U)
            if val[formula]:
                transitions.setdefault((init_id, a), []).append(U)
            srcs = [V, init_id] if val[formula] else [V]
            for k, u in enumerate(untils):
                if val[u.right] or not val[u]:
                    for src in srcs:
                        acc_sets[k].add((src, a, U))

    def subset_name(mask: int) -> str:
        return "{" + ", ".join(pretty(el[i]) for i in range(n) if mask >> i & 1) + "}"

    states = tuple(subset_name(m) for m in range(n_subsets)) + ("init",)
    B = Gba(
        ap=props,
        states=states,
        initial=(init_id,),
        transitions={k: tuple(sorted(v)) for k, v in transitions.items()},
        acceptance={},
        n_sets=len(untils),
    )
    return B, tuple(frozenset(s) for s in acc_sets)


def _reference_dump(B: Gba, sets) -> str:
    """``dump`` with its acceptance lines printed from triple sets."""
    edge_id = {e: i for i, e in enumerate(B.edges())}
    text = dump(replace(B, n_sets=0))
    for k, f in enumerate(sets):
        text += f"acc {k}: " + " ".join(str(i) for i in sorted(edge_id[e] for e in f)) + "\n"
    return text


@given(st.randoms(use_true_random=False), st.integers(1, 3), st.integers(1, 5))
def test_translate_matches_reference_loop(rng, n_ap, depth):
    f = random_formula(rng, ("a", "b", "c")[:n_ap], depth)
    assume(len(elementary(f)) <= 6)
    A = translate(f)
    B, sets = _reference_translate(f)
    assert _triples(A) == sets
    assert replace(A, acceptance={}) == B  # every other field


def test_translate_matches_reference_loop_on_corpus():
    """The criterion-3 corpus: the same sets, equal other fields, and
    byte-identical dumps."""
    for f in formula_corpus(random.Random(SEED), 200, 4):
        A = translate(f)
        B, sets = _reference_translate(f)
        assert _triples(A) == sets
        assert replace(A, acceptance={}) == B
        assert dump(A) == _reference_dump(B, sets)


def test_acceptance_stores_at_most_one_mask_per_edge():
    """12 nested untils: 16,383 edges and 12 sets.  One mask per edge keeps
    the entries at most the edges, where one triple set per until stored
    188,406 triples."""
    text = "a"
    for _ in range(12):
        text = f"true U ({text})"
    A = translate(parse_formula(text))
    assert A.n_sets == 12
    assert len(A.acceptance) <= len(A.edges()) == 16383
    assert all(m < 1 << A.n_sets for m in A.acceptance.values())


def test_translate_hashes_no_formula_per_round(monkeypatch):
    """A round reads compiled indices, not a dict keyed by formulas: the
    512 rounds of F (a0 & ... & a7) make fewer than 2,000 formula hashes
    (the dict loop made 131,566)."""
    calls = [0]

    def counting(cls):
        original = cls.__hash__

        def counted(self):
            calls[0] += 1
            return original(self)

        return counted

    for cls in (Top, Atom, Not, And, Next, Until):
        monkeypatch.setattr(cls, "__hash__", counting(cls))
    f = parse_formula("F (" + " & ".join(f"a{i}" for i in range(8)) + ")")
    calls[0] = 0
    A = translate(f)
    assert len(A.ap) == 8 and len(A.states) == 3
    assert calls[0] < 2000


def test_translate_state_count():
    f = parse_formula("G F a")
    A = translate(f)
    n = len(elementary(f))
    assert len(A.states) == (1 << n) + 1
    assert A.initial == (1 << n,)
    assert A.states[-1] == "init"


def test_translate_el_cap(monkeypatch):
    # G F a: |el| 2 plus |AP| 1, so 2^3 rounds
    monkeypatch.setattr(gba, "EL_BUDGET", 2)
    with pytest.raises(CapacityError):
        translate(parse_formula("G F a"))
    monkeypatch.setattr(gba, "EL_BUDGET", 3)
    translate(parse_formula("G F a"))  # at the cap is fine


def test_translate_cap_counts_propositions():
    """21 atoms under one F: |el| 1 + |AP| 21 is past the cap of 20, so
    translate refuses before its 2^22 rounds."""
    f = parse_formula("F (" + " & ".join(f"a{i}" for i in range(21)) + ")")
    with pytest.raises(CapacityError, match="1 members and the formula 21 atomic"):
        translate(f)


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
    with pytest.raises(GbaError, match="duplicate state names"):
        make_gba(("a",), ("s", "s"), ("s",), [])
    with pytest.raises(GbaError, match=r"acceptance edge t --\{a\}--> s is not a transition"):
        make_gba(
            ("a",),
            ("s", "t"),
            ("s",),
            [("s", {"a"}, "t")],
            acceptance=[[("t", {"a"}, "s")]],  # not a transition
        )
    # unknown state names in an edge, the initial states and an acceptance set
    with pytest.raises(GbaError, match="unknown state 't'"):
        make_gba(("a",), ("s",), ("s",), [("s", {"a"}, "t")])
    with pytest.raises(GbaError, match="unknown state 't'"):
        make_gba(("a",), ("s",), ("t",), [("s", {"a"}, "s")])
    with pytest.raises(GbaError, match="unknown state 'u'"):
        make_gba(("a",), ("s",), ("s",), [("s", {"a"}, "s")], acceptance=[[("u", {"a"}, "s")]])


def test_make_gba_acceptance_masks():
    """An edge in several sets gets one mask with a bit per set; empty sets
    still count and still print an ``acc`` line."""
    A = make_gba(
        ("a",),
        ("s", "t"),
        ("s",),
        [("s", {"a"}, "t"), ("t", (), "s")],
        acceptance=[[("s", {"a"}, "t")], [], [("s", {"a"}, "t"), ("t", (), "s")]],
    )
    assert A.n_sets == 3
    assert A.acceptance == {(0, 1, 1): 0b101, (1, 0, 0): 0b100}
    assert dump(A).splitlines()[-3:] == ["acc 0: 0", "acc 1: ", "acc 2: 0 1"]


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
