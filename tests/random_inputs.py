"""Seeded random formulas and lasso words, and a Hypothesis strategy for
interval chains, shared by the test modules.

Kept out of ``conftest.py``: a test module that imports from ``conftest`` by
name gets whichever conftest was imported last, which is ``perfbench``'s
when both suites run in one pytest command.
"""

import os
import random
from fractions import Fraction

from hypothesis import assume
from hypothesis import strategies as st

from pmcsynth.gba import elementary
from pmcsynth.ltl import (
    TRUE,
    Atom,
    LassoWord,
    LtlFormula,
    Next,
    Until,
    always,
    eventually,
    land,
    lnot,
    lor,
)

SEED = int(os.environ.get("PMC_SYNTH_SEED", "20260819"))


def random_formula(rng: random.Random, ap=("a", "b"), depth: int = 3) -> LtlFormula:
    r = rng.random()
    if depth == 0 or r < 0.22:
        return TRUE if rng.random() < 0.08 else Atom(rng.choice(ap))
    if r < 0.38:
        return lnot(random_formula(rng, ap, depth - 1))
    if r < 0.52:
        return land(random_formula(rng, ap, depth - 1), random_formula(rng, ap, depth - 1))
    if r < 0.62:
        return lor(random_formula(rng, ap, depth - 1), random_formula(rng, ap, depth - 1))
    if r < 0.72:
        return Next(random_formula(rng, ap, depth - 1))
    if r < 0.82:
        return eventually(random_formula(rng, ap, depth - 1))
    if r < 0.91:
        return always(random_formula(rng, ap, depth - 1))
    return Until(random_formula(rng, ap, depth - 1), random_formula(rng, ap, depth - 1))


def formula_corpus(rng: random.Random, count: int, max_el: int, ap=("a", "b")):
    """Distinct random formulas with |el| <= max_el."""
    seen: dict[LtlFormula, None] = {}
    while len(seen) < count:
        f = random_formula(rng, ap)
        if len(elementary(f)) <= max_el:
            seen.setdefault(f)
    return list(seen)


def random_lasso(rng: random.Random, ap=("a", "b"), max_stem: int = 4, max_loop: int = 4) -> LassoWord:
    def letter():
        return frozenset(p for p in ap if rng.random() < 0.5)

    stem = tuple(letter() for _ in range(rng.randint(0, max_stem)))
    loop = tuple(letter() for _ in range(rng.randint(1, max_loop)))
    return LassoWord(stem, loop)


QUARTER = st.integers(0, 4).map(lambda i: Fraction(i, 4))


@st.composite
def interval_chains(draw):
    """Text of an .imc with one or two random interval rows of 2 or 3
    outcomes, from r0 on to r1, the goal g and the sinks b and c."""
    n_rows = draw(st.integers(1, 2))
    trans = []
    for i in range(n_rows):
        targets = draw(st.permutations([f"r{i + 1}" if i + 1 < n_rows else "c", "g", "b"]))
        row = [(t, sorted(draw(st.lists(QUARTER, min_size=2, max_size=2))))
               for t in targets[: draw(st.integers(2, 3))]]
        assume(sum(lo for _, (lo, _) in row) <= 1 <= sum(hi for _, (_, hi) in row))
        assume(all(hi > 0 for _, (_, hi) in row))
        trans += [f"trans r{i} -> {t} : [{lo}, {hi}];" for t, (lo, hi) in row]
    states = [f"r{i}" for i in range(n_rows)] + ["g", "b", "c"]
    trans += [f"trans {s} -> {s} : [1, 1];" for s in ("g", "b", "c")]
    return "\n".join(
        ["imc", *(f"state {s} {{{'goal' if s == 'g' else ''}}};" for s in states),
         "init r0;", *trans]
    )
