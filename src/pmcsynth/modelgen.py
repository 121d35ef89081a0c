"""Generators for benchmark and test chains.

``random_mc`` draws small concrete chains with dyadic probability rows —
denominators 2^k keep every closed-form answer exactly representable and
make cross-checking against the reference analyses cheap.  ``crowds_like``
builds a rounds x members anonymity-protocol chain with one forwarding
parameter, the shape used for the scaling and SMT-emission experiments.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .pmc import Param, Pmc
from .ratfunc import RationalFunction


def _dyadic_row(rng: random.Random, k: int, denom_pow: int) -> list[Fraction]:
    """k positive dyadic probabilities summing to 1."""
    denom = 1 << denom_pow
    while denom < k:
        denom <<= 1
    cuts = sorted(rng.sample(range(1, denom), k - 1)) if k > 1 else []
    weights = []
    prev = 0
    for c in cuts + [denom]:
        weights.append(c - prev)
        prev = c
    return [Fraction(w, denom) for w in weights]


def random_mc(rng: random.Random, n_states: int, max_branching: int = 3) -> Pmc:
    """A concrete chain (no parameters) with dyadic rows (denominators from
    16) and random labels over ``a`` and ``b``.

    Every state gets 1..max_branching distinct successors; half the rows only
    point forward (equal or higher index), so most draws have real transient
    structure and several bottom components instead of one giant SCC.
    """
    states = tuple(f"s{i}" for i in range(n_states))
    labels = tuple(
        frozenset(p for p in ("a", "b") if rng.random() < 0.5) for _ in range(n_states)
    )
    trans: dict[tuple[int, int], RationalFunction] = {}
    for s in range(n_states):
        k = rng.randint(1, max_branching)
        pool = range(s, n_states) if rng.random() < 0.5 else range(n_states)
        succs = rng.sample(pool, min(k, len(pool)))
        probs = _dyadic_row(rng, len(succs), 4)
        for t, p in zip(succs, probs):
            trans[(s, t)] = RationalFunction.const(p)
    return Pmc(states, labels, 0, {}, trans)


def chain_mc(rng: random.Random, n_states: int) -> Pmc:
    """Sparse forward-flowing chain used for build-time scaling runs: ~3 arcs
    per state, mostly to nearby states, all rows dyadic, about half the
    states labeled ``a``."""
    states = tuple(f"s{i}" for i in range(n_states))
    labels = tuple(
        frozenset({"a"}) if rng.random() < 0.5 else frozenset() for _ in range(n_states)
    )
    trans: dict[tuple[int, int], RationalFunction] = {}
    for s in range(n_states):
        targets = {min(s + 1, n_states - 1), rng.randrange(n_states)}
        if rng.random() < 0.5:
            targets.add(max(0, s - rng.randint(1, 10)))
        targets_l = sorted(targets)
        probs = _dyadic_row(rng, len(targets_l), 3)
        for t, p in zip(targets_l, probs):
            trans[(s, t)] = RationalFunction.const(p)
    return Pmc(states, labels, 0, {}, trans)


def crowds_like(rounds: int = 55, members: int = 20, corrupt: int = 4) -> Pmc:
    """Anonymity-protocol-shaped PMC with a forwarding parameter p in
    [1/10, 9/10].

    Per round r: a fresh request (state new_r, labeled ``fresh``), which goes
    to a uniformly chosen member; each member forwards to a uniform member
    with probability p or delivers (state done_r) with probability 1-p;
    delivery starts the next round, wrapping around, so the chain is one big
    recurrent component and GF fresh holds almost surely.  The first
    ``corrupt`` members are labeled ``observed``.

    States: rounds * (members + 2); keep rounds*(members+2) <= a couple of
    thousand for the experiments.
    """
    if corrupt > members:
        raise ValueError("more corrupt members than members")
    # one object per distinct entry, as parse_model shares equal bodies
    p = RationalFunction.var("p")
    one = RationalFunction.const(1)
    inv_members = RationalFunction.const(Fraction(1, members))
    forward = p * inv_members
    deliver = one - p

    states: list[str] = []
    labels: list[frozenset[str]] = []
    index: dict[str, int] = {}

    def add(name: str, label: frozenset[str]) -> int:
        index[name] = len(states)
        states.append(name)
        labels.append(label)
        return index[name]

    for r in range(rounds):
        add(f"new{r}", frozenset({"fresh"}))
        for i in range(members):
            label = frozenset({"observed"}) if i < corrupt else frozenset()
            add(f"mix{r}_{i}", label)
        add(f"done{r}", frozenset({"delivered"}))

    trans: dict[tuple[int, int], RationalFunction] = {}
    for r in range(rounds):
        new = index[f"new{r}"]
        done = index[f"done{r}"]
        for i in range(members):
            trans[(new, index[f"mix{r}_{i}"])] = inv_members
        for i in range(members):
            mix = index[f"mix{r}_{i}"]
            for j in range(members):
                trans[(mix, index[f"mix{r}_{j}"])] = forward
            trans[(mix, done)] = deliver
        nxt = index[f"new{(r + 1) % rounds}"]
        trans[(done, nxt)] = one
    params = {"p": Param("p", Fraction(1, 10), Fraction(9, 10))}
    return Pmc(tuple(states), tuple(labels), index["new0"], params, trans)
