"""Seeded inputs for the benchmark workloads.

``setup(workload, seed, root, directory)`` generates the models with
``pmcsynth.modelgen``, writes them as ``.pmc``/``.imc`` files and writes the
operation list ``ops.json``.  Each operation is a ``pmc-synth`` argument list
(file names relative to ``directory``) plus what the verifier needs to know
about its answer.  The program only ever sees the written files; ``root``
is the repository, whose bundled ``models/interval_row.imc`` synth-grid
copies.

The operation lists are built from fixed slots: the seed draws the chain
structure, labels, parameter values, query bounds and check-mix's random
formulas, while what decides an operation's cost (model size, oracle
template, formula polarity, |el| of the random formulas) is fixed by its
slot.  Costs of single operations are heavy-tailed (dense elimination is
cubic in the block size), so drawing these too would make the total of a
list depend more on the seed than on the program.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from pathlib import Path

from pmcsynth.gba import elementary
from pmcsynth.ltl import (
    TRUE,
    Atom,
    LtlFormula,
    Next,
    Until,
    always,
    eventually,
    land,
    lnot,
    lor,
    pretty,
)
from pmcsynth.modelgen import chain_mc, crowds_like, random_mc
from pmcsynth.pmc import Pmc
from pmcsynth.sccs import tarjan


# ---------------------------------------------------------------------------
# Model files
# ---------------------------------------------------------------------------


def _range_text(lower: Fraction, upper: Fraction, lower_strict: bool, upper_strict: bool) -> str:
    return f"{'(' if lower_strict else '['}{lower}, {upper}{')' if upper_strict else ']'}"


def pmc_text(M: Pmc) -> str:
    """The model in the ``.pmc`` file format that ``parse_model`` reads."""
    lines = ["pmc"]
    for p in M.params.values():
        lines.append(
            f"param {p.name} in {_range_text(p.lower, p.upper, p.lower_strict, p.upper_strict)};"
        )
    for name, label in zip(M.states, M.labels):
        lines.append(f"state {name} {{{', '.join(sorted(label))}}};")
    lines.append(f"init {M.states[M.initial]};")
    for (a, b), f in sorted(M.trans.items()):
        lines.append(f"trans {M.states[a]} -> {M.states[b]} : {f};")
    return "\n".join(lines) + "\n"


def interval_row_text(
    rng: random.Random, grid: int, widths: tuple[int, ...]
) -> tuple[str, Fraction, Fraction]:
    """An ``.imc`` file whose start state s moves to goal state t or to one of
    the sinks w1, w2, ...

    P(s,t) has width d and the sink entries widths g*d for g in ``widths``,
    and the lower ends add up to 1 - d.  On a grid of ``grid`` points per
    axis the well-defined points are then those whose indices satisfy
    i_t + sum(g * i_w) = grid - 1, so the row always has some.
    P(F goal) = P(s,t).  Returns the text, the upper end of P(s,t), and the
    value of P(s,t) in the middle of its axis; a well-defined point at or
    above that value always exists.
    """
    steps = grid - 1
    d = Fraction(rng.randint(1, 4), 64 * max(widths))
    lo_t = Fraction(rng.randint(4, 8), 16) / len(widths)
    lows = [lo_t]
    rest = 1 - d - lo_t
    for k in range(len(widths) - 1):
        share = rest * Fraction(rng.randint(1, 3), 4)
        lows.append(share)
        rest -= share
    lows.append(rest)
    lines = ["imc", "state s {};", "state t {goal};"]
    lines += [f"state w{k} {{}};" for k in range(len(widths))]
    lines += ["init s;", f"trans s -> t : [{lo_t}, {lo_t + d}];"]
    for k, g in enumerate(widths):
        lo = lows[k + 1]
        lines.append(f"trans s -> w{k} : [{lo}, {lo + g * d}];")
    lines += ["trans t -> t : [1, 1];"]
    lines += [f"trans w{k} -> w{k} : [1, 1];" for k in range(len(widths))]
    return "\n".join(lines) + "\n", lo_t + d, lo_t + (steps // 2) * d / steps


# ---------------------------------------------------------------------------
# Formulas
# ---------------------------------------------------------------------------

# The closed-form fragment of ``pmcsynth.oracle``: X a, F a, G a, GF a, FG a, a U b.
ORACLE_TEMPLATES = ("X {a}", "F {a}", "G {a}", "G F {a}", "F G {a}", "{a} U {b}")


def random_formula(rng: random.Random, ap: tuple[str, ...], depth: int = 3) -> LtlFormula:
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


def random_formula_el(rng: random.Random, ap: tuple[str, ...], el: int) -> str:
    """A random formula whose elementary set has ``el`` members."""
    while True:
        f = random_formula(rng, ap)
        if len(elementary(f)) == el:
            return pretty(f)


def _query(rng: random.Random, formula: str) -> str:
    op = rng.choice((">=", ">", "<=", "<"))
    return f"P {op} {Fraction(rng.randint(1, 7), 8)} [ {formula} ]"


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

CHECK_RANDOM_MC_SIZES = (20, 40, 60, 80, 100, 120)
CHECK_SMALL = 60  # the template rotation runs on chains up to this size
CHECK_LARGE_TEMPLATE = "F {a}"  # the only template on larger chains
CHECK_RANDOM_MAX = 40  # random formulas run on chains up to this size, and on crowds
CHECK_CROWDS_SHAPES = ((1, 4, 1), (2, 3, 1), (1, 6, 2), (2, 4, 2))
CHECK_ROUNDS = 3
CHECK_EL = (1, 2, 3, 4, 5)  # |el| of the random formulas, in turn
CHECK_DRAWS = 10  # random_mc draws per chain slot


def largest_transient_scc(M: Pmc) -> int:
    """Size of the largest SCC reachable from the initial state that has an
    arc leaving it (0 if there is none)."""
    n = M.n_states()
    succ = [[t for t, _ in M.succ(s)] for s in range(n)]
    seen = {M.initial}
    stack = [M.initial]
    while stack:
        for t in succ[stack.pop()]:
            if t not in seen:
                seen.add(t)
                stack.append(t)
    best = 0
    for component in tarjan(n, succ.__getitem__):
        members = set(component)
        if component[0] in seen and any(t not in members for s in component for t in succ[s]):
            best = max(best, len(component))
    return best


def banded_random_mc(rng: random.Random, n: int) -> Pmc:
    """Of CHECK_DRAWS random_mc(n) chains, the first whose largest reachable
    transient SCC is nearest to 0.6n states.

    A bottom SCC is decided without solving, but a transient one is solved
    whole, and dense elimination is cubic in its size.  Over unconstrained
    draws that size runs from nothing to most of the chain, so a few
    operations would decide a list's total.  On chains of 60 states and
    more, eight in ten chosen chains lie within 0.57n to 0.64n.  The number
    of draws is fixed, not "until one fits", so that set-up does the same
    work for every seed.
    """
    candidates = [random_mc(rng, n) for _ in range(CHECK_DRAWS)]
    return min(candidates, key=lambda M: abs(largest_transient_scc(M) - 0.6 * n))


def check_mix(rng: random.Random) -> tuple[dict[str, str], list[dict]]:
    """One-shot verdicts: ``check -m M -q "P ~ c [ phi ]" [-e ...]``.

    Per round, every random_mc size class and every small crowds shape
    appears once with a formula from the oracle fragment.  On crowds and on
    chains of up to CHECK_SMALL states the templates are taken in turn, so
    each appears at least twice in a list.  Larger chains always get ``F a`` or ``F b``: its cost is
    that of solving the banded transient SCC, while the cost of the other
    templates on those chains depends on the labels near the initial state
    and ran from a twentieth of a second to over one second over draws.
    Random formulas, with |el| running through 1..5, run three times on each
    chain of up to CHECK_RANDOM_MAX states and once on each crowds model, so
    half the operations have each kind.  They stay off the larger chains:
    with |el| 5, one on a 60-state chain took 1.6 s where the others took
    0.1-0.5 s, and their product SCCs on 120 states can exceed 200 nodes,
    which dense elimination takes minutes to solve.
    """
    files: dict[str, str] = {}
    ops: list[dict] = []

    def add(model: str, formula: str, evaluation: dict[str, Fraction], in_fragment: bool) -> None:
        argv = ["check", "-m", model, "-q", _query(rng, formula)]
        if evaluation:
            argv += ["-e", ",".join(f"{k}={v}" for k, v in evaluation.items())]
        ops.append(
            {
                "argv": argv,
                "verify": {
                    "kind": "check",
                    "formula": formula,
                    "evaluation": {k: str(v) for k, v in evaluation.items()},
                    "oracle": in_fragment,
                },
            }
        )

    n_random = n_rotated = 0
    for rnd in range(CHECK_ROUNDS):
        # (file, atomic propositions, evaluation, fixed template or None, random formulas)
        models: list[tuple[str, tuple[str, ...], dict[str, Fraction], str | None, int]] = []
        for n in CHECK_RANDOM_MC_SIZES:
            name = f"rmc{rnd}_{n}.pmc"
            files[name] = pmc_text(banded_random_mc(rng, n))
            fixed = CHECK_LARGE_TEMPLATE if n > CHECK_SMALL else None
            models.append((name, ("a", "b"), {}, fixed, 3 if n <= CHECK_RANDOM_MAX else 0))
        for shape in CHECK_CROWDS_SHAPES:
            name = f"crowds{rnd}_{'_'.join(map(str, shape))}.pmc"
            files[name] = pmc_text(crowds_like(*shape))
            p = Fraction(rng.randint(2, 14), 16)
            models.append((name, ("observed", "delivered", "fresh"), {"p": p}, None, 1))
        for name, ap, evaluation, template, repeats in models:
            a, b = rng.sample(ap, 2)
            if template is None:
                template = ORACLE_TEMPLATES[n_rotated % len(ORACLE_TEMPLATES)]
                n_rotated += 1
            add(name, template.format(a=a, b=b), evaluation, True)
            for _ in range(repeats):
                el = CHECK_EL[n_random % len(CHECK_EL)]
                n_random += 1
                add(name, random_formula_el(rng, (a, b), el), evaluation, False)
    return files, ops


# (chain states, formula), with |el| 4 and 5.  With |el| 3 formulas on
# 2500 states, parsing the chain took longer than classifying it; with
# these, classification is about two thirds of an operation.  Polarity is
# fixed: swapping a and !a can change |el|, as from 4 to 2 for
# "G F a | F G !a".  The sizes are set so that the three operations take
# about as long: op_p50_s is then the median of three like operations, not
# the time of the one in the middle.  At 2000 states one |el| 4 operation
# would take a quarter of a run.
CLASSIFY_SLOTS = (
    (1100, "G F a | F G !a"),
    (1000, "(G F a) U (X X a)"),
    (1100, "G F a | F G !a"),
)


def classify_large(rng: random.Random) -> tuple[dict[str, str], list[dict]]:
    """``classify -m chain.pmc -f phi`` on chain_mc chains of 1000-1100 states."""
    files: dict[str, str] = {}
    ops: list[dict] = []
    for i, (n, formula) in enumerate(CLASSIFY_SLOTS):
        name = f"chain{i}_{n}.pmc"
        files[name] = pmc_text(chain_mc(rng, n))
        ops.append(
            {
                "argv": ["classify", "-m", name, "-f", formula],
                "verify": {"kind": "classify"},
            }
        )
    return files, ops


# (rounds, members) of crowds models with 24 states; corrupt is seeded.
SYNTH_CROWDS_SHAPES = ((4, 4), (3, 6))
SYNTH_CROWDS_GRID = 15
SYNTH_ROW_GRID = 41
SYNTH_ROW3_GRID = 15
# interval rows: (widths of the sink entries, grid, unsatisfiable?); the
# satisfiable rows with two sinks are the middle of the list, so op_p50_s
# rests on two operations of the same kind
SYNTH_ROWS = (
    ((None,), SYNTH_ROW_GRID, False),
    ((None,), SYNTH_ROW_GRID, True),
    ((1, 1), SYNTH_ROW3_GRID, False),
    ((1, 1), SYNTH_ROW3_GRID, False),
    ((1, 1), SYNTH_ROW3_GRID, True),
)


def synth_grid(rng: random.Random, bundled_imc: str) -> tuple[dict[str, str], list[dict]]:
    """``synth -q ... --solve grid:N`` on small crowds models and interval rows.

    Crowds: P(F observed) = 1 for every p, so ``P < 1/10 [ F observed ]``
    has no witness and the whole grid is scanned; P(X X observed) = p*c/m,
    so a threshold set to its value at grid index 1/4 has a witness there.
    Interval rows: P(F goal) = P(s,t) is at most its upper bound, so a
    strict query above the bound has no witness, and a threshold set to a
    value P(s,t) takes at a well-defined point has one.
    """
    files: dict[str, str] = {}
    ops: list[dict] = []

    def op(model: str, query: str, grid: int, unsat: bool) -> None:
        ops.append(
            {
                "argv": ["synth", "-m", model, "-q", query, "--solve", f"grid:{grid}"],
                "verify": {"kind": "synth", "query": query, "unsat": unsat},
            }
        )

    for i, (rounds, members) in enumerate(SYNTH_CROWDS_SHAPES):
        corrupt = rng.randint(1, members // 2)
        name = f"crowds{i}.pmc"
        M = crowds_like(rounds, members, corrupt)
        files[name] = pmc_text(M)
        if i == 0:
            op(name, "P < 1/10 [ F observed ]", SYNTH_CROWDS_GRID, unsat=True)
        else:
            lo, hi = M.params["p"].lower, M.params["p"].upper
            k = (SYNTH_CROWDS_GRID - 1) // 4
            p_k = lo + k * (hi - lo) / (SYNTH_CROWDS_GRID - 1)
            op(name, f"P >= {p_k * corrupt / members} [ X X observed ]", SYNTH_CROWDS_GRID, unsat=False)

    files["interval_row.imc"] = bundled_imc
    # P(s,t) <= 7/10 in the bundled row
    op("interval_row.imc", "P > 7/10 [ F goal ]", SYNTH_ROW_GRID, unsat=True)
    for i, (widths, grid, unsat) in enumerate(SYNTH_ROWS):
        name = f"row{i}.imc"
        widths = tuple(g or rng.choice((1, 2, 4, 5, 8)) for g in widths)
        text, upper, threshold = interval_row_text(rng, grid, widths)
        files[name] = text
        if unsat:
            op(name, f"P > {upper} [ F goal ]", grid, unsat=True)
        else:
            op(name, f"P >= {threshold} [ F goal ]", grid, unsat=False)
    return files, ops


# (rounds, members) of crowds models with 396-528 states, and the formulas
# emitted on each, with |el| 4, 3 and 2; corrupt and the query bounds are
# seeded.  Parsing the parametric rows costs more than emission, so the
# larger formulas go with the smaller models to keep emission a sizeable
# share, and the three operations take about as long.  With 440-660 states
# a run had room for five operation runs, and op_p50_s rested on one or two
# runs of each operation.
EMIT_SLOTS = (
    ((18, 20), ("G F fresh & F G !observed",)),
    ((20, 20), ("F (observed & X X observed)",)),
    ((24, 20), ("X X observed",)),
)


def emit_smt(rng: random.Random) -> tuple[dict[str, str], list[dict]]:
    """``synth -q ... -o out.smt2`` on crowds_like models of 396-528 states."""
    files: dict[str, str] = {}
    ops: list[dict] = []
    for i, ((rounds, members), formulas) in enumerate(EMIT_SLOTS):
        name = f"crowds{i}.pmc"
        files[name] = pmc_text(crowds_like(rounds, members, rng.randint(1, members // 4)))
        for formula in formulas:
            query = f"P >= {Fraction(rng.randint(1, 7), 8)} [ {formula} ]"
            out = f"out{len(ops)}.smt2"
            ops.append(
                {
                    "argv": ["synth", "-m", name, "-q", query, "-o", out],
                    "verify": {"kind": "emit", "out": out},
                }
            )
    return files, ops


WORKLOADS = ("check-mix", "classify-large", "synth-grid", "emit-smt")


def generate(workload: str, seed: int, root: Path) -> tuple[dict[str, str], list[dict]]:
    rng = random.Random(f"{workload}:{seed}")
    if workload == "check-mix":
        return check_mix(rng)
    if workload == "classify-large":
        return classify_large(rng)
    if workload == "synth-grid":
        return synth_grid(rng, (root / "models" / "interval_row.imc").read_text())
    if workload == "emit-smt":
        return emit_smt(rng)
    raise ValueError(f"unknown workload {workload!r}")


def setup(workload: str, seed: int, root: Path, directory: Path) -> None:
    """Generate the workload's inputs and write them into ``directory``."""
    files, ops = generate(workload, seed, root)
    directory.mkdir(parents=True, exist_ok=True)
    for name, text in files.items():
        (directory / name).write_text(text)
    (directory / "ops.json").write_text(json.dumps(ops, indent=1) + "\n")
