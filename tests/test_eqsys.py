import collections
import heapq
import itertools
import math
import random
import re
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from random_inputs import QUARTER, interval_chains

from pmcsynth import eqsys, product
from pmcsynth.eqsys import (
    GridError,
    IllDefinedEvaluationError,
    InconsistentSystemError,
    PltlQuery,
    QuerySyntaxError,
    SingularSystemError,
    SolveError,
    SolveResult,
    SynthResult,
    _eliminate,
    _fraction_literal,
    _solve_blocks,
    analyze,
    build_system,
    grid_axes,
    parse_pltl,
    solve_concrete,
    synth_grid,
)
from pmcsynth.gba import CapacityError, translate
from pmcsynth.ltl import TRUE, LtlSyntaxError, atomic_props, parse_formula
from pmcsynth.modelgen import chain_mc, crowds_like, random_mc
from pmcsynth.oracle import ConcreteMc, prob_of_formula
from pmcsynth.pmc import (
    Imc,
    ModelError,
    Pmc,
    imc_to_pmc,
    lump,
    lumped_values,
    parse_model,
    well_defined,
)
from pmcsynth.ratfunc import RationalFunction
from pmcsynth.product import build_product

F = Fraction
ROOT = Path(__file__).resolve().parent.parent
MODELS = ROOT / "models"


def load(name):
    return parse_model((MODELS / name).read_text())


# ---------------------------------------------------------------------------
# Query parsing
# ---------------------------------------------------------------------------


def test_parse_pltl_comparisons():
    q = parse_pltl("P >= 1/2 [ F a ]")
    assert (q.lo, q.hi, q.lo_strict, q.hi_strict) == (F(1, 2), F(1), False, False)
    assert q.formula == parse_formula("F a")

    q = parse_pltl("P > 0.3 [ G a ]")
    assert (q.lo, q.lo_strict) == (F(3, 10), True)
    q = parse_pltl("P <= 2/3 [ X a ]")
    assert (q.lo, q.hi, q.hi_strict) == (F(0), F(2, 3), False)
    q = parse_pltl("P < 1 [ a U b ]")
    assert (q.hi, q.hi_strict) == (F(1), True)


def test_parse_pltl_intervals():
    q = parse_pltl("P in [1/4, 3/4] [ G F a ]")
    assert (q.lo, q.hi, q.lo_strict, q.hi_strict) == (F(1, 4), F(3, 4), False, False)
    q = parse_pltl("P in (0, 1) [ F a ]")
    assert q.lo_strict and q.hi_strict
    assert q.interval_str() == "(0, 1)"


@pytest.mark.parametrize(
    "text",
    [
        "Q >= 1/2 [ F a ]",
        "P = 1/2 [ F a ]",
        "P >= [ F a ]",
        "P >= 1/2 F a",
        "P >= 1/2 [ F a ] extra",
        "P in [1/2] [ F a ]",
        "P in [3/4, 1/4] [ F a ]",
        "P in (1/2, 1/2) [ F a ]",
        "P >= 1/2 [ ]",
        "P >= -1 [ F a ]",
        "P <= 3/2 [ F a ]",
        "P in [-1/2, 2] [ F a ]",
        "P >= 1e-5000 [ F a ]",
    ],
)
def test_parse_pltl_errors(text):
    with pytest.raises((QuerySyntaxError, LtlSyntaxError)):
        parse_pltl(text)


@pytest.mark.parametrize(
    "text, interval",
    [
        ("P > 1 [ F a ]", "(1, 1]"),
        ("P < 0 [ F a ]", "[0, 0)"),
        ("P in (1/2, 1/2] [ F a ]", "(1/2, 1/2]"),
        ("P in [3/4, 1/4] [ F a ]", "[3/4, 1/4]"),
    ],
)
def test_empty_interval_is_shown_as_parsed(text, interval):
    with pytest.raises(QuerySyntaxError, match=re.escape(f"empty probability interval {interval}")):
        parse_pltl(text)


@pytest.mark.parametrize(
    "text, message",
    [
        ("Q >= 1/2 [ F a ]", "query must start with 'P'"),
        ("P = 1/2 [ F a ]", "expected one of >=, >, <=, <, in after 'P'"),
        ("P >= 1/2 F a", "missing '[ formula ]'"),
        ("P in [0, 1] F a", "missing '[ formula ]'"),
        ("P >= 1/2 [ F a", "missing closing ']'"),
        ("P >= 1/2 [ F a ] extra", "trailing input after ']': 'extra'"),
        ("P in 1/2 [ F a ]", "expected '(' or '[' after 'in'"),
        ("P in [1/2] [ F a ]", "expected ',' in the probability interval"),
        ("P in [1/2, 1", "unterminated probability interval"),
        ("P in (1/2, 1/2) [ F a ]", "empty probability interval (1/2, 1/2)"),
        (
            "P >= 1e-3 [ F a ]",
            "bad probability bound '1e-3': expected an integer, a decimal such as 0.3 "
            "or a quotient such as 1/10",
        ),
        ("P >= 1/0 [ F a ]", "bad probability bound '1/0': zero denominator"),
        pytest.param(  # past Python's 4,300-digit limit on int conversion
            "P >= 1/" + "9" * 5000 + " [ F a ]",
            f"bad probability bound '1/{'9' * 13}...{'9' * 15}': numeral of 5000 digits is too long",
            id="numeral-too-long",
        ),
        ("P <= 3/2 [ F a ]", "probability bound '3/2' is outside [0, 1]"),
        ("P in [-1, 1/2] [ F a ]", "probability bound '-1' is outside [0, 1]"),
    ],
)
def test_parse_pltl_error_messages(text, message):
    with pytest.raises(QuerySyntaxError) as info:
        parse_pltl(text)
    assert str(info.value) == message


def _reference_parse_pltl(text: str) -> PltlQuery:
    """The query reader as an if-chain over the comparisons: the reference
    that ``parse_pltl`` is compared with."""
    s = text.strip()
    if not s.startswith("P"):
        raise QuerySyntaxError("query must start with 'P'")
    rest = s[1:].lstrip()
    lo = hi = None
    lo_strict = hi_strict = False
    matched_op = None
    for op in (">=", "<=", ">", "<"):
        if rest.startswith(op):
            matched_op = op
            rest = rest[len(op):].lstrip()
            break
    if matched_op is not None:
        cut = rest.find("[")
        if cut < 0:
            raise QuerySyntaxError("missing '[ formula ]'")
        c = _fraction_literal(rest[:cut])
        rest = rest[cut:]
        if matched_op == ">=":
            lo, hi = c, Fraction(1)
        elif matched_op == ">":
            lo, hi, lo_strict = c, Fraction(1), True
        elif matched_op == "<=":
            lo, hi = Fraction(0), c
        else:
            lo, hi, hi_strict = Fraction(0), c, True
    elif rest.startswith("in"):
        rest = rest[2:].lstrip()
        if not rest or rest[0] not in "([":
            raise QuerySyntaxError("expected '(' or '[' after 'in'")
        lo_strict = rest[0] == "("
        comma = rest.find(",")
        if comma < 0:
            raise QuerySyntaxError("expected ',' in the probability interval")
        lo = _fraction_literal(rest[1:comma])
        rest = rest[comma + 1:]
        close = min((i for i in (rest.find(")"), rest.find("]")) if i >= 0), default=-1)
        if close < 0:
            raise QuerySyntaxError("unterminated probability interval")
        hi = _fraction_literal(rest[:close])
        hi_strict = rest[close] == ")"
        rest = rest[close + 1:].lstrip()
    else:
        raise QuerySyntaxError("expected one of >=, >, <=, <, in after 'P'")

    if lo > hi or (lo == hi and (lo_strict or hi_strict)):
        interval = PltlQuery(TRUE, lo, hi, lo_strict, hi_strict).interval_str()
        raise QuerySyntaxError(f"empty probability interval {interval}")
    if not rest.startswith("["):
        raise QuerySyntaxError("missing '[ formula ]'")
    end = rest.rfind("]")
    if end < 0:
        raise QuerySyntaxError("missing closing ']'")
    if rest[end + 1:].strip():
        raise QuerySyntaxError(f"trailing input after ']': {rest[end + 1:].strip()!r}")
    formula = parse_formula(rest[1:end])
    return PltlQuery(formula, lo, hi, lo_strict, hi_strict)


_COMPARISON_PIECES = [">=", ">", "<=", "<"]
_BOUND_PIECES = ["0", "1/2", "0.99", "1"]
_FORMULA_PIECES = ["F a", "G F a", "a U b"]
_QUERY_PIECES = [
    "P", *_COMPARISON_PIECES, "=", "in", "[", "]", "(", ")", ",",
    *_BOUND_PIECES, "-1", "3/2", "1e-3", *_FORMULA_PIECES, "X", "(a", "x",
]


@st.composite
def query_texts(draw):
    """A comparison or an interval query whose pieces are each, now and then,
    swapped for any piece (bad bounds and formulas among them) or dropped."""
    if draw(st.booleans()):
        slots = [["P"], _COMPARISON_PIECES, _BOUND_PIECES]
    else:
        slots = [["P"], ["in"], ["(", "["], _BOUND_PIECES, [","], _BOUND_PIECES, [")", "]"]]
    slots += [["["], _FORMULA_PIECES, ["]"], [""]]
    text = ""
    for choices in slots:
        roll = draw(st.integers(0, 19))
        if roll < 17:
            text += draw(st.sampled_from(choices))
        elif roll < 19:
            text += draw(st.sampled_from(_QUERY_PIECES))
        text += draw(st.sampled_from([" ", "", "  "]))
    return text


def _query_outcome(parse, text):
    try:
        q = parse(text)
    except Exception as exc:
        return type(exc), str(exc)
    return q.formula, q.lo, q.hi, q.lo_strict, q.hi_strict


@settings(max_examples=400)
@given(query_texts())
@example("P > 1 [ F a ]")
@example("P in (1/4, 3/4] [ F a ]")
@example("P in [1/2, 1/2] (a) ]")
def test_parse_pltl_matches_reference(text):
    assert _query_outcome(parse_pltl, text) == _query_outcome(_reference_parse_pltl, text)


def test_readme_query_grammar_examples_parse():
    # every query of README's "Query grammar" code block parses, and the
    # queries quoted in its prose as input errors do not
    section = (ROOT / "README.md").read_text().split("## Query grammar", 1)[1].split("\n## ", 1)[0]
    block = section.split("```")[1]
    queries = [q for line in block.splitlines() for q in re.split(r"\s{2,}", line.strip()) if q]
    assert len(queries) == 6
    for text in queries:
        parse_pltl(text)
    errors = re.findall(r"`(P [^`]*)`", section)
    assert len(errors) == 3
    for text in errors:
        with pytest.raises(QuerySyntaxError):
            parse_pltl(text)


def test_query_admits():
    q = PltlQuery(parse_formula("F a"), F(1, 4), F(3, 4), lo_strict=True)
    assert not q.admits(F(1, 4))
    assert q.admits(F(1, 2))
    assert q.admits(F(3, 4))
    assert not q.admits(F(4, 5))


# ---------------------------------------------------------------------------
# System structure
# ---------------------------------------------------------------------------


def branch_system():
    M = load("branch13.pmc")
    A = translate(parse_formula("F success"))
    G = build_product(A, M)
    return M, build_system(G)


def test_build_system_shape():
    M, system = branch_system()
    G = system.graph
    # normalization rows are keyed by locally positive SCC, one group of
    # member nodes per chain state of its projection
    assert list(system.positives) == [
        r.index for r in system.partition.blocks.values() if r.locally_positive and r.reachable
    ] != []
    for scc_index, groups in system.positives.items():
        record = system.partition.blocks[scc_index]
        assert record.locally_positive
        assert sorted(u for nodes in groups for u in nodes) == sorted(record.members)
        for nodes in groups:
            assert len({u % G.n_mc() for u in nodes}) == 1


def test_zeros_cannot_reach_positive_sccs():
    M, system = branch_system()
    G = system.graph
    zero_set = set(system.zeros)
    pos_nodes = {u for i in system.positives for u in system.partition.members(i)}
    # forward closure from each zero node never meets a positive SCC
    for u in list(zero_set)[:50]:
        seen, stack = {u}, [u]
        while stack:
            v = stack.pop()
            assert v not in pos_nodes
            assert v in zero_set  # zero set is closed under successors
            for w in G.succ(v):
                if w not in seen:
                    seen.add(w)
                    stack.append(w)


def test_solve_branching_probability():
    M, system = branch_system()
    result = solve_concrete(system, {})
    assert result.target == F(1, 3)


def test_positivity_rows_hold_in_solution():
    M, system = branch_system()
    result = solve_concrete(system, {})
    for scc_index, groups in system.positives.items():
        assert system.partition.blocks[scc_index].locally_positive
        for nodes in groups:
            assert len({u % system.graph.n_mc() for u in nodes}) == 1
            assert sum(result.mu[u] for u in nodes) == 1


def test_solution_covers_the_reachable_nodes():
    M, system = branch_system()
    result = solve_concrete(system, {})
    part = system.partition
    assert result.restricted == {
        u for i in range(len(part)) if part.reachable[i] for u in part.members(i)
    }


def test_degenerate_self_loop_over_absorbing_state():
    # The subset state that owes itself on the empty letter sits on a
    # self-loop over the absorbing unlabeled state; its flow row alone is
    # 0 = 0, so its value must come from the cannot-reach-positive rule.
    M = parse_model(
        """
        pmc
        state s0;
        state s1 {a};
        state s2;
        init s0;
        trans s0 -> s1 : 1/2;
        trans s0 -> s2 : 1/2;
        trans s1 -> s1 : 1;
        trans s2 -> s2 : 1;
        """
    )
    f = parse_formula("F G a")
    A = translate(f)
    G = build_product(A, M)
    system = build_system(G)
    result = solve_concrete(system, {})
    assert result.target == F(1, 2)
    cm = ConcreteMc.from_pmc(M, {})
    assert prob_of_formula(cm, f) == F(1, 2)
    # the degenerate node really is in this product and really is zeroed:
    # a self-loop over s2 whose SCC is not locally positive has no equation
    # besides 0 = 0 once its siblings vanish
    s2 = M.states.index("s2")
    # a node with a self-arc is in a block
    blocks, comp_of = system.partition.blocks, system.partition.comp_of
    degenerate = [
        u
        for u in range(G.n_nodes())
        if u % M.n_states() == s2
        and u in G.succ(u)
        and not blocks[comp_of[u]].locally_positive
    ]
    assert degenerate
    assert set(degenerate) <= set(system.zeros)


def test_solution_agrees_with_oracle(rng):
    texts = ["X a", "F a", "G a", "G F a", "F G a", "a U b"]
    for n in (5, 9):
        for _ in range(5):
            M = random_mc(rng, n)
            cm = ConcreteMc.from_pmc(M, {})
            for text in texts:
                f = parse_formula(text)
                A = translate(f)
                system = build_system(build_product(A, M))
                got = solve_concrete(system, {}).target
                want = prob_of_formula(cm, f)
                assert got == want, (text, n, got, want)


def test_no_positive_scc_means_zero():
    # hand-built automaton whose only accepting SCC is incomplete: the whole
    # system collapses to zero
    from test_product import loop_automaton

    M = load("loop_pair.pmc")
    G = build_product(loop_automaton(), M)
    system = build_system(G)
    assert system.positives == {}
    part = system.partition
    assert set(system.zeros) == {
        u for i in range(len(part)) if part.reachable[i] for u in part.members(i)
    }
    assert solve_concrete(system, {}).target == 0


def test_ill_defined_evaluation():
    M = load("split_cycle.pmc")
    A = translate(parse_formula("G F y"))
    system = build_system(build_product(A, M))
    with pytest.raises(IllDefinedEvaluationError):
        solve_concrete(system, {"eps": F(1, 2)})  # kills the x -> z entry


def test_float_values_are_refused():
    # 0.1 is not 1/10: P(X y) = 1/2 + eps is 3/5 at eps = 1/10 only
    M = load("split_cycle.pmc")
    query = parse_pltl("P >= 1/2 [ X y ]")
    system = analyze(M, query.formula).system
    with pytest.raises(ModelError, match="parameter 'eps': 0.1 is not an int or a Fraction"):
        solve_concrete(system, {"eps": 0.1})
    with pytest.raises(ModelError, match="parameter 'eps': 0.1 is not an int or a Fraction"):
        synth_grid(system, query, {"eps": [F(0), 0.1]})
    assert solve_concrete(system, {"eps": F(1, 10)}).target == F(3, 5)
    assert synth_grid(system, query, {"eps": [F(1, 10)]}) == SynthResult(
        {"eps": F(1, 10)}, F(3, 5), 1, 1
    )
    assert solve_concrete(system, {"eps": 0}).target == F(1, 2)


def test_large_crowds_blocks_solve_exactly():
    # the 300- and 200-node blocks that dense elimination took 38-48 s on
    M = crowds_like(20, 8, 4)
    evaluation = {name: F(1, 2) for name in M.params}
    for text, block, want in (("! observed U delivered", 300, F(1, 3)), ("G F fresh", 200, F(1))):
        system = analyze(M, parse_formula(text)).system
        part = system.partition
        sizes = [len(part.members(i)) for i in range(len(part)) if part.reachable[i]]
        assert max(sizes) == block
        assert solve_concrete(system, evaluation).target == want


# ---------------------------------------------------------------------------
# Sparse elimination
# ---------------------------------------------------------------------------


def reference_eliminate(
    rows: list[tuple[dict[int, Fraction], Fraction]], unknowns, what: str
) -> dict[int, Fraction]:
    """The Fraction eliminator the integer one replaced, kept as a
    reference: the same Markowitz order over rows of Fractions, each pivot
    row divided by its pivot, then back substitution.  Rows are consumed."""
    col_rows: dict[int, set[int]] = {u: set() for u in unknowns}
    live = 0
    for r, (row, _) in enumerate(rows):
        for j in row:
            col_rows[j].add(r)
        live += len(row)
    rhs = [b for _, b in rows]
    active = [bool(row) for row, _ in rows]
    inconsistent = any(not row and b for row, b in rows)
    heap = [(len(row), r) for r, (row, _) in enumerate(rows) if row]
    heapq.heapify(heap)
    pivots: list[tuple[int, dict[int, Fraction], Fraction]] = []
    budget = eqsys.FILL_BUDGET
    while heap:
        length, p = heapq.heappop(heap)
        prow = rows[p][0]
        if not active[p] or len(prow) != length:
            continue  # a stale heap entry
        if live > budget:
            raise CapacityError(
                f"{what}: elimination of a {len(col_rows)}-node block exceeds the fill "
                f"budget of {budget} entries"
            )
        active[p] = False
        c = min(prow, key=lambda j: len(col_rows[j]))
        for j in prow:
            col_rows[j].discard(p)
        inv = 1 / Fraction(prow.pop(c))
        live -= 1
        for j in prow:
            prow[j] *= inv
        bp = rhs[p] * inv
        pivots.append((c, prow, bp))
        for r in col_rows[c]:
            row = rows[r][0]
            f = row.pop(c)
            live -= 1
            for j, v in prow.items():
                w = row.get(j)
                if w is None:
                    row[j] = -f * v
                    col_rows[j].add(r)
                    live += 1
                else:
                    w -= f * v
                    if w:
                        row[j] = w
                    else:
                        del row[j]
                        col_rows[j].discard(r)
                        live -= 1
            rhs[r] -= f * bp
            if row:
                heapq.heappush(heap, (len(row), r))
            else:
                active[r] = False
                if rhs[r]:
                    inconsistent = True
        col_rows[c] = set()
    if len(pivots) < len(col_rows):
        raise SingularSystemError(f"{what}: system does not determine all unknowns")
    if inconsistent:
        raise InconsistentSystemError(f"{what}: equations are inconsistent")
    x: dict[int, Fraction] = {}
    for c, prow, bp in reversed(pivots):
        x[c] = bp - sum(v * x[j] for j, v in prow.items())
    return x


def reference_solve_blocks(system, prob) -> SolveResult:
    """The block solver over Fraction rows that the integer one replaced,
    kept as a reference: it hands each block to ``reference_eliminate``."""
    G = system.graph
    ns = G.n_mc()
    offsets, arcs = G.offsets, G.targets
    partition = system.partition
    reachable, zero_sccs = partition.reachable, system.zero_sccs

    mu: dict[int, Fraction] = {}
    for i in range(len(partition) - 1, -1, -1):  # sinks first
        if not reachable[i]:
            continue
        members = partition.members(i)
        if zero_sccs[i]:
            for u in members:
                mu[u] = Fraction(0)
            continue
        rows = []
        for u in members:
            s = u % ns
            row = {u: Fraction(1)}
            b = Fraction(0)
            for v in arcs[offsets[u] : offsets[u + 1]]:
                c = prob[(s, v % ns)]
                value = mu.get(v)
                if value is None:
                    row[v] = row.get(v, 0) - c
                else:
                    b += c * value
            rows.append(({v: c for v, c in row.items() if c}, b))
        for nodes in system.positives.get(i, ()):
            rows.append(({u: Fraction(1) for u in nodes}, Fraction(1)))
        mu.update(reference_eliminate(rows, members, f"SCC {i}"))

    for u, v in mu.items():
        if v < 0 or v > 1:
            raise SolveError(
                f"mu{G.node_name(u)} = {v} is outside [0,1]; the system is not "
                "the one the theory promises — this is a bug, not an input error"
            )
    target = sum((mu[u] for u in G.initial), Fraction(0))
    return SolveResult(mu, target)


def _reference_gauss(rows: list[list[Fraction]], n_vars: int, what: str) -> list[Fraction]:
    """The dense elimination the sparse one replaced, kept as a reference:
    solve a possibly overdetermined system [A | b]; require a unique,
    consistent solution."""
    m = len(rows)
    pivot_row = 0
    where = [-1] * n_vars
    for col in range(n_vars):
        p = next((r for r in range(pivot_row, m) if rows[r][col] != 0), None)
        if p is None:
            continue
        rows[pivot_row], rows[p] = rows[p], rows[pivot_row]
        inv = 1 / rows[pivot_row][col]
        rows[pivot_row] = [v * inv for v in rows[pivot_row]]
        for r in range(m):
            if r != pivot_row and rows[r][col] != 0:
                f = rows[r][col]
                rows[r] = [v - f * w for v, w in zip(rows[r], rows[pivot_row])]
        where[col] = pivot_row
        pivot_row += 1
    if any(w < 0 for w in where):
        raise SingularSystemError(f"{what}: system does not determine all unknowns")
    for r in range(pivot_row, m):
        if rows[r][n_vars] != 0:
            raise InconsistentSystemError(f"{what}: equations are inconsistent")
    return [rows[where[c]][n_vars] for c in range(n_vars)]


def _sparse(dense: list[list[Fraction]], n_vars: int):
    """Integer rows of [A | b]: each row times the lcm of its denominators."""
    rows = []
    for row in dense:
        scale = math.lcm(*(v.denominator for v in row))
        ints = [int(v * scale) for v in row]
        rows.append(({j: v for j, v in enumerate(ints[:n_vars]) if v}, ints[n_vars]))
    return rows


def _values(solution: tuple[dict[int, int], int]) -> dict[int, Fraction]:
    num, den = solution
    assert den > 0
    return {u: Fraction(n, den) for u, n in num.items()}


def _solve_sparse(rows, n_vars: int, what: str) -> list[Fraction]:
    x = _values(_eliminate(rows, range(n_vars), what))
    return [x[j] for j in range(n_vars)]


def _outcome(solve, rows, n_vars):
    try:
        return solve(rows, n_vars, "block")
    except (SingularSystemError, InconsistentSystemError) as exc:
        return type(exc)


def _either(solve, *args):
    """The solution, or the type and message of the error raised."""
    try:
        return solve(*args)
    except (SolveError, CapacityError) as exc:
        return type(exc), str(exc)


def test_eliminate_duplicate_rows_are_singular():
    row = {0: 2, 1: -1}
    with pytest.raises(SingularSystemError, match="^SCC 7: system does not determine all unknowns$"):
        _eliminate([(dict(row), 1), (dict(row), 1)], range(2), "SCC 7")


def test_eliminate_contradiction_is_inconsistent():
    with pytest.raises(InconsistentSystemError, match="^SCC 3: equations are inconsistent$"):
        _eliminate([({0: 1}, 1), ({0: 1}, 2)], range(1), "SCC 3")


def test_eliminate_overdetermined_consistent_system():
    # x + y = 3, x - y = 1, 2x + y = 5, and y alone = 1
    rows = [({0: 1, 1: 1}, 3), ({0: 1, 1: -1}, 1), ({0: 2, 1: 1}, 5), ({1: 1}, 1)]
    assert _eliminate(rows, range(2), "SCC 0") == ({0: 2, 1: 1}, 1)


def test_eliminate_gives_one_common_denominator():
    # 3x = 1, 2y - x = 0: x = 1/3 and y = 1/6 over the lcm 6
    rows = [({0: 3}, 1), ({1: 2, 0: -1}, 0)]
    assert _eliminate(rows, range(2), "SCC 0") == ({0: 2, 1: 1}, 6)


_ENTRY = st.sampled_from([F(0)] * 4 + [F(1), F(-1), F(1, 2), F(-1, 3), F(2), F(3, 4)])


@given(
    st.sampled_from(["square", "overdetermined", "deficient", "inconsistent"]),
    st.integers(1, 4),
    st.data(),
)
def test_eliminate_matches_dense_reference(kind, n, data):
    m = n + data.draw(st.integers(1, 3)) if kind in ("overdetermined", "inconsistent") else n
    A = [[data.draw(_ENTRY) for _ in range(n)] for _ in range(m)]
    x = [data.draw(_ENTRY) for _ in range(n)]
    if kind == "deficient":
        # the last row repeats a multiple of the first (or is zero if alone)
        c = data.draw(_ENTRY) if m > 1 else F(0)
        A[-1] = [c * a for a in A[0]]
    b = [sum((a * v for a, v in zip(row, x)), F(0)) for row in A]
    if kind == "inconsistent":
        b[data.draw(st.integers(0, m - 1))] += 1
    dense = [row + [rhs] for row, rhs in zip(A, b)]
    want = _outcome(_reference_gauss, [row[:] for row in dense], n)
    got = _outcome(_solve_sparse, _sparse(dense, n), n)
    assert got == want
    if kind == "deficient":
        assert got is SingularSystemError
    if isinstance(got, list):
        assert all(type(v) is Fraction for v in got)
        if kind != "inconsistent":
            assert got == x  # a unique solution is the one the system was built from


def _both_kernels(rows: list[tuple[dict[int, int], int]], n: int, what: str):
    """``_eliminate`` on integer rows and the reference on the same rows as
    Fractions: each a solution as Fractions, or an error and its message.
    ``rows`` is left as it was."""
    fractions = [({j: F(a) for j, a in row.items()}, F(b)) for row, b in rows]
    copy = [(dict(row), b) for row, b in rows]
    want = _either(reference_eliminate, fractions, range(n), what)
    got = _either(lambda *args: _values(_eliminate(*args)), copy, range(n), what)
    return got, want


# entries up to 2^70 in size, so that products pass any machine word
_BIG = st.one_of(st.sampled_from([0] * 6 + [1, -1, 2, -3]), st.integers(-(2**70), 2**70))


@given(
    st.sampled_from(["square", "overdetermined", "deficient", "inconsistent"]),
    st.integers(1, 6),
    st.data(),
)
def test_eliminate_matches_reference_kernel(kind, n, data):
    m = n + data.draw(st.integers(1, 3)) if kind in ("overdetermined", "inconsistent") else n
    A = [[data.draw(_BIG) for _ in range(n)] for _ in range(m)]
    x = [data.draw(_BIG) for _ in range(n)]
    if kind == "deficient":
        # the last row repeats a multiple of the first (or is zero if alone)
        c = data.draw(_BIG) if m > 1 else 0
        A[-1] = [c * a for a in A[0]]
    if data.draw(st.booleans()):
        # a large denominator on the first unknown: it solves to x[0] / d
        d = data.draw(st.integers(2, 2**40))
        A = [[row[0] * d, *row[1:]] for row in A]
        x[0] = F(x[0], d)
    b = [sum(a * v for a, v in zip(row, x)) for row in A]
    if kind == "inconsistent":
        b[data.draw(st.integers(0, m - 1))] += data.draw(st.integers(1, 2**70))
    rows = [({j: a for j, a in enumerate(row) if a}, int(rhs)) for row, rhs in zip(A, b)]
    got, want = _both_kernels(rows, n, "SCC 5")
    assert got == want
    if kind == "deficient":
        assert got[0] is SingularSystemError
    if isinstance(got, dict):
        assert list(got) == list(want)  # the same pivot order
        assert all(type(v) is Fraction for v in got.values())
        if kind != "inconsistent":
            assert got == dict(enumerate(x))


@pytest.mark.parametrize("seed", range(4))
def test_eliminate_stops_at_the_fill_budget_where_the_reference_does(seed, monkeypatch):
    rng = random.Random(seed)
    for n in (4, 8, 14):
        rows = [
            ({j: a for j in rng.sample(range(n), 3) if (a := rng.randint(-5, 5))}, rng.randint(-9, 9))
            for _ in range(n)
        ]
        # every budget up to the first that the reference gets past
        for budget in itertools.count():
            monkeypatch.setattr(eqsys, "FILL_BUDGET", budget)
            got, want = _both_kernels(rows, n, "SCC 9")
            assert got == want
            if want != (CapacityError, f"SCC 9: elimination of a {n}-node block exceeds the "
                        f"fill budget of {budget} entries"):
                break
        assert budget > 0


def _solve_both(M, formula, evaluation):
    """``_solve_blocks`` and the reference on one (chain, formula,
    evaluation), set up as ``check`` sets it up."""
    Q = lump(M, atomic_props(formula))
    system = analyze(Q, formula).system
    report = well_defined(M, evaluation)
    assert report.ok
    prob = lumped_values(Q, report.values, evaluation)
    return _solve_blocks(system, prob), reference_solve_blocks(system, prob)


def _assert_same_result(got, want):
    assert got == want
    assert list(got.mu) == list(want.mu)
    assert all(type(v) is Fraction for v in got.mu.values())
    assert type(got.target) is Fraction


@pytest.mark.parametrize("make, sizes", [(random_mc, (6, 12, 20)), (chain_mc, (20, 40))])
def test_solve_blocks_matches_reference_kernel(make, sizes, rng):
    texts = ["F a", "G F a", "F G a", "a U b", "G (a -> F b)", "! a U (b & X a)", "G F a & F G !b"]
    for n in sizes:
        for _ in range(3):
            M = make(rng, n)
            for text in texts:
                got, want = _solve_both(M, parse_formula(text), {})
                _assert_same_result(got, want)


@given(interval_chains(), st.data())
@settings(max_examples=40)
def test_solve_blocks_matches_reference_kernel_on_interval_rows(text, data):
    M = as_pmc(text)
    axes = grid_axes(M, 5)
    evaluation = {name: data.draw(st.sampled_from(axis)) for name, axis in axes.items()}
    if not well_defined(M, evaluation).ok:
        return
    for formula in ("F goal", "! goal U goal", "G ! goal"):
        got, want = _solve_both(M, parse_formula(formula), evaluation)
        _assert_same_result(got, want)


def strongly_connected_mc(rng: random.Random, n: int) -> Pmc:
    """n states on a ring, each with two more random successors, and two
    absorbing states g and b that each row leaks 1/64 to 3/64 into: under
    ``F g`` the n states form one block with no normalization row, whose
    values lie strictly between 0 and 1."""
    states = (*(f"s{i}" for i in range(n)), "g", "b")
    labels = (*(frozenset() for _ in range(n)), frozenset({"g"}), frozenset())
    one = RationalFunction.const(F(1))
    trans: dict[tuple[int, int], RationalFunction] = {(n, n): one, (n + 1, n + 1): one}
    for s in range(n):
        ring = (s + 1) % n
        succs = [ring, *rng.sample([t for t in range(n) if t != ring], 2), n, n + 1]
        leaks = [rng.randint(1, 3), rng.randint(1, 3)]
        cuts = sorted(rng.sample(range(1, 64 - sum(leaks)), 2))
        weights = [cuts[0], cuts[1] - cuts[0], 64 - sum(leaks) - cuts[1], *leaks]
        for t, w in zip(succs, weights):
            trans[(s, t)] = RationalFunction.const(F(w, 64))
    return Pmc(states, labels, 0, {}, trans)


@pytest.mark.parametrize("n", [60, 150])
def test_large_block_solves_to_the_reference_kernel_exactly(n):
    M = strongly_connected_mc(random.Random(n), n)
    f = parse_formula("F g")
    got, want = _solve_both(M, f, {})
    part = analyze(M, f).system.partition
    assert max(len(part.members(i)) for i in range(len(part))) == n
    assert 0 < got.target < 1
    _assert_same_result(got, want)
    if n <= 60:
        # the oracle's dense elimination takes 0.8 s here and 13 s at 150 nodes
        assert got.target == prob_of_formula(ConcreteMc.from_pmc(M, {}), f)


# ---------------------------------------------------------------------------
# Pipeline entry points
# ---------------------------------------------------------------------------


def test_analyze_times_and_capacity(monkeypatch):
    M = load("branch13.pmc")
    a = analyze(M, parse_formula("F success"))
    assert set(a.times) == {"translate", "product", "scc", "classify"}
    monkeypatch.setattr(product, "NODE_BUDGET", 4)
    with pytest.raises(CapacityError):
        analyze(M, parse_formula("F success"))


def grid_synth(M, text, resolution=11):
    axes = grid_axes(M, resolution)
    query = parse_pltl(text)
    return synth_grid(analyze(M, query.formula).system, query, axes)


def test_synth_grid_finds_first_witness():
    M = load("split_cycle.pmc")
    # P(X y) = 1/2 + eps; strict bounds drop both endpoints of (-1/2, 1/2)
    res = grid_synth(M, "P >= 3/4 [ X y ]", resolution=5)
    assert res.witness == {"eps": F(1, 4)}
    assert res.value == F(3, 4)
    assert res.tried == 3 and res.admitted == 3


def test_synth_grid_no_witness():
    M = load("split_cycle.pmc")
    res = grid_synth(M, "P > 9/10 [ X y ]", resolution=5)
    assert res.witness is None and res.value is None
    assert res.tried == 3 and res.admitted == 3


def test_synth_grid_without_parameters():
    M = load("branch13.pmc")
    res = grid_synth(M, "P in [1/3, 1/3] [ F success ]")
    assert res.witness == {} and res.value == F(1, 3)
    assert res.tried == 1
    res = grid_synth(M, "P in [2/3, 2/3] [ F success ]")
    assert res.witness is None
    assert res.tried == 1


def test_synth_grid_errors():
    M = load("split_cycle.pmc")
    with pytest.raises(GridError):
        grid_axes(M, 1)
    with pytest.raises(GridError):
        # resolution 2 puts points only on the excluded open endpoints
        grid_axes(M, 2)


def reference_synth_grid(system, query, axes):
    """The grid scan as one loop over every point: ``solve_concrete`` at each,
    skipping the points that are not well-defined."""
    tried = admitted = 0
    for combo in itertools.product(*axes.values()):
        evaluation = dict(zip(axes, combo))
        tried += 1
        try:
            result = solve_concrete(system, evaluation)
        except IllDefinedEvaluationError:
            continue
        admitted += 1
        if query.admits(result.target):
            return SynthResult(evaluation, result.target, tried, admitted)
    return SynthResult(None, None, tried, admitted)


def as_pmc(text):
    M = parse_model(text)
    return imc_to_pmc(M) if isinstance(M, Imc) else M


def assert_scans_agree(M, formula, bounds, axes):
    """``synth_grid`` and the reference agree on every query: one per
    (lo, hi) bound, and one that admits nothing, so the whole grid is
    scanned."""
    system = analyze(M, parse_formula(formula)).system
    for lo, hi in [*bounds, (F(2), F(2))]:
        query = PltlQuery(parse_formula(formula), lo, hi)
        got = synth_grid(system, query, axes)
        assert got == reference_synth_grid(system, query, axes)
        if got.witness is not None:
            assert list(got.witness) == list(axes)


# branch13.pmc has no parameters: its grid is the one empty point
BUNDLED_QUERIES = [
    ("branch13.pmc", "F success", [(F(0), F(1)), (F(1, 2), F(1))]),
    ("loop_pair.pmc", "G F x | G F w", [(F(1, 4), F(1))]),
    ("split_cycle.pmc", "X y", [(F(3, 4), F(1)), (F(0), F(1, 4))]),
    ("split_cycle.pmc", "X X X X y & X y", [(F(1, 10), F(1))]),
    ("interval_row.imc", "F goal", [(F(3, 5), F(1)), (F(1, 2), F(1, 2))]),
]


@pytest.mark.parametrize("resolution", [3, 5, 8])
@pytest.mark.parametrize("name, formula, bounds", BUNDLED_QUERIES)
def test_synth_grid_matches_reference_on_bundled_models(name, formula, bounds, resolution):
    M = as_pmc((MODELS / name).read_text())
    assert_scans_agree(M, formula, bounds, grid_axes(M, resolution))


# p_s_t = 0 zeroes an entry
ROW2 = """
imc
state s {};
state t {goal};
state w {};
init s;
trans s -> t : [0, 1];
trans s -> w : [1/3, 2/3];
trans t -> t : [1, 1];
trans w -> w : [1, 1];
"""

ROW3 = """
imc
state s {};
state t {goal};
state u {};
state w {};
init s;
trans s -> t : [0, 1/2];
trans s -> u : [1/4, 3/4];
trans s -> w : [1/10, 1];
trans t -> t : [1, 1];
trans u -> t : [1/2, 1/2];
trans u -> w : [1/2, 1/2];
trans w -> w : [1, 1];
"""

# p = 1/2 makes both denominators vanish; p = 0 and p = 1 zero an entry
VANISHING = """
pmc
param p in [0, 1];
param q in [0, 1];
state s;
state t {goal};
state u;
state v;
init s;
trans s -> t : p / (2*p - 1);
trans s -> u : (p - 1) / (2*p - 1);
trans t -> t : 1;
trans u -> t : q;
trans u -> v : 1 - q;
trans v -> v : 1;
"""

# a = 0 and b = 1/2 zero an entry, a past 1/2 puts one outside [0, 1]; r is
# read by no transition
ZERO_ENTRY = """
pmc
param r in (0, 1);
param a in [-1, 1];
param b in [0, 1/2];
state s;
state t {goal};
state u;
init s;
trans s -> t : 1/2 + a;
trans s -> u : 1/2 - a;
trans t -> t : 1;
trans u -> t : b;
trans u -> u : 1 - b;
"""


@pytest.mark.parametrize("resolution", [3, 5, 9])
@pytest.mark.parametrize(
    "text", [ROW2, ROW3, VANISHING, ZERO_ENTRY], ids=["row2", "row3", "vanishing", "zero-entry"]
)
def test_synth_grid_matches_reference_on_ill_defined_points(text, resolution):
    M = as_pmc(text)
    assert_scans_agree(M, "F goal", [(F(1, 2), F(1)), (F(9, 10), F(1))], grid_axes(M, resolution))


def test_synth_grid_matches_reference_off_the_parameter_range():
    # axes not made by grid_axes: the ends of eps's open range, and eps = 1
    # past its end, are ill-defined points
    M = load("split_cycle.pmc")
    axes = {"eps": [F(-1, 2), F(0), F(1, 4), F(1, 2), F(1)]}
    assert_scans_agree(M, "X y", [(F(3, 4), F(1)), (F(1, 2), F(1, 2))], axes)
    # p_s_t = 9/10, p_s_w = 1/10 sums to 1 with both outside their ranges
    M = imc_to_pmc(load("interval_row.imc"))
    axes = {
        "p_s_t": [F(1, 10), F(1, 5), F(1, 2), F(7, 10), F(9, 10)],
        "p_s_w": [F(1, 10), F(3, 10), F(1, 2), F(4, 5)],
        "p_t_t": [F(1)],
        "p_w_w": [F(1)],
    }
    assert_scans_agree(M, "F goal", [(F(4, 5), F(1)), (F(1, 5), F(1, 5))], axes)


# two interval rows: r0's last entry forces p_r0_b, r1's forces p_r1_c
TWO_ROWS = """
imc
state r0 {};
state r1 {};
state g {goal};
state b {};
state c {};
init r0;
trans r0 -> r1 : [1/4, 3/4];
trans r0 -> b : [1/4, 3/4];
trans r1 -> g : [0, 1];
trans r1 -> c : [1/4, 1];
trans g -> g : [1, 1];
trans b -> b : [1, 1];
trans c -> c : [1, 1];
"""

def test_synth_grid_matches_reference_on_forced_axes():
    # P(F goal) = p_s_t; row s forces p_s_w = 1 - p_s_t, and rows t and w
    # force their sinks' parameters to 1
    M = imc_to_pmc(load("interval_row.imc"))
    sinks = {"p_t_t": [F(1)], "p_w_w": [F(1)]}
    # p_s_t = 1/2 forces p_s_w's upper end, 1/2; the witness p_s_t = 3/5
    # forces 2/5, mid-axis: the scan stops there, before 1/2
    axes = {"p_s_t": [F(1, 2), F(3, 5)], "p_s_w": [F(3, 10), F(2, 5), F(1, 2)], **sinks}
    assert_scans_agree(M, "F goal", [(F(3, 5), F(1))], axes)
    query = PltlQuery(parse_formula("F goal"), F(3, 5), F(1))
    res = synth_grid(analyze(M, query.formula).system, query, axes)
    assert (res.witness["p_s_w"], res.tried, res.admitted) == (F(2, 5), 5, 2)
    # p_s_t = 1/5 forces 4/5, off the axis: every point is tried, none admitted
    axes = {"p_s_t": [F(1, 5)], "p_s_w": [F(3, 10), F(1, 2)], **sinks}
    assert_scans_agree(M, "F goal", [(F(0), F(1))], axes)
    query = PltlQuery(parse_formula("F goal"), F(0), F(1))
    res = synth_grid(analyze(M, query.formula).system, query, axes)
    assert (res.witness, res.tried, res.admitted) == (None, 2, 0)
    # grid:3 puts p_s_t on 1/5, 9/20 and 7/10, which force 4/5 and 11/20,
    # both off p_s_w's axis, and 3/10, its lower end
    assert_scans_agree(M, "F goal", [(F(1, 2), F(1)), (F(0), F(1, 2))], grid_axes(M, 3))
    # two rows, each forcing its own axis
    M = imc_to_pmc(parse_model(TWO_ROWS))
    for resolution in (3, 5, 9):
        assert_scans_agree(M, "F goal", [(F(1, 4), F(1)), (F(1, 2), F(1))], grid_axes(M, resolution))


def test_synth_grid_matches_reference_on_a_one_value_axis_off_its_range():
    # p_t_t = 1/2 is outside [1, 1] and leaves row t summing to 1/2: the
    # axis is fixed before the scan, so stage 0 fails the whole grid
    M = imc_to_pmc(load("interval_row.imc"))
    axes = {**grid_axes(M, 5), "p_t_t": [F(1, 2)]}
    assert_scans_agree(M, "F goal", [(F(0), F(1))], axes)
    query = PltlQuery(parse_formula("F goal"), F(0), F(1))
    res = synth_grid(analyze(M, query.formula).system, query, axes)
    assert (res.witness, res.tried, res.admitted) == (None, 25, 0)


# c's range is a point, so grid_axes gives it one value, and it is read in
# one entry together with the scanned p
POINT_RANGE = """
pmc
param c in [1/2, 1/2];
param p in [0, 1];
state s;
state t {goal};
state u;
init s;
trans s -> t : c*p;
trans s -> u : 1 - c*p;
trans t -> t : 1;
trans u -> u : 1;
"""


@pytest.mark.parametrize("resolution", [3, 5, 9])
def test_synth_grid_matches_reference_on_a_point_range_read_with_a_scanned_parameter(resolution):
    M = parse_model(POINT_RANGE)
    axes = grid_axes(M, resolution)
    assert axes["c"] == [F(1, 2)]
    assert_scans_agree(M, "F goal", [(F(1, 4), F(1)), (F(1, 2), F(1))], axes)


def test_synth_grid_matches_reference_when_every_axis_has_one_value():
    # the grid is one point, fixed before the scan and tried once; p_s_t =
    # 4/5 is outside its range, so that point is not admitted
    M = imc_to_pmc(load("interval_row.imc"))
    query = PltlQuery(parse_formula("F goal"), F(2), F(2))
    system = analyze(M, query.formula).system
    for p_s_t, admitted in [(F(3, 5), 1), (F(4, 5), 0)]:
        axes = {"p_s_t": [p_s_t], "p_s_w": [1 - p_s_t], "p_t_t": [F(1)], "p_w_w": [F(1)]}
        assert_scans_agree(M, "F goal", [(F(1, 2), F(1))], axes)
        res = synth_grid(system, query, axes)
        assert (res.witness, res.tried, res.admitted) == (None, 1, admitted)


def test_synth_grid_refuses_an_axis_that_repeats_a_value():
    M = load("split_cycle.pmc")
    query = parse_pltl("P >= 0 [ X y ]")
    system = analyze(M, query.formula).system
    with pytest.raises(GridError, match="eps repeats a value"):
        synth_grid(system, query, {"eps": [F(1, 4), F(1, 4)]})


@settings(max_examples=60)
@given(interval_chains(), st.integers(2, 5), QUARTER)
def test_synth_grid_matches_reference_on_random_interval_rows(text, resolution, threshold):
    M = as_pmc(text)
    assert_scans_agree(M, "F goal", [(threshold, F(1))], grid_axes(M, resolution))


def test_synth_grid_evaluates_each_entry_once_its_parameters_are_fixed(monkeypatch):
    # s -> t is evaluated once per value of p_s_t; row s forces p_s_w, so
    # s -> w is evaluated only under the 9 values of p_s_t that force a value
    # on its axis; p_t_t and p_w_w have one value each and are fixed before
    # the scan, so t -> t and w -> w are evaluated once
    M = imc_to_pmc(load("interval_row.imc"))
    query = parse_pltl("P > 7/10 [ F goal ]")
    system = analyze(M, query.formula).system
    calls = collections.Counter()
    evaluate = RationalFunction.evaluate

    def counted(self, assignment):
        calls[id(self)] += 1
        return evaluate(self, assignment)

    monkeypatch.setattr(RationalFunction, "evaluate", counted)
    res = synth_grid(system, query, grid_axes(M, 41))
    assert (res.witness, res.tried, res.admitted) == (None, 1681, 9)
    per_entry = {f"{M.states[s]} -> {M.states[t]}": calls[id(f)] for (s, t), f in M.trans.items()}
    assert per_entry == {"s -> t": 41, "s -> w": 9, "t -> t": 1, "w -> w": 1}
    assert sum(calls.values()) == 52


def test_synth_grid_evaluates_each_shared_function_once_per_stage(monkeypatch):
    # a crowds-shaped chain with 3 members: its 16 transitions share p/3,
    # 1 - p, 1/3 and 1, one parsed object each, and every point of p's grid
    # is admitted and scanned
    members = [f"m{i}" for i in range(3)]
    text = "\n".join(
        ["pmc", "param p in [1/10, 9/10];", "state new {fresh};", "state done {delivered};"]
        + [f"state {m};" for m in members]
        + ["init new;", "trans done -> new : 1;"]
        + [f"trans new -> {m} : 1/3;" for m in members]
        + [f"trans {m} -> {n} : p/3;" for m in members for n in members]
        + [f"trans {m} -> done : 1 - p;" for m in members]
    )
    M = parse_model(text)
    assert len({id(f) for f in M.trans.values()}) == 4
    system = analyze(M, parse_formula("F delivered")).system
    calls = 0
    evaluate = RationalFunction.evaluate

    def counted(self, assignment):
        nonlocal calls
        calls += 1
        return evaluate(self, assignment)

    monkeypatch.setattr(RationalFunction, "evaluate", counted)
    res = synth_grid(system, parse_pltl("P < 1/2 [ F delivered ]"), grid_axes(M, 15))
    assert (res.witness, res.tried, res.admitted) == (None, 15, 15)
    # p/3 and 1 - p per point, and 1/3 and 1 once, at stage 0
    assert calls <= 2 * res.tried + 2
