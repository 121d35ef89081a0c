from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from pmcsynth.eqsys import (
    GridError,
    IllDefinedEvaluationError,
    InconsistentSystemError,
    PltlQuery,
    QuerySyntaxError,
    SingularSystemError,
    _eliminate,
    analyze,
    build_system,
    parse_pltl,
    solve_concrete,
    synth_grid,
)
from pmcsynth.gba import CapacityError, translate
from pmcsynth.ltl import LtlSyntaxError, parse_formula
from pmcsynth.modelgen import crowds_like, random_mc
from pmcsynth.oracle import ConcreteMc, prob_of_formula
from pmcsynth.pmc import parse_model
from pmcsynth.product import build_product

F = Fraction
MODELS = Path(__file__).resolve().parent.parent / "models"


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
    ],
)
def test_parse_pltl_errors(text):
    with pytest.raises((QuerySyntaxError, LtlSyntaxError)):
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
    assert system.n_nodes() == G.n_nodes()
    # normalization rows are keyed by locally positive SCC, one group of
    # member nodes per chain state of its projection
    assert list(system.positives) == [r.index for r in system.pos] != []
    for scc_index, groups in system.positives.items():
        record = system.partition.sccs[scc_index]
        assert record.locally_positive
        assert sorted(u for nodes in groups for u in nodes) == sorted(record.members)
        for nodes in groups:
            assert len({u % G.n_mc() for u in nodes}) == 1


def test_zeros_cannot_reach_positive_sccs():
    M, system = branch_system()
    G = system.graph
    zero_set = set(system.zeros)
    pos_nodes = {u for r in system.pos for u in r.members}
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
        assert system.partition.sccs[scc_index].locally_positive
        for nodes in groups:
            assert len({u % system.graph.n_mc() for u in nodes}) == 1
            assert sum(result.mu[u] for u in nodes) == 1


def test_solution_covers_the_reachable_nodes():
    M, system = branch_system()
    result = solve_concrete(system, {})
    assert result.restricted == {
        u for r in system.partition.sccs if r.reachable for u in r.members
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
    s2 = M.index("s2")
    record_of = {u: r for r in system.partition.sccs for u in r.members}
    degenerate = [
        u
        for u in range(G.n_nodes())
        if u % M.n_states() == s2
        and u in G.succ(u)
        and not record_of[u].locally_positive
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
    assert system.pos == []
    assert set(system.zeros) == {
        u for r in system.partition.sccs if r.reachable for u in r.members
    }
    assert solve_concrete(system, {}).target == 0


def test_ill_defined_evaluation():
    M = load("split_cycle.pmc")
    A = translate(parse_formula("G F y"))
    system = build_system(build_product(A, M))
    with pytest.raises(IllDefinedEvaluationError):
        solve_concrete(system, {"eps": F(1, 2)})  # kills the x -> z entry


def test_large_crowds_blocks_solve_exactly():
    # the 300- and 200-node blocks that dense elimination took 38-48 s on
    M = crowds_like(20, 8, 4)
    evaluation = {name: F(1, 2) for name in M.params}
    for text, block, want in (("! observed U delivered", 300, F(1, 3)), ("G F fresh", 200, F(1))):
        system = analyze(M, parse_formula(text)).system
        sizes = [len(r.members) for r in system.partition.sccs if r.reachable]
        assert max(sizes) == block
        assert solve_concrete(system, evaluation).target == want


# ---------------------------------------------------------------------------
# Sparse elimination
# ---------------------------------------------------------------------------


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
    return [({j: v for j, v in enumerate(row[:n_vars]) if v}, row[n_vars]) for row in dense]


def _solve_sparse(rows, n_vars: int, what: str) -> list[Fraction]:
    x = _eliminate(rows, range(n_vars), what)
    return [x[j] for j in range(n_vars)]


def _outcome(solve, rows, n_vars):
    try:
        return solve(rows, n_vars, "block")
    except (SingularSystemError, InconsistentSystemError) as exc:
        return type(exc)


def test_eliminate_duplicate_rows_are_singular():
    row = {0: F(1), 1: F(-1, 2)}
    with pytest.raises(SingularSystemError, match="^SCC 7: system does not determine all unknowns$"):
        _eliminate([(dict(row), F(1, 2)), (dict(row), F(1, 2))], range(2), "SCC 7")


def test_eliminate_contradiction_is_inconsistent():
    with pytest.raises(InconsistentSystemError, match="^SCC 3: equations are inconsistent$"):
        _eliminate([({0: F(1)}, F(1)), ({0: F(1)}, F(2))], range(1), "SCC 3")


def test_eliminate_overdetermined_consistent_system():
    # x + y = 3, x - y = 1, 2x + y = 5, and y alone = 1
    rows = [
        ({0: F(1), 1: F(1)}, F(3)),
        ({0: F(1), 1: F(-1)}, F(1)),
        ({0: F(2), 1: F(1)}, F(5)),
        ({1: F(1)}, F(1)),
    ]
    x = _eliminate(rows, range(2), "SCC 0")
    assert x == {0: F(2), 1: F(1)}
    assert all(type(v) is Fraction for v in x.values())


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


# ---------------------------------------------------------------------------
# Pipeline entry points
# ---------------------------------------------------------------------------


def test_analyze_times_and_capacity():
    M = load("branch13.pmc")
    a = analyze(M, parse_formula("F success"))
    assert set(a.times) == {"translate", "product", "scc", "classify"}
    with pytest.raises(CapacityError):
        analyze(M, parse_formula("F success"), max_nodes=4)


def test_synth_grid_finds_first_witness():
    M = load("split_cycle.pmc")
    # P(X y) = 1/2 + eps; strict bounds drop both endpoints of (-1/2, 1/2)
    res = synth_grid(M, parse_pltl("P >= 3/4 [ X y ]"), resolution=5)
    assert res.witness == {"eps": F(1, 4)}
    assert res.value == F(3, 4)
    assert res.tried == 3 and res.admitted == 3


def test_synth_grid_no_witness():
    M = load("split_cycle.pmc")
    res = synth_grid(M, parse_pltl("P > 9/10 [ X y ]"), resolution=5)
    assert res.witness is None and res.value is None
    assert res.tried == 3 and res.admitted == 3


def test_synth_grid_without_parameters():
    M = load("branch13.pmc")
    res = synth_grid(M, parse_pltl("P in [1/3, 1/3] [ F success ]"))
    assert res.witness == {} and res.value == F(1, 3)
    assert res.tried == 1
    res = synth_grid(M, parse_pltl("P in [2/3, 2/3] [ F success ]"))
    assert res.witness is None
    assert res.tried == 1


def test_synth_grid_errors():
    M = load("split_cycle.pmc")
    with pytest.raises(GridError):
        synth_grid(M, parse_pltl("P >= 1/2 [ X y ]"), resolution=1)
    with pytest.raises(GridError):
        # resolution 2 puts points only on the excluded open endpoints
        synth_grid(M, parse_pltl("P >= 1/2 [ X y ]"), resolution=2)
