"""Lumping by probabilistic bisimulation (``pmc.lump``): the quotient gives
every formula over the propositions it keeps the given chain's probability,
``check`` and ``synth`` run on it, and its scripts have the models of the
unlumped scripts.  The splitter refinement gives the quotient of the
signature loop (``reference_lump``), and ``check`` grows near-linearly on a
long chain that does not merge."""

import random
import time
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st
from random_inputs import formula_corpus

from pmcsynth import cli, oracle, ratfunc
from pmcsynth.capacity import CapacityError
from pmcsynth.eqsys import (
    IllDefinedEvaluationError,
    PltlQuery,
    analyze,
    grid_axes,
    parse_pltl,
    solve_concrete,
    synth_grid,
)
from pmcsynth.ltl import atomic_props, parse_formula
from pmcsynth.modelgen import chain_mc, crowds_like, random_mc
from pmcsynth.pmc import Param, Pmc, _row_sum, lump, lumped_values, parse_model, well_defined
from pmcsynth.ratfunc import RationalFunction
from pmcsynth.smtlib import check_wellformed, emit_smtlib, evaluate_assertions, mu_name

F = Fraction


def model_text(M: Pmc) -> str:
    """M in the .pmc format: equal bodies share one object when read back."""
    lines = ["pmc"]
    lines += [f"param {p.name} in {p.bounds_str()};" for p in M.params.values()]
    lines += [f"state {s} {{{', '.join(sorted(label))}}};" for s, label in zip(M.states, M.labels)]
    lines.append(f"init {M.states[M.initial]};")
    lines += [f"trans {M.states[a]} -> {M.states[b]} : {f};" for (a, b), f in M.trans.items()]
    return "\n".join(lines) + "\n"


def lumped_probability(M, formula, evaluation):
    """The probability as ``check`` computes it: on the quotient."""
    Q = lump(M, atomic_props(formula))
    return solve_concrete(analyze(Q, formula).system, evaluation).target


def given_probability(M, formula, evaluation):
    return solve_concrete(analyze(M, formula).system, evaluation).target


def with_copies(M: Pmc, copied: set[int]) -> Pmc:
    """M with a copy ``<name>c`` of each copied state: the same label and the
    same row, and each entry into a copied state split into two halves, one
    object for both, into the state and its copy."""
    n = M.n_states()
    copy = {s: n + k for k, s in enumerate(sorted(copied))}
    trans: dict[tuple[int, int], RationalFunction] = {}
    for (s, t), f in M.trans.items():
        if t in copy:
            half = f * RationalFunction.const(F(1, 2))
            trans[s, t] = trans[s, copy[t]] = half
        else:
            trans[s, t] = f
    for (s, t), f in list(trans.items()):
        if s in copy:
            trans[copy[s], t] = f
    states = M.states + tuple(f"{M.states[s]}c" for s in sorted(copied))
    labels = M.labels + tuple(M.labels[s] for s in sorted(copied))
    return Pmc(states, labels, M.initial, M.params, trans)


@given(
    st.integers(0, 2**32 - 1),
    st.integers(2, 9),
    st.sets(st.integers(0, 8), max_size=4),
    st.integers(0, 2**32 - 1),
)
def test_copies_merge_and_keep_the_probability(chain_seed, n, copied, formula_seed):
    M = random_mc(random.Random(chain_seed), n)
    copied = {s for s in copied if s < n}
    N = with_copies(M, copied)
    for formula in formula_corpus(random.Random(formula_seed), 3, 3):
        want = given_probability(N, formula, {})
        assert lumped_probability(N, formula, {}) == want
        assert given_probability(M, formula, {}) == want
    # each copy is bisimilar to its state, which comes first
    Q = lump(N, {"a", "b"})
    assert not any(name.endswith("c") for name in Q.states)
    assert Q.n_states() <= n


def crowds_model(rounds, members, corrupt):
    """crowds_like as ``cli`` reads it, with its bodies shared."""
    return parse_model(model_text(crowds_like(rounds, members, corrupt)))


@pytest.mark.parametrize("shape", [(1, 4, 1), (2, 3, 1), (2, 4, 2), (3, 5, 2)])
@pytest.mark.parametrize(
    "formula_text",
    ["X observed", "F delivered", "G observed", "G F fresh", "F G observed", "fresh U observed"],
)
def test_crowds_agrees_with_the_oracle(shape, formula_text):
    M = crowds_model(*shape)
    formula = parse_formula(formula_text)
    Q = lump(M, atomic_props(formula))
    assert Q.n_states() <= 4 < M.n_states()
    for p in (F(1, 10), F(1, 3), F(9, 10)):
        want = oracle.prob_of_formula(oracle.ConcreteMc.from_pmc(M, {"p": p}), formula)
        assert want is not None
        assert lumped_probability(M, formula, {"p": p}) == want


@given(
    st.integers(0, 2**32 - 1),
    st.integers(2, 12),
    st.sets(st.integers(0, 11), max_size=5),
    st.sampled_from([set(), {"a"}, {"b"}, {"a", "b"}]),
)
def test_lump_is_idempotent(chain_seed, n, copied, ap):
    N = with_copies(random_mc(random.Random(chain_seed), n), {s for s in copied if s < n})
    Q = lump(N, ap)
    assert lump(Q, ap) is Q
    # the quotient's entries are sums of the given entries of its first states
    values = well_defined(N, {}).values
    assert lumped_values(Q, values) == [f.value() for f in Q.functions]


PAIR = """pmc
state s;
state a {a, hot};
state b {a};
state t {t};
init s;
trans s -> a : 1/2;
trans s -> b : 1/2;
trans a -> t : 1;
trans b -> t : 1;
trans t -> t : 1;
"""


def test_states_with_other_labels_in_ap_never_merge():
    M = parse_model(PAIR)
    # a and b have one row; they differ only in hot
    assert lump(M, {"a", "hot"}) is M
    Q = lump(M, {"a"})
    assert Q.states == ("s", "a", "t")
    assert Q.trans[0, 1] == RationalFunction.const(1)
    assert Q.given is M


SPELLED = """pmc
state s;
state x;
state y;
state t {t};
init s;
trans s -> x : 1/2;
trans s -> y : 2/4;
trans x -> x : 0.5;
trans x -> t : 1/2;
trans y -> y : 1/2;
trans y -> t : 0.5;
trans t -> t : 1;
"""


def test_entries_equal_in_value_merge_however_spelled():
    # x and y each stay with 1/2 and move to t with 1/2, spelled apart
    M = parse_model(SPELLED)
    Q = lump(M, {"t"})
    assert Q.states == ("s", "x", "t")
    assert (Q.trans[0, 1], Q.trans[1, 1]) == (RationalFunction.const(1), RationalFunction.const(F(1, 2)))
    formula = parse_formula("F t")
    assert lumped_probability(M, formula, {}) == given_probability(M, formula, {}) == 1


def test_lump_names_the_state_whose_sum_is_over_the_cap():
    # s moves to k absorbing states, which merge, with 1/(k + p_i): the sum
    # of j entries has a denominator of 2^j terms
    k = next(k for k in range(2, 40) if 2**k > ratfunc.TERM_BUDGET)
    params = {f"p{i}": Param(f"p{i}", F(0), F(1)) for i in range(k)}
    one = RationalFunction.const(1)
    trans = {(0, i + 1): one / (RationalFunction.const(k) + RationalFunction.var(f"p{i}")) for i in range(k)}
    trans.update({(i + 1, i + 1): one for i in range(k)})
    states = ("s", *(f"u{i}" for i in range(k)))
    M = Pmc(states, (frozenset(),) * (k + 1), 0, params, trans)
    with pytest.raises(CapacityError, match="^lump: state s: polynomial product would have up to "):
        lump(M, set())


def test_unreachable_states_are_dropped():
    M = parse_model(PAIR.replace("init s;", "init a;"))
    Q = lump(M, {"a", "hot", "t"})
    assert Q.states == ("a", "t")
    assert Q.initial == 0
    formula = parse_formula("X t")
    assert lumped_probability(M, formula, {}) == given_probability(M, formula, {}) == 1


ZERO_SUM = """pmc
param p in (0, 1/2);
state s;
state a;
state b;
state c {goal};
init s;
trans s -> a : p;
trans s -> b : -p;
trans s -> c : 1;
trans a -> c : 1;
trans b -> c : 1;
trans c -> c : 1;
"""


def test_identically_zero_sum_keeps_its_arc():
    # the entries of s into a and b sum to 0 for every p, which counts as
    # no entry: s, a and b each move to c with 1 and merge, and s keeps its
    # arc into their block
    M = parse_model(ZERO_SUM)
    Q = lump(M, {"goal"})
    assert Q.states == ("s", "c")
    assert Q.trans[0, 0].is_zero
    # no evaluation makes both entries positive; the message names b
    with pytest.raises(IllDefinedEvaluationError) as exc:
        solve_concrete(analyze(Q, parse_formula("F goal")).system, {"p": F(1, 4)})
    assert "entry s -> b evaluates to -1/4, outside [0,1]" in str(exc.value)


def test_ill_defined_evaluation_names_the_given_states(capsys, tmp_path):
    path = tmp_path / "zero_sum.pmc"
    path.write_text(ZERO_SUM)
    code = cli.main(["check", "-m", str(path), "-f", "F goal", "-e", "p=1/4"])
    err = capsys.readouterr().err
    assert code == 5
    assert "entry s -> b evaluates to -1/4, outside [0,1]" in err


def _section(script: str, start: str, end: str) -> list[str]:
    lines = script.splitlines()
    return lines[lines.index(start) : lines.index(end)]


def test_lumped_script_has_the_unlumped_models():
    M = crowds_model(3, 4, 2)
    query = parse_pltl("P >= 1/2 [ F (observed & X observed) ]")
    Q = lump(M, atomic_props(query.formula))
    assert Q.n_states() < M.n_states()
    lumped = analyze(Q, query.formula).system
    given_system = analyze(M, query.formula).system
    # the parameter and support sections come from M alone
    sections = ("; parameter ranges", "; flow equations")
    assert _section(emit_smtlib(lumped, query), *sections) == _section(
        emit_smtlib(given_system, query), *sections
    )

    # the solved quotient point is a model with the target pinned to it
    point = {"p": F(3, 10)}
    result = solve_concrete(lumped, point)
    assert result.target == solve_concrete(given_system, point).target
    assignment = {mu_name(lumped, u): v for u, v in result.mu.items()} | point
    pinned = PltlQuery(query.formula, result.target, result.target)
    script = emit_smtlib(lumped, pinned)
    assert evaluate_assertions(check_wellformed(script), assignment) == []
    assert "mu_0.new0" in script and "mix1_" not in script


ZERO_ENTRY = """pmc
param p in [0, 1];
state s;
state a;
state b;
state c {goal};
state d;
init s;
trans s -> a : 1/2;
trans s -> b : 1/2;
trans a -> c : p;
trans a -> d : 1 - p;
trans b -> c : p;
trans b -> d : 1 - p;
trans c -> c : 1;
trans d -> d : 1;
"""


def test_lumped_script_rejects_a_point_with_a_zero_entry():
    M = parse_model(ZERO_ENTRY)
    query = parse_pltl("P >= 1/2 [ F goal ]")
    Q = lump(M, {"goal"})
    assert Q.n_states() == 4
    for system in (analyze(Q, query.formula).system, analyze(M, query.formula).system):
        forms = check_wellformed(emit_smtlib(system, query))
        symbols = [f[1] for f in forms if f[0] == "declare-const"]
        asserts = [f[1] for f in forms if f[0] == "assert"]
        # at p = 0 the entries into c are 0: their positivity fails, whatever mu is
        failed = evaluate_assertions(forms, dict.fromkeys(symbols, F(0)))
        assert asserts.count([">", "p", "0"]) == 1
        assert asserts.index([">", "p", "0"]) in failed


@pytest.mark.parametrize(
    "query_text",
    ["P >= 1/2 [ X X observed ]", "P < 1/10 [ F observed ]", "P > 1/2 [ G F fresh ]"],
)
def test_grid_witness_is_that_of_the_given_chain(query_text):
    M = crowds_model(2, 4, 1)
    query = parse_pltl(query_text)
    axes = grid_axes(M, 9)
    Q = lump(M, atomic_props(query.formula))
    assert Q is not M
    lumped = synth_grid(analyze(Q, query.formula).system, query, axes)
    assert lumped == synth_grid(analyze(M, query.formula).system, query, axes)


BRANCH_TO_ABSORBING = """pmc
param p in [0, 1];
state x;
state y;
state z;
init x;
trans x -> y : p;
trans x -> z : 1 - p;
trans y -> y : 1;
trans z -> z : 1;
"""


def test_a_system_over_a_quotient_checks_the_given_chain():
    # y and z merge for X a, and the entry x -> y is p + 1 - p = 1, the
    # function of y's entry: x merges too, and its entry is 1
    M = parse_model(BRANCH_TO_ABSORBING)
    query = parse_pltl("P >= 0 [ X a ]")
    Q = lump(M, {"a"})
    assert Q.states == ("x",) and Q.trans[0, 0] == RationalFunction.const(1)
    assert Q.given is M and M.given is M
    system = analyze(Q, query.formula).system
    # p = 0 makes the given entry x -> y vanish, not the quotient's
    with pytest.raises(IllDefinedEvaluationError) as exc:
        solve_concrete(system, {"p": F(0)})
    assert "entry x -> y evaluates to 0" in str(exc.value)
    result = synth_grid(system, query, {"p": [F(0), F(1, 2), F(1)]})
    assert (result.witness, result.tried, result.admitted) == ({"p": F(1, 2)}, 2, 1)
    assert "(assert (> p 0))" in emit_smtlib(system, query).splitlines()


TWICE = """pmc
state s;
state a {a, hot};
state b {a};
state t {t};
state u {t};
init s;
trans s -> a : 1/2;
trans s -> b : 1/2;
trans a -> t : 1;
trans b -> u : 1;
trans t -> t : 1;
trans u -> u : 1;
"""


def test_lumping_a_quotient_keeps_the_first_given_chain():
    M = parse_model(TWICE)
    Q = lump(M, {"a", "hot", "t"})  # t and u merge
    R = lump(Q, {"a", "t"})  # then a and b
    assert (Q.states, R.states) == (("s", "a", "b", "t"), ("s", "a", "t"))
    assert Q.given is M and R.given is M
    values = lumped_values(R, well_defined(M, {}).values)
    by_entry = {(s, t): values[i] for s in range(R.n_states()) for t, i in R.row(s)}
    assert by_entry == {(0, 1): 1, (1, 2): 1, (2, 2): 1}


# ---------------------------------------------------------------------------
# The splitter refinement against the signature loop
# ---------------------------------------------------------------------------


def reference_lump(M: Pmc, ap) -> Pmc:
    """``lump`` by signature refinement: each round rebuilds every live
    state's signature, its block and the sorted (successor block, sum)
    pairs, the sum of its entries into the block coded by its structure and
    left out where it is identically 0, until the number of blocks stays.
    Up to n rounds of n signatures each; the quotient is built as ``lump``
    builds it."""
    ap = frozenset(ap)
    seen = {M.initial}
    stack = [M.initial]
    while stack:
        for t, _ in M.succ(stack.pop()):
            if t not in seen:
                seen.add(t)
                stack.append(t)
    live = sorted(seen)
    n = len(live)
    at = {s: k for k, s in enumerate(live)}
    rows = [[(at[t], f) for t, f in M.succ(s)] for s in live]
    # each distinct (numerator, denominator) pair, numbered as it comes
    code: dict = {}

    def sums(k: int, block: list[int]) -> dict[int, RationalFunction]:
        into: dict[int, list[RationalFunction]] = {}
        for t, f in rows[k]:
            into.setdefault(block[t], []).append(f)
        return {c: fs[0] if len(fs) == 1 else _row_sum(fs, range(len(fs))) for c, fs in into.items()}

    # blocks are numbered by their first state, so a stable partition
    # keeps its numbers
    numbers: dict = {}
    block = [numbers.setdefault(M.labels[s] & ap, len(numbers)) for s in live]
    count = len(numbers)
    while count < n:
        # a state alone in its block stays alone: its block is its key
        size = Counter(block)
        signatures = [
            (b, *sorted((c, code.setdefault((f.num, f.den), len(code))) for c, f in sums(k, block).items() if not f.is_zero))
            if size[b] > 1 else b
            for k, b in enumerate(block)
        ]
        numbers = {}
        block = [numbers.setdefault(key, len(numbers)) for key in signatures]
        if len(numbers) == count:
            break
        count = len(numbers)
    if count == M.n_states():
        return M

    reps: list[int] = []
    for k, b in enumerate(block):
        if b == len(reps):
            reps.append(k)
    trans = {(b, c): f for b, k in enumerate(reps) for c, f in sums(k, block).items()}
    return Pmc(
        tuple(M.states[live[k]] for k in reps),
        tuple(M.labels[live[k]] for k in reps),
        block[at[M.initial]],
        M.params,
        trans,
    )


def assert_same_quotient(M: Pmc, ap) -> None:
    """``lump`` and ``reference_lump`` give the same quotient, field by field:
    the same rows over the same functions, equal in structure, and each
    function of ``lump``'s quotient the sum of its summands in the given
    chain."""
    got, want = lump(M, ap), reference_lump(M, ap)
    assert (got is M) == (want is M)
    if want is M:
        return
    assert (got.states, got.labels, got.initial) == (want.states, want.labels, want.initial)
    assert got.params is want.params and got.given is M.given
    assert (got.offsets, got.targets, got.entries) == (want.offsets, want.targets, want.entries)
    assert [(f.num, f.den) for f in got.functions] == [(g.num, g.den) for g in want.functions]
    given = M.given.functions
    for f, summands in zip(got.functions, got.summands, strict=True):
        assert _row_sum(given, summands) == f


def path_text(n: int, goal_every: int = 0) -> str:
    """A path s0 -> s1 -> ... whose states stay with 1 - p and move on with
    p; the last state is absorbing and labelled ``g``.  With ``goal_every``
    k, every k-th state is labelled ``g`` too, so states merge by their
    distance to the next one."""
    lines = ["pmc", "param p in (0, 1);"]
    for i in range(n):
        goal = i == n - 1 or (goal_every and i % goal_every == goal_every - 1)
        lines.append(f"state s{i}{' {g}' if goal else ''};")
    lines.append("init s0;")
    for i in range(n - 1):
        lines += [f"trans s{i} -> s{i + 1} : p;", f"trans s{i} -> s{i} : 1 - p;"]
    lines.append(f"trans s{n - 1} -> s{n - 1} : 1;")
    return "\n".join(lines) + "\n"


CROSSED = """pmc
param p in (0, 1);
state s {a};
state x;
state y;
state t;
state u;
init s;
trans s -> x : 1/2;
trans s -> y : 1/2;
trans x -> t : p;
trans x -> u : 1 - p;
trans y -> t : 1 - p;
trans y -> u : p;
trans t -> t : 1;
trans u -> u : 1;
"""


def test_entries_into_a_block_are_compared_by_their_sum():
    # x and y send p and 1 - p into the block {t, u} in opposite order; with
    # t and u labelled g, x and y merge and no further
    M = parse_model(CROSSED.replace("state t;", "state t {g};").replace("state u;", "state u {g};"))
    Q = lump(M, {"a", "g"})
    assert Q.states == ("s", "x", "t")
    assert Q.trans[1, 2] == RationalFunction.const(1)
    assert_same_quotient(M, {"a", "g"})
    # unlabelled, x's entry 1 into the block is that of t and u: all four merge
    M = parse_model(CROSSED)
    Q = lump(M, {"a"})
    assert Q.states == ("s", "x")
    assert Q.trans[1, 1] == RationalFunction.const(1)
    assert_same_quotient(M, {"a"})


LABEL_SETS = (set(), {"a"}, {"b"}, {"a", "b"})
CROWDS_LABEL_SETS = (
    set(),
    {"observed"},
    {"fresh"},
    {"observed", "fresh"},
    {"observed", "delivered", "fresh"},
)


@pytest.mark.parametrize("first", range(0, 200, 50))
def test_lump_is_the_reference_on_random_chains(first):
    # each chain as built in memory and as read back
    for seed in range(first, first + 50):
        rng = random.Random(seed)
        M = random_mc(rng, rng.randint(1, 40))
        for chain in (M, parse_model(model_text(M))):
            for ap in LABEL_SETS:
                assert_same_quotient(chain, ap)


@pytest.mark.parametrize("shape", [(1, 4, 1), (2, 3, 1), (2, 4, 2), (3, 5, 2)])
def test_lump_is_the_reference_on_crowds(shape):
    M = crowds_like(*shape)
    for chain in (M, parse_model(model_text(M))):
        for ap in CROWDS_LABEL_SETS:
            assert_same_quotient(chain, ap)


def test_lump_is_the_reference_on_long_chains():
    for seed in range(20):
        M = chain_mc(random.Random(seed), 300)
        for ap in LABEL_SETS:
            assert_same_quotient(M, ap)


@given(
    st.integers(0, 2**32 - 1),
    st.integers(2, 12),
    st.sets(st.integers(0, 11), max_size=6),
    st.sampled_from(LABEL_SETS),
)
def test_lump_is_the_reference_with_copies(chain_seed, n, copied, ap):
    M = random_mc(random.Random(chain_seed), n)
    N = with_copies(M, {s for s in copied if s < n})
    assert_same_quotient(N, ap)
    assert_same_quotient(parse_model(model_text(N)), ap)


@pytest.mark.parametrize("n", [1, 2, 3, 50, 300])
@pytest.mark.parametrize("goal_every", [0, 1, 2, 7])
def test_lump_is_the_reference_on_paths(n, goal_every):
    M = parse_model(path_text(n, goal_every))
    for ap in (set(), {"g"}):
        assert_same_quotient(M, ap)


def test_lump_is_the_reference_on_benchmark_shapes():
    # the modelgen calls and sizes of the check-mix and emit-smt workloads,
    # read back as the command line reads them
    rng = random.Random(1)
    for n in (20, 40, 60, 80, 100, 120):
        for _ in range(3):
            M = parse_model(model_text(random_mc(rng, n)))
            for ap in LABEL_SETS:
                assert_same_quotient(M, ap)
    shapes = [(1, 4, 1), (2, 3, 1), (1, 6, 2), (2, 4, 2)]
    shapes += [(18, 20, 1), (20, 20, 5), (24, 20, 3)]
    for shape in shapes:
        M = parse_model(model_text(crowds_like(*shape)))
        for ap in CROWDS_LABEL_SETS:
            assert_same_quotient(M, ap)


def test_check_is_near_linear_on_a_path(capsys, tmp_path):
    # nothing merges on the path, so signature refinement took one round per
    # state: 88 times longer at ten times the size
    def seconds(n: int, runs: int) -> float:
        path = tmp_path / f"path{n}.pmc"
        path.write_text(path_text(n))
        best = float("inf")
        for _ in range(runs):
            start = time.perf_counter()
            code = cli.main(["check", "-m", str(path), "-f", "F g", "-e", "p=1/2"])
            best = min(best, time.perf_counter() - start)
            assert code == 0
            assert capsys.readouterr().out.endswith("probability = 1\n")
        return best

    small, large = seconds(400, 3), seconds(4000, 1)
    assert large < 5.0
    assert large < 40 * small, (small, large)


def cascade_text(k: int) -> str:
    """Two paths z_k -> ... -> z_0 and y_k -> ... -> y_0, each ending in an
    absorbing state, from y_k; y_j moves to y_(j-1) and z_(j-1) with 1/2
    each.  Nothing is labelled, so every state merges, though y_j's two
    entries meet in one block only once y_(j-1) and z_(j-1) have."""
    lines = ["pmc"]
    lines += [f"state {c}{j};" for j in range(k + 1) for c in "zy"]
    lines += [f"init y{k};", "trans z0 -> z0 : 1;", "trans y0 -> y0 : 1;"]
    for j in range(1, k + 1):
        lines += [f"trans z{j} -> z{j - 1} : 1;"]
        lines += [f"trans y{j} -> y{j - 1} : 1/2;", f"trans y{j} -> z{j - 1} : 1/2;"]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("k", [1, 2, 5, 40])
def test_a_cascade_merges_in_one_refinement(k):
    M = parse_model(cascade_text(k))
    Q = lump(M, {"g"})
    assert Q.states == ("z0",) and Q.trans[0, 0] == RationalFunction.const(1)
    assert lump(Q, {"g"}) is Q
    assert_same_quotient(M, {"g"})


def test_check_is_near_linear_on_a_cascade(capsys, tmp_path):
    # each merge of the cascade waits on the one below it: lumping the
    # quotient again until nothing merges would take one pass per level
    # and recurse as deep, where one refinement finds them all
    def seconds(k: int, runs: int) -> float:
        path = tmp_path / f"cascade{k}.pmc"
        path.write_text(cascade_text(k))
        best = float("inf")
        for _ in range(runs):
            start = time.perf_counter()
            code = cli.main(["check", "-m", str(path), "-f", "F g"])
            best = min(best, time.perf_counter() - start)
            assert code == 0
            assert capsys.readouterr().out.endswith("probability = 0\n")
        return best

    small, large = seconds(200, 3), seconds(2000, 1)
    assert large < 5.0
    assert large < 40 * small, (small, large)
