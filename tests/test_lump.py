"""Lumping by probabilistic bisimulation (``pmc.lump``): the quotient gives
every formula over the propositions it keeps the given chain's probability,
``check`` and ``synth`` run on it, and its scripts have the models of the
unlumped scripts."""

import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st
from random_inputs import formula_corpus

from pmcsynth import cli, oracle
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
from pmcsynth.modelgen import crowds_like, random_mc
from pmcsynth.pmc import Pmc, lump, lumped_values, parse_model, well_defined
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
    return solve_concrete(analyze(Q, formula).system, evaluation, M).target


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
    assert lumped_values(Q, N, values) == {key: f.value() for key, f in Q.trans.items()}


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
    assert Q.sums[0, 1] == ((0, 1), (0, 2))


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
    # a and b merge, and the entries of s into them sum to 0 for every p
    M = parse_model(ZERO_SUM)
    Q = lump(M, {"goal"})
    assert Q.states == ("s", "a", "c")
    assert Q.trans[0, 1].is_zero
    # no evaluation makes both entries positive; the message names b
    with pytest.raises(IllDefinedEvaluationError) as exc:
        solve_concrete(analyze(Q, parse_formula("F goal")).system, {"p": F(1, 4)}, M)
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
    assert _section(emit_smtlib(lumped, query, M), *sections) == _section(
        emit_smtlib(given_system, query, M), *sections
    )

    # the solved quotient point is a model with the target pinned to it
    point = {"p": F(3, 10)}
    result = solve_concrete(lumped, point, M)
    assert result.target == solve_concrete(given_system, point).target
    assignment = {mu_name(lumped, u): v for u, v in result.mu.items()} | point
    pinned = PltlQuery(query.formula, result.target, result.target)
    script = emit_smtlib(lumped, pinned, M)
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
        forms = check_wellformed(emit_smtlib(system, query, M))
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
    lumped = synth_grid(analyze(Q, query.formula).system, query, axes, M)
    assert lumped == synth_grid(analyze(M, query.formula).system, query, axes, M)
