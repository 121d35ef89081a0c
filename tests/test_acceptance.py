"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

The suite exercises the pipeline end to end at exact rational precision:
worked examples on the bundled models, randomized property corpora for the
translation and the dual completeness deciders, oracle equivalence, the
size/scaling law, and validity of the emitted SMT-LIB systems.  Criterion 2
asserts a completeness claim about the hand-built two-loop automaton that
the survivor-set construction refutes; the clause is kept as stated and the
line reports FAIL (see the repository notes for the analysis).
"""

import random
import shutil
import statistics
import subprocess
import time
from fractions import Fraction
from pathlib import Path

from random_inputs import SEED, formula_corpus, random_lasso
from pmcsynth.eqsys import build_system, grid_axes, parse_pltl, solve_concrete, synth_grid
from pmcsynth.gba import check_reverse_deterministic, elementary, make_gba, translate
from pmcsynth.eqsys import PltlQuery, analyze
from pmcsynth.ltl import eval_lasso, parse_formula
from pmcsynth.modelgen import chain_mc, crowds_like, random_mc
from pmcsynth.oracle import ConcreteMc, prob_of_formula
from pmcsynth.pmc import imc_to_pmc, parse_model
from pmcsynth.product import (
    accepting_states_lasso,
    build_product,
    classify_locally_positive,
    is_complete_oracle,
    is_complete_rd,
    scc_decompose,
)
from pmcsynth.smtlib import check_wellformed, emit_smtlib, evaluate_assertions, mu_name

F = Fraction
MODELS = Path(__file__).resolve().parent.parent / "models"
FRAGMENT = ("X a", "F a", "G a", "G F a", "F G a", "a U b")


def load(name):
    return parse_model((MODELS / name).read_text())


def report(capsys, num, ok, detail):
    with capsys.disabled():
        print(f"\ncriterion {num}: {'PASS' if ok else 'FAIL'} — {detail}", flush=True)


def two_loop_automaton():
    """Hand-built: q1 and q2 exchange on x/w vs y/z, with a y-detour through
    q3; acceptance demands the y-edge back to q1 infinitely often."""
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


def five_state_cycle_automaton():
    """Two disjoint x/y/w and x/z/w loops sharing q5; no acceptance sets, so
    every cycle accepts.  Initial states q1 and q2 split the word space."""
    return make_gba(
        ap=("w", "x", "y", "z"),
        states=("q1", "q2", "q3", "q4", "q5"),
        initial=("q1", "q2"),
        edges=[
            ("q1", {"x"}, "q3"),
            ("q3", {"y"}, "q5"),
            ("q5", {"w"}, "q1"),
            ("q2", {"x"}, "q4"),
            ("q4", {"z"}, "q5"),
            ("q5", {"w"}, "q2"),
        ],
        acceptance=(),
    )


# ---------------------------------------------------------------------------
# 1. worked example: five-state automaton x four-state parametric cycle
# ---------------------------------------------------------------------------


def test_criterion_1(capsys):
    t0 = time.perf_counter()
    M = load("split_cycle.pmc")
    A = five_state_cycle_automaton()
    G = build_product(A, M)
    system = build_system(G)

    one_positive = [len(system.partition.members(i)) for i in system.positives] == [5]

    def node(qname, sname):
        return A.states.index(qname) * M.n_states() + M.states.index(sname)

    expected_ok = True
    for eps_text in ("-2/5", "0", "1/10", "2/5"):
        eps = F(eps_text)
        res = solve_concrete(system, {"eps": eps})
        mu = res.mu
        expected_ok = expected_ok and (
            mu[node("q1", "x")] == F(1, 2) + eps
            and mu[node("q2", "x")] == F(1, 2) - eps
            and mu[node("q3", "y")] == 1
            and mu[node("q4", "z")] == 1
            and mu[node("q5", "w")] == 1
            and res.target == 1
        )
    elapsed = time.perf_counter() - t0

    ok = one_positive and expected_ok and elapsed < 1.0
    report(
        capsys,
        1,
        ok,
        f"one locally positive SCC of 5 nodes, mu values and unit target exact "
        f"at 4 evaluations ({elapsed:.3f}s)",
    )
    assert one_positive
    assert expected_ok
    assert elapsed < 1.0


# ---------------------------------------------------------------------------
# 2. completeness example on the two-loop automaton (known red: the survivor
#    construction refutes the completeness of the x,y-projection SCC)
# ---------------------------------------------------------------------------


def test_criterion_2(capsys):
    t0 = time.perf_counter()
    M = load("loop_pair.pmc")
    A = two_loop_automaton()
    G = build_product(A, M)
    part = scc_decompose(G)
    nontrivial = list(part.blocks.values())

    proj_xy = frozenset({M.states.index("x"), M.states.index("y")})
    proj_zw = frozenset({M.states.index("z"), M.states.index("w")})
    c1 = next(r for r in nontrivial if r.projection == proj_xy)
    c2 = next(r for r in nontrivial if r.projection == proj_zw)
    c1_complete = is_complete_oracle(G, c1)
    c2_complete = is_complete_oracle(G, c2)
    pos, _ = classify_locally_positive(G, part)
    elapsed = time.perf_counter() - t0

    ok = (
        len(nontrivial) == 2
        and c1_complete
        and not c2_complete
        and len(pos) == 0
        and elapsed < 1.0
    )
    report(
        capsys,
        2,
        ok,
        f"2 non-trivial SCCs, SCC_pos=0, z,w-SCC incomplete ({elapsed:.3f}s); "
        f"x,y-SCC completeness claim "
        + ("holds" if c1_complete else "refuted by the survivor-set oracle "
           "(the projection walk x y y x has no lift inside the SCC)"),
    )
    assert len(nontrivial) == 2
    assert not c2_complete
    assert pos == []
    assert elapsed < 1.0
    assert c1_complete, (
        "survivor-set oracle: no run of the automaton lifts the projection "
        "walk x y y x, so this SCC is not complete under the stated "
        "definition of completeness"
    )


# ---------------------------------------------------------------------------
# 3 + 4. translation corpus: language equivalence and partition structure
# ---------------------------------------------------------------------------

_corpus_cache = None


def corpus_results():
    """200 distinct formulas with |el| <= 4; per formula the tableau, its
    reverse-determinism report, and 50 lasso words with their accepting
    automaton states."""
    global _corpus_cache
    if _corpus_cache is None:
        rng = random.Random(SEED)
        out = []
        for f in formula_corpus(rng, 200, 4):
            A = translate(f)
            rd = check_reverse_deterministic(A)
            n_subsets = 1 << len(elementary(f))
            rows = []
            for _ in range(50):
                w = random_lasso(rng)
                acc = accepting_states_lasso(A, w)
                rows.append((w, n_subsets in acc, sum(1 for q in acc if q < n_subsets)))
            out.append((f, A, rd, rows))
        _corpus_cache = out
    return _corpus_cache


def test_criterion_3(capsys):
    t0 = time.perf_counter()
    data = corpus_results()
    n_words = 0
    disagreements = []
    for f, A, _, rows in data:
        for w, automaton_accepts, _ in rows:
            n_words += 1
            if automaton_accepts != eval_lasso(f, w):
                disagreements.append((f, w))
    elapsed = time.perf_counter() - t0
    ok = len(data) >= 200 and n_words >= 200 * 50 and not disagreements and elapsed < 60
    report(
        capsys,
        3,
        ok,
        f"{len(data)} formulas x 50 lassos: {len(disagreements)} disagreements "
        f"between tableau acceptance and direct evaluation ({elapsed:.1f}s)",
    )
    assert len(data) >= 200 and n_words >= 200 * 50
    assert not disagreements
    assert elapsed < 60


def test_criterion_4(capsys):
    data = corpus_results()
    rd_violations = [f for f, _, rd, _ in data if not rd.exactly_one]
    partition_violations = [
        (f, w)
        for f, _, _, rows in data
        for w, _, n_subset_acceptors in rows
        if n_subset_acceptors != 1
    ]
    ok = not rd_violations and not partition_violations
    report(
        capsys,
        4,
        ok,
        f"reenterable part exactly-one reverse deterministic on all "
        f"{len(data)} tableaux; every lasso accepted by exactly one subset "
        f"state ({len(partition_violations)} violations)",
    )
    assert not rd_violations
    assert not partition_violations


# ---------------------------------------------------------------------------
# 5 + 6. oracle equivalence and decider agreement on a chain corpus
# ---------------------------------------------------------------------------

_mc_cache = None


def mc_corpus():
    """100 random dyadic chains (5..15 states) x the closed-form fragment,
    with products, partitions, systems, and exact pipeline targets."""
    global _mc_cache
    if _mc_cache is None:
        rng = random.Random(SEED + 1)
        automata = {text: translate(parse_formula(text)) for text in FRAGMENT}
        instances = []
        for _ in range(100):
            M = random_mc(rng, rng.randint(5, 15))
            cm = ConcreteMc.from_pmc(M, {})
            runs = []
            for text in FRAGMENT:
                G = build_product(automata[text], M)
                part = scc_decompose(G)
                system = build_system(G, part)
                target = solve_concrete(system, {}).target
                runs.append((text, G, part, target))
            instances.append((M, cm, runs))
        _mc_cache = instances
    return _mc_cache


def test_criterion_5(capsys):
    t0 = time.perf_counter()
    data = mc_corpus()
    n_checks = 0
    mismatches = []
    for M, cm, runs in data:
        for text, _, _, target in runs:
            n_checks += 1
            ref = prob_of_formula(cm, parse_formula(text))
            if target != ref:
                mismatches.append((M.n_states(), text, target, ref))
    elapsed = time.perf_counter() - t0
    ok = len(data) >= 100 and not mismatches and elapsed < 120
    report(
        capsys,
        5,
        ok,
        f"{len(data)} chains x {len(FRAGMENT)} formulas: {len(mismatches)} "
        f"pipeline/oracle mismatches over {n_checks} exact comparisons "
        f"({elapsed:.1f}s)",
    )
    assert len(data) >= 100
    assert not mismatches
    assert elapsed < 120


def test_criterion_6(capsys):
    data = mc_corpus()
    n_sccs = 0
    disagreements = []
    for _, _, runs in data:
        for text, G, part, _ in runs:
            for r in part.blocks.values():
                n_sccs += 1
                a = is_complete_rd(G, part, r)
                b = is_complete_oracle(G, r)
                if a != b:
                    disagreements.append((text, r.members, a, b))
    ok = not disagreements
    report(
        capsys,
        6,
        ok,
        f"SCC-comparison and survivor-set completeness deciders agree on all "
        f"{n_sccs} non-trivial SCCs ({len(disagreements)} disagreements)",
    )
    assert not disagreements


# ---------------------------------------------------------------------------
# 7. interval-chain conversion and boxed grid synthesis
# ---------------------------------------------------------------------------


def test_criterion_7(capsys):
    I = load("interval_row.imc")
    M = imc_to_pmc(I)
    p1, p2 = M.params["p_s_t"], M.params["p_s_w"]
    bounds_ok = (
        (p1.lower, p1.upper, p1.lower_strict, p1.upper_strict)
        == (F(1, 5), F(7, 10), False, False)
        and (p2.lower, p2.upper, p2.lower_strict, p2.upper_strict)
        == (F(3, 10), F(1, 2), False, False)
    )
    query = parse_pltl("P in [0, 1] [ F goal ]")
    res = synth_grid(analyze(M, query.formula).system, query, grid_axes(M, 11))
    w = res.witness
    witness_ok = (
        w is not None
        and p1.admits(w["p_s_t"])
        and p2.admits(w["p_s_w"])
        and w["p_s_t"] + w["p_s_w"] == 1
    )
    ok = bounds_ok and witness_ok
    report(
        capsys,
        7,
        ok,
        f"interval row converts to parameters [1/5,7/10] and [3/10,1/2]; grid "
        f"witness {({k: str(v) for k, v in w.items()}) if w else None} lies in "
        f"the boxes with row sum 1",
    )
    assert bounds_ok
    assert witness_ok


# ---------------------------------------------------------------------------
# 8. size law, build-time scaling, and the mid-size parametric example
# ---------------------------------------------------------------------------


def test_criterion_8(capsys):
    # (a) node-count law on both corpora
    law_violations = []
    n_el = {text: len(elementary(parse_formula(text))) for text in FRAGMENT}
    for _, _, runs in mc_corpus():
        for text, G, _, _ in runs:
            expect = G.pmc.n_states() * ((1 << n_el[text]) + 1)
            if G.n_nodes() != expect:
                law_violations.append((text, G.n_nodes(), expect))
    fixed = random_mc(random.Random(SEED + 2), 8)
    for f, A, _, _ in corpus_results():
        G = build_product(A, fixed)
        if G.n_nodes() != 8 * ((1 << len(elementary(f))) + 1):
            law_violations.append((f, G.n_nodes()))

    # (b) build time vs arc count over three decades of chain sizes
    A = translate(parse_formula("G F a"))
    gen = random.Random(SEED + 3)
    arcs, times = [], []
    for n in (100, 316, 1000, 3162, 10000, 31623, 100000):
        M = chain_mc(gen, n)
        best = float("inf")
        for _ in range(2 if n <= 3162 else 1):
            t0 = time.perf_counter()
            G = build_product(A, M)
            best = min(best, time.perf_counter() - t0)
        arcs.append(G.n_arcs())
        times.append(best)
    import math

    r2 = statistics.correlation(
        [math.log(a) for a in arcs], [math.log(t) for t in times]
    ) ** 2

    # (c) mid-size parametric example: full classify under 10s, sound emission
    crowds = crowds_like()
    t0 = time.perf_counter()
    analysis = analyze(crowds, parse_formula("G F fresh"))
    classify_time = time.perf_counter() - t0
    script = emit_smtlib(analysis.system, parse_pltl("P >= 1 [ G F fresh ]"))
    forms = check_wellformed(script)
    solver = next(
        (s for s in ("z3", "cvc5", "cvc4", "yices-smt2") if shutil.which(s)), None
    )
    solver_note = "no external solver installed, solver leg skipped"
    solver_ok = True
    if solver:
        path = Path("crowds_query.smt2")
        path.write_text(script)
        proc = subprocess.run(
            [solver, str(path)], capture_output=True, text=True, timeout=600
        )
        first = (proc.stdout.strip().splitlines() or [""])[0]
        solver_ok = first == "sat"
        solver_note = f"{solver} answered {first!r}"
        path.unlink()

    ok = (
        not law_violations
        and r2 >= 0.9
        and crowds.n_states() <= 2000
        and classify_time < 10
        and bool(forms)
        and solver_ok
    )
    report(
        capsys,
        8,
        ok,
        f"node law exact on all products; log-log R^2={r2:.3f} over "
        f"{len(arcs)} sizes up to {max(arcs)} arcs; {crowds.n_states()}-state "
        f"parametric example classified in {classify_time:.1f}s, emission "
        f"well-formed; {solver_note}",
    )
    assert not law_violations
    assert r2 >= 0.9
    assert crowds.n_states() <= 2000
    assert classify_time < 10
    assert forms
    assert solver_ok


# ---------------------------------------------------------------------------
# 9. SMT-LIB validity and substitution checks
# ---------------------------------------------------------------------------


def test_criterion_9(capsys):
    emitted = 0

    def wellformed(system, query):
        nonlocal emitted
        emitted += 1
        return check_wellformed(emit_smtlib(system, query))

    # parameterized emissions: structural validity
    M4 = load("split_cycle.pmc")
    A = translate(parse_formula("G F y"))
    wellformed(build_system(build_product(A, M4)), parse_pltl("P >= 1 [ G F y ]"))
    Mi = imc_to_pmc(load("interval_row.imc"))
    Ai = translate(parse_formula("F goal"))
    wellformed(build_system(build_product(Ai, Mi)), parse_pltl("P > 3/5 [ F goal ]"))

    # parameter-free emissions: the exact solution must be a model of the
    # emitted constraints with the target pinned to the solved value
    def substitution_case(M, formula_text):
        A = translate(parse_formula(formula_text))
        system = build_system(build_product(A, M))
        target = solve_concrete(system, {}).target
        query = PltlQuery(parse_formula(formula_text), target, target)
        forms = wellformed(system, query)
        full = solve_concrete(system, {})
        assignment = {mu_name(system, u): v for u, v in full.mu.items()}
        return evaluate_assertions(forms, assignment), target

    failures = {}
    failures["branching"], t1 = substitution_case(load("branch13.pmc"), "F success")
    failures["recurrence"], t2 = substitution_case(load("loop_pair.pmc"), "G F x | G F w")
    absorbing = parse_model(
        "pmc state s0; state s1 {a}; state s2; init s0;"
        " trans s0 -> s1 : 1/2; trans s0 -> s2 : 1/2;"
        " trans s1 -> s1 : 1; trans s2 -> s2 : 1;"
    )
    failures["absorbing"], t3 = substitution_case(absorbing, "F G a")

    # the provably-zero instance: all-zero assignment models the emission
    M2 = load("loop_pair.pmc")
    zero_system = build_system(build_product(two_loop_automaton(), M2))
    # a query that the zero target meets; emission reads only its interval
    forms = wellformed(zero_system, parse_pltl("P <= 1/2 [ G F x ]"))
    zero_assignment = {
        mu_name(zero_system, u): F(0) for u in range(zero_system.graph.n_nodes())
    }
    failures["provably-zero"] = evaluate_assertions(forms, zero_assignment)

    bad = {k: v for k, v in failures.items() if v}
    targets_ok = (t1, t2, t3) == (F(1, 3), F(1), F(1, 2))
    ok = not bad and targets_ok
    report(
        capsys,
        9,
        ok,
        f"{emitted} emissions well-formed; exact solutions are models of all "
        f"parameter-free systems (targets 1/3, 1, 1/2; failing assertion "
        f"lists: {bad or 'none'})",
    )
    assert targets_ok
    assert not bad
