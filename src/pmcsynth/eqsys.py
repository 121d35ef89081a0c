"""Equation system over the product graph, exact solving, and grid synthesis.

For a product node (q, s) the variable mu(q, s) is the probability that the
chain started in s emits a word accepted by the automaton started in q.  The
system covers the nodes reachable from an initial node (their successors
are reachable too) and asserts, for every one of them,

    mu(q,s)  =  sum_{s'} P(s,s') * sum_{q' in T(q, L(s))} mu(q',s')     (flow)

together with, for every locally positive SCC C among them and chain state
s in its projection,  sum_{q : (q,s) in C} mu(q,s) = 1  (the automaton is
almost fully partitioned, so from a state of a positive bottom component the
acceptance probabilities of the subset states add up to one), and mu = 0 on
every node that cannot reach such an SCC.  The probability of the property
is the sum of mu over initial product nodes.  ``solve_concrete`` solves
this system and ``smtlib.emit_smtlib`` writes it.

The system reads its arcs straight off the product's CSR arrays: the
coefficient of the arc (q,s) -> (q',s') is P(s,s').  Concrete evaluations
are solved exactly over Fractions, block per SCC along the condensation
(sinks first), so a successor outside a block is already solved.  Every
block is a sparse system of {node: coefficient} rows, eliminated in
Markowitz order (the row with the fewest entries, then its column shared by
the fewest rows) and finished by back substitution.  Uniqueness and
consistency are checked per block rather than assumed, and a block whose
fill-in would pass ``FILL_BUDGET`` entries stops with ``CapacityError``.
``solve_concrete`` checks the evaluation with ``well_defined`` and hands the
entry values to that block solver.

Grid synthesis walks the lattice of ``grid_axes`` with an index list, one
parameter fixed at a time, and checks each stage with ``StagedCheck``: an
entry, a row sum or a parameter range is checked once the parameters it
reads are fixed, so constant entries are checked once per scan and a prefix
that fails is skipped whole (its points counted as tried).  A point that
passes goes to the block solver with the entry values the walk evaluated.
"""

from __future__ import annotations

import heapq
import math
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import KeysView, Mapping, Sequence

from .gba import CapacityError, elementary, translate
from .ltl import TRUE, LtlFormula, parse_formula
from .pmc import Evaluation, Pmc, StagedCheck, parse_number, well_defined
from .product import (
    ProductGraph,
    SccPartition,
    build_product,
    check_product_size,
    classify_locally_positive,
    scc_decompose,
)


class EqSysError(Exception):
    pass


class SolveError(EqSysError):
    pass


class IllDefinedEvaluationError(SolveError):
    def __init__(self, problems: Sequence[str]):
        super().__init__("evaluation does not induce a Markov chain:\n  " + "\n  ".join(problems))
        self.problems = tuple(problems)


class SingularSystemError(SolveError):
    pass


class InconsistentSystemError(SolveError):
    pass


class QuerySyntaxError(EqSysError):
    pass


class GridError(EqSysError):
    pass


# ---------------------------------------------------------------------------
# Queries
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PltlQuery:
    """P-operator query: is the probability of ``formula`` inside the interval?"""

    formula: LtlFormula
    lo: Fraction
    hi: Fraction
    lo_strict: bool = False
    hi_strict: bool = False

    def admits(self, value: Fraction) -> bool:
        if value < self.lo or (self.lo_strict and value == self.lo):
            return False
        if value > self.hi or (self.hi_strict and value == self.hi):
            return False
        return True

    def interval_str(self) -> str:
        return (
            ("(" if self.lo_strict else "[")
            + f"{self.lo}, {self.hi}"
            + (")" if self.hi_strict else "]")
        )


def _fraction_literal(text: str) -> Fraction:
    text = text.strip()
    try:
        value = parse_number(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise QuerySyntaxError(f"bad probability bound {text!r}: {exc}") from None
    if not 0 <= value <= 1:
        raise QuerySyntaxError(f"probability bound {text!r} is outside [0, 1]")
    return value


def parse_pltl(text: str) -> PltlQuery:
    """Parse 'P >= 1/2 [ phi ]', 'P < 0.3 [ phi ]', or 'P in [a,b] [ phi ]'
    (interval delimiters may be strict: '(' / ')')."""
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
        # bound runs until the '[' that opens the formula
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
        # the formula is not parsed yet: TRUE stands in to print the interval
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


# ---------------------------------------------------------------------------
# System construction
# ---------------------------------------------------------------------------


@dataclass
class EquationSystem:
    graph: ProductGraph
    partition: SccPartition
    # per reachable positive SCC index, one group per chain state of its
    # projection: the member nodes over that state, whose mu values sum to 1
    positives: dict[int, list[tuple[int, ...]]]
    # reachable nodes whose value is 0: those that cannot reach a positive SCC
    zeros: tuple[int, ...]


def build_system(
    G: ProductGraph,
    partition: SccPartition | None = None,
    use_oracle: bool = False,
) -> EquationSystem:
    """Classify every SCC with a cycle and assemble the system of the
    reachable SCCs."""
    if partition is None:
        partition = scc_decompose(G)
    pos, _ = classify_locally_positive(G, partition, use_oracle=use_oracle)
    ns = G.n_mc()
    positives: dict[int, list[tuple[int, ...]]] = {}
    for record in pos:
        if not record.reachable:
            continue
        per_state: dict[int, list[int]] = {}
        for u in record.members:
            per_state.setdefault(u % ns, []).append(u)
        positives[record.index] = [tuple(per_state[s]) for s in sorted(per_state)]

    # A node has value 0 exactly when no positive SCC is reachable from it
    # (the node-level form of the emptiness criterion).  Zeroing only the
    # bottom SCCs is not enough: a non-accepting self-loop over an absorbing
    # chain state leaves its flow row degenerate (0 = 0) even though every
    # sibling below it is 0, so the value has to be pinned here.
    reaches_pos = partition.reaching(positives)
    reachable, comp_of = partition.reachable, partition.comp_of
    zeros = tuple(
        u for u in partition.order if reachable[comp_of[u]] and not reaches_pos[comp_of[u]]
    )
    return EquationSystem(G, partition, positives, zeros)


# ---------------------------------------------------------------------------
# Exact solving
# ---------------------------------------------------------------------------


@dataclass
class SolveResult:
    mu: dict[int, Fraction]
    target: Fraction

    @property
    def restricted(self) -> KeysView[int]:
        """The nodes solved: a live, set-like view of the keys of ``mu``."""
        return self.mu.keys()


# Upper bound on the coefficients held while eliminating one block: the
# active rows plus the pivot rows kept for back substitution.  The largest
# block of crowds_like() (2,145 nodes) starts at 45,100 entries and never
# grows past them, and its solve peaks at about 210 bytes an entry, so the
# bound holds one block near 100 MB.  A block that would pass it stops with
# CapacityError instead of filling memory.
FILL_BUDGET = 500_000


def _eliminate(
    rows: list[tuple[dict[int, Fraction], Fraction]], unknowns: Sequence[int], what: str
) -> dict[int, Fraction]:
    """Solve the sparse system whose rows are ({unknown: coefficient}, rhs)
    and return {unknown: value}; require a unique, consistent solution.

    Markowitz order: the pivot is taken from the active row with the fewest
    entries, in the column of that row which occurs in the fewest active
    rows, so fill-in only touches the rows holding the pivot column.  Values
    follow by back substitution in reverse pivot order.  Rows are consumed.
    """
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
    budget = FILL_BUDGET
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


def solve_concrete(system: EquationSystem, evaluation: Evaluation) -> SolveResult:
    """Exact solution of the system under a total evaluation: one value per
    reachable node, a model of the emitted SMT-LIB script at that point."""
    report = well_defined(system.graph.pmc, evaluation)
    if not report.ok:
        raise IllDefinedEvaluationError(report.problems)
    return _solve_blocks(system, report.values)


def _solve_blocks(
    system: EquationSystem, prob: Mapping[tuple[int, int], Fraction]
) -> SolveResult:
    """The exact block solver: the system's solution under the transition
    probabilities ``prob``, {(s, t): value} over the chain's support, which
    must already satisfy the rules of ``well_defined``."""
    G = system.graph
    ns = G.n_mc()
    offsets, arcs = G.offsets, G.targets
    partition = system.partition
    reachable = partition.reachable
    zero_set = set(system.zeros)

    mu: dict[int, Fraction] = {}
    for i in range(len(partition) - 1, -1, -1):  # sinks first
        if not reachable[i]:
            continue
        members = partition.members(i)
        if members[0] in zero_set:
            for u in members:
                mu[u] = Fraction(0)
            continue
        # flow rows off the CSR slices: mu(u) - sum_{v in block} P(u,v) mu(v)
        # = sum of P(u,v) mu(v) over the successors v already solved
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
        mu.update(_eliminate(rows, members, f"SCC {i}"))

    for u, v in mu.items():
        if v < 0 or v > 1:
            raise SolveError(
                f"mu{G.node_name(u)} = {v} is outside [0,1]; the system is not "
                "the one the theory promises — this is a bug, not an input error"
            )
    target = sum((mu[u] for u in G.initial), Fraction(0))
    return SolveResult(mu, target)


# ---------------------------------------------------------------------------
# Pipeline
# ---------------------------------------------------------------------------


@dataclass
class Analysis:
    system: EquationSystem
    times: dict[str, float]


def analyze(M: Pmc, formula: LtlFormula, use_oracle: bool = False) -> Analysis:
    """translate -> product -> SCCs -> classification -> equation system."""
    # the tableau has 2^|el| + 1 states: refuse a product over the cap first
    check_product_size((1 << len(elementary(formula))) + 1, M.n_states())
    times: dict[str, float] = {}
    t0 = time.perf_counter()
    A = translate(formula)
    times["translate"] = time.perf_counter() - t0
    t0 = time.perf_counter()
    G = build_product(A, M)
    times["product"] = time.perf_counter() - t0
    t0 = time.perf_counter()
    partition = scc_decompose(G)
    times["scc"] = time.perf_counter() - t0
    t0 = time.perf_counter()
    system = build_system(G, partition, use_oracle=use_oracle)
    times["classify"] = time.perf_counter() - t0
    return Analysis(system, times)


# ---------------------------------------------------------------------------
# Grid synthesis
# ---------------------------------------------------------------------------


# Upper bound on the points of one grid scan: the lattice has
# resolution^k points over k free parameters, so a fine grid over a few
# axes would scan for hours.
GRID_BUDGET = 1_000_000


@dataclass
class SynthResult:
    witness: dict[str, Fraction] | None
    value: Fraction | None
    tried: int
    admitted: int


def grid_axes(M: Pmc, resolution: int) -> dict[str, list[Fraction]]:
    """The values of each parameter on a grid of ``resolution`` evenly
    spaced points per range, less the ends the range excludes.  Past
    ``GRID_BUDGET`` points it raises CapacityError and builds none."""
    if resolution < 2:
        raise GridError("grid resolution must be at least 2")
    # per parameter: its lower end, the grid step and the indices kept
    spans: dict[str, tuple[Fraction, Fraction, range]] = {}
    for name, p in M.params.items():
        if p.lower == p.upper:
            spans[name] = (p.lower, Fraction(0), range(1))
            continue
        indices = range(int(p.lower_strict), resolution - int(p.upper_strict))
        if not indices:
            raise GridError(f"parameter {name}: no grid point inside the open range")
        spans[name] = (p.lower, (p.upper - p.lower) / (resolution - 1), indices)
    n_points = math.prod(len(indices) for _, _, indices in spans.values())
    if n_points > GRID_BUDGET:
        raise CapacityError(
            f"grid of {n_points} points exceeds the grid budget of {GRID_BUDGET} points"
        )
    return {
        name: [lower + i * step for i in indices] for name, (lower, step, indices) in spans.items()
    }


def synth_grid(
    system: EquationSystem, query: PltlQuery, axes: dict[str, list[Fraction]]
) -> SynthResult:
    """The first point of ``axes`` (see ``grid_axes``) whose probability lies
    in the query interval, in lexicographic order with the last axis
    fastest.  Points that are not well-defined (zero entries, row sums off
    1) are skipped but counted in ``tried``.  The walk (see the module
    docstring) keeps its prefix in an index list, not on the call stack, so
    a model with thousands of parameters scans too.
    """
    names = list(axes)
    points = list(axes.values())
    check = StagedCheck(system.graph.pmc, names)
    n = len(names)
    # below[k]: the number of points that share a prefix of k parameters
    below = [1] * (n + 1)
    for k in range(n - 1, -1, -1):
        below[k] = below[k + 1] * len(points[k])
    evaluation: dict[str, Fraction] = {}
    values: dict[tuple[int, int], Fraction] = {}
    if not check.passes(0, evaluation, values):
        return SynthResult(None, None, below[0], 0)
    tried = admitted = 0
    index = [-1] * n  # the value of each parameter on the current prefix
    k = 0  # the parameters fixed
    while True:
        if k == n:
            tried += 1
            result = _solve_blocks(system, values)
            admitted += 1
            if query.admits(result.target):
                witness = {name: axes[name][i] for name, i in zip(names, index)}
                return SynthResult(witness, result.target, tried, admitted)
            k -= 1
        # move to the next value of parameter k, backing up past the ones
        # whose values are used up
        while k >= 0 and index[k] + 1 == len(points[k]):
            index[k] = -1
            k -= 1
        if k < 0:
            return SynthResult(None, None, tried, admitted)
        index[k] += 1
        evaluation[names[k]] = points[k][index[k]]
        if check.passes(k + 1, evaluation, values):
            k += 1
        else:
            tried += below[k + 1]
