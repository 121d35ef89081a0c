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

A node (q',s') whose automaton state has no move on L(s') has value 0 and
no arc enters it (see ``product``), so no flow row has a term for it, and
it is in the system only if it is initial; the zero set then pins it.

The system reads its arcs straight off the product's CSR arrays: the
coefficient of the arc (q,s) -> (q',s') is P(s,s').  Concrete evaluations
are solved exactly over the integers, block per SCC along the condensation
(sinks first), so a successor outside a block is already solved.  Chain
state s's entries are scaled once to integers over the lcm L_s of their
denominators, so node (q, s) has the row L_s mu(q,s) minus the numerators
on its successors in the block, equal to the solved successors' share,
cleared of their denominators.  Every block is a sparse system of
{node: int} rows, eliminated fraction-free in Markowitz order (the row with
the fewest entries, then its column shared by the fewest rows) and finished
by back substitution over one common denominator.  Solved values are kept
as reduced integer pairs and become Fractions once, at the end.  Uniqueness
and consistency are checked per block rather than assumed, and a block
whose fill-in would pass ``FILL_BUDGET`` entries stops with
``CapacityError``.
``solve_concrete`` checks the evaluation with ``well_defined``, the single
stage of ``StagedCheck``, and hands the entry values to that block solver.

The system may be built over a quotient made by ``pmc.lump``; the command
line lumps before ``analyze``, which itself takes any chain.  A quotient
knows its given chain (``Pmc.given``), so ``solve_concrete`` and
``synth_grid`` check evaluations on the system chain's given chain, and
take the quotient's entry values from ``pmc.lumped_values``.

Grid synthesis walks the lattice of ``grid_axes`` with an index list, one
parameter fixed at a time, and checks each stage with ``StagedCheck``: a
parameter range, an entry or a row sum is checked once the parameters it
reads are fixed, so a function shared by many entries is evaluated once a
stage, and a prefix that fails is skipped whole (its points counted as
tried).  A parameter whose axis has one value, such as a point range
[1, 1], is fixed before the walk and is no stage of it: its range, the
entries that read only such parameters or none, and the rows they complete
are checked once per scan, at stage 0.  A parameter whose stage
completes a row with the parameter alone, as the last entry of an interval
row does, can take only the value that makes the row sum to 1: the walk
looks that value up on its axis and checks it alone, counting the axis's
other points as tried.  A point that passes goes to the block solver with
the entry values the walk evaluated.
"""

from __future__ import annotations

import heapq
import math
import time
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property
from operator import xor
from typing import KeysView, Mapping, Sequence

from .gba import CapacityError, elementary, translate
from .ltl import TRUE, LtlFormula, parse_formula
from .pmc import (
    Evaluation,
    Pmc,
    StagedCheck,
    check_evaluation_names,
    exact,
    lumped_values,
    parse_number,
    short_repr,
    well_defined,
)
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
    except ValueError as exc:
        raise QuerySyntaxError(f"bad probability bound {short_repr(text)}: {exc}") from None
    if not 0 <= value <= 1:
        raise QuerySyntaxError(f"probability bound {short_repr(text)} is outside [0, 1]")
    return value


# each comparison: whether its bound is the lower end, and whether that end is strict
_COMPARISONS = {">=": (True, False), ">": (True, True), "<=": (False, False), "<": (False, True)}


def parse_pltl(text: str) -> PltlQuery:
    """Parse 'P >= 1/2 [ phi ]', 'P < 0.3 [ phi ]', or 'P in [a,b] [ phi ]'
    (interval delimiters may be strict: '(' / ')')."""
    s = text.strip()
    if not s.startswith("P"):
        raise QuerySyntaxError("query must start with 'P'")
    rest = s[1:].lstrip()
    op = next((op for op in _COMPARISONS if rest.startswith(op)), None)
    if op is not None:
        # the bound runs until the '[' that opens the formula
        rest = rest[len(op):].lstrip()
        cut = rest.find("[")
        if cut < 0:
            raise QuerySyntaxError("missing '[ formula ]'")
        bound, rest = _fraction_literal(rest[:cut]), rest[cut:]
        lower, strict = _COMPARISONS[op]
        lo, hi = (bound, Fraction(1)) if lower else (Fraction(0), bound)
        query = PltlQuery(TRUE, lo, hi, lower and strict, strict and not lower)
    elif rest.startswith("in"):
        rest = rest[2:].lstrip()
        if not rest or rest[0] not in "([":
            raise QuerySyntaxError("expected '(' or '[' after 'in'")
        comma = rest.find(",")
        if comma < 0:
            raise QuerySyntaxError("expected ',' in the probability interval")
        lo, lo_strict = _fraction_literal(rest[1:comma]), rest[0] == "("
        rest = rest[comma + 1:]
        close = min((i for i in (rest.find(")"), rest.find("]")) if i >= 0), default=-1)
        if close < 0:
            raise QuerySyntaxError("unterminated probability interval")
        query = PltlQuery(TRUE, lo, _fraction_literal(rest[:close]), lo_strict, rest[close] == ")")
        rest = rest[close + 1:].lstrip()
    else:
        raise QuerySyntaxError(f"expected one of {', '.join(_COMPARISONS)}, in after 'P'")

    if query.lo > query.hi or (query.lo == query.hi and (query.lo_strict or query.hi_strict)):
        raise QuerySyntaxError(f"empty probability interval {query.interval_str()}")
    if not rest.startswith("["):
        raise QuerySyntaxError("missing '[ formula ]'")
    end = rest.rfind("]")
    if end < 0:
        raise QuerySyntaxError("missing closing ']'")
    if rest[end + 1:].strip():
        raise QuerySyntaxError(f"trailing input after ']': {rest[end + 1:].strip()!r}")
    # TRUE held the formula's place until the interval was checked
    return replace(query, formula=parse_formula(rest[1:end]))


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

    # A node has value 0 exactly when no positive SCC is reachable from it
    # (the node-level form of the emptiness criterion).  Zeroing only the
    # bottom SCCs is not enough: a non-accepting self-loop over an absorbing
    # chain state leaves its flow row degenerate (0 = 0) even though every
    # sibling below it is 0, so the value has to be pinned.  Both views are
    # built on first use: classification alone reads neither.

    @cached_property
    def zero_sccs(self) -> bytearray:
        """Per SCC index: 1 if the SCC is reachable from an initial node
        and cannot reach a positive SCC, so its nodes' values are 0."""
        partition = self.partition
        # reaching() is 1 only on reachable SCCs, so xor leaves the others
        return bytearray(map(xor, partition.reachable, partition.reaching(self.positives)))

    @cached_property
    def zeros(self) -> tuple[int, ...]:
        """The reachable nodes whose value is 0, in SCC order."""
        zero_sccs, comp_of = self.zero_sccs, self.partition.comp_of
        return tuple(u for u in self.partition.order if zero_sccs[comp_of[u]])


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
    return EquationSystem(G, partition, positives)


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
# grows past them, and its solve peaks at about 220 bytes an entry
# (tracemalloc), so the bound holds one block near 110 MB.  A block that
# would pass it stops with CapacityError instead of filling memory.  It
# bounds memory, not time: long coefficients make a block slow well below
# it.
FILL_BUDGET = 500_000


def _eliminate(
    rows: list[tuple[dict[int, int], int]], unknowns: Sequence[int], what: str
) -> tuple[dict[int, int], int]:
    """Solve the sparse integer system whose rows are ({unknown:
    coefficient}, rhs) and return ({unknown: numerator}, denominator), one
    denominator d > 0 for all unknowns; require a unique, consistent
    solution.

    Markowitz order: the pivot is taken from the active row with the fewest
    entries, in the column of that row which occurs in the fewest active
    rows, so fill-in only touches the rows holding the pivot column.  The
    elimination is fraction-free: pivot a of row p clears entry f of row r
    by r <- (a/g) r - (f/g) p with g = gcd(a, f), and r is then divided by
    its content, the gcd of its entries and rhs, so every row stays a
    primitive integer row.  (Bareiss 1968 divides by the previous pivot
    instead, which needs rows eliminated in step; Markowitz order updates
    a row from pivots in any order.)  Each row is a nonzero multiple of
    the row that elimination over the rationals holds, so the sparsity
    pattern, and with it the pivot order, is the same.  Values follow by
    back substitution in reverse pivot order, as numerators over one
    denominator, the lcm of the values' denominators.  Rows are consumed.
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
    pivots: list[tuple[int, int, dict[int, int], int]] = []
    budget = FILL_BUDGET
    gcd = math.gcd
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
        a = prow.pop(c)
        live -= 1
        bp = rhs[p]
        pivots.append((c, a, prow, bp))
        for r in col_rows[c]:
            row = rows[r][0]
            f = row.pop(c)
            live -= 1
            g = gcd(a, f) if a > 0 else -gcd(a, f)
            ar, fr = a // g, f // g  # ar > 0
            if ar != 1:
                for j, w in row.items():
                    row[j] = ar * w
            for j, v in prow.items():
                w = row.get(j)
                if w is None:
                    row[j] = -fr * v
                    col_rows[j].add(r)
                    live += 1
                else:
                    w -= fr * v
                    if w:
                        row[j] = w
                    else:
                        del row[j]
                        col_rows[j].discard(r)
                        live -= 1
            b = ar * rhs[r] - fr * bp
            if row:
                g = gcd(b, *row.values())
                if g != 1:
                    for j, w in row.items():
                        row[j] = w // g
                    b //= g
                heapq.heappush(heap, (len(row), r))
            else:
                active[r] = False
                if b:
                    inconsistent = True
            rhs[r] = b
        col_rows[c] = set()
    if len(pivots) < len(col_rows):
        raise SingularSystemError(f"{what}: system does not determine all unknowns")
    if inconsistent:
        raise InconsistentSystemError(f"{what}: equations are inconsistent")
    # x[c] = (bp - sum_j v x[j]) / a with x[j] = num[j] / den
    num: dict[int, int] = {}
    den = 1
    for c, a, prow, bp in reversed(pivots):
        t = bp * den - sum(v * num[j] for j, v in prow.items())
        d = a * den
        g = gcd(t, d)
        t, d = (t // g, d // g) if d > 0 else (-t // g, -d // g)
        k = d // gcd(d, den)  # den becomes lcm(den, d)
        if k != 1:
            for j, x in num.items():
                num[j] = k * x
            den *= k
        num[c] = t * (den // d)
    return num, den


def solve_concrete(system: EquationSystem, evaluation: Evaluation) -> SolveResult:
    """Exact solution of the system under a total evaluation: one value per
    reachable node, a model of the emitted SMT-LIB script at that point.
    The evaluation is checked with ``well_defined`` on the given chain of
    the system's chain (see ``pmc.lump``)."""
    Q = system.graph.pmc
    report = well_defined(Q.given, evaluation)
    if not report.ok:
        raise IllDefinedEvaluationError(report.problems)
    return _solve_blocks(system, lumped_values(Q, report.values, evaluation))


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
    reachable, zero_sccs = partition.reachable, system.zero_sccs

    # chain state s's entries as integers over the lcm of their denominators
    scale: dict[int, int] = {}
    for (s, _), p in prob.items():
        scale[s] = math.lcm(scale.get(s, 1), p.denominator)
    weight = {st: p.numerator * (scale[st[0]] // p.denominator) for st, p in prob.items()}

    # per solved node, its value as a reduced (numerator, denominator > 0)
    mu: dict[int, tuple[int, int]] = {}
    gcd, lcm = math.gcd, math.lcm
    for i in range(len(partition) - 1, -1, -1):  # sinks first
        if not reachable[i]:
            continue
        members = partition.members(i)
        if zero_sccs[i]:
            mu.update(dict.fromkeys(members, (0, 1)))
            continue
        # flow rows off the CSR slices, with w(u,v) = L_s P(s, v mod |S|):
        # L_s mu(u) - sum_{v in block} w(u,v) mu(v) = sum of w(u,v) mu(v)
        # over the successors v already solved, times the lcm d of their
        # values' denominators
        rows = []
        for u in members:
            s = u % ns
            row = {u: scale[s]}
            solved = []
            for v in arcs[offsets[u] : offsets[u + 1]]:
                c = weight[(s, v % ns)]
                value = mu.get(v)
                if value is None:
                    row[v] = row.get(v, 0) - c
                else:
                    solved.append((c, value))
            d = 1  # the lcm of the solved values' denominators
            for _, (_, dv) in solved:
                if d % dv:
                    d = lcm(d, dv)
            b = sum(c * n * (d // dv) for c, (n, dv) in solved)
            rows.append(({v: d * c for v, c in row.items() if c}, b))
        for nodes in system.positives.get(i, ()):
            rows.append((dict.fromkeys(nodes, 1), 1))
        num, den = _eliminate(rows, members, f"SCC {i}")
        for u, n in num.items():
            g = gcd(n, den)
            mu[u] = (n // g, den // g)

    for u, (n, d) in mu.items():
        if n < 0 or n > d:
            raise SolveError(
                f"mu{G.node_name(u)} = {Fraction(n, d)} is outside [0,1]; the system is not "
                "the one the theory promises — this is a bug, not an input error"
            )
    # most nodes share a few values, 0 and 1 above all (a check-mix pass
    # solves 4,432 nodes to 225 distinct values): one Fraction each
    fractions: dict[tuple[int, int], Fraction] = {}
    values = {}
    for u, pair in mu.items():
        value = fractions.get(pair)
        if value is None:
            value = fractions[pair] = Fraction(*pair)
        values[u] = value
    target = sum((values[u] for u in G.initial), Fraction(0))
    return SolveResult(values, target)


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
    # len() of a range past sys.maxsize raises OverflowError
    n_points = math.prod(indices.stop - indices.start for _, _, indices in spans.values())
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
    fastest.  Points are checked on the given chain of the system's chain
    (see ``pmc.lump``), and those that are not well-defined (zero entries,
    row sums off 1) are skipped but counted in ``tried``.  The walk (see
    the module docstring) keeps its prefix in an index list, not on the
    call stack, so a model with thousands of parameters scans too.  A
    parameter with one value is fixed before the walk and is no stage of
    it; it multiplies the point count by 1, so ``tried`` and ``admitted``
    are those of the whole grid, and the witness assigns every parameter,
    in ``axes`` order.  An axis that repeats a value is a GridError: a
    forced value is looked up by its value.  An axis value that is not an
    int or a Fraction is a ModelError.
    """
    Q = system.graph.pmc
    check_evaluation_names(Q.given, axes)
    for name, axis in axes.items():
        for value in axis:
            exact(name, value)
    # a parameter with one value is fixed before the scan, checked at stage 0
    evaluation = {name: axis[0] for name, axis in axes.items() if len(axis) == 1}
    names = [name for name in axes if name not in evaluation]
    points = [axes[name] for name in names]
    check = StagedCheck(Q.given, names)
    n = len(names)
    # below[k]: the number of points that share a prefix of k parameters
    below = [1] * (n + 1)
    for k in range(n - 1, -1, -1):
        below[k] = below[k + 1] * len(points[k])
    # at[k]: the index of each value of parameter k, to look up a forced one
    at = [{v: i for i, v in enumerate(axis)} for axis in points]
    for name, axis, index_of in zip(names, points, at):
        if len(index_of) != len(axis):
            raise GridError(f"the grid of parameter {name} repeats a value")
    values: dict[tuple[int, int], Fraction] = {}
    if not check.passes(0, evaluation, values):
        return SynthResult(None, None, below[0], 0)
    tried = admitted = 0
    index = [0] * n  # the value of each parameter on the current prefix
    stop = [0] * n  # one past the last value of each parameter to try on it
    k = 0  # the parameters fixed
    while True:
        if k == n:
            tried += 1
            result = _solve_blocks(system, lumped_values(Q, values, evaluation))
            admitted += 1
            if query.admits(result.target):
                witness = {name: evaluation[name] for name in axes}
                return SynthResult(witness, result.target, tried, admitted)
            k -= 1
        else:
            # enter parameter k: try every value, or only the one a row
            # forces (none if it is off the axis), the values before it
            # counted now and those after it once the walk leaves
            start, stop[k] = 0, len(points[k])
            forced = check.forced(k + 1, values)
            if forced is not None:
                i = at[k].get(forced)
                start, stop[k] = (0, 0) if i is None else (i, i + 1)
                tried += start * below[k + 1]
            index[k] = start - 1
        # move to the next value to try, backing up past the parameters
        # whose values are used up, until one passes its stage
        while True:
            while k >= 0 and index[k] + 1 == stop[k]:
                tried += (len(points[k]) - stop[k]) * below[k + 1]
                k -= 1
            if k < 0:
                return SynthResult(None, None, tried, admitted)
            index[k] += 1
            evaluation[names[k]] = points[k][index[k]]
            if check.passes(k + 1, evaluation, values):
                break
            tried += below[k + 1]
        k += 1
