"""Spans and counters around the program's layers, recorded from outside.

``Tracer.install()`` rebinds each traced function at the place where the
caller looks it up (``eqsys.build_product``, ``cli.parse_model``,
``RationalFunction.make``, ...), so the program itself is unchanged.  A span
records name, start, end, parent span and operation id; spans are kept in
memory and written out as JSON lines when the replay ends.  Functions called
thousands of times per operation (``RationalFunction.make`` and
``evaluate``, the completeness deciders) are only counted.

``layer_metrics`` turns the spans and counters of one traced pass into the
per-layer metrics.  A ``*_s`` metric is the total time of its span unless
the table below marks it as self time, which is the span's duration minus
the time of its child spans.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable

from pmcsynth import cli, eqsys, gba, product, smtlib
from pmcsynth.pmc import Imc
from pmcsynth.ratfunc import RationalFunction

ROOT_SPAN = "cli.main"

# metric name -> (span name, self time?)
SPAN_METRICS = {
    "pmc.parse_model_s": ("pmc.parse_model", False),
    "pmc.imc_to_pmc_s": ("pmc.imc_to_pmc", False),
    "pmc.well_defined_s": ("pmc.well_defined", False),
    "gba.translate_s": ("gba.translate", False),
    "product.build_product_s": ("product.build_product", False),
    "product.scc_decompose_s": ("product.scc_decompose", True),
    "sccs.tarjan_s": ("sccs.tarjan", False),
    "product.classify_s": ("product.classify", False),
    "eqsys.build_system_s": ("eqsys.build_system", True),
    "eqsys.solve_concrete_s": ("eqsys.solve_concrete", False),
    "eqsys.synth_grid_s": ("eqsys.synth_grid", True),
    "smtlib.emit_smtlib_s": ("smtlib.emit_smtlib", False),
    "cli.self_s": (ROOT_SPAN, True),
}

# counter name -> unit; counters are summed over the pass, except max_block
COUNT_METRICS = {
    "pmc.transitions": "count",
    "ratfunc.make_calls": "count",
    "ratfunc.evaluate_calls": "count",
    "gba.states": "count",
    "product.nodes": "count",
    "product.arcs": "count",
    "product.sccs": "count",
    "product.sccs_nontrivial": "count",
    "product.completeness_checks": "count",
    "product.sccs_positive": "count",
    "eqsys.solve_calls": "count",
    "eqsys.max_block": "count",
    "eqsys.solved_nodes": "count",
    "eqsys.grid_tried": "count",
    "eqsys.grid_admitted": "count",
    "pmc.well_defined_calls": "count",
    "smtlib.bytes": "B",
}

# ratio name -> (numerator counter, denominator counter)
RATIO_METRICS = {
    "product.positive_per_check": ("product.sccs_positive", "product.completeness_checks"),
    "eqsys.grid_admitted_ratio": ("eqsys.grid_admitted", "eqsys.grid_tried"),
}

OVERHEAD_METRIC = "trace.overhead_ratio"


def unit(metric: str) -> str:
    if metric in SPAN_METRICS:
        return "s"
    return COUNT_METRICS.get(metric, "ratio")


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent index or -1, op id]
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._max_block: dict[int, int] = {}  # id(system) -> largest solved SCC
        self.op = -1

    def run(self, name: str, fn: Callable, *args, **kwargs):
        """Call ``fn`` inside a span called ``name``."""
        parent = self._stack[-1] if self._stack else -1
        record = [name, time.perf_counter_ns(), 0, parent, self.op]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            return fn(*args, **kwargs)
        finally:
            record[2] = time.perf_counter_ns()
            self._stack.pop()

    def begin_op(self, op: int) -> None:
        self.op = op
        self._max_block.clear()

    # -- wrappers -----------------------------------------------------------

    def _spanned(self, name: str, fn: Callable, after: Callable | None = None) -> Callable:
        def wrapper(*args, **kwargs):
            result = self.run(name, fn, *args, **kwargs)
            if after is not None:
                after(result, *args)
            return result

        return wrapper

    def _counted(self, counter: str, fn: Callable) -> Callable:
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[counter] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- counters read off results --------------------------------------------

    def _parsed(self, model, *_) -> None:
        self.counts["pmc.transitions"] += (
            len(model.upper) if isinstance(model, Imc) else len(model.trans)
        )

    def _translated(self, A, *_) -> None:
        self.counts["gba.states"] += len(A.states)

    def _product(self, G, *_) -> None:
        self.counts["product.nodes"] += G.n_nodes()
        self.counts["product.arcs"] += G.n_arcs()

    def _partition(self, partition, *_) -> None:
        self.counts["product.sccs"] += len(partition.sccs)
        self.counts["product.sccs_nontrivial"] += sum(1 for r in partition.sccs if not r.trivial)

    def _classified(self, result, *_) -> None:
        pos, _neg = result
        self.counts["product.sccs_positive"] += len(pos)

    def _solved(self, result, system, *_) -> None:
        self.counts["eqsys.solve_calls"] += 1
        self.counts["eqsys.solved_nodes"] += len(result.mu)
        # the solved part depends on the system only, not on the evaluation
        block = self._max_block.get(id(system))
        if block is None:
            zeros = set(system.zeros)
            block = max(
                (
                    len(r.members)
                    for r in system.partition.sccs
                    if r.members[0] in result.restricted and r.members[0] not in zeros
                ),
                default=0,
            )
            self._max_block[id(system)] = block
            self.counts["eqsys.max_block"] = max(self.counts["eqsys.max_block"], block)

    def _gridded(self, result, *_) -> None:
        self.counts["eqsys.grid_tried"] += result.tried
        self.counts["eqsys.grid_admitted"] += result.admitted

    def _emitted(self, script, *_) -> None:
        self.counts["smtlib.bytes"] += len(script.encode())

    def _checked(self, *_) -> None:
        self.counts["pmc.well_defined_calls"] += 1

    def install(self) -> Callable[[], None]:
        """Rebind the traced names; returns a function that restores them."""
        bindings = [
            (cli, "parse_model", self._spanned("pmc.parse_model", cli.parse_model, self._parsed)),
            (cli, "imc_to_pmc", self._spanned("pmc.imc_to_pmc", cli.imc_to_pmc)),
            (cli, "translate", self._spanned("gba.translate", cli.translate, self._translated)),
            (eqsys, "translate", self._spanned("gba.translate", eqsys.translate, self._translated)),
            (eqsys, "analyze", self._spanned("eqsys.analyze", eqsys.analyze)),
            (
                eqsys,
                "build_product",
                self._spanned("product.build_product", eqsys.build_product, self._product),
            ),
            (
                eqsys,
                "scc_decompose",
                self._spanned("product.scc_decompose", eqsys.scc_decompose, self._partition),
            ),
            (product, "tarjan", self._spanned("sccs.tarjan", product.tarjan)),
            (gba, "tarjan", self._spanned("sccs.tarjan", gba.tarjan)),
            (eqsys, "build_system", self._spanned("eqsys.build_system", eqsys.build_system)),
            (
                eqsys,
                "classify_locally_positive",
                self._spanned(
                    "product.classify", eqsys.classify_locally_positive, self._classified
                ),
            ),
            (
                product,
                "is_complete_rd",
                self._counted("product.completeness_checks", product.is_complete_rd),
            ),
            (
                product,
                "is_complete_oracle",
                self._counted("product.completeness_checks", product.is_complete_oracle),
            ),
            (
                eqsys,
                "solve_concrete",
                self._spanned("eqsys.solve_concrete", eqsys.solve_concrete, self._solved),
            ),
            (
                eqsys,
                "well_defined",
                self._spanned("pmc.well_defined", eqsys.well_defined, self._checked),
            ),
            (eqsys, "synth_grid", self._spanned("eqsys.synth_grid", eqsys.synth_grid, self._gridded)),
            (
                smtlib,
                "emit_smtlib",
                self._spanned("smtlib.emit_smtlib", smtlib.emit_smtlib, self._emitted),
            ),
            (
                RationalFunction,
                "make",
                staticmethod(self._counted("ratfunc.make_calls", RationalFunction.make)),
            ),
            (
                RationalFunction,
                "evaluate",
                self._counted("ratfunc.evaluate_calls", RationalFunction.evaluate),
            ),
        ]
        saved = [(owner, name, owner.__dict__[name]) for owner, name, _ in bindings]
        for owner, name, replacement in bindings:
            setattr(owner, name, replacement)

        def restore() -> None:
            for owner, name, original in saved:
                setattr(owner, name, original)

        return restore

    def write_spans(self, path: Path) -> None:
        with path.open("w") as f:
            for name, start, end, parent, op in self.spans:
                f.write(
                    json.dumps(
                        {"name": name, "start": start, "end": end, "parent": parent, "op": op}
                    )
                    + "\n"
                )


def read_spans(path: Path) -> list[dict]:
    with path.open() as f:
        return [json.loads(line) for line in f]


def span_times(spans: list[dict]) -> tuple[dict[str, float], dict[str, float]]:
    """Total and self time per span name, in seconds."""
    total: dict[str, float] = defaultdict(float)
    own: dict[str, float] = defaultdict(float)
    for span in spans:
        duration = (span["end"] - span["start"]) / 1e9
        total[span["name"]] += duration
        own[span["name"]] += duration
        if span["parent"] >= 0:
            own[spans[span["parent"]]["name"]] -= duration
    return total, own


def layer_metrics(spans: list[dict], counts: dict[str, int], overhead: float) -> dict[str, float]:
    """Per-layer metrics of one traced pass."""
    total, own = span_times(spans)
    metrics: dict[str, float] = {}
    for metric, (span, self_time) in SPAN_METRICS.items():
        metrics[metric] = (own if self_time else total)[span]
    for metric in COUNT_METRICS:
        metrics[metric] = counts.get(metric, 0)
    for metric, (num, den) in RATIO_METRICS.items():
        metrics[metric] = counts[num] / counts[den] if counts.get(den) else 0.0
    metrics[OVERHEAD_METRIC] = overhead
    return metrics


def self_time_shares(spans: list[dict]) -> dict[str, float]:
    """Each span name's self time as a share of the operations' total."""
    total, own = span_times(spans)
    return {name: t / total[ROOT_SPAN] for name, t in own.items()} if total[ROOT_SPAN] else {}
