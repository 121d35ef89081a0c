"""Parameter synthesis for parametric and interval Markov chains against LTL.

The pipeline: an LTL formula is translated to a generalized Buchi automaton
whose transition structure is reverse deterministic on its reenterable part
(`gba.translate`), composed with the chain (`product.build_product`),
the product's SCCs are classified (`product.classify_locally_positive`),
and the resulting equation system is either solved exactly for a concrete
parameter evaluation (`eqsys.solve_concrete`) or emitted as an SMT-LIB
QF_NRA script for a solver (`smtlib.emit_smtlib`).
"""

from .eqsys import (
    Analysis,
    EquationSystem,
    PltlQuery,
    SynthResult,
    analyze,
    build_system,
    parse_pltl,
    solve_concrete,
    synth_grid,
)
from .gba import (
    Gba,
    accepts_lasso,
    check_reverse_deterministic,
    elementary,
    make_gba,
    translate,
)
from .ltl import (
    LassoWord,
    LtlFormula,
    atomic_props,
    eval_lasso,
    parse_formula,
    pretty,
)
from .pmc import (
    Imc,
    Pmc,
    imc_to_pmc,
    parse_evaluation,
    parse_model,
    well_defined,
)
from .product import (
    ProductGraph,
    SccPartition,
    build_product,
    classify_locally_positive,
    scc_decompose,
)
from .ratfunc import Polynomial, RationalFunction
from .smtlib import emit_smtlib

__version__ = "0.1.0"

__all__ = [
    "Analysis",
    "EquationSystem",
    "Gba",
    "Imc",
    "LassoWord",
    "LtlFormula",
    "Pmc",
    "PltlQuery",
    "Polynomial",
    "ProductGraph",
    "RationalFunction",
    "SccPartition",
    "SynthResult",
    "accepts_lasso",
    "analyze",
    "atomic_props",
    "build_product",
    "build_system",
    "check_reverse_deterministic",
    "classify_locally_positive",
    "elementary",
    "emit_smtlib",
    "eval_lasso",
    "imc_to_pmc",
    "make_gba",
    "parse_evaluation",
    "parse_formula",
    "parse_model",
    "parse_pltl",
    "pretty",
    "scc_decompose",
    "solve_concrete",
    "synth_grid",
    "translate",
    "well_defined",
]
