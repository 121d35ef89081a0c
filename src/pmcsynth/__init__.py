"""Parameter synthesis for parametric and interval Markov chains against LTL.

The pipeline: an LTL formula is translated to a generalized Buchi automaton
whose transition structure is reverse deterministic on its reenterable part
(`gba.translate`), composed with the chain lumped for the formula's atomic
propositions (`pmc.lump`, `product.build_product`),
the product's SCCs are classified (`product.classify_locally_positive`),
and the resulting equation system is either solved exactly for a concrete
parameter evaluation (`eqsys.solve_concrete`) or emitted as an SMT-LIB
QF_NRA script for a solver (`smtlib.emit_smtlib`).  The package re-exports
nothing: import from the submodules.
"""
