"""Exact-arithmetic engine for quantitative algebraic effects.

Combines equational theories of probabilistic choice, nondeterminism,
exceptions, reading, writing, and contractive steps by sum and tensor;
computes the induced free-monad distance between effectful terms; solves
discounted bisimilarity metrics of finite Markov processes, labelled Markov
processes, Mealy machines, and MDPs, exactly by Kleene and policy
iteration; and checks finite models against theory axioms.
"""

from .bisim import (Certificate, Coalgebra, PseudoMetric, approx_term,
                    disjoint_union, format_coalgebra, parse_coalgebras,
                    psi_step, solve_bisim, unfold_term)
from .errors import DomainError, ParseError, QuantAlgError, UnsupportedShape
from .extvalue import INF, ONE, ZERO, ExtValue, ext
from .modelcheck import (CheckEntry, Counterexample, FiniteAlgebra, Report,
                         check_equation, check_nonexpansive, check_theory,
                         distribution_model, format_report, free_model,
                         parse_algebras, powerset_model, reader_model,
                         writer_model)
from .semantics import (BOUNDED, EXTENDED, DistVal, ExcLeaf, FuncVal, Guard,
                        PairVal, SemValue, SetVal, StateLeaf, VarLeaf,
                        apply_operation, canon_key, denote, denote_with_plan,
                        format_value, make_dist, make_set, map_guards,
                        sem_dist, sem_dist_with_plan, term_dist)
from .spaces import (FinMetricSpace, discrete, hausdorff_general,
                     kantorovich_general, parse_spaces)
from .terms import (App, OpSym, Term, Var, app, bind, conv, empty_op,
                    format_term, next_op, parse_term, raise_, read, union_op,
                    variables, write)
from .theories import (AxiomInstance, Bary, Contract, Exc, LayerPlan,
                       Monoid, ONE_POINT, ParamPool, RATIONAL_LINE, Reader,
                       Semi, Sum, TableMonoid, Tensor, TheoryExpr, Writer,
                       atoms, axiom_groups, axioms,
                       instantiate_generators, labelled_mp_theory, layer_plan,
                       markov_process_theory, mdp_theory, mealy_theory,
                       parse_monoids, parse_theory)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
