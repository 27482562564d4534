"""Identification of conditional causal effects in maximally oriented
partially directed acyclic graphs, with a brute-force oracle over the
represented DAG class."""

from .graph import (Graph, GraphClass, GraphError, ParseError,
                    graph_to_json, graph_to_text, parse_graph_json,
                    parse_graph_text)
from .meek import (InconsistentOrientation, apply_background,
                   consistent_extension, has_consistent_extension,
                   is_meek_closed, meek_closure, pattern_of, refine)
from .reachability import (ancestors, descendants, find_proper_pc_path,
                           is_possibly_directed_path, parents,
                           possible_ancestors, possible_descendants)
from .dsep import (OpenPathWitness, d_separated, find_open_path,
                   is_open_definite_status_path, triple_status)
from .pco import pco, undirected_components
from .ident import (CidmeLeaf, DensityExpression, DsepFailure, Factor,
                    FailCertificate, Fraction, IdentificationError,
                    MarginalOver, NotIdentifiable, PreconditionViolated,
                    Product, cidm, cidme_tree, expression_to_json, fold,
                    id_formula, normal_form, render_latex, render_text,
                    rule1_holds, rule2_holds, rule3_holds)
from .oracle import (CounterexampleReport, DagNotInClass, DiscreteModel,
                     LinearGaussianSem, dag_d_separated, enumerate_dags,
                     evaluate_expression, numeric_gap, random_dag,
                     random_mpdag, table_probability, verify_counterexample)

__version__ = "0.1.0"

__all__ = [
    "Graph", "GraphClass", "GraphError", "ParseError",
    "graph_to_json", "graph_to_text", "parse_graph_json", "parse_graph_text",
    "InconsistentOrientation", "apply_background", "consistent_extension",
    "has_consistent_extension", "is_meek_closed", "meek_closure",
    "pattern_of", "refine",
    "ancestors", "descendants", "find_proper_pc_path",
    "is_possibly_directed_path", "parents", "possible_ancestors",
    "possible_descendants",
    "OpenPathWitness", "d_separated", "find_open_path",
    "is_open_definite_status_path", "triple_status",
    "pco", "undirected_components",
    "CidmeLeaf", "DensityExpression", "DsepFailure", "Factor",
    "FailCertificate", "Fraction", "IdentificationError", "MarginalOver",
    "NotIdentifiable", "PreconditionViolated", "Product", "cidm",
    "cidme_tree", "expression_to_json", "fold", "id_formula", "normal_form",
    "render_latex", "render_text", "rule1_holds", "rule2_holds",
    "rule3_holds",
    "CounterexampleReport", "DagNotInClass", "DiscreteModel",
    "LinearGaussianSem", "dag_d_separated", "enumerate_dags",
    "evaluate_expression", "numeric_gap", "random_dag", "random_mpdag",
    "table_probability", "verify_counterexample",
    "__version__",
]
