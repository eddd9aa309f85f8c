"""Exact computation, search and certification of maximisers of
symmetrisable graph parameters, built around the inducibility problem for
complete partite graphs."""

from .graphs import (CompletePartiteShape, Graph, PartiteStructure, canonical_key,
                     complete_partite_shape_of, edit_distance_exact, induced_count,
                     iso_classes, parse_graph_text, write_graph_text)
from .objectives import (ObjectiveSpec, big_lambda, big_lambda_vertex,
                         brute_lambda_max, lambda_graph, lambda_vertex,
                         partitions_of)
from .partite import (PartiteVector, SymmetricIndex, count_partite, density_formula,
                      edit_distance_vectors, elementary_symmetric, lambda_gradient,
                      lambda_of_shape, lambda_of_vector, realise)
from .perturbation import (AttachmentPattern, AttachValue, CompareReport,
                           DiagnosticBounds, attach_value, clone_values, compare_bounds,
                           flip_gradient, lagrange_residual, pair_density, pattern_e,
                           vertex_gradient)
from .symmetrise import (SymmetrisationError, SymmetrisationTrace, symmetrise_full,
                         symmetrise_vertex)
from .strictness import (FiniteStrictnessReport, StrictnessReport, check_str1,
                         check_str2, compute_w, finite_strictness_check,
                         strictness_certificate)
from .optsearch import (CandidateSet, KstResult, continuous_opt, finite_opt,
                        kst_maximiser)
from .polynomials import (AlgebraicNumber, MPoly, UPoly, resultant,
                           sturm_root_count)
from .matrices import psd_check
from .intervals import BBResult, bb_max_bound
from .certificates import (CertificateReport, certify_k2111, certify_k311,
                           certify_krt, certify_kst, krt_value,
                           positive_multiplier_lp)

__version__ = "0.1.0"
