"""Combinatorics of model totally periodic flows on graph manifolds.

The package represents the data defining a model flow (fat-graph
spines with boundary colorings, Dehn coefficients, torus pairings,
gluing matrices and orbit orientations), validates it, builds the
quotient oriented graph with its symbolic dynamics, and decides
equivalence of two specifications under the allowed moves.
"""

__version__ = "0.1.0"

from .census import (census_pieces, negate_seed, spec_census, spine_census,
                     spine_is_orientation_rigid)
from .equivalence import (EquivalenceMode, EquivalenceWitness,
                          normalize_matrix, spec_equivalent, verify_witness)
from .errors import (CapacityError, InputError, OrientabilityError,
                     OrientationConflictError, SpineflowError, StructureError)
from .fatgraph import (ENTRANCE, EXIT, FatGraph, Spine, SurfaceInvariants,
                       enumerate_spines, fatgraph_isomorphic, is_bipartite,
                       spine_from_json, spine_to_json, surface_invariants,
                       trace_boundary_cycles, validate_spine)
from .flowgraph import (FlowEdge, FlowGraph, ItineraryWord, PeriodicWord,
                        build_flow_graph, flow_graph_to_edge_text,
                        flow_graph_to_json, is_transitive, path_sign,
                        periodic_words, validate_itinerary, word_counts)
from .model import (DehnCoefficient, GluingMatrix, ModelFlowSpec, ModelPiece,
                    OrientationAssignment, UNSURGERED, orientation_classes,
                    propagate_orientations, seed_orientation, spec_from_json,
                    spec_to_json, unsurgered_piece, validate_piece,
                    validate_spec)
from .report import Check, ValidationReport

__all__ = [
    "CapacityError",
    "Check",
    "DehnCoefficient",
    "ENTRANCE",
    "EXIT",
    "EquivalenceMode",
    "EquivalenceWitness",
    "FatGraph",
    "FlowEdge",
    "FlowGraph",
    "GluingMatrix",
    "InputError",
    "ItineraryWord",
    "ModelFlowSpec",
    "ModelPiece",
    "OrientabilityError",
    "OrientationAssignment",
    "OrientationConflictError",
    "PeriodicWord",
    "Spine",
    "SpineflowError",
    "StructureError",
    "SurfaceInvariants",
    "UNSURGERED",
    "ValidationReport",
    "build_flow_graph",
    "census_pieces",
    "enumerate_spines",
    "fatgraph_isomorphic",
    "flow_graph_to_edge_text",
    "flow_graph_to_json",
    "is_bipartite",
    "is_transitive",
    "negate_seed",
    "normalize_matrix",
    "orientation_classes",
    "path_sign",
    "periodic_words",
    "propagate_orientations",
    "seed_orientation",
    "spec_census",
    "spec_equivalent",
    "spec_from_json",
    "spec_to_json",
    "spine_census",
    "spine_from_json",
    "spine_is_orientation_rigid",
    "spine_to_json",
    "surface_invariants",
    "trace_boundary_cycles",
    "unsurgered_piece",
    "validate_itinerary",
    "validate_piece",
    "validate_spec",
    "validate_spine",
    "verify_witness",
    "word_counts",
]
