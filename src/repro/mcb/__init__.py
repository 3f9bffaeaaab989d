"""Minimum cycle basis: ear-reduced pipeline, solvers, and verification."""

from . import gf2
from .candidate_store import CandidateStore, ScanStats
from .cycle import Cycle
from .depina import DePinaReport, depina_mcb
from .ear_mcb import EarMCBReport, minimum_cycle_basis
from .fvs import greedy_fvs, is_feedback_vertex_set
from .horton import horton_mcb, horton_set, perturbed_weights
from .mehlhorn_michail import MMContext, MMReport, mm_mcb
from .signed_graph import build_signed_graph, min_odd_cycle
from .spanning import SpanningStructure, spanning_structure
from .verify import BasisReport, verify_cycle_basis

__all__ = [
    "gf2",
    "CandidateStore",
    "ScanStats",
    "Cycle",
    "DePinaReport",
    "depina_mcb",
    "EarMCBReport",
    "minimum_cycle_basis",
    "greedy_fvs",
    "is_feedback_vertex_set",
    "horton_mcb",
    "horton_set",
    "perturbed_weights",
    "MMContext",
    "MMReport",
    "mm_mcb",
    "build_signed_graph",
    "min_odd_cycle",
    "SpanningStructure",
    "spanning_structure",
    "BasisReport",
    "verify_cycle_basis",
]
