"""Exact transplantability toolkit for loop-signed edge-coloured graphs."""

from .algebra import RatMatrix, SignedPerm, compose, inverse, kronecker, trace
from .graph import (
    CanonicalCode,
    LoopSignedGraph,
    canonical_form,
    components,
    is_bipartite_loopless,
    is_isomorphic,
    is_treelike,
    loopless_version,
    validate,
)
from .catalog import catalog
from .enumeration import CensusRow, census, census_details, enumerate_classes
from .invariants import (
    SpectralReport,
    det_probe,
    kron_probe,
    spectral_report,
    trace_profile,
    word_trace,
)
from .transplant import (
    Decision,
    decide,
    intertwiner_space,
    transplantable,
    verify_witness,
)

__all__ = [
    "CanonicalCode",
    "CensusRow",
    "Decision",
    "LoopSignedGraph",
    "RatMatrix",
    "SignedPerm",
    "SpectralReport",
    "canonical_form",
    "catalog",
    "census",
    "census_details",
    "components",
    "compose",
    "decide",
    "det_probe",
    "enumerate_classes",
    "intertwiner_space",
    "inverse",
    "is_bipartite_loopless",
    "is_isomorphic",
    "is_treelike",
    "kron_probe",
    "kronecker",
    "loopless_version",
    "spectral_report",
    "trace",
    "trace_profile",
    "transplantable",
    "validate",
    "verify_witness",
    "word_trace",
]

__version__ = "0.1.0"
