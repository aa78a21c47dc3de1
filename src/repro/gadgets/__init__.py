"""The gadget pipeline: extraction, records, classification, subsumption."""

from .classify import (
    SyntacticGadget,
    classify_window,
    count_by_type,
    scan_syntactic_gadgets,
    semantic_census,
    total_gadgets,
)
from .extract import (
    ExtractionConfig,
    ExtractionStats,
    candidate_offsets,
    make_executor,
    plan_candidates,
    run_candidates,
    syntactic_scan,
)
from .record import GadgetRecord, JmpType, record_from_path
from .subsumption import (
    SubsumptionStats,
    bucketize,
    fingerprint,
    subsumes,
    winnow_bucket,
)

__all__ = [
    "ExtractionConfig",
    "ExtractionStats",
    "GadgetRecord",
    "JmpType",
    "SubsumptionStats",
    "SyntacticGadget",
    "bucketize",
    "candidate_offsets",
    "classify_window",
    "count_by_type",
    "fingerprint",
    "make_executor",
    "plan_candidates",
    "record_from_path",
    "run_candidates",
    "scan_syntactic_gadgets",
    "semantic_census",
    "subsumes",
    "syntactic_scan",
    "total_gadgets",
    "winnow_bucket",
]
