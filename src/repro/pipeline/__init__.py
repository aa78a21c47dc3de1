"""repro.pipeline — the extraction and winnowing stages plus their cache.

Three cooperating pieces (see DESIGN.md's inventory):

* :mod:`~repro.pipeline.serialize` — canonical, versioned byte encoding
  for gadget records and pools, which the cache stores;
* :mod:`~repro.pipeline.cache` — persistent content-addressed pool
  store keyed by (image bytes, config, pipeline/format versions);
* :mod:`~repro.pipeline.parallel` — the one serial entry point of each
  stage (``extract_pool``, ``winnow_pool``, ``run_pipeline``), each
  short-circuiting through the cache on a hit.
"""

from .cache import CACHE_DIR_ENV, CacheStats, PIPELINE_VERSION, ResultCache, default_cache_dir
from .parallel import extract_pool, run_pipeline, winnow_pool
from .serialize import (
    FORMAT_VERSION,
    SerializationError,
    config_key_bytes,
    constraints_from_bytes,
    constraints_to_bytes,
    pool_from_bytes,
    pool_to_bytes,
    record_from_bytes,
    record_to_bytes,
)

__all__ = [
    "CACHE_DIR_ENV",
    "CacheStats",
    "FORMAT_VERSION",
    "PIPELINE_VERSION",
    "ResultCache",
    "SerializationError",
    "config_key_bytes",
    "constraints_from_bytes",
    "constraints_to_bytes",
    "default_cache_dir",
    "extract_pool",
    "pool_from_bytes",
    "pool_to_bytes",
    "record_from_bytes",
    "record_to_bytes",
    "run_pipeline",
    "winnow_pool",
]
