"""``repro.retrieval`` — search, metrics, and the §IV efficiency model."""

from repro.retrieval.adc import (
    adc_distances,
    build_lookup_tables,
    encode_nearest,
    reconstruct,
    validate_codes,
)
from repro.retrieval.costs import (
    EfficiencyMeasurement,
    StorageCost,
    asymptotic_compression_ratio,
    efficiency_sweep,
    measure_search_times,
    storage_cost,
    theoretical_speedup,
)
from repro.retrieval.engine import (
    QueryEngine,
    ShardedIndex,
    compact_code_dtype,
    merge_topk,
    topk_tie_stable,
)
from repro.retrieval.index import QuantizedIndex
from repro.retrieval.ivf import IVFIndex, default_num_cells
from repro.retrieval.mutable import (
    MutableIndex,
    MutationRequest,
    MutationResult,
    Segment,
)
from repro.retrieval.metrics import (
    average_precision,
    mean_average_precision,
    per_class_average_precision,
    precision_at_k,
    recall_at_k,
)
from repro.retrieval.search import (
    SearchRequest,
    SearchResult,
    exhaustive_search,
    hamming_distances,
    rank_by_distance,
    squared_distances,
)

__all__ = [
    "EfficiencyMeasurement",
    "IVFIndex",
    "MutableIndex",
    "MutationRequest",
    "MutationResult",
    "QuantizedIndex",
    "QueryEngine",
    "SearchRequest",
    "SearchResult",
    "Segment",
    "ShardedIndex",
    "StorageCost",
    "compact_code_dtype",
    "default_num_cells",
    "merge_topk",
    "topk_tie_stable",
    "adc_distances",
    "asymptotic_compression_ratio",
    "average_precision",
    "build_lookup_tables",
    "efficiency_sweep",
    "encode_nearest",
    "exhaustive_search",
    "hamming_distances",
    "mean_average_precision",
    "measure_search_times",
    "per_class_average_precision",
    "precision_at_k",
    "rank_by_distance",
    "recall_at_k",
    "reconstruct",
    "squared_distances",
    "storage_cost",
    "theoretical_speedup",
    "validate_codes",
]
