"""The measurement framework: scan engine, datasets, campaign runner,
the sharded parallel pipeline, and the continuous-collection driver."""

from .campaign import (
    CampaignSchedule,
    RunStats,
    build_schedule,
    canonical_cache_tag,
    run_campaign,
    run_scheduled,
    slice_schedule,
)
from .collector import (
    CheckpointError,
    CollectionInterrupted,
    ContinuousCollector,
    Increment,
    load_checkpoint_dataset,
)
from .dataset import (
    DailySnapshot,
    Dataset,
    DatasetFileError,
    cache_path,
    checkpoint_dir_path,
)
from .incremental import (
    DatasetMergeError,
    continuation_window,
    coverage_gaps,
    fold_slice,
    merge_datasets,
)
from .pipeline import ParallelCampaignRunner, ShardPlan, merge_shard_datasets
from .engine import ScanEngine, parse_https_rdata
from .records import (
    ConnectivityProbe,
    DomainObservation,
    EchObservation,
    HttpsRecordView,
    NameServerObservation,
)

__all__ = [
    "CampaignSchedule",
    "RunStats",
    "build_schedule",
    "canonical_cache_tag",
    "run_campaign",
    "run_scheduled",
    "slice_schedule",
    "CheckpointError",
    "CollectionInterrupted",
    "ContinuousCollector",
    "Increment",
    "load_checkpoint_dataset",
    "ParallelCampaignRunner",
    "ShardPlan",
    "merge_shard_datasets",
    "DatasetMergeError",
    "continuation_window",
    "coverage_gaps",
    "fold_slice",
    "merge_datasets",
    "DailySnapshot",
    "Dataset",
    "DatasetFileError",
    "cache_path",
    "checkpoint_dir_path",
    "ScanEngine",
    "parse_https_rdata",
    "ConnectivityProbe",
    "DomainObservation",
    "EchObservation",
    "HttpsRecordView",
    "NameServerObservation",
]
