"""``repro.streaming`` — append-only ingestion + incremental pipeline.

The paper's §4.9 deployment loop refreshes every two hours on a growing
corpus.  The batch pipeline recomputes everything from scratch each
cycle — O(all data); this package makes a refresh cycle cost O(new
data):

* :class:`IngestSession` (``ingest``) — durable append-only front door
  over the sharded WAL-backed store, with per-collection watermarks
  that drop late records deterministically.
* :class:`SliceWindow` (``window``) — the time-slice bookkeeping of
  ``events.timeslice`` maintained incrementally, with dirty-slice
  tracking and re-anchor rebuilds.
* :class:`IncrementalMABED` (``mabed``) — MABED with an incrementally
  extended inverted index and a related-words cache invalidated only
  where slices changed; detected events are bitwise equal to a batch
  detection over the same documents.
* :class:`TokenInterner` / :class:`SegmentCounts` (``corpus``) —
  per-document token counts cached at append time so the
  document-term matrix and LSA inputs rebuild in O(nnz) numpy, not
  O(corpus) python.
* :class:`StreamingStateStore` (``state``) — crash-safe persistence of
  the folded corpora + warm-start NMF factors, fingerprint-invalidated.
* :class:`IncrementalPipeline` (``pipeline``) — the per-cycle driver
  returning the same :class:`~repro.core.pipeline.PipelineResult` as
  the batch pipeline.  It builds every stage module with the batch
  pipeline's factories and embeds text with the same LSA stand-in, so
  it is exact by default; ``topic_mode="warm"`` warm-starts NMF.

``docs/streaming.md`` documents which paths are exact (bitwise equal to
batch) and which are tolerance-bounded, and why.
"""

from .corpus import SegmentCounts, TokenInterner, assemble_counts, combined_counts
from .ingest import IngestAck, IngestSession
from .mabed import IncrementalMABED, RelatedWordsCache
from .pipeline import IncrementalPipeline, StreamingConfig
from .state import StreamingStateStore
from .window import SliceWindow

__all__ = [
    "IngestAck",
    "IngestSession",
    "IncrementalMABED",
    "IncrementalPipeline",
    "RelatedWordsCache",
    "SegmentCounts",
    "SliceWindow",
    "StreamingConfig",
    "StreamingStateStore",
    "TokenInterner",
    "assemble_counts",
    "combined_counts",
]
