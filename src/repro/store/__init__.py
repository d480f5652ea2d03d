"""Sharded, WAL-backed storage and streaming aggregation.

The subsystem behind million-participant campaigns:

* :mod:`repro.store.wal` — checksum-framed append-only write-ahead log
  with truncation-tolerant replay (the same recoverability contract as the
  fleet journal);
* :mod:`repro.store.sharded` — :class:`ShardedDocumentStore`, a drop-in
  ``DocumentStore`` replacement that hash-partitions documents across N
  WAL-backed shards with snapshot + compaction and spill-to-log for the
  response firehose;
* :mod:`repro.store.stream` — :class:`StreamingAggregator` /
  :class:`OnlineQualityScreen`, folding each stored row into O(pairs)
  sufficient statistics so a campaign concludes (on either store) without
  materializing its participants.
"""

from repro.store.sharded import ShardedDocumentStore
from repro.store.stream import (
    OnlineQualityScreen,
    StreamingAggregator,
    StreamingCampaignState,
    StreamingConclusionData,
    StreamingQualityReport,
)
from repro.store.wal import (
    DiskShardBackend,
    MemoryShardBackend,
    WriteAheadLog,
    decode_wal_line,
    encode_wal_record,
)

__all__ = [
    "DiskShardBackend",
    "MemoryShardBackend",
    "OnlineQualityScreen",
    "ShardedDocumentStore",
    "StreamingAggregator",
    "StreamingCampaignState",
    "StreamingConclusionData",
    "StreamingQualityReport",
    "WriteAheadLog",
    "decode_wal_line",
    "encode_wal_record",
]
