// Pre-registered metric bundles for the library's instrumented hot paths.
//
// Each subsystem gets one lazily-constructed bundle of references into the
// global Registry (construct-on-first-use keeps static-init order safe).
// Hot paths fetch the bundle once per call under `if (obs::recording())`,
// so a disabled build pays one relaxed bool load and nothing else.
//
// The full catalog — name, type, labels, and which paper quantity each
// metric tracks — is documented in docs/OBSERVABILITY.md; keep the two in
// sync when adding metrics.
#pragma once

#include <array>
#include <cstddef>

#include "obs/metrics.hpp"

namespace dcs::obs {

/// DistinctCountSketch (paper §3-§4): update fan-out and query-side bucket
/// classification.
struct SketchMetrics {
  Counter& updates;             // dcs_sketch_updates_total
  Counter& deletes;             // dcs_sketch_deletes_total
  Counter& level_allocations;   // dcs_sketch_level_allocations_total
  Counter& query_empty;         // dcs_sketch_query_buckets_total{class=empty}
  Counter& query_singleton;     // ...{class=singleton}
  Counter& query_collision;     // ...{class=collision}
  Counter& recovery_failures;   // dcs_sketch_recovery_failures_total
  Histogram& query_ns;          // dcs_sketch_query_latency_ns

  /// First-level geometric hash hits, labeled by level; levels beyond
  /// kMaxLevelLabel fold into the final "32+" series.
  static constexpr int kMaxLevelLabel = 32;
  Counter& level_hits(int level) noexcept {
    return *level_hits_[static_cast<std::size_t>(
        level > kMaxLevelLabel ? kMaxLevelLabel : level)];
  }

  static SketchMetrics& get();

  std::array<Counter*, kMaxLevelLabel + 1> level_hits_;
};

/// TrackingDcs (paper §5): Fig. 6 singleton-set churn and heap maintenance.
struct TrackingMetrics {
  Counter& updates;             // dcs_tracking_updates_total
  Counter& singletons_gained;   // dcs_tracking_singletons_gained_total
  Counter& singletons_lost;     // dcs_tracking_singletons_lost_total
  Counter& heap_ops;            // dcs_tracking_heap_ops_total
  Histogram& query_ns;          // dcs_tracking_query_latency_ns

  static TrackingMetrics& get();
};

/// FlowUpdateExporter: handshake state machine and SYN-backlog reaping.
struct ExporterMetrics {
  Counter& packets;             // dcs_exporter_packets_total
  Counter& opens;               // dcs_exporter_opens_total (+1 emissions)
  Counter& closes;              // dcs_exporter_closes_total (-1, ACK/RST)
  Counter& timeout_reaps;       // dcs_exporter_timeout_reaps_total (-1, timer)
  Gauge& half_open;             // dcs_exporter_half_open_pairs

  static ExporterMetrics& get();
};

/// DdosMonitor: per-epoch checks and the alert state machine.
struct MonitorMetrics {
  Counter& checks;              // dcs_monitor_checks_total
  Counter& alerts_raised;       // dcs_monitor_alerts_raised_total
  Counter& alerts_cleared;      // dcs_monitor_alerts_cleared_total
  Gauge& active_alarms;         // dcs_monitor_active_alarms
  Histogram& check_ns;          // dcs_monitor_check_latency_ns

  static MonitorMetrics& get();
};

/// ShardedMonitor / ConcurrentMonitor: per-shard and per-stripe ingest.
struct DistributedMetrics {
  Counter& snapshots;           // dcs_concurrent_snapshots_total
  Histogram& snapshot_ns;       // dcs_concurrent_snapshot_latency_ns
  Histogram& collect_ns;        // dcs_sharded_collect_latency_ns
  Counter& batch_applies;       // dcs_concurrent_batch_applies_total
  Histogram& batch_fill;        // dcs_concurrent_batch_fill_updates

  /// dcs_sharded_updates_total{shard=...}; indices beyond kMaxIndexLabel
  /// fold into the final "32+" series. Takes the registry lock — resolve
  /// once at construction, never per update.
  static constexpr std::size_t kMaxIndexLabel = 32;
  static Counter& shard_updates(std::size_t shard);
  /// dcs_concurrent_updates_total{stripe=...}, same folding rule.
  static Counter& stripe_updates(std::size_t stripe);

  static DistributedMetrics& get();
};

/// src/service collector: frame ingest, delta merging, site liveness, and
/// the overload ledger (admission sheds, deadline/idle connection drops).
struct CollectorMetrics {
  Counter& frames;              // dcs_collector_frames_total
  Counter& frame_errors;        // dcs_collector_frame_errors_total
  Counter& deltas;              // dcs_collector_deltas_total
  Counter& duplicate_deltas;    // dcs_collector_duplicate_deltas_total
  Counter& dropped_epochs;      // dcs_collector_dropped_epochs_total
  Counter& rejected_hellos;     // dcs_collector_rejected_hellos_total
  Gauge& connected_sites;       // dcs_collector_connected_sites
  Histogram& merge_ns;          // dcs_collector_merge_latency_ns
  Counter& shed_deltas;         // dcs_collector_shed_deltas_total
  Counter& shed_bytes;          // dcs_collector_shed_bytes_total
  Counter& deadline_drops;      // dcs_collector_deadline_drops_total
  Counter& idle_reaped;         // dcs_collector_idle_reaped_total
  Gauge& inflight_bytes;        // dcs_collector_inflight_bytes

  static CollectorMetrics& get();
};

/// src/service epoll ingest reactor: event-loop health. Frame/merge/shed
/// accounting stays in CollectorMetrics; these cover the event loop itself
/// — wakeups, the accept drain, and reply-path partial writes.
struct ReactorMetrics {
  Counter& wakeups;             // dcs_reactor_wakeups_total
  Counter& accepts;             // dcs_reactor_accepts_total
  Counter& partial_writes;      // dcs_reactor_partial_writes_total
  Counter& out_buffer_drops;    // dcs_reactor_out_buffer_drops_total
  Gauge& connections;           // dcs_reactor_connections
  Histogram& frames_per_wakeup; // dcs_reactor_frames_per_wakeup

  static ReactorMetrics& get();
};

/// src/service site agent: epoch lifecycle and degraded-mode accounting.
struct AgentMetrics {
  Counter& epochs_sealed;       // dcs_agent_epochs_sealed_total
  Counter& epochs_shipped;      // dcs_agent_epochs_shipped_total
  Counter& epochs_dropped;      // dcs_agent_epochs_dropped_total
  Counter& reconnects;          // dcs_agent_reconnects_total
  Counter& io_errors;           // dcs_agent_io_errors_total
  Counter& resume_skips;        // dcs_agent_resume_skips_total
  Gauge& spool_depth;           // dcs_agent_spool_depth
  Counter& nacks;               // dcs_agent_nacks_total
  Histogram& heartbeat_rtt_ns;  // dcs_agent_heartbeat_rtt_ns

  static AgentMetrics& get();
};

/// src/service collector durability: checkpoint generations, epoch journal,
/// and crash recovery.
struct CheckpointMetrics {
  Counter& generations;          // dcs_checkpoint_generations_total
  Counter& bytes_written;        // dcs_checkpoint_bytes_written_total
  Counter& journal_records;      // dcs_checkpoint_journal_records_total
  Counter& recoveries;           // dcs_checkpoint_recoveries_total
  Counter& corrupt_skipped;      // dcs_checkpoint_corrupt_generations_total
  Counter& replayed_epochs;      // dcs_checkpoint_replayed_epochs_total
  Counter& replay_deduped;       // dcs_checkpoint_replay_deduped_total
  Counter& post_recovery_duplicates;
                                 // dcs_checkpoint_post_recovery_duplicates_total
  Histogram& write_ns;           // dcs_checkpoint_write_latency_ns
  Histogram& fsync_ns;           // dcs_checkpoint_fsync_latency_ns

  static CheckpointMetrics& get();
};

/// Two-tier federation (src/service/federation, docs/FEDERATION.md): shard
/// enforcement and re-homing, the leaf→root uplink, and the root's
/// gap-filling exactly-once dedup.
struct FederationMetrics {
  Counter& wrong_shard_acks;    // dcs_collector_wrong_shard_acks_total
  Counter& reshards;            // dcs_collector_reshards_total
  Counter& gap_fills;           // dcs_root_gap_fills_total
  Gauge& pending_gap_epochs;    // dcs_root_pending_gap_epochs
  Counter& relayed_deltas;      // dcs_root_relayed_deltas_total
  Counter& tap_shed_deltas;     // dcs_leaf_uplink_shed_total
  Counter& uplink_relayed;      // dcs_leaf_uplink_relayed_total
  Counter& uplink_acked;        // dcs_leaf_uplink_acked_total
  Counter& uplink_nacks;        // dcs_leaf_uplink_nacks_total
  Counter& uplink_reconnects;   // dcs_leaf_uplink_reconnects_total
  Gauge& uplink_spool_depth;    // dcs_leaf_uplink_spool_depth
  Counter& rehomes;             // dcs_agent_rehomes_total

  static FederationMetrics& get();
};

/// Query tier (src/query): the collector-side snapshot publisher and the
/// dcs_query_server read path (generation watcher, response cache).
struct QueryMetrics {
  Counter& published_generations;  // dcs_query_published_generations_total
  Counter& publish_errors;         // dcs_query_publish_errors_total
  Counter& published_bytes;        // dcs_query_published_bytes_total
  Counter& reloads;                // dcs_query_reloads_total
  Counter& reload_errors;          // dcs_query_reload_errors_total
  Counter& requests;               // dcs_query_requests_total
  Counter& cache_hits;             // dcs_query_cache_hits_total
  Counter& cache_misses;           // dcs_query_cache_misses_total
  Gauge& loaded_generations;       // dcs_query_loaded_generations
  Gauge& stale_generation;         // dcs_query_stale_generation
  Histogram& load_ns;              // dcs_query_snapshot_load_ns

  static QueryMetrics& get();
};

}  // namespace dcs::obs
