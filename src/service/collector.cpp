#include "service/collector.hpp"

#include <algorithm>
#include <chrono>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "obs/instruments.hpp"
#include "obs/metrics.hpp"
#include "service/wire.hpp"

namespace dcs::service {

namespace {

DistinctCountSketch decode_sketch_blob(const std::string& blob) {
  std::istringstream in(blob, std::ios::binary);
  BinaryReader reader(in);
  return DistinctCountSketch::deserialize(reader);
}

ReactorConfig reactor_config(const CollectorConfig& config) {
  ReactorConfig out;
  out.workers = config.reactor_workers;
  out.tick_ms = config.io_timeout_ms;
  out.frame_deadline_ms = config.frame_deadline_ms;
  out.idle_timeout_ms = config.idle_timeout_ms;
  out.max_frame_bytes = config.max_frame_bytes;
  return out;
}

}  // namespace

Collector::Collector(CollectorConfig config)
    : config_(std::move(config)),
      admission_(config_.admission),
      reactor_(reactor_config(config_), *this),
      merged_(config_.params),
      detector_(config_.detection),
      trace_ring_(config_.trace_capacity) {
  // Register every trace-stage histogram family up front: a scrape of a
  // collector that has merged nothing yet must still list all pipeline
  // stages (at count 0), not grow families as traffic arrives.
  obs::TraceMetrics::get();
  if (config_.detection_top_k == 0)
    throw std::invalid_argument("Collector: detection_top_k must be > 0");
  if (config_.federation_root && config_.leaf_id != 0)
    throw std::invalid_argument(
        "Collector: a collector is a root or a leaf, not both (deeper "
        "trees are not supported)");
  shard_map_ = config_.shard_map;
  if (config_.checkpoint_every == 0)
    throw std::invalid_argument("Collector: checkpoint_every must be > 0");
  if (config_.admission.max_inflight_bytes != 0) {
    // A single frame larger than the whole budget could never admit and
    // would be NACKed forever — a livelock the operator must resolve by
    // raising the budget or lowering the frame cap.
    const std::uint64_t frame_cap =
        config_.max_frame_bytes != 0 &&
                config_.max_frame_bytes < kMaxPayloadBytes
            ? config_.max_frame_bytes
            : kMaxPayloadBytes;
    if (frame_cap > config_.admission.max_inflight_bytes)
      throw std::invalid_argument(
          "Collector: admission.max_inflight_bytes must cover at least one "
          "max-size frame (raise the budget or lower max_frame_bytes)");
  }
  if (!config_.state_dir.empty()) recover();
}

Collector::~Collector() { stop(); }

void Collector::start() {
  if (running_.load(std::memory_order_acquire)) return;
  auto listener = TcpListener::listen(config_.bind_address, config_.port);
  if (!listener)
    throw std::runtime_error("Collector: cannot bind " +
                             config_.bind_address + ":" +
                             std::to_string(config_.port));
  listener_ = std::move(*listener);
  listener_.set_nonblocking(true);
  running_.store(true, std::memory_order_release);
  reactor_.start(listener_);
}

void Collector::stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) return;
  // Joins every worker and disconnects every peer; nothing calls back into
  // the collector after this returns.
  reactor_.stop();
  listener_.close();
  // Clean shutdown: fold the journal tail into a final checkpoint so the
  // next start replays nothing. Best-effort — the journal already holds
  // every acked delta, so a failed write here loses no data.
  if (store_) {
    std::lock_guard<std::mutex> lock(state_mutex_);
    if (deltas_since_checkpoint_ > 0) {
      try {
        write_checkpoint_locked();
      } catch (const std::exception&) {
        // keep the journal; recovery will replay it
      }
    }
  }
}

bool Collector::running() const {
  return running_.load(std::memory_order_acquire);
}

std::uint16_t Collector::port() const { return listener_.port(); }

std::string Collector::on_frame(PeerState& peer, MsgType type,
                                std::uint8_t version,
                                const std::string& payload) {
  ++frames_;
  if (obs::recording()) obs::CollectorMetrics::get().frames.inc();
  return handle_frame(peer, type, version, payload);
}

void Collector::on_disconnect(PeerState& peer) {
  std::lock_guard<std::mutex> lock(state_mutex_);
  if (peer.hello_ok) {
    auto it = sites_.find(peer.site_id);
    if (it != sites_.end() && it->second.connected) {
      it->second.connected = false;
      --totals_.connected_sites;
      if (obs::recording())
        obs::CollectorMetrics::get().connected_sites.add(-1);
    }
  }
  state_cv_.notify_all();
}

void Collector::on_frame_error() {
  ++frame_errors_;
  if (obs::recording()) obs::CollectorMetrics::get().frame_errors.inc();
}

void Collector::on_deadline_drop() {
  ++deadline_drops_;
  if (obs::recording()) obs::CollectorMetrics::get().deadline_drops.inc();
}

void Collector::on_idle_reap() {
  ++idle_reaped_;
  if (obs::recording()) obs::CollectorMetrics::get().idle_reaped.inc();
}

std::string Collector::handle_frame(PeerState& peer, MsgType type,
                                    std::uint8_t version,
                                    const std::string& payload) {
  switch (type) {
    case MsgType::kHello: {
      const Hello hello = Hello::decode(payload, version);
      // Negotiate down to the site's dialect: everything we send back on
      // this connection is framed at min(ours, theirs).
      peer.wire_version = version < kWireVersion ? version : kWireVersion;
      Ack ack;
      ack.epoch = 0;
      // A leaf uplink relays deltas whose site ids differ from the Hello
      // id; only a federation root is prepared to account those, so
      // anywhere else the connection is refused outright.
      if (hello.params_fingerprint != config_.params.fingerprint() ||
          (hello.role == PeerRole::kLeaf && !config_.federation_root)) {
        ack.status = AckStatus::kRejected;
        if (obs::recording())
          obs::CollectorMetrics::get().rejected_hellos.inc();
        std::lock_guard<std::mutex> lock(state_mutex_);
        ++totals_.rejected_hellos;
        return encode_frame(MsgType::kAck, ack.encode(peer.wire_version),
                            peer.wire_version);
      }
      peer.site_id = hello.site_id;
      peer.role = hello.role;
      std::lock_guard<std::mutex> lock(state_mutex_);
      // Leaf shard enforcement: a site the current map assigns to another
      // leaf is re-homed with kWrongShard + the map (v4), or kRejected for
      // a downlevel agent that cannot decode a map anyway.
      if (config_.leaf_id != 0 && hello.role == PeerRole::kSite &&
          !shard_map_.empty() &&
          shard_map_.leaf_for(hello.site_id) != config_.leaf_id) {
        if (peer.wire_version >= 4) return wrong_shard_ack_locked(peer, 0);
        ack.status = AckStatus::kRejected;
        ++totals_.rejected_hellos;
        if (obs::recording())
          obs::CollectorMetrics::get().rejected_hellos.inc();
        return encode_frame(MsgType::kAck, ack.encode(peer.wire_version),
                            peer.wire_version);
      }
      peer.hello_ok = true;
      SiteStats& site = sites_[hello.site_id];
      site.site_id = hello.site_id;
      if (!site.connected) {
        site.connected = true;
        ++totals_.connected_sites;
        if (obs::recording())
          obs::CollectorMetrics::get().connected_sites.add(1);
      }
      // A fresh agent resuming above last_epoch+1 (e.g. restart with a new
      // first_epoch) is an epoch gap; account it like any other drop.
      if (hello.first_epoch > site.last_epoch + 1) {
        const std::uint64_t gap = hello.first_epoch - site.last_epoch - 1;
        site.dropped_epochs += gap;
        totals_.dropped_epochs += gap;
        // Advance last_epoch past the gap so the first delta of the new
        // connection does not count the same missing epochs again.
        site.last_epoch = hello.first_epoch - 1;
        if (obs::recording())
          obs::CollectorMetrics::get().dropped_epochs.inc(gap);
      }
      // Resume watermark: the highest epoch already durable/merged for this
      // site. The agent prunes spooled epochs at or below it instead of
      // re-shipping them after a collector restart.
      ack.epoch = site.last_epoch;
      // Push the shard map to v4 site agents holding a stale version —
      // map distribution rides the handshake, no side channel needed.
      if (peer.wire_version >= 4 && !shard_map_.empty() &&
          hello.role == PeerRole::kSite) {
        ack.map_version = shard_map_.version();
        if (hello.map_version < shard_map_.version())
          ack.map_blob = shard_map_.encode();
      }
      state_cv_.notify_all();
      return encode_frame(MsgType::kAck, ack.encode(peer.wire_version),
                          peer.wire_version);
    }
    case MsgType::kSnapshotDelta:
      return handle_delta(peer, version, payload);
    case MsgType::kHeartbeat: {
      Heartbeat::decode(payload);  // validation; liveness is implicit
      // v3 sites expect a heartbeat ack (epoch 0) and time it as a network
      // RTT probe. A v2 site does NOT wait for one — acking would desync
      // its request/response ack stream, so the gate is the negotiated
      // version, not ours.
      if (peer.wire_version >= 3) {
        Ack ack;
        ack.epoch = 0;
        return encode_frame(MsgType::kAck, ack.encode(peer.wire_version),
                            peer.wire_version);
      }
      return {};
    }
    case MsgType::kAck:
      throw WireError("collector: unexpected Ack from site");
    case MsgType::kBye: {
      Bye::decode(payload);
      std::lock_guard<std::mutex> lock(state_mutex_);
      ++totals_.byes;
      state_cv_.notify_all();
      return {};
    }
  }
  throw WireError("collector: unhandled message type");
}

std::string Collector::handle_delta(PeerState& peer, std::uint8_t version,
                                    const std::string& payload) {
  const SnapshotDelta delta = SnapshotDelta::decode(payload, version);
  if (!peer.hello_ok) throw WireError("collector: delta before Hello");
  // A leaf uplink relays deltas for every site its shard owns: the delta
  // carries the *origin* site id, which legitimately differs from the
  // Hello id (the leaf's own). Everywhere else a mismatch is an attack.
  if (delta.site_id != peer.site_id &&
      !(peer.role == PeerRole::kLeaf && config_.federation_root))
    throw WireError("collector: delta site_id does not match Hello");
  if (delta.epoch == 0) throw WireError("collector: delta epoch must be >= 1");

  // Start this epoch's trace. The agent-side stamps arrived on the wire
  // (zero from a v2 site — the cross-process spans simply don't record);
  // every collector-side stage stamps as the delta moves through.
  obs::EpochTrace trace;
  trace.site_id = delta.site_id;
  trace.epoch = delta.epoch;
  trace.updates = delta.updates;
  trace.bytes = delta.sketch_blob.size();
  trace.stamp(obs::TraceStage::kSealed) = delta.seal_unix_ns;
  trace.stamp(obs::TraceStage::kSpooled) = delta.spool_unix_ns;
  trace.stamp(obs::TraceStage::kShipped) = delta.ship_unix_ns;
  trace.stamp(obs::TraceStage::kReceived) = obs::unix_now_ns();
  if (obs::recording())
    obs::TraceMetrics::get().observe_span(
        obs::TraceStage::kReceived, delta.ship_unix_ns,
        trace.stamp(obs::TraceStage::kReceived));

  Ack ack;
  ack.epoch = delta.epoch;

  // Duplicate pre-check before admission: a retransmit costs nothing to
  // ack and must never be shed — post-recovery re-ships have to drain even
  // when the collector is saturated, or reconnect storms wedge on a full
  // budget.
  {
    std::lock_guard<std::mutex> lock(state_mutex_);
    // Reshard enforcement mid-connection: the Hello passed under an older
    // map, but this site has since moved to another leaf. Nothing is
    // merged; the attached map re-homes the agent with its spool intact.
    if (config_.leaf_id != 0 && peer.role == PeerRole::kSite &&
        !shard_map_.empty() &&
        shard_map_.leaf_for(delta.site_id) != config_.leaf_id) {
      if (peer.wire_version >= 4)
        return wrong_shard_ack_locked(peer, delta.epoch);
      ack.status = AckStatus::kRejected;
      return encode_frame(MsgType::kAck, ack.encode(peer.wire_version),
                          peer.wire_version);
    }
    SiteStats& site = sites_[delta.site_id];
    site.site_id = delta.site_id;
    if (already_merged_locked(site, delta.epoch)) {
      // Retransmit after a reconnect — already merged; ack so the site can
      // drop it from its spool. Exactly-once merging from at-least-once
      // delivery.
      ack.status = AckStatus::kDuplicate;
      ++site.duplicate_deltas;
      ++totals_.duplicate_deltas;
      if (obs::recording())
        obs::CollectorMetrics::get().duplicate_deltas.inc();
      const auto watermark = recovered_watermarks_.find(delta.site_id);
      if (watermark != recovered_watermarks_.end() &&
          delta.epoch <= watermark->second) {
        // A pre-crash epoch re-shipped after our restart: the watermark
        // dedup working as designed. Counted separately as the double-merge
        // oracle.
        ++totals_.post_recovery_duplicates;
        if (obs::recording())
          obs::CheckpointMetrics::get().post_recovery_duplicates.inc();
      }
      return encode_frame(MsgType::kAck, ack.encode(peer.wire_version),
                          peer.wire_version);
    }
  }

  // Admission: charge the frame's bytes against the global in-flight
  // budget and the site's token bucket before the expensive deserialize.
  // A shed is an honest NACK — the epoch stays in the site's spool and
  // returns after retry_after_ms; nothing is merged, nothing is lost.
  const AdmissionDecision decision = admission_.try_admit(
      peer.site_id, payload.size(), std::chrono::steady_clock::now());
  if (!decision.admitted) {
    ack.status = AckStatus::kRetryLater;
    ack.retry_after_ms = decision.retry_after_ms;
    if (obs::recording()) {
      obs::CollectorMetrics::get().shed_deltas.inc();
      obs::CollectorMetrics::get().shed_bytes.inc(payload.size());
    }
    std::lock_guard<std::mutex> lock(state_mutex_);
    ++totals_.shed_deltas;
    totals_.shed_bytes += payload.size();
    ++sites_[delta.site_id].shed_deltas;
    return encode_frame(MsgType::kAck, ack.encode(peer.wire_version),
                        peer.wire_version);
  }
  // Released on every exit from here (ack sent, duplicate race, or a
  // throw on a bad blob) — the budget can never leak.
  InflightCharge charge(&admission_, payload.size());
  trace.stamp(obs::TraceStage::kAdmitted) = obs::unix_now_ns();
  if (obs::recording())
    obs::TraceMetrics::get().observe_span(
        obs::TraceStage::kAdmitted, trace.stamp(obs::TraceStage::kReceived),
        trace.stamp(obs::TraceStage::kAdmitted));

  // Deserialize (and CRC-check) the blob before taking the state lock; a
  // corrupt blob must never leave a half-merged global sketch.
  DistinctCountSketch sketch = [&] {
    try {
      return decode_sketch_blob(delta.sketch_blob);
    } catch (const SerializeError& error) {
      throw WireError(std::string("collector: bad sketch blob: ") +
                      error.what());
    }
  }();
  if (sketch.params().fingerprint() != config_.params.fingerprint())
    throw WireError("collector: delta sketch parameters mismatch");

  std::lock_guard<std::mutex> lock(state_mutex_);
  SiteStats& site = sites_[delta.site_id];
  if (already_merged_locked(site, delta.epoch)) {
    // Lost the race with another connection of the same site between the
    // pre-check and here (admitted but already merged): dedup, never
    // double-merge. The charge guard releases the admitted bytes.
    ack.status = AckStatus::kDuplicate;
    ++site.duplicate_deltas;
    ++totals_.duplicate_deltas;
    if (obs::recording()) obs::CollectorMetrics::get().duplicate_deltas.inc();
    return encode_frame(MsgType::kAck, ack.encode(peer.wire_version),
                        peer.wire_version);
  }
  // Leaf uplink tap, before the durability barrier: if the uplink spool
  // cannot take the delta, shed honestly — the agent keeps it spooled and
  // re-ships, so backpressure propagates to the edge instead of dropping
  // relays (the root would see a permanent gap).
  if (config_.delta_tap && !config_.delta_tap(delta, /*replay=*/false)) {
    ack.status = AckStatus::kRetryLater;
    ack.retry_after_ms = config_.tap_retry_after_ms;
    ++totals_.tap_shed_deltas;
    ++site.shed_deltas;
    if (obs::recording()) obs::FederationMetrics::get().tap_shed_deltas.inc();
    return encode_frame(MsgType::kAck, ack.encode(peer.wire_version),
                        peer.wire_version);
  }
  // Durability barrier: the delta must hit the journal (fsync'd) BEFORE it
  // is merged or acked. If the append fails the connection is dropped
  // without an ack, the agent keeps the epoch spooled, and no state moved.
  if (store_) {
    try {
      std::uint64_t fsync_ns = 0;
      journal_.append({delta.site_id, delta.epoch, delta.updates,
                       delta.sketch_blob},
                      &fsync_ns);
      ++totals_.journal_records;
      if (obs::recording()) {
        obs::CheckpointMetrics::get().journal_records.inc();
        obs::CheckpointMetrics::get().fsync_ns.observe(fsync_ns);
      }
    } catch (const std::runtime_error& error) {
      throw WireError(std::string("collector: journal append failed: ") +
                      error.what());
    }
  }
  // Journaled stamp: with durability off the stage is a pass-through (the
  // stamp keeps the trace complete; the span histogram only records when a
  // journal append actually happened).
  trace.stamp(obs::TraceStage::kJournaled) = obs::unix_now_ns();
  if (store_ && obs::recording())
    obs::TraceMetrics::get().observe_span(
        obs::TraceStage::kJournaled, trace.stamp(obs::TraceStage::kAdmitted),
        trace.stamp(obs::TraceStage::kJournaled));
  merge_delta_locked(delta.site_id, delta.epoch, delta.updates, sketch,
                     &trace);
  if (peer.role == PeerRole::kLeaf) {
    ++totals_.relayed_deltas;
    if (obs::recording()) obs::FederationMetrics::get().relayed_deltas.inc();
  }
  if (obs::recording()) trace_ring_.push(trace);
  if (store_ && ++deltas_since_checkpoint_ >= config_.checkpoint_every) {
    try {
      write_checkpoint_locked();
    } catch (const std::exception&) {
      // A failed checkpoint is not fatal and must not fail the delta (it is
      // already durable in the journal): keep journaling, retry at the next
      // merge.
    }
  }
  state_cv_.notify_all();
  return encode_frame(MsgType::kAck, ack.encode(peer.wire_version),
                      peer.wire_version);
}

bool Collector::already_merged_locked(const SiteStats& site,
                                      std::uint64_t epoch) const {
  if (epoch > site.last_epoch) return false;
  if (!config_.federation_root) return true;
  // Root mode: an epoch below the watermark is new iff it fills a recorded
  // gap — after a leaf kill + reshard, the new leaf relays a site's later
  // epochs before the old leaf's drained journal delivers the earlier
  // ones, and both paths may deliver the same epoch.
  const auto gaps = gap_epochs_.find(site.site_id);
  return gaps == gap_epochs_.end() ||
         gaps->second.find(epoch) == gaps->second.end();
}

std::string Collector::wrong_shard_ack_locked(const PeerState& peer,
                                              std::uint64_t epoch) {
  Ack ack;
  ack.epoch = epoch;
  ack.status = AckStatus::kWrongShard;
  ack.map_version = shard_map_.version();
  ack.map_blob = shard_map_.encode();
  ++totals_.wrong_shard_acks;
  if (obs::recording()) obs::FederationMetrics::get().wrong_shard_acks.inc();
  return encode_frame(MsgType::kAck, ack.encode(peer.wire_version),
                      peer.wire_version);
}

void Collector::set_shard_map(const ShardMap& map) {
  if (map.empty())
    throw std::invalid_argument("Collector::set_shard_map: empty map");
  std::lock_guard<std::mutex> lock(state_mutex_);
  if (!shard_map_.empty() && map.version() <= shard_map_.version())
    throw std::invalid_argument(
        "Collector::set_shard_map: version must be strictly newer (a "
        "delayed push must never roll the topology back)");
  shard_map_ = map;
  ++totals_.reshards;
  if (obs::recording()) obs::FederationMetrics::get().reshards.inc();
  state_cv_.notify_all();
}

ShardMap Collector::shard_map() const {
  std::lock_guard<std::mutex> lock(state_mutex_);
  return shard_map_;
}

void Collector::merge_delta_locked(std::uint64_t site_id, std::uint64_t epoch,
                                   std::uint64_t updates,
                                   const DistinctCountSketch& sketch,
                                   obs::EpochTrace* trace) {
  SiteStats& site = sites_[site_id];
  site.site_id = site_id;
  const bool gap_fill = config_.federation_root && epoch <= site.last_epoch;
  if (gap_fill) {
    // Filling a previously recorded gap (already_merged_locked vetted
    // membership before this call): the watermark does not move.
    auto gaps = gap_epochs_.find(site_id);
    gaps->second.erase(epoch);
    if (gaps->second.empty()) gap_epochs_.erase(gaps);
    ++totals_.gap_fills;
    if (obs::recording()) obs::FederationMetrics::get().gap_fills.inc();
  } else if (epoch > site.last_epoch + 1) {
    const std::uint64_t gap = epoch - site.last_epoch - 1;
    if (config_.federation_root) {
      // Not (yet) a loss: with multiple relay paths the missing epochs may
      // simply be in flight on another leaf. Record them as pending gaps;
      // a bounded set per site keeps a buggy epoch jump from ballooning
      // memory — the overflow beyond the bound is accounted as dropped.
      constexpr std::uint64_t kMaxTrackedGapEpochs = 4096;
      auto& gaps = gap_epochs_[site_id];
      std::uint64_t first_tracked = site.last_epoch + 1;
      if (gap > kMaxTrackedGapEpochs - std::min<std::uint64_t>(
                                           kMaxTrackedGapEpochs, gaps.size())) {
        const std::uint64_t room =
            kMaxTrackedGapEpochs -
            std::min<std::uint64_t>(kMaxTrackedGapEpochs, gaps.size());
        const std::uint64_t overflow = gap - room;
        site.dropped_epochs += overflow;
        totals_.dropped_epochs += overflow;
        if (obs::recording())
          obs::CollectorMetrics::get().dropped_epochs.inc(overflow);
        first_tracked += overflow;
      }
      for (std::uint64_t e = first_tracked; e < epoch; ++e) gaps.insert(e);
      if (gaps.empty()) gap_epochs_.erase(site_id);
    } else {
      site.dropped_epochs += gap;
      totals_.dropped_epochs += gap;
      if (obs::recording())
        obs::CollectorMetrics::get().dropped_epochs.inc(gap);
    }
  }
  {
    obs::ScopedTimer timer(obs::CollectorMetrics::get().merge_ns);
    merged_.merge_sketch(sketch);
    if (trace) {
      trace->stamp(obs::TraceStage::kMerged) = obs::unix_now_ns();
      if (obs::recording())
        obs::TraceMetrics::get().observe_span(
            obs::TraceStage::kMerged,
            trace->stamp(obs::TraceStage::kJournaled),
            trace->stamp(obs::TraceStage::kMerged));
    }
    BaselineDetector::Outcome outcome;
    if (config_.run_detection)
      outcome =
          detector_.observe(merged_.top_k(config_.detection_top_k).entries,
                            totals_.deltas_merged + 1);
    if (trace) {
      // This is the moment an alert for this epoch's data exists (or
      // provably does not) — the far edge of the freshness SLO.
      const std::uint64_t verdict_ns = obs::unix_now_ns();
      trace->stamp(obs::TraceStage::kDetectorEvaluated) = verdict_ns;
      trace->alerts_raised = outcome.raised;
      const std::uint64_t seal_ns = trace->stamp(obs::TraceStage::kSealed);
      if (seal_ns != 0) {
        trace->freshness_ns =
            verdict_ns >= seal_ns ? verdict_ns - seal_ns : 0;
        site.last_seal_unix_ns = seal_ns;
        site.last_freshness_ns = trace->freshness_ns;
        if (obs::recording()) {
          auto& tm = obs::TraceMetrics::get();
          tm.observe_span(obs::TraceStage::kDetectorEvaluated,
                          trace->stamp(obs::TraceStage::kMerged),
                          verdict_ns);
          tm.detection_freshness_ns.observe(trace->freshness_ns);
        }
      } else if (obs::recording()) {
        obs::TraceMetrics::get().observe_span(
            obs::TraceStage::kDetectorEvaluated,
            trace->stamp(obs::TraceStage::kMerged), verdict_ns);
      }
    }
  }
  if (epoch > site.last_epoch) site.last_epoch = epoch;
  ++site.epochs_merged;
  site.updates_merged += updates;
  ++totals_.deltas_merged;
  if (obs::recording()) obs::CollectorMetrics::get().deltas.inc();
}

void Collector::recover() {
  store_ = std::make_unique<CheckpointStore>(config_.state_dir,
                                             config_.checkpoint_retain);
  std::lock_guard<std::mutex> lock(state_mutex_);

  std::uint64_t corrupt_skipped = 0;
  auto loaded = store_->load_latest(&corrupt_skipped);
  totals_.corrupt_generations_skipped = corrupt_skipped;
  if (obs::recording() && corrupt_skipped > 0)
    obs::CheckpointMetrics::get().corrupt_skipped.inc(corrupt_skipped);

  bool restored = false;
  std::uint64_t replay_from = 0;
  if (loaded) {
    if (loaded->sketch.params().fingerprint() != config_.params.fingerprint())
      throw std::runtime_error(
          "Collector: checkpoint in state_dir was written with different "
          "sketch parameters");
    generation_ = loaded->generation;
    replay_from = loaded->generation;
    merged_ = TrackingDcs(loaded->sketch);
    totals_.deltas_merged = loaded->deltas_merged;
    totals_.duplicate_deltas = loaded->duplicate_deltas;
    totals_.dropped_epochs = loaded->dropped_epochs;
    totals_.byes = loaded->byes;
    for (const SiteWatermark& watermark : loaded->sites) {
      SiteStats site;
      site.site_id = watermark.site_id;
      site.last_epoch = watermark.last_epoch;
      site.epochs_merged = watermark.epochs_merged;
      site.updates_merged = watermark.updates_merged;
      site.dropped_epochs = watermark.dropped_epochs;
      site.duplicate_deltas = watermark.duplicate_deltas;
      sites_[watermark.site_id] = site;
    }
    if (!loaded->detector_blob.empty()) {
      std::istringstream in(loaded->detector_blob, std::ios::binary);
      BinaryReader reader(in);
      detector_ = BaselineDetector::deserialize(reader, config_.detection);
    }
    restored = true;
  }

  // Replay every journal generation at or after the loaded checkpoint, in
  // order. Records at or below a site's watermark were already covered by a
  // newer checkpoint (possible when falling back a generation) — dedup,
  // never double-merge. Replaying through merge_delta_locked re-runs the
  // detector over the exact observe() sequence of the uninterrupted run.
  for (const std::uint64_t gen : store_->journal_generations()) {
    if (gen < replay_from) continue;
    auto replayed = EpochJournal::replay(store_->journal_path(gen));
    for (EpochJournal::Record& record : replayed.records) {
      SiteStats& site = sites_[record.site_id];
      site.site_id = record.site_id;
      // Gap-aware in root mode: the journal records gap fills in append
      // order, so replay re-runs the exact out-of-order merge sequence.
      if (already_merged_locked(site, record.epoch)) {
        ++totals_.replay_deduped;
        if (obs::recording())
          obs::CheckpointMetrics::get().replay_deduped.inc();
        continue;
      }
      // The record CRC already verified the blob byte-for-byte; a decode
      // failure here means the collector journaled garbage, which validation
      // before append rules out. Treat defensively like a torn tail.
      DistinctCountSketch sketch = [&]() -> DistinctCountSketch {
        try {
          return decode_sketch_blob(record.sketch_blob);
        } catch (const SerializeError&) {
          return DistinctCountSketch(config_.params);
        }
      }();
      if (sketch.params().fingerprint() != config_.params.fingerprint())
        continue;
      merge_delta_locked(record.site_id, record.epoch, record.updates, sketch,
                         /*trace=*/nullptr);
      // Drain mode: re-offer every replayed record to the uplink. Records
      // the root already merged come back as cheap duplicate acks; records
      // lost with the pre-crash uplink spool are exactly the ones this
      // replay re-forwards — the leaf-kill recovery path (the checkpoint
      // gate guarantees the journal still holds everything un-acked).
      // replay=true makes the spool accept past its soft bound: shedding a
      // replayed record would turn recovery into loss.
      if (config_.delta_tap) {
        SnapshotDelta relay;  // journal records keep no seal stamps
        relay.site_id = record.site_id;
        relay.epoch = record.epoch;
        relay.updates = record.updates;
        relay.sketch_blob = std::move(record.sketch_blob);
        config_.delta_tap(relay, /*replay=*/true);
      }
      ++totals_.replayed_epochs;
      if (obs::recording())
        obs::CheckpointMetrics::get().replayed_epochs.inc();
      restored = true;
    }
  }

  if (restored) {
    ++totals_.recoveries;
    if (obs::recording()) obs::CheckpointMetrics::get().recoveries.inc();
  }
  for (const auto& [site_id, site] : sites_)
    recovered_watermarks_[site_id] = site.last_epoch;

  // Make the recovered state durable immediately: the journal tail folds
  // into a fresh checkpoint generation and a clean journal, so a crash loop
  // can never replay the same journal into divergent states.
  write_checkpoint_locked();
}

CheckpointState Collector::build_checkpoint_state_locked() const {
  CheckpointState state;
  state.sketch = merged_.sketch();
  for (const auto& [site_id, site] : sites_)
    state.sites.push_back({site_id, site.last_epoch, site.epochs_merged,
                           site.updates_merged, site.dropped_epochs,
                           site.duplicate_deltas});
  state.deltas_merged = totals_.deltas_merged;
  state.duplicate_deltas = totals_.duplicate_deltas;
  state.dropped_epochs = totals_.dropped_epochs;
  state.byes = totals_.byes;
  if (config_.run_detection) {
    std::ostringstream out(std::ios::binary);
    BinaryWriter writer(out);
    detector_.serialize(writer);
    state.detector_blob = std::move(out).str();
  }
  return state;
}

void Collector::write_checkpoint_locked() {
  if (!store_) return;
  if (config_.checkpoint_gate && !config_.checkpoint_gate()) {
    // Gated (leaf uplink not drained): rotating the journal into a
    // checkpoint now would prune the uplink's only crash-replay source.
    // Keep appending to the current generation's journal — O_APPEND means
    // reopening after recovery just extends it — and retry at the next
    // merge / stop().
    if (!journal_.is_open())
      journal_ = EpochJournal::open(store_->journal_path(generation_),
                                    config_.journal_fsync);
    return;
  }
  obs::ScopedTimer timer(obs::CheckpointMetrics::get().write_ns);

  CheckpointState state = build_checkpoint_state_locked();
  // Number above every file present — even a corrupt newer generation —
  // so a fallback recovery never overwrites evidence or reuses a name.
  state.generation = std::max(generation_, store_->max_generation()) + 1;

  std::uint64_t fsync_ns = 0;
  const std::uint64_t bytes = store_->write(state, &fsync_ns);
  // Only after the checkpoint is durable: rotate to its journal and drop
  // generations older than the previous one (kept as the corruption
  // fallback).
  journal_.close();
  generation_ = state.generation;
  journal_ = EpochJournal::open(store_->journal_path(generation_),
                                config_.journal_fsync);
  deltas_since_checkpoint_ = 0;
  ++totals_.checkpoints_written;
  store_->prune_retained(generation_);
  if (obs::recording()) {
    obs::CheckpointMetrics::get().generations.inc();
    obs::CheckpointMetrics::get().bytes_written.inc(bytes);
    obs::CheckpointMetrics::get().fsync_ns.observe(fsync_ns);
  }
}

bool Collector::checkpoint_now() {
  if (!store_) return false;
  std::lock_guard<std::mutex> lock(state_mutex_);
  write_checkpoint_locked();
  return true;
}

std::uint64_t Collector::checkpoint_generation() const {
  std::lock_guard<std::mutex> lock(state_mutex_);
  return generation_;
}

TopKResult Collector::top_k(std::size_t k) const {
  std::lock_guard<std::mutex> lock(state_mutex_);
  return merged_.top_k(k);
}

std::uint64_t Collector::estimate_frequency(Addr group) const {
  std::lock_guard<std::mutex> lock(state_mutex_);
  return merged_.estimate_frequency(group);
}

DistinctCountSketch Collector::merged_sketch() const {
  std::lock_guard<std::mutex> lock(state_mutex_);
  return merged_.sketch();
}

std::vector<Alert> Collector::alerts() const {
  std::lock_guard<std::mutex> lock(state_mutex_);
  return detector_.alerts();
}

std::size_t Collector::active_alarm_count() const {
  std::lock_guard<std::mutex> lock(state_mutex_);
  return detector_.active_alarm_count();
}

Collector::Stats Collector::stats() const {
  std::lock_guard<std::mutex> lock(state_mutex_);
  Stats out = totals_;
  out.frames = frames_.load();
  out.frame_errors = frame_errors_.load();
  out.deadline_drops = deadline_drops_.load();
  out.idle_reaped = idle_reaped_.load();
  for (const auto& [site_id, gaps] : gap_epochs_)
    out.pending_gap_epochs += gaps.size();
  if (obs::recording())
    obs::FederationMetrics::get().pending_gap_epochs.set(
        static_cast<std::int64_t>(out.pending_gap_epochs));
  return out;
}

std::size_t Collector::connection_count() const {
  return reactor_.connection_count();
}

std::uint64_t Collector::inflight_bytes() const {
  return admission_.inflight_bytes();
}

QueryPublishState Collector::query_publish_state(std::size_t top_k) const {
  std::lock_guard<std::mutex> lock(state_mutex_);
  QueryPublishState state;
  state.checkpoint = build_checkpoint_state_locked();
  state.alerts = detector_.alerts();
  state.active_alarms = detector_.active_alarm_count();
  state.top_k = merged_.top_k(top_k);
  state.distinct_pairs = merged_.estimate_distinct_pairs();
  for (const auto& [site_id, site] : sites_)
    state.epoch_watermark = std::max(state.epoch_watermark, site.last_epoch);
  state.deltas_merged = totals_.deltas_merged;
  return state;
}

std::vector<Collector::SiteStats> Collector::site_stats() const {
  std::lock_guard<std::mutex> lock(state_mutex_);
  std::vector<SiteStats> out;
  out.reserve(sites_.size());
  for (const auto& [id, site] : sites_) out.push_back(site);
  return out;
}

bool Collector::wait_for_deltas(std::uint64_t count, int timeout_ms) const {
  std::unique_lock<std::mutex> lock(state_mutex_);
  return state_cv_.wait_for(lock, std::chrono::milliseconds(timeout_ms),
                            [&] { return totals_.deltas_merged >= count; });
}

bool Collector::wait_for_byes(std::uint64_t count, int timeout_ms) const {
  std::unique_lock<std::mutex> lock(state_mutex_);
  return state_cv_.wait_for(lock, std::chrono::milliseconds(timeout_ms),
                            [&] { return totals_.byes >= count; });
}

}  // namespace dcs::service
