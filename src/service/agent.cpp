#include "service/agent.hpp"

#include <sstream>
#include <stdexcept>
#include <utility>

#include "obs/instruments.hpp"
#include "obs/metrics.hpp"

namespace dcs::service {

namespace {

std::string serialize_sketch(const DistinctCountSketch& sketch) {
  std::ostringstream out(std::ios::binary);
  BinaryWriter writer(out);
  sketch.serialize(writer);
  return std::move(out).str();
}

}  // namespace

SiteAgent::SiteAgent(SiteAgentConfig config)
    : config_(std::move(config)),
      current_(config_.params),
      shard_map_(config_.shard_map),
      map_version_(shard_map_.version()),
      trace_ring_(config_.trace_capacity),
      shipper_(shipper_config()) {
  // Eager registration so an agent-side scrape lists every stage family
  // (and the heartbeat RTT histogram) before any epoch is sealed.
  obs::TraceMetrics::get();
  if (config_.epoch_updates == 0)
    throw std::invalid_argument("SiteAgent: epoch_updates must be > 0");
  if (config_.spool_epochs == 0)
    throw std::invalid_argument("SiteAgent: spool_epochs must be > 0");
  if (config_.first_epoch == 0)
    throw std::invalid_argument("SiteAgent: first_epoch must be >= 1");
}

ShipperConfig SiteAgent::shipper_config() {
  obs::AgentMetrics& metrics = obs::AgentMetrics::get();
  ShipperConfig ship;
  ship.role = PeerRole::kSite;
  ship.peer_id = config_.site_id;
  ship.params_fingerprint = config_.params.fingerprint();
  ship.host = config_.collector_host;
  ship.port = config_.collector_port;
  ship.backoff_initial_ms = config_.backoff_initial_ms;
  ship.backoff_max_ms = config_.backoff_max_ms;
  ship.heartbeat_interval_ms = config_.heartbeat_interval_ms;
  ship.io_timeout_ms = config_.io_timeout_ms;
  ship.jitter_seed = config_.jitter_seed;
  ship.traces = &trace_ring_;
  ship.metrics = {.shipped = &metrics.epochs_shipped,
                  .resume_skips = &metrics.resume_skips,
                  .nacks = &metrics.nacks,
                  .reconnects = &metrics.reconnects,
                  .io_errors = &metrics.io_errors,
                  .rehomes = &obs::FederationMetrics::get().rehomes,
                  .spool_depth = &metrics.spool_depth,
                  .heartbeat_rtt_ns = &metrics.heartbeat_rtt_ns};
  // Under federation, home to the mapped leaf; the seed endpoint is the
  // fallback after repeated failed connects to it.
  ship.route = [this](std::uint32_t failed_connects, std::string& host,
                      std::uint16_t& port) {
    if (shard_map_.empty() || failed_connects >= kSeedFallbackAfter) return;
    const LeafEndpoint leaf = shard_map_.endpoint_for(config_.site_id);
    host = leaf.host;
    port = leaf.port;
  };
  ship.hello = [this](Hello& hello, const Shipper::Spool& spool) {
    hello.epoch_updates = config_.epoch_updates;
    hello.first_epoch = spool.empty()
                            ? config_.first_epoch + epochs_sealed_.load()
                            : spool.front().epoch;
    hello.dropped_epochs = epochs_dropped_.load();
    hello.map_version = shard_map_.version();
  };
  ship.heartbeat = [this](Heartbeat& beat) {
    beat.current_epoch = config_.first_epoch + epochs_sealed_.load();
    beat.dropped_epochs = epochs_dropped_.load();
  };
  // Adopt a pushed map only if strictly newer than ours.
  ship.adopt_map = [this](const Ack& ack) {
    if (ack.map_blob.empty() || ack.map_version <= shard_map_.version())
      return;
    try {
      shard_map_ = ShardMap::decode(ack.map_blob);
    } catch (const SerializeError&) {
      return;  // corrupt push — keep the map we have
    }
    map_version_.store(shard_map_.version());
  };
  return ship;
}

void SiteAgent::stop(int drain_timeout_ms) {
  if (shipper_.running()) seal_epoch();
  shipper_.stop(drain_timeout_ms);
}

void SiteAgent::ingest(const FlowUpdate& update) {
  ingest(update.dest, update.source, update.delta);
}

void SiteAgent::ingest(Addr dest, Addr source, int delta) {
  current_.update(dest, source, delta);
  if (++current_updates_ >= config_.epoch_updates) seal_epoch();
}

void SiteAgent::seal_epoch() {
  if (current_updates_ == 0) return;
  SpooledDelta sealed;
  sealed.site_id = config_.site_id;
  sealed.epoch = config_.first_epoch + epochs_sealed_.load();
  sealed.updates = current_updates_;
  const std::uint64_t seal_start_ns = obs::steady_now_ns();
  sealed.blob =
      serialize_sketch(std::exchange(current_, DistinctCountSketch(config_.params)));
  // Origin stamps: the wall clock rides the wire (v3) so the collector can
  // subtract across processes; the steady stamp is for agent-local spans.
  sealed.seal_unix_ns = obs::unix_now_ns();
  sealed.seal_steady_ns = obs::steady_now_ns();
  current_updates_ = 0;
  if (obs::recording())
    obs::TraceMetrics::get()
        .stage(obs::TraceStage::kSealed)
        .observe(sealed.seal_steady_ns - seal_start_ns);
  shipper_.with_spool([&](Shipper::Spool& spool) {
    if (spool.size() >= config_.spool_epochs) {
      // Collector unreachable for too long: shed the *oldest* epoch — the
      // newest data matters most for detection — and account the loss.
      spool.pop_front();
      ++epochs_dropped_;
      if (obs::recording()) obs::AgentMetrics::get().epochs_dropped.inc();
    }
    sealed.spool_unix_ns = obs::unix_now_ns();
    if (obs::recording())
      obs::TraceMetrics::get().observe_span(obs::TraceStage::kSpooled,
                                            sealed.seal_unix_ns,
                                            sealed.spool_unix_ns);
    spool.push_back(std::move(sealed));
    ++epochs_sealed_;
    if (obs::recording()) obs::AgentMetrics::get().epochs_sealed.inc();
  });
}

bool SiteAgent::flush(int timeout_ms) {
  seal_epoch();
  return shipper_.flush(timeout_ms);
}

SiteAgent::Stats SiteAgent::stats() const {
  const Shipper::Stats shipped = shipper_.stats();
  Stats stats;
  stats.epochs_sealed = epochs_sealed_.load();
  stats.epochs_shipped =
      shipped.acked + shipped.duplicates + shipped.resume_skips;
  stats.epochs_dropped = epochs_dropped_.load();
  stats.resume_skips = shipped.resume_skips;
  stats.nacks = shipped.nacks;
  stats.reconnects = shipped.reconnects;
  stats.io_errors = shipped.io_errors;
  stats.rehomes = shipped.rehomes;
  stats.map_version = map_version_.load();
  stats.spool_depth = shipped.spool_depth;
  stats.current_epoch = config_.first_epoch + stats.epochs_sealed;
  stats.connected = shipped.connected;
  stats.rejected = shipped.rejected;
  return stats;
}

}  // namespace dcs::service
