#include "service/federation/leaf.hpp"

#include <stdexcept>
#include <utility>

#include "obs/instruments.hpp"
#include "obs/metrics.hpp"

namespace dcs::service {

namespace {

ShipperConfig uplink_shipper_config(const LeafUplinkConfig& config) {
  obs::FederationMetrics& metrics = obs::FederationMetrics::get();
  ShipperConfig ship;
  ship.role = PeerRole::kLeaf;
  ship.peer_id = config.leaf_id;
  ship.params_fingerprint = config.params.fingerprint();
  ship.host = config.root_host;
  ship.port = config.root_port;
  // Distinct jitter stream per leaf so a fleet of leaves reconnecting to a
  // restarted root spreads out.
  ship.jitter_seed = 0x1eafULL ^ config.leaf_id;
  // role = kLeaf: no resume pruning — everything spooled is re-shipped and
  // the root's per-site dedup answers kDuplicate for what it already
  // merged. No adopt_map: a root owns no shards, so kWrongShard from it is
  // a wire error.
  ship.metrics = {.shipped = &metrics.uplink_acked,
                  .nacks = &metrics.uplink_nacks,
                  .reconnects = &metrics.uplink_reconnects,
                  .spool_depth = &metrics.uplink_spool_depth};
  return ship;
}

CollectorConfig wire_leaf_collector(CollectorConfig config,
                                    LeafUplink& uplink) {
  // The tap and the gate are the two hooks that make a Collector a leaf:
  // every accepted delta is relayed, and the journal outlives the relays.
  // The live delta's seal stamps ride along so the root measures
  // freshness from the origin seal; a journal replay's are zero.
  config.delta_tap = [&uplink](const SnapshotDelta& delta, bool replay) {
    return uplink.offer({.site_id = delta.site_id,
                         .epoch = delta.epoch,
                         .updates = delta.updates,
                         .seal_unix_ns = delta.seal_unix_ns,
                         .seal_steady_ns = delta.seal_steady_ns,
                         .spool_unix_ns = delta.spool_unix_ns,
                         .blob = delta.sketch_blob},
                        /*force=*/replay);
  };
  config.checkpoint_gate = [&uplink] { return uplink.drained(); };
  return config;
}

LeafUplinkConfig uplink_config_of(const LeafCollectorConfig& config) {
  LeafUplinkConfig uplink;
  uplink.leaf_id = config.collector.leaf_id;
  uplink.root_host = config.root_host;
  uplink.root_port = config.root_port;
  uplink.params = config.collector.params;
  uplink.spool_deltas = config.uplink_spool;
  return uplink;
}


}  // namespace

LeafUplink::LeafUplink(LeafUplinkConfig config)
    : config_(std::move(config)), shipper_(uplink_shipper_config(config_)) {
  if (config_.leaf_id == 0)
    throw std::invalid_argument("LeafUplink: leaf_id must be non-zero");
  if (config_.spool_deltas == 0)
    throw std::invalid_argument("LeafUplink: spool_deltas must be > 0");
}

bool LeafUplink::offer(SpooledDelta delta, bool force) {
  bool accepted = false;
  shipper_.with_spool([&](Shipper::Spool& spool) {
    if (!force && spool.size() >= config_.spool_deltas) {
      // Backpressure, not loss: the collector NACKs the agent kRetryLater
      // and the delta stays in the agent's spool.
      ++shed_offers_;
      return;
    }
    spool.push_back(std::move(delta));
    ++relayed_;
    accepted = true;
    if (obs::recording()) obs::FederationMetrics::get().uplink_relayed.inc();
  });
  return accepted;
}

LeafUplink::Stats LeafUplink::stats() const {
  const Shipper::Stats shipped = shipper_.stats();
  Stats stats;
  stats.relayed = relayed_.load();
  stats.root_acks = shipped.acked;
  stats.root_duplicates = shipped.duplicates;
  stats.nacks = shipped.nacks;
  stats.shed_offers = shed_offers_.load();
  stats.reconnects = shipped.reconnects;
  stats.io_errors = shipped.io_errors;
  stats.spool_depth = shipped.spool_depth;
  stats.connected = shipped.connected;
  stats.rejected = shipped.rejected;
  return stats;
}

LeafCollector::LeafCollector(LeafCollectorConfig config)
    : uplink_(uplink_config_of(config)),
      collector_(wire_leaf_collector(std::move(config.collector), uplink_)) {}

void LeafCollector::start() {
  // Uplink first: crash recovery in the collector's ctor may already have
  // re-offered journal records, and they should start draining before the
  // listener admits new load.
  uplink_.start();
  collector_.start();
}

void LeafCollector::stop(int drain_timeout_ms) {
  collector_.stop();
  uplink_.stop(drain_timeout_ms);
  // With the uplink drained the checkpoint gate opens: fold the journal
  // into a final checkpoint so the next start replays nothing.
  if (uplink_.drained()) collector_.checkpoint_now();
}

}  // namespace dcs::service
