// Shipper: the one acked-spool client of the sketch-shipping protocol.
//
// SiteAgent (a site's sealed epochs) and LeafUplink (a leaf's relays to the
// root) both own one. A background sender thread connects, says Hello, and
// ships the head of a FIFO spool of deltas. A delta leaves the spool only on
// the peer's kOk/kDuplicate ack, so a connection drop mid-flight retransmits
// and the collector's per-(site, epoch) dedup makes the retransmit harmless.
// Idle connections send Heartbeats, which a v3+ collector acks — a free RTT
// probe. A kRetryLater NACK keeps the head spooled and waits out the
// collector's retry_after hint, clamped to [1 ms, backoff_max_ms]. Lost
// connections reconnect under exponential backoff with a fixed ±20% jitter
// so a fleet of senders does not reconnect in lockstep.
//
// The owner fills the spool through with_spool() and chooses its own
// overflow policy there. Everything else that differs between a site and a
// leaf uplink is a ShipperConfig field: the Hello identity and fields, the
// connection target, the kWrongShard answer, the obs instruments bumped and
// whether the ship is traced. Only a site prunes its spool by the Hello
// ack's resume watermark; on a leaf uplink that watermark is the leaf id's,
// not any origin site's.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <string>
#include <thread>

#include "common/random.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "service/wire.hpp"

namespace dcs::service {

/// One epoch delta awaiting its ack. The stamps are the origin agent's
/// (wire v3): a leaf forwards them with the relay; a journal replay has
/// none and ships zeros, which a collector reads as "unknown".
struct SpooledDelta {
  std::uint64_t site_id = 0;  ///< Origin site.
  std::uint64_t epoch = 0;
  std::uint64_t updates = 0;
  std::uint64_t seal_unix_ns = 0;    ///< Epoch sealed (serialize complete).
  std::uint64_t seal_steady_ns = 0;  ///< Origin agent's steady clock at seal.
  std::uint64_t spool_unix_ns = 0;   ///< Enqueued on the origin's spool.
  std::string blob;                  ///< Serialized sketch delta.
};

/// The owner's obs instruments. A null instrument is not bumped.
struct ShipperMetrics {
  obs::Counter* shipped = nullptr;  ///< Acked, or pruned by the watermark.
  obs::Counter* resume_skips = nullptr;
  obs::Counter* nacks = nullptr;
  obs::Counter* reconnects = nullptr;
  obs::Counter* io_errors = nullptr;
  obs::Counter* rehomes = nullptr;
  obs::Gauge* spool_depth = nullptr;
  obs::Histogram* heartbeat_rtt_ns = nullptr;
};

struct ShipperConfig {
  /// Hello identity: a site (its site id) or a leaf uplink (its leaf id).
  PeerRole role = PeerRole::kSite;
  std::uint64_t peer_id = 0;
  std::uint64_t params_fingerprint = 0;
  /// Collector endpoint, unless `route` redirects a connection.
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
  std::uint64_t backoff_initial_ms = 50;
  std::uint64_t backoff_max_ms = 2000;
  /// Send a Heartbeat after this long with nothing to ship.
  std::uint64_t heartbeat_interval_ms = 500;
  int io_timeout_ms = 2000;
  std::uint64_t jitter_seed = 0;
  /// Set by the origin of the deltas (the agent): observe the kShipped span
  /// and push one trace per acked delta here. A relay leaves it null.
  obs::TraceRing* traces = nullptr;
  ShipperMetrics metrics;

  /// May redirect the next connection away from host:port, given the
  /// consecutive failed connects since the last answered Hello.
  std::function<void(std::uint32_t failed_connects, std::string& host,
                     std::uint16_t& port)>
      route;
  /// Fill the owner's Hello fields; called under the spool lock.
  std::function<void(Hello&, const std::deque<SpooledDelta>&)> hello;
  /// Fill the owner's Heartbeat fields.
  std::function<void(Heartbeat&)> heartbeat;
  /// Sees every accepted Hello ack and every kWrongShard ack; either may
  /// carry a newer shard map. When set, kWrongShard re-homes: reconnect at
  /// once with the spool intact. When unset, kWrongShard is a wire error.
  std::function<void(const Ack&)> adopt_map;
};

class Shipper {
 public:
  using Spool = std::deque<SpooledDelta>;

  struct Stats {
    std::uint64_t acked = 0;         ///< kOk acks.
    std::uint64_t duplicates = 0;    ///< kDuplicate acks.
    std::uint64_t resume_skips = 0;  ///< Pruned by the resume watermark.
    std::uint64_t nacks = 0;         ///< kRetryLater acks.
    std::uint64_t reconnects = 0;    ///< Connection attempts after the 1st.
    std::uint64_t io_errors = 0;
    std::uint64_t rehomes = 0;       ///< kWrongShard redirects followed.
    std::size_t spool_depth = 0;
    bool connected = false;
    /// The peer rejected our Hello (parameter mismatch) — permanent.
    bool rejected = false;
  };

  explicit Shipper(ShipperConfig config);
  /// Abrupt: no Bye, no drain — the peer sees a vanished connection.
  ~Shipper();

  Shipper(const Shipper&) = delete;
  Shipper& operator=(const Shipper&) = delete;

  /// Start the sender thread. Idempotent until stop().
  void start();
  /// Graceful: drain the spool within `drain_timeout_ms`, send Bye if
  /// connected, join the sender.
  void stop(int drain_timeout_ms);
  /// Block until the spool drains (every delta acked) or timeout. Returns
  /// false at once when the sender is rejected or not running.
  bool flush(int timeout_ms);
  /// True when nothing is spooled awaiting an ack.
  bool drained() const;
  bool running() const noexcept {
    return running_.load(std::memory_order_acquire);
  }

  /// The owner's enqueue side: run `edit(spool)` under the spool lock, then
  /// republish the spool depth and wake the sender.
  template <class Edit>
  void with_spool(Edit&& edit) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      edit(spool_);
      publish_depth_locked();
    }
    cv_.notify_all();
  }

  Stats stats() const;

 private:
  void sender_loop();
  /// One connection lifetime: connect, Hello, ship/heartbeat until error or
  /// shutdown. Returns false if the peer rejected us (permanent).
  bool run_connection();
  std::uint64_t next_backoff_ms();
  void publish_depth_locked();
  /// Count a lost connection (transient: retry with backoff).
  bool io_error();

  ShipperConfig config_;

  std::thread sender_;
  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};  ///< Graceful stop requested.

  mutable std::mutex mutex_;  ///< Guards spool_ and stats_.
  std::condition_variable cv_;
  Spool spool_;
  Stats stats_;

  // Sender-thread state.
  Xoshiro256 jitter_;
  std::uint64_t backoff_ms_ = 0;
  std::uint32_t failed_connects_ = 0;
};

}  // namespace dcs::service
