#include "service/shipper.hpp"

#include <algorithm>
#include <chrono>
#include <optional>
#include <utility>

#include "service/socket.hpp"

namespace dcs::service {

namespace {

/// Uniform jitter fraction applied to each reconnect delay.
constexpr double kBackoffJitter = 0.2;

void bump(obs::Counter* counter) {
  if (counter) counter->inc();
}

}  // namespace

Shipper::Shipper(ShipperConfig config)
    : config_(std::move(config)), jitter_(config_.jitter_seed) {}

Shipper::~Shipper() {
  running_.store(false, std::memory_order_release);
  cv_.notify_all();
  if (sender_.joinable()) sender_.join();
}

void Shipper::start() {
  if (running_.load(std::memory_order_acquire)) return;
  running_.store(true, std::memory_order_release);
  stopping_.store(false, std::memory_order_release);
  sender_ = std::thread([this] { sender_loop(); });
}

void Shipper::stop(int drain_timeout_ms) {
  if (!running_.load(std::memory_order_acquire)) return;
  flush(drain_timeout_ms);
  stopping_.store(true, std::memory_order_release);
  cv_.notify_all();
  // Give the sender a moment to send Bye, then cut it off.
  {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait_for(lock, std::chrono::milliseconds(drain_timeout_ms),
                 [&] { return !running_.load(std::memory_order_acquire); });
  }
  running_.store(false, std::memory_order_release);
  cv_.notify_all();
  if (sender_.joinable()) sender_.join();
}

bool Shipper::flush(int timeout_ms) {
  std::unique_lock<std::mutex> lock(mutex_);
  return cv_.wait_for(lock, std::chrono::milliseconds(timeout_ms), [&] {
    return spool_.empty() || stats_.rejected ||
           !running_.load(std::memory_order_acquire);
  }) && spool_.empty();
}

bool Shipper::drained() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spool_.empty();
}

Shipper::Stats Shipper::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

void Shipper::publish_depth_locked() {
  stats_.spool_depth = spool_.size();
  if (config_.metrics.spool_depth)
    config_.metrics.spool_depth->set(static_cast<std::int64_t>(spool_.size()));
}

bool Shipper::io_error() {
  std::lock_guard<std::mutex> lock(mutex_);
  ++stats_.io_errors;
  stats_.connected = false;
  bump(config_.metrics.io_errors);
  return true;
}

std::uint64_t Shipper::next_backoff_ms() {
  backoff_ms_ = backoff_ms_ == 0
                    ? config_.backoff_initial_ms
                    : std::min(backoff_ms_ * 2, config_.backoff_max_ms);
  // Symmetric jitter: delay * (1 ± kBackoffJitter), so a fleet spreads its
  // reconnect attempts instead of stampeding in sync.
  const double spread = 1.0 + kBackoffJitter * (2.0 * jitter_.uniform() - 1.0);
  return static_cast<std::uint64_t>(static_cast<double>(backoff_ms_) * spread);
}

void Shipper::sender_loop() {
  bool first_attempt = true;
  while (running_.load(std::memory_order_acquire)) {
    if (!first_attempt) {
      {
        std::lock_guard<std::mutex> lock(mutex_);
        ++stats_.reconnects;
      }
      bump(config_.metrics.reconnects);
      const auto delay = std::chrono::milliseconds(next_backoff_ms());
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait_for(lock, delay,
                   [&] { return !running_.load(std::memory_order_acquire); });
      if (!running_.load(std::memory_order_acquire)) break;
    }
    first_attempt = false;
    if (!run_connection()) {
      // Parameter mismatch: retrying can never succeed.
      std::lock_guard<std::mutex> lock(mutex_);
      stats_.rejected = true;
      cv_.notify_all();
      break;
    }
    if (stopping_.load(std::memory_order_acquire)) break;
  }
  running_.store(false, std::memory_order_release);
  cv_.notify_all();
}

bool Shipper::run_connection() {
  std::string host = config_.host;
  std::uint16_t port = config_.port;
  if (config_.route) config_.route(failed_connects_, host, port);
  auto socket = tcp_connect(host, port, config_.io_timeout_ms);
  if (!socket) {
    ++failed_connects_;  // the route may fall back after enough of these
    return true;         // unreachable — back off and retry
  }
  socket->set_timeouts(static_cast<std::uint64_t>(config_.io_timeout_ms),
                       static_cast<std::uint64_t>(config_.io_timeout_ms));

  FrameDecoder decoder;
  char buffer[16 * 1024];

  // The version the peer frames its replies at; learned from the Hello ack
  // and used to downgrade our own encoding for a v2 collector (no delta
  // timestamps, no heartbeat acks to wait for).
  std::uint8_t peer_version = kWireVersion;

  /// Block until one Ack arrives (or timeout/error). nullopt = connection
  /// is dead.
  const auto await_ack = [&]() -> std::optional<Ack> {
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(config_.io_timeout_ms);
    for (;;) {
      if (auto frame = decoder.next()) {
        if (frame->type != MsgType::kAck)
          throw WireError("shipper: expected Ack");
        peer_version = frame->version;
        return Ack::decode(frame->payload, frame->version);
      }
      if (!running_.load(std::memory_order_acquire) ||
          std::chrono::steady_clock::now() >= deadline)
        return std::nullopt;
      const RecvResult got = socket->recv_some(buffer, sizeof buffer);
      if (got.closed || got.error) return std::nullopt;
      if (got.bytes > 0) decoder.feed(buffer, got.bytes);
    }
  };

  /// kWrongShard: the peer does not own our shard. Its ack carries the
  /// authoritative map: adopt it, drop this connection, and go straight to
  /// the right leaf. The spool rides along untouched.
  const auto rehome = [&](const Ack& ack) {
    if (!config_.adopt_map) throw WireError("shipper: unexpected kWrongShard");
    config_.adopt_map(ack);
    failed_connects_ = 0;
    backoff_ms_ = 0;  // re-home fast — this is redirection, not failure
    {
      std::lock_guard<std::mutex> lock(mutex_);
      ++stats_.rehomes;
      stats_.connected = false;
    }
    bump(config_.metrics.rehomes);
    return true;
  };

  try {
    Hello hello;
    hello.site_id = config_.peer_id;
    hello.role = config_.role;
    hello.params_fingerprint = config_.params_fingerprint;
    if (config_.hello) {
      std::lock_guard<std::mutex> lock(mutex_);
      config_.hello(hello, spool_);
    }
    if (!socket->send_all(encode_frame(MsgType::kHello, hello.encode())))
      return io_error();
    const auto hello_ack = await_ack();
    if (!hello_ack) return io_error();
    if (hello_ack->status == AckStatus::kRejected) return false;
    if (hello_ack->status == AckStatus::kWrongShard) return rehome(*hello_ack);
    failed_connects_ = 0;
    // A v4 leaf piggybacks the current map on the Hello ack when ours is
    // stale; a moved shard re-homes us on the next reconnect.
    if (config_.adopt_map) config_.adopt_map(*hello_ack);

    {
      std::lock_guard<std::mutex> lock(mutex_);
      stats_.connected = true;
      // The Hello ack carries the collector's resume watermark: everything
      // at or below it is already durably merged (the collector restarted
      // from its checkpoint after our ack was lost with the connection).
      // Prune instead of re-shipping — the bytes would only come back
      // kDuplicate. Sites only: a leaf uplink's watermark is its own id's.
      while (config_.role == PeerRole::kSite && !spool_.empty() &&
             spool_.front().epoch <= hello_ack->epoch) {
        spool_.pop_front();
        ++stats_.resume_skips;
        bump(config_.metrics.shipped);
        bump(config_.metrics.resume_skips);
      }
      publish_depth_locked();
    }
    cv_.notify_all();
    backoff_ms_ = 0;  // healthy connection resets the backoff schedule

    while (running_.load(std::memory_order_acquire)) {
      // Copy (don't pop) the oldest spooled delta: it stays queued until
      // the peer acks it, so a drop mid-flight retransmits.
      SnapshotDelta delta;
      {
        std::unique_lock<std::mutex> lock(mutex_);
        if (spool_.empty()) {
          if (stopping_.load(std::memory_order_acquire)) break;
          const bool woke = cv_.wait_for(
              lock, std::chrono::milliseconds(config_.heartbeat_interval_ms),
              [&] {
                return !spool_.empty() ||
                       !running_.load(std::memory_order_acquire) ||
                       stopping_.load(std::memory_order_acquire);
              });
          if (!woke) {
            lock.unlock();
            Heartbeat beat;
            beat.site_id = config_.peer_id;
            if (config_.heartbeat) config_.heartbeat(beat);
            const std::uint64_t sent_ns = obs::steady_now_ns();
            if (!socket->send_all(
                    encode_frame(MsgType::kHeartbeat, beat.encode())))
              return io_error();
            if (peer_version >= 3) {
              // A v3 collector acks heartbeats (epoch 0), turning frames
              // we already exchange into a free network-RTT probe.
              const auto beat_ack = await_ack();
              if (!beat_ack) return io_error();
              if (beat_ack->epoch != 0)
                throw WireError("shipper: heartbeat ack carries an epoch");
              if (config_.metrics.heartbeat_rtt_ns)
                config_.metrics.heartbeat_rtt_ns->observe(
                    obs::steady_now_ns() - sent_ns);
            }
          }
          continue;
        }
        const SpooledDelta& head = spool_.front();
        delta.site_id = head.site_id;  // origin site (a relay's is not ours)
        delta.epoch = head.epoch;
        delta.updates = head.updates;
        delta.seal_unix_ns = head.seal_unix_ns;
        delta.seal_steady_ns = head.seal_steady_ns;
        delta.spool_unix_ns = head.spool_unix_ns;
        delta.sketch_blob = head.blob;
      }
      delta.ship_unix_ns = obs::unix_now_ns();  // fresh per send attempt
      // Speak the collector's dialect: a v2 peer gets a v2 payload (no
      // timestamps) in a v2 frame.
      const std::uint8_t wire_version =
          peer_version < kWireVersion ? peer_version : kWireVersion;
      if (config_.traces && obs::recording())
        obs::TraceMetrics::get().observe_span(obs::TraceStage::kShipped,
                                              delta.spool_unix_ns,
                                              delta.ship_unix_ns);
      if (!socket->send_all(encode_frame(MsgType::kSnapshotDelta,
                                         delta.encode(wire_version),
                                         wire_version)))
        return io_error();
      const auto ack = await_ack();
      if (!ack) return io_error();
      if (ack->status == AckStatus::kRejected) return false;
      if (ack->epoch != delta.epoch)
        throw WireError("shipper: ack for unexpected epoch");
      // A reshard moved our shard away mid-connection: the delta stays
      // spooled and the new owner gets it after the re-home.
      if (ack->status == AckStatus::kWrongShard) return rehome(*ack);
      if (ack->status == AckStatus::kRetryLater) {
        // The collector shed this delta under overload. Honor the
        // retry_after contract: keep it at the head of the spool (nothing
        // is lost) and wait before re-shipping. The hint is clamped so a
        // byzantine collector can neither make us spin (floor 1 ms) nor
        // wedge us forever (ceiling backoff_max_ms), and the wait wakes
        // immediately on stop().
        {
          std::lock_guard<std::mutex> lock(mutex_);
          ++stats_.nacks;
        }
        bump(config_.metrics.nacks);
        const std::uint64_t wait_ms = std::min<std::uint64_t>(
            std::max<std::uint32_t>(ack->retry_after_ms, 1),
            config_.backoff_max_ms);
        std::unique_lock<std::mutex> lock(mutex_);
        cv_.wait_for(lock, std::chrono::milliseconds(wait_ms),
                     [&] { return !running_.load(std::memory_order_acquire); });
        continue;
      }
      if (config_.traces && obs::recording()) {
        obs::EpochTrace trace;
        trace.site_id = delta.site_id;
        trace.epoch = delta.epoch;
        trace.updates = delta.updates;
        trace.bytes = delta.sketch_blob.size();
        trace.stamp(obs::TraceStage::kSealed) = delta.seal_unix_ns;
        trace.stamp(obs::TraceStage::kSpooled) = delta.spool_unix_ns;
        trace.stamp(obs::TraceStage::kShipped) = delta.ship_unix_ns;
        config_.traces->push(trace);
      }
      {
        std::lock_guard<std::mutex> lock(mutex_);
        if (!spool_.empty() && spool_.front().epoch == delta.epoch &&
            spool_.front().site_id == delta.site_id)
          spool_.pop_front();
        if (ack->status == AckStatus::kDuplicate)
          ++stats_.duplicates;
        else
          ++stats_.acked;
        bump(config_.metrics.shipped);
        publish_depth_locked();
      }
      cv_.notify_all();
    }

    if (stopping_.load(std::memory_order_acquire)) {
      Bye bye;
      bye.site_id = config_.peer_id;
      socket->send_all(encode_frame(MsgType::kBye, bye.encode()));
    }
    std::lock_guard<std::mutex> lock(mutex_);
    stats_.connected = false;
    return true;
  } catch (const WireError&) {
    // Garbage from the peer: drop the connection and retry.
    return io_error();
  }
}

}  // namespace dcs::service
