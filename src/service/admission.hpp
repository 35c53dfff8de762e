// Overload admission control for the collector (src/service).
//
// The paper's premise is *real-time* detection, which means the collector
// must degrade gracefully rather than fall over when sites misbehave: a
// burst of reconnecting agents after a WAN partition, a site shipping
// oversized deltas, or a byzantine peer flooding frames. Two bounds are
// enforced here, both with honest NACKs (Ack{kRetryLater, retry_after_ms})
// instead of silent tail-drop — principled shedding in the spirit of the
// Randomized Admission Policy line of work: the sender always learns the
// fate of its delta and keeps it spooled, so shedding costs latency, never
// correctness.
//
//   1. A global in-flight budget on delta bytes admitted but not yet
//      merged+acked. This is the collector's RSS proxy for the shipping
//      path: admitted bytes are the only per-delta allocations that scale
//      with load (decoded blob + deserialized sketch), so bounding them
//      bounds shipping-path memory regardless of how many sites connect.
//   2. A per-site token bucket on delta admissions (rate deltas/sec,
//      burst capacity), so one site replaying a deep spool at line rate
//      cannot starve every other site out of the global budget.
//
// Determinism for tests: every decision takes an explicit time_point, so
// unit tests drive a synthetic clock and the chaos harness stays seeded
// and reproducible. The controller does its own locking and is safe to
// call from every reactor worker.
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <unordered_map>

namespace dcs::service {

struct AdmissionConfig {
  /// Global cap on admitted-but-unreleased delta bytes. 0 disables the
  /// byte budget (every delta admits, as pre-overload collectors did).
  std::uint64_t max_inflight_bytes = 0;
  /// Per-site sustained admission rate in deltas per second. 0 disables
  /// per-site rate limiting.
  double site_rate_per_sec = 0.0;
  /// Per-site burst capacity in deltas (token-bucket depth). A site that
  /// has been quiet may ship this many back-to-back before the sustained
  /// rate applies — sized to let a reconnecting agent drain a reasonable
  /// spool without shedding. Clamped up to 1 when rate limiting is on.
  double site_burst = 8.0;
  /// retry_after hint floor, so agents never spin on immediate retries
  /// even when the computed wait rounds to zero.
  std::uint32_t min_retry_after_ms = 10;
  /// retry_after hint ceiling; also the hint used when the global byte
  /// budget (whose drain time we cannot predict) is what shed the delta.
  std::uint32_t max_retry_after_ms = 1000;
};

/// Outcome of one admission attempt.
struct AdmissionDecision {
  bool admitted = false;
  /// When !admitted: how long the site should wait before re-shipping.
  std::uint32_t retry_after_ms = 0;
};

class AdmissionController {
 public:
  using Clock = std::chrono::steady_clock;

  explicit AdmissionController(const AdmissionConfig& config);

  /// Decide whether one delta of `bytes` from `site_id` may enter the
  /// merge path now. On admit, `bytes` is charged against the global
  /// budget and one token is consumed from the site's bucket; the caller
  /// MUST balance every admit with release() (use InflightCharge).
  AdmissionDecision try_admit(std::uint64_t site_id, std::uint64_t bytes,
                              Clock::time_point now);

  /// Return an admitted delta's bytes to the global budget (merge done,
  /// ack sent — or the merge path threw).
  void release(std::uint64_t bytes);

  /// Currently admitted, unreleased bytes (the dcs_collector_inflight
  /// gauge reads this).
  std::uint64_t inflight_bytes() const;

  /// Drop rate-limiter state for sites idle since `cutoff` so the bucket
  /// map cannot grow without bound across site churn.
  void forget_idle_sites(Clock::time_point cutoff);

  const AdmissionConfig& config() const { return config_; }

 private:
  struct Bucket {
    double tokens = 0.0;
    Clock::time_point last;
  };

  AdmissionConfig config_;
  mutable std::mutex mutex_;
  std::uint64_t inflight_bytes_ = 0;
  std::unordered_map<std::uint64_t, Bucket> buckets_;
};

/// RAII balance for try_admit: releases the charged bytes on destruction
/// unless disarmed. Exceptions on the merge path can never leak budget.
class InflightCharge {
 public:
  InflightCharge() = default;
  InflightCharge(AdmissionController* controller, std::uint64_t bytes)
      : controller_(controller), bytes_(bytes) {}
  InflightCharge(InflightCharge&& other) noexcept
      : controller_(other.controller_), bytes_(other.bytes_) {
    other.controller_ = nullptr;
  }
  InflightCharge& operator=(InflightCharge&& other) noexcept {
    if (this != &other) {
      reset();
      controller_ = other.controller_;
      bytes_ = other.bytes_;
      other.controller_ = nullptr;
    }
    return *this;
  }
  InflightCharge(const InflightCharge&) = delete;
  InflightCharge& operator=(const InflightCharge&) = delete;
  ~InflightCharge() { reset(); }

  void reset() {
    if (controller_ != nullptr) controller_->release(bytes_);
    controller_ = nullptr;
  }

 private:
  AdmissionController* controller_ = nullptr;
  std::uint64_t bytes_ = 0;
};

}  // namespace dcs::service
