// Leaf uplink tests: the relay role of the one acked-spool Shipper, driven
// directly against a real root Collector. The federation tests cover the
// relay end to end; these pin the uplink's own answers to a root NACK, a
// connection cut before the ack, a rejected Hello, and the seal stamps it
// carries from the origin agent to the root's traces.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <optional>
#include <sstream>
#include <string>
#include <thread>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "service/agent.hpp"
#include "service/collector.hpp"
#include "service/federation/leaf.hpp"
#include "service/socket.hpp"
#include "service/wire.hpp"
#include "sketch/distinct_count_sketch.hpp"

namespace {

using namespace dcs;
using namespace dcs::service;

constexpr std::uint64_t kLeafId = 1001;
constexpr std::uint64_t kSite = 7;

DcsParams small_params() {
  DcsParams params;
  params.num_tables = 3;
  params.buckets_per_table = 64;
  params.seed = 17;
  return params;
}

CollectorConfig root_config() {
  CollectorConfig config;
  config.params = small_params();
  config.federation_root = true;
  config.run_detection = false;
  config.io_timeout_ms = 50;
  return config;
}

LeafUplinkConfig uplink_config(std::uint16_t root_port) {
  LeafUplinkConfig config;
  config.leaf_id = kLeafId;
  config.root_port = root_port;
  config.params = small_params();
  return config;
}

/// One epoch's delta of site kSite; `reference` accumulates the same update.
std::string epoch_blob(std::uint64_t epoch, DistinctCountSketch& reference) {
  DistinctCountSketch sketch(small_params());
  sketch.update(static_cast<Addr>(kSite), static_cast<Addr>(epoch * 7919), +1);
  reference.update(static_cast<Addr>(kSite), static_cast<Addr>(epoch * 7919),
                   +1);
  std::ostringstream out(std::ios::binary);
  BinaryWriter writer(out);
  sketch.serialize(writer);
  return std::move(out).str();
}

std::string serialize_sketch(const DistinctCountSketch& sketch) {
  std::ostringstream out(std::ios::binary);
  BinaryWriter writer(out);
  sketch.serialize(writer);
  return std::move(out).str();
}

/// A lock-step relay between one uplink and the root. The first connection
/// that carries a delta is cut after the root answered it, so the root has
/// merged the delta but its ack never reaches the uplink. Later connections
/// pass through untouched.
class CuttingProxy {
 public:
  explicit CuttingProxy(std::uint16_t root_port)
      : root_port_(root_port),
        listener_(*TcpListener::listen("127.0.0.1", 0)),
        thread_([this] { run(); }) {}
  ~CuttingProxy() {
    stop_.store(true);
    thread_.join();
  }

  std::uint16_t port() const noexcept { return listener_.port(); }
  bool cut() const noexcept { return cut_.load(); }

 private:
  void run() {
    while (!stop_.load()) {
      auto client = listener_.accept(20);
      if (!client) continue;
      auto root = tcp_connect("127.0.0.1", root_port_, 1000);
      if (!root) continue;
      client->set_timeouts(20, 1000);
      root->set_timeouts(5000, 5000);
      FrameDecoder from_client;
      FrameDecoder from_root;
      for (;;) {
        const auto frame = read_frame(*client, from_client);
        if (!frame) break;
        root->send_all(
            encode_frame(frame->type, frame->payload, frame->version));
        if (frame->type == MsgType::kBye) continue;
        const auto ack = read_frame(*root, from_root);
        if (!ack) break;
        if (frame->type == MsgType::kSnapshotDelta && !cut_.exchange(true))
          break;  // both sockets close here, the ack unsent
        client->send_all(encode_frame(ack->type, ack->payload, ack->version));
      }
    }
  }

  std::optional<Frame> read_frame(TcpSocket& socket, FrameDecoder& decoder) {
    char buffer[4096];
    for (;;) {
      if (auto frame = decoder.next()) return frame;
      const RecvResult got = socket.recv_some(buffer, sizeof buffer);
      if (got.closed || got.error || stop_.load()) return std::nullopt;
      if (got.bytes > 0) decoder.feed(buffer, got.bytes);
    }
  }

  std::uint16_t root_port_;
  TcpListener listener_;
  std::atomic<bool> stop_{false};
  std::atomic<bool> cut_{false};
  std::thread thread_;
};

TEST(FederationUplink, RootRetryLaterKeepsTheRelaySpooledAndMergesItOnce) {
  CollectorConfig config = root_config();
  config.admission.site_rate_per_sec = 5.0;  // ~one admit per 200 ms
  config.admission.site_burst = 1.0;
  config.admission.min_retry_after_ms = 10;
  config.admission.max_retry_after_ms = 300;
  Collector root(config);
  root.start();

  LeafUplink uplink(uplink_config(root.port()));
  DistinctCountSketch reference(small_params());
  for (std::uint64_t epoch = 1; epoch <= 3; ++epoch)
    ASSERT_TRUE(uplink.offer(kSite, epoch, 1, epoch_blob(epoch, reference),
                             /*force=*/false));
  uplink.start();
  EXPECT_TRUE(uplink.flush(10000));
  uplink.stop();

  // Every NACK kept its relay at the head of the spool: the root shed it,
  // then merged it once when it came back.
  const auto stats = uplink.stats();
  const auto root_stats = root.stats();
  EXPECT_GT(stats.nacks, 0u);
  EXPECT_EQ(stats.nacks, root_stats.shed_deltas);
  EXPECT_EQ(stats.root_acks, 3u);
  EXPECT_EQ(stats.root_duplicates, 0u);
  EXPECT_EQ(stats.spool_depth, 0u);
  EXPECT_EQ(root_stats.deltas_merged, 3u);
  EXPECT_EQ(root_stats.relayed_deltas, 3u);
  EXPECT_EQ(root_stats.duplicate_deltas, 0u);
  EXPECT_EQ(root_stats.dropped_epochs, 0u);
  root.stop();
  EXPECT_EQ(serialize_sketch(root.merged_sketch()),
            serialize_sketch(reference));
}

TEST(FederationUplink, CutBeforeTheAckReshipsAndTheRootCountsADuplicate) {
  Collector root(root_config());
  root.start();
  CuttingProxy proxy(root.port());

  LeafUplink uplink(uplink_config(proxy.port()));
  DistinctCountSketch reference(small_params());
  ASSERT_TRUE(uplink.offer(kSite, 1, 1, epoch_blob(1, reference),
                           /*force=*/false));
  uplink.start();
  EXPECT_TRUE(uplink.flush(10000));
  uplink.stop();

  EXPECT_TRUE(proxy.cut());
  const auto stats = uplink.stats();
  EXPECT_GE(stats.io_errors, 1u);
  EXPECT_GE(stats.reconnects, 1u);
  EXPECT_EQ(stats.root_acks, 0u);
  EXPECT_EQ(stats.root_duplicates, 1u);
  const auto root_stats = root.stats();
  EXPECT_EQ(root_stats.deltas_merged, 1u);
  EXPECT_EQ(root_stats.duplicate_deltas, 1u);
  root.stop();
  EXPECT_EQ(serialize_sketch(root.merged_sketch()),
            serialize_sketch(reference));
}

TEST(FederationUplink, ParamsMismatchIsRejectedAndFlushReturnsPromptly) {
  Collector root(root_config());
  root.start();

  LeafUplinkConfig config = uplink_config(root.port());
  config.params.seed = 18;  // different fingerprint
  LeafUplink uplink(config);
  DistinctCountSketch ignored(config.params);
  ASSERT_TRUE(uplink.offer(kSite, 1, 1, epoch_blob(1, ignored),
                           /*force=*/false));
  uplink.start();
  const auto started = std::chrono::steady_clock::now();
  EXPECT_FALSE(uplink.flush(10000));
  EXPECT_LT(std::chrono::steady_clock::now() - started,
            std::chrono::seconds(2));

  const auto stats = uplink.stats();
  EXPECT_TRUE(stats.rejected);
  EXPECT_EQ(stats.spool_depth, 1u);  // rejected, never lost
  uplink.stop();
  EXPECT_EQ(root.stats().deltas_merged, 0u);
  root.stop();
}

TEST(FederationUplink, RelayedLiveDeltaReachesTheRootTracesWithItsSealStamp) {
  obs::set_enabled(true);
  Collector root(root_config());
  root.start();

  LeafCollectorConfig leaf_config;
  leaf_config.collector.params = small_params();
  leaf_config.collector.leaf_id = kLeafId;
  leaf_config.collector.run_detection = false;
  leaf_config.collector.io_timeout_ms = 50;
  leaf_config.root_port = root.port();
  LeafCollector leaf(leaf_config);
  leaf.start();

  SiteAgentConfig agent_config;
  agent_config.site_id = kSite;
  agent_config.collector_port = leaf.collector().port();
  agent_config.params = small_params();
  agent_config.epoch_updates = 100;
  SiteAgent agent(agent_config);
  agent.start();
  for (std::uint32_t i = 0; i < 200; ++i)
    agent.ingest(static_cast<Addr>(i % 5), static_cast<Addr>(1000 + i), +1);
  EXPECT_TRUE(agent.flush(10000));
  agent.stop();
  EXPECT_TRUE(leaf.uplink().flush(10000));

  const auto traces = root.traces();
  ASSERT_EQ(traces.size(), 2u);
  for (const auto& trace : traces) {
    EXPECT_EQ(trace.site_id, kSite);
    EXPECT_GT(trace.stamp(obs::TraceStage::kSealed), 0u)
        << "epoch " << trace.epoch;
    EXPECT_GE(trace.stamp(obs::TraceStage::kSpooled),
              trace.stamp(obs::TraceStage::kSealed));
    EXPECT_GT(trace.freshness_ns, 0u) << "epoch " << trace.epoch;
  }
  leaf.stop();
  root.stop();
}

}  // namespace
