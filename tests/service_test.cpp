// Loopback integration tests for the src/service sketch-shipping subsystem:
// collector + agents over real TCP on 127.0.0.1.
//
// The linearity contract under test: merging per-site, per-epoch sketch
// deltas at the collector must be *bit-identical* to ingesting the
// concatenated stream into a single sketch, regardless of how the deltas
// interleave on the wire. Plus the fault-model guarantees: agent churn
// never blocks collector queries, epoch retransmits merge exactly once,
// and malformed frames are rejected without crashing anything.
#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <map>
#include <memory>
#include <sstream>
#include <thread>
#include <utility>
#include <vector>

#include "obs/instruments.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "service/agent.hpp"
#include "service/collector.hpp"
#include "service/socket.hpp"
#include "service/wire.hpp"
#include "sketch/tracking_dcs.hpp"
#include "stream/generator.hpp"

namespace dcs::service {
namespace {

DcsParams small_params() {
  DcsParams params;
  params.num_tables = 3;
  params.buckets_per_table = 64;
  params.seed = 17;
  return params;
}

CollectorConfig collector_config() {
  CollectorConfig config;
  config.params = small_params();
  config.io_timeout_ms = 50;  // keep stop() fast in tests
  return config;
}

SiteAgentConfig agent_config(std::uint64_t site_id, std::uint16_t port) {
  SiteAgentConfig config;
  config.site_id = site_id;
  config.collector_port = port;
  config.params = small_params();
  config.epoch_updates = 500;
  config.backoff_initial_ms = 10;
  config.backoff_max_ms = 100;
  config.io_timeout_ms = 1000;
  config.jitter_seed = site_id;
  return config;
}

std::vector<FlowUpdate> zipf_updates(std::uint64_t pairs, std::uint64_t seed) {
  ZipfWorkloadConfig config;
  config.u_pairs = pairs;
  config.num_destinations = 40;
  config.skew = 1.3;
  config.seed = seed;
  return ZipfWorkload(config).updates();
}

// --- wire-level unit tests --------------------------------------------------

TEST(WireFraming, RoundTripsThroughDecoder) {
  Hello hello;
  hello.site_id = 42;
  hello.params_fingerprint = 0xabcdef;
  hello.first_epoch = 7;
  const std::string frame = encode_frame(MsgType::kHello, hello.encode());

  FrameDecoder decoder;
  decoder.feed(frame.data(), frame.size());
  const auto decoded = decoder.next();
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->type, MsgType::kHello);
  const Hello back = Hello::decode(decoded->payload);
  EXPECT_EQ(back.site_id, 42u);
  EXPECT_EQ(back.params_fingerprint, 0xabcdefu);
  EXPECT_EQ(back.first_epoch, 7u);
  EXPECT_FALSE(decoder.next().has_value());
  EXPECT_EQ(decoder.buffered(), 0u);
}

TEST(WireFraming, ReassemblesByteAtATime) {
  Ack ack;
  ack.epoch = 9;
  ack.status = AckStatus::kDuplicate;
  const std::string frame = encode_frame(MsgType::kAck, ack.encode());

  FrameDecoder decoder;
  for (std::size_t i = 0; i + 1 < frame.size(); ++i) {
    decoder.feed(frame.data() + i, 1);
    EXPECT_FALSE(decoder.next().has_value()) << "frame complete early at " << i;
  }
  decoder.feed(frame.data() + frame.size() - 1, 1);
  const auto decoded = decoder.next();
  ASSERT_TRUE(decoded.has_value());
  const Ack back = Ack::decode(decoded->payload);
  EXPECT_EQ(back.epoch, 9u);
  EXPECT_EQ(back.status, AckStatus::kDuplicate);
}

TEST(WireFraming, RejectsMalformedFrames) {
  const std::string good = encode_frame(MsgType::kHeartbeat,
                                        Heartbeat{}.encode());
  // Bad magic.
  {
    std::string bad = good;
    bad[0] ^= 0x01;
    FrameDecoder decoder;
    decoder.feed(bad.data(), bad.size());
    EXPECT_THROW(decoder.next(), WireError);
  }
  // Unsupported version.
  {
    std::string bad = good;
    bad[4] = 99;
    FrameDecoder decoder;
    decoder.feed(bad.data(), bad.size());
    EXPECT_THROW(decoder.next(), WireError);
  }
  // Unknown message type.
  {
    std::string bad = good;
    bad[5] = 0;
    FrameDecoder decoder;
    decoder.feed(bad.data(), bad.size());
    EXPECT_THROW(decoder.next(), WireError);
  }
  // Oversized length prefix (claims > kMaxPayloadBytes).
  {
    std::string bad = good;
    bad[6] = bad[7] = bad[8] = bad[9] = static_cast<char>(0xff);
    FrameDecoder decoder;
    decoder.feed(bad.data(), bad.size());
    EXPECT_THROW(decoder.next(), WireError);
  }
  // Corrupted payload byte -> CRC mismatch.
  {
    std::string bad = good;
    bad[kFrameHeaderBytes] ^= 0x40;
    FrameDecoder decoder;
    decoder.feed(bad.data(), bad.size());
    EXPECT_THROW(decoder.next(), WireError);
  }
  // Truncated frame is not an error — just incomplete.
  {
    FrameDecoder decoder;
    decoder.feed(good.data(), good.size() - 1);
    EXPECT_FALSE(decoder.next().has_value());
  }
}

TEST(WireFraming, AckRejectsUnknownStatus) {
  std::string payload = Ack{}.encode();
  payload[8] = 17;  // status byte (after the u64 epoch) out of range
  EXPECT_THROW(Ack::decode(payload), WireError);
}

TEST(WireFraming, AckRoundTripsRetryAfter) {
  Ack nack;
  nack.epoch = 41;
  nack.status = AckStatus::kRetryLater;
  nack.retry_after_ms = 750;
  const Ack back = Ack::decode(nack.encode());
  EXPECT_EQ(back.epoch, 41u);
  EXPECT_EQ(back.status, AckStatus::kRetryLater);
  EXPECT_EQ(back.retry_after_ms, 750u);
}

/// The receive-side cap boundary, tested at the decoder so no multi-MiB
/// allocations are needed: a payload of exactly the cap passes; one byte
/// over is rejected at the header, before any payload is buffered.
TEST(WireFraming, ReceiverPayloadCapBoundary) {
  const std::string at_cap(256, 'x');
  const std::string frame = encode_frame(MsgType::kHeartbeat, at_cap);

  FrameDecoder decoder;
  decoder.set_max_payload(256);
  decoder.feed(frame.data(), frame.size());
  const auto ok = decoder.next();
  ASSERT_TRUE(ok.has_value());
  EXPECT_EQ(ok->payload.size(), 256u);

  const std::string over = encode_frame(MsgType::kHeartbeat,
                                        std::string(257, 'x'));
  FrameDecoder capped;
  capped.set_max_payload(256);
  // Header alone is enough to reject: the decoder must throw without ever
  // seeing (or buffering) the announced payload.
  capped.feed(over.data(), kFrameHeaderBytes);
  try {
    capped.next();
    FAIL() << "oversized announcement accepted";
  } catch (const WireError& error) {
    EXPECT_STREQ(error.what(), "frame: oversized payload length");
  }

  // The cap clamps to the protocol-wide maximum; it can never be raised
  // above kMaxPayloadBytes.
  FrameDecoder wide;
  wide.set_max_payload(~0u);
  EXPECT_EQ(wide.max_payload(), kMaxPayloadBytes);
}

// --- loopback integration ---------------------------------------------------

/// The acceptance-criteria scenario: four agents split one stream; the
/// collector's merged sketch must equal the single-sketch reference on the
/// concatenated stream, bit for bit.
TEST(ServiceLoopback, FourSiteMergeEqualsSingleSketchReference) {
  Collector collector(collector_config());
  collector.start();

  const auto all_updates = zipf_updates(6000, 99);
  DistinctCountSketch reference(small_params());
  for (const auto& update : all_updates)
    reference.update(update.dest, update.source, update.delta);

  constexpr int kSites = 4;
  const std::size_t share = all_updates.size() / kSites;
  std::uint64_t total_epochs = 0;
  std::vector<std::thread> threads;
  for (int site = 0; site < kSites; ++site) {
    const std::size_t begin = static_cast<std::size_t>(site) * share;
    const std::size_t end = site == kSites - 1 ? all_updates.size()
                                               : begin + share;
    threads.emplace_back([&, begin, end, site] {
      SiteAgent agent(agent_config(static_cast<std::uint64_t>(site + 1),
                                   collector.port()));
      agent.start();
      for (std::size_t i = begin; i < end; ++i) agent.ingest(all_updates[i]);
      EXPECT_TRUE(agent.flush(10000));
      agent.stop();
    });
    const std::uint64_t site_updates = end - begin;
    total_epochs += (site_updates + 499) / 500;  // ceil(updates / epoch size)
  }
  for (auto& thread : threads) thread.join();

  ASSERT_TRUE(collector.wait_for_deltas(total_epochs, 10000));
  const auto stats = collector.stats();
  EXPECT_EQ(stats.deltas_merged, total_epochs);
  EXPECT_EQ(stats.frame_errors, 0u);
  EXPECT_EQ(stats.dropped_epochs, 0u);

  // Linearity: the merged sketch is bit-identical to the reference.
  EXPECT_TRUE(collector.merged_sketch() == reference);
  const TrackingDcs tracking_reference(reference);
  const auto merged_topk = collector.top_k(5);
  const auto reference_topk = tracking_reference.top_k(5);
  ASSERT_EQ(merged_topk.entries.size(), reference_topk.entries.size());
  for (std::size_t i = 0; i < merged_topk.entries.size(); ++i) {
    EXPECT_EQ(merged_topk.entries[i].group, reference_topk.entries[i].group);
    EXPECT_EQ(merged_topk.entries[i].estimate,
              reference_topk.entries[i].estimate);
  }
  collector.stop();
}

/// Killing an agent abruptly (destructor without Bye — a crash, as far as
/// the collector can tell) must not block queries or corrupt the merged
/// view, and a restarted agent resuming at a later epoch surfaces the gap
/// in the per-site drop accounting.
TEST(ServiceLoopback, AgentChurnKeepsCollectorConsistent) {
  Collector collector(collector_config());
  collector.start();

  const auto updates = zipf_updates(3000, 7);
  DistinctCountSketch expected(small_params());

  // Phase 1: agent ships 2 epochs (1000 updates), is killed abruptly.
  {
    auto agent = std::make_unique<SiteAgent>(agent_config(1, collector.port()));
    agent->start();
    for (std::size_t i = 0; i < 1000; ++i) agent->ingest(updates[i]);
    ASSERT_TRUE(agent->flush(10000));
    for (std::size_t i = 0; i < 1000; ++i)
      expected.update(updates[i].dest, updates[i].source, updates[i].delta);
    agent.reset();  // no Bye, no graceful stop
  }
  ASSERT_TRUE(collector.wait_for_deltas(2, 10000));

  // Queries keep working while the site is gone.
  EXPECT_TRUE(collector.merged_sketch() == expected);
  EXPECT_NO_THROW(collector.top_k(3));

  // Phase 2: the site restarts but lost epochs 3-4 (crashed before
  // shipping); it resumes at epoch 5.
  {
    auto config = agent_config(1, collector.port());
    config.first_epoch = 5;
    SiteAgent agent(config);
    agent.start();
    for (std::size_t i = 1000; i < 2000; ++i) agent.ingest(updates[i]);
    ASSERT_TRUE(agent.flush(10000));
    for (std::size_t i = 1000; i < 2000; ++i)
      expected.update(updates[i].dest, updates[i].source, updates[i].delta);
    agent.stop();
  }
  ASSERT_TRUE(collector.wait_for_deltas(4, 10000));

  EXPECT_TRUE(collector.merged_sketch() == expected);
  const auto sites = collector.site_stats();
  ASSERT_EQ(sites.size(), 1u);
  EXPECT_EQ(sites[0].epochs_merged, 4u);
  EXPECT_EQ(sites[0].last_epoch, 6u);
  EXPECT_EQ(sites[0].dropped_epochs, 2u);  // the gap is visible, not silent
  collector.stop();
}

/// A delta retransmitted after reconnect (at-least-once delivery) must
/// merge exactly once; the duplicate is acked as such, not re-merged.
TEST(ServiceLoopback, DuplicateDeltaMergesExactlyOnce) {
  CollectorConfig config = collector_config();
  config.run_detection = false;
  Collector collector(config);
  collector.start();

  DistinctCountSketch delta_sketch(small_params());
  delta_sketch.update(1, 2, +1);
  delta_sketch.update(1, 3, +1);
  std::ostringstream blob_out(std::ios::binary);
  BinaryWriter writer(blob_out);
  delta_sketch.serialize(writer);

  auto socket = tcp_connect("127.0.0.1", collector.port(), 1000);
  ASSERT_TRUE(socket.has_value());
  socket->set_timeouts(2000, 2000);
  FrameDecoder decoder;
  char buffer[4096];
  const auto read_ack = [&]() -> Ack {
    for (;;) {
      if (auto frame = decoder.next()) {
        EXPECT_EQ(frame->type, MsgType::kAck);
        return Ack::decode(frame->payload, frame->version);
      }
      const RecvResult got = socket->recv_some(buffer, sizeof buffer);
      if (got.bytes == 0) {
        ADD_FAILURE() << "connection lost awaiting ack";
        return Ack{};
      }
      decoder.feed(buffer, got.bytes);
    }
  };

  Hello hello;
  hello.site_id = 5;
  hello.params_fingerprint = small_params().fingerprint();
  ASSERT_TRUE(socket->send_all(encode_frame(MsgType::kHello, hello.encode())));
  EXPECT_EQ(read_ack().status, AckStatus::kOk);

  SnapshotDelta delta;
  delta.site_id = 5;
  delta.epoch = 1;
  delta.updates = 2;
  delta.sketch_blob = std::move(blob_out).str();
  const std::string frame =
      encode_frame(MsgType::kSnapshotDelta, delta.encode());
  ASSERT_TRUE(socket->send_all(frame));
  Ack first = read_ack();
  EXPECT_EQ(first.status, AckStatus::kOk);
  EXPECT_EQ(first.epoch, 1u);
  ASSERT_TRUE(socket->send_all(frame));  // identical retransmit
  Ack second = read_ack();
  EXPECT_EQ(second.status, AckStatus::kDuplicate);

  const auto stats = collector.stats();
  EXPECT_EQ(stats.deltas_merged, 1u);
  EXPECT_EQ(stats.duplicate_deltas, 1u);
  EXPECT_TRUE(collector.merged_sketch() == delta_sketch);
  collector.stop();
}

/// Malformed input — garbage bytes, bad CRC, oversized length, truncated
/// payload, corrupt sketch blob — must drop only the offending connection;
/// the collector keeps serving well-formed peers afterwards.
TEST(ServiceLoopback, MalformedFramesAreRejectedWithoutCrashing) {
  CollectorConfig config = collector_config();
  config.run_detection = false;
  Collector collector(config);
  collector.start();

  const auto send_garbage = [&](std::string bytes) {
    auto socket = tcp_connect("127.0.0.1", collector.port(), 1000);
    ASSERT_TRUE(socket.has_value());
    ASSERT_TRUE(socket->send_all(bytes));
    // Collector should close on us; wait for EOF (bounded by its timeout).
    socket->set_timeouts(3000, 3000);
    char buffer[256];
    for (int i = 0; i < 100; ++i) {
      const RecvResult got = socket->recv_some(buffer, sizeof buffer);
      if (got.closed || got.error) return;
    }
    ADD_FAILURE() << "collector never dropped the malformed connection";
  };

  send_garbage("this is not a frame at all, definitely no magic");
  {
    std::string bad = encode_frame(MsgType::kHello, Hello{}.encode());
    bad[bad.size() - 1] ^= 0x01;  // corrupt the CRC itself
    send_garbage(bad);
  }
  {
    std::string bad = encode_frame(MsgType::kHello, Hello{}.encode());
    bad[6] = bad[7] = bad[8] = bad[9] = static_cast<char>(0xff);
    send_garbage(bad);
  }
  {
    // Well-framed delta whose sketch blob is corrupt: the frame CRC is
    // valid but the blob's own footer check must reject it.
    Hello hello;
    hello.site_id = 9;
    hello.params_fingerprint = small_params().fingerprint();
    DistinctCountSketch sketch(small_params());
    sketch.update(4, 5, +1);
    std::ostringstream out(std::ios::binary);
    BinaryWriter writer(out);
    sketch.serialize(writer);
    std::string blob = std::move(out).str();
    blob[blob.size() / 2] ^= 0x20;
    SnapshotDelta delta;
    delta.site_id = 9;
    delta.epoch = 1;
    delta.sketch_blob = blob;
    send_garbage(encode_frame(MsgType::kHello, hello.encode()) +
                 encode_frame(MsgType::kSnapshotDelta, delta.encode()));
  }

  EXPECT_GE(collector.stats().frame_errors, 4u);
  EXPECT_EQ(collector.stats().deltas_merged, 0u);

  // A well-behaved agent still gets served.
  SiteAgent agent(agent_config(1, collector.port()));
  agent.start();
  for (const auto& update : zipf_updates(600, 3)) agent.ingest(update);
  EXPECT_TRUE(agent.flush(10000));
  agent.stop();
  EXPECT_GE(collector.stats().deltas_merged, 1u);
  collector.stop();
}

/// A parameter-fingerprint mismatch is rejected at Hello, before any merge.
TEST(ServiceLoopback, ParameterMismatchIsRejectedAtHello) {
  Collector collector(collector_config());
  collector.start();

  auto config = agent_config(1, collector.port());
  config.params.seed = 12345;  // different hash seeds cannot be merged
  SiteAgent agent(config);
  agent.start();
  agent.ingest(1, 2, +1);
  agent.seal_epoch();
  EXPECT_FALSE(agent.flush(3000));
  const auto stats = agent.stats();
  EXPECT_TRUE(stats.rejected);
  EXPECT_EQ(stats.epochs_shipped, 0u);
  EXPECT_EQ(collector.stats().rejected_hellos, 1u);
  EXPECT_EQ(collector.stats().deltas_merged, 0u);
  agent.stop();
  collector.stop();
}

/// With no collector reachable, the agent keeps ingesting, spools up to the
/// bound, then sheds the *oldest* epochs and accounts every drop.
TEST(ServiceAgent, SpoolOverflowDropsOldestAndCounts) {
  // Grab an ephemeral port, then close the listener: connections to it are
  // refused, so the agent can never drain.
  std::uint16_t dead_port = 0;
  {
    auto listener = TcpListener::listen("127.0.0.1", 0);
    ASSERT_TRUE(listener.has_value());
    dead_port = listener->port();
  }

  auto config = agent_config(1, dead_port);
  config.epoch_updates = 10;
  config.spool_epochs = 3;
  SiteAgent agent(config);
  agent.start();
  for (int i = 0; i < 80; ++i)
    agent.ingest(static_cast<Addr>(i % 4), static_cast<Addr>(i), +1);

  const auto stats = agent.stats();
  EXPECT_EQ(stats.epochs_sealed, 8u);
  EXPECT_EQ(stats.epochs_dropped, 5u);  // 8 sealed, spool holds 3
  EXPECT_EQ(stats.spool_depth, 3u);
  EXPECT_EQ(stats.epochs_shipped, 0u);
  agent.stop(100);
}

/// Late-starting collector: the agent retries with backoff and delivers
/// everything it still has spooled once the collector appears.
TEST(ServiceLoopback, AgentSurvivesCollectorOutage) {
  // Reserve a port for the future collector by binding and closing.
  std::uint16_t port = 0;
  {
    auto listener = TcpListener::listen("127.0.0.1", 0);
    ASSERT_TRUE(listener.has_value());
    port = listener->port();
  }

  auto config = agent_config(1, port);
  SiteAgent agent(config);
  agent.start();
  const auto updates = zipf_updates(1500, 11);
  DistinctCountSketch expected(small_params());
  for (const auto& update : updates) {
    agent.ingest(update);
    expected.update(update.dest, update.source, update.delta);
  }
  agent.seal_epoch();
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_GT(agent.stats().spool_depth, 0u);  // nothing shipped yet

  CollectorConfig collector_cfg = collector_config();
  collector_cfg.port = port;
  Collector collector(collector_cfg);
  collector.start();

  EXPECT_TRUE(agent.flush(15000));
  agent.stop();
  const auto stats = agent.stats();
  EXPECT_EQ(stats.epochs_dropped, 0u);
  EXPECT_GE(stats.reconnects, 1u);
  EXPECT_TRUE(collector.merged_sketch() == expected);
  collector.stop();
}

/// Duplicate-delivery regression across a collector restart: four sites
/// whose delta acks were lost in the crash re-ship every pre-checkpoint
/// epoch to the recovered collector. Each re-ship must be acked kDuplicate
/// without re-merging (counted by the post-recovery dedup oracle), and the
/// merged sketch must equal the reference of every unique epoch exactly.
TEST(ServiceRecovery, ReshippedPreCheckpointEpochsAreAckedNotRemerged) {
  CollectorConfig config = collector_config();
  config.run_detection = false;
  config.state_dir = ::testing::TempDir() +
                     "ServiceRecovery.ReshippedPreCheckpointEpochs.state";
  std::filesystem::remove_all(config.state_dir);
  config.checkpoint_every = 2;

  // Per-site, per-epoch deltas: 4 sites x 3 epochs, each its own sketch.
  DistinctCountSketch expected(small_params());
  std::map<std::pair<std::uint64_t, std::uint64_t>, std::string> blobs;
  for (std::uint64_t site = 1; site <= 4; ++site)
    for (std::uint64_t epoch = 1; epoch <= 3; ++epoch) {
      DistinctCountSketch delta(small_params());
      for (std::uint64_t i = 0; i < 40; ++i) {
        const auto dest = static_cast<Addr>(site * 100 + i % 6);
        const auto source = static_cast<Addr>(epoch * 1000 + i);
        delta.update(dest, source, +1);
        expected.update(dest, source, +1);
      }
      std::ostringstream out(std::ios::binary);
      BinaryWriter writer(out);
      delta.serialize(writer);
      blobs[{site, epoch}] = std::move(out).str();
    }

  /// One raw-socket site connection (the agent path is covered elsewhere;
  /// raw frames let the test re-ship exactly what it wants).
  struct RawSite {
    std::optional<TcpSocket> socket;
    FrameDecoder decoder;
    char buffer[4096];

    Ack read_ack() {
      for (;;) {
        if (auto frame = decoder.next()) {
          EXPECT_EQ(frame->type, MsgType::kAck);
          return Ack::decode(frame->payload, frame->version);
        }
        const RecvResult got = socket->recv_some(buffer, sizeof buffer);
        if (got.bytes == 0) {
          ADD_FAILURE() << "connection lost awaiting ack";
          return Ack{};
        }
        decoder.feed(buffer, got.bytes);
      }
    }

    Ack hello(std::uint64_t site_id, std::uint16_t port) {
      socket = tcp_connect("127.0.0.1", port, 1000);
      EXPECT_TRUE(socket.has_value());
      socket->set_timeouts(3000, 3000);
      Hello greeting;
      greeting.site_id = site_id;
      greeting.params_fingerprint = small_params().fingerprint();
      EXPECT_TRUE(
          socket->send_all(encode_frame(MsgType::kHello, greeting.encode())));
      return read_ack();
    }

    Ack ship(std::uint64_t site_id, std::uint64_t epoch,
             const std::string& blob) {
      SnapshotDelta delta;
      delta.site_id = site_id;
      delta.epoch = epoch;
      delta.updates = 40;
      delta.sketch_blob = blob;
      EXPECT_TRUE(socket->send_all(
          encode_frame(MsgType::kSnapshotDelta, delta.encode())));
      return read_ack();
    }
  };

  // Phase 1: all 12 epochs land and are durable (journal fsync per merge),
  // then the collector goes away. stop() checkpoints, but even without that
  // every acked epoch is covered by the journal.
  {
    Collector collector(config);
    collector.start();
    for (std::uint64_t site = 1; site <= 4; ++site) {
      RawSite raw;
      EXPECT_EQ(raw.hello(site, collector.port()).status, AckStatus::kOk);
      for (std::uint64_t epoch = 1; epoch <= 3; ++epoch)
        EXPECT_EQ(raw.ship(site, epoch, blobs[{site, epoch}]).status,
                  AckStatus::kOk);
    }
    ASSERT_TRUE(collector.wait_for_deltas(12, 10000));
    collector.stop();
    ASSERT_TRUE(collector.merged_sketch() == expected);
  }

  // Phase 2: recovered collector. Every site reconnects believing nothing
  // was delivered (lost acks) and re-ships epochs 1-3, then ships epoch 4.
  Collector recovered(config);
  EXPECT_EQ(recovered.stats().recoveries, 1u);
  ASSERT_TRUE(recovered.merged_sketch() == expected);
  recovered.start();

  for (std::uint64_t site = 1; site <= 4; ++site) {
    RawSite raw;
    const Ack hello_ack = raw.hello(site, recovered.port());
    EXPECT_EQ(hello_ack.status, AckStatus::kOk);
    EXPECT_EQ(hello_ack.epoch, 3u);  // resume watermark from the checkpoint
    for (std::uint64_t epoch = 1; epoch <= 3; ++epoch) {
      const Ack ack = raw.ship(site, epoch, blobs[{site, epoch}]);
      EXPECT_EQ(ack.status, AckStatus::kDuplicate);
      EXPECT_EQ(ack.epoch, epoch);
    }
    DistinctCountSketch fresh(small_params());
    for (std::uint64_t i = 0; i < 40; ++i) {
      const auto dest = static_cast<Addr>(site * 100 + i % 6);
      fresh.update(dest, static_cast<Addr>(4000 + i), +1);
      expected.update(dest, static_cast<Addr>(4000 + i), +1);
    }
    std::ostringstream out(std::ios::binary);
    BinaryWriter writer(out);
    fresh.serialize(writer);
    EXPECT_EQ(raw.ship(site, 4, std::move(out).str()).status, AckStatus::kOk);
  }

  const auto stats = recovered.stats();
  EXPECT_EQ(stats.post_recovery_duplicates, 12u);  // the dedup oracle
  EXPECT_EQ(stats.duplicate_deltas, 12u);
  EXPECT_EQ(stats.deltas_merged, 16u);  // 12 recovered + 4 fresh, no doubles
  EXPECT_TRUE(recovered.merged_sketch() == expected);
  const auto sites = recovered.site_stats();
  ASSERT_EQ(sites.size(), 4u);
  for (const auto& site : sites) {
    EXPECT_EQ(site.last_epoch, 4u);
    EXPECT_EQ(site.epochs_merged, 4u);
    EXPECT_EQ(site.duplicate_deltas, 3u);
  }
  recovered.stop();
}

/// The Hello-ack resume watermark end to end with a real agent: spooled
/// epochs at or below the recovered collector's watermark are pruned
/// locally (counted as resume_skips), never re-shipped.
TEST(ServiceRecovery, AgentPrunesSpooledEpochsBelowResumeWatermark) {
  CollectorConfig config = collector_config();
  config.run_detection = false;
  config.state_dir =
      ::testing::TempDir() + "ServiceRecovery.AgentPrunes.state";
  std::filesystem::remove_all(config.state_dir);

  const auto updates = zipf_updates(2000, 23);

  // Phase 1: the agent ships epochs 1-2, which become durable; the
  // collector then "crashes" (goes away) before the agent can ship more.
  std::uint16_t port = 0;
  {
    Collector collector(config);
    collector.start();
    port = collector.port();
    auto cfg = agent_config(7, port);
    SiteAgent agent(cfg);
    agent.start();
    for (std::size_t i = 0; i < 1000; ++i) agent.ingest(updates[i]);
    ASSERT_TRUE(agent.flush(10000));
    agent.stop();
    ASSERT_TRUE(collector.wait_for_deltas(2, 10000));
    collector.stop();
  }

  // Phase 2: a restarted agent re-seals the same epochs 1-2 (same data,
  // deterministic workload) plus new epochs 3-4 while the collector is
  // still down — so all four sit in its spool.
  auto cfg = agent_config(7, port);
  SiteAgent agent(cfg);
  for (std::size_t i = 0; i < 2000; ++i) agent.ingest(updates[i]);
  agent.seal_epoch();
  ASSERT_EQ(agent.stats().spool_depth, 4u);

  // Recovered collector on the same port: its Hello ack says "epochs <= 2
  // are already durable here", and the agent ships only 3-4.
  config.port = port;
  Collector recovered(config);
  EXPECT_EQ(recovered.stats().recoveries, 1u);
  recovered.start();
  agent.start();
  EXPECT_TRUE(agent.flush(15000));
  agent.stop();

  const auto stats = agent.stats();
  EXPECT_EQ(stats.resume_skips, 2u);
  EXPECT_EQ(stats.epochs_shipped, 4u);  // 2 skipped + 2 shipped count alike
  const auto collector_stats = recovered.stats();
  EXPECT_EQ(collector_stats.deltas_merged, 4u);  // 2 recovered + 2 fresh
  EXPECT_EQ(collector_stats.duplicate_deltas, 0u);
  EXPECT_EQ(collector_stats.post_recovery_duplicates, 0u);

  DistinctCountSketch expected(small_params());
  for (std::size_t i = 0; i < 2000; ++i)
    expected.update(updates[i].dest, updates[i].source, updates[i].delta);
  EXPECT_TRUE(recovered.merged_sketch() == expected);
  recovered.stop();
}

// --- overload protection ----------------------------------------------------
//
// Wire-level abuse against a live collector: slow-loris partial frames,
// stalls, oversized announcements, heartbeat floods, and admission sheds.
// The contract throughout: the abuser's connection dies (and the table
// shrinks), everyone else keeps merging, and anything shed is re-shipped —
// overload costs latency, never data.

/// Wait until the collector's live-connection count drops to `want`.
bool wait_for_connections(const Collector& collector, std::size_t want,
                          int timeout_ms) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  while (std::chrono::steady_clock::now() < deadline) {
    if (collector.connection_count() <= want) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return collector.connection_count() <= want;
}

TEST(ServiceOverload, PartialHeaderStallHitsFrameDeadline) {
  CollectorConfig config = collector_config();
  config.frame_deadline_ms = 100;
  config.idle_timeout_ms = 0;  // isolate: only the frame deadline may fire
  Collector collector(config);
  collector.start();

  auto socket = tcp_connect("127.0.0.1", collector.port(), 1000);
  ASSERT_TRUE(socket.has_value());
  socket->set_timeouts(2000, 2000);
  // Four header bytes, then silence: an incomplete frame that will never
  // finish. The deadline, not a byte count, must kill it.
  const std::uint32_t magic = kWireMagic;
  ASSERT_TRUE(socket->send_all(&magic, sizeof magic));
  ASSERT_TRUE(wait_for_connections(collector, 1, 2000));

  char c;
  const RecvResult got = socket->recv_some(&c, 1);  // blocks until the FIN
  EXPECT_TRUE(got.closed || got.error);
  EXPECT_TRUE(wait_for_connections(collector, 0, 2000));
  EXPECT_EQ(collector.stats().deadline_drops, 1u);
  EXPECT_EQ(collector.stats().idle_reaped, 0u);
  collector.stop();
}

TEST(ServiceOverload, DribbledBytesCannotEvadeTheDeadline) {
  CollectorConfig config = collector_config();
  config.frame_deadline_ms = 150;
  config.idle_timeout_ms = 0;
  Collector collector(config);
  collector.start();

  auto socket = tcp_connect("127.0.0.1", collector.port(), 1000);
  ASSERT_TRUE(socket.has_value());
  socket->set_timeouts(200, 200);
  // Classic slow-loris: keep the connection "active" with one byte of a
  // valid frame every 30 ms. Activity must NOT reset the frame clock.
  const std::string frame = encode_frame(MsgType::kHello, Hello{}.encode());
  bool dropped = false;
  for (std::size_t i = 0; i < frame.size(); ++i) {
    if (!socket->send_all(frame.data() + i, 1)) {
      dropped = true;
      break;
    }
    char c;
    const RecvResult got = socket->recv_some(&c, 1);
    if (got.closed || got.error) {
      dropped = true;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
  }
  EXPECT_TRUE(dropped) << "collector never dropped the dribbling peer";
  EXPECT_TRUE(wait_for_connections(collector, 0, 2000));
  EXPECT_EQ(collector.stats().deadline_drops, 1u);
  collector.stop();
}

TEST(ServiceOverload, SilentConnectionIsIdleReaped) {
  CollectorConfig config = collector_config();
  config.frame_deadline_ms = 0;  // isolate: only the idle reaper may fire
  config.idle_timeout_ms = 100;
  Collector collector(config);
  collector.start();

  auto socket = tcp_connect("127.0.0.1", collector.port(), 1000);
  ASSERT_TRUE(socket.has_value());
  socket->set_timeouts(2000, 2000);
  char c;
  const RecvResult got = socket->recv_some(&c, 1);
  EXPECT_TRUE(got.closed || got.error);
  EXPECT_TRUE(wait_for_connections(collector, 0, 2000));
  EXPECT_EQ(collector.stats().idle_reaped, 1u);
  EXPECT_EQ(collector.stats().deadline_drops, 0u);
  collector.stop();
}

TEST(ServiceOverload, OversizedAnnouncementDropsConnectionNotCollector) {
  CollectorConfig config = collector_config();
  // A real delta frame for small_params() is ~1 MiB, so a 2 MiB cap admits
  // legitimate traffic while rejecting the abuser below.
  config.max_frame_bytes = 2u << 20;
  Collector collector(config);
  collector.start();

  // Hand-build a header announcing 4 MiB (over the 2 MiB receive cap but
  // far under the protocol cap, so only the per-collector limit rejects).
  std::string header;
  const auto put_u32 = [&header](std::uint32_t v) {
    header.append(reinterpret_cast<const char*>(&v), sizeof v);
  };
  put_u32(kWireMagic);
  header.push_back(static_cast<char>(kWireVersion));
  header.push_back(static_cast<char>(MsgType::kSnapshotDelta));
  put_u32(4u << 20);

  auto abuser = tcp_connect("127.0.0.1", collector.port(), 1000);
  ASSERT_TRUE(abuser.has_value());
  abuser->set_timeouts(2000, 2000);
  ASSERT_TRUE(abuser->send_all(header));
  char c;
  const RecvResult got = abuser->recv_some(&c, 1);
  EXPECT_TRUE(got.closed || got.error);
  EXPECT_TRUE(wait_for_connections(collector, 0, 2000));
  EXPECT_EQ(collector.stats().frame_errors, 1u);

  // The collector itself is unharmed: a well-behaved agent still merges.
  SiteAgent agent(agent_config(1, collector.port()));
  agent.start();
  for (const auto& update : zipf_updates(1000, 5))
    agent.ingest(update);
  EXPECT_TRUE(agent.flush(15000));
  agent.stop();
  EXPECT_GT(collector.stats().deltas_merged, 0u);
  collector.stop();
}

TEST(ServiceOverload, HeartbeatFloodNeitherStallsNorKills) {
  CollectorConfig config = collector_config();
  config.frame_deadline_ms = 200;
  Collector collector(config);
  collector.start();

  // One connection interleaving a heartbeat flood with real deltas: many
  // complete frames arriving back to back must never trip the partial-
  // frame deadline, and the deltas in between must all merge.
  auto socket = tcp_connect("127.0.0.1", collector.port(), 1000);
  ASSERT_TRUE(socket.has_value());
  socket->set_timeouts(3000, 3000);
  FrameDecoder decoder;
  char buffer[4096];
  const auto read_ack = [&]() -> Ack {
    for (;;) {
      if (auto frame = decoder.next()) {
        EXPECT_EQ(frame->type, MsgType::kAck);
        return Ack::decode(frame->payload, frame->version);
      }
      const RecvResult got = socket->recv_some(buffer, sizeof buffer);
      if (got.bytes == 0) {
        ADD_FAILURE() << "connection lost awaiting ack";
        return Ack{};
      }
      decoder.feed(buffer, got.bytes);
    }
  };

  Hello hello;
  hello.site_id = 3;
  hello.params_fingerprint = small_params().fingerprint();
  ASSERT_TRUE(socket->send_all(encode_frame(MsgType::kHello, hello.encode())));
  EXPECT_EQ(read_ack().status, AckStatus::kOk);

  DistinctCountSketch expected(small_params());
  Heartbeat beat;
  beat.site_id = 3;
  for (std::uint64_t epoch = 1; epoch <= 3; ++epoch) {
    // 100 heartbeats in one burst, batched into as few sends as the stack
    // allows — the decoder sees multiple frames per recv.
    std::string burst;
    for (int i = 0; i < 100; ++i) {
      beat.current_epoch = epoch;
      burst += encode_frame(MsgType::kHeartbeat, beat.encode());
    }
    ASSERT_TRUE(socket->send_all(burst));

    DistinctCountSketch delta(small_params());
    for (std::uint64_t i = 0; i < 50; ++i) {
      const auto dest = static_cast<Addr>(i % 4);
      const auto source = static_cast<Addr>(epoch * 1000 + i);
      delta.update(dest, source, +1);
      expected.update(dest, source, +1);
    }
    std::ostringstream out(std::ios::binary);
    BinaryWriter writer(out);
    delta.serialize(writer);
    SnapshotDelta ship;
    ship.site_id = 3;
    ship.epoch = epoch;
    ship.updates = 50;
    ship.sketch_blob = std::move(out).str();
    ASSERT_TRUE(
        socket->send_all(encode_frame(MsgType::kSnapshotDelta, ship.encode())));
    // Each v3 heartbeat is acked with epoch 0; the delta ack (epoch >= 1)
    // arrives after every frame of the burst was processed in order.
    Ack ack;
    do {
      ack = read_ack();
      EXPECT_EQ(ack.status, AckStatus::kOk);
    } while (ack.epoch == 0);
    EXPECT_EQ(ack.epoch, epoch);
  }

  const auto stats = collector.stats();
  EXPECT_GE(stats.frames, 304u);  // hello + 300 heartbeats + 3 deltas
  EXPECT_EQ(stats.deadline_drops, 0u);
  EXPECT_EQ(stats.frame_errors, 0u);
  EXPECT_EQ(stats.deltas_merged, 3u);
  EXPECT_TRUE(collector.merged_sketch() == expected);
  collector.stop();
}

TEST(ServiceOverload, ShedDeltasAreNackedAndReshippedExactlyOnce) {
  CollectorConfig config = collector_config();
  // One admit per second: the epoch shipped right after an admitted one
  // arrives well inside that, so it is shed however slow the build is.
  config.admission.site_rate_per_sec = 1.0;
  config.admission.site_burst = 1.0;
  config.admission.min_retry_after_ms = 10;
  config.admission.max_retry_after_ms = 300;
  Collector collector(config);
  collector.start();

  // Raw site shipping 2 epochs as fast as NACKs allow: every shed must
  // come back kRetryLater with a usable hint, and honoring the hint must
  // eventually land every epoch exactly once.
  auto socket = tcp_connect("127.0.0.1", collector.port(), 1000);
  ASSERT_TRUE(socket.has_value());
  socket->set_timeouts(3000, 3000);
  FrameDecoder decoder;
  char buffer[4096];
  const auto read_ack = [&]() -> Ack {
    for (;;) {
      if (auto frame = decoder.next()) return Ack::decode(frame->payload, frame->version);
      const RecvResult got = socket->recv_some(buffer, sizeof buffer);
      if (got.bytes == 0) {
        ADD_FAILURE() << "connection lost awaiting ack";
        return Ack{};
      }
      decoder.feed(buffer, got.bytes);
    }
  };

  Hello hello;
  hello.site_id = 9;
  hello.params_fingerprint = small_params().fingerprint();
  ASSERT_TRUE(socket->send_all(encode_frame(MsgType::kHello, hello.encode())));
  EXPECT_EQ(read_ack().status, AckStatus::kOk);

  DistinctCountSketch expected(small_params());
  std::uint64_t nacks = 0;
  for (std::uint64_t epoch = 1; epoch <= 2; ++epoch) {
    DistinctCountSketch delta(small_params());
    for (std::uint64_t i = 0; i < 30; ++i) {
      const auto dest = static_cast<Addr>(i % 3);
      const auto source = static_cast<Addr>(epoch * 500 + i);
      delta.update(dest, source, +1);
      expected.update(dest, source, +1);
    }
    std::ostringstream out(std::ios::binary);
    BinaryWriter writer(out);
    delta.serialize(writer);
    SnapshotDelta ship;
    ship.site_id = 9;
    ship.epoch = epoch;
    ship.updates = 30;
    ship.sketch_blob = std::move(out).str();
    const std::string frame =
        encode_frame(MsgType::kSnapshotDelta, ship.encode());

    for (int attempt = 0;; ++attempt) {
      ASSERT_LT(attempt, 100) << "epoch " << epoch << " never admitted";
      ASSERT_TRUE(socket->send_all(frame));
      const Ack ack = read_ack();
      ASSERT_EQ(ack.epoch, epoch);
      if (ack.status == AckStatus::kOk) break;
      ASSERT_EQ(ack.status, AckStatus::kRetryLater);
      ASSERT_GT(ack.retry_after_ms, 0u);
      ++nacks;
      std::this_thread::sleep_for(
          std::chrono::milliseconds(ack.retry_after_ms));
    }
  }

  const auto stats = collector.stats();
  EXPECT_GT(stats.shed_deltas, 0u);
  EXPECT_EQ(nacks, stats.shed_deltas);
  EXPECT_EQ(stats.deltas_merged, 2u);
  EXPECT_EQ(stats.duplicate_deltas, 0u);  // a shed is not a duplicate
  EXPECT_EQ(stats.dropped_epochs, 0u);    // and never a gap
  EXPECT_TRUE(collector.merged_sketch() == expected);
  collector.stop();
}

TEST(ServiceOverload, AgentBacksOffOnNackWithoutSpillingItsSpool) {
  CollectorConfig config = collector_config();
  // Half a second per admit against epochs sealed back to back: every
  // epoch after the first is shed at least once, however slow the build.
  config.admission.site_rate_per_sec = 2.0;
  config.admission.site_burst = 1.0;
  config.admission.min_retry_after_ms = 10;
  config.admission.max_retry_after_ms = 200;
  Collector collector(config);
  collector.start();

  // A real agent sealing epochs far faster than the bucket admits. The
  // NACK path must delay shipping without ever evicting a spooled epoch,
  // and the final merged sketch must equal the reference bit for bit.
  SiteAgentConfig agent_cfg = agent_config(1, collector.port());
  agent_cfg.epoch_updates = 1000;  // 4 epochs
  agent_cfg.spool_epochs = 256;
  SiteAgent agent(agent_cfg);
  agent.start();

  const auto updates = zipf_updates(4000, 77);
  DistinctCountSketch expected(small_params());
  for (const auto& update : updates) {
    agent.ingest(update);
    expected.update(update.dest, update.source, update.delta);
  }
  EXPECT_TRUE(agent.flush(30000));
  agent.stop();

  const auto agent_stats = agent.stats();
  EXPECT_GT(agent_stats.nacks, 0u);
  EXPECT_EQ(agent_stats.epochs_dropped, 0u);
  const auto stats = collector.stats();
  EXPECT_GT(stats.shed_deltas, 0u);
  EXPECT_EQ(stats.dropped_epochs, 0u);
  EXPECT_EQ(stats.post_recovery_duplicates, 0u);
  EXPECT_TRUE(collector.merged_sketch() == expected);
  collector.stop();
}

// --- wire version negotiation (v2 <-> v3) -----------------------------------

TEST(WireVersioning, FrameCarriesItsVersionAndRejectsOutOfRange) {
  const std::string beat = Heartbeat{}.encode();
  FrameDecoder decoder;

  const std::string v2 = encode_frame(MsgType::kHeartbeat, beat, 2);
  decoder.feed(v2.data(), v2.size());
  auto frame = decoder.next();
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->version, 2);

  const std::string v3 = encode_frame(MsgType::kHeartbeat, beat);
  decoder.feed(v3.data(), v3.size());
  frame = decoder.next();
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->version, kWireVersion);

  EXPECT_THROW(encode_frame(MsgType::kHeartbeat, beat, 1), WireError);
  EXPECT_THROW(encode_frame(MsgType::kHeartbeat, beat,
                            static_cast<std::uint8_t>(kWireVersion + 1)),
               WireError);
}

TEST(WireVersioning, SnapshotDeltaTimestampsAreV3Only) {
  SnapshotDelta delta;
  delta.site_id = 4;
  delta.epoch = 11;
  delta.updates = 256;
  delta.seal_unix_ns = 111;
  delta.seal_steady_ns = 222;
  delta.spool_unix_ns = 333;
  delta.ship_unix_ns = 444;
  delta.sketch_blob = "blobbytes";

  // v3 payloads round-trip every stamp.
  const SnapshotDelta back3 = SnapshotDelta::decode(delta.encode());
  EXPECT_EQ(back3.seal_unix_ns, 111u);
  EXPECT_EQ(back3.seal_steady_ns, 222u);
  EXPECT_EQ(back3.spool_unix_ns, 333u);
  EXPECT_EQ(back3.ship_unix_ns, 444u);
  EXPECT_EQ(back3.sketch_blob, "blobbytes");

  // A v2 payload is the legacy layout: shorter, no stamps on decode.
  const std::string v2_payload = delta.encode(2);
  EXPECT_EQ(delta.encode().size(), v2_payload.size() + 4 * 8);
  const SnapshotDelta back2 = SnapshotDelta::decode(v2_payload, 2);
  EXPECT_EQ(back2.site_id, 4u);
  EXPECT_EQ(back2.epoch, 11u);
  EXPECT_EQ(back2.updates, 256u);
  EXPECT_EQ(back2.seal_unix_ns, 0u);
  EXPECT_EQ(back2.sketch_blob, "blobbytes");

  // Misreading a v2 payload with the v3 layout must fail loudly, not
  // produce a silently corrupt delta.
  EXPECT_ANY_THROW(SnapshotDelta::decode(v2_payload, 3));
}

/// A legacy v2 agent (no timestamps, no heartbeat-ack expectation) against a
/// v3 collector: the collector must answer in v2 frames, merge the v2 delta,
/// and stay silent on v2 heartbeats — the exact v2 Ack contract.
TEST(WireVersioning, V2PeerInteroperatesWithV3Collector) {
  CollectorConfig config = collector_config();
  config.run_detection = false;
  Collector collector(config);
  collector.start();

  DistinctCountSketch delta_sketch(small_params());
  delta_sketch.update(8, 2, +1);
  std::ostringstream blob_out(std::ios::binary);
  BinaryWriter writer(blob_out);
  delta_sketch.serialize(writer);

  auto socket = tcp_connect("127.0.0.1", collector.port(), 1000);
  ASSERT_TRUE(socket.has_value());
  socket->set_timeouts(2000, 2000);
  FrameDecoder decoder;
  char buffer[4096];
  const auto read_ack_frame = [&]() -> std::optional<Frame> {
    for (;;) {
      if (auto frame = decoder.next()) return frame;
      const RecvResult got = socket->recv_some(buffer, sizeof buffer);
      if (got.bytes == 0) return std::nullopt;
      decoder.feed(buffer, got.bytes);
    }
  };

  Hello hello;
  hello.site_id = 3;
  hello.params_fingerprint = small_params().fingerprint();
  ASSERT_TRUE(
      socket->send_all(encode_frame(MsgType::kHello, hello.encode(2), 2)));
  auto hello_ack = read_ack_frame();
  ASSERT_TRUE(hello_ack.has_value());
  EXPECT_EQ(hello_ack->version, 2) << "reply framed above the peer's version";
  EXPECT_EQ(Ack::decode(hello_ack->payload, hello_ack->version).status, AckStatus::kOk);

  // v2 heartbeats get no ack (a v2 agent would misread one as a stray
  // delta ack); the connection must stay healthy regardless.
  ASSERT_TRUE(socket->send_all(
      encode_frame(MsgType::kHeartbeat, Heartbeat{}.encode(), 2)));

  SnapshotDelta delta;
  delta.site_id = 3;
  delta.epoch = 1;
  delta.updates = 1;
  delta.sketch_blob = std::move(blob_out).str();
  ASSERT_TRUE(socket->send_all(
      encode_frame(MsgType::kSnapshotDelta, delta.encode(2), 2)));
  auto delta_ack = read_ack_frame();
  ASSERT_TRUE(delta_ack.has_value());
  EXPECT_EQ(delta_ack->version, 2);
  const Ack ack = Ack::decode(delta_ack->payload, delta_ack->version);
  EXPECT_EQ(ack.status, AckStatus::kOk);
  EXPECT_EQ(ack.epoch, 1u) << "heartbeat must not have been acked before "
                              "the delta (v2 ack-stream contract)";

  EXPECT_EQ(collector.stats().deltas_merged, 1u);
  EXPECT_TRUE(collector.merged_sketch() == delta_sketch);
  collector.stop();
}

/// A v3 peer's heartbeats are acked with epoch 0 — the free RTT probe.
TEST(WireVersioning, V3HeartbeatsAreAckedWithEpochZero) {
  CollectorConfig config = collector_config();
  config.run_detection = false;
  Collector collector(config);
  collector.start();

  auto socket = tcp_connect("127.0.0.1", collector.port(), 1000);
  ASSERT_TRUE(socket.has_value());
  socket->set_timeouts(2000, 2000);
  FrameDecoder decoder;
  char buffer[4096];
  const auto read_ack_frame = [&]() -> std::optional<Frame> {
    for (;;) {
      if (auto frame = decoder.next()) return frame;
      const RecvResult got = socket->recv_some(buffer, sizeof buffer);
      if (got.bytes == 0) return std::nullopt;
      decoder.feed(buffer, got.bytes);
    }
  };

  Hello hello;
  hello.site_id = 6;
  hello.params_fingerprint = small_params().fingerprint();
  ASSERT_TRUE(socket->send_all(encode_frame(MsgType::kHello, hello.encode())));
  auto hello_ack = read_ack_frame();
  ASSERT_TRUE(hello_ack.has_value());
  EXPECT_EQ(hello_ack->version, kWireVersion);

  ASSERT_TRUE(socket->send_all(
      encode_frame(MsgType::kHeartbeat, Heartbeat{}.encode())));
  auto beat_ack = read_ack_frame();
  ASSERT_TRUE(beat_ack.has_value());
  EXPECT_EQ(beat_ack->type, MsgType::kAck);
  EXPECT_EQ(beat_ack->version, kWireVersion);
  const Ack ack = Ack::decode(beat_ack->payload, beat_ack->version);
  EXPECT_EQ(ack.status, AckStatus::kOk);
  EXPECT_EQ(ack.epoch, 0u);
  collector.stop();
}

// --- end-to-end epoch tracing ----------------------------------------------

/// Real agent, real collector, telemetry on: every trace dumped from the
/// collector's ring must be complete (all eight stages stamped, in order)
/// and carry a detection-freshness measurement.
TEST(ServiceTrace, CollectorTracesAreCompleteAndMonotone) {
  obs::set_enabled(true);
  const std::uint64_t freshness_before =
      obs::TraceMetrics::get().detection_freshness_ns.snapshot().count;

  Collector collector(collector_config());
  collector.start();
  SiteAgent agent(agent_config(2, collector.port()));
  agent.start();
  for (const auto& update : zipf_updates(2500, 9)) agent.ingest(update);
  EXPECT_TRUE(agent.flush(10000));
  agent.stop();

  const auto traces = collector.traces();
  ASSERT_GE(traces.size(), 4u);  // 2500 updates / 500 per epoch
  for (const auto& trace : traces) {
    EXPECT_EQ(trace.site_id, 2u);
    EXPECT_TRUE(trace.complete()) << "epoch " << trace.epoch;
    EXPECT_GT(trace.freshness_ns, 0u) << "epoch " << trace.epoch;
    EXPECT_GT(trace.updates, 0u);
    EXPECT_GT(trace.bytes, 0u);
  }

  // The SLO histogram saw every merged epoch.
  const auto freshness =
      obs::TraceMetrics::get().detection_freshness_ns.snapshot();
  EXPECT_GE(freshness.count, freshness_before + traces.size());

  // The agent kept its own (sealed/spooled/shipped) view of the epochs.
  const auto agent_traces = agent.traces();
  ASSERT_GE(agent_traces.size(), 4u);
  for (const auto& trace : agent_traces) {
    const auto sealed = trace.stamp(obs::TraceStage::kSealed);
    const auto spooled = trace.stamp(obs::TraceStage::kSpooled);
    const auto shipped = trace.stamp(obs::TraceStage::kShipped);
    EXPECT_GT(sealed, 0u);
    EXPECT_GE(spooled, sealed);
    EXPECT_GE(shipped, spooled);
  }
  collector.stop();
}

/// An idle v3 agent <-> v3 collector pair turns keepalive heartbeats into
/// RTT observations.
TEST(ServiceTrace, HeartbeatRttIsMeasuredOnIdleConnections) {
  obs::set_enabled(true);
  const std::uint64_t rtt_before =
      obs::AgentMetrics::get().heartbeat_rtt_ns.snapshot().count;

  Collector collector(collector_config());
  collector.start();
  auto config = agent_config(1, collector.port());
  config.heartbeat_interval_ms = 20;
  SiteAgent agent(config);
  agent.start();
  // One epoch to establish the connection, then idle through several
  // heartbeat intervals.
  agent.ingest(1, 2, +1);
  agent.seal_epoch();
  EXPECT_TRUE(agent.flush(5000));
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (obs::AgentMetrics::get().heartbeat_rtt_ns.snapshot().count <
             rtt_before + 2 &&
         std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  agent.stop();

  const auto rtt = obs::AgentMetrics::get().heartbeat_rtt_ns.snapshot();
  EXPECT_GE(rtt.count, rtt_before + 2)
      << "no heartbeat RTT observed within the deadline";
  collector.stop();
}

}  // namespace
}  // namespace dcs::service
