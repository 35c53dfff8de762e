// Collector ingest transport (the epoll reactor) under a population of
// concurrent raw protocol peers.
//
//   build/bench/ingest_reactor [--peers 64] [--epochs 4] [--updates 1000]
//
// The harness measures two things:
//
//   hello rtt   connect + Hello + ack round-trip per peer, taken while the
//               population ramps up — the accept-path latency an agent
//               joining a busy collector actually experiences. The p99 is
//               the gated figure: it is what the reactor's non-blocking
//               acceptor exists to bound.
//   throughput  peers * epochs stop-and-wait delta round-trips shipped by
//               concurrent clients, as merged deltas per second. Merges
//               serialize on the state lock, so this is the transport plus
//               merge path, not the transport alone.
//
// Every round-trip is acked, and the bench asserts all peers * epochs
// deltas merged before reporting — a number produced while dropping deltas
// would be meaningless. Loopback timing on a shared runner is noisy;
// explicit noise figures keep the perf gate honest.
#include <atomic>
#include <cstdio>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "common/options.hpp"
#include "common/stopwatch.hpp"
#include "service/collector.hpp"
#include "service/socket.hpp"
#include "service/wire.hpp"
#include "sketch/distinct_count_sketch.hpp"

namespace {

using namespace dcs;
using namespace dcs::service;

DcsParams bench_params() {
  DcsParams params;
  params.num_tables = 3;
  params.buckets_per_table = 64;
  params.seed = 23;
  return params;
}

/// One connected protocol client: socket + decoder for reading acks.
struct Peer {
  std::optional<TcpSocket> socket;
  FrameDecoder decoder;
  char buffer[1 << 14];

  std::optional<Ack> read_ack() {
    for (;;) {
      if (auto frame = decoder.next()) return Ack::decode(frame->payload);
      const RecvResult got = socket->recv_some(buffer, sizeof buffer);
      if (got.bytes == 0) return std::nullopt;
      decoder.feed(buffer, got.bytes);
    }
  }
};

struct IngestResult {
  bench::TimingSummary hello_us;
  double deltas_per_sec = 0.0;
  bool ok = false;
};

IngestResult run_ingest(std::size_t peers, std::uint64_t epochs,
                        const std::string& blob) {
  IngestResult result;
  const DcsParams params = bench_params();

  CollectorConfig config;
  config.params = params;
  config.run_detection = false;  // isolate the transport + merge path
  config.io_timeout_ms = 25;
  Collector collector(config);
  collector.start();
  const std::uint16_t port = collector.port();

  // Ramp-up: sequential connects so each sample is one clean accept +
  // handshake round-trip against the steadily-growing population.
  std::vector<double> hello_samples;
  std::vector<std::unique_ptr<Peer>> population;
  population.reserve(peers);
  for (std::uint64_t site = 1; site <= peers; ++site) {
    auto peer = std::make_unique<Peer>();
    Hello hello;
    hello.site_id = site;
    hello.params_fingerprint = params.fingerprint();
    Stopwatch watch;
    peer->socket = tcp_connect("127.0.0.1", port, 5000);
    if (!peer->socket) {
      std::fprintf(stderr, "ingest_reactor: connect failed (site %llu)\n",
                   static_cast<unsigned long long>(site));
      collector.stop();
      return result;
    }
    peer->socket->set_timeouts(30000, 30000);
    if (!peer->socket->send_all(encode_frame(MsgType::kHello, hello.encode())) ||
        !peer->read_ack()) {
      std::fprintf(stderr, "ingest_reactor: hello failed (site %llu)\n",
                   static_cast<unsigned long long>(site));
      collector.stop();
      return result;
    }
    hello_samples.push_back(watch.elapsed_ns() / 1e3);
    population.push_back(std::move(peer));
  }
  result.hello_us = bench::summarize_samples(std::move(hello_samples));

  // Throughput: every peer ships its epochs concurrently, stop-and-wait.
  std::atomic<bool> failed{false};
  Stopwatch watch;
  std::vector<std::thread> shippers;
  shippers.reserve(peers);
  for (std::uint64_t site = 1; site <= peers; ++site) {
    shippers.emplace_back([&, site] {
      Peer& peer = *population[site - 1];
      for (std::uint64_t epoch = 1; epoch <= epochs; ++epoch) {
        SnapshotDelta delta;
        delta.site_id = site;
        delta.epoch = epoch;
        delta.updates = 1;
        delta.sketch_blob = blob;
        if (!peer.socket->send_all(
                encode_frame(MsgType::kSnapshotDelta, delta.encode()))) {
          failed.store(true);
          return;
        }
        const auto ack = peer.read_ack();
        if (!ack || ack->status != AckStatus::kOk) {
          failed.store(true);
          return;
        }
      }
    });
  }
  for (auto& shipper : shippers) shipper.join();
  const double elapsed_s = watch.elapsed_ns() / 1e9;

  const std::uint64_t expected = peers * epochs;
  const bool merged_all = collector.wait_for_deltas(expected, 60000);
  for (std::uint64_t site = 1; site <= peers; ++site) {
    Bye bye;
    bye.site_id = site;
    population[site - 1]->socket->send_all(
        encode_frame(MsgType::kBye, bye.encode()));
  }
  population.clear();
  collector.stop();

  if (failed.load() || !merged_all) {
    std::fprintf(stderr, "ingest_reactor: lost deltas\n");
    return result;
  }
  result.deltas_per_sec =
      elapsed_s > 0.0 ? static_cast<double>(expected) / elapsed_s : 0.0;
  result.ok = true;
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  const Options options(argc, argv);
  const auto peers = static_cast<std::size_t>(options.integer("peers", 64));
  const auto epochs =
      static_cast<std::uint64_t>(options.integer("epochs", 4));
  const auto updates =
      static_cast<std::uint64_t>(options.integer("updates", 1000));

  bench::JsonReport report = bench::make_report("ingest_reactor", options);
  report.meta("peers", static_cast<double>(peers));
  report.meta("epochs", static_cast<double>(epochs));
  report.meta("reactor_workers",
              static_cast<double>(default_reactor_workers()));

  // One realistic shared blob: enough distinct pairs to allocate several
  // sketch levels, so each merge costs what a real epoch's merge costs.
  DistinctCountSketch sketch(bench_params());
  for (std::uint64_t i = 0; i < updates; ++i)
    sketch.update(static_cast<Addr>(i % 16), static_cast<Addr>(i), +1);
  std::ostringstream out(std::ios::binary);
  BinaryWriter writer(out);
  sketch.serialize(writer);
  const std::string blob = std::move(out).str();

  try {
    std::printf("== ingest transport (peers=%zu epochs=%llu) ==\n", peers,
                static_cast<unsigned long long>(epochs));
    const IngestResult reactor = run_ingest(peers, epochs, blob);
    if (!reactor.ok) return 1;

    bench::print_row({"mode", "deltas/s", "hello p50 us", "hello p99 us"});
    bench::print_row({"reactor", bench::format_double(reactor.deltas_per_sec),
                      bench::format_double(reactor.hello_us.p50),
                      bench::format_double(reactor.hello_us.p99)});

    using bench::Direction;
    // Loopback round-trips on a shared single-core runner swing wildly;
    // generous explicit noise keeps the regression gate meaningful without
    // tripping on scheduler weather.
    report.metric("reactor", "deltas_per_sec", reactor.deltas_per_sec,
                  Direction::kHigherIsBetter, 40.0);
    report.metric("reactor", "hello_rtt_us",
                  bench::summary_metric(reactor.hello_us,
                                        Direction::kLowerIsBetter, 60.0));
  } catch (const std::exception& error) {
    std::fprintf(stderr, "ingest_reactor: %s\n", error.what());
    return 1;
  }
  bench::write_report(report, options);
  return 0;
}
