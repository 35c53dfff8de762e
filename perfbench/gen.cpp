// perfbench_gen — the benchmark's generator process (see README.md).
//
// It drives the daemons under test the way routers and a dashboard would:
// one embedded SiteAgent per site is fed seeded flow updates on a fixed
// epoch cadence, and top-k pages are loaded from the query tier at seeded
// Poisson times. It uses at most four threads (this one plus one sender
// thread per SiteAgent) and at most four open connections (one per agent
// plus one short-lived HTTP request at a time).
//
//   perfbench_gen seed SPEC   ship the history of the seeding sites to a
//                             running collector and wait for every ack
//   perfbench_gen run SPEC    restart the daemons on the seeded state, run
//                             the steady and capacity phases, drain, check
//                             linearity, replay one delta through each
//                             layer (traced runs), write DIR/gen_result.json
//
// SPEC is written by run.py: one setting per line, tokens tab-separated.
#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/inotify.h>
#include <sys/resource.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <csignal>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/hash.hpp"
#include "common/serialize.hpp"
#include "detection/baseline_detector.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "query/snapshot.hpp"
#include "service/agent.hpp"
#include "service/checkpoint.hpp"
#include "service/collector.hpp"
#include "service/epoch_journal.hpp"
#include "service/federation/leaf.hpp"
#include "service/federation/shard_map.hpp"
#include "service/socket.hpp"
#include "service/wire.hpp"
#include "sketch/distinct_count_sketch.hpp"
#include "sketch/tracking_dcs.hpp"

extern char** environ;

namespace {

using namespace dcs;

// --- spec ------------------------------------------------------------------

class Spec {
 public:
  explicit Spec(const std::string& path) {
    std::ifstream in(path);
    if (!in) throw std::runtime_error("cannot read spec " + path);
    std::string line;
    while (std::getline(in, line)) {
      if (line.empty()) continue;
      std::vector<std::string> tokens;
      std::size_t start = 0;
      for (;;) {
        const std::size_t tab = line.find('\t', start);
        tokens.push_back(line.substr(start, tab - start));
        if (tab == std::string::npos) break;
        start = tab + 1;
      }
      const std::string key = tokens.front();
      tokens.erase(tokens.begin());
      lines_[key].push_back(std::move(tokens));
    }
  }
  const std::vector<std::string>& one(const std::string& key) const {
    const auto it = lines_.find(key);
    if (it == lines_.end()) throw std::runtime_error("spec lacks " + key);
    return it->second.front();
  }
  std::string str(const std::string& key) const { return one(key).at(0); }
  std::uint64_t u64(const std::string& key) const {
    return std::stoull(str(key));
  }
  double real(const std::string& key) const { return std::stod(str(key)); }
  std::vector<std::uint64_t> u64s(const std::string& key) const {
    std::vector<std::uint64_t> out;
    for (const auto& t : one(key)) out.push_back(std::stoull(t));
    return out;
  }
  const std::vector<std::vector<std::string>>& all(
      const std::string& key) const {
    static const std::vector<std::vector<std::string>> none;
    const auto it = lines_.find(key);
    return it == lines_.end() ? none : it->second;
  }

 private:
  std::map<std::string, std::vector<std::vector<std::string>>> lines_;
};

// --- traffic ---------------------------------------------------------------

/// 32-bit bijection (odd multiplies and xor-shifts are each invertible), so
/// distinct inputs give distinct addresses.
std::uint32_t bij32(std::uint32_t x) {
  x *= 0x9E3779B1u;
  x ^= x >> 16;
  x *= 0x85EBCA6Bu;
  x ^= x >> 13;
  x *= 0xC2B2AE35u;
  x ^= x >> 16;
  return x;
}

/// Seeded, counter-based traffic: pair i of (site index, epoch) is a pure
/// function of its coordinates, so an epoch can be emitted in chunks and
/// re-emitted later for the reference sketch and the exact counts.
///
/// Every pair has a source no other pair has (the source encodes site
/// index, epoch and pair index through bij32), so the exact number of
/// distinct sources of a destination is the number of its pairs that stay
/// net-positive. Background pairs go to Zipf-ranked destinations; a share
/// of them completes the handshake (+1 then -1, a deletion). From the onset
/// epoch, flood pairs add spoofed SYNs (+1 only) on one destination.
class Traffic {
 public:
  explicit Traffic(const Spec& spec)
      : seed_(mix64(spec.u64("seed") ^ 0x7065726662656e63ULL)),
        pairs_(static_cast<std::uint32_t>(spec.u64("pairs"))),
        complete_permille_(
            static_cast<std::uint32_t>(spec.u64("complete_permille"))),
        flood_(static_cast<std::uint32_t>(spec.u64("flood"))),
        onset_(spec.u64("onset")) {
    const std::size_t dests = spec.u64("dests");
    const double skew = spec.real("zipf");
    cdf_.resize(dests);
    double total = 0.0;
    for (std::size_t i = 0; i < dests; ++i)
      total += 1.0 / std::pow(static_cast<double>(i + 1), skew);
    double acc = 0.0;
    for (std::size_t i = 0; i < dests; ++i) {
      acc += 1.0 / std::pow(static_cast<double>(i + 1), skew) / total;
      cdf_[i] = acc;
    }
    cdf_.back() = 1.0;
    if (pairs_ + flood_ > (1u << 15))
      throw std::runtime_error("traffic: more than 32768 pairs per epoch");
  }

  static Addr dest_of_rank(std::uint32_t rank) {
    return bij32(rank ^ 0x5A5A0000u);
  }
  static Addr flood_dest() { return dest_of_rank(0x00FFFFFFu); }

  std::uint32_t pair_count(std::uint64_t epoch, bool floods) const {
    return pairs_ + (floods && epoch >= onset_ ? flood_ : 0);
  }

  /// Calls sink(dest, source, delta) for pairs [begin, end) of the epoch.
  template <class Sink>
  void emit(std::uint32_t site_index, std::uint64_t epoch, bool floods,
            std::uint32_t begin, std::uint32_t end, Sink&& sink) const {
    if (epoch >= 1024 || site_index >= 8)
      throw std::runtime_error("traffic: epoch or site index out of range");
    const std::uint32_t prefix =
        (site_index * 1024u + static_cast<std::uint32_t>(epoch)) << 15;
    end = std::min(end, pair_count(epoch, floods));
    for (std::uint32_t i = begin; i < end; ++i) {
      const Addr source = bij32(prefix | i);
      if (i >= pairs_) {
        sink(flood_dest(), source, +1);
        continue;
      }
      const std::uint64_t h = mix64(seed_ + (static_cast<std::uint64_t>(prefix | i)));
      const double u = static_cast<double>(h >> 11) * 0x1.0p-53;
      const auto rank = static_cast<std::uint32_t>(
          std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
      const Addr dest = dest_of_rank(rank);
      sink(dest, source, +1);
      if ((h & 0x3ff) % 1000 < complete_permille_) sink(dest, source, -1);
    }
  }

 private:
  std::uint64_t seed_;
  std::uint32_t pairs_;
  std::uint32_t complete_permille_;
  std::uint32_t flood_;
  std::uint64_t onset_;
  std::vector<double> cdf_;
};

// --- small utilities -------------------------------------------------------

std::uint64_t now_ns() { return obs::steady_now_ns(); }

/// CPU time of the calling thread: unlike a wall-clock span it does not
/// grow while the host deschedules the virtual CPU.
std::uint64_t thread_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1000000000ULL +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

void sleep_until_ns(std::uint64_t t) {
  timespec ts{};
  ts.tv_sec = static_cast<time_t>(t / 1000000000ULL);
  ts.tv_nsec = static_cast<long>(t % 1000000000ULL);
  while (clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr) != 0) {
  }
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

void write_file(const std::string& path, const std::string& body) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << body;
  if (!out) throw std::runtime_error("cannot write " + path);
}

bool file_exists(const std::string& path) {
  struct stat st {};
  return ::stat(path.c_str(), &st) == 0;
}

/// Block until ready() holds, waking on inotify events of `dir`.
bool wait_until(const std::string& dir, const std::function<bool()>& ready,
                int timeout_ms) {
  const int fd = inotify_init1(IN_NONBLOCK | IN_CLOEXEC);
  if (fd >= 0)
    inotify_add_watch(fd, dir.c_str(), IN_MOVED_TO | IN_CLOSE_WRITE | IN_CREATE);
  const std::uint64_t deadline =
      now_ns() + static_cast<std::uint64_t>(timeout_ms) * 1000000ULL;
  bool ok = false;
  for (;;) {
    ok = ready();
    if (ok || now_ns() >= deadline) break;
    pollfd p{fd, POLLIN, 0};
    ::poll(&p, 1, 20);
    char buffer[4096];
    while (fd >= 0 && ::read(fd, buffer, sizeof buffer) > 0) {
    }
  }
  if (fd >= 0) ::close(fd);
  return ok;
}

bool wait_files(const std::string& dir, const std::vector<std::string>& paths,
                int timeout_ms) {
  return wait_until(
      dir, [&] { return std::all_of(paths.begin(), paths.end(), file_exists); },
      timeout_ms);
}

std::uint16_t read_port(const std::string& path) {
  std::ifstream in(path);
  unsigned port = 0;
  in >> port;
  if (port == 0) throw std::runtime_error("no port in " + path);
  return static_cast<std::uint16_t>(port);
}

struct HttpResult {
  int status = 0;
  std::string body;
};

HttpResult http_get(std::uint16_t port, const std::string& target,
                    int timeout_ms = 3000) {
  HttpResult result;
  auto socket = service::tcp_connect("127.0.0.1", port, timeout_ms);
  if (!socket) return result;
  socket->set_timeouts(static_cast<std::uint64_t>(timeout_ms),
                       static_cast<std::uint64_t>(timeout_ms));
  if (!socket->send_all("GET " + target +
                        " HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                        "Connection: close\r\n\r\n"))
    return result;
  std::string response;
  char buffer[64 * 1024];
  for (;;) {
    const service::RecvResult got = socket->recv_some(buffer, sizeof buffer);
    if (got.bytes > 0) response.append(buffer, got.bytes);
    if (got.closed || got.error || got.bytes == 0) break;
  }
  const std::size_t space = response.find(' ');
  const std::size_t head_end = response.find("\r\n\r\n");
  if (space == std::string::npos || head_end == std::string::npos)
    return result;
  result.status = std::atoi(response.c_str() + space + 1);
  result.body = response.substr(head_end + 4);
  return result;
}

/// Unsigned number after `"key": ` (first occurrence), or nullopt.
std::optional<std::uint64_t> json_u64(const std::string& body,
                                      const std::string& key) {
  const std::string needle = "\"" + key + "\": ";
  const std::size_t at = body.find(needle);
  if (at == std::string::npos) return std::nullopt;
  return std::strtoull(body.c_str() + at + needle.size(), nullptr, 10);
}

/// Every `"group": "xxxxxxxx"` of a /topk body, in rank order.
std::vector<Addr> topk_groups(const std::string& body) {
  std::vector<Addr> out;
  const std::string needle = "\"group\": \"";
  for (std::size_t at = body.find(needle); at != std::string::npos;
       at = body.find(needle, at + 1))
    out.push_back(static_cast<Addr>(
        std::strtoul(body.c_str() + at + needle.size(), nullptr, 16)));
  return out;
}

/// Value of an unlabelled sample `name value` in Prometheus text.
std::optional<double> prom_value(const std::string& text,
                                 const std::string& name) {
  const std::string needle = "\n" + name + " ";
  const std::size_t at = text.find(needle);
  if (at == std::string::npos) return std::nullopt;
  return std::strtod(text.c_str() + at + needle.size(), nullptr);
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (c == '\n') {
      out += "\\n";
      continue;
    }
    out += c;
  }
  return out;
}

/// Minimal JSON object writer for gen_result.json.
class Json {
 public:
  Json& num(const std::string& key, double v) {
    char buffer[64];
    std::snprintf(buffer, sizeof buffer, "%.9g", v);
    return raw(key, buffer);
  }
  Json& u64(const std::string& key, std::uint64_t v) {
    return raw(key, std::to_string(v));
  }
  Json& boolean(const std::string& key, bool v) {
    return raw(key, v ? "true" : "false");
  }
  Json& str(const std::string& key, const std::string& v) {
    return raw(key, "\"" + json_escape(v) + "\"");
  }
  Json& raw(const std::string& key, const std::string& v) {
    body_ += (body_.empty() ? "{\n  \"" : ",\n  \"") + key + "\": " + v;
    return *this;
  }
  std::string done() const { return body_.empty() ? "{}" : body_ + "\n}\n"; }

 private:
  std::string body_;
};

template <class T>
std::string json_array(const std::vector<T>& values) {
  std::string out = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i) out += ",";
    std::ostringstream one;
    one.precision(17);
    one << values[i];
    out += one.str();
  }
  return out + "]";
}

// --- daemons -----------------------------------------------------------------

struct Daemon {
  std::string role;
  std::string port_file;
  std::string ops_port_file;  ///< "-" when the daemon has no ops plane.
  std::vector<std::string> argv;
  std::string log;
  pid_t pid = -1;
  std::uint16_t port = 0;
  std::uint16_t ops_port = 0;  ///< HTTP port: ops plane or query server.
  rusage usage{};
  int status = 0;
};

void spawn(Daemon& daemon) {
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_addopen(&actions, 1, daemon.log.c_str(),
                                   O_WRONLY | O_CREAT | O_TRUNC, 0644);
  posix_spawn_file_actions_adddup2(&actions, 1, 2);
  std::vector<char*> argv;
  for (auto& arg : daemon.argv) argv.push_back(arg.data());
  argv.push_back(nullptr);
  const int rc = posix_spawn(&daemon.pid, argv[0], &actions, nullptr,
                             argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  if (rc != 0) throw std::runtime_error("cannot start " + daemon.argv[0]);
}

/// Wait for the daemon to exit within timeout_ms (then SIGKILL it);
/// returns true when it exited by itself with status 0.
bool reap(Daemon& daemon, int timeout_ms) {
  if (daemon.pid <= 0) return true;
  const std::uint64_t deadline =
      now_ns() + static_cast<std::uint64_t>(timeout_ms) * 1000000ULL;
  for (;;) {
    const pid_t got = wait4(daemon.pid, &daemon.status, WNOHANG, &daemon.usage);
    if (got == daemon.pid) break;
    if (now_ns() >= deadline) {
      ::kill(daemon.pid, SIGKILL);
      wait4(daemon.pid, &daemon.status, 0, &daemon.usage);
      daemon.pid = -1;
      return false;
    }
    ::usleep(2000);
  }
  daemon.pid = -1;
  return WIFEXITED(daemon.status) && WEXITSTATUS(daemon.status) == 0;
}

void kill_now(Daemon& daemon) {
  if (daemon.pid <= 0) return;
  ::kill(daemon.pid, SIGKILL);
  wait4(daemon.pid, &daemon.status, 0, &daemon.usage);
  daemon.pid = -1;
}

/// User + system CPU seconds of a live process, from /proc/PID/stat.
double cpu_seconds(pid_t pid) {
  const std::string stat = read_file("/proc/" + std::to_string(pid) + "/stat");
  const std::size_t close = stat.rfind(')');
  if (close == std::string::npos) return 0.0;
  std::istringstream fields(stat.substr(close + 2));
  std::string field;
  double ticks = 0.0;
  for (int i = 0; i < 13 && fields >> field; ++i)
    if (i == 11 || i == 12) ticks += std::stod(field);
  return ticks / static_cast<double>(sysconf(_SC_CLK_TCK));
}

/// The spec's `daemon` lines (restart, role, port file, ops port file,
/// argv...), one set per restart; each daemon logs to DIR/rN-ROLE.log.
std::vector<std::vector<Daemon>> load_daemons(const Spec& spec,
                                              const std::string& dir) {
  std::vector<std::vector<Daemon>> sets;
  for (const auto& line : spec.all("daemon")) {
    Daemon daemon;
    const std::size_t restart = std::stoul(line.at(0));
    daemon.role = line.at(1);
    daemon.port_file = line.at(2);
    daemon.ops_port_file = line.at(3);
    daemon.argv.assign(line.begin() + 4, line.end());
    daemon.log = dir + "/r" + std::to_string(restart) + "-" + daemon.role +
                 ".log";
    if (restart >= sets.size()) sets.resize(restart + 1);
    sets[restart].push_back(std::move(daemon));
  }
  return sets;
}

// --- agents ------------------------------------------------------------------

struct Target {
  std::uint16_t port = 0;
  service::ShardMap map;
};

std::unique_ptr<service::SiteAgent> make_agent(std::uint64_t site,
                                               std::uint64_t first_epoch,
                                               const Target& target) {
  service::SiteAgentConfig config;
  config.site_id = site;
  config.collector_port = target.port;
  config.shard_map = target.map;
  config.first_epoch = first_epoch;
  // Epochs are sealed explicitly on the generator's cadence.
  config.epoch_updates = std::uint64_t{1} << 62;
  return std::make_unique<service::SiteAgent>(config);
}

/// Ingest every update of one epoch and seal it.
void fill_epoch(const Traffic& traffic, service::SiteAgent& agent,
                std::uint32_t site_index, std::uint64_t epoch, bool floods) {
  traffic.emit(site_index, epoch, floods, 0, 1u << 15,
               [&](Addr d, Addr s, int delta) { agent.ingest(d, s, delta); });
  agent.seal_epoch();
}

bool wait_connected(const std::vector<std::unique_ptr<service::SiteAgent>>& agents,
                    int timeout_ms) {
  const std::uint64_t deadline =
      now_ns() + static_cast<std::uint64_t>(timeout_ms) * 1000000ULL;
  for (;;) {
    bool all = true;
    for (const auto& agent : agents) all = all && agent->stats().connected;
    if (all) return true;
    if (now_ns() >= deadline) return false;
    ::usleep(100);
  }
}

// --- seed mode -----------------------------------------------------------------

int run_seed(const Spec& spec) {
  const Traffic traffic(spec);
  const auto sites = spec.u64s("history_sites");
  const std::uint64_t epochs = spec.u64("history_epochs");
  const std::string dir = spec.str("dir");
  const std::string publish_dir = spec.str("publish_dir");
  auto sets = load_daemons(spec, dir);
  if (sets.size() != 1 || sets[0].size() != 1)
    throw std::runtime_error("spec: seeding takes one collector");
  Daemon& collector = sets[0][0];
  struct Killer {
    Daemon& daemon;
    ~Killer() { kill_now(daemon); }
  } killer{collector};
  spawn(collector);
  if (!wait_files(dir, {collector.port_file}, 60000))
    throw std::runtime_error("seeding collector did not come up");
  Target target;
  target.port = read_port(collector.port_file);
  std::vector<std::unique_ptr<service::SiteAgent>> agents;
  for (std::size_t i = 0; i < sites.size(); ++i) {
    agents.push_back(make_agent(sites[i], 1, target));
    agents.back()->start();
  }
  // One epoch per site at a time keeps the spools (and memory) small.
  for (std::uint64_t epoch = 1; epoch <= epochs; ++epoch)
    for (std::size_t i = 0; i < sites.size(); ++i)
      fill_epoch(traffic, *agents[i], static_cast<std::uint32_t>(3 + i), epoch,
                 /*floods=*/false);
  for (auto& agent : agents)
    if (!agent->flush(120000))
      throw std::runtime_error("history not acked");
  for (auto& agent : agents) {
    const auto stats = agent->stats();
    if (stats.epochs_shipped != epochs || stats.epochs_dropped != 0)
      throw std::runtime_error("history ledger mismatch");
  }
  // Abrupt exit (no Bye): the collector is killed once it has published a
  // generation holding every history delta, leaving its checkpoint plus
  // journal tail for the restart. Its first generation, published at start,
  // is empty; a restart that found only that one would serve empty pages
  // until its own first publish.
  agents.clear();
  const query::SnapshotStore store(publish_dir);
  const std::uint64_t history_deltas = sites.size() * epochs;
  std::uint64_t newest = 0;
  bool complete = false;
  if (!wait_until(publish_dir,
                  [&] {
                    const std::uint64_t generation = store.max_generation();
                    if (generation != newest) {
                      newest = generation;
                      const auto snapshot = store.load(generation);
                      complete = snapshot &&
                                 snapshot->deltas_merged == history_deltas;
                    }
                    return complete;
                  },
                  30000))
    throw std::runtime_error(
        "seeding collector published no generation holding the history");
  return 0;
}

// --- run mode ------------------------------------------------------------------

struct Page {
  std::uint64_t due_ns = 0;
  std::uint64_t done_ns = 0;
  std::uint64_t done_unix_ns = 0;
  bool ok = false;
  std::uint64_t generation = 0;
  std::uint64_t watermark = 0;
  std::uint64_t published_unix_ns = 0;
  double topk_us = 0.0;
  double frequency_us = 0.0;  ///< mean over the page's /frequency calls
};

/// The page being read. Its requests go out one per pacing step, so a seal
/// or chunk that falls due in the middle of a page waits for one request,
/// not for the whole page.
struct PageRead {
  Page page;
  bool listed = false;  ///< the /topk request is done
  std::vector<Addr> groups;
  std::size_t next = 0;  ///< next group to ask /frequency for
  std::uint64_t frequency_ns = 0;
  std::uint64_t step_at = 0;  ///< when the previous request finished
};

struct SealRecord {
  std::uint64_t site = 0;
  std::uint64_t epoch = 0;
  std::uint64_t due_unix_ns = 0;
  std::uint64_t root_merged_unix_ns = 0;  ///< 0 unless the root is polled
};

class Runner {
 public:
  explicit Runner(const Spec& spec)
      : spec_(spec),
        traffic_(spec),
        dir_(spec.str("dir")),
        sites_(spec.u64s("sites")),
        history_sites_(spec.u64s("history_sites")),
        history_epochs_(spec.u64("history_epochs")),
        restarts_(spec.u64("restarts")),
        seconds_(spec.u64("seconds")),
        period_ns_(spec.u64("period_ms") * 1000000ULL),
        chunks_(static_cast<std::uint32_t>(spec.u64("chunks"))),
        read_rate_(spec.real("read_rate")),
        capacity_epochs_(spec.u64("capacity_epochs")),
        capacity_rounds_(spec.u64("capacity_rounds")),
        warmup_epochs_(spec.u64("warmup_epochs")),
        traced_(spec.u64("trace") != 0),
        detect_role_(spec.str("detect_role")),
        rng_(mix64(spec.u64("seed") ^ 0x72656164ULL)) {
    daemons_ = load_daemons(spec, dir_);
    if (daemons_.size() != restarts_)
      throw std::runtime_error("spec: daemon sets != restarts");
    for (const auto& line : spec.all("shard_map")) {
      const std::size_t restart = std::stoul(line.at(0));
      shard_maps_[restart] = line.at(1);
      set_leaf_byes(restart);
    }
  }

  ~Runner() {
    agents_.clear();
    for (auto& set : daemons_)
      for (auto& daemon : set) kill_now(daemon);
  }

  int run();

 private:
  Daemon& role(const std::string& name) {
    for (auto& daemon : daemons_.back())
      if (daemon.role == name) return daemon;
    throw std::runtime_error("no daemon with role " + name);
  }
  std::vector<Daemon*> roles_with_prefix(const std::string& prefix) {
    std::vector<Daemon*> out;
    for (auto& daemon : daemons_.back())
      if (daemon.role.rfind(prefix, 0) == 0) out.push_back(&daemon);
    return out;
  }

  Target target_for(std::size_t restart) {
    Target target;
    const auto map = shard_maps_.find(restart);
    if (map != shard_maps_.end()) {
      target.map = service::ShardMap::load_file(map->second);
      target.port = target.map.endpoint_for(sites_.front()).port;
    } else {
      for (const auto& daemon : daemons_[restart])
        if (daemon.role == "collector") target.port = daemon.port;
    }
    return target;
  }

  /// A leaf exits after a Bye from each site it homes, once per phase (the
  /// steady phase and every capacity round). Which sites it homes follows
  /// the restart's shard map, so the count is appended to its argv here.
  void set_leaf_byes(std::size_t restart) {
    const auto map = service::ShardMap::load_file(shard_maps_.at(restart));
    for (auto& daemon : daemons_[restart]) {
      if (daemon.role.rfind("leaf", 0) != 0) continue;
      const auto flag =
          std::find(daemon.argv.begin(), daemon.argv.end(), "--leaf-id");
      if (flag == daemon.argv.end() || flag + 1 == daemon.argv.end())
        throw std::runtime_error("spec: leaf without --leaf-id");
      const std::uint64_t leaf = std::stoull(*(flag + 1));
      const auto homed = std::count_if(
          sites_.begin(), sites_.end(),
          [&](std::uint64_t site) { return map.leaf_for(site) == leaf; });
      if (homed == 0)
        throw std::runtime_error("shard map homes no site on leaf " +
                                 std::to_string(leaf));
      daemon.argv.push_back("--sites");
      daemon.argv.push_back(std::to_string(
          (1 + capacity_rounds_) * static_cast<std::uint64_t>(homed)));
    }
  }

  double start_restart(std::size_t restart);
  void steady_phase();
  /// Issue the next request of reading_, and file the page when it is
  /// the last.
  void read_step();
  void scrape_traces(const std::string& tag);
  void scrape_metrics(const std::string& phase);
  std::uint64_t detect_merged();
  void wait_merged(std::uint64_t target, int timeout_ms);
  void watch_root(std::uint64_t until_ns, bool poll_once);
  void capacity_phase();
  bool final_reads();
  void reference_and_checks(Json& out);
  void replay(Json& out);
  /// Sum of the leaves' uplink spool depths into spool_max_.
  void spool_depth_sample();

  const Spec& spec_;
  Traffic traffic_;
  std::string dir_;
  std::vector<std::uint64_t> sites_;
  std::vector<std::uint64_t> history_sites_;
  std::uint64_t history_epochs_;
  std::uint64_t restarts_;
  std::uint64_t seconds_;
  std::uint64_t period_ns_;
  std::uint32_t chunks_;
  double read_rate_;
  std::uint64_t capacity_epochs_;  ///< per site and round
  std::uint64_t capacity_rounds_;
  /// Steady epochs per site sealed ahead of the measured --seconds: the
  /// first delta a site sends after the restart also pays one-off costs
  /// (connection set-up, first-touch pages in the leaf) that are not
  /// steady-state freshness. run.py leaves them out of the samples.
  std::uint64_t warmup_epochs_;
  bool traced_;
  std::string detect_role_;
  Xoshiro256 rng_;

  std::vector<std::vector<Daemon>> daemons_;
  std::map<std::size_t, std::string> shard_maps_;
  std::vector<std::unique_ptr<service::SiteAgent>> agents_;

  // Steady-phase record.
  std::uint64_t steady_epochs_ = 0;  ///< per site
  std::vector<SealRecord> seals_;
  /// dcs_root serves no /traces: with the root as the detecting tier, its
  /// merge count is polled every millisecond while a steady delta is in
  /// flight. Seals are
  /// staggered far wider than a delta's trip, so the k-th merge after the
  /// steady phase began is the k-th sealed epoch.
  bool poll_root_ = false;
  std::uint64_t base_merged_ = 0;
  std::uint64_t root_matched_ = 0;
  std::deque<std::size_t> inflight_;
  std::optional<PageRead> reading_;
  std::vector<Page> pages_;
  std::vector<double> late_ms_;
  /// Per site: agent CPU time and updates of the epoch being ingested; at
  /// each seal they become one sample of agent ns per update.
  std::vector<std::uint64_t> epoch_agent_ns_;
  std::vector<std::uint64_t> epoch_updates_;
  std::vector<double> agent_ns_per_update_;
  std::uint64_t ingest_calls_ns_ = 0;
  std::uint64_t ingest_calls_ = 0;
  std::vector<double> seal_ms_;
  std::vector<double> ship_wait_ms_;
  std::uint64_t wire_bytes_ = 0;
  std::uint64_t wire_deltas_ = 0;
  std::uint64_t trace_dumps_ = 0;
  std::uint64_t spool_max_ = 0;
  bool agents_clean_ = true;
  std::string final_topk_;
  std::string final_alerts_;
  std::vector<double> capacity_rounds_s_;
  /// Per round: CPU seconds of each daemon, in spec order.
  std::vector<std::vector<double>> capacity_cpu_s_;
};

double Runner::start_restart(std::size_t restart) {
  auto& set = daemons_[restart];
  const std::uint64_t t0 = now_ns();
  for (auto& daemon : set) spawn(daemon);
  std::vector<std::string> files;
  for (const auto& daemon : set) {
    files.push_back(daemon.port_file);
    if (daemon.ops_port_file != "-") files.push_back(daemon.ops_port_file);
  }
  const std::string run_dir = dir_ + "/r" + std::to_string(restart);
  if (!wait_files(run_dir, files, 60000))
    throw std::runtime_error("daemons of restart " + std::to_string(restart) +
                             " did not come up");
  for (auto& daemon : set) {
    daemon.port = read_port(daemon.port_file);
    daemon.ops_port = daemon.ops_port_file == "-"
                          ? daemon.port
                          : read_port(daemon.ops_port_file);
  }
  const Target target = target_for(restart);
  agents_.clear();
  for (const std::uint64_t site : sites_) {
    agents_.push_back(make_agent(site, 1, target));
    agents_.back()->start();
  }
  if (!wait_connected(agents_, 60000))
    throw std::runtime_error("agents not acked at restart " +
                             std::to_string(restart));
  std::uint16_t query_port = 0;
  for (const auto& daemon : set)
    if (daemon.role == "query") query_port = daemon.port;
  const std::uint64_t deadline = now_ns() + 60000000000ULL;
  while (http_get(query_port, "/topk?k=1").status != 200) {
    if (now_ns() >= deadline)
      throw std::runtime_error("query server serves no generation");
    ::usleep(200);
  }
  return static_cast<double>(now_ns() - t0) / 1e9;
}

void Runner::read_step() {
  PageRead& read = *reading_;
  Page& page = read.page;
  const std::uint16_t port = role("query").port;
  if (!read.listed) {
    read.listed = true;
    const std::uint64_t t0 = now_ns();
    const HttpResult topk = http_get(port, "/topk?k=10");
    page.topk_us = static_cast<double>(now_ns() - t0) / 1e3;
    page.ok = topk.status == 200;
    if (page.ok) {
      const auto generation = json_u64(topk.body, "generation");
      const auto watermark = json_u64(topk.body, "epoch_watermark");
      const auto published = json_u64(topk.body, "published_unix_ns");
      page.ok = generation && watermark && published;
      if (page.ok) {
        page.generation = *generation;
        page.watermark = *watermark;
        page.published_unix_ns = *published;
      }
      read.groups = topk_groups(topk.body);
      page.ok = page.ok && !read.groups.empty();
    }
  } else {
    char target[64];
    std::snprintf(target, sizeof target, "/frequency?key=0x%08x",
                  read.groups[read.next++]);
    const std::uint64_t f0 = now_ns();
    const HttpResult answer = http_get(port, target);
    read.frequency_ns += now_ns() - f0;
    page.ok = page.ok && answer.status == 200 &&
              json_u64(answer.body, "estimate");
  }
  if (read.next < read.groups.size()) {
    read.step_at = now_ns();
    return;
  }
  page.frequency_us =
      read.groups.empty() ? 0.0
                          : static_cast<double>(read.frequency_ns) / 1e3 /
                                static_cast<double>(read.groups.size());
  page.done_ns = now_ns();
  page.done_unix_ns = obs::unix_now_ns();
  pages_.push_back(page);
  reading_.reset();
}

void Runner::scrape_traces(const std::string& tag) {
  const HttpResult traces = http_get(role(detect_role_).ops_port, "/traces");
  write_file(dir_ + "/traces-" + tag + "-" + std::to_string(trace_dumps_++) +
                 ".json",
             traces.status == 200 ? traces.body : "[]");
}

void Runner::scrape_metrics(const std::string& phase) {
  if (!traced_) return;
  for (auto& daemon : daemons_.back()) {
    const HttpResult metrics = http_get(daemon.ops_port, "/metrics");
    write_file(dir_ + "/scrape-" + phase + "-" + daemon.role + ".prom",
               metrics.body);
  }
  write_file(dir_ + "/scrape-" + phase + "-generator.prom",
             obs::to_prometheus(obs::Registry::global().snapshot()));
}

void Runner::spool_depth_sample() {
  std::uint64_t total = 0;
  for (Daemon* leaf : roles_with_prefix("leaf")) {
    const HttpResult metrics = http_get(leaf->ops_port, "/metrics");
    const auto depth = prom_value("\n" + metrics.body,
                                  "dcs_leaf_uplink_spool_depth");
    if (depth) total += static_cast<std::uint64_t>(*depth);
  }
  spool_max_ = std::max(spool_max_, total);
}

std::uint64_t Runner::detect_merged() {
  // The counter is bumped right after detection, and /metrics reads the
  // registry without the state lock, so a poll never waits on a merge.
  const HttpResult metrics = http_get(role(detect_role_).ops_port, "/metrics");
  const auto merged =
      prom_value("\n" + metrics.body, "dcs_collector_deltas_total");
  if (metrics.status != 200 || !merged)
    throw std::runtime_error("detecting tier serves no merge count");
  return static_cast<std::uint64_t>(*merged);
}

void Runner::wait_merged(std::uint64_t target, int timeout_ms) {
  const std::uint64_t deadline =
      now_ns() + static_cast<std::uint64_t>(timeout_ms) * 1000000ULL;
  while (detect_merged() < target) {
    if (now_ns() >= deadline)
      throw std::runtime_error("detecting tier did not merge every delta");
    ::usleep(1000);
  }
}

void Runner::watch_root(std::uint64_t until_ns, bool poll_once) {
  while (!inflight_.empty() && (poll_once || now_ns() + 300000 < until_ns)) {
    poll_once = false;
    const std::uint64_t merged = detect_merged();
    const std::uint64_t seen_unix = obs::unix_now_ns();
    while (merged > base_merged_ + root_matched_ && !inflight_.empty()) {
      seals_[inflight_.front()].root_merged_unix_ns = seen_unix;
      inflight_.pop_front();
      ++root_matched_;
    }
    if (inflight_.empty()) break;
    sleep_until_ns(std::min(now_ns() + 1000000, until_ns));
  }
}

void Runner::steady_phase() {
  const std::size_t n = sites_.size();
  steady_epochs_ = seconds_ * 1000000000ULL / period_ns_ + warmup_epochs_;
  const std::uint64_t start = now_ns() + 20000000ULL;
  const std::uint64_t unix_offset = obs::unix_now_ns() - now_ns();
  const std::uint64_t end =
      start + seconds_ * 1000000000ULL + warmup_epochs_ * period_ns_;
  // Per-site cursor: next (epoch, chunk); chunk == chunks_ means "seal".
  struct Cursor {
    std::uint64_t epoch = 1;
    std::uint32_t chunk = 0;
  };
  std::vector<Cursor> cursors(n);
  epoch_agent_ns_.assign(n, 0);
  epoch_updates_.assign(n, 0);
  const auto event_time = [&](std::size_t s) {
    const std::uint64_t epoch_start =
        start + s * period_ns_ / n + (cursors[s].epoch - 1) * period_ns_;
    return epoch_start + cursors[s].chunk * period_ns_ / chunks_;
  };
  const auto next_read = [&](std::uint64_t from) {
    const double u = (static_cast<double>(rng_() >> 11) + 0.5) * 0x1.0p-53;
    return from + static_cast<std::uint64_t>(-std::log(u) / read_rate_ * 1e9);
  };
  std::uint64_t read_at = next_read(start);
  std::uint64_t scrape_at = start + 1000000000ULL;
  poll_root_ = detect_role_ == "root";
  base_merged_ = detect_merged();
  for (;;) {
    // Earliest pending event; sites first on ties, then a new page or the
    // open page's next request, scrapes last.
    std::size_t site = n;
    std::uint64_t at = UINT64_MAX;
    for (std::size_t s = 0; s < n; ++s)
      if (cursors[s].epoch <= steady_epochs_ && event_time(s) < at) {
        at = event_time(s);
        site = s;
      }
    int kind = site < n ? 0 : -1;
    if (!reading_ && read_at < end && read_at < at) {
      at = read_at;
      kind = 1;
    }
    if (reading_ && reading_->step_at < at) {
      at = reading_->step_at;
      kind = 3;
    }
    if (scrape_at < end && scrape_at < at) {
      at = scrape_at;
      kind = 2;
    }
    if (kind < 0) break;
    // A page's next request is due at once: poll the root before it, so a
    // page never holds a merge stamp back by more than one request.
    if (poll_root_) watch_root(at, kind == 3);
    if (kind == 3) {
      read_step();
      continue;
    }
    sleep_until_ns(at);
    late_ms_.push_back(static_cast<double>(now_ns() - at) / 1e6);
    if (kind == 1) {
      reading_.emplace();
      reading_->page.due_ns = at;
      read_step();
      read_at = next_read(read_at);
      continue;
    }
    if (kind == 2) {
      if (!poll_root_) scrape_traces("steady");
      if (traced_) spool_depth_sample();
      scrape_at += 1000000000ULL;
      continue;
    }
    Cursor& cursor = cursors[site];
    service::SiteAgent& agent = *agents_[site];
    if (cursor.chunk < chunks_) {
      const std::uint32_t count = traffic_.pair_count(cursor.epoch, true);
      const std::uint32_t begin = count * cursor.chunk / chunks_;
      const std::uint32_t stop = count * (cursor.chunk + 1) / chunks_;
      std::vector<FlowUpdate> chunk;
      traffic_.emit(static_cast<std::uint32_t>(site), cursor.epoch, true, begin,
                    stop, [&](Addr d, Addr s, int delta) {
                      chunk.push_back(FlowUpdate{s, d,
                                                 static_cast<std::int8_t>(delta)});
                    });
      const std::uint64_t t0 = now_ns();
      const std::uint64_t cpu0 = thread_cpu_ns();
      for (const FlowUpdate& u : chunk) agent.ingest(u.dest, u.source, u.delta);
      const std::uint64_t spent = now_ns() - t0;
      epoch_agent_ns_[site] += thread_cpu_ns() - cpu0;
      epoch_updates_[site] += chunk.size();
      ingest_calls_ns_ += spent;
      ingest_calls_ += chunk.size();
      ++cursor.chunk;
      continue;
    }
    const std::uint64_t t0 = now_ns();
    const std::uint64_t cpu0 = thread_cpu_ns();
    agent.seal_epoch();
    const std::uint64_t spent = now_ns() - t0;
    agent_ns_per_update_.push_back(
        static_cast<double>(epoch_agent_ns_[site] + thread_cpu_ns() - cpu0) /
        static_cast<double>(epoch_updates_[site]));
    epoch_agent_ns_[site] = 0;
    epoch_updates_[site] = 0;
    seal_ms_.push_back(static_cast<double>(spent) / 1e6);
    seals_.push_back({sites_[site], cursor.epoch, at + unix_offset, 0});
    if (poll_root_) inflight_.push_back(seals_.size() - 1);
    ++cursor.epoch;
    cursor.chunk = 0;
  }
}

void Runner::capacity_phase() {
  const std::size_t n = sites_.size();
  const Target target = target_for(restarts_ - 1);
  std::vector<pid_t> pids;
  for (auto& daemon : daemons_.back()) pids.push_back(daemon.pid);
  for (std::uint64_t round = 0; round < capacity_rounds_; ++round) {
    const std::uint64_t first = steady_epochs_ + 1 + round * capacity_epochs_;
    // Pre-fill every spool before any agent connects, so the generator's
    // own sealing never paces the round.
    agents_.clear();
    for (std::size_t s = 0; s < n; ++s) {
      agents_.push_back(make_agent(sites_[s], first, target));
      for (std::uint64_t e = first; e < first + capacity_epochs_; ++e)
        fill_epoch(traffic_, *agents_[s], static_cast<std::uint32_t>(s), e,
                   true);
    }
    std::vector<double> cpu;
    for (const pid_t pid : pids) cpu.push_back(cpu_seconds(pid));
    const std::uint64_t t0 = now_ns();
    for (auto& agent : agents_) agent->start();
    for (auto& agent : agents_) {
      while (!agent->flush(50)) {
        if (now_ns() - t0 > 120000000000ULL)
          throw std::runtime_error("capacity round did not drain");
        if (traced_) spool_depth_sample();
      }
    }
    wait_merged(base_merged_ + n * (first + capacity_epochs_ - 1), 120000);
    const std::uint64_t t1 = now_ns();
    for (std::size_t i = 0; i < pids.size(); ++i)
      cpu[i] = cpu_seconds(pids[i]) - cpu[i];
    capacity_rounds_s_.push_back(static_cast<double>(t1 - t0) / 1e9);
    capacity_cpu_s_.push_back(std::move(cpu));
    for (auto& agent : agents_) {
      const auto stats = agent->stats();
      agents_clean_ = agents_clean_ && stats.epochs_dropped == 0 &&
                      stats.epochs_shipped == capacity_epochs_ &&
                      stats.epochs_sealed == capacity_epochs_ &&
                      !stats.rejected;
      for (const auto& trace : agent->traces()) {
        wire_bytes_ += trace.bytes;
        ++wire_deltas_;
      }
    }
    // The last round's agents stay connected for the scrapes that follow.
    if (round + 1 < capacity_rounds_)
      for (auto& agent : agents_) agent->stop(10000);
  }
}

bool Runner::final_reads() {
  // The publishing daemon writes one last generation on its way out; read
  // the query tier once it serves that generation.
  const std::string publish_dir = spec_.str("publish_dir");
  const std::uint16_t port = role("query").port;
  const std::uint64_t deadline = now_ns() + 30000000000ULL;
  for (;;) {
    std::uint64_t newest = 0;
    const query::SnapshotStore store(publish_dir);
    for (const std::uint64_t g : store.generations()) newest = std::max(newest, g);
    const HttpResult topk = http_get(port, "/topk?k=10");
    if (topk.status == 200 && json_u64(topk.body, "generation") == newest) {
      final_topk_ = topk.body;
      final_alerts_ = http_get(port, "/alerts").body;
      return true;
    }
    if (now_ns() >= deadline) return false;
    ::usleep(20000);
  }
}

void Runner::reference_and_checks(Json& out) {
  // The reference: one sketch fed every update of every site.
  DistinctCountSketch reference{DcsParams{}};
  std::unordered_map<Addr, std::uint64_t> exact;
  std::vector<FlowUpdate> batch;
  const auto feed = [&](std::uint32_t site_index, std::uint64_t epoch,
                        bool floods) {
    batch.clear();
    traffic_.emit(site_index, epoch, floods, 0, 1u << 15,
                  [&](Addr d, Addr s, int delta) {
                    batch.push_back(FlowUpdate{s, d,
                                               static_cast<std::int8_t>(delta)});
                  });
    reference.update_batch(batch);
    // Sources are unique per pair, so a destination's exact distinct-source
    // count is the number of its pairs whose updates do not cancel.
    std::unordered_map<std::uint64_t, int> net;
    for (const FlowUpdate& u : batch)
      net[(static_cast<std::uint64_t>(u.dest) << 32) | u.source] += u.delta;
    for (const auto& [pair, count] : net)
      if (count > 0) ++exact[static_cast<Addr>(pair >> 32)];
  };
  for (std::size_t h = 0; h < history_sites_.size(); ++h)
    for (std::uint64_t e = 1; e <= history_epochs_; ++e)
      feed(static_cast<std::uint32_t>(3 + h), e, false);
  for (std::size_t s = 0; s < sites_.size(); ++s)
    for (std::uint64_t e = 1;
         e <= steady_epochs_ + capacity_epochs_ * capacity_rounds_; ++e)
      feed(static_cast<std::uint32_t>(s), e, true);

  // Linearity: the detecting tier's durable state equals the reference.
  const service::CheckpointStore store(spec_.str("detect_state_dir"));
  const auto loaded = store.load_latest();
  const bool linear = loaded && loaded->sketch == reference;
  // Self-test of this check: one perturbed bucket must break equality.
  DistinctCountSketch flipped = reference;
  flipped.apply_to_table(0, 0, pack_pair(Traffic::flood_dest(), 1), +1);
  const bool flip_caught = !(loaded && loaded->sketch == flipped);
  out.boolean("linear", linear).boolean("linear_selftest_caught", flip_caught);

  std::string ledger = "[";
  if (loaded)
    for (const auto& site : loaded->sites) {
      if (ledger.size() > 1) ledger += ",";
      ledger += "{\"site\": " + std::to_string(site.site_id) +
                ", \"last_epoch\": " + std::to_string(site.last_epoch) +
                ", \"epochs_merged\": " + std::to_string(site.epochs_merged) +
                ", \"dropped\": " + std::to_string(site.dropped_epochs) + "}";
    }
  out.raw("merged_ledger", ledger + "]");

  std::vector<std::pair<Addr, std::uint64_t>> ranked(exact.begin(), exact.end());
  std::sort(ranked.begin(), ranked.end(), [](const auto& a, const auto& b) {
    return a.second != b.second ? a.second > b.second : a.first < b.first;
  });
  std::string top = "[";
  for (std::size_t i = 0; i < std::min<std::size_t>(10, ranked.size()); ++i) {
    char buffer[96];
    std::snprintf(buffer, sizeof buffer, "%s[\"%08x\", %llu]", i ? ", " : "",
                  ranked[i].first,
                  static_cast<unsigned long long>(ranked[i].second));
    top += buffer;
  }
  char flood[16];
  std::snprintf(flood, sizeof flood, "%08x", Traffic::flood_dest());
  out.raw("exact_top", top + "]")
      .str("flood_dest", flood)
      .num("epsilon", DcsParams{}.epsilon);
}

void Runner::replay(Json& out) {
  // One steady-phase delta (the middle epoch of the first site) through
  // each layer's public calls, in-process. Timings are medians of repeats.
  const auto median_of = [](int repeats, const std::function<void()>& call) {
    std::vector<double> ms;
    for (int i = 0; i < repeats; ++i) {
      const std::uint64_t t0 = now_ns();
      call();
      ms.push_back(static_cast<double>(now_ns() - t0) / 1e6);
    }
    std::sort(ms.begin(), ms.end());
    return ms[ms.size() / 2];
  };
  const std::uint64_t epoch = std::max<std::uint64_t>(1, steady_epochs_ / 2);
  DistinctCountSketch delta{DcsParams{}};
  traffic_.emit(0, epoch, true, 0, 1u << 15,
                [&](Addr d, Addr s, int v) { delta.update(d, s, v); });
  std::string blob;
  const double serialize_ms = median_of(5, [&] {
    std::ostringstream os(std::ios::binary);
    BinaryWriter writer(os);
    delta.serialize(writer);
    blob = std::move(os).str();
  });
  const double deserialize_ms = median_of(5, [&] {
    std::istringstream is(blob, std::ios::binary);
    BinaryReader reader(is);
    (void)DistinctCountSketch::deserialize(reader);
  });
  volatile std::uint32_t sink = 0;
  const double crc_ms =
      median_of(5, [&] { sink = crc32(blob.data(), blob.size()); });
  (void)sink;

  service::SnapshotDelta message;
  message.site_id = sites_.front();
  message.epoch = epoch;
  message.sketch_blob = blob;
  std::string frame;
  const double encode_ms = median_of(5, [&] {
    frame = service::encode_frame(service::MsgType::kSnapshotDelta,
                                  message.encode());
  });
  const double decode_ms = median_of(5, [&] {
    service::FrameDecoder decoder;
    decoder.feed(frame.data(), frame.size());
    const auto decoded = decoder.next();
    (void)service::SnapshotDelta::decode(decoded->payload, decoded->version);
  });

  // Merge and detection against the run's merged state.
  const service::CheckpointStore store(spec_.str("detect_state_dir"));
  const auto loaded = store.load_latest();
  TrackingDcs merged(loaded ? loaded->sketch : DistinctCountSketch{DcsParams{}});
  const double merge_ms = median_of(5, [&] { merged.merge_sketch(delta); });
  BaselineDetector detector;
  const auto entries = merged.top_k(5).entries;
  const double observe_ms = median_of(
      21, [&] { detector.observe(entries, 1); });

  // Journal append (its fsync reported apart) in the run directory.
  std::vector<double> append_ms;
  {
    service::EpochJournal journal =
        service::EpochJournal::open(dir_ + "/replay.dcsj");
    for (int i = 0; i < 5; ++i) {
      std::uint64_t fsync_ns = 0;
      const std::uint64_t t0 = now_ns();
      journal.append({message.site_id, epoch, 0, blob}, &fsync_ns);
      append_ms.push_back(static_cast<double>(now_ns() - t0 - fsync_ns) / 1e6);
    }
  }
  std::sort(append_ms.begin(), append_ms.end());

  // Recovery from the pristine seeded state: checkpoint load, then each
  // journal-tail record decoded and merged.
  const service::CheckpointStore seeded(spec_.str("seed_state_dir"));
  std::optional<service::CheckpointState> seeded_state;
  const double load_ms =
      median_of(3, [&] { seeded_state = seeded.load_latest(); });
  double replay_ms = 0.0;
  std::uint64_t records = 0;
  if (seeded_state) {
    TrackingDcs recovering(seeded_state->sketch);
    const std::uint64_t t0 = now_ns();
    for (const std::uint64_t gen : seeded.journal_generations()) {
      const auto replayed =
          service::EpochJournal::replay(seeded.journal_path(gen));
      for (const auto& record : replayed.records) {
        std::istringstream is(record.sketch_blob, std::ios::binary);
        BinaryReader reader(is);
        recovering.merge_sketch(DistinctCountSketch::deserialize(reader));
        ++records;
      }
    }
    replay_ms = static_cast<double>(now_ns() - t0) / 1e6;
  }

  // Query tier: encode one generation of the run's final state.
  double query_encode_ms = 0.0;
  if (loaded) {
    query::QuerySnapshot snapshot;
    snapshot.generation = 1;
    snapshot.checkpoint = *loaded;
    snapshot.top_k = merged.top_k(10);
    query_encode_ms =
        median_of(3, [&] { (void)query::SnapshotStore::encode(snapshot); });
  }

  // Relay: one leaf uplink to an in-process root, offer to root ack. The
  // root journals (and fsyncs) every relayed delta, as dcs_root does.
  double relay_ms = 0.0;
  {
    service::CollectorConfig root_config;
    root_config.federation_root = true;
    root_config.run_detection = true;
    root_config.state_dir = dir_ + "/replay-root";
    service::Collector root(root_config);
    root.start();
    service::LeafUplinkConfig uplink_config;
    uplink_config.leaf_id = 900001;
    uplink_config.root_port = root.port();
    service::LeafUplink uplink(uplink_config);
    uplink.start();
    std::vector<double> ms;
    for (std::uint64_t e = 1; e <= 5; ++e) {
      const std::uint64_t t0 = now_ns();
      uplink.offer(message.site_id, e, 0, blob, false);
      uplink.flush(30000);
      ms.push_back(static_cast<double>(now_ns() - t0) / 1e6);
    }
    uplink.stop(5000);
    root.stop();
    std::sort(ms.begin(), ms.end());
    relay_ms = ms[ms.size() / 2];
  }

  out.num("replay_serialize_ms", serialize_ms)
      .num("replay_deserialize_ms", deserialize_ms)
      .num("replay_crc_ms", crc_ms)
      .u64("replay_levels", static_cast<std::uint64_t>(delta.allocated_levels()))
      .u64("replay_blob_bytes", blob.size())
      .num("replay_wire_encode_ms", encode_ms)
      .num("replay_wire_decode_ms", decode_ms)
      .num("replay_merge_ms", merge_ms)
      .num("replay_observe_us", observe_ms * 1e3)
      .num("replay_journal_append_ms", append_ms[append_ms.size() / 2])
      .num("replay_recovery_load_ms", load_ms)
      .num("replay_recovery_ms_per_record",
           records ? replay_ms / static_cast<double>(records) : 0.0)
      .u64("replay_recovery_records", records)
      .num("replay_query_encode_ms", query_encode_ms)
      .num("replay_relay_ms", relay_ms);
}

int Runner::run() {
  Json out;
  const std::uint64_t run_start = now_ns();
  const auto phase_done = [&](const char* phase) {
    std::fprintf(stderr, "perfbench_gen: %-10s done at %.2f s\n", phase,
                 static_cast<double>(now_ns() - run_start) / 1e9);
  };
  std::vector<double> setup_s;
  for (std::size_t r = 0; r < restarts_; ++r) {
    setup_s.push_back(start_restart(r));
    if (r + 1 < restarts_) {
      agents_.clear();
      for (auto& daemon : daemons_[r]) kill_now(daemon);
    }
  }
  out.raw("setup_s", json_array(setup_s));
  phase_done("restarts");

  steady_phase();
  phase_done("steady");
  // Drain: every steady epoch acked, then merged at the detecting tier.
  for (auto& agent : agents_)
    if (!agent->flush(60000))
      throw std::runtime_error("steady phase did not drain");
  if (poll_root_) watch_root(now_ns() + 60000000000ULL, false);
  wait_merged(base_merged_ + sites_.size() * steady_epochs_, 60000);
  if (!poll_root_) scrape_traces("final");
  for (auto& agent : agents_) {
    const auto stats = agent->stats();
    agents_clean_ = agents_clean_ && stats.epochs_dropped == 0 &&
                    stats.epochs_shipped == stats.epochs_sealed &&
                    stats.epochs_sealed == steady_epochs_ && !stats.rejected;
    for (const auto& trace : agent->traces()) {
      wire_bytes_ += trace.bytes;
      ++wire_deltas_;
      const auto sealed = trace.stamp(obs::TraceStage::kSealed);
      const auto shipped = trace.stamp(obs::TraceStage::kShipped);
      if (sealed && shipped >= sealed)
        ship_wait_ms_.push_back(static_cast<double>(shipped - sealed) / 1e6);
    }
  }
  scrape_metrics("steady");
  for (auto& agent : agents_) agent->stop(10000);

  capacity_phase();
  phase_done("capacity");
  scrape_metrics("capacity");
  const HttpResult health = http_get(role(detect_role_).ops_port, "/healthz");
  out.str("detect_healthz", health.body);
  for (auto& agent : agents_) agent->stop(10000);
  agents_.clear();

  // Every daemon but the query server exits once its peers said Bye.
  bool clean_exit = true;
  std::string rss = "{";
  double peak_rss_kib = 0.0;
  for (auto& daemon : daemons_.back()) {
    if (daemon.role == "query") continue;
    clean_exit = reap(daemon, 60000) && clean_exit;
    peak_rss_kib += static_cast<double>(daemon.usage.ru_maxrss);
    rss += std::string(rss.size() > 1 ? ", " : "") + "\"" + daemon.role +
           "\": " + std::to_string(daemon.usage.ru_maxrss);
  }
  phase_done("exit");
  const bool final_ok = final_reads();
  Daemon& query_daemon = role("query");
  ::kill(query_daemon.pid, SIGTERM);
  clean_exit = reap(query_daemon, 30000) && clean_exit;
  peak_rss_kib += static_cast<double>(query_daemon.usage.ru_maxrss);
  rss += ", \"query\": " + std::to_string(query_daemon.usage.ru_maxrss) + "}";

  // CPU per capacity round, one object per round keyed by daemon role.
  std::string cpu = "[";
  for (const auto& round : capacity_cpu_s_) {
    cpu += cpu.size() > 1 ? ", {" : "{";
    for (std::size_t i = 0; i < daemons_.back().size(); ++i)
      cpu += std::string(i ? ", " : "") + "\"" + daemons_.back()[i].role +
             "\": " + std::to_string(round.at(i));
    cpu += "}";
  }
  cpu += "]";

  std::string pages = "[";
  for (std::size_t i = 0; i < pages_.size(); ++i) {
    const Page& p = pages_[i];
    char buffer[320];
    std::snprintf(buffer, sizeof buffer,
                  "%s[%llu, %llu, %llu, %d, %llu, %llu, %llu, %.3f, %.3f]",
                  i ? ",\n    " : "", static_cast<unsigned long long>(p.due_ns),
                  static_cast<unsigned long long>(p.done_ns),
                  static_cast<unsigned long long>(p.done_unix_ns), p.ok ? 1 : 0,
                  static_cast<unsigned long long>(p.generation),
                  static_cast<unsigned long long>(p.watermark),
                  static_cast<unsigned long long>(p.published_unix_ns),
                  p.topk_us, p.frequency_us);
    pages += buffer;
  }
  std::string seals = "[";
  for (std::size_t i = 0; i < seals_.size(); ++i) {
    seals += (i ? ",\n    [" : "[") + std::to_string(seals_[i].site) + ", " +
             std::to_string(seals_[i].epoch) + ", " +
             std::to_string(seals_[i].due_unix_ns) + ", " +
             std::to_string(seals_[i].root_merged_unix_ns) + "]";
  }
  out.u64("steady_epochs", steady_epochs_)
      .u64("capacity_epochs", capacity_epochs_ * capacity_rounds_)
      .u64("capacity_round_epochs", capacity_epochs_)
      .raw("seals", seals + "]")
      .raw("pages", pages + "]")
      .raw("agent_ns_per_update", json_array(agent_ns_per_update_))
      .num("agent_ingest_ns",
           static_cast<double>(ingest_calls_ns_) /
               static_cast<double>(ingest_calls_))
      .u64("agent_updates", ingest_calls_)
      .raw("seal_ms", json_array(seal_ms_))
      .raw("ship_wait_ms", json_array(ship_wait_ms_))
      .raw("late_ms", json_array(late_ms_))
      .num("wire_kib_per_delta", static_cast<double>(wire_bytes_) / 1024.0 /
                                     static_cast<double>(wire_deltas_))
      .u64("wire_deltas", wire_deltas_)
      .raw("capacity_round_s", json_array(capacity_rounds_s_))
      .raw("capacity_round_cpu_s", cpu)
      .raw("peak_rss_kib", rss)
      .num("peak_rss_kib_total", peak_rss_kib)
      .u64("uplink_spool_max", spool_max_)
      .boolean("agents_clean", agents_clean_)
      .boolean("daemons_clean_exit", clean_exit)
      .boolean("final_read_ok", final_ok)
      .str("final_topk", final_topk_)
      .str("final_alerts", final_alerts_)
      .u64("history_epochs", history_epochs_)
      .raw("history_sites", json_array(history_sites_))
      .raw("sites", json_array(sites_))
      .u64("onset", spec_.u64("onset"));
  phase_done("reads");
  reference_and_checks(out);
  phase_done("reference");
  if (traced_) replay(out);
  phase_done("replay");
  write_file(dir_ + "/gen_result.json", out.done());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::signal(SIGPIPE, SIG_IGN);
  if (argc != 3) {
    std::fprintf(stderr, "usage: perfbench_gen <seed|run> SPEC\n");
    return 2;
  }
  try {
    const Spec spec(argv[2]);
    const std::string mode = argv[1];
    if (mode == "seed") return run_seed(spec);
    if (mode == "run") {
      Runner runner(spec);
      return runner.run();
    }
    std::fprintf(stderr, "perfbench_gen: unknown mode %s\n", mode.c_str());
    return 2;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "perfbench_gen: %s\n", error.what());
    return 1;
  }
}
