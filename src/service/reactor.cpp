#include "service/reactor.hpp"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <mutex>
#include <stdexcept>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <unistd.h>
#include <unordered_map>
#include <utility>
#include <vector>

#include "obs/instruments.hpp"
#include "obs/metrics.hpp"

namespace dcs::service {

using Clock = std::chrono::steady_clock;

/// One reactor-owned connection. Lives on exactly one worker; nothing here
/// is shared between threads, so no per-connection locking.
struct Reactor::Conn {
  TcpSocket socket;
  FrameDecoder decoder;
  PeerState peer;
  /// Reply bytes queued but not yet accepted by the kernel. out_off tracks
  /// the flushed prefix; the buffer compacts when fully drained.
  std::string out;
  std::size_t out_off = 0;
  bool want_write = false;
  /// Deadline bookkeeping: frame_start marks when the oldest incomplete
  /// frame began arriving and is NOT refreshed by later bytes (slow-loris
  /// defense); last_activity is refreshed by any bytes and backs the idle
  /// reaper.
  bool frame_pending = false;
  Clock::time_point frame_start{};
  Clock::time_point last_activity{};
};

/// One epoll worker: its own epoll set, wakeup eventfd, and connection
/// table keyed by fd. Other threads only ever touch `pending` (under
/// `mutex`), `dealt` and the eventfd — everything else is worker-thread
/// private.
struct Reactor::Worker {
  int epoll_fd = -1;
  int event_fd = -1;
  std::thread thread;
  std::unordered_map<int, std::unique_ptr<Conn>> conns;
  std::mutex mutex;
  std::vector<TcpSocket> pending;
  /// Connections dealt to this worker and not yet dropped (pending ones
  /// included): the acceptor deals to the smallest.
  std::atomic<std::size_t> dealt{0};
  Clock::time_point last_sweep{};

  ~Worker() {
    if (epoll_fd >= 0) ::close(epoll_fd);
    if (event_fd >= 0) ::close(event_fd);
  }
};

namespace {

void signal_eventfd(int fd) {
  const std::uint64_t one = 1;
  // write(2) on an eventfd can only fail with EAGAIN when the counter is
  // already saturated — which still wakes the epoll, so ignore it.
  [[maybe_unused]] ssize_t rc = ::write(fd, &one, sizeof one);
}

void drain_eventfd(int fd) {
  std::uint64_t value = 0;
  [[maybe_unused]] ssize_t rc = ::read(fd, &value, sizeof value);
}

}  // namespace

int default_reactor_workers() {
  return std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
}

Reactor::Reactor(ReactorConfig config, FrameHandler& handler)
    : config_(config), handler_(handler) {
  if (config_.workers < 1)
    throw std::invalid_argument("Reactor: workers must be >= 1");
  if (config_.tick_ms < 1) config_.tick_ms = 1;
}

Reactor::~Reactor() { stop(); }

void Reactor::start(TcpListener& listener) {
  if (running_.load(std::memory_order_acquire)) return;
  listener_ = &listener;
  workers_.clear();
  for (int i = 0; i < config_.workers; ++i) {
    auto worker = std::make_unique<Worker>();
    worker->epoll_fd = ::epoll_create1(EPOLL_CLOEXEC);
    worker->event_fd = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
    if (worker->epoll_fd < 0 || worker->event_fd < 0)
      throw std::runtime_error("Reactor: epoll/eventfd setup failed");
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = worker->event_fd;
    if (::epoll_ctl(worker->epoll_fd, EPOLL_CTL_ADD, worker->event_fd, &ev) !=
        0)
      throw std::runtime_error("Reactor: cannot register eventfd");
    workers_.push_back(std::move(worker));
  }
  // Worker 0 doubles as the acceptor: the listener joins its epoll set.
  {
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = listener.fd();
    if (::epoll_ctl(workers_[0]->epoll_fd, EPOLL_CTL_ADD, listener.fd(),
                    &ev) != 0)
      throw std::runtime_error("Reactor: cannot register listener");
  }
  running_.store(true, std::memory_order_release);
  for (auto& worker : workers_) {
    Worker* w = worker.get();
    w->last_sweep = Clock::now();
    w->thread = std::thread([this, w] { worker_loop(*w); });
  }
}

void Reactor::stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) return;
  for (auto& worker : workers_) signal_eventfd(worker->event_fd);
  for (auto& worker : workers_)
    if (worker->thread.joinable()) worker->thread.join();
  // Tear down whatever was still connected; the workers are gone, so the
  // tables are safe to touch from here.
  for (auto& worker : workers_) {
    for (auto& [fd, conn] : worker->conns) {
      conn->socket.shutdown();
      handler_.on_disconnect(conn->peer);
      connections_.fetch_sub(1, std::memory_order_acq_rel);
      if (obs::recording()) obs::ReactorMetrics::get().connections.add(-1);
    }
    worker->conns.clear();
    std::lock_guard<std::mutex> lock(worker->mutex);
    worker->pending.clear();
  }
  workers_.clear();
  listener_ = nullptr;
}

void Reactor::worker_loop(Worker& worker) {
  constexpr int kMaxEvents = 64;
  epoll_event events[kMaxEvents];
  const bool acceptor = &worker == workers_[0].get();
  while (running_.load(std::memory_order_acquire)) {
    const int n =
        ::epoll_wait(worker.epoll_fd, events, kMaxEvents, config_.tick_ms);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;  // epoll fd gone — only possible mid-shutdown
    }
    if (obs::recording()) obs::ReactorMetrics::get().wakeups.inc();
    for (int i = 0; i < n; ++i) {
      const int fd = events[i].data.fd;
      if (fd == worker.event_fd) {
        drain_eventfd(worker.event_fd);
        std::vector<TcpSocket> adopted;
        {
          std::lock_guard<std::mutex> lock(worker.mutex);
          adopted.swap(worker.pending);
        }
        for (auto& socket : adopted) adopt(worker, std::move(socket));
        continue;
      }
      if (acceptor && listener_ && fd == listener_->fd()) {
        accept_ready(worker);
        continue;
      }
      // A connection event. The fd may already be gone if an earlier event
      // in this batch dropped it; epoll delivers at most one entry per fd
      // per wait, but the lookup guards against kernel-vs-table skew.
      auto it = worker.conns.find(fd);
      if (it == worker.conns.end()) continue;
      Conn& conn = *it->second;
      bool alive = true;
      if (events[i].events & EPOLLOUT) alive = flush_out(worker, conn);
      if (alive && (events[i].events & (EPOLLIN | EPOLLHUP | EPOLLERR)))
        alive = read_ready(worker, conn);
      if (!alive) drop(worker, fd, conn);
    }
    // Deadline/idle sweep, throttled to the tick so a peer that never
    // triggers another wakeup still dies on time.
    const Clock::time_point now = Clock::now();
    if (now - worker.last_sweep >= std::chrono::milliseconds(config_.tick_ms)) {
      worker.last_sweep = now;
      sweep_deadlines(worker);
    }
  }
}

void Reactor::accept_ready(Worker& worker) {
  // Drain the accept queue completely: with level-triggered epoll one
  // wakeup may announce many queued connections after a burst.
  while (running_.load(std::memory_order_acquire)) {
    auto socket = listener_->accept_now();
    if (!socket) break;
    socket->set_nonblocking(true);
    if (obs::recording()) obs::ReactorMetrics::get().accepts.inc();
    Worker* target = workers_[0].get();
    for (auto& candidate : workers_)
      if (candidate->dealt.load() < target->dealt.load())
        target = candidate.get();
    ++target->dealt;
    if (target == &worker) {
      adopt(worker, std::move(*socket));
    } else {
      {
        std::lock_guard<std::mutex> lock(target->mutex);
        target->pending.push_back(std::move(*socket));
      }
      signal_eventfd(target->event_fd);
    }
  }
}

void Reactor::adopt(Worker& worker, TcpSocket socket) {
  const int fd = socket.fd();
  if (fd < 0) {
    --worker.dealt;
    return;
  }
  auto conn = std::make_unique<Conn>();
  conn->socket = std::move(socket);
  if (config_.max_frame_bytes != 0)
    conn->decoder.set_max_payload(config_.max_frame_bytes);
  conn->last_activity = Clock::now();
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = fd;
  if (::epoll_ctl(worker.epoll_fd, EPOLL_CTL_ADD, fd, &ev) != 0) {
    --worker.dealt;
    return;
  }
  worker.conns.emplace(fd, std::move(conn));
  connections_.fetch_add(1, std::memory_order_acq_rel);
  if (obs::recording()) obs::ReactorMetrics::get().connections.add(1);
}

bool Reactor::read_ready(Worker& worker, Conn& conn) {
  char buffer[64 * 1024];
  std::uint64_t frames_this_wakeup = 0;
  bool saw_eof = false;
  // Drain until EAGAIN: with level-triggered epoll this is an optimization
  // (fewer wakeups), and it defines the per-wakeup frame batch.
  for (;;) {
    const RecvResult got = conn.socket.recv_some(buffer, sizeof buffer);
    if (got.error) return false;
    if (got.closed) {
      saw_eof = true;
      break;
    }
    if (got.timed_out || got.bytes == 0) break;  // EAGAIN — drained
    const Clock::time_point now = Clock::now();
    conn.last_activity = now;
    if (!conn.frame_pending) {
      conn.frame_pending = true;
      conn.frame_start = now;
    }
    conn.decoder.feed(buffer, got.bytes);
    try {
      while (auto frame = conn.decoder.next()) {
        ++frames_this_wakeup;
        const std::string reply = handler_.on_frame(
            conn.peer, frame->type, frame->version, frame->payload);
        if (!reply.empty()) conn.out.append(reply);
      }
      if (conn.decoder.buffered() == 0) conn.frame_pending = false;
    } catch (const WireError&) {
      handler_.on_frame_error();
      return false;
    }
  }
  if (obs::recording() && frames_this_wakeup > 0)
    obs::ReactorMetrics::get().frames_per_wakeup.observe(frames_this_wakeup);
  if (!flush_out(worker, conn)) return false;
  // EOF processed last so frames coalesced with the peer's FIN (a client
  // that ships Bye and closes in one write) are still handled and their
  // replies flushed best-effort before the drop.
  return !saw_eof;
}

bool Reactor::flush_out(Worker& worker, Conn& conn) {
  if (conn.out_off < conn.out.size()) {
    const SendResult sent = conn.socket.send_some(
        conn.out.data() + conn.out_off, conn.out.size() - conn.out_off);
    if (sent.error) return false;
    conn.out_off += sent.bytes;
    if (sent.would_block && obs::recording())
      obs::ReactorMetrics::get().partial_writes.inc();
  }
  if (conn.out_off >= conn.out.size()) {
    conn.out.clear();
    conn.out_off = 0;
  } else if (conn.out_off > (kMaxOutBufferBytes >> 1)) {
    // Compact occasionally so a slowly-draining peer doesn't pin the
    // already-sent prefix forever.
    conn.out.erase(0, conn.out_off);
    conn.out_off = 0;
  }
  if (conn.out.size() - conn.out_off > kMaxOutBufferBytes) {
    // The peer owes us reads it is not doing; cap what it can make us hold.
    if (obs::recording()) obs::ReactorMetrics::get().out_buffer_drops.inc();
    return false;
  }
  const bool want = conn.out_off < conn.out.size();
  if (want != conn.want_write) {
    conn.want_write = want;
    update_interest(worker, conn);
  }
  return true;
}

void Reactor::update_interest(Worker& worker, Conn& conn) {
  epoll_event ev{};
  ev.events = EPOLLIN | (conn.want_write ? EPOLLOUT : 0u);
  ev.data.fd = conn.socket.fd();
  ::epoll_ctl(worker.epoll_fd, EPOLL_CTL_MOD, conn.socket.fd(), &ev);
}

void Reactor::sweep_deadlines(Worker& worker) {
  const Clock::time_point now = Clock::now();
  std::vector<int> doomed;
  for (auto& [fd, conn] : worker.conns) {
    if (config_.frame_deadline_ms > 0 && conn->frame_pending &&
        now - conn->frame_start >
            std::chrono::milliseconds(config_.frame_deadline_ms)) {
      handler_.on_deadline_drop();
      doomed.push_back(fd);
      continue;
    }
    if (config_.idle_timeout_ms > 0 &&
        now - conn->last_activity >
            std::chrono::milliseconds(config_.idle_timeout_ms)) {
      handler_.on_idle_reap();
      doomed.push_back(fd);
    }
  }
  for (const int fd : doomed) {
    auto it = worker.conns.find(fd);
    if (it != worker.conns.end()) drop(worker, fd, *it->second);
  }
}

void Reactor::drop(Worker& worker, int fd, Conn& conn) {
  ::epoll_ctl(worker.epoll_fd, EPOLL_CTL_DEL, fd, nullptr);
  conn.socket.shutdown();
  handler_.on_disconnect(conn.peer);
  worker.conns.erase(fd);  // closes the fd (TcpSocket dtor)
  --worker.dealt;
  connections_.fetch_sub(1, std::memory_order_acq_rel);
  if (obs::recording()) obs::ReactorMetrics::get().connections.add(-1);
}

}  // namespace dcs::service
