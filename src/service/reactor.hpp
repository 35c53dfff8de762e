// Event-driven ingest front end for the collector — its only transport: one
// non-blocking acceptor plus a small epoll worker pool, so concurrent agents
// cost file descriptors rather than one OS thread each.
//
// Shape. Each worker owns an epoll instance, an eventfd for cross-thread
// wakeups, and a private connection table — a connection lives on exactly
// one worker for its whole life, so per-connection state (decoder buffer,
// out-buffer, deadline clocks) is never shared between threads. Worker 0
// additionally owns the listening socket: it drains accept(2) until EAGAIN
// on every listener wakeup and deals each new connection to the worker
// holding the fewest (handing a socket to another worker via its pending
// queue + eventfd). Fewest-first keeps concurrently active agents on
// separate workers across reconnects, and leaves workers beyond the live
// connection count idle, so their malloc arenas never hold freed frame
// buffers.
//
// Frame reassembly. Sockets are non-blocking; a read wakeup drains
// recv(2) until EAGAIN, feeding every chunk into that connection's
// FrameDecoder. The decoder reassembles frames across arbitrary chunk
// boundaries — one byte per wakeup, a header split mid-field, or fifty
// coalesced frames in one read all produce the same frame sequence.
//
// Replies. Handler replies append to a per-connection out-buffer flushed
// with send_some(); a partial write (peer not draining) arms EPOLLOUT and
// the flush resumes when the socket drains. A peer that stops reading while
// we owe it acks is bounded by kMaxOutBufferBytes and then dropped — the
// reply-side analogue of the receive-side frame cap.
//
// Overload invariants (see collector.hpp): the frame deadline starts at the
// first byte of a partial frame and is NOT refreshed by later bytes
// (slow-loris defense), the idle timeout reaps silent connections, and both
// are swept per epoll tick so a peer that never triggers another wakeup
// still dies on time. A WireError from the decoder or the handler tears
// down only its own connection.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "service/socket.hpp"
#include "service/wire.hpp"

namespace dcs::service {

/// A reply-starved peer (sends frames, never reads acks) may buffer this
/// many un-flushed reply bytes before it is dropped. Acks are ~30 bytes, so
/// this is tens of thousands of outstanding replies — only an abusive or
/// dead peer gets near it.
constexpr std::size_t kMaxOutBufferBytes = 1u << 20;

/// One worker per hardware thread (at least 1): frame CRC and sketch decode
/// run inline on the worker that owns the connection.
int default_reactor_workers();

struct ReactorConfig {
  /// Epoll workers. Worker 0 also runs the acceptor. Must be >= 1.
  int workers = default_reactor_workers();
  /// Epoll wait timeout and deadline/idle sweep granularity; bounds stop()
  /// latency and deadline enforcement slack, not protocol timing.
  int tick_ms = 50;
  /// Same semantics as CollectorConfig::frame_deadline_ms (non-refreshing,
  /// from the first byte of a partial frame). 0 disables.
  int frame_deadline_ms = 5000;
  /// Same semantics as CollectorConfig::idle_timeout_ms. 0 disables.
  int idle_timeout_ms = 15000;
  /// Per-frame payload cap forwarded to each connection's FrameDecoder;
  /// 0 keeps the protocol-wide kMaxPayloadBytes.
  std::uint32_t max_frame_bytes = 0;
};

/// What the reactor calls back into; the collector implements it.
class FrameHandler {
 public:
  virtual ~FrameHandler() = default;

  /// One complete, CRC-valid frame. Returns the reply bytes to queue
  /// (empty = no reply). Throwing WireError drops this peer only.
  virtual std::string on_frame(PeerState& peer, MsgType type,
                               std::uint8_t version,
                               const std::string& payload) = 0;
  /// The connection is going away (peer close, error, deadline, idle reap,
  /// or reactor shutdown). Called exactly once per connection, on the
  /// worker that owned it (or the stopping thread during shutdown).
  virtual void on_disconnect(PeerState& peer) = 0;
  /// Malformed frame or payload (WireError); fires before on_disconnect.
  virtual void on_frame_error() = 0;
  /// Partial frame outlived frame_deadline_ms; fires before on_disconnect.
  virtual void on_deadline_drop() = 0;
  /// No traffic for idle_timeout_ms; fires before on_disconnect.
  virtual void on_idle_reap() = 0;
};

class Reactor {
 public:
  /// The handler must outlive the reactor.
  Reactor(ReactorConfig config, FrameHandler& handler);
  ~Reactor();

  Reactor(const Reactor&) = delete;
  Reactor& operator=(const Reactor&) = delete;

  /// Spin up the worker pool over an already-listening socket. The caller
  /// retains ownership of the listener (and closes it after stop()); it
  /// must already be non-blocking. Throws std::runtime_error if epoll
  /// setup fails. Idempotent until stop().
  void start(TcpListener& listener);
  /// Drain and join every worker; on_disconnect fires for each connection
  /// still open. The listener is deregistered but left open.
  void stop();

  bool running() const noexcept {
    return running_.load(std::memory_order_acquire);
  }
  /// Live connections across all workers.
  std::size_t connection_count() const noexcept {
    return connections_.load(std::memory_order_acquire);
  }

 private:
  struct Conn;
  struct Worker;

  void worker_loop(Worker& worker);
  void accept_ready(Worker& worker);
  void adopt(Worker& worker, TcpSocket socket);
  /// Read-drain + frame dispatch; returns false when the connection must
  /// be dropped.
  bool read_ready(Worker& worker, Conn& conn);
  /// Flush the out-buffer; arms/disarms EPOLLOUT. False = drop.
  bool flush_out(Worker& worker, Conn& conn);
  void sweep_deadlines(Worker& worker);
  void drop(Worker& worker, int fd, Conn& conn);
  void update_interest(Worker& worker, Conn& conn);

  ReactorConfig config_;
  FrameHandler& handler_;
  TcpListener* listener_ = nullptr;
  std::vector<std::unique_ptr<Worker>> workers_;
  std::atomic<bool> running_{false};
  std::atomic<std::size_t> connections_{0};
};

}  // namespace dcs::service
