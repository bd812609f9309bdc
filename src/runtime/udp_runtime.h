// UDP socket runtime: one node = one socket = one thread.
//
// Runs the same Actor protocols over real datagram sockets (localhost or a
// LAN). UDP's native loss/reordering already matches the paper's lossy
// non-FIFO links; each node is addressed as 127.0.0.1:(base_port + id).
// Nodes in one OS process share nothing but the loopback device — the same
// class works with one node per machine by changing the address scheme.
//
// Datagram format: [src: u32][type: u16][payload bytes].
//
// Batched data plane: outbound frames are drawn from the node's BufferPool
// and coalesced into a send queue flushed with one sendmmsg(2) per 64
// datagrams; inbound traffic is drained with recvmmsg(2) into persistent
// receive slabs (sendto/recvfrom loops off Linux). Timers and posted calls
// run on the shared EventLoop.
#pragma once

#include <netinet/in.h>

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/actor.h"
#include "common/buffer_pool.h"
#include "runtime/event_loop.h"
#include "runtime/stats_http.h"

namespace lls {

struct UdpNodeConfig {
  ProcessId id = 0;
  int n = 0;
  std::uint16_t base_port = 47000;
  std::string host = "127.0.0.1";
  std::uint64_t seed = 1;
  /// TCP port for the observability scrape endpoint (`/metrics` Prometheus
  /// text, `/metrics.json` bench JSON). 0 disables the server; kAnyPort
  /// binds an ephemeral port, read back with stats_port().
  std::uint16_t stats_port = 0;
};

/// UdpNodeConfig::stats_port value requesting an OS-assigned port.
inline constexpr std::uint16_t kAnyStatsPort = 0xffff;

class UdpNode final : public Runtime {
 public:
  UdpNode(UdpNodeConfig config, std::unique_ptr<Actor> actor);
  ~UdpNode() override;

  UdpNode(const UdpNode&) = delete;
  UdpNode& operator=(const UdpNode&) = delete;

  /// Binds the socket and launches the event-loop thread (on_start runs
  /// there). Throws std::runtime_error if the port cannot be bound.
  void start();
  void stop();

  /// Runs fn on the node's event-loop thread.
  void post(std::function<void()> fn);

  [[nodiscard]] Actor& actor() { return *actor_; }

  /// The bound stats port, or 0 when the stats server is disabled. Valid
  /// after start(); resolves kAnyStatsPort to the OS-assigned port.
  [[nodiscard]] std::uint16_t stats_port() const;

  // Runtime ------------------------------------------------------------------
  [[nodiscard]] ProcessId id() const override { return config_.id; }
  [[nodiscard]] int n() const override { return config_.n; }
  [[nodiscard]] TimePoint now() const override;
  void send(ProcessId dst, MessageType type, BytesView payload) override;
  TimerId set_timer(Duration delay) override;
  void cancel_timer(TimerId timer) override;
  Rng& rng() override { return rng_; }
  /// The node's own plane (not the lazily-allocated base fallback): actors,
  /// the loop thread and the stats handler all see this one instance. Only
  /// ever mutated on the loop thread; the stats server reads it by posting
  /// a capture job onto that same thread.
  [[nodiscard]] obs::Plane& obs() override { return plane_; }
  /// Frame pool for the data plane. Loop-thread only (send() is invoked by
  /// actor callbacks, which all run on the loop thread).
  [[nodiscard]] BufferPool& pool() override { return pool_; }

 private:
  /// One queued outbound datagram: destination + pooled wire frame.
  struct PendingSend {
    ProcessId dst = kNoProcess;
    PooledBuffer frame;
  };

  void run();
  void drain_socket();
  void flush_sends();
  void deliver_frame(const std::byte* data, std::size_t len);
  void sync_pool_counters();

  UdpNodeConfig config_;
  std::unique_ptr<Actor> actor_;
  Rng rng_;
  std::chrono::steady_clock::time_point epoch_;

  obs::Plane plane_;
  /// Pre-registered handles: the datagram path must not do string-map
  /// lookups per packet.
  obs::Counter* datagrams_sent_ = nullptr;
  obs::Counter* bytes_sent_ = nullptr;
  obs::Counter* datagrams_received_ = nullptr;
  obs::Counter* malformed_dropped_ = nullptr;
  obs::Counter* sendmmsg_calls_ = nullptr;
  obs::Counter* recvmmsg_calls_ = nullptr;
  obs::Counter* pool_hits_ = nullptr;
  obs::Counter* pool_misses_ = nullptr;
  std::unique_ptr<StatsHttpServer> stats_server_;

  /// Loop-thread state (send/flush/drain all run on the loop thread).
  BufferPool pool_{BufferPool::Config{128, 256 * 1024}};
  std::vector<PendingSend> sendq_;
  std::vector<sockaddr_in> peer_addr_;  ///< dst -> socket address, built in start()
  std::vector<Bytes> recv_bufs_;        ///< persistent recvmmsg slabs
  std::uint64_t synced_pool_hits_ = 0;
  std::uint64_t synced_pool_misses_ = 0;

  EventLoop loop_{*this};
  int fd_ = -1;
  std::atomic<bool> running_{false};
  std::thread thread_;  // last: the loop thread uses everything above
};

}  // namespace lls
