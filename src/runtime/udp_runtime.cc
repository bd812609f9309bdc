#include "runtime/udp_runtime.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <future>
#include <stdexcept>

#include "common/serialization.h"
#include "obs/snapshot.h"

namespace lls {

namespace {
constexpr std::size_t kMaxDatagram = 64 * 1024;
constexpr std::size_t kHeaderSize = sizeof(std::uint32_t) + sizeof(std::uint16_t);
/// Outbound coalescing: flush threshold and sendmmsg(2) chunk size.
constexpr std::size_t kSendBatch = 64;
/// Inbound: datagrams drained per recvmmsg(2) call.
constexpr std::size_t kRecvBatch = 16;
}  // namespace

UdpNode::UdpNode(UdpNodeConfig config, std::unique_ptr<Actor> actor)
    : config_(config),
      actor_(std::move(actor)),
      rng_(config.seed ^ (config.id + 1)),
      epoch_(std::chrono::steady_clock::now()) {
  obs::Registry& reg = plane_.registry();
  datagrams_sent_ = &reg.counter("udp.datagrams_sent");
  bytes_sent_ = &reg.counter("udp.bytes_sent");
  datagrams_received_ = &reg.counter("udp.datagrams_received");
  malformed_dropped_ = &reg.counter("udp.malformed_dropped");
  sendmmsg_calls_ = &reg.counter("udp.sendmmsg_calls");
  recvmmsg_calls_ = &reg.counter("udp.recvmmsg_calls");
  pool_hits_ = &reg.counter("udp.pool_hits");
  pool_misses_ = &reg.counter("udp.pool_misses");
}

UdpNode::~UdpNode() {
  stop();
  if (fd_ >= 0) ::close(fd_);
  // The actor may hold subscriptions on plane_'s bus (a replica's KvCore
  // does), and plane_ is declared after actor_: destroy the actor first.
  actor_.reset();
}

TimePoint UdpNode::now() const {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

void UdpNode::start() {
  fd_ = ::socket(AF_INET, SOCK_DGRAM, 0);
  if (fd_ < 0) throw std::runtime_error("socket() failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port =
      htons(static_cast<std::uint16_t>(config_.base_port + config_.id));
  if (::inet_pton(AF_INET, config_.host.c_str(), &addr.sin_addr) != 1) {
    throw std::runtime_error("bad host address: " + config_.host);
  }
  if (::bind(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
    throw std::runtime_error("bind() failed on port " +
                             std::to_string(config_.base_port + config_.id));
  }
  // Resolve every peer once; the send path then never touches inet_pton.
  peer_addr_.assign(static_cast<std::size_t>(config_.n), sockaddr_in{});
  for (ProcessId dst = 0; dst < static_cast<ProcessId>(config_.n); ++dst) {
    sockaddr_in& peer = peer_addr_[dst];
    peer.sin_family = AF_INET;
    peer.sin_port = htons(static_cast<std::uint16_t>(config_.base_port + dst));
    ::inet_pton(AF_INET, config_.host.c_str(), &peer.sin_addr);
  }
  recv_bufs_.resize(kRecvBatch);
  for (Bytes& slab : recv_bufs_) slab.resize(kMaxDatagram);
  sendq_.reserve(kSendBatch);
  running_.store(true);
  thread_ = std::thread([this]() { run(); });

  if (config_.stats_port != 0) {
    const std::uint16_t port =
        config_.stats_port == kAnyStatsPort ? 0 : config_.stats_port;
    // The handler runs on the server thread; the registry is only touched
    // on the loop thread, so capture is posted there and awaited. stop()
    // shuts the server down before the loop, so a posted capture always
    // drains and the future always resolves.
    stats_server_ = std::make_unique<StatsHttpServer>(
        port, [this](const std::string& path) -> std::string {
          std::promise<std::string> rendered;
          auto result = rendered.get_future();
          post([this, &path, &rendered]() {
            if (path == "/metrics") {
              rendered.set_value(obs::render_prometheus(plane_.registry()));
            } else if (path == "/metrics.json") {
              rendered.set_value(obs::render_json(plane_.registry()));
            } else {
              rendered.set_value(std::string());
            }
          });
          return result.get();
        });
    stats_server_->start();
  }
}

void UdpNode::stop() {
  if (stats_server_ != nullptr) {
    stats_server_->stop();
    stats_server_.reset();
  }
  running_.store(false);
  if (thread_.joinable()) thread_.join();
}

std::uint16_t UdpNode::stats_port() const {
  return stats_server_ != nullptr ? stats_server_->port() : 0;
}

void UdpNode::post(std::function<void()> fn) { loop_.post(std::move(fn)); }

void UdpNode::send(ProcessId dst, MessageType type, BytesView payload) {
  if (dst == config_.id || dst >= static_cast<ProcessId>(config_.n)) return;
  PooledBuffer frame(pool_, pool_.acquire(kHeaderSize + payload.size()));
  std::uint32_t src = config_.id;
  std::uint16_t t = type;
  std::byte* out = frame.bytes().data();
  std::memcpy(out, &src, sizeof(src));
  std::memcpy(out + sizeof(src), &t, sizeof(t));
  if (!payload.empty()) {
    std::memcpy(out + kHeaderSize, payload.data(), payload.size());
  }
  datagrams_sent_->inc();
  bytes_sent_->inc(frame.size());
  sendq_.push_back(PendingSend{dst, std::move(frame)});
  if (sendq_.size() >= kSendBatch) flush_sends();
}

void UdpNode::flush_sends() {
  if (sendq_.empty()) return;
#if defined(__linux__)
  std::size_t done = 0;
  while (done < sendq_.size()) {
    const std::size_t batch = std::min(kSendBatch, sendq_.size() - done);
    mmsghdr msgs[kSendBatch];
    iovec iov[kSendBatch];
    std::memset(msgs, 0, batch * sizeof(mmsghdr));
    for (std::size_t i = 0; i < batch; ++i) {
      PendingSend& p = sendq_[done + i];
      iov[i].iov_base = p.frame.bytes().data();
      iov[i].iov_len = p.frame.size();
      msgs[i].msg_hdr.msg_name = &peer_addr_[p.dst];
      msgs[i].msg_hdr.msg_namelen = sizeof(sockaddr_in);
      msgs[i].msg_hdr.msg_iov = &iov[i];
      msgs[i].msg_hdr.msg_iovlen = 1;
    }
    int sent = ::sendmmsg(fd_, msgs, static_cast<unsigned>(batch), 0);
    sendmmsg_calls_->inc();
    if (sent <= 0) break;  // kernel refused the batch: drop it as link loss
    done += static_cast<std::size_t>(sent);
    // Partial acceptance (sent < batch): loop resumes at the first
    // unsent frame instead of re-sending or dropping the whole chunk.
  }
#else
  for (PendingSend& p : sendq_) {
    ::sendto(fd_, p.frame.bytes().data(), p.frame.size(), 0,
             reinterpret_cast<const sockaddr*>(&peer_addr_[p.dst]),
             sizeof(sockaddr_in));
  }
#endif
  sendq_.clear();  // ~PooledBuffer returns every frame to the pool
  sync_pool_counters();
}

void UdpNode::sync_pool_counters() {
  pool_hits_->inc(pool_.hits() - synced_pool_hits_);
  synced_pool_hits_ = pool_.hits();
  pool_misses_->inc(pool_.misses() - synced_pool_misses_);
  synced_pool_misses_ = pool_.misses();
}

TimerId UdpNode::set_timer(Duration delay) { return loop_.set_timer(delay); }

void UdpNode::cancel_timer(TimerId timer) { loop_.cancel_timer(timer); }

void UdpNode::run() {
  actor_->on_start(*this);
  while (running_.load()) {
    // One due-at-entry pass (runtime/event_loop.h): whatever the handlers
    // arm or post waits for the next pass, so every pass reaches the flush
    // and the poll below after bounded work.
    loop_.run_due(*actor_);

    // Everything queued by the callbacks above leaves in one batch before
    // the loop blocks; nothing sits in the queue across a poll().
    flush_sends();

    // Wait for a datagram, bounded by the next deadline (cap 10ms so posted
    // calls are picked up promptly).
    const TimePoint next = loop_.next_deadline();
    int timeout_ms = 10;
    if (next != kTimeNever) {
      auto until = (next - now()) / kMillisecond;
      timeout_ms = static_cast<int>(std::max<Duration>(
          0, std::min<Duration>(until, 10)));
    }
    pollfd pfd{fd_, POLLIN, 0};
    int ready = ::poll(&pfd, 1, timeout_ms);
    if (ready > 0 && (pfd.revents & POLLIN) != 0) drain_socket();
  }
  flush_sends();  // the loop is exiting: don't strand queued frames
}

void UdpNode::deliver_frame(const std::byte* data, std::size_t len) {
  if (len < kHeaderSize) return;  // truncated header: garbage datagram
  std::uint32_t src = 0;
  std::uint16_t type = 0;
  std::memcpy(&src, data, sizeof(src));
  std::memcpy(&type, data + sizeof(src), sizeof(type));
  if (src >= static_cast<std::uint32_t>(config_.n)) return;
  datagrams_received_->inc();
  // Borrow-scoped: the receive slab is overwritten by the next drain. A
  // body that will not decode is dropped here: every handler decodes
  // before it mutates state, so the throw leaves the actor as it was.
  try {
    loop_.deliver(*actor_, static_cast<ProcessId>(src), type,
                  BytesView(data + kHeaderSize, len - kHeaderSize));
  } catch (const SerializationError&) {
    malformed_dropped_->inc();
  }
}

void UdpNode::drain_socket() {
#if defined(__linux__)
  for (;;) {
    mmsghdr msgs[kRecvBatch];
    iovec iov[kRecvBatch];
    std::memset(msgs, 0, sizeof(msgs));
    for (std::size_t i = 0; i < kRecvBatch; ++i) {
      iov[i].iov_base = recv_bufs_[i].data();
      iov[i].iov_len = recv_bufs_[i].size();
      msgs[i].msg_hdr.msg_iov = &iov[i];
      msgs[i].msg_hdr.msg_iovlen = 1;
    }
    int got = ::recvmmsg(fd_, msgs, kRecvBatch, MSG_DONTWAIT, nullptr);
    if (got <= 0) return;
    recvmmsg_calls_->inc();
    for (int i = 0; i < got; ++i) {
      deliver_frame(recv_bufs_[static_cast<std::size_t>(i)].data(),
                    msgs[i].msg_len);
    }
    if (got < static_cast<int>(kRecvBatch)) return;  // socket drained
  }
#else
  Bytes& buf = recv_bufs_.front();
  for (;;) {
    ssize_t got = ::recvfrom(fd_, buf.data(), buf.size(), MSG_DONTWAIT,
                             nullptr, nullptr);
    if (got < 0) return;  // drained
    deliver_frame(buf.data(), static_cast<std::size_t>(got));
  }
#endif
}

}  // namespace lls
