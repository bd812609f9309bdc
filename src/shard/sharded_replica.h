// BasicShardedReplica: the replica host — M consensus groups, one process,
// one fabric endpoint. M = 1 is the ordinary unsharded replica.
//
// The container hosts M KvCores (one LogConsensus + KvStore + client
// service each) behind a single Actor, sharing
//   * one network endpoint — group 0's consensus traffic travels bare
//     (0x02xx, byte-identical to an unsharded log), and each group g >= 1
//     is wrapped in a GroupEnvelopeMsg by a per-group Runtime view on the
//     way out; on the way in, bare consensus messages go to group 0 and
//     envelopes to their group, so the M logs multiplex over the same typed
//     fair-lossy links without an envelope cost at M = 1;
//   * one leader oracle — a single Omega instance feeds every co-located
//     group its leader() output, so election/heartbeat traffic does NOT
//     multiply by M (the López et al. weak-channel argument: one oracle
//     serves any number of decision sequences). Consequently all groups of
//     a stable deployment share one leader process, and a client's
//     per-shard leader caches converge to the same replica.
//
// Each group keeps the paper's per-shard guarantees: Θ(n) messages per
// decision driven by the one leader, safety unconditional. Aggregate
// throughput scales with M because the M leaders' pipelines (windows,
// batches) run independently — see bench_shard_scaling.
//
// Client routing: 0x031x messages arrive unenveloped; the container decodes
// the command to hash its key and hands the message to the owning group,
// which replies directly (replies carry no shard routing — the client
// matches by seq). A coalesced request batch may span shards; it is split
// here and re-packed per group. A command that will not decode is dropped
// here, before any group sees it.
//
// Durable consensus (LogConsensusConfig::durable) is supported at M = 1
// only: the one group persists under the log's own storage keys, and M > 1
// groups would collide on them.
#pragma once

#include <memory>
#include <stdexcept>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/actor.h"
#include "omega/ce_omega.h"
#include "omega/cr_omega.h"
#include "rsm/kv_core.h"
#include "shard/shard_map.h"

namespace lls {

struct ShardedReplicaConfig {
  /// Number of consensus groups (M >= 1). M = 1 is the unsharded replica.
  int shards = 1;
  /// Per-group replica knobs (admission window, batching, cluster size).
  /// The admission high-water mark applies per group.
  KvReplicaConfig replica;
};

template <typename OmegaT, typename OmegaConfigT>
class BasicShardedReplica final : public Actor {
 public:
  using Callback = KvCore::Callback;

  /// Aggregate options: one named place for every knob of the stack.
  /// Designated initializers keep call sites self-documenting:
  ///   ShardedKvReplica r({.omega = {...}, .consensus = {...},
  ///                       .sharded = {...}});
  /// `consensus` is the per-group template; the container stamps each copy
  /// with its shard index (events, histograms, redirects and leases pick up
  /// the per-shard identity from there). Per-group leases all ride the ONE
  /// shared Omega: each group's fence/support accounting is independent,
  /// but the oracle's self-belief (and its lease hint, if configured) is
  /// container-wide.
  struct Options {
    OmegaConfigT omega;
    LogConsensusConfig consensus;
    ShardedReplicaConfig sharded;
  };

  explicit BasicShardedReplica(const Options& options)
      : config_(options.sharded),
        map_(options.sharded.shards),
        omega_(options.omega) {
    if (options.consensus.durable && map_.shards() > 1) {
      // All groups would collide on the one durable-state storage key; a
      // per-group storage namespace is future work.
      throw std::logic_error(
          "BasicShardedReplica supports durable consensus only at M = 1");
    }
    groups_.reserve(static_cast<std::size_t>(map_.shards()));
    for (int g = 0; g < map_.shards(); ++g) {
      LogConsensusConfig cc = options.consensus;
      cc.shard = g;
      groups_.push_back(std::make_unique<KvCore>(
          KvCoreOptions{&omega_, cc, config_.replica}));
      // Sequence numbers must be unique across a process's incarnations: a
      // crash-recovery oracle namespaces them by its incarnation number
      // (read lazily, after the oracle has started); a crash-stop one
      // starts at 1.
      if constexpr (requires { omega_.incarnation(); }) {
        groups_.back()->set_initial_seq(
            [this] { return (omega_.incarnation() << 32) + 1; });
      }
    }
  }

  // Actor ------------------------------------------------------------------
  void on_start(Runtime& rt) override {
    const int cluster_n =
        config_.replica.cluster_n > 0 ? config_.replica.cluster_n : rt.n();
    cluster_rt_.bind(rt, cluster_n);
    omega_rt_ = std::make_unique<GroupRuntime>(*this, kOmegaOwner);
    omega_.on_start(*omega_rt_);
    group_rts_.reserve(groups_.size());
    for (std::size_t g = 0; g < groups_.size(); ++g) {
      group_rts_.push_back(
          std::make_unique<GroupRuntime>(*this, static_cast<int>(g)));
      groups_[g]->on_start(*group_rts_[g]);
    }
  }

  void on_message(Runtime&, ProcessId src, MessageType type,
                  BytesView payload) override {
    if (type == msg_type::kGroupEnvelope) {
      route_envelope(src, payload);
      return;
    }
    if (type >= 0x0100 && type <= 0x01ff) {
      omega_.on_message(*omega_rt_, src, type, payload);
      return;
    }
    if (type == msg_type::kClientRequest) {
      route_client_request(src, payload);
      return;
    }
    if (type == msg_type::kClientRequestBatch) {
      route_client_batch(src, payload);
      return;
    }
    if (type >= 0x0200 && type <= 0x02ff) {
      // Bare consensus traffic is group 0's (see GroupRuntime::send).
      groups_[0]->on_message(*group_rts_[0], src, type, payload);
    }
  }

  void on_timer(Runtime&, TimerId timer) override {
    auto it = timer_owner_.find(timer);
    if (it == timer_owner_.end()) return;  // cancelled or unknown
    const int owner = it->second;
    timer_owner_.erase(it);
    if (owner == kOmegaOwner) {
      omega_.on_timer(*omega_rt_, timer);
    } else {
      groups_[static_cast<std::size_t>(owner)]->on_timer(
          *group_rts_[static_cast<std::size_t>(owner)], timer);
    }
  }

  // Client surface ----------------------------------------------------------
  /// Submits a local command to the owning group (routed by key hash).
  std::uint64_t submit(KvOp op, std::string key, std::string value = "",
                       std::string expected = "", Callback cb = nullptr) {
    KvCore& core = *groups_[map_.shard_of(key)];
    return core.submit(op, std::move(key), std::move(value),
                       std::move(expected), std::move(cb));
  }

  [[nodiscard]] const ShardMap& shard_map() const { return map_; }
  [[nodiscard]] int shards() const { return map_.shards(); }
  OmegaT& omega() { return omega_; }
  [[nodiscard]] const OmegaT& omega() const { return omega_; }
  KvCore& group(int g) { return *groups_[static_cast<std::size_t>(g)]; }
  [[nodiscard]] const KvCore& group(int g) const {
    return *groups_[static_cast<std::size_t>(g)];
  }

  // Aggregate introspection (sums over groups) -------------------------------
  [[nodiscard]] std::uint64_t applied_count() const {
    return sum(&KvCore::applied_count);
  }
  [[nodiscard]] std::uint64_t duplicates_suppressed() const {
    return sum(&KvCore::duplicates_suppressed);
  }
  [[nodiscard]] std::uint64_t busy_sent() const {
    return sum(&KvCore::busy_sent);
  }
  [[nodiscard]] std::uint64_t redirects_sent() const {
    return sum(&KvCore::redirects_sent);
  }
  [[nodiscard]] std::uint64_t client_replies_sent() const {
    return sum(&KvCore::client_replies_sent);
  }
  [[nodiscard]] std::uint64_t cached_replies_sent() const {
    return sum(&KvCore::cached_replies_sent);
  }
  [[nodiscard]] std::uint64_t reads_local() const {
    return sum(&KvCore::reads_local);
  }
  [[nodiscard]] std::uint64_t reads_ordered() const {
    return sum(&KvCore::reads_ordered);
  }
  /// Groups whose leader lease is valid at this instant (0..shards). All
  /// groups share one oracle, so on a stable leader this converges to M.
  [[nodiscard]] int lease_valid_groups() const {
    int count = 0;
    for (const auto& g : groups_) {
      if (g->consensus().lease_valid()) ++count;
    }
    return count;
  }
  [[nodiscard]] std::size_t admitted_inflight() const {
    std::size_t total = 0;
    for (const auto& g : groups_) total += g->admitted_inflight();
    return total;
  }
  /// Per-write state held across this process's groups.
  [[nodiscard]] KvHeldState held_state() const {
    KvHeldState total;
    for (const auto& g : groups_) total += g->held_state();
    return total;
  }
  [[nodiscard]] bool has_applied(ProcessId origin, std::uint64_t seq) const {
    for (const auto& g : groups_) {
      if (g->has_applied(origin, seq)) return true;
    }
    return false;
  }
  /// Envelopes dropped for an out-of-range shard id, an inner type outside
  /// the consensus block, or an undecodable header.
  [[nodiscard]] std::uint64_t envelopes_rejected() const {
    return envelopes_rejected_;
  }
  /// Client requests dropped because the command blob would not decode.
  [[nodiscard]] std::uint64_t requests_rejected() const {
    return requests_rejected_;
  }

 private:
  static constexpr int kOmegaOwner = -1;

  /// Per-group view of the shared endpoint: consensus-block sends of groups
  /// >= 1 leave wrapped in their group's envelope; group 0's consensus
  /// traffic and everything else (client replies, Omega traffic for the
  /// oracle's view) pass through untouched. Timers are tagged with their
  /// owner so the container can route the callback.
  class GroupRuntime final : public Runtime {
   public:
    GroupRuntime(BasicShardedReplica& host, int owner)
        : host_(host), owner_(owner) {}

    [[nodiscard]] ProcessId id() const override {
      return host_.cluster_rt_.id();
    }
    [[nodiscard]] int n() const override { return host_.cluster_rt_.n(); }
    [[nodiscard]] TimePoint now() const override {
      return host_.cluster_rt_.now();
    }

    void send(ProcessId dst, MessageType type, BytesView payload) override {
      if (owner_ > 0 && type >= 0x0200 && type <= 0x02ff) {
        // Wrap without copying: the envelope borrows the inner frame and
        // encodes into a pooled buffer consumed synchronously by send.
        GroupEnvelopeMsg env;
        env.shard = static_cast<ShardId>(owner_);
        env.inner_type = type;
        env.payload = WireBlob::ref(payload);
        host_.cluster_rt_.send(dst, msg_type::kGroupEnvelope,
                               wire::encode_pooled(pool(), env).view());
        return;
      }
      host_.cluster_rt_.send(dst, type, payload);
    }

    TimerId set_timer(Duration delay) override {
      TimerId id = host_.cluster_rt_.set_timer(delay);
      host_.timer_owner_[id] = owner_;
      return id;
    }
    void cancel_timer(TimerId timer) override {
      host_.timer_owner_.erase(timer);
      host_.cluster_rt_.cancel_timer(timer);
    }

    Rng& rng() override { return host_.cluster_rt_.rng(); }
    [[nodiscard]] StableStorage* storage() override {
      return host_.cluster_rt_.storage();
    }
    [[nodiscard]] obs::Plane& obs() override {
      return host_.cluster_rt_.obs();
    }
    [[nodiscard]] BufferPool& pool() override {
      return host_.cluster_rt_.pool();
    }

   private:
    BasicShardedReplica& host_;
    int owner_;  // kOmegaOwner or a shard index
  };

  void route_envelope(ProcessId src, BytesView payload) {
    GroupEnvelopeMsg env;
    try {
      env = GroupEnvelopeMsg::decode(payload);
    } catch (const SerializationError&) {
      ++envelopes_rejected_;
      return;
    }
    if (env.shard >= static_cast<ShardId>(map_.shards()) ||
        env.inner_type < 0x0200 || env.inner_type > 0x02ff) {
      ++envelopes_rejected_;
      return;
    }
    // Synchronous dispatch: the decoded borrow stays valid for the
    // duration of the inner delivery.
    groups_[env.shard]->on_message(*group_rts_[env.shard], src,
                                   env.inner_type, env.payload.view());
  }

  void route_client_request(ProcessId src, BytesView payload) {
    ShardId shard = kNoShard;
    try {
      ClientRequestMsg req = ClientRequestMsg::decode(payload);
      shard = map_.shard_of(Command::decode(req.command.view()).key);
    } catch (const SerializationError&) {
      ++requests_rejected_;
      return;
    }
    groups_[shard]->on_message(*group_rts_[shard], src,
                               msg_type::kClientRequest, payload);
  }

  void route_client_batch(ProcessId src, BytesView payload) {
    ClientRequestBatchMsg req;
    try {
      req = ClientRequestBatchMsg::decode(payload);
    } catch (const SerializationError&) {
      ++requests_rejected_;
      return;
    }
    // One client batch may span shards (the client packs per destination,
    // not per group): split it and re-pack per owning group.
    std::vector<ClientRequestBatchMsg> per_shard(
        static_cast<std::size_t>(map_.shards()));
    for (auto& item : req.items) {
      ShardId shard = kNoShard;
      try {
        shard = map_.shard_of(Command::decode(item.command.view()).key);
      } catch (const SerializationError&) {
        ++requests_rejected_;
        continue;
      }
      per_shard[shard].items.push_back(std::move(item));
    }
    for (std::size_t g = 0; g < per_shard.size(); ++g) {
      if (per_shard[g].items.empty()) continue;
      // Items still borrow the original receive buffer (valid until this
      // routing callback returns); the per-group frame is pooled and the
      // dispatch below consumes it synchronously.
      auto encoded = wire::encode_pooled(cluster_rt_.pool(), per_shard[g]);
      groups_[g]->on_message(*group_rts_[g], src,
                             msg_type::kClientRequestBatch, encoded.view());
    }
  }

  template <typename Fn>
  [[nodiscard]] std::uint64_t sum(Fn fn) const {
    std::uint64_t total = 0;
    for (const auto& g : groups_) total += (*g.*fn)();
    return total;
  }

  ShardedReplicaConfig config_;
  ShardMap map_;
  OmegaT omega_;
  std::vector<std::unique_ptr<KvCore>> groups_;
  /// Cluster view of the fabric runtime (n() = replica count), shared by
  /// the oracle and every group.
  ClusterViewRuntime cluster_rt_;
  std::unique_ptr<GroupRuntime> omega_rt_;
  std::vector<std::unique_ptr<GroupRuntime>> group_rts_;
  std::unordered_map<TimerId, int> timer_owner_;
  std::uint64_t envelopes_rejected_ = 0;
  std::uint64_t requests_rejected_ = 0;
};

/// The paper's crash-stop replica: M logs fed by one CE-Omega.
using ShardedKvReplica = BasicShardedReplica<CeOmega, CeOmegaConfig>;

/// Crash-recovery replica: the stable-storage Omega; pair with
/// LogConsensusConfig::durable = true (M = 1) and the simulator's
/// crash-recovery mode, and the store is rebuilt from the replayed durable
/// log on every recovery — even after a full-cluster restart.
using CrKvReplica = BasicShardedReplica<CrOmegaStable, CrOmegaConfig>;

}  // namespace lls
