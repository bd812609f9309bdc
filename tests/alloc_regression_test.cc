// Allocation-count regression guards for the zero-copy data plane.
//
// The whole point of the arena-backed codec and buffer pool is that the
// per-message hot path stops touching the heap. These tests count global
// operator new calls directly:
//   * pooled encode of consensus-class messages: ZERO allocations per
//     message once the pool is warm;
//   * borrow-decode of blob-carrying messages: ZERO allocations (the blob
//     fields alias the receive buffer instead of copying);
//   * the simulator's event loop in steady state: a generous pinned bound
//     per event, so a stray per-message copy can't creep back in silently
//     (protocol bookkeeping — map/set nodes — legitimately allocates, so
//     literal zero is not the bar here).
//
// The hooks replace global operator new/new[]; deletes intentionally stay
// default (counting frees adds nothing and risks mismatched-size pitfalls).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "common/buffer_pool.h"
#include "consensus/paxos.h"
#include "net/topology.h"
#include "net/wire.h"
#include "omega/ce_omega.h"
#include "rsm/command.h"
#include "shard/shard_map.h"
#include "sim/simulator.h"

namespace {
std::atomic<std::uint64_t> g_new_calls{0};
}  // namespace

void* operator new(std::size_t size) {
  g_new_calls.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) {
  g_new_calls.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace lls {
namespace {

std::uint64_t allocs() {
  return g_new_calls.load(std::memory_order_relaxed);
}

Bytes bytes_of(std::initializer_list<int> vals) {
  Bytes out;
  for (int v : vals) out.push_back(static_cast<std::byte>(v));
  return out;
}

TEST(AllocRegression, PooledEncodeIsAllocationFreeWhenWarm) {
  BufferPool pool;
  AcceptMsg msg{11, 4, 2, bytes_of({1, 2, 3, 4, 5, 6, 7, 8}), 500};
  (void)wire::encode_pooled(pool, msg);  // warm: first frame allocates

  const std::uint64_t before = allocs();
  for (int i = 0; i < 1000; ++i) {
    PooledBuffer frame = wire::encode_pooled(pool, msg);
    ASSERT_GT(frame.size(), 0u);
  }
  EXPECT_EQ(allocs() - before, 0u)
      << "pooled AcceptMsg encode allocated on the steady-state path";
}

TEST(AllocRegression, PooledEncodeOfClientBatchIsAllocationFreeWhenWarm) {
  BufferPool pool;
  // A CommandBatch-class frame: the batch payload is pre-encoded (as the
  // client does), then referenced — not copied — by the request message.
  CommandBatch batch;
  for (int i = 0; i < 4; ++i) {
    Command c;
    c.origin = 1;
    c.seq = static_cast<std::uint64_t>(i);
    c.op = KvOp::kPut;
    c.key = "key";
    c.value = "value";
    batch.commands.push_back(c);
  }
  const Bytes encoded_batch = batch.encode();
  ClientRequestMsg req{WireBlob::ref(encoded_batch)};
  (void)wire::encode_pooled(pool, req);  // warm

  const std::uint64_t before = allocs();
  for (int i = 0; i < 1000; ++i) {
    PooledBuffer frame = wire::encode_pooled(pool, req);
    ASSERT_GT(frame.size(), 0u);
  }
  EXPECT_EQ(allocs() - before, 0u)
      << "pooled ClientRequestMsg encode allocated on the steady-state path";
}

TEST(AllocRegression, BorrowDecodeIsAllocationFree) {
  const Bytes accept = AcceptMsg{7, 1, 0, bytes_of({1, 2, 3, 4}), 0}.encode();
  const Bytes decide = DecideMsg{3, bytes_of({5, 6})}.encode();
  const Bytes forward = ForwardMsg{bytes_of({9})}.encode();
  GroupEnvelopeMsg env;
  env.shard = 1;
  env.inner_type = 0x0200;
  env.payload = bytes_of({1, 2, 3});
  const Bytes envelope = env.encode();

  const std::uint64_t before = allocs();
  for (int i = 0; i < 1000; ++i) {
    ASSERT_EQ(AcceptMsg::decode(accept).value.size(), 4u);
    ASSERT_EQ(DecideMsg::decode(decide).value.size(), 2u);
    ASSERT_EQ(ForwardMsg::decode(forward).value.size(), 1u);
    ASSERT_EQ(GroupEnvelopeMsg::decode(envelope).payload.size(), 3u);
  }
  EXPECT_EQ(allocs() - before, 0u)
      << "decoding a blob-carrying message copied instead of borrowing";
}

TEST(AllocRegression, PoolRoundTripIsAllocationFreeWhenWarm) {
  BufferPool pool;
  pool.release(pool.acquire(1024));
  const std::uint64_t before = allocs();
  for (int i = 0; i < 1000; ++i) pool.release(pool.acquire(512));
  EXPECT_EQ(allocs() - before, 0u);
}

/// Steady-state bound for the simulator event loop running a real protocol
/// (CE-Omega heartbeats at n=5). Each event legitimately allocates a little
/// (message encode, heap bookkeeping amortization); the bound is generous —
/// its job is to catch a reintroduced per-message payload copy or the event
/// queue regressing to copy-out, both of which multiply allocations.
TEST(AllocRegression, SimulatorSteadyStateStaysUnderPinnedBound) {
  SimConfig config;
  config.n = 5;
  config.seed = 7;
  Simulator sim(config, make_all_timely({500, 2 * kMillisecond}));
  for (ProcessId p = 0; p < 5; ++p) {
    sim.emplace_actor<CeOmega>(p, CeOmegaConfig{});
  }
  sim.start();
  sim.run_for(2 * kSecond);  // warm up: pools filled, tables sized

  const std::uint64_t events_before = sim.events_executed();
  const std::uint64_t before = allocs();
  sim.run_for(4 * kSecond);
  const std::uint64_t delta = allocs() - before;
  const std::uint64_t events = sim.events_executed() - events_before;
  ASSERT_GT(events, 100u);
  EXPECT_LT(delta, events * 8)
      << "simulator steady state allocated " << delta << " times over "
      << events << " events";
}

}  // namespace
}  // namespace lls
