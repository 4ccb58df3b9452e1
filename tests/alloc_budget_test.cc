// Allocation budget of the simulator's per-task path.
//
// A counting global operator new makes heap traffic observable. After a
// warm-up that lets the engine's slabs and vectors reach their working
// capacity, the hot operations must not allocate at all: building a
// channel, parking a receive and waking it with push, scheduling a closure
// that fits sim::Callback's inline buffer, sending on a socket, and issuing
// an rpc call with a `[this, id]` callback (beyond the frame it encodes).
// Spawning an actor costs exactly its coroutine frame, a connect/accept
// pair a small fixed count, and an exec inside a long-lived parent the
// same count on every iteration. Any regression here (a deque member, a
// per-wait shared state, a forwarding coroutine, a closure that no longer
// fits inline, a per-actor index node, a list that grows per child) shows
// up as a nonzero or growing count.
#include <gtest/gtest.h>

#include <array>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <optional>
#include <string>
#include <vector>

#include "net/fabric.hh"
#include "net/rpc.hh"
#include "net/socket.hh"
#include "os/machine.hh"
#include "sim/sim.hh"

namespace {
std::size_t g_allocations = 0;
}  // namespace

void* operator new(std::size_t n) {
  ++g_allocations;
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
// Out of line: inlined into a caller, the free() would look to GCC like a
// mismatched release of an operator-new pointer (-Wmismatched-new-delete).
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept {
  std::free(p);
}

namespace jets {
namespace {

using sim::Engine;
using sim::Task;

/// Heap allocations made while running `f`.
template <typename F>
std::size_t allocations_in(F&& f) {
  const std::size_t before = g_allocations;
  f();
  return g_allocations - before;
}

TEST(AllocBudget, ConstructingAChannelAllocatesNothing) {
  Engine e;
  EXPECT_EQ(allocations_in([&] { sim::Channel<net::Message> ch(e); }), 0u);
  EXPECT_EQ(allocations_in([&] { sim::Semaphore sem(e, 1); }), 0u);
}

TEST(AllocBudget, ParkedRecvWokenByPushAllocatesNothing) {
  Engine e;
  sim::Channel<net::Message> ch(e);
  int received = 0;
  e.spawn("reader", [](sim::Channel<net::Message>& ch,
                       int& received) -> Task<void> {
    while (auto m = co_await ch.recv()) ++received;
  }(ch, received));
  e.run();  // the reader parks
  ch.push(net::Message("warm-up"));
  e.run();
  ASSERT_EQ(received, 1);

  net::Message m("ping", {"a", "b"});
  EXPECT_EQ(allocations_in([&] {
              ch.push(std::move(m));
              e.run();
            }),
            0u);
  EXPECT_EQ(received, 2);
}

TEST(AllocBudget, CallAtWithInlineClosureAllocatesNothing) {
  Engine e;
  auto shared = std::make_shared<int>(0);
  int* a = nullptr;
  int* b = nullptr;
  int* c = nullptr;
  int* d = nullptr;
  auto fits = [shared, a, b, c, d] { ++*shared; };
  static_assert(sizeof(fits) <= sim::Callback::kInlineBytes);
  e.call_at(1, fits);  // warm-up: the event slab and heap grow here
  e.run();

  EXPECT_EQ(allocations_in([&] {
              e.call_at(e.now() + 1, fits);
              e.run();
            }),
            0u);
  EXPECT_EQ(*shared, 2);

  // The fallback still works: a closure past the inline buffer costs
  // exactly its own heap block.
  char big[sim::Callback::kInlineBytes + 8] = {};
  auto spills = [shared, big] { *shared += big[0] + 1; };
  EXPECT_EQ(allocations_in([&] {
              e.call_at(e.now() + 1, spills);
              e.run();
            }),
            1u);
  EXPECT_EQ(*shared, 3);
}

/// A connected socket pair with a reader parked on the server side.
struct Wired {
  Engine engine;
  net::Network net{engine, std::make_shared<net::EthernetFabric>()};
  std::unique_ptr<net::Listener> listener = net.listen({1, 9});
  net::SocketPtr client;
  int received = 0;

  Wired() {
    engine.spawn("server", [](net::Listener& l, int& received) -> Task<void> {
      net::SocketPtr s = co_await l.accept();
      while (auto m = co_await s->recv()) ++received;
    }(*listener, received));
    engine.spawn("client", [](net::Network& net,
                              net::SocketPtr& out) -> Task<void> {
      out = co_await net.connect(0, {1, 9});
    }(net, client));
    engine.run();
  }
  // Frames hold sockets that point at `net`: tear them down first.
  ~Wired() { engine.shutdown(); }
};

TEST(AllocBudget, SocketSendAllocatesNothingBeyondTheMessage) {
  Wired w;
  ASSERT_TRUE(w.client);
  w.client->send(net::Message("warm-up"));
  w.engine.run();
  ASSERT_EQ(w.received, 1);

  net::Message m("task", {"namd2.sh", "in.pdb"});
  EXPECT_EQ(allocations_in([&] {
              w.client->send(std::move(m));
              w.engine.run();
            }),
            0u);
  EXPECT_EQ(w.received, 2);
}

TEST(AllocBudget, ConnectAcceptCostsAFixedCount) {
  Engine e;
  net::Network net(e, std::make_shared<net::EthernetFabric>());
  auto listener = net.listen({1, 9});
  int accepted = 0;
  e.spawn("server", [](net::Listener& l, int& accepted) -> Task<void> {
    while (net::SocketPtr s = co_await l.accept()) ++accepted;
  }(*listener, accepted));
  // Each round connects and drops both ends at once (their EOF events
  // fire during the next round's handshake).
  auto churn = [](net::Network& net, int rounds) -> Task<void> {
    for (int i = 0; i < rounds; ++i) (void)co_await net.connect(0, {1, 9});
  };
  constexpr int kRounds = 64;
  e.spawn("warm-up", churn(net, kRounds));
  e.run();
  ASSERT_EQ(accepted, kRounds);

  e.spawn("churn", churn(net, kRounds));
  // Per round: the connect frame, the Connection and the two Sockets.
  EXPECT_EQ(allocations_in([&] { e.run(); }), 4u * kRounds);
  EXPECT_EQ(accepted, 2 * kRounds);
  e.shutdown();
}

TEST(AllocBudget, SpawnCostsOnlyTheCoroutineFrame) {
  Engine e;
  auto body = []() -> Task<void> { co_return; };
  e.spawn("warm-up", body());
  e.run();
  // A name of up to 15 characters stays in std::string's inline buffer;
  // the actor slot, its context and its first event are recycled.
  EXPECT_EQ(allocations_in([&] {
              e.spawn("fifteen-chars-x", body());
              e.run();
            }),
            1u);
}

TEST(AllocBudget, ExecInsideALongLivedParentCostsAFixedCount) {
  constexpr std::size_t kIterations = 1000;
  Engine e;
  os::Machine m(e, os::Machine::breadboard(1));
  std::array<std::size_t, kIterations + 1> cost{};
  m.exec(0, "pilot", [](os::Machine& m, auto& cost) -> Task<void> {
    for (std::size_t i = 1; i <= kIterations; ++i) {
      const std::size_t before = g_allocations;
      // Not one expression: a GCC 12 bug duplicates the defaulted
      // ExecOptions aggregate temporary if it lives across the co_await.
      const os::Machine::Pid pid =
          m.exec(0, "task", []() -> Task<void> { co_return; }());
      co_await m.wait(pid);
      cost[i] = g_allocations - before;
    }
  }(m, cost));
  e.run();
  // Warm from iteration 10 on: a child that finished must leave nothing
  // behind in its parent, so iteration 1,000 costs what iteration 10 did.
  ASSERT_GT(cost[10], 0u);
  for (std::size_t i = 10; i <= kIterations; ++i) {
    ASSERT_EQ(cost[i], cost[10]) << "iteration " << i;
  }
  EXPECT_EQ(m.process_count(), 0u);
}

/// A client channel whose peer answers every "run" with a "done".
struct Served {
  Engine engine;
  net::Network net{engine, std::make_shared<net::EthernetFabric>()};
  std::unique_ptr<net::Listener> listener = net.listen({1, 9});
  net::SocketPtr client;
  std::optional<net::rpc::Channel> chan;
  std::uint64_t last_done = 0;
  int completions = 0;

  Served() {
    engine.spawn("peer", [](net::Listener& l) -> Task<void> {
      net::SocketPtr s = co_await l.accept();
      while (auto m = co_await s->recv()) {
        auto run = net::rpc::TaskRun::decode(*m);
        if (!run.ok()) continue;
        s->send(net::rpc::TaskDone(run.value().task_id, 0,
                                   net::rpc::TaskDone::Reason::kApp)
                    .encode());
      }
    }(*listener));
    engine.spawn("client", [](net::Network& net,
                              net::SocketPtr& out) -> Task<void> {
      out = co_await net.connect(0, {1, 9});
    }(net, client));
    engine.run();
    chan.emplace(engine, client);
    engine.spawn("serve", chan->serve());
    engine.run();
  }
  ~Served() { engine.shutdown(); }

  bool issue(const net::rpc::TaskRun& run, std::uint64_t id) {
    return chan
        ->call_cb(run,
                  [this, id](net::rpc::Expected<net::rpc::TaskDone,
                                                net::rpc::RpcError> r) {
                    if (r.ok()) last_done = id;
                    ++completions;
                  })
        .ok();
  }
};

TEST(AllocBudget, CallWithAThisIdCallbackAllocatesOnlyTheEncodedFrame) {
  Served s;
  ASSERT_TRUE(s.client);
  const net::rpc::TaskRun run("t1", {"app", "in.dat"});
  ASSERT_TRUE(s.issue(run, 1));  // warm-up: the pending-call table grows
  s.engine.run();
  ASSERT_EQ(s.completions, 1);

  const std::size_t encode_cost = allocations_in([&] { (void)run.encode(); });
  ASSERT_GT(encode_cost, 0u);
  EXPECT_EQ(allocations_in([&] { ASSERT_TRUE(s.issue(run, 2)); }),
            encode_cost);
  s.engine.run();
  EXPECT_EQ(s.completions, 2);
  EXPECT_EQ(s.last_done, 2u);
  EXPECT_EQ(s.chan->in_flight(), 0u);
}

}  // namespace
}  // namespace jets
