// Allocation budget of the simulator's blocking primitives and socket path.
//
// A counting global operator new makes heap traffic observable. After a
// warm-up that lets the engine's slabs and vectors reach their working
// capacity, the hot operations must not allocate at all: building a
// channel, parking a receive and waking it with push, scheduling a closure
// that fits sim::Callback's inline buffer, and sending on a socket. A
// connect/accept pair costs a small fixed count. Any regression here (a
// deque member, a per-wait shared state, a forwarding coroutine, a closure
// that no longer fits inline) shows up as a nonzero count.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdlib>
#include <memory>
#include <new>
#include <optional>

#include "net/fabric.hh"
#include "net/socket.hh"
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
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

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

}  // namespace
}  // namespace jets
