// Protocol conformance + fuzz battery for the typed RPC layer (ctest
// label: rpc).
//
// Six layers of coverage:
//
//   1. Round trips: every typed protocol struct encodes to the historical
//      wire form and decodes back to an identical value.
//   2. Decode rejection: a targeted malformed frame per DecodeError kind
//      per decoder — truncated args, bad enums, unknown tags, oversized
//      ids — each returns a typed error, never throws, never crashes.
//   3. Seeded fuzz: pseudo-random frames (junk tags, junk args, huge
//      numbers, half-valid digest grammar) fed to *every* decoder. The
//      sanitizer lane is the oracle for memory safety; accepted frames
//      must additionally be canonical (decode(encode(decode(m))) is
//      identity).
//   4. Channel conformance, in-simulator: correlation matching under
//      out-of-order completion, same-key FIFO resolution, peer-close
//      draining in issue order, post-EOF refusal, orphan/unknown-tag/
//      decode-error counting, sync/async handler dispatch, and the
//      serve-less pump mode the PMI client uses — including the GCC 12
//      aggregate-prvalue regression shape (see the note in rpc.hh).
//   5. A service-level regression: a worker whose socket dies between
//      task claim and flush must surface through RpcError::kPeerClosed —
//      typed, counted in jets.rpc.peer_closed, and classified kWorkerLost.
//   6. Hostile peers against the socket readers: a malformed, unknown or
//      out-of-place frame sent to mpiexec fails only that job (kProtocol)
//      without aborting the simulation, a malformed proxy.exec makes the
//      proxy leave without ranks, and a bad mpi.hello is dropped.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <random>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "apps/synthetic.hh"
#include "core/chaos.hh"
#include "core/standalone.hh"
#include "mpi/comm.hh"
#include "net/fabric.hh"
#include "net/rpc.hh"
#include "net/socket.hh"
#include "obs/metrics.hh"
#include "pmi/hydra.hh"
#include "sim/sim.hh"
#include "testbed.hh"
#include "testutil.hh"

// gtest's ASSERT_* macros `return;` on failure, which is ill-formed inside
// a coroutine body — these record the failure and co_return instead.
#define CO_ASSERT_TRUE(x) \
  do {                    \
    if (!(x)) {           \
      ADD_FAILURE() << #x; \
      co_return;          \
    }                     \
  } while (0)
#define CO_ASSERT_FALSE(x) CO_ASSERT_TRUE(!(x))

namespace jets::net::rpc {
namespace {

using sim::Engine;
using sim::Task;

// --- 1. Round trips --------------------------------------------------------

/// Byte-level equality of two wire frames.
bool same_frame(const Message& a, const Message& b) {
  return a.tag == b.tag && a.args == b.args &&
         a.payload_bytes == b.payload_bytes;
}

TEST(RpcRoundTrip, RegisterReq) {
  RegisterReq r(7, {"t-1", "t-2"});
  auto d = RegisterReq::decode(r.encode());
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(d.value().node, 7u);
  EXPECT_EQ(d.value().inventory, (std::vector<std::string>{"t-1", "t-2"}));
  // Empty inventory (the common fresh-boot frame).
  auto d2 = RegisterReq::decode(RegisterReq(0).encode());
  ASSERT_TRUE(d2.ok());
  EXPECT_TRUE(d2.value().inventory.empty());
}

TEST(RpcRoundTrip, Notes) {
  EXPECT_TRUE(ReadyNote::decode(ReadyNote{}.encode()).ok());
  EXPECT_TRUE(PingNote::decode(PingNote{}.encode()).ok());
  EXPECT_EQ(ReadyNote{}.encode().tag, "ready");
  EXPECT_EQ(PingNote{}.encode().tag, "hb");
}

TEST(RpcRoundTrip, TaskDoneAllReasons) {
  for (const auto reason : {TaskDone::Reason::kApp, TaskDone::Reason::kWatchdog,
                            TaskDone::Reason::kKilled}) {
    TaskDone d("task-9", -13, reason);
    auto r = TaskDone::decode(d.encode());
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r.value().task_id, "task-9");
    EXPECT_EQ(r.value().status, -13);
    EXPECT_EQ(r.value().reason, reason);
    EXPECT_EQ(r.value().correlation_key(), "task-9");
  }
}

TEST(RpcRoundTrip, TaskRunArgvAndVars) {
  TaskRun run("j0.3", {"namd2.sh", "in.pdb", "x=looks-like-a-var"},
              {{"OMP_NUM_THREADS", "4"}, {"JETS_RANK", "0"}});
  auto r = TaskRun::decode(run.encode());
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().task_id, "j0.3");
  EXPECT_EQ(r.value().argv, run.argv);  // argc guard keeps '=' argv intact
  EXPECT_EQ(r.value().vars, run.vars);
  // Empty argv, empty vars.
  auto r2 = TaskRun::decode(TaskRun("j", {}).encode());
  ASSERT_TRUE(r2.ok());
  EXPECT_TRUE(r2.value().argv.empty());
}

TEST(RpcRoundTrip, KillReq) {
  auto r = KillReq::decode(KillReq("t-3").encode());
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().task_id, "t-3");
}

TEST(RpcRoundTrip, StageAckLegacyAndDigest) {
  auto legacy = StageAck::decode(StageAck("in.pdb").encode());
  ASSERT_TRUE(legacy.ok());
  EXPECT_EQ(legacy.value().digest, 0u);
  StageAck full("in.pdb", 0xdeadbeef01020304ull, {0x1ull, 0xffull});
  auto r = StageAck::decode(full.encode());
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().digest, 0xdeadbeef01020304ull);
  EXPECT_EQ(r.value().evictions, full.evictions);
  EXPECT_EQ(r.value().correlation_key(), "in.pdb");
}

TEST(RpcRoundTrip, StageReqLegacyAndDigestForms) {
  StageHeader h;
  h.path = "inputs/a.bin";
  h.digest = 0xabcull;
  h.bytes = 4096;
  h.source = StageHeader::Source::kPeer;
  h.peer = 12;
  auto r = StageReq::decode(StageReq(h).encode());
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r.value().legacy);
  EXPECT_EQ(r.value().header.digest, 0xabcull);
  EXPECT_EQ(r.value().header.bytes, 4096u);
  EXPECT_EQ(r.value().header.peer, 12u);
  // Legacy broadcast form: [path] + payload, bytes taken from the payload.
  StageHeader lh;
  lh.path = "bcast.dat";
  auto lr = StageReq::decode(StageReq(lh, /*leg=*/true, /*pay=*/777).encode());
  ASSERT_TRUE(lr.ok());
  EXPECT_TRUE(lr.value().legacy);
  EXPECT_EQ(lr.value().header.path, "bcast.dat");
  EXPECT_EQ(lr.value().header.bytes, 777u);
}

TEST(RpcRoundTrip, PmiFamily) {
  EXPECT_EQ(PmiInit::decode(PmiInit(3).encode()).value().rank, 3);
  auto put = PmiPut::decode(PmiPut("k", "v").encode());
  ASSERT_TRUE(put.ok());
  EXPECT_EQ(put.value().key, "k");
  EXPECT_EQ(put.value().value, "v");
  auto val = PmiValue::decode(PmiValue("k", "v").encode());
  ASSERT_TRUE(val.ok());
  EXPECT_EQ(val.value().correlation_key(), "k");
  EXPECT_EQ(PmiGet::decode(PmiGet("k").encode()).value().key, "k");
  EXPECT_TRUE(PmiBarrierOut::decode(PmiBarrierOut{}.encode()).ok());
  EXPECT_EQ(PmiBarrier::decode(PmiBarrier(5).encode()).value().rank, 5);
  EXPECT_EQ(PmiFinalize::decode(PmiFinalize(2).encode()).value().rank, 2);
}

TEST(RpcRoundTrip, HydraProxyControl) {
  // Byte-for-byte the frames mpiexec and the proxy built by hand.
  EXPECT_TRUE(same_frame(ProxyHello(3).encode(), Message("proxy.hello", {"3"})));
  EXPECT_EQ(ProxyHello::decode(ProxyHello(3).encode()).value().proxy_id, 3);
  const ProxyExec exec(4, 2, 2, "namd2", {"namd2.sh", "in.conf"},
                       {{"A", "1"}, {"B", "x=y"}});
  EXPECT_TRUE(same_frame(exec.encode(),
                         Message("proxy.exec", {"4", "2", "2", "namd2", "2",
                                                "namd2.sh", "in.conf", "A=1",
                                                "B=x=y"})));
  auto back = ProxyExec::decode(exec.encode());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value().nprocs, 4);
  EXPECT_EQ(back.value().ppn, 2);
  EXPECT_EQ(back.value().base, 2);
  EXPECT_EQ(back.value().binary, "namd2");
  EXPECT_EQ(back.value().argv, exec.argv);
  EXPECT_EQ(back.value().vars, exec.vars);
  EXPECT_TRUE(same_frame(ProxyExit(1, 0).encode(),
                         Message("proxy.exit", {"1", "0"})));
  auto exit = ProxyExit::decode(ProxyExit(1, 3).encode());
  ASSERT_TRUE(exit.ok());
  EXPECT_EQ(exit.value().proxy_id, 1);
  EXPECT_EQ(exit.value().code, 3);
  EXPECT_TRUE(same_frame(StdoutNote(11'000).encode(),
                         Message("stdout", {}, 11'000)));
  EXPECT_EQ(StdoutNote::decode(StdoutNote(11'000).encode()).value().bytes,
            11'000u);
}

// --- 2. Targeted decode rejection -----------------------------------------

using Kind = DecodeError::Kind;

/// Decodes expecting failure; returns the error kind (kBadTag on
/// unexpected success so the EXPECT_EQ at the call site still fires).
template <typename M>
Kind reject(const Message& m) {
  auto r = M::decode(m);
  EXPECT_FALSE(r.ok()) << "frame '" << m.tag << "' unexpectedly accepted";
  return r.ok() ? Kind::kBadTag : r.error().kind;
}

TEST(RpcDecode, WrongTagRejectedEverywhere) {
  const Message alien("no.such.verb", {"x"});
  EXPECT_EQ(reject<RegisterReq>(alien), Kind::kBadTag);
  EXPECT_EQ(reject<ReadyNote>(alien), Kind::kBadTag);
  EXPECT_EQ(reject<PingNote>(alien), Kind::kBadTag);
  EXPECT_EQ(reject<TaskDone>(alien), Kind::kBadTag);
  EXPECT_EQ(reject<TaskRun>(alien), Kind::kBadTag);
  EXPECT_EQ(reject<KillReq>(alien), Kind::kBadTag);
  EXPECT_EQ(reject<StageAck>(alien), Kind::kBadTag);
  EXPECT_EQ(reject<StageReq>(alien), Kind::kBadTag);
  EXPECT_EQ(reject<PmiInit>(alien), Kind::kBadTag);
  EXPECT_EQ(reject<PmiPut>(alien), Kind::kBadTag);
  EXPECT_EQ(reject<PmiValue>(alien), Kind::kBadTag);
  EXPECT_EQ(reject<PmiGet>(alien), Kind::kBadTag);
  EXPECT_EQ(reject<PmiBarrierOut>(alien), Kind::kBadTag);
  EXPECT_EQ(reject<PmiBarrier>(alien), Kind::kBadTag);
  EXPECT_EQ(reject<PmiFinalize>(alien), Kind::kBadTag);
  EXPECT_EQ(reject<ProxyHello>(alien), Kind::kBadTag);
  EXPECT_EQ(reject<ProxyExec>(alien), Kind::kBadTag);
  EXPECT_EQ(reject<ProxyExit>(alien), Kind::kBadTag);
  EXPECT_EQ(reject<StdoutNote>(alien), Kind::kBadTag);
}

TEST(RpcDecode, RegisterReq) {
  EXPECT_EQ(reject<RegisterReq>(Message("reg")), Kind::kMissingArg);
  EXPECT_EQ(reject<RegisterReq>(Message("reg", {"abc"})), Kind::kBadNumber);
  EXPECT_EQ(reject<RegisterReq>(Message("reg", {"-1"})), Kind::kBadNumber);
  EXPECT_EQ(reject<RegisterReq>(Message("reg", {"12 "})), Kind::kBadNumber);
  // NodeId is 32-bit; a parseable u64 past that is oversized, not bad.
  EXPECT_EQ(reject<RegisterReq>(Message("reg", {"4294967296"})),
            Kind::kOversized);
  EXPECT_EQ(reject<RegisterReq>(Message("reg", {"99999999999999999999"})),
            Kind::kBadNumber);  // overflows u64 entirely
}

TEST(RpcDecode, NotesRejectTrailingArgs) {
  EXPECT_EQ(reject<ReadyNote>(Message("ready", {"x"})), Kind::kTrailingArgs);
  EXPECT_EQ(reject<PingNote>(Message("hb", {"x"})), Kind::kTrailingArgs);
  EXPECT_EQ(reject<PmiBarrierOut>(Message("pmi.barrier_out", {"x"})),
            Kind::kTrailingArgs);
}

TEST(RpcDecode, TaskDone) {
  EXPECT_EQ(reject<TaskDone>(Message("done")), Kind::kMissingArg);
  EXPECT_EQ(reject<TaskDone>(Message("done", {"t", "0"})), Kind::kMissingArg);
  EXPECT_EQ(reject<TaskDone>(Message("done", {"t", "0", "app", "x"})),
            Kind::kTrailingArgs);
  EXPECT_EQ(reject<TaskDone>(Message("done", {"t", "zero", "app"})),
            Kind::kBadNumber);
  EXPECT_EQ(reject<TaskDone>(Message("done", {"t", "0", "segfault"})),
            Kind::kBadEnum);
}

TEST(RpcDecode, TaskRun) {
  EXPECT_EQ(reject<TaskRun>(Message("run", {"t"})), Kind::kMissingArg);
  EXPECT_EQ(reject<TaskRun>(Message("run", {"t", "x"})), Kind::kBadNumber);
  // argc says 3 but only 1 argv slot follows: truncated frame.
  EXPECT_EQ(reject<TaskRun>(Message("run", {"t", "3", "a"})), Kind::kMissingArg);
  // Trailing non-var token after the argv window.
  EXPECT_EQ(reject<TaskRun>(Message("run", {"t", "1", "a", "not-a-var"})),
            Kind::kTrailingArgs);
}

TEST(RpcDecode, KillReq) {
  EXPECT_EQ(reject<KillReq>(Message("kill")), Kind::kMissingArg);
  EXPECT_EQ(reject<KillReq>(Message("kill", {"t", "x"})), Kind::kTrailingArgs);
}

TEST(RpcDecode, StageAck) {
  EXPECT_EQ(reject<StageAck>(Message("staged")), Kind::kMissingArg);
  // Legacy form admits exactly one arg.
  EXPECT_EQ(reject<StageAck>(Message("staged", {"p", "q"})),
            Kind::kTrailingArgs);
  // Digest grammar: 16 lowercase hex, nonzero.
  EXPECT_EQ(reject<StageAck>(Message("staged", {"p", "d="})), Kind::kBadDigest);
  EXPECT_EQ(reject<StageAck>(Message("staged", {"p", "d=12345"})),
            Kind::kBadDigest);
  EXPECT_EQ(reject<StageAck>(Message("staged", {"p", "d=ABCDEF0123456789"})),
            Kind::kBadDigest);
  EXPECT_EQ(reject<StageAck>(Message("staged", {"p", "d=0000000000000000"})),
            Kind::kBadDigest);
  EXPECT_EQ(
      reject<StageAck>(Message("staged", {"p", "d=00000000000000ff", "junk"})),
      Kind::kTrailingArgs);
  EXPECT_EQ(
      reject<StageAck>(Message("staged", {"p", "d=00000000000000ff", "e=xyz"})),
      Kind::kBadDigest);
}

TEST(RpcDecode, StageReqEmptyFrameIsErrorNotThrow) {
  // The pre-RPC worker indexed args[0] unchecked; an empty "stagein" threw
  // std::out_of_range. Now it is a typed decode error.
  EXPECT_EQ(reject<StageReq>(Message("stagein")), Kind::kMissingArg);
  // But the legacy fallback is NOT an error: a frame outside the digest
  // grammar is the old broadcast protocol.
  auto r = StageReq::decode(Message("stagein", {"p", "d=zz", "b=1", "s=push"}));
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r.value().legacy);
}

TEST(RpcDecode, PmiNumericFields) {
  EXPECT_EQ(reject<PmiInit>(Message("pmi.init")), Kind::kMissingArg);
  EXPECT_EQ(reject<PmiInit>(Message("pmi.init", {"r0"})), Kind::kBadNumber);
  EXPECT_EQ(reject<PmiInit>(Message("pmi.init", {"0", "x"})),
            Kind::kTrailingArgs);
  EXPECT_EQ(reject<PmiPut>(Message("pmi.put", {"k"})), Kind::kMissingArg);
  EXPECT_EQ(reject<PmiPut>(Message("pmi.put", {"k", "v", "w"})),
            Kind::kTrailingArgs);
  EXPECT_EQ(reject<PmiValue>(Message("pmi.value", {"k"})), Kind::kMissingArg);
  EXPECT_EQ(reject<PmiGet>(Message("pmi.get")), Kind::kMissingArg);
  EXPECT_EQ(reject<PmiGet>(Message("pmi.get", {"k", "x"})),
            Kind::kTrailingArgs);
  EXPECT_EQ(reject<PmiBarrier>(Message("pmi.barrier_in", {"1e3"})),
            Kind::kBadNumber);
  EXPECT_EQ(reject<PmiFinalize>(Message("pmi.finalize", {""})),
            Kind::kBadNumber);
}

TEST(RpcDecode, HydraProxyControl) {
  EXPECT_EQ(reject<ProxyHello>(Message("proxy.hello")), Kind::kMissingArg);
  EXPECT_EQ(reject<ProxyHello>(Message("proxy.hello", {"x"})),
            Kind::kBadNumber);
  EXPECT_EQ(reject<ProxyHello>(Message("proxy.hello", {"1", "2"})),
            Kind::kTrailingArgs);
  EXPECT_EQ(reject<ProxyExit>(Message("proxy.exit", {"0"})), Kind::kMissingArg);
  EXPECT_EQ(reject<ProxyExit>(Message("proxy.exit", {"0", "ok"})),
            Kind::kBadNumber);
  EXPECT_EQ(reject<ProxyExit>(Message("proxy.exit", {"0", "0", "0"})),
            Kind::kTrailingArgs);
  EXPECT_EQ(reject<ProxyExec>(Message("proxy.exec", {"2", "1", "0"})),
            Kind::kMissingArg);
  EXPECT_EQ(reject<ProxyExec>(Message("proxy.exec", {"2", "one", "0", "b", "1", "a"})),
            Kind::kBadNumber);
  // A proxy with no command to fork.
  EXPECT_EQ(reject<ProxyExec>(Message("proxy.exec", {"2", "1", "0", "b", "0"})),
            Kind::kMissingArg);
  EXPECT_EQ(reject<ProxyExec>(
                Message("proxy.exec", {"2", "1", "0", "b", "1", "a", "novar"})),
            Kind::kTrailingArgs);
  EXPECT_EQ(reject<StdoutNote>(Message("stdout", {"x"})), Kind::kTrailingArgs);
}

// --- 3. Seeded fuzz --------------------------------------------------------

/// Feeds `m` to every decoder; any accepted value must re-encode to a
/// canonical frame that decodes back to the same bytes. The sanitizer
/// build is the crash oracle.
template <typename M>
void fuzz_one(const Message& m) {
  auto r = M::decode(m);
  if (!r.ok()) {
    // A rejected frame still renders a diagnosable error string.
    EXPECT_FALSE(to_string(r.error()).empty());
    return;
  }
  const Message canon = r.value().encode();
  auto r2 = M::decode(canon);
  ASSERT_TRUE(r2.ok()) << "canonical re-encode of accepted '" << m.tag
                       << "' frame no longer decodes";
  EXPECT_TRUE(same_frame(canon, r2.value().encode()));
}

void fuzz_all_decoders(const Message& m) {
  fuzz_one<RegisterReq>(m);
  fuzz_one<ReadyNote>(m);
  fuzz_one<PingNote>(m);
  fuzz_one<TaskDone>(m);
  fuzz_one<TaskRun>(m);
  fuzz_one<KillReq>(m);
  fuzz_one<StageAck>(m);
  fuzz_one<StageReq>(m);
  fuzz_one<PmiInit>(m);
  fuzz_one<PmiPut>(m);
  fuzz_one<PmiValue>(m);
  fuzz_one<PmiGet>(m);
  fuzz_one<PmiBarrierOut>(m);
  fuzz_one<PmiBarrier>(m);
  fuzz_one<PmiFinalize>(m);
  fuzz_one<ProxyHello>(m);
  fuzz_one<ProxyExec>(m);
  fuzz_one<ProxyExit>(m);
  fuzz_one<StdoutNote>(m);
}

TEST(RpcFuzz, RandomFramesNeverCrashAnyDecoder) {
  std::mt19937 rng(0x4a455453u);  // fixed seed: failures must reproduce
  const std::vector<std::string> tags = {
      "reg",     "ready",          "hb",           "done",
      "run",     "kill",           "staged",       "stagein",
      "pmi.init", "pmi.put",       "pmi.value",    "pmi.get",
      "pmi.barrier_in", "pmi.barrier_out", "pmi.finalize",
      "proxy.hello", "proxy.exec",  "proxy.exit",   "stdout",
      "bogus",   "",               "REG",          "done\n"};
  const std::vector<std::string> pool = {
      "",       "0",         "1",      "-1",       "42",
      "abc",    "4294967295", "4294967296", "18446744073709551615",
      "18446744073709551616", "99999999999999999999999999",
      "0x10",   " 7",        "7 ",     "+3",       "3.14",
      "app",    "watchdog",  "killed", "appp",     "APP",
      "d=",     "d=00000000000000ff", "d=ffffffffffffffff",
      "d=FFFFFFFFFFFFFFFF", "d=00000000000000",  "d=0000000000000000",
      "e=",     "e=00000000000000ff", "e=nope",
      "b=4096", "b=abc",     "b=",     "s=push",   "s=warm",
      "s=peer:3", "s=peer:x", "s=bogus", "k=v",    "=v",
      "k=",     "path/with=equals", std::string(300, 'A'),
      std::string("\0embedded", 9)};
  std::uniform_int_distribution<std::size_t> tag_pick(0, tags.size() - 1);
  std::uniform_int_distribution<std::size_t> arg_pick(0, pool.size() - 1);
  std::uniform_int_distribution<int> argc_pick(0, 6);
  std::uniform_int_distribution<int> payload_pick(0, 1);
  for (int i = 0; i < 4000; ++i) {
    Message m(tags[tag_pick(rng)]);
    const int argc = argc_pick(rng);
    for (int a = 0; a < argc; ++a) m.args.push_back(pool[arg_pick(rng)]);
    if (payload_pick(rng)) m.payload_bytes = 1 + (rng() % (1u << 20));
    fuzz_all_decoders(m);
  }
}

TEST(RpcFuzz, ValidFramesSurviveSingleFieldMutation) {
  // Start from every canonical frame, clobber one arg at a time with junk:
  // the decoder must reject or re-canonicalize, never crash.
  std::vector<Message> seeds = {
      RegisterReq(3, {"t-1"}).encode(),
      TaskDone("t", 1, TaskDone::Reason::kWatchdog).encode(),
      TaskRun("t", {"a", "b"}, {{"K", "V"}}).encode(),
      KillReq("t").encode(),
      StageAck("p", 0xffull, {0x2ull}).encode(),
      PmiInit(1).encode(),
      PmiPut("k", "v").encode(),
      PmiValue("k", "v").encode(),
      PmiGet("k").encode(),
      PmiBarrier(0).encode(),
      PmiFinalize(0).encode(),
      ProxyHello(2).encode(),
      ProxyExec(4, 2, 2, "bin", {"app", "x"}, {{"K", "V"}}).encode(),
      ProxyExit(2, 1).encode(),
  };
  StageHeader h;
  h.path = "p";
  h.digest = 0x5ull;
  h.bytes = 10;
  seeds.push_back(StageReq(h).encode());
  std::mt19937 rng(0x57495245u);
  const std::vector<std::string> junk = {"", "zz", "-", "1x", "d=5",
                                         std::string(64, 'f')};
  std::uniform_int_distribution<std::size_t> junk_pick(0, junk.size() - 1);
  for (const Message& seed : seeds) {
    for (std::size_t at = 0; at < seed.args.size(); ++at) {
      for (int trial = 0; trial < 8; ++trial) {
        Message mutant = seed;
        mutant.args[at] = junk[junk_pick(rng)];
        fuzz_all_decoders(mutant);
      }
      Message truncated = seed;
      truncated.args.resize(at);
      fuzz_all_decoders(truncated);
    }
  }
}

// --- 4. Channel conformance ------------------------------------------------

class RpcChannelTest : public ::testing::Test {
 protected:
  Engine engine;
  Network net{engine, std::make_shared<EthernetFabric>()};
  std::unique_ptr<Listener> listener = net.listen({1, 7000});
  SocketPtr server;  // accept side (test scripts the peer on this socket)
  SocketPtr client;  // connect side (the channel under test lives here)
  obs::MetricsRegistry reg;
  ChannelMetrics metrics = ChannelMetrics::bind(reg);

  /// Phase 1: establish the connection so tests can build a Channel on the
  /// stack (its lifetime must cover the serve() actor spawned in phase 2).
  void establish() {
    engine.spawn("accept", [](RpcChannelTest& t) -> Task<void> {
      t.server = co_await t.listener->accept();
    }(*this));
    engine.spawn("connect", [](RpcChannelTest& t) -> Task<void> {
      t.client = co_await t.net.connect(0, {1, 7000});
    }(*this));
    engine.run();
    ASSERT_NE(server, nullptr);
    ASSERT_NE(client, nullptr);
  }

  Channel::Config cfg() {
    Channel::Config c;
    c.metrics = &metrics;
    return c;
  }

  std::uint64_t count(const char* name) const {
    return reg.counter_value(name);
  }
};

TEST_F(RpcChannelTest, OutOfOrderRepliesMatchByCorrelationKey) {
  establish();
  Channel chan(engine, client, cfg());
  engine.spawn("serve", chan.serve());
  // Server gathers all three requests, then answers them newest-first.
  engine.spawn("peer", [](SocketPtr s) -> Task<void> {
    std::vector<std::string> ids;
    while (ids.size() < 3) {
      auto m = co_await s->recv();
      CO_ASSERT_TRUE(m.has_value());
      auto run = TaskRun::decode(*m);
      CO_ASSERT_TRUE(run.ok());
      ids.push_back(run.value().task_id);
    }
    for (int i = 2; i >= 0; --i) {
      s->send(TaskDone(ids[static_cast<std::size_t>(i)], 100 + i,
                       TaskDone::Reason::kApp)
                  .encode());
    }
    s->close();
  }(server));
  std::vector<std::string> done_order;
  for (int i = 0; i < 3; ++i) {
    engine.spawn("caller", [](Channel& ch, int i,
                              std::vector<std::string>& order) -> Task<void> {
      // Named, not a braced literal in the co_await expression: GCC 12
      // also mishandles initializer-list arrays living across suspension.
      std::vector<std::string> argv = {"app"};
      auto r = co_await ch.call(TaskRun("t" + std::to_string(i), argv));
      CO_ASSERT_TRUE(r.ok());
      // Each caller receives *its* reply, not whichever arrived first.
      EXPECT_EQ(r.value().task_id, "t" + std::to_string(i));
      EXPECT_EQ(r.value().status, 100 + i);
      order.push_back(r.value().task_id);
    }(chan, i, done_order));
  }
  engine.run();
  EXPECT_EQ(done_order, (std::vector<std::string>{"t2", "t1", "t0"}));
  EXPECT_EQ(count("jets.rpc.calls"), 3u);
  EXPECT_EQ(count("jets.rpc.completed"), 3u);
  EXPECT_EQ(count("jets.rpc.orphans"), 0u);
  EXPECT_EQ(chan.in_flight(), 0u);
}

TEST_F(RpcChannelTest, SameKeyCallsResolveFifo) {
  establish();
  Channel chan(engine, client, cfg());
  engine.spawn("serve", chan.serve());
  engine.spawn("peer", [](SocketPtr s) -> Task<void> {
    for (int i = 0; i < 2; ++i) (void)co_await s->recv();
    // Two identical correlation keys: replies must land in issue order.
    s->send(TaskDone("dup", 7, TaskDone::Reason::kApp).encode());
    s->send(TaskDone("dup", 8, TaskDone::Reason::kApp).encode());
    s->close();
  }(server));
  std::vector<int> statuses;
  for (int i = 0; i < 2; ++i) {
    engine.spawn("caller", [](Channel& ch, std::vector<int>& out) -> Task<void> {
      std::vector<std::string> argv = {"app"};
      auto r = co_await ch.call(TaskRun("dup", argv));
      CO_ASSERT_TRUE(r.ok());
      out.push_back(r.value().status);
    }(chan, statuses));
  }
  engine.run();
  EXPECT_EQ(statuses, (std::vector<int>{7, 8}));
}

TEST_F(RpcChannelTest, PeerCloseDrainsPendingCallsInIssueOrder) {
  establish();
  Channel chan(engine, client, cfg());
  engine.spawn("serve", chan.serve());
  engine.spawn("peer", [](SocketPtr s) -> Task<void> {
    for (int i = 0; i < 3; ++i) (void)co_await s->recv();
    s->close();  // vanish with all three calls outstanding
  }(server));
  std::vector<std::string> drain_order;
  for (int i = 0; i < 3; ++i) {
    engine.spawn("caller", [](Channel& ch, int i,
                              std::vector<std::string>& order) -> Task<void> {
      auto r = co_await ch.call(TaskRun("d" + std::to_string(i), {}));
      CO_ASSERT_FALSE(r.ok());
      EXPECT_EQ(r.error(), RpcError::kPeerClosed);
      order.push_back("d" + std::to_string(i));
    }(chan, i, drain_order));
  }
  engine.run();
  EXPECT_EQ(drain_order, (std::vector<std::string>{"d0", "d1", "d2"}));
  EXPECT_TRUE(chan.peer_closed());
  EXPECT_EQ(count("jets.rpc.peer_closed"), 3u);
  EXPECT_EQ(chan.in_flight(), 0u);
}

TEST_F(RpcChannelTest, IssueAndNotifyRefusedAfterEof) {
  establish();
  Channel chan(engine, client, cfg());
  engine.spawn("serve", chan.serve());
  engine.spawn("peer", [](SocketPtr s) -> Task<void> {
    (void)co_await s->recv();
    s->close();
  }(server));
  bool checked = false;
  engine.spawn("caller", [](Channel& ch, bool& checked) -> Task<void> {
    auto r = co_await ch.call(TaskRun("x", {}));
    CO_ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.error(), RpcError::kPeerClosed);
    // Post-EOF: both forms refuse without touching the socket.
    auto again = ch.call_cb(TaskRun("y", {}),
                            [](Expected<TaskDone, RpcError>) { FAIL(); });
    CO_ASSERT_FALSE(again.ok());
    EXPECT_EQ(again.error(), RpcError::kPeerClosed);
    EXPECT_FALSE(ch.notify(ReadyNote{}).ok());
    checked = true;
  }(chan, checked));
  engine.run();
  EXPECT_TRUE(checked);
  // Drained call + refused call; the refused notify is not a call.
  EXPECT_EQ(count("jets.rpc.peer_closed"), 2u);
  EXPECT_EQ(count("jets.rpc.calls"), 1u);
}

TEST_F(RpcChannelTest, OrphanUnknownTagAndDecodeErrorAreCounted) {
  establish();
  Channel chan(engine, client, cfg());
  engine.spawn("serve", chan.serve());
  engine.spawn("peer", [](SocketPtr s) -> Task<void> {
    (void)co_await s->recv();
    s->send(TaskDone("t", 0, TaskDone::Reason::kApp).encode());
    // Duplicate reply: same correlation id, no pending call -> orphan.
    s->send(TaskDone("t", 0, TaskDone::Reason::kApp).encode());
    // No route installed for this verb at all -> unknown tag.
    s->send(Message("no.such.verb", {"x"}));
    // Routed verb, malformed frame -> typed decode error, not a crash.
    s->send(Message("done", {"only-one-arg"}));
    s->close();
  }(server));
  engine.spawn("caller", [](Channel& ch) -> Task<void> {
    auto r = co_await ch.call(TaskRun("t", {}));
    EXPECT_TRUE(r.ok());
  }(chan));
  engine.run();
  EXPECT_EQ(count("jets.rpc.completed"), 1u);
  EXPECT_EQ(count("jets.rpc.orphans"), 1u);
  EXPECT_EQ(count("jets.rpc.unknown_tags"), 1u);
  EXPECT_EQ(count("jets.rpc.decode_errors"), 1u);
}

TEST_F(RpcChannelTest, SyncAndAsyncHandlersDispatchUnmatchedFrames) {
  establish();
  // This channel serves the *accept* side: handlers, not calls.
  Channel chan(engine, server, cfg());
  std::vector<std::string> runs;
  int pings = 0;
  // Async handler: takes the message by value — it must stay alive across
  // the handler's own suspension even though the dispatch scope's decoded
  // temporary is long gone.
  chan.on<TaskRun>([&runs](TaskRun run) -> Task<void> {
    co_await sim::delay(sim::milliseconds(5));
    runs.push_back(run.task_id + "/" + run.argv.at(0));
  });
  chan.on<PingNote>([&pings](PingNote&&) { ++pings; });
  engine.spawn("serve", chan.serve());
  engine.spawn("peer", [](SocketPtr s) -> Task<void> {
    post(*s, PingNote{});
    post(*s, TaskRun("j1", {"namd2.sh"}));
    post(*s, PingNote{});
    s->close();
    co_return;
  }(client));
  engine.run();
  EXPECT_EQ(runs, (std::vector<std::string>{"j1/namd2.sh"}));
  EXPECT_EQ(pings, 2);
}

// Pump mode: no serve() actor; each call() drains the socket itself. This
// is the PMI client's discipline — and the exact coroutine shape that
// tickled the GCC 12 aggregate-prvalue miscompile (a brace-init temporary
// argument living across co_await got a bitwise duplicate in the frame,
// whose destruction double-freed the string). The protocol structs carry
// user-provided constructors to stay non-aggregates; this test pins that.
// Run it under the sanitizer lane to keep the regression caught.
TEST_F(RpcChannelTest, PumpModeSequentialCallsWithPrvalueArguments) {
  establish();
  engine.spawn("peer", [](SocketPtr s) -> Task<void> {
    for (;;) {
      auto m = co_await s->recv();
      if (!m) break;
      if (m->tag == "pmi.get") {
        s->send(PmiValue(m->args[0], "v-" + m->args[0]).encode());
      } else if (m->tag == "pmi.barrier_in") {
        s->send(PmiBarrierOut{}.encode());
      }
    }
  }(server));
  bool done = false;
  engine.spawn("ranks", [](Engine& e, SocketPtr s, bool& done) -> Task<void> {
    Channel chan(e, s);  // channel owned by this coroutine frame, no serve
    for (int i = 0; i < 4; ++i) {
      // The prvalue temporaries below are the regression shape: they are
      // materialized in this frame and must survive the suspension.
      auto r = co_await chan.call(PmiGet{"card." + std::to_string(i)});
      CO_ASSERT_TRUE(r.ok());
      EXPECT_EQ(r.value().value, "v-card." + std::to_string(i));
      auto b = co_await chan.call(PmiBarrier{i});
      CO_ASSERT_TRUE(b.ok());
    }
    s->close();
    done = true;
  }(engine, client, done));
  engine.run();
  EXPECT_TRUE(done);
}

TEST_F(RpcChannelTest, PumpModePeerCloseFailsCall) {
  establish();
  engine.spawn("peer", [](SocketPtr s) -> Task<void> {
    auto m = co_await s->recv();
    CO_ASSERT_TRUE(m.has_value());
    s->send(PmiValue(m->args[0], "v").encode());
    (void)co_await s->recv();  // second request arrives...
    s->close();                // ...and dies unanswered
  }(server));
  bool done = false;
  engine.spawn("rank", [](Engine& e, SocketPtr s, bool& done) -> Task<void> {
    Channel chan(e, s);
    auto ok = co_await chan.call(PmiGet{"k1"});
    CO_ASSERT_TRUE(ok.ok());
    auto dead = co_await chan.call(PmiGet{"k2"});
    CO_ASSERT_FALSE(dead.ok());
    EXPECT_EQ(dead.error(), RpcError::kPeerClosed);
    EXPECT_TRUE(chan.peer_closed());
    done = true;
  }(engine, client, done));
  engine.run();
  EXPECT_TRUE(done);
}

TEST_F(RpcChannelTest, NotifyReachesPeerAndCounts) {
  establish();
  Channel chan(engine, client, cfg());
  std::vector<std::string> got;
  engine.spawn("peer", [](SocketPtr s, std::vector<std::string>& got)
                   -> Task<void> {
    for (;;) {
      auto m = co_await s->recv();
      if (!m) break;
      got.push_back(m->tag);
    }
  }(server, got));
  EXPECT_TRUE(chan.notify(ReadyNote{}).ok());
  EXPECT_TRUE(chan.notify(TaskDone("t", 0, TaskDone::Reason::kApp)).ok());
  engine.spawn("closer", [](SocketPtr s) -> Task<void> {
    co_await sim::delay(sim::seconds(1));
    s->close();
  }(client));
  engine.run();
  EXPECT_EQ(got, (std::vector<std::string>{"ready", "done"}));
  EXPECT_EQ(count("jets.rpc.notifies"), 2u);
  EXPECT_EQ(count("jets.rpc.calls"), 0u);
}

// --- Pending-call table vs a reference model -------------------------------
//
// Random scripts of calls with colliding keys, matching, orphan, wrong-tag
// and malformed replies, fail_responses and fail_all, run against the
// channel and against the map + per-key deque design the flat table
// replaced. Completion order, results and every ChannelMetrics counter must
// agree: the table must complete the *oldest* call per (tag, key) and
// drain in issue order.

/// The reference: calls ordered by issue, a FIFO of call numbers per
/// (response tag, key), and the counters ChannelMetrics keeps.
struct PendingModel {
  struct Call {
    std::string tag;
    std::string key;
  };
  std::map<int, Call> calls;
  std::map<std::pair<std::string, std::string>, std::deque<int>> index;
  std::set<std::string> routed;  // response tags with a route installed
  std::vector<std::string> log;
  std::map<std::string, std::uint64_t> counters;
  std::int64_t inflight = 0;

  void issue(int n, const std::string& tag, const std::string& key) {
    calls.emplace(n, Call{tag, key});
    index[{tag, key}].push_back(n);
    routed.insert(tag);
    ++counters["jets.rpc.calls"];
    ++inflight;
  }
  void finish(int n, const std::string& outcome) {
    const Call c = calls.at(n);
    calls.erase(n);
    auto& q = index[{c.tag, c.key}];
    q.erase(std::find(q.begin(), q.end(), n));
    --inflight;
    log.push_back("#" + std::to_string(n) + " " + outcome);
  }
  void reply(const std::string& tag, const std::string& key,
             const std::string& payload, bool malformed) {
    if (!routed.contains(tag)) {
      ++counters["jets.rpc.unknown_tags"];
    } else if (malformed) {
      ++counters["jets.rpc.decode_errors"];
    } else if (auto& q = index[{tag, key}]; !q.empty()) {
      ++counters["jets.rpc.completed"];
      finish(q.front(), "ok " + payload);
    } else {
      ++counters["jets.rpc.orphans"];
    }
  }
  void fail(const std::string* tag, RpcError err) {
    std::vector<int> doomed;
    for (const auto& [n, c] : calls) {
      if (!tag || c.tag == *tag) doomed.push_back(n);
    }
    for (int n : doomed) {
      ++counters[err == RpcError::kPeerClosed ? "jets.rpc.peer_closed"
                                               : "jets.rpc.cancelled"];
      finish(n, std::string("err ") + to_string(err));
    }
  }
};

TEST(RpcPendingCalls, MatchAMapAndDequeReferenceModel) {
  constexpr int kScripts = 300;
  constexpr int kOps = 60;
  const char* const kCounters[] = {
      "jets.rpc.calls",       "jets.rpc.completed",     "jets.rpc.peer_closed",
      "jets.rpc.cancelled",   "jets.rpc.orphans",       "jets.rpc.decode_errors",
      "jets.rpc.unknown_tags"};
  for (int script = 0; script < kScripts; ++script) {
    SCOPED_TRACE("script " + std::to_string(script));
    std::mt19937_64 rng(static_cast<std::uint64_t>(script) + 1);
    auto pick = [&rng](int n) {
      return static_cast<int>(rng() % static_cast<std::uint64_t>(n));
    };
    Engine engine;
    Network net(engine, std::make_shared<EthernetFabric>());
    auto listener = net.listen({1, 7000});
    SocketPtr server;
    SocketPtr client;
    engine.spawn("accept", [](Listener& l, SocketPtr& out) -> Task<void> {
      out = co_await l.accept();
    }(*listener, server));
    engine.spawn("connect", [](Network& n, SocketPtr& out) -> Task<void> {
      out = co_await n.connect(0, {1, 7000});
    }(net, client));
    engine.run();
    ASSERT_TRUE(server && client);

    obs::MetricsRegistry reg;
    ChannelMetrics metrics = ChannelMetrics::bind(reg);
    Channel::Config cfg;
    cfg.metrics = &metrics;
    Channel chan(engine, client, cfg);
    engine.spawn("serve", chan.serve());
    engine.run();

    PendingModel model;
    std::vector<std::string> log;
    int calls = 0;
    int replies = 0;
    const std::string keys[] = {"a", "b", "c"};
    for (int op = 0; op < kOps; ++op) {
      const std::string& key = keys[pick(3)];
      const int roll = pick(20);
      if (roll < 5) {  // call, run/done verbs
        const int n = ++calls;
        ASSERT_TRUE(chan.call_cb(TaskRun(key, {"app"}),
                                 [n, &log](Expected<TaskDone, RpcError> r) {
                                   log.push_back(
                                       "#" + std::to_string(n) +
                                       (r.ok() ? " ok " + std::to_string(
                                                              r.value().status)
                                               : std::string(" err ") +
                                                     to_string(r.error())));
                                 })
                        .ok());
        model.issue(n, TaskDone::kTag, key);
      } else if (roll < 8) {  // call, PMI get/value verbs
        const int n = ++calls;
        ASSERT_TRUE(chan.call_cb(PmiGet(key),
                                 [n, &log](Expected<PmiValue, RpcError> r) {
                                   log.push_back(
                                       "#" + std::to_string(n) +
                                       (r.ok() ? " ok " + r.value().value
                                               : std::string(" err ") +
                                                     to_string(r.error())));
                                 })
                        .ok());
        model.issue(n, PmiValue::kTag, key);
      } else if (roll < 12) {  // done reply: matching or orphan
        const int serial = ++replies;
        server->send(TaskDone(key, serial, TaskDone::Reason::kApp).encode());
        model.reply(TaskDone::kTag, key, std::to_string(serial), false);
      } else if (roll < 15) {  // value reply: wrong tag for a run call
        const int serial = ++replies;
        server->send(PmiValue(key, std::to_string(serial)).encode());
        model.reply(PmiValue::kTag, key, std::to_string(serial), false);
      } else if (roll < 16) {  // a reply verb no call ever routed
        server->send(StageAck(key).encode());
        model.reply(StageAck::kTag, key, "", false);
      } else if (roll < 17) {  // malformed done
        server->send(Message(TaskDone::kTag, {key}));
        model.reply(TaskDone::kTag, key, "", true);
      } else if (roll < 19) {  // write off one verb's calls
        const std::string tag = pick(2) == 0 ? TaskDone::kTag : PmiValue::kTag;
        const RpcError err =
            pick(2) == 0 ? RpcError::kCancelled : RpcError::kPeerClosed;
        chan.fail_responses(tag, err);
        model.fail(&tag, err);
      } else {  // drain everything
        const RpcError err =
            pick(2) == 0 ? RpcError::kCancelled : RpcError::kPeerClosed;
        chan.fail_all(err);
        model.fail(nullptr, err);
      }
      engine.run();  // deliver the reply, if any
      ASSERT_EQ(chan.in_flight(), model.calls.size()) << "op " << op;
    }
    EXPECT_EQ(log, model.log);
    for (const char* name : kCounters) {
      EXPECT_EQ(reg.counter_value(name), model.counters[name]) << name;
    }
    EXPECT_EQ(metrics.inflight_now, model.inflight);
    EXPECT_EQ(reg.gauge_value("jets.rpc.inflight"), model.inflight);
    // Frames first: the serve() frame points at `chan`.
    engine.shutdown();
    if (HasFailure()) return;  // one script's report is enough
  }
}

}  // namespace
}  // namespace jets::net::rpc

// --- 5. Service-level regression -------------------------------------------

namespace jets::core {
namespace {

using test::seq_job;
using test::service_counter;

// A worker that disconnects between task claim and flush: the "run"
// message's reply can never arrive, and the failure must surface through
// the typed RpcError::kPeerClosed path — counted in jets.rpc.peer_closed
// and classified kWorkerLost — not through an untyped dropped reply.
TEST(RpcService, RunToDisconnectedWorkerSurfacesAsPeerClosed) {
  test::ServiceBed bed(os::Machine::breadboard(2), {{"sleep", 16'384}});
  StandaloneOptions options;
  options.worker.task_overhead = sim::milliseconds(2);
  StandaloneJets jets(bed.machine, bed.apps, options);
  jets.start(test::ServiceBed::nodes(2));

  ChaosEngine chaos(bed.machine, sim::Rng(1));
  chaos.add({.at = sim::seconds(2), .kind = FaultKind::kSocketClose, .node = 0});

  BatchReport report = bed.run_chaos(
      jets, &chaos, std::vector<JobSpec>(2, seq_job({"sleep", "10"})));

  EXPECT_EQ(report.completed, 2u);
  const JobRecord* retried = nullptr;
  for (const JobRecord& rec : report.records) {
    if (rec.attempts > 1) retried = &rec;
  }
  ASSERT_NE(retried, nullptr);
  ASSERT_GE(retried->history.size(), 2u);
  EXPECT_EQ(retried->history[0].reason, FailureReason::kWorkerLost);
  EXPECT_EQ(service_counter(jets.service(), "failures.worker-lost"), 1u);
  // The typed layer saw the disconnect: the in-flight "done" reply was
  // drained (or a post-EOF send refused) with kPeerClosed.
  EXPECT_GE(jets.service().metrics().counter_value("jets.rpc.peer_closed"), 1u);
  EXPECT_GT(jets.service().metrics().counter_value("jets.rpc.calls"), 0u);
}

}  // namespace
}  // namespace jets::core

// --- 6. Hostile peers ------------------------------------------------------

namespace jets::pmi {
namespace {

using net::Message;
using test::TestBed;

/// Dials `to` from `from`, sends `frames`, then reads until the far end
/// hangs up; `dropped` records that it did.
sim::Task<void> hostile_peer(os::Machine& machine, os::NodeId from,
                             net::Address to, std::vector<Message> frames,
                             bool& dropped) {
  net::SocketPtr sock = co_await machine.network().connect(from, to);
  for (Message& f : frames) sock->send(std::move(f));
  for (;;) {
    auto m = co_await sock->recv();
    if (!m) break;
  }
  dropped = true;
}

/// Starts a 2-rank mpiexec of `app` with its proxies on `nodes`.
std::unique_ptr<Mpiexec> start_job(TestBed& bed, const std::string& app,
                                   const std::vector<os::NodeId>& nodes) {
  MpiexecSpec spec;
  spec.user_argv = {app};
  spec.nprocs = 2;
  return bed.launch_manual(spec, nodes);
}

sim::Task<void> wait_rc(Mpiexec& mpx, int& rc) { rc = co_await mpx.wait(); }

TEST(RpcHostilePeer, BadControlFrameFailsOnlyItsOwnJob) {
  struct Case {
    const char* tag;
    std::vector<Message> frames;
  };
  const std::vector<Case> cases = {
      {"proxy.exit", {Message("proxy.exit", {"0"})}},
      {"pmi.init", {Message("pmi.init", {"abc"})}},
      {"pmi.init", {Message("pmi.init", {"99"})}},
      {"proxy.hello", {Message("proxy.hello", {"x"})}},
      {"pmi.put", {Message("pmi.put", {"k"})}},
      {"no.such.verb", {Message("no.such.verb")}},
      {"pmi.init", {Message("pmi.init", {"0"}), Message("pmi.init", {"0"})}},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(std::string(c.tag) + " x" + std::to_string(c.frames.size()));
    TestBed bed(os::Machine::breadboard(8));
    bed.install_app("noop", [](os::Env&) -> sim::Task<void> { co_return; });
    auto hit = start_job(bed, "noop", {0, 1});
    auto clean = start_job(bed, "noop", {2, 3});
    bool dropped = false;
    bed.engine.spawn("hostile", hostile_peer(bed.machine, 4,
                                             hit->control_address(),
                                             c.frames, dropped));
    int hit_rc = -1;
    int clean_rc = -1;
    bed.engine.spawn("wait-hit", wait_rc(*hit, hit_rc));
    bed.engine.spawn("wait-clean", wait_rc(*clean, clean_rc));
    EXPECT_NO_THROW(bed.engine.run());
    EXPECT_NE(hit_rc, 0);
    EXPECT_EQ(hit->fail_kind(), MpiexecFailKind::kProtocol);
    EXPECT_EQ(hit->failure_reason().rfind(std::string(c.tag) + ": ", 0), 0u)
        << hit->failure_reason();
    EXPECT_TRUE(dropped);  // mpiexec stopped reading and hung up
    EXPECT_EQ(clean_rc, 0);
    EXPECT_EQ(clean->fail_kind(), MpiexecFailKind::kNone);
  }
}

TEST(RpcHostilePeer, MalformedProxyExecStartsNoRank) {
  TestBed bed(os::Machine::breadboard(4));
  int ran = 0;
  bed.install_app("noop", [&ran](os::Env&) -> sim::Task<void> {
    ++ran;
    co_return;
  });
  // A fake mpiexec answers the proxy's hello with an exec naming no command.
  const net::Address control{3, bed.machine.allocate_port()};
  auto listener = bed.machine.network().listen(control);
  bool proxy_left = false;
  bed.engine.spawn("fake-mpiexec", [](net::Listener& l,
                                      bool& left) -> sim::Task<void> {
    net::SocketPtr sock = co_await l.accept();
    (void)co_await sock->recv();  // proxy.hello
    Message exec("proxy.exec", {"2", "1", "0", "noop", "0"});
    sock->send(std::move(exec));
    auto next = co_await sock->recv();
    left = !next.has_value();  // EOF, no proxy.exit
  }(*listener, proxy_left));
  bed.run_proxy(0, {kProxyBinary, "--control-addr", std::to_string(control.node),
                    std::to_string(control.port), "--proxy-id", "0"});
  EXPECT_NO_THROW(bed.engine.run());
  EXPECT_TRUE(proxy_left);
  EXPECT_EQ(ran, 0);
}

TEST(RpcHostilePeer, BadMpiHelloIsDroppedWithoutAbortingTheRun) {
  TestBed bed(os::Machine::breadboard(4));
  bool dropped = false;
  int got_tag = 0;
  bed.install_app("hello_app", [&](os::Env& env) -> sim::Task<void> {
    auto comm = co_await mpi::Comm::init(env);
    if (comm->rank() == 1) {
      // Dial rank 0's card as a peer would, but introduce ourselves badly.
      const std::string card = co_await env.pmi->get("card.0");
      const auto space = card.find(' ');
      const net::Address addr{
          *net::rpc::parse_number<os::NodeId>(card.substr(0, space)),
          *net::rpc::parse_number<net::Port>(card.substr(space + 1))};
      net::SocketPtr sock =
          co_await env.machine->network().connect(env.node, addr);
      Message hello("mpi.hello", {"x"});
      sock->send(std::move(hello));
      auto reply = co_await sock->recv();
      dropped = !reply.has_value();
      // The real wire-up still works afterwards.
      const mpi::RecvResult r = co_await comm->recv(0);
      got_tag = r.tag;
    } else {
      co_await comm->send(1, 64, /*tag=*/7);
    }
    co_await comm->finalize();
  });
  auto mpx = start_job(bed, "hello_app", {0, 1});
  int rc = -1;
  bed.engine.spawn("wait", wait_rc(*mpx, rc));
  EXPECT_NO_THROW(bed.engine.run());
  EXPECT_TRUE(dropped);
  EXPECT_EQ(got_tag, 7);
  EXPECT_EQ(rc, 0);
}

}  // namespace
}  // namespace jets::pmi
