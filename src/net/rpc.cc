#include "net/rpc.hh"

#include <algorithm>

namespace jets::net::rpc {
namespace {

// Digest text form: exactly 16 lowercase hex chars (the CAS convention —
// see os::CasStore). Anything else, including a zero digest, is rejected:
// the service historically dropped acks whose digest failed this parse.
std::optional<std::uint64_t> parse_hex16(std::string_view s) {
  if (s.size() != 16) return std::nullopt;
  std::uint64_t v = 0;
  for (const char c : s) {
    v <<= 4;
    if (c >= '0' && c <= '9') {
      v |= static_cast<std::uint64_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      v |= static_cast<std::uint64_t>(c - 'a' + 10);
    } else {
      return std::nullopt;
    }
  }
  return v;
}

std::string hex16(std::uint64_t v) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[static_cast<std::size_t>(i)] = kDigits[v & 0xF];
    v >>= 4;
  }
  return out;
}

using Kind = DecodeError::Kind;

template <typename M>
Expected<M, DecodeError> err(Kind kind, const char* field) {
  return Unexpected{DecodeError{kind, field}};
}

template <typename M>
std::optional<DecodeError> check_tag(const Message& m) {
  if (m.tag != M::kTag) return DecodeError{Kind::kBadTag, "tag"};
  return std::nullopt;
}

/// `head` followed by the "n, argv..., k=v..." tail TaskRun and ProxyExec
/// share.
std::vector<std::string> command_args(
    std::initializer_list<std::string_view> head,
    const std::vector<std::string>& argv,
    const std::map<std::string, std::string>& vars) {
  std::vector<std::string> args;
  args.reserve(head.size() + 1 + argv.size() + vars.size());
  for (const std::string_view h : head) args.emplace_back(h);
  args.push_back(std::to_string(argv.size()));
  for (const std::string& a : argv) args.push_back(a);
  for (const auto& [k, v] : vars) args.push_back(k + "=" + v);
  return args;
}

/// Decodes the command tail starting at args[at] (the argv count).
std::optional<DecodeError> decode_command(
    const std::vector<std::string>& args, std::size_t at,
    std::vector<std::string>& argv, std::map<std::string, std::string>& vars) {
  if (args.size() <= at) return DecodeError{Kind::kMissingArg, "argc"};
  const auto n = parse_number<std::uint64_t>(args[at]);
  if (!n) return DecodeError{Kind::kBadNumber, "argc"};
  const std::size_t first = at + 1;
  if (*n > args.size() - first) return DecodeError{Kind::kMissingArg, "argv"};
  const std::size_t end = first + *n;
  argv.assign(args.begin() + static_cast<std::ptrdiff_t>(first),
              args.begin() + static_cast<std::ptrdiff_t>(end));
  for (std::size_t i = end; i < args.size(); ++i) {
    const std::string& kv = args[i];
    const std::size_t eq = kv.find('=');
    if (eq == std::string::npos) return DecodeError{Kind::kTrailingArgs, "vars"};
    vars[kv.substr(0, eq)] = kv.substr(eq + 1);
  }
  return std::nullopt;
}

}  // namespace

const char* to_string(RpcError e) {
  switch (e) {
    case RpcError::kPeerClosed: return "peer_closed";
    case RpcError::kCancelled: return "cancelled";
  }
  return "unknown";
}

std::string to_string(const DecodeError& e) {
  const char* kind = "unknown";
  switch (e.kind) {
    case Kind::kBadTag: kind = "bad_tag"; break;
    case Kind::kMissingArg: kind = "missing_arg"; break;
    case Kind::kTrailingArgs: kind = "trailing_args"; break;
    case Kind::kBadNumber: kind = "bad_number"; break;
    case Kind::kBadEnum: kind = "bad_enum"; break;
    case Kind::kBadDigest: kind = "bad_digest"; break;
    case Kind::kOversized: kind = "oversized"; break;
  }
  return std::string(kind) + "(" + e.field + ")";
}

// --- Protocol encode/decode ----------------------------------------------

Message RegisterReq::encode() const {
  std::vector<std::string> args;
  args.reserve(1 + inventory.size());
  args.push_back(std::to_string(node));
  for (const std::string& t : inventory) args.push_back(t);
  return Message(kTag, std::move(args));
}

Expected<RegisterReq, DecodeError> RegisterReq::decode(const Message& m) {
  if (auto e = check_tag<RegisterReq>(m)) return Unexpected{*e};
  if (m.args.empty()) return err<RegisterReq>(Kind::kMissingArg, "node");
  const auto node = parse_number<std::uint64_t>(m.args[0]);
  if (!node) return err<RegisterReq>(Kind::kBadNumber, "node");
  if (*node > 0xFFFFFFFFu) return err<RegisterReq>(Kind::kOversized, "node");
  RegisterReq r;
  r.node = static_cast<NodeId>(*node);
  r.inventory.assign(m.args.begin() + 1, m.args.end());
  return r;
}

Expected<ReadyNote, DecodeError> ReadyNote::decode(const Message& m) {
  if (auto e = check_tag<ReadyNote>(m)) return Unexpected{*e};
  if (!m.args.empty()) return err<ReadyNote>(Kind::kTrailingArgs, "args");
  return ReadyNote{};
}

Expected<PingNote, DecodeError> PingNote::decode(const Message& m) {
  if (auto e = check_tag<PingNote>(m)) return Unexpected{*e};
  if (!m.args.empty()) return err<PingNote>(Kind::kTrailingArgs, "args");
  return PingNote{};
}

Message TaskDone::encode() const {
  const char* reason_token = "app";
  switch (reason) {
    case Reason::kApp: reason_token = "app"; break;
    case Reason::kWatchdog: reason_token = "watchdog"; break;
    case Reason::kKilled: reason_token = "killed"; break;
  }
  return Message(kTag, {task_id, std::to_string(status), reason_token});
}

Expected<TaskDone, DecodeError> TaskDone::decode(const Message& m) {
  if (auto e = check_tag<TaskDone>(m)) return Unexpected{*e};
  if (m.args.size() < 3) return err<TaskDone>(Kind::kMissingArg, "reason");
  if (m.args.size() > 3) return err<TaskDone>(Kind::kTrailingArgs, "args");
  const auto status = parse_number<int>(m.args[1]);
  if (!status) return err<TaskDone>(Kind::kBadNumber, "status");
  TaskDone d;
  d.task_id = m.args[0];
  d.status = *status;
  if (m.args[2] == "app") {
    d.reason = Reason::kApp;
  } else if (m.args[2] == "watchdog") {
    d.reason = Reason::kWatchdog;
  } else if (m.args[2] == "killed") {
    d.reason = Reason::kKilled;
  } else {
    return err<TaskDone>(Kind::kBadEnum, "reason");
  }
  return d;
}

Message TaskRun::encode() const {
  return Message(kTag, command_args({task_id}, argv, vars));
}

Expected<TaskRun, DecodeError> TaskRun::decode(const Message& m) {
  if (auto e = check_tag<TaskRun>(m)) return Unexpected{*e};
  if (m.args.empty()) return err<TaskRun>(Kind::kMissingArg, "argc");
  TaskRun r;
  r.task_id = m.args[0];
  if (auto e = decode_command(m.args, 1, r.argv, r.vars)) return Unexpected{*e};
  return r;
}

Expected<KillReq, DecodeError> KillReq::decode(const Message& m) {
  if (auto e = check_tag<KillReq>(m)) return Unexpected{*e};
  if (m.args.empty()) return err<KillReq>(Kind::kMissingArg, "task");
  if (m.args.size() > 1) return err<KillReq>(Kind::kTrailingArgs, "args");
  return KillReq{m.args[0]};
}

Message StageAck::encode() const {
  if (digest == 0) return Message(kTag, {path});
  std::vector<std::string> args;
  args.reserve(2 + evictions.size());
  args.push_back(path);
  args.push_back("d=" + hex16(digest));
  for (const std::uint64_t ev : evictions) args.push_back("e=" + hex16(ev));
  return Message(kTag, std::move(args));
}

Expected<StageAck, DecodeError> StageAck::decode(const Message& m) {
  if (auto e = check_tag<StageAck>(m)) return Unexpected{*e};
  if (m.args.empty()) return err<StageAck>(Kind::kMissingArg, "path");
  StageAck a;
  a.path = m.args[0];
  if (m.args.size() >= 2 && m.args[1].starts_with("d=")) {
    const auto digest = parse_hex16(std::string_view(m.args[1]).substr(2));
    if (!digest || *digest == 0) return err<StageAck>(Kind::kBadDigest, "d");
    a.digest = *digest;
    for (std::size_t i = 2; i < m.args.size(); ++i) {
      const std::string_view arg = m.args[i];
      if (!arg.starts_with("e=")) {
        return err<StageAck>(Kind::kTrailingArgs, "e");
      }
      const auto ev = parse_hex16(arg.substr(2));
      if (!ev || *ev == 0) return err<StageAck>(Kind::kBadDigest, "e");
      a.evictions.push_back(*ev);
    }
  } else if (m.args.size() > 1) {
    return err<StageAck>(Kind::kTrailingArgs, "args");
  }
  return a;
}

Message StageReq::encode() const {
  if (legacy) {
    return Message(kTag, {header.path}, payload);
  }
  return Message(kTag, encode_stage_args(header), payload);
}

Expected<StageReq, DecodeError> StageReq::decode(const Message& m) {
  if (auto e = check_tag<StageReq>(m)) return Unexpected{*e};
  if (m.args.empty()) return err<StageReq>(Kind::kMissingArg, "path");
  StageReq r;
  r.payload = m.payload_bytes;
  if (const auto h = parse_stage_args(m.args)) {
    r.header = *h;
  } else {
    // Legacy broadcast fallback: anything not matching the digest grammar
    // is [path] (+ payload). This mirrors the worker's historical
    // behavior and keeps the pre-CAS channel working.
    r.legacy = true;
    r.header.path = m.args[0];
    r.header.bytes = m.payload_bytes;
  }
  return r;
}

Expected<PmiInit, DecodeError> PmiInit::decode(const Message& m) {
  if (auto e = check_tag<PmiInit>(m)) return Unexpected{*e};
  if (m.args.empty()) return err<PmiInit>(Kind::kMissingArg, "rank");
  if (m.args.size() > 1) return err<PmiInit>(Kind::kTrailingArgs, "args");
  const auto rank = parse_number<int>(m.args[0]);
  if (!rank) return err<PmiInit>(Kind::kBadNumber, "rank");
  return PmiInit{*rank};
}

Expected<PmiPut, DecodeError> PmiPut::decode(const Message& m) {
  if (auto e = check_tag<PmiPut>(m)) return Unexpected{*e};
  if (m.args.size() < 2) return err<PmiPut>(Kind::kMissingArg, "value");
  if (m.args.size() > 2) return err<PmiPut>(Kind::kTrailingArgs, "args");
  return PmiPut{m.args[0], m.args[1]};
}

Expected<PmiValue, DecodeError> PmiValue::decode(const Message& m) {
  if (auto e = check_tag<PmiValue>(m)) return Unexpected{*e};
  if (m.args.size() < 2) return err<PmiValue>(Kind::kMissingArg, "value");
  if (m.args.size() > 2) return err<PmiValue>(Kind::kTrailingArgs, "args");
  return PmiValue{m.args[0], m.args[1]};
}

Expected<PmiGet, DecodeError> PmiGet::decode(const Message& m) {
  if (auto e = check_tag<PmiGet>(m)) return Unexpected{*e};
  if (m.args.empty()) return err<PmiGet>(Kind::kMissingArg, "key");
  if (m.args.size() > 1) return err<PmiGet>(Kind::kTrailingArgs, "args");
  return PmiGet{m.args[0]};
}

Expected<PmiBarrierOut, DecodeError> PmiBarrierOut::decode(const Message& m) {
  if (auto e = check_tag<PmiBarrierOut>(m)) return Unexpected{*e};
  if (!m.args.empty()) return err<PmiBarrierOut>(Kind::kTrailingArgs, "args");
  return PmiBarrierOut{};
}

Expected<PmiBarrier, DecodeError> PmiBarrier::decode(const Message& m) {
  if (auto e = check_tag<PmiBarrier>(m)) return Unexpected{*e};
  if (m.args.empty()) return err<PmiBarrier>(Kind::kMissingArg, "rank");
  if (m.args.size() > 1) return err<PmiBarrier>(Kind::kTrailingArgs, "args");
  const auto rank = parse_number<int>(m.args[0]);
  if (!rank) return err<PmiBarrier>(Kind::kBadNumber, "rank");
  return PmiBarrier{*rank};
}

Expected<PmiFinalize, DecodeError> PmiFinalize::decode(const Message& m) {
  if (auto e = check_tag<PmiFinalize>(m)) return Unexpected{*e};
  if (m.args.empty()) return err<PmiFinalize>(Kind::kMissingArg, "rank");
  if (m.args.size() > 1) return err<PmiFinalize>(Kind::kTrailingArgs, "args");
  const auto rank = parse_number<int>(m.args[0]);
  if (!rank) return err<PmiFinalize>(Kind::kBadNumber, "rank");
  return PmiFinalize{*rank};
}

Expected<ProxyHello, DecodeError> ProxyHello::decode(const Message& m) {
  if (auto e = check_tag<ProxyHello>(m)) return Unexpected{*e};
  if (m.args.empty()) return err<ProxyHello>(Kind::kMissingArg, "proxy_id");
  if (m.args.size() > 1) return err<ProxyHello>(Kind::kTrailingArgs, "args");
  const auto id = parse_number<int>(m.args[0]);
  if (!id) return err<ProxyHello>(Kind::kBadNumber, "proxy_id");
  return ProxyHello{*id};
}

Message ProxyExec::encode() const {
  return Message(kTag, command_args({std::to_string(nprocs), std::to_string(ppn),
                                     std::to_string(base), binary},
                                    argv, vars));
}

Expected<ProxyExec, DecodeError> ProxyExec::decode(const Message& m) {
  if (auto e = check_tag<ProxyExec>(m)) return Unexpected{*e};
  if (m.args.size() < 4) return err<ProxyExec>(Kind::kMissingArg, "binary");
  const auto nprocs = parse_number<int>(m.args[0]);
  if (!nprocs) return err<ProxyExec>(Kind::kBadNumber, "nprocs");
  const auto ppn = parse_number<int>(m.args[1]);
  if (!ppn) return err<ProxyExec>(Kind::kBadNumber, "ppn");
  const auto base = parse_number<int>(m.args[2]);
  if (!base) return err<ProxyExec>(Kind::kBadNumber, "base");
  ProxyExec x;
  x.nprocs = *nprocs;
  x.ppn = *ppn;
  x.base = *base;
  x.binary = m.args[3];
  if (auto e = decode_command(m.args, 4, x.argv, x.vars)) return Unexpected{*e};
  if (x.argv.empty()) return err<ProxyExec>(Kind::kMissingArg, "argv");
  return x;
}

Expected<ProxyExit, DecodeError> ProxyExit::decode(const Message& m) {
  if (auto e = check_tag<ProxyExit>(m)) return Unexpected{*e};
  if (m.args.size() < 2) return err<ProxyExit>(Kind::kMissingArg, "code");
  if (m.args.size() > 2) return err<ProxyExit>(Kind::kTrailingArgs, "args");
  const auto id = parse_number<int>(m.args[0]);
  if (!id) return err<ProxyExit>(Kind::kBadNumber, "proxy_id");
  const auto code = parse_number<int>(m.args[1]);
  if (!code) return err<ProxyExit>(Kind::kBadNumber, "code");
  return ProxyExit{*id, *code};
}

Expected<StdoutNote, DecodeError> StdoutNote::decode(const Message& m) {
  if (auto e = check_tag<StdoutNote>(m)) return Unexpected{*e};
  if (!m.args.empty()) return err<StdoutNote>(Kind::kTrailingArgs, "args");
  return StdoutNote{m.payload_bytes};
}

// --- Metrics --------------------------------------------------------------

ChannelMetrics ChannelMetrics::bind(obs::MetricsRegistry& m) {
  ChannelMetrics out;
  out.calls = &m.counter("jets.rpc.calls");
  out.notifies = &m.counter("jets.rpc.notifies");
  out.completed = &m.counter("jets.rpc.completed");
  out.peer_closed = &m.counter("jets.rpc.peer_closed");
  out.cancelled = &m.counter("jets.rpc.cancelled");
  out.orphans = &m.counter("jets.rpc.orphans");
  out.decode_errors = &m.counter("jets.rpc.decode_errors");
  out.unknown_tags = &m.counter("jets.rpc.unknown_tags");
  out.inflight = &m.gauge("jets.rpc.inflight");
  return out;
}

// --- Channel --------------------------------------------------------------

Channel::TagEntry* Channel::find_tag(std::string_view tag) {
  for (TagEntry& e : tags_) {
    if (e.tag == tag) return &e;
  }
  return nullptr;
}

Channel::TagEntry* Channel::route(std::string_view tag) {
  if (TagEntry* e = find_tag(tag)) return e;
  tags_.push_back(TagEntry{tag, nullptr, nullptr});
  return &tags_.back();
}

std::vector<Channel::PendingCall>::const_iterator Channel::find_call(
    std::string_view resp_tag, std::string_view key) const {
  return std::find_if(calls_.begin(), calls_.end(), [&](const PendingCall& p) {
    return p.resp_tag == resp_tag && p.key == key;
  });
}

bool Channel::has_pending(std::string_view resp_tag,
                          std::string_view key) const {
  return find_call(resp_tag, key) != calls_.end();
}

bool Channel::try_complete(std::string_view resp_tag, std::string_view key,
                           void* resp) {
  const auto it = find_call(resp_tag, key);
  if (it == calls_.end()) return false;
  finish_call(static_cast<std::size_t>(it - calls_.begin()), resp,
              RpcError::kCancelled /* unused */);
  return true;
}

void Channel::finish_call(std::size_t pos, void* resp, RpcError err) {
  // Out of the table before the callback runs: it may issue or finish
  // calls on this channel.
  PendingCall p = std::move(calls_[pos]);
  calls_.erase(calls_.begin() + static_cast<std::ptrdiff_t>(pos));
  if (ChannelMetrics* mm = config_.metrics) {
    --mm->inflight_now;
    if (mm->inflight) mm->inflight->set(mm->inflight_now);
    if (resp) {
      if (mm->completed) mm->completed->inc();
    } else if (err == RpcError::kPeerClosed) {
      if (mm->peer_closed) mm->peer_closed->inc();
    } else if (mm->cancelled) {
      mm->cancelled->inc();
    }
  }
  p.complete(resp, err);
}

void Channel::fail_all(RpcError err) {
  while (!calls_.empty()) finish_call(0, nullptr, err);
}

void Channel::fail_responses(std::string_view resp_tag, RpcError err) {
  // Only the calls pending now: one a callback issues is not written off.
  const CallId end = next_id_;
  for (;;) {
    const auto it = std::find_if(
        calls_.begin(), calls_.end(), [&](const PendingCall& p) {
          return p.id < end && p.resp_tag == resp_tag;
        });
    if (it == calls_.end()) return;
    finish_call(static_cast<std::size_t>(it - calls_.begin()), nullptr, err);
  }
}

void Channel::note_orphan() {
  if (config_.metrics && config_.metrics->orphans) {
    config_.metrics->orphans->inc();
  }
}

void Channel::note_decode_error() {
  if (config_.metrics && config_.metrics->decode_errors) {
    config_.metrics->decode_errors->inc();
  }
}

void Channel::note_unknown_tag() {
  if (config_.metrics && config_.metrics->unknown_tags) {
    config_.metrics->unknown_tags->inc();
  }
}

std::optional<sim::Task<void>> Channel::dispatch(Message&& m) {
  if (on_message_) on_message_();
  TagEntry* e = find_tag(m.tag);
  if (!e) {
    note_unknown_tag();
  } else if (e->sync) {
    e->sync(*this, std::move(m));
  } else {
    return e->async(*this, std::move(m));
  }
  return std::nullopt;
}

sim::Task<void> Channel::serve() {
  serving_ = true;
  for (;;) {
    std::optional<Message> m = co_await sock_->recv();
    // Hang injection point: a hung pilot stops examining frames but its
    // socket keeps buffering — same order the hand-written loop used
    // (gate check even on the EOF wakeup).
    if (hang_gate_) {
      if (sim::Gate* g = hang_gate_()) co_await g->wait();
    }
    if (!m) {
      peer_closed_ = true;
      break;
    }
    if (stopped_) break;
    if (auto t = dispatch(std::move(*m))) co_await std::move(*t);
    if (stopped_) break;
  }
  serving_ = false;
  if (!config_.manual_drain) fail_all(RpcError::kPeerClosed);
}

sim::Task<void> Channel::pump_until(WaitCore* st) {
  // Self-driven mode: no serve() loop owns the socket, so the caller's
  // coroutine performs the recv/dispatch itself — the exact event shape of
  // the hand-written send-then-recv-loop clients (PMI). One sequential
  // caller per channel.
  while (!st->done) {
    std::optional<Message> m = co_await sock_->recv();
    if (!m) {
      peer_closed_ = true;
      fail_all(RpcError::kPeerClosed);
      break;
    }
    if (auto t = dispatch(std::move(*m))) co_await std::move(*t);
  }
}

}  // namespace jets::net::rpc
