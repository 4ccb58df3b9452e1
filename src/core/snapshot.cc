// Snapshot codec + the two Service halves that depend on it:
// checkpoint() (live state -> Snapshot) and apply_snapshot()
// (Snapshot -> freshly constructed service). See snapshot.hh for the wire
// format and DESIGN.md §10 for the determinism argument.
#include "core/snapshot.hh"

#include <algorithm>
#include <bit>
#include <sstream>
#include <unordered_map>

#include "core/service.hh"
#include "obs/tracer.hh"

namespace jets::core {

namespace {

// Section tags. Values are wire protocol: never renumber, only append.
enum SectionTag : std::uint16_t {
  kMeta = 1,      // required
  kCounters = 2,  // optional
  kJobs = 3,      // required
  kQueue = 4,     // required
  kWorkers = 5,   // required
  kNodes = 6,     // optional
  kRng = 7,       // required
  kJournal = 8,   // optional
  kStaging = 9,   // optional
  kElastic = 10,  // optional
};

constexpr std::uint8_t kFlagLittleEndian = 0x01;

class Writer {
 public:
  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u16(std::uint16_t v) {
    for (int i = 0; i < 2; ++i) buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void u32(std::uint32_t v) {
    for (int i = 0; i < 4; ++i) buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void i32(std::int32_t v) { u32(static_cast<std::uint32_t>(v)); }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
  void boolean(bool v) { u8(v ? 1 : 0); }
  void str(const std::string& s) {
    u32(static_cast<std::uint32_t>(s.size()));
    buf_.insert(buf_.end(), s.begin(), s.end());
  }

  const std::vector<std::uint8_t>& bytes() const { return buf_; }

  /// Appends a complete tagged section built by `body` (payload length is
  /// back-patched, so sections compose without a second serialization pass).
  template <typename Body>
  void section(std::uint16_t tag, Body&& body) {
    u16(tag);
    const std::size_t len_at = buf_.size();
    u64(0);  // placeholder
    const std::size_t begin = buf_.size();
    body(*this);
    const std::uint64_t len = buf_.size() - begin;
    for (int i = 0; i < 8; ++i) {
      buf_[len_at + static_cast<std::size_t>(i)] =
          static_cast<std::uint8_t>(len >> (8 * i));
    }
  }

 private:
  std::vector<std::uint8_t> buf_;
};

class Reader {
 public:
  Reader(const std::uint8_t* data, std::size_t size) : data_(data), size_(size) {}

  std::uint8_t u8() { return take(1)[0]; }
  std::uint16_t u16() { return static_cast<std::uint16_t>(le(2)); }
  std::uint32_t u32() { return static_cast<std::uint32_t>(le(4)); }
  std::uint64_t u64() { return le(8); }
  std::int32_t i32() { return static_cast<std::int32_t>(u32()); }
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  double f64() { return std::bit_cast<double>(u64()); }
  bool boolean() { return u8() != 0; }
  std::string str() {
    const std::uint32_t n = u32();
    const std::uint8_t* p = take(n);
    return std::string(reinterpret_cast<const char*>(p), n);
  }

  bool done() const { return pos_ == size_; }
  std::size_t remaining() const { return size_ - pos_; }
  void skip(std::size_t n) { take(n); }
  /// Bounded view of the next `n` bytes (one section's payload), consumed
  /// from this reader — a corrupt section can never read past its length.
  Reader sub(std::size_t n) { return Reader(take(n), n); }

 private:
  const std::uint8_t* take(std::size_t n) {
    if (n > size_ - pos_) throw SnapshotError("snapshot truncated");
    const std::uint8_t* p = data_ + pos_;
    pos_ += n;
    return p;
  }
  std::uint64_t le(std::size_t n) {
    const std::uint8_t* p = take(n);
    std::uint64_t v = 0;
    for (std::size_t i = 0; i < n; ++i) v |= std::uint64_t{p[i]} << (8 * i);
    return v;
  }

  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

void write_retry(Writer& w, const RetryPolicy& p) {
  w.i32(p.max_attempts);
  w.boolean(p.infra_exempt);
  w.i32(p.max_infra_failures);
  w.i64(p.backoff_base);
  w.f64(p.backoff_factor);
  w.i64(p.backoff_max);
  w.f64(p.backoff_jitter);
  w.u64(p.jitter_seed);
}

RetryPolicy read_retry(Reader& r) {
  RetryPolicy p;
  p.max_attempts = r.i32();
  p.infra_exempt = r.boolean();
  p.max_infra_failures = r.i32();
  p.backoff_base = r.i64();
  p.backoff_factor = r.f64();
  p.backoff_max = r.i64();
  p.backoff_jitter = r.f64();
  p.jitter_seed = r.u64();
  return p;
}

void write_spec(Writer& w, const JobSpec& s) {
  w.u8(static_cast<std::uint8_t>(s.kind));
  w.i32(s.nprocs);
  w.i32(s.ppn);
  w.u32(static_cast<std::uint32_t>(s.argv.size()));
  for (const std::string& a : s.argv) w.str(a);
  w.u32(static_cast<std::uint32_t>(s.vars.size()));
  for (const auto& [k, v] : s.vars) {
    w.str(k);
    w.str(v);
  }
  w.i64(s.timeout);
  w.i32(s.priority);
  w.boolean(s.retry.has_value());
  if (s.retry) write_retry(w, *s.retry);
  w.u32(static_cast<std::uint32_t>(s.stage_files.size()));
  for (const std::string& f : s.stage_files) w.str(f);
  w.i64(s.expected_runtime);
}

JobSpec read_spec(Reader& r) {
  JobSpec s;
  const std::uint8_t kind = r.u8();
  if (kind > 1) throw SnapshotError("snapshot: bad job kind");
  s.kind = static_cast<JobKind>(kind);
  s.nprocs = r.i32();
  s.ppn = r.i32();
  for (std::uint32_t n = r.u32(); n > 0; --n) s.argv.push_back(r.str());
  for (std::uint32_t n = r.u32(); n > 0; --n) {
    std::string k = r.str();
    s.vars[std::move(k)] = r.str();
  }
  s.timeout = r.i64();
  s.priority = r.i32();
  if (r.boolean()) s.retry = read_retry(r);
  for (std::uint32_t n = r.u32(); n > 0; --n) s.stage_files.push_back(r.str());
  s.expected_runtime = r.i64();
  return s;
}

FailureReason read_reason(Reader& r) {
  const std::uint8_t v = r.u8();
  if (v >= kFailureReasonCount) throw SnapshotError("snapshot: bad failure reason");
  return static_cast<FailureReason>(v);
}

void write_record(Writer& w, const JobRecord& rec) {
  w.u64(rec.id);
  write_spec(w, rec.spec);
  w.u8(static_cast<std::uint8_t>(rec.status));
  w.i32(rec.attempts);
  w.i32(rec.app_failures);
  w.i32(rec.infra_failures);
  w.u8(static_cast<std::uint8_t>(rec.last_reason));
  w.u32(static_cast<std::uint32_t>(rec.history.size()));
  for (const AttemptRecord& a : rec.history) {
    w.i32(a.attempt);
    w.i64(a.started_at);
    w.i64(a.ended_at);
    w.i32(a.exit_status);
    w.u8(static_cast<std::uint8_t>(a.reason));
    w.i64(a.backoff);
  }
  w.u32(static_cast<std::uint32_t>(rec.nodes.size()));
  for (net::NodeId n : rec.nodes) w.u32(n);
  w.i64(rec.submitted_at);
  w.i64(rec.started_at);
  w.i64(rec.finished_at);
}

JobRecord read_record(Reader& r) {
  JobRecord rec;
  rec.id = r.u64();
  rec.spec = read_spec(r);
  const std::uint8_t status = r.u8();
  if (status > static_cast<std::uint8_t>(JobStatus::kQuarantined)) {
    throw SnapshotError("snapshot: bad job status");
  }
  rec.status = static_cast<JobStatus>(status);
  rec.attempts = r.i32();
  rec.app_failures = r.i32();
  rec.infra_failures = r.i32();
  rec.last_reason = read_reason(r);
  for (std::uint32_t n = r.u32(); n > 0; --n) {
    AttemptRecord a;
    a.attempt = r.i32();
    a.started_at = r.i64();
    a.ended_at = r.i64();
    a.exit_status = r.i32();
    a.reason = read_reason(r);
    a.backoff = r.i64();
    rec.history.push_back(a);
  }
  for (std::uint32_t n = r.u32(); n > 0; --n) rec.nodes.push_back(r.u32());
  rec.submitted_at = r.i64();
  rec.started_at = r.i64();
  rec.finished_at = r.i64();
  return rec;
}

void write_span(Writer& w, const obs::Span& s) {
  w.u64(s.id);
  w.u64(s.parent);
  w.str(s.name);
  w.u64(s.track);
  w.i64(s.begin);
  w.i64(s.end);
  w.u32(static_cast<std::uint32_t>(s.attrs.size()));
  for (const obs::Attr& a : s.attrs) {
    w.str(a.key);
    w.str(a.value);
  }
}

obs::Span read_span(Reader& r) {
  obs::Span s;
  s.id = r.u64();
  s.parent = r.u64();
  s.name = r.str();
  s.track = r.u64();
  s.begin = r.i64();
  s.end = r.i64();
  for (std::uint32_t n = r.u32(); n > 0; --n) {
    obs::Attr a;
    a.key = r.str();
    a.value = r.str();
    s.attrs.push_back(std::move(a));
  }
  return s;
}

}  // namespace

// --- Snapshot <-> bytes ------------------------------------------------------

std::vector<std::uint8_t> Snapshot::serialize() const {
  Writer w;
  w.u32(kMagic);
  w.u32(kVersion);
  w.u8(kFlagLittleEndian);
  w.section(kMeta, [&](Writer& s) {
    s.i64(taken_at);
    s.u32(addr.node);
    s.u32(addr.port);
    s.u64(next_worker_seq);
    s.u64(next_task);
    s.u64(peak_capacity);
  });
  w.section(kRng, [&](Writer& s) { s.str(rng_state); });
  w.section(kCounters, [&](Writer& s) {
    s.u32(static_cast<std::uint32_t>(counters.size()));
    for (const auto& [name, value] : counters) {
      s.str(name);
      s.u64(value);
    }
  });
  w.section(kJobs, [&](Writer& s) {
    s.u64(jobs.size());
    for (const JobSnap& j : jobs) {
      write_record(s, j.rec);
      s.str(j.task_id);
      s.u32(static_cast<std::uint32_t>(j.assigned_seq.size()));
      for (std::uint64_t seq : j.assigned_seq) s.u64(seq);
      s.boolean(j.in_backoff);
      s.i64(j.retry_at);
      s.i64(j.timeout_at);
      s.boolean(j.deadline_passed);
    }
  });
  w.section(kQueue, [&](Writer& s) {
    s.u64(queue_order.size());
    for (JobId id : queue_order) s.u64(id);
  });
  w.section(kWorkers, [&](Writer& s) {
    s.u64(workers.size());
    for (const WorkerSnap& ws : workers) {
      s.u64(ws.seq);
      s.u32(ws.node);
      s.boolean(ws.connected);
      s.boolean(ws.busy);
      s.boolean(ws.evicted);
      s.u64(ws.job);
      s.str(ws.task_id);
      s.i64(ws.last_heard);
      s.boolean(ws.ready);
      s.u64(ws.ready_rank);
    }
  });
  w.section(kNodes, [&](Writer& s) {
    s.u32(static_cast<std::uint32_t>(node_health.size()));
    for (const NodeHealthSnap& nh : node_health) {
      s.u32(nh.node);
      s.i32(nh.evictions);
      s.boolean(nh.banned);
      s.i64(nh.banned_until);
    }
  });
  w.section(kStaging, [&](Writer& s) {
    s.u32(static_cast<std::uint32_t>(blobs.size()));
    for (const BlobSnap& b : blobs) {
      s.str(b.path);
      s.u64(b.digest);
      s.u64(b.bytes);
    }
    s.u32(static_cast<std::uint32_t>(node_caches.size()));
    for (const NodeCacheSnap& nc : node_caches) {
      s.u32(nc.node);
      s.u32(static_cast<std::uint32_t>(nc.digests.size()));
      for (std::uint64_t d : nc.digests) s.u64(d);
    }
  });
  w.section(kElastic, [&](Writer& s) {
    s.u64(elastic_capacity);
    s.u32(static_cast<std::uint32_t>(elastic.size()));
    for (const ElasticNodeSnap& en : elastic) {
      s.u32(en.node);
      s.i64(en.expires_at);
      s.boolean(en.draining);
      s.i64(en.drain_at);
    }
  });
  w.section(kJournal, [&](Writer& s) {
    s.u64(journal.size());
    for (const obs::Span& sp : journal) write_span(s, sp);
  });
  return w.bytes();
}

Snapshot Snapshot::parse(const std::vector<std::uint8_t>& bytes) {
  Reader r(bytes.data(), bytes.size());
  if (r.u32() != kMagic) throw SnapshotError("snapshot: bad magic");
  const std::uint32_t version = r.u32();
  if (version != kVersion) {
    throw SnapshotError("snapshot: unsupported version " + std::to_string(version));
  }
  if ((r.u8() & kFlagLittleEndian) == 0) {
    throw SnapshotError("snapshot: unsupported byte order");
  }
  Snapshot out;
  bool have_meta = false, have_rng = false, have_jobs = false,
       have_queue = false, have_workers = false;
  while (!r.done()) {
    const std::uint16_t tag = r.u16();
    const std::uint64_t len = r.u64();
    if (len > r.remaining()) throw SnapshotError("snapshot truncated");
    Reader s = r.sub(static_cast<std::size_t>(len));
    switch (tag) {
      case kMeta:
        out.taken_at = s.i64();
        out.addr.node = s.u32();
        out.addr.port = s.u32();
        out.next_worker_seq = s.u64();
        out.next_task = s.u64();
        out.peak_capacity = s.u64();
        have_meta = true;
        break;
      case kRng:
        out.rng_state = s.str();
        have_rng = true;
        break;
      case kCounters:
        for (std::uint32_t n = s.u32(); n > 0; --n) {
          std::string name = s.str();
          out.counters.emplace_back(std::move(name), s.u64());
        }
        break;
      case kJobs:
        for (std::uint64_t n = s.u64(); n > 0; --n) {
          JobSnap j;
          j.rec = read_record(s);
          j.task_id = s.str();
          for (std::uint32_t k = s.u32(); k > 0; --k) {
            j.assigned_seq.push_back(s.u64());
          }
          j.in_backoff = s.boolean();
          j.retry_at = s.i64();
          j.timeout_at = s.i64();
          j.deadline_passed = s.boolean();
          out.jobs.push_back(std::move(j));
        }
        have_jobs = true;
        break;
      case kQueue:
        for (std::uint64_t n = s.u64(); n > 0; --n) {
          out.queue_order.push_back(s.u64());
        }
        have_queue = true;
        break;
      case kWorkers:
        for (std::uint64_t n = s.u64(); n > 0; --n) {
          WorkerSnap ws;
          ws.seq = s.u64();
          ws.node = s.u32();
          ws.connected = s.boolean();
          ws.busy = s.boolean();
          ws.evicted = s.boolean();
          ws.job = s.u64();
          ws.task_id = s.str();
          ws.last_heard = s.i64();
          ws.ready = s.boolean();
          ws.ready_rank = s.u64();
          out.workers.push_back(std::move(ws));
        }
        have_workers = true;
        break;
      case kNodes:
        for (std::uint32_t n = s.u32(); n > 0; --n) {
          NodeHealthSnap nh;
          nh.node = s.u32();
          nh.evictions = s.i32();
          nh.banned = s.boolean();
          nh.banned_until = s.i64();
          out.node_health.push_back(nh);
        }
        break;
      case kStaging:
        for (std::uint32_t n = s.u32(); n > 0; --n) {
          BlobSnap b;
          b.path = s.str();
          b.digest = s.u64();
          b.bytes = s.u64();
          out.blobs.push_back(std::move(b));
        }
        for (std::uint32_t n = s.u32(); n > 0; --n) {
          NodeCacheSnap nc;
          nc.node = s.u32();
          for (std::uint32_t k = s.u32(); k > 0; --k) {
            nc.digests.push_back(s.u64());
          }
          out.node_caches.push_back(std::move(nc));
        }
        break;
      case kElastic:
        out.elastic_capacity = s.u64();
        for (std::uint32_t n = s.u32(); n > 0; --n) {
          ElasticNodeSnap en;
          en.node = s.u32();
          en.expires_at = s.i64();
          en.draining = s.boolean();
          en.drain_at = s.i64();
          out.elastic.push_back(en);
        }
        break;
      case kJournal:
        for (std::uint64_t n = s.u64(); n > 0; --n) {
          out.journal.push_back(read_span(s));
        }
        break;
      default:
        break;  // unknown section from a newer writer: skipped by length
    }
  }
  if (!have_meta || !have_rng || !have_jobs || !have_queue || !have_workers) {
    throw SnapshotError("snapshot: missing required section");
  }
  return out;
}

// --- Service -> Snapshot -----------------------------------------------------

Snapshot Service::checkpoint() const {
  Snapshot s;
  s.taken_at = machine_->engine().now();
  s.addr = addr_;
  s.next_worker_seq = next_worker_seq_;
  s.next_task = next_task_;
  s.peak_capacity = peak_capacity_;
  {
    std::ostringstream os;
    os << retry_rng_.generator();
    s.rng_state = os.str();
  }
  s.counters.reserve(counter_index_.size());
  for (const auto& [name, c] : counter_index_) s.counters.emplace_back(name, c->value);

  // Workers: handles are process-local, so everything cross-referencing a
  // worker is keyed by registration seq on the wire.
  std::unordered_map<WorkerId, std::uint64_t> seq_of;
  std::unordered_map<WorkerId, std::uint64_t> rank_of;
  {
    const std::vector<WorkerId> fifo = ready_.live_fifo();
    for (std::size_t i = 0; i < fifo.size(); ++i) rank_of[fifo[i]] = i + 1;
  }
  workers_.for_each([&](WorkerId wid, const Worker& w) {
    seq_of.emplace(wid, w.seq);
    WorkerSnap ws;
    ws.seq = w.seq;
    ws.node = w.node;
    ws.connected = w.connected;
    ws.busy = w.busy;
    ws.evicted = w.evicted;
    ws.job = w.job;
    ws.task_id = w.task_id;
    ws.last_heard = w.last_heard;
    if (const auto it = rank_of.find(wid); it != rank_of.end()) {
      ws.ready = true;
      ws.ready_rank = it->second;
    }
    s.workers.push_back(std::move(ws));
  });
  std::sort(s.workers.begin(), s.workers.end(),
            [](const WorkerSnap& a, const WorkerSnap& b) { return a.seq < b.seq; });

  jobs_.for_each([&](JobId, const Job& job) {
    JobSnap js;
    js.rec = job.rec;
    js.task_id = job.task_id;
    for (WorkerId wid : job.assigned) {
      if (const auto it = seq_of.find(wid); it != seq_of.end()) {
        js.assigned_seq.push_back(it->second);
      }
    }
    js.in_backoff = job.in_backoff;
    if (const auto at = job.retry_timer.fire_time()) js.retry_at = *at;
    if (const auto at = job.timeout.fire_time()) js.timeout_at = *at;
    js.deadline_passed = job.deadline_passed;
    s.jobs.push_back(std::move(js));
  });

  queue_.for_each([&](JobId id, std::uint32_t) { s.queue_order.push_back(id); });

  for (const auto& [node, h] : node_health_) {
    s.node_health.push_back(
        NodeHealthSnap{node, h.evictions, h.banned, h.banned_until});
  }

  // Elastic allocation state: a node's walltime horizon and drain progress
  // survive the crash, so a restored service keeps refusing doomed
  // placements and still requeues at the (re-armed) drain deadline.
  s.elastic_capacity = elastic_capacity_;
  for (const auto& [node, e] : node_elastic_) {
    s.elastic.push_back(
        ElasticNodeSnap{node, e.expires_at, e.draining, e.drain_at});
  }

  // Staging state: interned blobs (ascending path — blob_info_ is ordered)
  // and acked residency. Pending stage-ins are not captured: see
  // NodeCacheSnap.
  for (const auto& [path, info] : blob_info_) {
    s.blobs.push_back(BlobSnap{path, info.first, info.second});
  }
  residency_.for_each_resident(
      [&](net::NodeId node, const std::vector<StageDigest>& digests) {
        s.node_caches.push_back(NodeCacheSnap{node, digests});
      });

  if (const obs::Tracer* tr = tracer()) s.journal = tr->spans();
  return s;
}

// --- Snapshot -> Service -----------------------------------------------------

Service::Service(os::Machine& machine, const os::AppRegistry& apps,
                 os::NodeId host, Config config, const Snapshot& snap)
    : Service(machine, apps, host, std::move(config)) {
  apply_snapshot(snap);
}

void Service::apply_snapshot(const Snapshot& snap) {
  const sim::Time now = machine_->engine().now();
  addr_ = snap.addr;  // start() rebinds this exact address
  next_worker_seq_ = snap.next_worker_seq;
  next_task_ = snap.next_task;
  peak_capacity_ = snap.peak_capacity;
  {
    std::istringstream is(snap.rng_state);
    is >> retry_rng_.generator();
    if (is.fail()) throw SnapshotError("snapshot: bad rng state");
  }
  // Get-or-create by name: counters the snapshot knows and this build does
  // not (or vice versa) restore/default independently — same skip-forward
  // compatibility as unknown sections.
  for (const auto& [name, value] : snap.counters) {
    metrics_->counter(name).value = value;
  }

  // Every checkpointed worker comes back as a ghost: slot + capacity held,
  // not connected, awaiting its pilot's redial (adopt_ghost) or the
  // restore-grace reaper (reconcile_ghosts). evicted_live_ deliberately
  // stays 0 — awaiting_ already counts every ghost once, evicted or not.
  std::unordered_map<std::uint64_t, WorkerId> wid_of_seq;
  for (const WorkerSnap& ws : snap.workers) {
    Worker w;
    w.seq = ws.seq;
    w.node = ws.node;
    w.busy = ws.busy;
    w.evicted = ws.evicted;
    w.job = ws.job;
    w.task_id = ws.task_id;
    w.last_heard = ws.last_heard;
    w.connected = false;
    w.awaiting = true;
    const WorkerId wid = workers_.insert(std::move(w));
    workers_.at(wid).id = wid;
    if (!wid_of_seq.emplace(ws.seq, wid).second) {
      throw SnapshotError("snapshot: duplicate worker seq");
    }
    ++awaiting_;
  }

  // Jobs, ascending id: the dense table hands ids back out in push order,
  // so the restored table *is* the checkpointed id space.
  std::vector<JobId> restart_requeue;
  for (const JobSnap& js : snap.jobs) {
    Job job;
    job.rec = js.rec;
    job.deadline_passed = js.deadline_passed;
    const JobId id = jobs_.push_back(std::move(job));
    if (id != js.rec.id) throw SnapshotError("snapshot: job ids not dense");
    Job& j = jobs_.back();
    if (j.rec.status == JobStatus::kPending && js.in_backoff) {
      j.in_backoff = true;
      ++backing_off_;
      const sim::Time at = js.retry_at >= 0 ? std::max(js.retry_at, now) : now;
      j.retry_timer =
          machine_->engine().call_at(at, [this, id] { requeue_job(id); });
    } else if (j.rec.status == JobStatus::kRunning) {
      // Rescuable: a sequential attempt whose worker survived into the
      // checkpoint. The task may still be running on the pilot; whether it
      // actually is gets settled at reconciliation (adopt_ghost checks the
      // pilot's task inventory, reconcile_ghosts declares no-shows dead).
      std::vector<WorkerId> assigned;
      bool have_workers = !js.assigned_seq.empty();
      for (std::uint64_t seq : js.assigned_seq) {
        if (const auto it = wid_of_seq.find(seq); it != wid_of_seq.end()) {
          assigned.push_back(it->second);
        } else {
          have_workers = false;
        }
      }
      if (j.rec.spec.kind == JobKind::kSequential && !js.task_id.empty() &&
          have_workers) {
        j.task_id = js.task_id;
        j.assigned = assigned;
        task_to_job_[js.task_id] = id;
        j.restored_running = true;
        ++running_;
      } else {
        // MPI gangs cannot be rescued — the background mpiexec and its PMI
        // wiring died with the service — and neither can an attempt whose
        // workers were already gone at checkpoint time. Close the attempt
        // as kServiceRestart (blameless: charged to no budget) and requeue.
        if (!j.rec.history.empty() && j.rec.history.back().ended_at < 0) {
          AttemptRecord& att = j.rec.history.back();
          att.ended_at = now;
          att.exit_status = 1;
          att.reason = FailureReason::kServiceRestart;
        }
        j.rec.last_reason = FailureReason::kServiceRestart;
        m_failures_[static_cast<std::size_t>(FailureReason::kServiceRestart)]
            ->inc();
        j.rec.status = JobStatus::kPending;
        restart_requeue.push_back(id);
        for (WorkerId wid : assigned) {
          Worker& w = workers_.at(wid);
          if (w.job == id) {
            w.job = 0;
            w.busy = false;
            w.task_id.clear();
          }
        }
      }
    }
    // Deadlines are submission-relative and survive retries, so they are
    // re-armed for every unsettled job; one already overdue fires "now"
    // (engine order keeps this deterministic).
    if (!job_settled(j.rec.status) && js.timeout_at >= 0) {
      j.timeout = machine_->engine().call_at(
          std::max(js.timeout_at, now), [this, id] { deadline_expired(id); });
    }
  }

  // Queue: the checkpointed FIFO first (verbatim order), then the jobs whose
  // running attempts died with the service, in ascending id order.
  for (JobId id : snap.queue_order) {
    Job* j = jobs_.find(id);
    if (!j || j->rec.status != JobStatus::kPending || j->in_backoff) {
      throw SnapshotError("snapshot: queue entry is not a queued job");
    }
    queue_.push_back(id, j->rec.spec.priority,
                     static_cast<std::uint32_t>(j->rec.spec.workers_needed()));
  }
  for (JobId id : restart_requeue) {
    Job& j = jobs_.at(id);
    queue_.push_back(id, j.rec.spec.priority,
                     static_cast<std::uint32_t>(j.rec.spec.workers_needed()));
  }

  for (const NodeHealthSnap& nh : snap.node_health) {
    node_health_[nh.node] =
        NodeHealth{nh.evictions, nh.banned, nh.banned_until};
  }

  // Elastic state: horizons and drain flags verbatim; a drain deadline
  // already overdue fires "now" so the block's jobs are still requeued.
  elastic_capacity_ = snap.elastic_capacity;
  for (const ElasticNodeSnap& en : snap.elastic) {
    NodeElastic e;
    e.expires_at = en.expires_at;
    e.draining = en.draining;
    e.drain_at = en.drain_at;
    const os::NodeId node = en.node;
    if (en.draining && en.drain_at >= 0) {
      e.drain_timer = machine_->engine().call_at(
          std::max(en.drain_at, now), [this, node] { drain_deadline(node); });
    }
    node_elastic_[node] = e;
  }

  // Staging state: blob identities and acked residency survive the crash
  // (node-local caches belong to the nodes, which did not restart), so the
  // replication planner picks up warm exactly where it left off. In-flight
  // stage-ins died with the service and are re-staged on demand.
  for (const BlobSnap& b : snap.blobs) {
    blob_info_[b.path] = {b.digest, b.bytes};
  }
  for (const NodeCacheSnap& nc : snap.node_caches) {
    for (const std::uint64_t d : nc.digests) residency_.add(nc.node, d);
  }

  m_workers_connected_->set(0);
  m_jobs_running_->set(static_cast<std::int64_t>(running_));
  // Seed a *fresh* tracer (a restarted service process) with the pre-crash
  // journal. When the tracer survived the crash — same-machine restore, as
  // in the simulated drills — it already holds these spans; importing again
  // would duplicate the whole history.
  if (obs::Tracer* tr = tracer(); tr && tr->spans().empty()) {
    tr->import_spans(snap.journal);
  }

  if (!queue_.empty() || running_ != 0 || backing_off_ != 0) {
    all_done_->close();
  }
  m_restores_->inc();
  if (awaiting_ > 0) {
    reconcile_timer_ = machine_->engine().call_in(
        config_.restore_grace, [this] { reconcile_ghosts(); });
  }
}

}  // namespace jets::core
