#include "core/service.hh"

#include <algorithm>
#include <limits>
#include <set>
#include <stdexcept>

#include "net/staging.hh"
#include "obs/tracer.hh"
#include "os/cas.hh"

namespace jets::core {

namespace {

const char* to_string(JobStatus status) {
  switch (status) {
    case JobStatus::kPending: return "pending";
    case JobStatus::kRunning: return "running";
    case JobStatus::kDone: return "done";
    case JobStatus::kFailed: return "failed";
    case JobStatus::kQuarantined: return "quarantined";
  }
  return "?";
}

}  // namespace

Service::Service(os::Machine& machine, const os::AppRegistry& apps,
                 os::NodeId host, Config config)
    : machine_(&machine), apps_(&apps), host_(host), config_(config),
      retry_rng_(sim::Rng(config.retry.jitter_seed).fork("retry")) {
  kick_ch_ = std::make_unique<sim::Channel<int>>(machine.engine());
  all_done_ = std::make_unique<sim::Gate>(machine.engine());
  ready_.set_indexed(config_.network_aware_grouping);
  queue_.set_buckets(config_.policy == SchedPolicy::kPriorityBackfill);
  init_metrics();
}

void Service::init_metrics() {
  if (config_.metrics) {
    metrics_ = config_.metrics;
  } else {
    owned_metrics_ = std::make_unique<obs::MetricsRegistry>();
    metrics_ = owned_metrics_.get();
  }
  obs::MetricsRegistry& m = *metrics_;
  // reg() feeds counter_index_ as a side effect: the checkpoint codec
  // serializes counters by walking the index, and restore assigns back
  // through it, so adding a counter here automatically checkpoints it.
  const auto reg = [this, &m](const char* name) {
    obs::Counter* c = &m.counter(name);
    counter_index_.emplace_back(name, c);
    return c;
  };
  m_completed_ = reg("jets.service.jobs.completed");
  m_failed_ = reg("jets.service.jobs.failed");
  m_quarantined_ = reg("jets.service.jobs.quarantined");
  m_evicted_ = reg("jets.service.workers.evicted");
  m_reenlisted_ = reg("jets.service.workers.reenlisted");
  m_heartbeats_ = reg("jets.service.workers.heartbeats");
  m_blacklist_rejections_ = reg("jets.service.blacklist.rejections");
  m_blacklist_paroles_ = reg("jets.service.blacklist.paroles");
  m_retries_scheduled_ = reg("jets.service.retry.scheduled");
  // Restores from a snapshot (0 or 1); checkpointed workers that redialed
  // and reclaimed their identity; restored running jobs whose attempt
  // survived and later succeeded; ghosts never seen within restore_grace.
  m_restores_ = reg("jets.service.restore.count");
  m_reconciled_ = reg("jets.service.restore.workers_reconciled");
  m_rescued_ = reg("jets.service.restore.jobs_rescued");
  m_ghosts_dropped_ = reg("jets.service.restore.ghosts_dropped");
  // Staging: (node, blob) requests, split into service pushes (cold), peer
  // copies, warm hits and coalesces onto a transfer in flight; acks written
  // off when a worker died mid-stage; evictions reported by workers' acks;
  // bytes moved service->node, and bytes a naive per-job push would have
  // moved but warm hits and coalesces did not.
  m_stage_requests_ = reg("jets.service.staging.requests");
  m_stage_pushes_ = reg("jets.service.staging.pushes");
  m_stage_peer_copies_ = reg("jets.service.staging.peer_copies");
  m_stage_warm_hits_ = reg("jets.service.staging.warm_hits");
  m_stage_coalesced_ = reg("jets.service.staging.coalesced");
  m_stage_acks_lost_ = reg("jets.service.staging.acks_lost");
  m_stage_evictions_ = reg("jets.service.staging.evictions");
  m_stage_bytes_pushed_ = reg("jets.service.staging.bytes_pushed");
  m_stage_bytes_saved_ = reg("jets.service.staging.bytes_saved");
  // Elastic: jobs requeued at a drain deadline; placements refused by the
  // walltime claim gate.
  m_drain_requeues_ = reg("jets.service.elastic.drain_requeues");
  m_gate_refusals_ = reg("jets.service.elastic.gate_refusals");
  rpc_metrics_.calls = reg("jets.rpc.calls");
  rpc_metrics_.notifies = reg("jets.rpc.notifies");
  rpc_metrics_.completed = reg("jets.rpc.completed");
  rpc_metrics_.peer_closed = reg("jets.rpc.peer_closed");
  rpc_metrics_.cancelled = reg("jets.rpc.cancelled");
  rpc_metrics_.orphans = reg("jets.rpc.orphans");
  rpc_metrics_.decode_errors = reg("jets.rpc.decode_errors");
  rpc_metrics_.unknown_tags = reg("jets.rpc.unknown_tags");
  rpc_metrics_.inflight = &m.gauge("jets.rpc.inflight");
  // Failures by reason: one count per failed attempt, plus attempt-less
  // settles (queued-job deadlines, aborts).
  for (std::size_t i = 0; i < kFailureReasonCount; ++i) {
    m_failures_[i] = reg((std::string("jets.service.failures.") +
                          to_string(static_cast<FailureReason>(i)))
                             .c_str());
  }
  m_workers_connected_ = &m.gauge("jets.service.workers.connected");
  m_jobs_running_ = &m.gauge("jets.service.jobs.running");
  m_queue_wait_ = &m.histogram("jets.service.queue_wait_ns");
  m_job_wall_ = &m.histogram("jets.service.job_wall_ns");
}

obs::Tracer* Service::tracer() const { return machine_->tracer(); }

void Service::close_job_spans(Job& job) {
  obs::Tracer* tr = tracer();
  if (!tr) return;
  tr->end_and_clear(job.span_run);
  tr->end_and_clear(job.span_stage);
  tr->end_and_clear(job.span_group);
  tr->end_and_clear(job.span_attempt);
  tr->end_and_clear(job.span_queued);
  tr->end_and_clear(job.span_backoff);
}

Service::Service(os::Machine& machine, const os::AppRegistry& apps,
                 os::NodeId host)
    : Service(machine, apps, host, Config{}) {}

Service::~Service() {
  for (sim::ActorId id : actors_) machine_->engine().kill(id);
  // Timer audit: every service-owned engine callback captures `this`, so a
  // service destroyed mid-run (the crash-and-recover path, or a test
  // tearing down early) must disarm them all — job deadline/backoff timers,
  // worker liveness timers, blacklist-parole re-offers, and the restore
  // reaper. Each cancel is generation-checked, so already-fired or
  // never-armed handles are no-ops.
  jobs_.for_each([](JobId, Job& job) {
    job.timeout.cancel();
    job.retry_timer.cancel();
  });
  workers_.for_each([](WorkerId, Worker& w) {
    w.liveness_timer.cancel();
    w.reoffer_timer.cancel();
  });
  for (auto& [node, elastic] : node_elastic_) elastic.drain_timer.cancel();
  reconcile_timer_.cancel();
}

void Service::start() {
  if (started_) return;
  started_ = true;
  // A snapshot-restored service rebinds the *checkpointed* address so
  // surviving pilots redialing their configured service endpoint land here.
  if (addr_.port == 0) addr_ = net::Address{host_, machine_->allocate_port()};
  listener_ = machine_->network().listen(addr_);
  actors_.push_back(machine_->engine().spawn("jets-accept", accept_loop()));
  actors_.push_back(machine_->engine().spawn("jets-dispatch", dispatch_loop()));
  // Jobs restored (or submitted) before start() are already queued; give
  // the dispatch loop its first kick so they are not stranded until the
  // next worker event.
  if (!queue_.empty()) kick();
}

JobId Service::submit(JobSpec spec) {
  if (spec.argv.empty()) throw std::invalid_argument("job with empty argv");
  Job job;
  job.rec.spec = std::move(spec);
  job.rec.submitted_at = machine_->engine().now();
  const JobId id = jobs_.push_back(std::move(job));
  Job& j = jobs_.back();
  j.rec.id = id;
  queue_.push_back(id, j.rec.spec.priority,
                   static_cast<std::uint32_t>(j.rec.spec.workers_needed()));
  all_done_->close();
  if (obs::Tracer* tr = tracer()) {
    j.span_job = tr->begin("job", obs::track_job(id));
    tr->attr(j.span_job, "kind",
             j.rec.spec.kind == JobKind::kMpi ? "mpi" : "seq");
    tr->attr(j.span_job, "nprocs",
             static_cast<std::int64_t>(j.rec.spec.nprocs));
    if (j.rec.spec.priority != 0) {
      tr->attr(j.span_job, "priority",
               static_cast<std::int64_t>(j.rec.spec.priority));
    }
    j.span_queued = tr->begin("job.queued", obs::track_job(id), j.span_job);
  }
  // The job's timeout is a deadline measured from submission: it covers
  // queue time too, so a job that can never be placed (e.g. wider than the
  // allocation) still settles.
  if (j.rec.spec.timeout > 0) {
    j.timeout = machine_->engine().call_in(
        j.rec.spec.timeout, [this, id] { deadline_expired(id); });
  }
  if (started_) kick();
  return id;
}

void Service::deadline_expired(JobId id) {
  Job* jp = jobs_.find(id);
  if (!jp) return;
  Job& job = *jp;
  job.deadline_passed = true;
  if (job.rec.status == JobStatus::kPending) {
    // Covers queued jobs *and* jobs waiting out a retry backoff (whose
    // pending requeue settle_job cancels).
    queue_.erase(id);
    m_failures_[static_cast<std::size_t>(FailureReason::kJobDeadline)]->inc();
    settle_job(job, JobStatus::kFailed, FailureReason::kJobDeadline);
    kick();
    check_all_done();
  } else if (job.rec.status == JobStatus::kRunning) {
    if (job.mpx) {
      job.mpx->abort("job deadline");  // its waiter finishes the job
    } else {
      // Best-effort kills, then settle the job *now*. Relying on the
      // worker's done/ready cycle is not enough: if the deadline fires
      // while the run message is still being dispatched, the kill would
      // refer to a task the worker has never heard of and the job would
      // hang forever in kRunning.
      for (WorkerId wid : job.assigned) {
        Worker* w = workers_.find(wid);
        if (w && w->connected && w->sock && w->rpc) {
          (void)w->rpc->notify(net::rpc::KillReq{w->task_id});
        }
      }
      job_finished(id, /*status=*/124, FailureReason::kJobDeadline);
    }
  }
}

std::vector<JobId> Service::submit_batch(const std::vector<JobSpec>& specs) {
  std::vector<JobId> ids;
  ids.reserve(specs.size());
  for (const JobSpec& s : specs) ids.push_back(submit(s));
  return ids;
}

sim::Task<void> Service::wait_all() {
  check_all_done();
  co_await all_done_->wait();
}

sim::Task<void> Service::wait_job(JobId id) {
  Job* jp = jobs_.find(id);
  if (!jp) co_return;
  Job& job = *jp;
  if (job_settled(job.rec.status)) co_return;
  if (!job.settled) job.settled = std::make_unique<sim::Gate>(machine_->engine());
  co_await job.settled->wait();
}

std::vector<JobRecord> Service::records() const {
  std::vector<JobRecord> out;
  out.reserve(jobs_.size());
  jobs_.for_each([&](JobId, const Job& job) { out.push_back(job.rec); });
  return out;
}

std::size_t Service::ready_workers() const { return ready_.size(); }

sim::Task<void> Service::stage_to_workers(const std::string& path) {
  auto size = machine_->shared_fs().size(path);
  if (!size) throw std::invalid_argument("stage_to_workers: no such file " + path);
  // The service itself reads the file once from the shared filesystem,
  // then fans it out over the persistent worker connections. This is the
  // legacy broadcast path (Coasters-style pre-staging): the wire format —
  // bare path, full payload per worker — is frozen; dedup'd per-job
  // staging goes through stage_job_inputs instead.
  co_await machine_->shared_fs().read(path);
  const auto [digest, bytes] = blob_for(path);
  const StageTable::Slot slot =
      staging_.intern(digest, path, machine_->engine());
  staging_.gate(slot).close();
  // Handles recycle worker slots, so slot order is not registration order;
  // the fan-out must stay in registration order (it fixes the wire
  // serialization sequence), hence the sort by seq.
  std::vector<std::pair<std::uint64_t, WorkerId>> targets;
  workers_.for_each([&](WorkerId wid, const Worker& w) {
    if (w.connected && w.sock && w.rpc) targets.emplace_back(w.seq, wid);
  });
  std::sort(targets.begin(), targets.end());
  for (const auto& [seq, wid] : targets) {
    Worker& w = workers_.at(wid);
    ++staging_.remaining(slot);
    net::rpc::StageReq req;
    req.header.path = path;
    req.header.bytes = *size;
    req.legacy = true;
    req.payload = *size;
    const auto sent = w.rpc->call_cb<net::rpc::StageReq>(
        req, [this, node = w.node, digest](auto r) {
          stage_call_settled(node, digest, std::move(r));
        });
    if (!sent.ok()) {  // raced a close: write the pair off immediately
      stage_call_settled(w.node, digest,
                         net::rpc::Unexpected{net::rpc::RpcError::kPeerClosed});
    }
  }
  if (staging_.remaining(slot) == 0) {
    staging_.gate(slot).open();
    co_return;
  }
  co_await staging_.gate(slot).wait();
}

// --- Input staging (CAS replication planner) ---------------------------------

std::pair<StageDigest, std::uint64_t> Service::blob_for(
    const std::string& path) {
  auto it = blob_info_.find(path);
  if (it != blob_info_.end()) return it->second;
  const auto size = machine_->shared_fs().size(path);
  if (!size) throw std::invalid_argument("stage_files: no such file " + path);
  const auto info = std::make_pair(os::cas_digest(path, *size), *size);
  blob_info_.emplace(path, info);
  return info;
}

sim::Task<void> Service::stage_job_inputs(
    JobId id, int attempt, const std::vector<WorkerId>& claimed) {
  Job& job = jobs_.at(id);
  const JobSpec& spec = job.rec.spec;
  if (obs::Tracer* tr = tracer()) {
    job.span_stage = tr->begin("job.stage", obs::track_job(id),
                               job.span_attempt);
  }
  // Each node needs each blob once, whatever the job's ppn packs onto it:
  // dedup the claimed workers to one representative per node, keeping
  // claim order so the wire sequence is deterministic.
  std::vector<std::pair<os::NodeId, WorkerId>> nodes;
  for (WorkerId wid : claimed) {
    const os::NodeId node = workers_.at(wid).node;
    bool seen = false;
    for (const auto& [n, rep] : nodes) {
      if (n == node) {
        seen = true;
        break;
      }
    }
    if (!seen) nodes.emplace_back(node, wid);
  }
  std::vector<StageTable::Slot> waits;
  for (const std::string& path : spec.stage_files) {
    const auto [digest, bytes] = blob_for(path);
    const StageTable::Slot slot =
        staging_.intern(digest, path, machine_->engine());
    // The service reads a blob from the shared filesystem at most once per
    // fan-out, and only if at least one node actually needs the bytes.
    bool read_done = false;
    for (const auto& [node, rep] : nodes) {
      m_stage_requests_->inc();
      net::StageHeader h;
      h.path = path;
      h.digest = digest;
      h.bytes = bytes;
      std::uint64_t payload = 0;
      if (config_.staging_cache && residency_.contains(node, digest)) {
        // Warm cache: zero-byte probe, acked by a cache touch. The ack
        // round trip keeps residency honest (a racing eviction report
        // makes the worker fall back to a pull).
        h.source = net::StageHeader::Source::kWarm;
        m_stage_warm_hits_->inc();
        m_stage_bytes_saved_->inc(bytes);
      } else if (config_.staging_cache && residency_.pending(node, digest)) {
        // Already on the wire to this node (another job's fan-out):
        // piggyback on that transfer instead of sending anything.
        m_stage_coalesced_->inc();
        m_stage_bytes_saved_->inc(bytes);
        waits.push_back(slot);
        continue;
      } else {
        const net::StagePlan plan =
            config_.staging_cache
                ? net::plan_transfer(machine_->network().fabric(), host_,
                                     node, residency_.holders(digest), bytes)
                : net::StagePlan{};  // ablation baseline: always push
        if (plan.use_peer) {
          // A peer node in the fabric already holds the digest: have the
          // target copy from it; the service sends only the header.
          h.source = net::StageHeader::Source::kPeer;
          h.peer = plan.peer;
          m_stage_peer_copies_->inc();
        } else {
          h.source = net::StageHeader::Source::kPush;
          payload = bytes;
          m_stage_pushes_->inc();
          m_stage_bytes_pushed_->inc(bytes);
          if (!read_done) {
            read_done = true;
            co_await machine_->shared_fs().read(path);
            // The read suspended us: the job (or the target) may be gone.
            if (job.rec.status != JobStatus::kRunning ||
                job.rec.attempts != attempt) {
              break;  // caller re-checks and releases the claim
            }
          }
        }
        residency_.mark_pending(node, digest);
      }
      Worker* w = workers_.find(rep);
      if (!w || !w->connected || !w->sock || !w->rpc) {
        // The representative died while we were reading: write the pair
        // off — the attempt is about to fail through the worker-lost path.
        residency_.clear_pending(node, digest);
        continue;
      }
      ++staging_.remaining(slot);
      staging_.gate(slot).close();
      net::rpc::StageReq req;
      req.header = h;
      req.payload = payload;
      const auto sent = w->rpc->call_cb<net::rpc::StageReq>(
          req, [this, node = node, digest](auto r) {
            stage_call_settled(node, digest, std::move(r));
          });
      if (!sent.ok()) {  // raced a close: write the pair off immediately
        stage_call_settled(node, digest,
                           net::rpc::Unexpected{net::rpc::RpcError::kPeerClosed});
      }
      waits.push_back(slot);
    }
    if (job.rec.status != JobStatus::kRunning || job.rec.attempts != attempt) {
      break;
    }
  }
  // Await every touched slot once (sorted + dedup'd for a deterministic
  // wait order). Gates open when their remaining count drains — by acks,
  // or by write-offs when a stage target dies (the channel drain settles
  // its StageReq calls with kPeerClosed/kCancelled); a
  // dead *claimed* worker also fails the attempt, which the status check
  // below and the caller both observe.
  std::sort(waits.begin(), waits.end());
  waits.erase(std::unique(waits.begin(), waits.end()), waits.end());
  for (const StageTable::Slot slot : waits) {
    co_await staging_.gate(slot).wait();
    if (job.rec.status != JobStatus::kRunning || job.rec.attempts != attempt) {
      break;  // settled mid-stage: stop waiting, the caller cleans up
    }
  }
  if (obs::Tracer* tr = tracer()) tr->end_and_clear(job.span_stage);
}

void Service::handle_staged_ack(WorkerId wid, const net::rpc::StageAck& ack) {
  Worker* w = workers_.find(wid);
  StageDigest digest = ack.digest;
  if (digest != 0) {
    if (w) {
      // The blob is on the node now — even a late ack from an evicted
      // worker makes that true, so commit unconditionally.
      residency_.commit(w->node, digest);
      // Evictions the worker's CAS performed to make room travel on the
      // ack; apply them so the planner never trusts a stale peer.
      for (const os::CasDigest evicted : ack.evictions) {
        residency_.remove(w->node, evicted);
        m_stage_evictions_->inc();
      }
    }
  } else {
    // Legacy bare-path ack (stage_to_workers broadcast).
    const auto it = blob_info_.find(ack.path);
    if (it == blob_info_.end()) return;
    digest = it->second.first;
  }
  // A tracked worker's decrement belongs to its StageReq call (which
  // completed, or was written off at eviction/EOF — then this late ack
  // must not double-decrement). Untracked sockets keep the historical
  // unconditional decrement.
  if (w) return;
  const StageTable::Slot slot = staging_.find(digest);
  if (slot == StageTable::kNone) return;
  std::uint32_t& rem = staging_.remaining(slot);
  if (rem > 0 && --rem == 0) staging_.gate(slot).open();
}

void Service::stage_call_settled(
    os::NodeId node, StageDigest digest,
    net::rpc::Expected<net::rpc::StageAck, net::rpc::RpcError> r) {
  if (r.ok()) {
    const net::rpc::StageAck& ack = r.value();
    if (ack.digest != 0) {
      // The blob is on the node now; commit before opening the gate so
      // the planner can offer this node as a peer immediately.
      residency_.commit(node, ack.digest);
      for (const os::CasDigest evicted : ack.evictions) {
        residency_.remove(node, evicted);
        m_stage_evictions_->inc();
      }
    }
  } else {
    // The ack will never come (EOF drain, eviction write-off): forget the
    // in-flight transfer so a later job re-stages (satellite S1).
    residency_.clear_pending(node, digest);
    m_stage_acks_lost_->inc();
  }
  const StageTable::Slot slot = staging_.find(digest);
  if (slot == StageTable::kNone) return;
  std::uint32_t& rem = staging_.remaining(slot);
  if (rem > 0 && --rem == 0) staging_.gate(slot).open();
}

void Service::on_task_done(JobId id, const net::rpc::TaskDone& done) {
  const Job* job = jobs_.find(id);
  if (!job || job->task_id != done.task_id) return;
  // The worker's exit-reason token ("app"/"watchdog"/"killed", see
  // worker.hh) all classify as the application's own failure: the
  // watchdog kill (124) means the *app* hung, and service-requested
  // kills only reach here for tasks the service no longer tracks.
  job_finished(id, done.status,
               done.status == 0 ? FailureReason::kNone
                                : FailureReason::kAppExit);
}

void Service::check_all_done() {
  if (!queue_.empty() || running_ != 0 || backing_off_ != 0) return;
  if (m_completed_->value + m_failed_->value + m_quarantined_->value ==
      jobs_.size()) {
    all_done_->open();
  }
}

// --- Worker side -------------------------------------------------------------

sim::Task<void> Service::accept_loop() {
  for (;;) {
    net::SocketPtr sock = co_await listener_->accept();
    if (!sock) co_return;
    actors_.push_back(machine_->engine().spawn(
        "jets-worker-conn", worker_handler(std::move(sock))));
  }
}

sim::Task<void> Service::worker_handler(net::SocketPtr sock) {
  WorkerId wid = 0;
  net::rpc::Channel::Config cfg;
  cfg.metrics = &rpc_metrics_;
  // The channel must not drain pending calls at EOF on its own: the
  // disconnect bookkeeping below writes them off at the exact point the
  // pre-RPC code did, keeping the event schedule byte-identical.
  cfg.manual_drain = true;
  net::rpc::Channel ch(machine_->engine(), sock, cfg);
  ch.set_on_message([this, &wid] {
    if (wid != 0) workers_.at(wid).last_heard = machine_->engine().now();
  });
  ch.on<net::rpc::RegisterReq>([this, &wid, &ch,
                                &sock](net::rpc::RegisterReq&& reg) {
    if (node_blacklisted(reg.node)) {
      m_blacklist_rejections_->inc();
      sock->close();
      ch.stop();  // refuse the node outright
      return;
    }
    // Heartbeat reconciliation after a restore: while ghost workers are
    // awaiting their pilots, a redialing pilot (its reg carries the task
    // ids it still has in flight, see worker.cc) reclaims its
    // checkpointed slot instead of registering as new. The awaiting_
    // guard keeps this off the never-restored hot path entirely.
    if (awaiting_ > 0) {
      wid = adopt_ghost(reg.node, sock, reg.inventory);
      if (wid != 0) {
        workers_.at(wid).rpc = &ch;
        return;
      }
    }
    Worker w;
    w.seq = next_worker_seq_++;
    w.node = reg.node;
    w.sock = sock;
    w.connected = true;
    w.last_heard = machine_->engine().now();
    wid = workers_.insert(std::move(w));
    workers_.at(wid).id = wid;
    workers_.at(wid).rpc = &ch;
    ++connected_;
    m_workers_connected_->set(static_cast<std::int64_t>(connected_));
    peak_capacity_ = std::max(peak_capacity_, connected_);
  });
  ch.on<net::rpc::PingNote>([this, &wid](net::rpc::PingNote&&) {
    if (wid != 0) m_heartbeats_->inc();  // last_heard refreshed above
  });
  ch.on<net::rpc::ReadyNote>([this, &wid](net::rpc::ReadyNote&&) {
    if (wid == 0) return;
    Worker& w = workers_.at(wid);
    w.liveness_timer.cancel();
    if (w.busy && w.job != 0) {
      // "ready" while the service still counts this worker's sequential
      // task as running means the done never arrived — it was sent into a
      // service outage and dropped. Fail the attempt (blameless:
      // kServiceRestart) so the job retries instead of leaking in
      // kRunning forever. Unreachable in normal runs: done always
      // precedes ready and settles or requeues the job first. MPI gangs
      // are excluded (a proxy's exit legitimately sends ready while the
      // gang job still runs; mpiexec owns that outcome) — their
      // job.task_id is always empty.
      Job* j = jobs_.find(w.job);
      if (j && j->rec.status == JobStatus::kRunning &&
          !j->task_id.empty() && j->task_id == w.task_id) {
        job_finished(w.job, /*status=*/1, FailureReason::kServiceRestart);
      }
    }
    w.busy = false;
    w.job = 0;
    w.task_id.clear();
    if (w.evicted) {
      // A disregarded worker came back (hang released, stall drained).
      // Unless its node has been blacklisted, give it another chance.
      if (node_blacklisted(w.node)) {
        m_blacklist_rejections_->inc();
        // The refused worker now waits silently for work, so if the ban
        // has a parole date, check back then and re-offer it ourselves.
        const auto ht = node_health_.find(w.node);
        if (ht != node_health_.end() && ht->second.banned &&
            ht->second.banned_until >= 0) {
          // Tracked in the worker so the destructor (and a repeat refusal)
          // can disarm it — an untracked `this` capture here was the one
          // timer a mid-run service teardown could not cancel.
          w.reoffer_timer.cancel();
          w.reoffer_timer = machine_->engine().call_at(
              ht->second.banned_until, [this, wid] { reoffer_worker(wid); });
        }
        return;
      }
      w.evicted = false;
      --evicted_live_;
      w.connected = true;
      ++connected_;
      m_workers_connected_->set(static_cast<std::int64_t>(connected_));
      peak_capacity_ = std::max(peak_capacity_, connected_);
      m_reenlisted_->inc();
    }
    ready_.push_back(wid, w.node);
    kick();
  });
  // Acks whose StageReq call already settled (written off at eviction or
  // sent on an untracked socket) fall through to this unmatched handler.
  ch.on<net::rpc::StageAck>([this, &wid](net::rpc::StageAck&& ack) {
    handle_staged_ack(wid, ack);
  });
  ch.on<net::rpc::TaskDone>([this, &wid](net::rpc::TaskDone&& done) {
    // Unmatched dones: restored ghosts' tasks, MPI proxy exits (mpiexec
    // owns their outcome — the ghost lookup misses) and tasks the service
    // no longer tracks.
    if (wid == 0) return;
    if (const auto it = task_to_job_.find(done.task_id);
        it != task_to_job_.end()) {
      on_task_done(it->second, done);
    }
  });
  co_await ch.serve();
  // Worker gone (allocation expired, node fault, kill): disregard it.
  if (wid != 0) {
    Worker* w = workers_.find(wid);
    if (!w) co_return;
    w->liveness_timer.cancel();
    // If the run call is still pending, the fail_all() drain below counts
    // its kPeerClosed; a lost task with no tracked call (MPI gang member,
    // restored ghost) is counted here so every lost run shows up once in
    // jets.rpc.peer_closed.
    const bool run_call_pending =
        w->rpc && !w->task_id.empty() &&
        w->rpc->has_pending(net::rpc::TaskDone::kTag, w->task_id);
    if (w->connected) {
      w->connected = false;
      --connected_;
      m_workers_connected_->set(static_cast<std::int64_t>(connected_));
      ready_.erase(wid, w->node);
      if (w->busy && w->job != 0) {
        // Its task cannot finish; fail the attempt so the job can retry on
        // other workers ("minimizing their impact", §5 feature 3).
        const JobId jid = w->job;
        Job* j = jobs_.find(jid);
        if (j) {
          if (!run_call_pending) rpc_metrics_.peer_closed->inc();
          job_finished(jid, /*status=*/1, worker_lost_reason(*j));
        }
      }
    }
    // A worker already evicted for liveness needs no further bookkeeping;
    // with the connection truly gone it can never re-enlist, so its slot
    // is recycled — every outstanding handle to it fails the generation
    // check from here on (timers, reoffer callbacks, stale claims).
    if (w->evicted) --evicted_live_;
    // Unacked calls die with the connection: drain them (stage write-offs
    // land in stage_call_settled, the run call's error is counted) before
    // the slot is recycled, or their completion gates would hang forever.
    if (w->rpc) {
      w->rpc->fail_all(net::rpc::RpcError::kPeerClosed);
      w->rpc = nullptr;
    }
    workers_.erase(wid);
    // This slot is gone for good — a queued wide job may now be doomed.
    reap_unsatisfiable();
  }
}

// --- Scheduling --------------------------------------------------------------

std::optional<JobId> Service::choose_job() {
  if (queue_.empty()) return std::nullopt;
  if (config_.policy == SchedPolicy::kFifo) {
    // Width is cached in the queue entry: the FIFO head check never
    // touches the job table.
    const auto needed = static_cast<std::size_t>(queue_.front_width());
    if (ready_.size() < needed) return std::nullopt;  // head-of-line blocks
    const JobId head = queue_.front();
    if (!node_elastic_.empty() &&
        count_eligible(jobs_.at(head).rec.spec) < needed) {
      // Enough raw workers, but not enough whose pilot blocks outlive the
      // job's expected runtime: the walltime gate refuses the placement.
      m_gate_refusals_->inc();
      return std::nullopt;
    }
    queue_.pop_front();
    return head;
  }
  // Priority + backfill: the first job in (priority desc, FIFO) order whose
  // worker demand fits the currently ready pool. The queue's bucket index
  // yields that order directly — no per-kick sort of the backlog.
  return queue_.pop_first_fit([this](JobId id, std::uint32_t width) {
    const auto needed = static_cast<std::size_t>(width);
    if (ready_.size() < needed) return false;
    if (node_elastic_.empty()) return true;
    if (count_eligible(jobs_.at(id).rec.spec) < needed) {
      m_gate_refusals_->inc();
      return false;
    }
    return true;
  });
}

std::vector<Service::WorkerId> Service::claim_workers(std::size_t count,
                                                      const JobSpec& spec) {
  std::vector<WorkerId> claimed;
  if (!node_elastic_.empty()) {
    // Elastic mode: FCFS among workers whose blocks are neither draining
    // nor expiring before the job's expected runtime completes.
    claimed = claim_eligible(count, spec);
  } else if (!config_.network_aware_grouping || count <= 1) {
    // Paper default: first come, first served (§6.1.4).
    claimed.reserve(count);
    while (claimed.size() < count && !ready_.empty()) {
      const WorkerId wid = ready_.front();
      ready_.erase_front(workers_.at(wid).node);
      claimed.push_back(wid);
    }
  } else if (!spec.stage_files.empty()) {
    // Data-aware refinement: among width-feasible windows, prefer the one
    // whose nodes already hold (or are receiving) the most input bytes —
    // warm cache beats short hops. Ties fall back to the min-span pick,
    // so a cold cache (every score 0) reproduces claim_min_span exactly:
    // that is what keeps cold runs byte-identical to the golden manifest.
    std::vector<std::pair<StageDigest, std::uint64_t>> wanted;
    wanted.reserve(spec.stage_files.size());
    for (const std::string& path : spec.stage_files) {
      // Lookup only: a path never staged anywhere scores 0 on every node,
      // so interning it here would change nothing but state.
      const auto it = blob_info_.find(path);
      if (it != blob_info_.end()) wanted.push_back(it->second);
    }
    claimed = ready_.claim_best(count, [&](const auto* win, std::size_t n) {
      std::uint64_t total = 0;
      for (std::size_t i = 0; i < n; ++i) {
        // The window is node-sorted; count each distinct node once.
        if (i > 0 && win[i].node == win[i - 1].node) continue;
        total += residency_.resident_bytes(win[i].node, wanted);
      }
      return total;
    });
  } else {
    // §7 extension: pick the window of ready workers with the smallest
    // node-id span (node ids are laid out along the torus, so a small span
    // means fewer hops between the job's processes). The pool keeps its
    // node-sorted mirror up to date, so this is a single window scan.
    claimed = ready_.claim_min_span(count);
  }
  for (WorkerId wid : claimed) workers_.at(wid).busy = true;
  return claimed;
}

sim::Task<void> Service::dispatch_loop() {
  for (;;) {
    auto signal = co_await kick_ch_->recv();
    if (!signal) co_return;
    for (;;) {
      std::optional<JobId> pick = choose_job();
      if (!pick) break;
      co_await place_job(*pick);
    }
  }
}

sim::Task<void> Service::place_job(JobId id) {
  // Safe to hold across co_await: the job table is append-only and
  // deque-backed, so growth never moves this Job.
  Job& job = jobs_.at(id);
  const JobSpec& spec = job.rec.spec;
  const auto needed = static_cast<std::size_t>(spec.workers_needed());
  job.assigned = claim_workers(needed, spec);
  // Local copy: job.assigned is cleared if the job settles (eviction,
  // deadline) while this coroutine is suspended in a dispatch delay.
  const std::vector<WorkerId> claimed = job.assigned;
  job.rec.status = JobStatus::kRunning;
  job.rec.started_at = machine_->engine().now();
  // Attempt generation: if the job settles *and* is re-placed while this
  // coroutine is suspended in a dispatch delay, the status check alone
  // would confuse the new attempt for this one.
  const int attempt = ++job.rec.attempts;
  {
    AttemptRecord att;
    att.attempt = attempt;
    att.started_at = machine_->engine().now();
    job.rec.history.push_back(att);
  }
  if (obs::Tracer* tr = tracer()) {
    tr->end_and_clear(job.span_queued);
    job.span_attempt = tr->begin("job.attempt", obs::track_job(id),
                                 job.span_job);
    tr->attr(job.span_attempt, "attempt", static_cast<std::int64_t>(attempt));
    job.span_group = tr->begin("job.group", obs::track_job(id),
                               job.span_attempt);
  }
  if (attempt == 1) {
    m_queue_wait_->observe(machine_->engine().now() - job.rec.submitted_at);
  }
  ++running_;
  m_jobs_running_->set(static_cast<std::int64_t>(running_));
  job.rec.nodes.clear();
  for (WorkerId wid : claimed) {
    Worker& w = workers_.at(wid);
    w.job = id;
    job.rec.nodes.push_back(w.node);
    if (config_.worker_liveness_timeout > 0) {
      // The liveness clock starts when work is handed over; heartbeats
      // (and done/ready traffic) keep pushing last_heard forward.
      w.last_heard = machine_->engine().now();
      w.liveness_timer.cancel();
      w.liveness_timer = machine_->engine().call_in(
          config_.worker_liveness_timeout,
          [this, wid] { liveness_check(wid); });
    }
  }
  if (hooks_.on_job_start) hooks_.on_job_start(job.rec);

  // Input staging precedes dispatch. The empty-list guard is load-bearing
  // for determinism: jobs without stage_files (every golden-manifest
  // workload) must reach the dispatch co_awaits with an unchanged event
  // sequence, so the staging path may not suspend even once for them.
  if (!spec.stage_files.empty()) {
    co_await stage_job_inputs(id, attempt, claimed);
    if (job.rec.status != JobStatus::kRunning ||
        job.rec.attempts != attempt) {  // settled mid-stage
      release_undispatched(claimed, 0);
      co_return;
    }
  }

  if (spec.kind == JobKind::kSequential) {
    const std::string tid = "t" + std::to_string(next_task_++);
    job.task_id = tid;
    workers_.at(claimed.front()).task_id = tid;
    co_await sim::delay(config_.dispatch_overhead);
    if (job.rec.status != JobStatus::kRunning ||
        job.rec.attempts != attempt) {  // settled mid-placement
      release_undispatched(claimed, 0);
      co_return;
    }
    // Re-resolve the handle after the suspension: the worker's slot may
    // have been recycled if it EOF'd during the dispatch delay.
    Worker* w = workers_.find(claimed.front());
    if (!w || !w->connected || w->evicted || !w->rpc ||
        w->rpc->peer_closed()) {
      // The claimed worker vanished while the run message was in flight:
      // fail the attempt now rather than dropping the message and waiting
      // out a job deadline that may never fire. This is the typed
      // claim-to-flush disconnect path: it counts as a peer-closed call.
      rpc_metrics_.peer_closed->inc();
      job_finished(id, /*status=*/1, worker_lost_reason(job));
      co_return;
    }
    net::rpc::TaskRun run;
    run.task_id = tid;
    run.argv = spec.argv;
    run.vars = spec.vars;
    const auto sent = w->rpc->call_cb<net::rpc::TaskRun>(
        run,
        [this, id](net::rpc::Expected<net::rpc::TaskDone, net::rpc::RpcError> r) {
          // Errors (kPeerClosed drain) need no action here: the disconnect
          // bookkeeping fails the attempt at its historical point.
          if (r.ok()) on_task_done(id, r.value());
        });
    if (!sent.ok()) {
      // call_cb counted the refusal; just fail the attempt.
      job_finished(id, /*status=*/1, worker_lost_reason(job));
      co_return;
    }
    if (obs::Tracer* tr = tracer()) {
      tr->end_and_clear(job.span_group);
      job.span_run = tr->begin("job.run", obs::track_job(id),
                               job.span_attempt);
    }
  } else {
    co_await sim::delay(config_.mpi_job_overhead);
    if (job.rec.status != JobStatus::kRunning || job.rec.attempts != attempt) {
      release_undispatched(claimed, 0);
      co_return;
    }
    pmi::MpiexecSpec mspec;
    mspec.user_argv = spec.argv;
    mspec.nprocs = spec.nprocs;
    mspec.ranks_per_proxy = spec.ppn;
    mspec.user_vars = spec.vars;
    mspec.proxy_setup_cost = config_.proxy_setup_cost;
    mspec.launch_timeout = config_.mpi_launch_timeout;
    mspec.trace_track = obs::track_job(id);
    mspec.trace_parent = job.span_attempt;
    job.mpx = std::make_shared<pmi::Mpiexec>(*machine_, *apps_, host_, mspec);
    job.mpx->start();
    const auto cmds = job.mpx->proxy_commands();
    for (std::size_t k = 0; k < cmds.size(); ++k) {
      const WorkerId wid = claimed.at(k);
      const std::string tid = "t" + std::to_string(next_task_++);
      workers_.at(wid).task_id = tid;
      co_await sim::delay(config_.dispatch_overhead);
      if (job.rec.status != JobStatus::kRunning || job.rec.attempts != attempt) {
        release_undispatched(claimed, k);  // w never got its run message
        co_return;
      }
      // Re-resolve after the suspension (slot may have been recycled).
      Worker* w = workers_.find(wid);
      if (!w || !w->connected || w->evicted || !w->rpc) {
        // A gang member vanished mid-dispatch: fail the attempt and free
        // the rest of the gang now — mpiexec would otherwise wait forever
        // for a proxy that was never started.
        rpc_metrics_.peer_closed->inc();
        job_finished(id, /*status=*/1, worker_lost_reason(job));
        release_undispatched(claimed, k);
        co_return;
      }
      // One-way: a proxy's exit is not the gang's outcome (mpiexec owns
      // that), so gang runs are notifies, not calls.
      net::rpc::TaskRun run;
      run.task_id = tid;
      run.argv = cmds[k];
      (void)w->rpc->notify(run);
    }
    if (obs::Tracer* tr = tracer()) {
      tr->end_and_clear(job.span_group);
      job.span_run = tr->begin("job.run", obs::track_job(id),
                               job.span_attempt);
    }
    // Completion is observed through mpiexec, whose output JETS checks.
    // The waiter holds shared ownership: it is the coroutine suspended
    // inside mpx->wait(), so mpx must survive until it unwinds.
    actors_.push_back(machine_->engine().spawn(
        "jets-job-waiter",
        [](Service* s, JobId id, std::shared_ptr<pmi::Mpiexec> mpx) -> sim::Task<void> {
          const int rc = co_await mpx->wait();
          FailureReason reason = FailureReason::kNone;
          if (rc != 0) {
            Job* j = s->jobs_.find(id);
            reason = j ? s->classify_mpi_failure(*j, *mpx)
                       : FailureReason::kAppExit;
          }
          s->job_finished(id, rc, reason);
        }(this, id, job.mpx)));
  }
}

void Service::job_finished(JobId id, int status, FailureReason reason) {
  Job* jp = jobs_.find(id);
  if (!jp) return;
  Job& job = *jp;
  if (job.rec.status != JobStatus::kRunning) return;  // already settled
  // NB: the submission-relative deadline timer stays armed across retries
  // (settle_job cancels it); cancelling here would hand a failing job a
  // fresh, unbounded deadline on every attempt.
  --running_;
  m_jobs_running_->set(static_cast<std::int64_t>(running_));

  if (status != 0) {
    // Reap stragglers: any connected worker still running a piece of this
    // job gets a kill; its own done/ready cycle frees it. find() skips
    // assignees whose slot already went to EOF (they were disconnected
    // anyway, so the old map-based path skipped them too).
    for (WorkerId wid : job.assigned) {
      Worker* w = workers_.find(wid);
      if (w && w->connected && w->busy && w->job == id && w->sock && w->rpc) {
        (void)w->rpc->notify(net::rpc::KillReq{w->task_id});
      }
    }
  }
  // Note: assigned workers' liveness timers stay armed. A straggler that
  // is itself hung would otherwise leak as busy-forever once its job has
  // settled; the pending check evicts it instead. Responsive stragglers
  // cancel the timer through their done/ready cycle.
  for (WorkerId wid : job.assigned) {
    Worker* w = workers_.find(wid);
    if (w && w->job == id) w->job = 0;
  }
  job.assigned.clear();
  job.task_id.clear();
  if (job.mpx) {
    // Release any actor still blocked in mpx->wait() before destroying the
    // gate it waits on, then tear down the control service (PMI EOF
    // unblocks any surviving ranks).
    job.mpx->abort("job settled");
    job.mpx.reset();
  }

  // Close out this attempt's history entry.
  if (!job.rec.history.empty() && job.rec.history.back().ended_at < 0) {
    AttemptRecord& att = job.rec.history.back();
    att.ended_at = machine_->engine().now();
    att.exit_status = status;
    att.reason = reason;
  }

  if (obs::Tracer* tr = tracer()) {
    tr->end_and_clear(job.span_run);
    tr->end_and_clear(job.span_group);
    tr->attr(job.span_attempt, "status", static_cast<std::int64_t>(status));
    if (reason != FailureReason::kNone) {
      tr->attr(job.span_attempt, "reason", to_string(reason));
    }
    tr->end_and_clear(job.span_attempt);
  }

  if (status == 0) {
    settle_job(job, JobStatus::kDone, FailureReason::kNone);
    kick();
    check_all_done();
    return;
  }

  job.rec.last_reason = reason;
  job.restored_running = false;  // the rescued attempt did not survive
  m_failures_[static_cast<std::size_t>(reason)]->inc();
  // A service restart or a walltime drain is nobody's failure
  // *budget-wise*: the attempt died because the scheduler crashed or the
  // pilot block hit its allocation boundary. Both are recorded in the
  // history (above) and the taxonomy counter, but charged to neither
  // budget and exempt from both caps — a crash or an expiring allocation
  // must never consume a job's retries.
  const bool blameless = reason == FailureReason::kServiceRestart ||
                         reason == FailureReason::kWalltimeDrain;
  if (!blameless) {
    if (is_infra_failure(reason)) {
      ++job.rec.infra_failures;
    } else {
      ++job.rec.app_failures;
    }
  }

  const RetryPolicy& pol = policy_for(job);
  // Infra-class failures can be exempted from the app attempt budget; a
  // separate hard cap still bounds them.
  const int charged = pol.infra_exempt
                          ? job.rec.app_failures
                          : job.rec.app_failures + job.rec.infra_failures;
  const bool terminal_reason = reason == FailureReason::kJobDeadline ||
                               reason == FailureReason::kServiceAbort;
  if (!terminal_reason && !job.deadline_passed &&
      (blameless || (charged < pol.max_attempts &&
                     job.rec.infra_failures < pol.max_infra_failures))) {
    // Delayed requeue through the retry engine — never straight back to
    // the head of the queue.
    job.rec.status = JobStatus::kPending;
    const int failures = job.rec.app_failures + job.rec.infra_failures;
    const sim::Duration delay = backoff_delay(pol, failures);
    if (!job.rec.history.empty()) job.rec.history.back().backoff = delay;
    job.in_backoff = true;
    ++backing_off_;
    m_retries_scheduled_->inc();
    if (obs::Tracer* tr = tracer()) {
      job.span_backoff = tr->begin("job.backoff", obs::track_job(id),
                                   job.span_job);
    }
    job.retry_timer =
        machine_->engine().call_in(delay, [this, id] { requeue_job(id); });
  } else if (reason == FailureReason::kAppExit && charged >= pol.max_attempts) {
    // The job's own failures exhausted the budget: poison, not unlucky.
    settle_job(job, JobStatus::kQuarantined, reason);
  } else {
    settle_job(job, JobStatus::kFailed, reason);
  }
  kick();
  check_all_done();
}

sim::Duration Service::backoff_delay(const RetryPolicy& pol, int failures) {
  if (pol.backoff_base <= 0) return 0;
  double d = static_cast<double>(pol.backoff_base);
  const double cap = static_cast<double>(pol.backoff_max);
  for (int i = 1; i < failures && (cap <= 0 || d < cap); ++i) {
    d *= pol.backoff_factor;
  }
  if (cap > 0) d = std::min(d, cap);
  if (pol.backoff_jitter > 0) {
    d *= 1.0 + retry_rng_.uniform(0.0, pol.backoff_jitter);
  }
  return static_cast<sim::Duration>(d);
}

void Service::requeue_job(JobId id) {
  Job* jp = jobs_.find(id);
  if (!jp) return;
  Job& job = *jp;
  if (job.rec.status != JobStatus::kPending || !job.in_backoff) return;
  job.in_backoff = false;
  --backing_off_;
  // The machine may have shrunk below the job's width during the backoff.
  const auto needed = static_cast<std::size_t>(job.rec.spec.workers_needed());
  if (needed > potential_capacity() && needed <= peak_capacity_) {
    m_failures_[static_cast<std::size_t>(FailureReason::kServiceAbort)]->inc();
    settle_job(job, JobStatus::kFailed, FailureReason::kServiceAbort);
    check_all_done();
    return;
  }
  if (obs::Tracer* tr = tracer()) {
    tr->end_and_clear(job.span_backoff);
    job.span_queued = tr->begin("job.queued", obs::track_job(id),
                                job.span_job);
  }
  queue_.push_back(id, job.rec.spec.priority,
                   static_cast<std::uint32_t>(job.rec.spec.workers_needed()));
  kick();
}

void Service::settle_job(Job& job, JobStatus status, FailureReason reason) {
  job.timeout.cancel();
  job.retry_timer.cancel();
  if (job.in_backoff) {
    job.in_backoff = false;
    --backing_off_;
  }
  job.rec.status = status;
  job.rec.last_reason = reason;
  job.rec.finished_at = machine_->engine().now();
  if (status == JobStatus::kDone) {
    // A restored-running attempt that made it to kDone survived a service
    // crash end to end — the recovery path's headline number.
    if (job.restored_running) m_rescued_->inc();
    m_completed_->inc();
  } else if (status == JobStatus::kQuarantined) {
    m_quarantined_->inc();
  } else {
    m_failed_->inc();
  }
  m_job_wall_->observe(job.rec.finished_at - job.rec.submitted_at);
  close_job_spans(job);
  if (obs::Tracer* tr = tracer()) {
    tr->attr(job.span_job, "status", to_string(status));
    if (reason != FailureReason::kNone) {
      tr->attr(job.span_job, "reason", to_string(reason));
    }
    tr->end_and_clear(job.span_job);
  }
  if (job.settled) job.settled->open();
  if (hooks_.on_job_finish) hooks_.on_job_finish(job.rec);
}

FailureReason Service::worker_lost_reason(const Job& job) const {
  return job.rec.spec.workers_needed() > 1 ? FailureReason::kGangPartnerLost
                                           : FailureReason::kWorkerLost;
}

FailureReason Service::classify_mpi_failure(const Job& job,
                                            const pmi::Mpiexec& mpx) const {
  if (job.deadline_passed) return FailureReason::kJobDeadline;
  switch (mpx.fail_kind()) {
    case pmi::MpiexecFailKind::kLaunchTimeout:
      return FailureReason::kLaunchTimeout;
    case pmi::MpiexecFailKind::kDisconnect:
      return worker_lost_reason(job);
    case pmi::MpiexecFailKind::kAborted:
      return FailureReason::kServiceAbort;
    case pmi::MpiexecFailKind::kExit:
    case pmi::MpiexecFailKind::kProtocol:
    case pmi::MpiexecFailKind::kNone:
      break;
  }
  return FailureReason::kAppExit;
}

std::size_t Service::potential_capacity() const {
  // Without blacklisting, no node is ever banned, so the count is just two
  // maintained counters — O(1) on the EOF/eviction path, which calls this
  // once per departure (10^5..10^6 times in a teardown storm).
  // Ghosts awaiting reconciliation count as capacity: their pilots may
  // redial any moment, so reaping a wide job during the restore grace would
  // be premature.
  // An elastic allocator floors the count at its pool ceiling: the pool
  // may be momentarily empty between a drain and the next scale-out, and
  // a wide queued job must survive that valley.
  if (config_.blacklist_after == 0) {
    return std::max(connected_ + evicted_live_ + awaiting_,
                    elastic_capacity_);
  }
  std::size_t n = 0;
  workers_.for_each([&](WorkerId, const Worker& w) {
    if (w.connected) {
      ++n;
    } else if ((w.evicted || w.awaiting) && !node_banned(w.node)) {
      ++n;  // could still re-enlist / reconcile
    }
  });
  return std::max(n, elastic_capacity_);
}

void Service::reap_unsatisfiable() {
  if (queue_.empty()) return;
  const std::size_t cap = potential_capacity();
  std::vector<JobId> doomed;
  queue_.for_each([&](JobId id, std::uint32_t width) {
    const auto needed = static_cast<std::size_t>(width);
    // Only jobs the machine *once* had room for: a job wider than the
    // allocation ever was keeps waiting (workers may still register), and
    // is bounded by its deadline as before.
    if (needed > cap && needed <= peak_capacity_) doomed.push_back(id);
  });
  for (JobId id : doomed) {
    Job& job = jobs_.at(id);
    queue_.erase(id);
    m_failures_[static_cast<std::size_t>(FailureReason::kServiceAbort)]->inc();
    settle_job(job, JobStatus::kFailed, FailureReason::kServiceAbort);
  }
  if (!doomed.empty()) check_all_done();
}

// --- Elastic allocations -----------------------------------------------------

void Service::set_node_expiry(os::NodeId node, sim::Time expires_at) {
  node_elastic_[node].expires_at = expires_at;
}

void Service::drain_nodes(const std::vector<os::NodeId>& nodes,
                          sim::Time deadline) {
  for (os::NodeId node : nodes) {
    NodeElastic& e = node_elastic_[node];
    // A repeat drain may only *tighten* the deadline (a preemption landing
    // on a block that was already draining toward its walltime).
    if (e.draining && deadline >= e.drain_at) continue;
    e.draining = true;
    e.drain_at = deadline;
    e.drain_timer.cancel();
    if (deadline <= machine_->engine().now()) {
      // Preemption path: the block dies as soon as this call returns, so
      // the requeue must happen synchronously — before the pilots do.
      drain_deadline(node);
    } else {
      e.drain_timer = machine_->engine().call_at(
          deadline, [this, node] { drain_deadline(node); });
    }
  }
}

void Service::clear_node_elastic(const std::vector<os::NodeId>& nodes) {
  for (os::NodeId node : nodes) {
    auto it = node_elastic_.find(node);
    if (it == node_elastic_.end()) continue;
    it->second.drain_timer.cancel();
    node_elastic_.erase(it);
  }
}

bool Service::node_draining(os::NodeId node) const {
  auto it = node_elastic_.find(node);
  return it != node_elastic_.end() && it->second.draining;
}

bool Service::worker_eligible(const Worker& w, const JobSpec& spec) const {
  auto it = node_elastic_.find(w.node);
  if (it == node_elastic_.end()) return true;
  const NodeElastic& e = it->second;
  if (e.draining) return false;
  // An unknown runtime cannot be gated; the drain deadline still rescues
  // the job if the estimate was missing or wrong (zero-jobs-lost backstop).
  if (e.expires_at < 0 || spec.expected_runtime <= 0) return true;
  return machine_->engine().now() + spec.expected_runtime <= e.expires_at;
}

std::size_t Service::count_eligible(const JobSpec& spec) const {
  std::size_t n = 0;
  for (WorkerId wid : ready_.live_fifo()) {
    if (worker_eligible(workers_.at(wid), spec)) ++n;
  }
  return n;
}

std::vector<Service::WorkerId> Service::claim_eligible(std::size_t count,
                                                       const JobSpec& spec) {
  std::vector<WorkerId> claimed;
  claimed.reserve(count);
  for (WorkerId wid : ready_.live_fifo()) {
    if (claimed.size() == count) break;
    if (worker_eligible(workers_.at(wid), spec)) claimed.push_back(wid);
  }
  for (WorkerId wid : claimed) ready_.erase(wid, workers_.at(wid).node);
  return claimed;
}

void Service::drain_deadline(os::NodeId node) {
  // Slot order is deterministic; a gang spanning the node appears once per
  // assigned worker but settles on the first job_finished (the rest skip
  // via the status check).
  std::vector<JobId> victims;
  workers_.for_each([&](WorkerId, const Worker& w) {
    if (w.node == node && w.busy && w.job != 0) victims.push_back(w.job);
  });
  for (JobId id : victims) {
    Job* j = jobs_.find(id);
    if (!j || j->rec.status != JobStatus::kRunning) continue;
    m_drain_requeues_->inc();
    job_finished(id, 1, FailureReason::kWalltimeDrain);
  }
}

// --- Worker liveness ---------------------------------------------------------

void Service::liveness_check(WorkerId wid) {
  Worker* wp = workers_.find(wid);
  if (!wp) return;  // slot recycled: the timer's target is long gone
  Worker& w = *wp;
  // Only busy workers are under a liveness deadline: an idle worker owes
  // us nothing (and pinging while idle would keep the simulation alive
  // forever — see WorkerConfig::heartbeat_interval).
  if (!w.connected || w.evicted || !w.busy) return;
  const sim::Duration elapsed = machine_->engine().now() - w.last_heard;
  if (elapsed >= config_.worker_liveness_timeout) {
    evict_worker(wid);
  } else {
    // Heard from it since the timer was armed; re-check when the current
    // silence would exceed the deadline.
    w.liveness_timer = machine_->engine().call_in(
        config_.worker_liveness_timeout - elapsed,
        [this, wid] { liveness_check(wid); });
  }
}

void Service::evict_worker(WorkerId wid) {
  Worker& w = workers_.at(wid);
  if (!w.connected || w.evicted) return;
  // Disregard, don't disconnect: the socket stays open so a worker that
  // was merely wedged (stall drains, hang released) can announce itself
  // with "ready" and be re-enlisted.
  w.evicted = true;
  ++evicted_live_;
  w.connected = false;
  --connected_;
  m_workers_connected_->set(static_cast<std::int64_t>(connected_));
  m_evicted_->inc();
  NodeHealth& h = node_health_[w.node];
  ++h.evictions;
  if (config_.blacklist_after > 0 && !h.banned &&
      h.evictions >= config_.blacklist_after) {
    h.banned = true;
    h.banned_until =
        config_.blacklist_probation > 0
            ? machine_->engine().now() + config_.blacklist_probation
            : -1;  // permanent
  }
  w.liveness_timer.cancel();
  ready_.erase(wid, w.node);
  // A disregarded worker's acks cannot be trusted to arrive: write off its
  // unacked stage-ins now so no stage gate waits on a hung pilot. If it
  // acks late anyway, residency is still committed (the data did land;
  // the ack falls through to the unmatched handler) but the settled call
  // skips the double decrement. The run call, if any, stays pending: a
  // late done must still settle the job exactly as it always did.
  if (w.rpc) {
    w.rpc->fail_responses(net::rpc::StageAck::kTag,
                          net::rpc::RpcError::kCancelled);
  }
  if (w.busy && w.job != 0) {
    // The in-flight attempt cannot be trusted to finish; fail it so the
    // job retries on live workers ("minimizing their impact", §5).
    job_finished(w.job, /*status=*/1, FailureReason::kLivenessEvicted);
  }
  // Banning a node may have shrunk the machine below a queued job's width.
  reap_unsatisfiable();
}

bool Service::node_banned(os::NodeId node) const {
  auto it = node_health_.find(node);
  if (it == node_health_.end() || !it->second.banned) return false;
  return it->second.banned_until < 0 ||
         machine_->engine().now() < it->second.banned_until;
}

bool Service::node_blacklisted(os::NodeId node) {
  auto it = node_health_.find(node);
  if (it == node_health_.end() || !it->second.banned) return false;
  NodeHealth& h = it->second;
  if (h.banned_until >= 0 && machine_->engine().now() >= h.banned_until) {
    // Probation served: parole the node, but remember half its record so a
    // repeat offender is re-banned quickly.
    h.banned = false;
    h.banned_until = -1;
    h.evictions /= 2;
    m_blacklist_paroles_->inc();
    return false;
  }
  return true;
}

void Service::reoffer_worker(WorkerId wid) {
  Worker* wp = workers_.find(wid);
  if (!wp) return;  // EOF recycled the slot: nothing to re-offer
  Worker& w = *wp;
  // Only an evicted-but-alive idle worker qualifies (EOF erases the slot,
  // so a worker whose connection died in the meantime fails the handle
  // check above), and a still-banned node (probation extended by a re-ban)
  // stays out.
  if (!w.evicted || w.connected || w.busy || !w.sock) return;
  if (node_blacklisted(w.node)) return;
  w.evicted = false;
  --evicted_live_;
  w.connected = true;
  ++connected_;
  m_workers_connected_->set(static_cast<std::int64_t>(connected_));
  peak_capacity_ = std::max(peak_capacity_, connected_);
  m_reenlisted_->inc();
  ready_.push_back(wid, w.node);
  kick();
}

// --- Restore reconciliation -------------------------------------------------
//
// checkpoint()/apply_snapshot() live in snapshot.cc with the codec; the two
// functions below are the runtime half of recovery: deciding stale-vs-live
// for each checkpointed worker as its pilot redials (or doesn't).

Service::WorkerId Service::adopt_ghost(
    os::NodeId node, net::SocketPtr sock,
    const std::vector<std::string>& inventory) {
  // Prefer the ghost whose outstanding task the pilot announces (that pins
  // the identity exactly); otherwise any ghost on the same node, lowest
  // registration seq first so the match is deterministic.
  WorkerId task_match = 0;
  WorkerId node_match = 0;
  std::uint64_t task_seq = std::numeric_limits<std::uint64_t>::max();
  std::uint64_t node_seq = std::numeric_limits<std::uint64_t>::max();
  workers_.for_each([&](WorkerId wid, const Worker& w) {
    if (!w.awaiting || w.node != node) return;
    if (!w.task_id.empty() &&
        std::find(inventory.begin(), inventory.end(), w.task_id) !=
            inventory.end()) {
      if (w.seq < task_seq) {
        task_seq = w.seq;
        task_match = wid;
      }
    }
    if (w.seq < node_seq) {
      node_seq = w.seq;
      node_match = wid;
    }
  });
  const WorkerId wid = task_match != 0 ? task_match : node_match;
  if (wid == 0) return 0;

  Worker& w = workers_.at(wid);
  w.awaiting = false;
  --awaiting_;
  w.evicted = false;  // a redialing pilot is alive by definition
  w.sock = std::move(sock);
  w.connected = true;
  w.last_heard = machine_->engine().now();
  ++connected_;
  m_workers_connected_->set(static_cast<std::int64_t>(connected_));
  peak_capacity_ = std::max(peak_capacity_, connected_);
  m_reconciled_->inc();

  if (w.busy && w.job != 0) {
    Job* j = jobs_.find(w.job);
    const bool task_alive =
        !w.task_id.empty() &&
        std::find(inventory.begin(), inventory.end(), w.task_id) !=
            inventory.end();
    if (j && j->rec.status == JobStatus::kRunning && !task_alive) {
      // The checkpoint says this worker runs a task, the pilot says it
      // doesn't: the task finished during the outage and its done message
      // was lost with the dead service. The attempt cannot be trusted —
      // fail it (blameless) so the job retries.
      job_finished(w.job, /*status=*/1, FailureReason::kServiceRestart);
    } else if (j && task_alive && config_.worker_liveness_timeout > 0) {
      w.liveness_timer.cancel();
      w.liveness_timer = machine_->engine().call_in(
          config_.worker_liveness_timeout, [this, wid] { liveness_check(wid); });
    }
  }
  if (awaiting_ == 0) {
    reconcile_timer_.cancel();
    check_all_done();
  }
  return wid;
}

void Service::reconcile_ghosts() {
  // The restore grace ran out: any ghost still awaiting its pilot is
  // declared dead. Their running jobs are requeued (kServiceRestart) and
  // the slots recycled, exactly like an EOF would have done.
  std::vector<WorkerId> stale;
  workers_.for_each([&](WorkerId wid, const Worker& w) {
    if (w.awaiting) stale.push_back(wid);
  });
  for (WorkerId wid : stale) {
    Worker& w = workers_.at(wid);
    w.awaiting = false;
    --awaiting_;
    m_ghosts_dropped_->inc();
    if (w.busy && w.job != 0) {
      Job* j = jobs_.find(w.job);
      if (j && j->rec.status == JobStatus::kRunning) {
        job_finished(w.job, /*status=*/1, FailureReason::kServiceRestart);
      }
    }
    workers_.erase(wid);
  }
  if (!stale.empty()) {
    reap_unsatisfiable();
    kick();
    check_all_done();
  }
}

void Service::release_undispatched(const std::vector<WorkerId>& claimed,
                                   std::size_t from_idx) {
  bool released = false;
  for (std::size_t k = from_idx; k < claimed.size(); ++k) {
    // Handle re-lookup: the claim was taken before a suspension point, so
    // the worker may have EOF'd (slot recycled) in between.
    Worker* w = workers_.find(claimed[k]);
    // Only a healthy, still-claimed worker goes back to the pool; evicted
    // or disconnected ones are already accounted for elsewhere.
    if (!w || !w->connected || w->evicted || !w->busy || w->job != 0) continue;
    w->busy = false;
    w->task_id.clear();
    w->liveness_timer.cancel();
    ready_.push_back(claimed[k], w->node);
    released = true;
  }
  if (released) kick();
}

bool Service::ready_pool_consistent() const {
  const std::vector<WorkerId> fifo = ready_.live_fifo();
  std::set<WorkerId> seen;
  for (WorkerId wid : fifo) {
    if (!seen.insert(wid).second) return false;  // duplicate entry
    const Worker* w = workers_.find(wid);
    if (!w) return false;
    if (!w->connected || w->busy || w->evicted) return false;
  }
  if (config_.network_aware_grouping) {
    // The node-sorted mirror must agree with the FIFO view exactly: same
    // workers, correct node keys, strictly increasing (node, arrival).
    const auto& index = ready_.index();
    if (index.size() != fifo.size()) return false;
    for (std::size_t i = 0; i < index.size(); ++i) {
      if (i > 0 && !(index[i - 1] < index[i])) return false;
      const Worker* w = workers_.find(index[i].wid);
      if (!w || w->node != index[i].node) return false;
      if (!seen.contains(index[i].wid)) return false;
    }
  }
  return true;
}

}  // namespace jets::core
