// The central JETS service (dispatcher).
//
// The essential JETS idea (§5): transform an MPI job specification into a
// set of Hydra proxy invocations — by running a background mpiexec with
// launcher=manual — and rapidly push those proxy command lines to ready
// pilot-job workers over persistent sockets. Sequential jobs are pushed
// directly (Falkon-style). The service:
//
//   * keeps a FIFO job queue and a first-come-first-served ready-worker
//     pool (the paper's defaults; §6.1.4);
//   * aggregates independent workers into MPI-capable groups of exactly
//     the size each job needs;
//   * checks mpiexec outcomes and retries failed jobs on fresh workers,
//     automatically disregarding workers that fail or hang (§5 feature 3,
//     Fig 10);
//   * charges a fixed dispatch cost per task sent — the single-scheduler
//     bottleneck that caps launch throughput (Figs 6 and 9).
//
// Failure handling goes beyond the paper's "retries failed jobs" sentence:
// every settled attempt is *classified* (FailureReason in core/job.hh) and
// appended to JobRecord::history, and requeues run through a retry policy
// engine (RetryPolicy) instead of an immediate head-of-line push:
//
//   * retry.max_attempts (default 3) bounds the attempt budget; with
//     retry.infra_exempt, infrastructure failures (lost/evicted workers,
//     gang partners, launch timeouts) are charged to a separate
//     retry.max_infra_failures budget (default 64) instead;
//   * failed attempts requeue after exponential backoff —
//     retry.backoff_base (250ms) * retry.backoff_factor (2.0)^(failures-1),
//     capped at retry.backoff_max (30s), stretched by up to
//     retry.backoff_jitter (0.25) of itself from a deterministic rng seeded
//     with retry.jitter_seed — so a poison job cannot hot-loop and
//     same-seed runs reproduce identical schedules;
//   * a job whose *own* failures exhaust the budget is quarantined
//     (JobStatus::kQuarantined) rather than merely failed;
//   * JobSpec::retry overrides the service-wide policy per job;
//   * mpi_launch_timeout bounds the gang wiring phase (proxy dial-back +
//     PMI init), failing fast with kLaunchTimeout;
//   * queued jobs wider than the machine can ever again supply settle as
//     kServiceAbort instead of letting wait_all hang;
//   * blacklist_probation paroles blacklisted nodes after a cooldown with
//     their eviction count halved.
//
// Extensions beyond the paper's evaluated system, each behind a Config
// switch and exercised by the ablation benches (paper §7 future work):
// priority+backfill scheduling and network-aware worker grouping.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <deque>
#include <limits>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "core/job.hh"
#include "core/staging.hh"
#include "core/table.hh"
#include "core/worker.hh"
#include "net/rpc.hh"
#include "net/socket.hh"
#include "obs/metrics.hh"
#include "obs/span.hh"
#include "os/machine.hh"
#include "os/program.hh"
#include "pmi/hydra.hh"
#include "sim/random.hh"
#include "sim/sync.hh"
#include "sim/task.hh"

namespace jets::core {

struct Snapshot;  // core/snapshot.hh

/// Queue discipline for picking the next job to place.
enum class SchedPolicy {
  kFifo,              // paper default: strict head-of-line
  kPriorityBackfill,  // §7: priority order, skip jobs that don't fit yet
};

class Service {
 public:
  struct Config {
    /// Central scheduler cost per task/proxy message dispatched. This
    /// serializes in the dispatch loop and is the throughput cap of
    /// Figs 6/9 (calibrated in bench/README notes).
    sim::Duration dispatch_overhead = sim::microseconds(120);
    /// Additional serialized cost per *MPI job* placement: forking and
    /// wiring up the background mpiexec on the submit host (§5).
    sim::Duration mpi_job_overhead = sim::milliseconds(5);
    /// Forwarded to each job's MpiexecSpec (see pmi/hydra.hh).
    sim::Duration proxy_setup_cost = sim::microseconds(500);
    /// Default retry policy (attempt budgets + backoff); JobSpec::retry
    /// overrides it per job. See core/job.hh.
    RetryPolicy retry;
    /// Launch-phase deadline forwarded to each MPI job's MpiexecSpec: the
    /// gang must finish wiring (proxy dial-back + PMI init) within this
    /// long or the attempt fails fast with kLaunchTimeout. 0 disables.
    sim::Duration mpi_launch_timeout = 0;
    SchedPolicy policy = SchedPolicy::kFifo;
    /// §7: group MPI jobs onto workers with nearby node ids (torus
    /// locality) instead of first-come-first-served. For jobs naming
    /// stage_files, the window holding the most resident input bytes wins;
    /// ties (a cold cache) keep the min-span pick.
    bool network_aware_grouping = false;
    /// Content-addressed staging of JobSpec::stage_files: each distinct
    /// blob reaches a node at most once (later jobs are satisfied from
    /// warm cache with a zero-byte "staged" ack), and cold copies prefer a
    /// cheap peer node that already holds the digest over a service push.
    /// Off = the naive pre-CAS behavior: every job re-pushes every input
    /// to every one of its nodes (the scn_staging cold baseline).
    bool staging_cache = true;
    /// Liveness deadline for *busy* workers: a worker that has been silent
    /// this long after being handed work is disregarded — removed from the
    /// pools, its job attempt failed so it retries elsewhere (§5 feature 3:
    /// "disregards workers that fail or hang"). Catches hung pilots whose
    /// socket stays open, which EOF detection alone cannot. Pair with
    /// WorkerConfig::heartbeat_interval (< this) so long-running tasks are
    /// not mistaken for hangs. 0 disables.
    sim::Duration worker_liveness_timeout = 0;
    /// After this many evictions from the same node, refuse that node's
    /// workers entirely (registration and re-enlistment) — a crude
    /// bad-node blacklist. 0 disables (evicted workers may re-enlist by
    /// sending "ready" again, e.g. after a stall drains).
    int blacklist_after = 0;
    /// Probation window for blacklisted nodes: after this long banned, a
    /// node may re-enlist with its eviction count halved (so a repeat
    /// offender is re-banned quickly). 0 = the ban is permanent.
    sim::Duration blacklist_probation = 0;
    /// Grace period after a restore-from-snapshot during which checkpointed
    /// workers are carried as "ghosts": they count toward capacity and hold
    /// their slots for heartbeat reconciliation (a surviving pilot that
    /// redials and re-registers reclaims its identity). Ghosts still absent
    /// when the grace expires are dropped and their running jobs requeued
    /// with kServiceRestart.
    sim::Duration restore_grace = sim::seconds(10);
    /// Metrics sink. The service registers its instruments here (dotted
    /// "jets.service.*" names, see DESIGN.md §8) so harnesses can snapshot
    /// one registry across components. nullptr = the service owns a
    /// private registry.
    obs::MetricsRegistry* metrics = nullptr;
  };

  /// Observation hooks for benchmark harnesses.
  struct Hooks {
    std::function<void(const JobRecord&)> on_job_start;
    std::function<void(const JobRecord&)> on_job_finish;
  };

  Service(os::Machine& machine, const os::AppRegistry& apps, os::NodeId host,
          Config config);
  Service(os::Machine& machine, const os::AppRegistry& apps, os::NodeId host);
  /// Recovery constructor: builds a fresh service whose scheduler state is
  /// restored from `snap` (see core/snapshot.hh). Call start() afterwards —
  /// it rebinds the *checkpointed* listen address so surviving pilots can
  /// redial it. Throws SnapshotError if the snapshot is malformed.
  Service(os::Machine& machine, const os::AppRegistry& apps, os::NodeId host,
          Config config, const Snapshot& snap);
  ~Service();
  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;

  /// Binds the listen port and starts the accept + dispatch actors.
  void start();

  net::Address address() const { return addr_; }
  const Config& config() const { return config_; }
  Hooks& hooks() { return hooks_; }

  /// Enqueues a job; returns its id. Jobs may be submitted at any time,
  /// including while earlier jobs run (dynamic workloads).
  JobId submit(JobSpec spec);
  std::vector<JobId> submit_batch(const std::vector<JobSpec>& specs);

  /// Completes once every job submitted so far has finished or failed.
  sim::Task<void> wait_all();

  /// Completes when one specific job settles (Done or Failed). Used by the
  /// Coasters bridge, whose Swift app calls block on individual jobs.
  sim::Task<void> wait_job(JobId id);

  /// Coasters data channel (§4.1): pushes `path` (which must exist on the
  /// shared filesystem) to every *currently connected* worker's node-local
  /// storage over the worker sockets, and completes when all have
  /// acknowledged. Removes the need for a separate transfer mechanism;
  /// workers that join later are unaffected.
  sim::Task<void> stage_to_workers(const std::string& path);

  const JobRecord& record(JobId id) const { return jobs_.at(id).rec; }
  std::vector<JobRecord> records() const;

  /// Serializes the full scheduler state — job table with retry budgets and
  /// attempt history, worker table, pending-queue order, blacklist state,
  /// service-owned timer deadlines, the retry rng stream, counters, and the
  /// obs span journal — into a versioned Snapshot (core/snapshot.hh).
  /// Pure: takes no locks (single-threaded), schedules no events, draws no
  /// randomness, mutates nothing, so checkpointing cannot perturb the run.
  Snapshot checkpoint() const;

  /// The metrics registry this service reports to: Config::metrics when
  /// set, otherwise a private one. It is the only view of the service's
  /// counters: read them by their "jets.service.*" names (DESIGN.md §8).
  obs::MetricsRegistry& metrics() { return *metrics_; }
  const obs::MetricsRegistry& metrics() const { return *metrics_; }

  // Live levels (sampled by harnesses for Figs 10/13).
  std::size_t connected_workers() const { return connected_; }
  std::size_t ready_workers() const;
  std::size_t running_jobs() const { return running_; }
  std::size_t pending_jobs() const { return queue_.size(); }
  /// Delayed requeues the retry engine has scheduled.
  std::size_t retries_scheduled() const { return m_retries_scheduled_->value; }
  /// Ghost workers still awaiting reconciliation (0 once the grace ran out).
  std::size_t awaiting_workers() const { return awaiting_; }

  // --- Elastic allocations (driven by swift::BlockAllocator) -----------------
  //
  // All four calls are opt-in: a service that never sees them keeps an
  // empty elastic table, and every scheduling path below checks that
  // emptiness first — default runs stay byte-identical to the golden
  // manifest.

  /// Tags every worker on `node` with its pilot block's walltime horizon.
  /// The claim gate then refuses to place a job whose expected_runtime
  /// does not fit in the remaining walltime.
  void set_node_expiry(os::NodeId node, sim::Time expires_at);
  /// Stops placing work on `nodes` immediately; anything still running
  /// there at `deadline` is requeued with FailureReason::kWalltimeDrain
  /// (no budget charge, no blacklist strike). A deadline at or before now
  /// requeues synchronously — the preemption path relies on that to save
  /// jobs before the batch system kills the pilots.
  void drain_nodes(const std::vector<os::NodeId>& nodes, sim::Time deadline);
  /// Forgets elastic state for released nodes (a later block may reuse
  /// their ids with a fresh horizon).
  void clear_node_elastic(const std::vector<os::NodeId>& nodes);
  /// Floor for potential_capacity(): the allocator's pool ceiling. Keeps
  /// reap_unsatisfiable from aborting wide queued jobs during a scale-in,
  /// when the pool is momentarily small but can grow back.
  void set_elastic_capacity(std::size_t cap) { elastic_capacity_ = cap; }

  bool node_draining(os::NodeId node) const;

  /// Test hook: the ready pool holds no duplicates and only workers that
  /// are connected, idle, and not evicted.
  bool ready_pool_consistent() const;

  // Table/slab observability (scale tests bound these; the invariant is
  // physical footprint = O(live entities), not O(events processed)).
  /// Worker slots ever allocated at once (SlotMap slab high-water).
  std::size_t worker_slab_high_water() const {
    return workers_.slab_high_water();
  }
  /// Pending-queue entries including stale lazy-deletion copies; the
  /// compaction policy bounds this by 2 * live + O(1).
  std::size_t queue_physical_size() const { return queue_.physical_size(); }
  /// Ready-pool FIFO entries including stale copies; same bound.
  std::size_t ready_physical_size() const { return ready_.physical_size(); }

 private:
  using WorkerId = std::uint64_t;

  /// Lets the differential property suite drive PendingQueue/ReadyPool
  /// directly against naive reference models (tests only).
  friend struct ServiceTestAccess;

  /// Pending-job backlog with O(1)-amortized membership changes at any
  /// scale. Queue entries carry the job's (immutable) width and priority as
  /// a struct-of-arrays sidecar, so dispatch scans never touch the job
  /// table. Removal is lazy, the same way the engine's event heap retires
  /// cancelled events: erase() retires the job's *ticket* (stored in a
  /// dense per-JobId vector), stale entries are dropped when they surface
  /// at a scan front, and wholesale compaction runs once stale copies
  /// outnumber live ones — so a requeue/deadline/backfill-heavy workload
  /// never pays O(n) per settle the way std::erase on the deque did.
  /// Tickets are globally monotone: a job requeued after a retry gets a
  /// fresh ticket, so its old entry reads stale (no ABA).
  class PendingQueue {
   public:
    struct Entry {
      JobId id = 0;
      std::uint64_t ticket = 0;
      std::uint32_t width = 0;  // JobSpec::workers_needed(), cached
      int priority = 0;
    };

    /// The priority-bucket mirror is only paid for when the backfill
    /// policy will actually scan it. Must be set before first use.
    void set_buckets(bool on) { use_buckets_ = on; }

    void push_back(JobId id, int priority, std::uint32_t width) {
      const std::uint64_t t = ++next_ticket_;
      ticket_slot(id) = t;
      ++live_;
      fifo_.push_back(Entry{id, t, width, priority});
      if (use_buckets_) {
        buckets_[priority].push_back(Entry{id, t, width, priority});
        ++bucket_entries_;
      }
    }
    void erase(JobId id) {
      if (id == 0 || id > tickets_.size()) return;
      std::uint64_t& t = tickets_[id - 1];
      if (t == 0) return;  // not queued (e.g. backing off): no-op as before
      t = 0;
      --live_;
      maybe_compact();
    }
    /// Head of the live FIFO; requires !empty().
    JobId front() {
      drop_stale_front();
      return fifo_.front().id;
    }
    /// Cached width of the live head; requires !empty().
    std::uint32_t front_width() {
      drop_stale_front();
      return fifo_.front().width;
    }
    void pop_front() {
      drop_stale_front();
      tickets_[fifo_.front().id - 1] = 0;
      fifo_.pop_front();
      --live_;
    }
    bool empty() const { return live_ == 0; }
    std::size_t size() const { return live_; }
    std::size_t physical_size() const { return fifo_.size(); }
    /// Visits live jobs in submission order (reaping and consistency
    /// walks); stale entries are skipped in place.
    template <typename Fn>
    void for_each(Fn&& fn) const {
      for (const Entry& e : fifo_) {
        if (is_live(e)) fn(e.id, e.width);
      }
    }

    /// First job in (priority desc, FIFO-within-priority) order whose
    /// cached width `fits`; removed from the queue when found. `fits` may
    /// take (width) or (id, width) — the elastic claim gate needs the id
    /// to look up the job's expected runtime.
    template <typename Fits>
    std::optional<JobId> pop_first_fit(Fits&& fits) {
      const auto accepts = [&fits](const Entry& e) {
        if constexpr (std::is_invocable_v<Fits&, JobId, std::uint32_t>) {
          return static_cast<bool>(fits(e.id, e.width));
        } else {
          return static_cast<bool>(fits(e.width));
        }
      };
      for (auto bit = buckets_.begin(); bit != buckets_.end();) {
        std::deque<Entry>& bucket = bit->second;
        // Retired entries at the bucket front are free to drop.
        while (!bucket.empty() && !is_live(bucket.front())) {
          bucket.pop_front();
          --bucket_entries_;
        }
        for (const Entry& e : bucket) {
          if (!is_live(e)) continue;
          if (accepts(e)) {
            const JobId id = e.id;
            tickets_[id - 1] = 0;  // entry (and its fifo copy) now stale
            --live_;
            maybe_compact();
            return id;
          }
        }
        if (bucket.empty()) {
          bit = buckets_.erase(bit);
        } else {
          ++bit;
        }
      }
      return std::nullopt;
    }

   private:
    bool is_live(const Entry& e) const {
      return tickets_[e.id - 1] == e.ticket;
    }
    std::uint64_t& ticket_slot(JobId id) {
      if (id > tickets_.size()) tickets_.resize(static_cast<std::size_t>(id));
      return tickets_[id - 1];
    }
    void drop_stale_front() {
      while (!fifo_.empty() && !is_live(fifo_.front())) fifo_.pop_front();
    }
    /// Rebuilds the deques (preserving live order) once stale copies
    /// dominate; amortized O(1) against the erases that created them.
    void maybe_compact() {
      if (fifo_.size() > 2 * live_ + 64) {
        std::deque<Entry> keep;
        for (const Entry& e : fifo_) {
          if (is_live(e)) keep.push_back(e);
        }
        fifo_.swap(keep);
      }
      if (use_buckets_ && bucket_entries_ > 2 * live_ + 64) {
        bucket_entries_ = 0;
        for (auto bit = buckets_.begin(); bit != buckets_.end();) {
          std::deque<Entry> keep;
          for (const Entry& e : bit->second) {
            if (is_live(e)) keep.push_back(e);
          }
          bit->second.swap(keep);
          bucket_entries_ += bit->second.size();
          bit = bit->second.empty() ? buckets_.erase(bit) : std::next(bit);
        }
      }
    }

    bool use_buckets_ = false;
    std::uint64_t next_ticket_ = 0;
    std::size_t live_ = 0;
    std::size_t bucket_entries_ = 0;
    std::deque<Entry> fifo_;
    std::map<int, std::deque<Entry>, std::greater<int>> buckets_;
    /// Dense per-JobId live ticket (0 = not queued), indexed by id-1.
    std::vector<std::uint64_t> tickets_;
  };

  /// Ready-worker pool. FCFS claims pop the FIFO deque; removal anywhere
  /// else is lazy-deletion on a per-worker-slot ticket (workers re-enter
  /// the pool after every job, so tickets — not ids — are what keeps a
  /// stale entry from aliasing the worker's next enlistment). When
  /// network-aware grouping is on, a mirror of the pool sorted by
  /// (node, arrival) is maintained eagerly as before so each MPI placement
  /// stays one sliding-window span scan.
  class ReadyPool {
   public:
    struct Entry {
      os::NodeId node = 0;
      std::uint64_t arrival = 0;
      WorkerId wid = 0;
      auto operator<=>(const Entry&) const = default;
    };

    /// Must be set before any worker enters the pool.
    void set_indexed(bool on) { indexed_ = on; }

    void push_back(WorkerId wid, os::NodeId node) {
      const std::uint64_t t = ++next_ticket_;
      ticket_slot(wid) = t;
      ++live_;
      fifo_.push_back(FifoEntry{wid, t});
      if (indexed_) {
        const Entry e{node, arrivals_++, wid};
        by_node_.insert(std::upper_bound(by_node_.begin(), by_node_.end(), e),
                        e);
      }
    }
    void erase(WorkerId wid, os::NodeId node) {
      const std::uint32_t slot = slot_of(wid);
      if (slot >= tickets_.size() || tickets_[slot] == 0) return;  // not pooled
      tickets_[slot] = 0;
      --live_;
      maybe_compact();
      if (indexed_) index_erase(wid, node);
    }
    /// Live head of the FIFO; requires !empty().
    WorkerId front() {
      drop_stale_front();
      return fifo_.front().wid;
    }
    void erase_front(os::NodeId node) {
      drop_stale_front();
      const WorkerId wid = fifo_.front().wid;
      tickets_[slot_of(wid)] = 0;
      fifo_.pop_front();
      --live_;
      if (indexed_) index_erase(wid, node);
    }
    bool empty() const { return live_ == 0; }
    std::size_t size() const { return live_; }
    std::size_t physical_size() const { return fifo_.size(); }
    /// Live FIFO view for the consistency test hook (cold path).
    std::vector<WorkerId> live_fifo() const {
      std::vector<WorkerId> out;
      out.reserve(live_);
      for (const FifoEntry& e : fifo_) {
        if (is_live(e)) out.push_back(e.wid);
      }
      return out;
    }
    const std::vector<Entry>& index() const { return by_node_; }

    /// Claims the `count` workers whose sorted window has the smallest
    /// node-id span (ties keep the earliest window); removes them from the
    /// pool and returns them in (node, arrival) order. Requires
    /// count <= size() and the index to be enabled.
    std::vector<WorkerId> claim_min_span(std::size_t count) {
      return claim_best(count, [](const Entry*, std::size_t) {
        return std::uint64_t{0};
      });
    }

    /// Data-aware variant: `score(window, count)` rates each window (the
    /// resident input bytes of the job being placed); the highest-scoring
    /// window wins, ties fall back to smallest span then earliest window.
    /// With an all-zero scorer this is *exactly* claim_min_span — the
    /// determinism contract the golden-manifest gate enforces for
    /// cold-cache runs.
    template <typename Score>
    std::vector<WorkerId> claim_best(std::size_t count, Score&& score) {
      std::size_t best = 0;
      os::NodeId best_span = std::numeric_limits<os::NodeId>::max();
      std::uint64_t best_bytes = 0;
      for (std::size_t i = 0; i + count <= by_node_.size(); ++i) {
        const os::NodeId span = by_node_[i + count - 1].node - by_node_[i].node;
        const std::uint64_t bytes = score(&by_node_[i], count);
        if (bytes > best_bytes || (bytes == best_bytes && span < best_span)) {
          best_bytes = bytes;
          best_span = span;
          best = i;
        }
      }
      std::vector<WorkerId> claimed;
      claimed.reserve(count);
      for (std::size_t k = best; k < best + count; ++k) {
        claimed.push_back(by_node_[k].wid);
      }
      by_node_.erase(by_node_.begin() + static_cast<std::ptrdiff_t>(best),
                     by_node_.begin() + static_cast<std::ptrdiff_t>(best + count));
      for (WorkerId wid : claimed) {
        tickets_[slot_of(wid)] = 0;  // fifo copy goes stale
        --live_;
      }
      maybe_compact();
      return claimed;
    }

   private:
    struct FifoEntry {
      WorkerId wid = 0;
      std::uint64_t ticket = 0;
    };

    static constexpr std::uint32_t slot_of(WorkerId wid) {
      return static_cast<std::uint32_t>(wid & 0xffffffffu);
    }
    bool is_live(const FifoEntry& e) const {
      const std::uint32_t slot = slot_of(e.wid);
      return slot < tickets_.size() && tickets_[slot] == e.ticket;
    }
    std::uint64_t& ticket_slot(WorkerId wid) {
      const std::uint32_t slot = slot_of(wid);
      if (slot >= tickets_.size()) tickets_.resize(slot + 1);
      return tickets_[slot];
    }
    void drop_stale_front() {
      while (!fifo_.empty() && !is_live(fifo_.front())) fifo_.pop_front();
    }
    void maybe_compact() {
      if (fifo_.size() <= 2 * live_ + 64) return;
      std::deque<FifoEntry> keep;
      for (const FifoEntry& e : fifo_) {
        if (is_live(e)) keep.push_back(e);
      }
      fifo_.swap(keep);
    }

    void index_erase(WorkerId wid, os::NodeId node) {
      auto it = std::lower_bound(by_node_.begin(), by_node_.end(),
                                 Entry{node, 0, 0});
      for (; it != by_node_.end() && it->node == node; ++it) {
        if (it->wid == wid) {
          by_node_.erase(it);
          return;
        }
      }
    }

    bool indexed_ = false;
    std::uint64_t arrivals_ = 0;
    std::uint64_t next_ticket_ = 0;
    std::size_t live_ = 0;
    std::deque<FifoEntry> fifo_;
    std::vector<Entry> by_node_;  // sorted by (node, arrival)
    /// Dense per-worker-slot live ticket (0 = not in the pool), indexed by
    /// the SlotMap slot of the worker's handle.
    std::vector<std::uint64_t> tickets_;
  };

  struct Worker {
    WorkerId id = 0;
    /// Registration order (1, 2, 3, ...): handles recycle worker slots, so
    /// paths that must visit workers in registration order (stage fan-out)
    /// sort by this instead of by id.
    std::uint64_t seq = 0;
    os::NodeId node = 0;
    net::SocketPtr sock;
    bool connected = false;
    bool busy = false;
    /// Disregarded for liveness (socket may still be open). An evicted
    /// worker that sends "ready" again is re-enlisted unless blacklisted.
    bool evicted = false;
    JobId job = 0;  // 0 = none
    std::string task_id;  // task currently assigned to this worker
    /// Last time any message arrived from this worker.
    sim::Time last_heard = 0;
    /// Armed while busy when worker_liveness_timeout > 0.
    sim::TimerHandle liveness_timer;
    /// Ghost state after a restore: the worker existed in the checkpoint
    /// but has not yet redialed the restored service. It keeps its slot and
    /// capacity until reconciliation or the restore-grace reaper.
    bool awaiting = false;
    /// Armed at a ban's parole date (previously untracked — a service
    /// destroyed mid-run would leave it firing into freed memory).
    sim::TimerHandle reoffer_timer;
    /// The connection's RPC channel, owned by its worker_handler frame
    /// (valid exactly while that frame is alive; the handler nulls it in
    /// its EOF block before the slot is recycled). Run dispatches and
    /// stage-ins are issued as calls on it; on EOF or liveness eviction
    /// the channel's pending calls are failed with kPeerClosed/kCancelled,
    /// which replaces the old pending_stages write-off list.
    net::rpc::Channel* rpc = nullptr;
  };

  struct Job {
    JobRecord rec;
    /// Shared with the job-waiter actor: the waiter resumes *inside*
    /// Mpiexec::wait() when the job settles, so the object must outlive
    /// that resumption even though the service has already let go.
    std::shared_ptr<pmi::Mpiexec> mpx;
    std::vector<WorkerId> assigned;
    std::string task_id;  // sequential jobs: the outstanding task id
    sim::TimerHandle timeout;
    bool deadline_passed = false;
    /// Armed between a failed attempt and its delayed requeue; while it is
    /// pending the job is kPending but *not* in queue_.
    sim::TimerHandle retry_timer;
    bool in_backoff = false;
    std::unique_ptr<sim::Gate> settled;  // created lazily by wait_job
    /// Open spans of this job's lifecycle (0 = not traced / not open).
    /// span_job covers submit->settle; the others are phases within it —
    /// see DESIGN.md §8 for the span tree.
    obs::SpanId span_job = 0;      // "job"
    obs::SpanId span_queued = 0;   // "job.queued" (also re-queue waits)
    obs::SpanId span_backoff = 0;  // "job.backoff" (retry engine delay)
    obs::SpanId span_attempt = 0;  // "job.attempt" (placement->settle)
    obs::SpanId span_group = 0;    // "job.group" (claim + dispatch fan-out)
    obs::SpanId span_stage = 0;    // "job.stage" (input staging fan-out)
    obs::SpanId span_run = 0;      // "job.run" (work handed over->outcome)
    /// Restored in kRunning state with its attempt's workers intact; if the
    /// attempt later succeeds it counts in restore.jobs_rescued.
    bool restored_running = false;
  };

  /// Per-node elastic-allocation state (see set_node_expiry/drain_nodes).
  /// The table is empty unless an allocator drives the elastic API, and
  /// every consumer checks that first — the golden-manifest benches never
  /// touch this code.
  struct NodeElastic {
    /// Pilot-block walltime horizon; -1 = none known.
    sim::Time expires_at = -1;
    bool draining = false;
    /// When still-running jobs get requeued (kWalltimeDrain); -1 = n/a.
    sim::Time drain_at = -1;
    sim::TimerHandle drain_timer;
  };

  /// Per-node eviction/blacklist bookkeeping (see Config::blacklist_after
  /// and Config::blacklist_probation).
  struct NodeHealth {
    int evictions = 0;
    bool banned = false;
    /// Parole time; -1 = permanent (blacklist_probation == 0).
    sim::Time banned_until = -1;
  };

  /// Binds metrics_/m_* to Config::metrics or a private registry.
  void init_metrics();
  /// Restore path (defined in snapshot.cc with the codec): rebuilds every
  /// table, queue, counter, and timer from a parsed snapshot. Only the
  /// recovery constructor calls it, on a freshly constructed service.
  void apply_snapshot(const Snapshot& snap);
  /// Fires once restore_grace after a restore: drops ghost workers that
  /// never redialed, requeueing their jobs with kServiceRestart.
  void reconcile_ghosts();
  /// Adopts a redialing pilot into a ghost slot (heartbeat reconciliation).
  /// `inventory` is the task ids the pilot still has in flight; returns the
  /// adopted worker's id, or 0 if no ghost matches (register as new).
  WorkerId adopt_ghost(os::NodeId node, net::SocketPtr sock,
                       const std::vector<std::string>& inventory);
  /// The machine's tracer, or nullptr when tracing is off.
  obs::Tracer* tracer() const;
  /// Closes any span of `job` that is still open (settle paths).
  void close_job_spans(Job& job);

  sim::Task<void> accept_loop();
  sim::Task<void> worker_handler(net::SocketPtr sock);
  sim::Task<void> dispatch_loop();
  void kick() { kick_ch_->push(0); }

  /// Picks the next dispatchable job per policy, or nullopt.
  std::optional<JobId> choose_job();
  /// Selects and claims `count` ready workers (FCFS or network-aware; when
  /// `spec` names stage_files, the window maximizing resident input bytes
  /// wins, ties keep the min-span pick).
  std::vector<WorkerId> claim_workers(std::size_t count, const JobSpec& spec);
  sim::Task<void> place_job(JobId id);
  void job_finished(JobId id, int status, FailureReason reason);
  void deadline_expired(JobId id);
  void check_all_done();

  /// Retry policy engine.
  const RetryPolicy& policy_for(const Job& job) const {
    return job.rec.spec.retry ? *job.rec.spec.retry : config_.retry;
  }
  /// Backoff before retry number `failures` (1-based), jitter included.
  sim::Duration backoff_delay(const RetryPolicy& pol, int failures);
  /// Fires when a backoff timer expires: requeues (or fails, if the
  /// machine shrank below the job's width meanwhile).
  void requeue_job(JobId id);
  /// Terminal-state bookkeeping shared by every settle site.
  void settle_job(Job& job, JobStatus status, FailureReason reason);
  /// kWorkerLost for one-worker jobs, kGangPartnerLost for gangs.
  FailureReason worker_lost_reason(const Job& job) const;
  /// Maps a failed mpiexec run onto the taxonomy.
  FailureReason classify_mpi_failure(const Job& job,
                                     const pmi::Mpiexec& mpx) const;

  /// Graceful degradation: workers that could still serve jobs (connected,
  /// or evicted but able to re-enlist).
  std::size_t potential_capacity() const;
  /// Fails queued/backing-off jobs that were once satisfiable but whose
  /// width now exceeds potential_capacity() forever (kServiceAbort).
  void reap_unsatisfiable();

  /// Elastic machinery: walltime-aware claim gate + drain requeues.
  /// A worker may take `spec` iff its node is not draining and the block's
  /// remaining walltime covers the job's expected runtime.
  bool worker_eligible(const Worker& w, const JobSpec& spec) const;
  std::size_t count_eligible(const JobSpec& spec) const;
  /// FCFS among eligible workers (elastic mode trades the O(1) pop for an
  /// O(ready) scan; elastic pools are far from the 10^6-worker hot path).
  std::vector<WorkerId> claim_eligible(std::size_t count, const JobSpec& spec);
  /// Fires at a node's drain deadline: requeues anything still running
  /// there with kWalltimeDrain before the pilots die.
  void drain_deadline(os::NodeId node);

  /// Liveness machinery (§5 feature 3 taken beyond EOF detection).
  void liveness_check(WorkerId wid);
  void evict_worker(WorkerId wid);
  /// Ban check without side effects (used by const paths).
  bool node_banned(os::NodeId node) const;
  /// Ban check that applies lazy parole when probation has expired.
  bool node_blacklisted(os::NodeId node);
  /// Fires at a ban's parole date: re-enlists a still-connected evicted
  /// worker whose "ready" was refused during probation (it waits silently,
  /// so nothing else would re-offer it).
  void reoffer_worker(WorkerId wid);
  /// Returns claimed-but-never-dispatched workers to the ready pool when a
  /// job settles mid-placement (otherwise they would leak as busy).
  void release_undispatched(const std::vector<WorkerId>& claimed,
                            std::size_t from_idx);

  // --- Input staging (CAS replication planner; see DESIGN.md §11) ---
  /// Digest + size of a shared-fs path, interned on first sight so every
  /// job naming the same path agrees on the blob identity.
  std::pair<StageDigest, std::uint64_t> blob_for(const std::string& path);
  /// Stages spec.stage_files onto the claimed workers' nodes: warm cache
  /// -> zero-byte ack, in-flight (node, digest) -> coalesce on the slot
  /// gate, otherwise plan push vs peer copy and send the 4-arg header.
  /// Awaits every ack (or write-off). Callers must re-check job state
  /// after the co_await, exactly like the dispatch fan-out.
  sim::Task<void> stage_job_inputs(JobId id, int attempt,
                                   const std::vector<WorkerId>& claimed);
  /// Unmatched "staged" ack bookkeeping (acks whose StageReq call was
  /// already written off, or acks from never-registered sockets): commits
  /// residency for tracked workers; decrements the slot count only for
  /// untracked ones (a tracked worker's decrement is owned by its call).
  void handle_staged_ack(WorkerId wid, const net::rpc::StageAck& ack);
  /// Completion of one StageReq call: on success commits residency and
  /// applies the ack's eviction reports; on error (peer closed, evicted)
  /// writes the in-flight transfer off so a later job re-stages. Either
  /// way decrements the slot's remaining count, opening the gate at zero.
  void stage_call_settled(
      os::NodeId node, StageDigest digest,
      net::rpc::Expected<net::rpc::StageAck, net::rpc::RpcError> r);
  /// A sequential task's "done" for job `id`: the run call's reply, or a
  /// restored ghost's. Settles the attempt only if `done` names the task
  /// the job is running now (a reply for a settled or retried attempt is
  /// dropped).
  void on_task_done(JobId id, const net::rpc::TaskDone& done);

  os::Machine* machine_;
  const os::AppRegistry* apps_;
  os::NodeId host_;
  Config config_;
  Hooks hooks_;

  net::Address addr_{};
  std::unique_ptr<net::Listener> listener_;
  std::vector<sim::ActorId> actors_;  // accept, dispatch, handlers, waiters
  std::unique_ptr<sim::Channel<int>> kick_ch_;
  std::unique_ptr<sim::Gate> all_done_;
  bool started_ = false;

  std::uint64_t next_worker_seq_ = 1;
  std::uint64_t next_task_ = 1;
  /// Jobs are append-only (records outlive settles) and JobIds are handed
  /// out densely, so the table *is* the id space; workers recycle slots at
  /// EOF behind generation-checked handles. See core/table.hh.
  DenseTable<Job> jobs_;
  sim::SlotMap<Worker> workers_;
  /// Tasks of restored ghost jobs (snapshot restore writes it; nothing
  /// else does). Their dones arrive with no run call pending in this
  /// service; a live dispatch's reply carries its JobId in the call
  /// instead. Lookup-only (never iterated), so deterministic.
  std::unordered_map<std::string, JobId> task_to_job_;
  PendingQueue queue_;
  ReadyPool ready_;
  /// In-flight stage-ins, digest-keyed (satellite S2 — replaces the old
  /// path-keyed std::map<std::string, StageOp>).
  StageTable staging_;
  /// Which digests are warm/in-flight per node; feeds the replication
  /// planner (peer candidates) and the data-aware window score.
  ResidencyTable residency_;
  /// path -> (digest, bytes), interned by blob_for. Ordered so snapshot
  /// serialization walks it deterministically.
  std::map<std::string, std::pair<StageDigest, std::uint64_t>> blob_info_;
  std::map<os::NodeId, NodeHealth> node_health_;
  /// Ordered so the checkpoint codec and drain sweeps walk it
  /// deterministically. Empty on every non-elastic run.
  std::map<os::NodeId, NodeElastic> node_elastic_;
  /// Capacity floor while an elastic allocator is attached (0 = none).
  std::size_t elastic_capacity_ = 0;
  sim::Rng retry_rng_;
  std::size_t connected_ = 0;
  /// Workers currently disregarded but able to re-enlist; keeps
  /// potential_capacity() O(1) when blacklisting is off (the hot default),
  /// since reap_unsatisfiable runs on every EOF/eviction.
  std::size_t evicted_live_ = 0;
  /// Most workers ever simultaneously connected — a job whose width once
  /// fit under this was satisfiable at some point (see reap_unsatisfiable).
  std::size_t peak_capacity_ = 0;
  std::size_t running_ = 0;
  /// Jobs waiting out a retry backoff (kPending but not in queue_).
  std::size_t backing_off_ = 0;
  /// Ghost workers from a restore still awaiting reconciliation. The
  /// registration path only looks for ghosts while this is nonzero, so the
  /// normal (never-restored) path pays nothing.
  std::size_t awaiting_ = 0;
  /// Armed by apply_snapshot when ghosts exist; fires reconcile_ghosts.
  sim::TimerHandle reconcile_timer_;

  /// Instruments cached out of the registry at construction (stable
  /// addresses): one pointer-indirect add per event, no name lookups on
  /// the hot path. The registry (metrics_) holds the authoritative values.
  std::unique_ptr<obs::MetricsRegistry> owned_metrics_;
  obs::MetricsRegistry* metrics_ = nullptr;
  obs::Counter* m_completed_ = nullptr;
  obs::Counter* m_failed_ = nullptr;
  obs::Counter* m_quarantined_ = nullptr;
  obs::Counter* m_evicted_ = nullptr;
  obs::Counter* m_reenlisted_ = nullptr;
  obs::Counter* m_heartbeats_ = nullptr;
  obs::Counter* m_blacklist_rejections_ = nullptr;
  obs::Counter* m_blacklist_paroles_ = nullptr;
  obs::Counter* m_retries_scheduled_ = nullptr;
  obs::Counter* m_restores_ = nullptr;
  obs::Counter* m_reconciled_ = nullptr;
  obs::Counter* m_rescued_ = nullptr;
  obs::Counter* m_ghosts_dropped_ = nullptr;
  obs::Counter* m_stage_requests_ = nullptr;
  obs::Counter* m_stage_pushes_ = nullptr;
  obs::Counter* m_stage_peer_copies_ = nullptr;
  obs::Counter* m_stage_warm_hits_ = nullptr;
  obs::Counter* m_stage_coalesced_ = nullptr;
  obs::Counter* m_stage_acks_lost_ = nullptr;
  obs::Counter* m_stage_evictions_ = nullptr;
  obs::Counter* m_stage_bytes_pushed_ = nullptr;
  obs::Counter* m_stage_bytes_saved_ = nullptr;
  obs::Counter* m_drain_requeues_ = nullptr;
  obs::Counter* m_gate_refusals_ = nullptr;
  std::array<obs::Counter*, kFailureReasonCount> m_failures_{};
  /// Shared instrument block for every worker connection's rpc::Channel;
  /// its counters register through reg() below so they checkpoint too.
  net::rpc::ChannelMetrics rpc_metrics_;
  /// Every counter above by registry name, in registration order — the
  /// checkpoint codec walks this to serialize counter values and restore
  /// assigns through it, so the two sides can never drift apart.
  std::vector<std::pair<std::string, obs::Counter*>> counter_index_;
  obs::Gauge* m_workers_connected_ = nullptr;
  obs::Gauge* m_jobs_running_ = nullptr;
  obs::Histogram* m_queue_wait_ = nullptr;
  obs::Histogram* m_job_wall_ = nullptr;
};

}  // namespace jets::core
