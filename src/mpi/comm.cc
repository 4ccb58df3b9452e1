#include "mpi/comm.hh"

#include <stdexcept>

#include "net/rpc.hh"

namespace jets::mpi {

using net::rpc::parse_number;

Comm::Comm(os::Env& env, int rank, int size)
    : env_(&env), machine_(env.machine), rank_(rank), size_(size) {}

Comm::~Comm() {
  if (acceptor_ != 0) machine_->engine().kill(acceptor_);
}

sim::Task<std::unique_ptr<Comm>> Comm::init(os::Env& env) {
  if (env.pmi == nullptr) {
    throw std::logic_error("MPI_Init: process was not started by a PMI proxy");
  }
  auto comm = std::unique_ptr<Comm>(
      new Comm(env, env.pmi->rank(), env.pmi->size()));
  comm->self_addr_ =
      net::Address{env.node, env.machine->allocate_port()};
  comm->listener_ = env.machine->network().listen(comm->self_addr_);
  comm->acceptor_ =
      env.machine->engine().spawn("mpi-acceptor", comm->accept_loop());
  // Publish this rank's business card and fence.
  env.pmi->put("card." + std::to_string(comm->rank_),
               std::to_string(comm->self_addr_.node) + " " +
                   std::to_string(comm->self_addr_.port));
  co_await env.pmi->barrier();
  co_return comm;
}

double Comm::wtime() const {
  return sim::to_seconds(machine_->engine().now());
}

sim::Task<void> Comm::accept_loop() {
  for (;;) {
    net::SocketPtr sock = co_await listener_->accept();
    if (!sock) co_return;
    auto hello = co_await sock->recv();
    // A bad hello drops the connection: the dialer is no rank of ours.
    if (!hello || hello->tag != "mpi.hello" || hello->args.size() != 1) continue;
    const std::optional<int> peer = parse_number<int>(hello->args[0]);
    if (!peer || *peer < 0 || *peer >= size_) continue;
    in_[*peer] = std::move(sock);
    auto it = in_ready_.find(*peer);
    if (it != in_ready_.end()) it->second->open();
  }
}

sim::Task<net::Socket*> Comm::outbound(int dest) {
  auto it = out_.find(dest);
  if (it != out_.end()) co_return it->second.get();
  // Fetch the peer's card (blocking PMI get) and dial it.
  std::string card = co_await env_->pmi->get("card." + std::to_string(dest));
  const std::string_view text = card;  // "node port"
  const auto space = text.find(' ');
  const auto node = parse_number<os::NodeId>(text.substr(0, space));
  const auto port = parse_number<net::Port>(text.substr(space + 1));
  if (space == text.npos || !node || !port) {
    throw std::runtime_error("MPI: bad card for rank " + std::to_string(dest));
  }
  const net::Address addr{*node, *port};
  net::SocketPtr sock = co_await machine_->network().connect(env_->node, addr);
  sock->send(net::Message("mpi.hello", {std::to_string(rank_)}));
  net::Socket* raw = sock.get();
  out_[dest] = std::move(sock);
  co_return raw;
}

sim::Task<void> Comm::send(int dest, std::size_t bytes, int tag, double value) {
  net::Socket* sock = co_await outbound(dest);
  sock->send(net::Message(
      "mpi.msg",
      {std::to_string(rank_), std::to_string(tag), std::to_string(value)},
      bytes));
}

sim::Task<void> Comm::ssend(int dest, std::size_t bytes, int tag) {
  net::Socket* sock = co_await outbound(dest);
  // Built as a named local: GCC 12 miscompiles brace-initialized temporaries
  // inside co_await expressions ("array used as initializer").
  net::Message m("mpi.msg", {std::to_string(rank_), std::to_string(tag)}, bytes);
  co_await sock->send_sync(std::move(m));
}

sim::Task<RecvResult> Comm::recv(int src) {
  auto it = in_.find(src);
  if (it == in_.end()) {
    auto& gate = in_ready_[src];
    if (!gate) gate = std::make_unique<sim::Gate>(machine_->engine());
    co_await gate->wait();
    it = in_.find(src);
    if (it == in_.end()) throw std::runtime_error("MPI recv: lost peer");
  }
  auto m = co_await it->second->recv();
  if (!m) throw std::runtime_error("MPI recv: connection to rank " +
                                   std::to_string(src) + " lost");
  // "mpi.msg" [source, tag] or [source, tag, value].
  const std::vector<std::string>& a = m->args;
  const auto source = a.size() >= 2 ? parse_number<int>(a[0]) : std::nullopt;
  const auto tag = a.size() >= 2 ? parse_number<int>(a[1]) : std::nullopt;
  const auto value = a.size() == 3 ? parse_number<double>(a[2]) : 0.0;
  if (a.size() > 3 || !source || !tag || !value) {
    throw std::runtime_error("MPI recv: malformed message from rank " +
                             std::to_string(src));
  }
  co_return RecvResult{*source, *tag, m->payload_bytes, *value};
}

sim::Task<void> Comm::barrier() {
  if (size_ == 1) co_return;
  for (int k = 1; k < size_; k <<= 1) {
    const int dest = (rank_ + k) % size_;
    const int src = (rank_ - k + size_) % size_;
    co_await send(dest, 1, /*tag=*/-k);
    (void)co_await recv(src);
  }
}

namespace {
/// Reserved tag space for collective traffic (never collides with the
/// negative tags the barrier uses, which are powers of two times -1).
constexpr int kIoDataTag = -1000001;
constexpr int kIoAckTag = -1000002;
constexpr int kCollTag = -1000003;
}  // namespace

sim::Task<std::size_t> Comm::bcast(std::size_t bytes, int root) {
  if (root < 0 || root >= size_) {
    throw std::invalid_argument("bcast: root " + std::to_string(root) +
                                " out of range for size " +
                                std::to_string(size_));
  }
  if (size_ == 1) co_return bytes;
  const int vrank = (rank_ - root + size_) % size_;
  auto real = [this, root](int v) { return (v + root) % size_; };
  std::size_t payload = bytes;
  // Binomial tree: receive from the parent, then relay down the subtree.
  int mask = 1;
  while (mask < size_) {
    if (vrank & mask) {
      RecvResult r = co_await recv(real(vrank - mask));
      payload = r.bytes;
      break;
    }
    mask <<= 1;
  }
  mask >>= 1;
  while (mask > 0) {
    if (vrank + mask < size_ && (vrank & (mask - 1)) == 0 && !(vrank & mask)) {
      co_await send(real(vrank + mask), payload, kCollTag);
    }
    mask >>= 1;
  }
  co_return payload;
}

sim::Task<double> Comm::reduce_sum(double value, int root) {
  if (root < 0 || root >= size_) {
    throw std::invalid_argument("reduce_sum: root " + std::to_string(root) +
                                " out of range for size " +
                                std::to_string(size_));
  }
  if (size_ == 1) co_return value;
  const int vrank = (rank_ - root + size_) % size_;
  auto real = [this, root](int v) { return (v + root) % size_; };
  double acc = value;
  for (int mask = 1; mask < size_; mask <<= 1) {
    if (vrank & mask) {
      co_await send(real(vrank - mask), sizeof(double), kCollTag, acc);
      break;
    }
    const int partner = vrank | mask;
    if (partner < size_) {
      RecvResult r = co_await recv(real(partner));
      acc += r.value;
    }
  }
  co_return acc;
}

sim::Task<double> Comm::allreduce_sum(double value) {
  const double total = co_await reduce_sum(value, 0);
  // Broadcast the scalar back down the same binomial tree.
  if (size_ == 1) co_return total;
  double out = total;
  const int vrank = rank_;
  int mask = 1;
  while (mask < size_) {
    if (vrank & mask) {
      RecvResult r = co_await recv(vrank - mask);
      out = r.value;
      break;
    }
    mask <<= 1;
  }
  mask >>= 1;
  while (mask > 0) {
    if (vrank + mask < size_ && (vrank & (mask - 1)) == 0 && !(vrank & mask)) {
      co_await send(vrank + mask, sizeof(double), kCollTag, out);
    }
    mask >>= 1;
  }
  co_return out;
}

sim::Task<void> Comm::write_all(const std::string& path,
                                std::size_t bytes_per_rank) {
  if (size_ == 1) {
    co_await env_->machine->shared_fs().write(path, bytes_per_rank);
    co_return;
  }
  if (rank_ == 0) {
    // Two-phase aggregation: gather the payloads, then one client writes.
    std::size_t total = bytes_per_rank;
    for (int src = 1; src < size_; ++src) {
      RecvResult r = co_await recv(src);
      total += r.bytes;
    }
    co_await env_->machine->shared_fs().write(
        path, static_cast<std::uint64_t>(total));
    for (int dst = 1; dst < size_; ++dst) {
      co_await send(dst, 1, kIoAckTag);
    }
  } else {
    co_await send(0, bytes_per_rank, kIoDataTag);
    (void)co_await recv(0);  // durable ack
  }
}

sim::Task<void> Comm::write_independent(const std::string& path,
                                        std::size_t bytes_per_rank) {
  co_await env_->machine->shared_fs().write(
      path + "." + std::to_string(rank_),
      static_cast<std::uint64_t>(bytes_per_rank));
}

sim::Task<void> Comm::finalize() {
  if (finalized_) co_return;
  finalized_ = true;
  co_await env_->pmi->barrier();
  machine_->engine().kill(acceptor_);
  acceptor_ = 0;
  listener_.reset();
  out_.clear();
  in_.clear();
}

}  // namespace jets::mpi
