#include "plbhec/net/workerd.hpp"

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <optional>
#include <utility>

#include "plbhec/apps/registry.hpp"
#include "plbhec/common/contracts.hpp"
#include "plbhec/exec/thread_pool.hpp"
#include "plbhec/kdisp/registry.hpp"
#include "plbhec/obs/counters.hpp"
#include "plbhec/rt/workload.hpp"

namespace plbhec::net {
namespace {

using Clock = std::chrono::steady_clock;

/// Reader chunk: one recv's worth of inbound bytes. Small enough to live
/// on the reactor's stack, large enough that a window of AssignBlocks
/// arrives in one syscall.
constexpr std::size_t kRecvChunk = 64 * 1024;

/// Inbound buffer compaction threshold: once this many decoded bytes sit
/// in front of the parse offset, shift the tail down.
constexpr std::size_t kCompactBytes = 256 * 1024;

/// A connection's epoll interest: always readable, writable while output
/// is queued.
std::uint32_t interest(bool want_write) {
  std::uint32_t events = EPOLLIN;
  if (want_write) events |= EPOLLOUT;
  return events;
}

}  // namespace

/// One unit of executor work, in strict per-connection FIFO order.
/// BeginRun travels through the same queue as the blocks so a window of
/// stale AssignBlocks can never execute after the run that supersedes
/// them was acknowledged.
struct WorkerDaemon::Task {
  bool is_begin_run = false;
  BeginRunMsg begin;
  AssignBlockMsg block;
};

/// A finished executor task on its way back to the reactor.
struct WorkerDaemon::Done {
  std::shared_ptr<ConnState> conn;
  MsgType type = MsgType::kShutdown;
  std::vector<std::uint8_t> payload;        ///< control body (e.g. RunAck)
  std::optional<BlockResultMsg> result;     ///< block result (batchable)
};

/// Per-connection state. The socket and every buffer are reactor-owned;
/// the task queue and run context are shared with the executors under
/// exec_mutex_ (the run context is only ever touched by the single
/// executor currently serving this connection, so the mutex provides
/// ordering, not exclusion, for it).
struct WorkerDaemon::ConnState {
  std::unique_ptr<TcpConn> conn;

  // Reactor-only.
  std::vector<std::uint8_t> in;  ///< undecoded inbound bytes
  std::size_t in_off = 0;        ///< decoded prefix of `in`
  std::deque<std::vector<std::uint8_t>> outq;  ///< encoded frames to ship
  std::size_t out_off = 0;       ///< sent bytes of outq.front()
  bool want_write = false;       ///< EPOLLOUT currently armed
  bool in_epoll = false;
  bool dead = false;

  // Shared with executors (exec_mutex_).
  std::deque<Task> tasks;
  bool exec_running = false;
  bool exec_dead = false;  ///< connection closed; drop queued work

  // Run context (serving-executor only; see struct comment).
  std::shared_ptr<rt::Workload> workload;
  std::uint64_t run_id = 0;
};

WorkerDaemon::WorkerDaemon(WorkerDaemonOptions options)
    : options_(std::move(options)) {
  PLBHEC_EXPECTS(options_.slowdown >= 1.0);
  slowdown_.store(options_.slowdown, std::memory_order_relaxed);
  listener_ = TcpListener::bind_loopback(options_.port);
  PLBHEC_ASSERT(listener_ != nullptr);
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  PLBHEC_ASSERT(epoll_fd_ >= 0);
  wake_fd_ = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  PLBHEC_ASSERT(wake_fd_ >= 0);

  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = listener_->native_handle();
  PLBHEC_ASSERT(
      ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, ev.data.fd, &ev) == 0);
  ev.data.fd = wake_fd_;
  PLBHEC_ASSERT(::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev) == 0);

  reactor_thread_ = std::thread([this] { reactor_loop(); });
  const std::size_t lanes = std::max<std::size_t>(1, options_.executor_threads);
  executor_threads_.reserve(lanes);
  for (std::size_t i = 0; i < lanes; ++i) {
    executor_threads_.emplace_back([this] { executor_loop(); });
  }
}

WorkerDaemon::~WorkerDaemon() { stop(); }

std::uint16_t WorkerDaemon::port() const { return listener_->port(); }

void WorkerDaemon::wake() {
  const std::uint64_t one = 1;
  [[maybe_unused]] const ssize_t n = ::write(wake_fd_, &one, sizeof(one));
}

void WorkerDaemon::kill() {
  stopping_.store(true, std::memory_order_release);
  listener_->close();
  {
    // Synchronous cut so a caller returning from kill() immediately sees
    // coordinator I/O failing, exactly like the old thread-per-connection
    // daemon; the reactor finishes the bookkeeping when it wakes.
    std::lock_guard lock(mutex_);
    for (TcpConn* conn : conns_) conn->cancel();
  }
  exec_cv_.notify_all();
  wake();
}

void WorkerDaemon::stop() {
  kill();
  if (reactor_thread_.joinable()) reactor_thread_.join();
  for (std::thread& t : executor_threads_) {
    if (t.joinable()) t.join();
  }
  executor_threads_.clear();
  if (epoll_fd_ >= 0) {
    ::close(epoll_fd_);
    epoll_fd_ = -1;
  }
  if (wake_fd_ >= 0) {
    ::close(wake_fd_);
    wake_fd_ = -1;
  }
  if (options_.counters != nullptr &&
      !counters_published_.exchange(true, std::memory_order_acq_rel)) {
    const std::string prefix = "net." + options_.name + ".";
    obs::CounterRegistry& reg = *options_.counters;
    reg.set(prefix + "reactor.wakeups", reactor_wakeups_.load());
    reg.set(prefix + "reactor.frames_in", frames_received_.load());
    reg.set(prefix + "reactor.peak_connections", peak_connections_.load());
    reg.set(prefix + "connections_accepted", connections_accepted_.load());
    reg.set(prefix + "blocks_served", blocks_served_.load());
    reg.set(prefix + "results_batched", results_batched_.load());
    // This daemon's kernel-dispatch table (host ISA probe + per-kernel
    // selections): the per-worker observable the wire protocol never
    // carries.
    kdisp::KernelRegistry::instance().publish_counters(reg);
  }
}

void WorkerDaemon::freeze() {
  frozen_.store(true, std::memory_order_release);
  wake();
}

void WorkerDaemon::unfreeze() {
  frozen_.store(false, std::memory_order_release);
  exec_cv_.notify_all();
  wake();
}

// ---- reactor -------------------------------------------------------------

void WorkerDaemon::reactor_loop() {
  constexpr int kMaxEvents = 64;
  epoll_event events[kMaxEvents];
  bool frozen_applied = false;

  while (!stopping_.load(std::memory_order_acquire)) {
    const int nready = ::epoll_wait(epoll_fd_, events, kMaxEvents, -1);
    if (nready < 0) {
      if (errno == EINTR) continue;
      break;  // epoll fd gone; shutting down
    }
    reactor_wakeups_.fetch_add(1, std::memory_order_relaxed);
    if (stopping_.load(std::memory_order_acquire)) break;

    // Drain the wake eventfd (its payload is just "look around").
    std::uint64_t drained = 0;
    while (::read(wake_fd_, &drained, sizeof(drained)) > 0) {
    }

    const bool frozen = frozen_.load(std::memory_order_acquire);
    if (frozen != frozen_applied) {
      apply_freeze(frozen);
      frozen_applied = frozen;
    }
    if (!frozen) drain_completions();

    for (int i = 0; i < nready; ++i) {
      const int fd = events[i].data.fd;
      if (fd == wake_fd_) continue;
      if (fd == listener_->native_handle()) {
        accept_ready();
        continue;
      }
      const auto it = by_fd_.find(fd);
      if (it == by_fd_.end()) continue;  // closed earlier this round
      std::shared_ptr<ConnState> state = it->second;
      if (frozen || state->dead) continue;
      if ((events[i].events & EPOLLIN) != 0) handle_readable(state);
      if (!state->dead && (events[i].events & EPOLLOUT) != 0) {
        flush_writes(state);
      }
      if (!state->dead &&
          (events[i].events & (EPOLLERR | EPOLLHUP)) != 0) {
        close_conn(state);
      }
    }
  }

  // Teardown: cut and forget every connection (executors drop queued
  // work for dead connections on their own).
  std::vector<std::shared_ptr<ConnState>> all;
  all.reserve(by_fd_.size());
  for (auto& [fd, state] : by_fd_) all.push_back(state);
  for (const auto& state : all) close_conn(state);
  // epoll_fd_/wake_fd_ stay open: kill() or an executor completion may
  // still write the eventfd until stop() has joined everything; stop()
  // closes both after the joins.
}

void WorkerDaemon::accept_ready() {
  while (true) {
    std::unique_ptr<TcpConn> conn = listener_->accept(0.0);
    if (conn == nullptr) return;
    if (stopping_.load(std::memory_order_acquire)) {
      conn->cancel();
      return;
    }
    connections_accepted_.fetch_add(1);
    register_conn(std::move(conn));
  }
}

void WorkerDaemon::register_conn(std::unique_ptr<TcpConn> conn) {
  auto state = std::make_shared<ConnState>();
  const int fd = conn->native_handle();
  state->conn = std::move(conn);
  {
    std::lock_guard lock(mutex_);
    conns_.push_back(state->conn.get());
  }
  by_fd_[fd] = state;
  std::uint64_t peak = peak_connections_.load(std::memory_order_relaxed);
  while (by_fd_.size() > peak &&
         !peak_connections_.compare_exchange_weak(peak, by_fd_.size())) {
  }
  // While frozen, the connection exists but is not watched; unfreeze
  // re-arms everything via apply_freeze(false).
  if (!frozen_.load(std::memory_order_acquire)) {
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = fd;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) == 0) {
      state->in_epoll = true;
    } else {
      close_conn(state);
    }
  }
}

void WorkerDaemon::close_conn(const std::shared_ptr<ConnState>& state) {
  if (state->dead) return;
  state->dead = true;
  const int fd = state->conn->native_handle();
  if (state->in_epoll) {
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
    state->in_epoll = false;
  }
  state->conn->cancel();
  {
    std::lock_guard lock(mutex_);
    std::erase(conns_, state->conn.get());
  }
  {
    std::lock_guard lock(exec_mutex_);
    state->exec_dead = true;
    state->tasks.clear();
  }
  by_fd_.erase(fd);
}

void WorkerDaemon::apply_freeze(bool frozen) {
  for (auto& [fd, state] : by_fd_) {
    if (frozen) {
      if (state->in_epoll) {
        ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
        state->in_epoll = false;
      }
    } else if (!state->in_epoll) {
      epoll_event ev{};
      ev.events = interest(state->want_write);
      ev.data.fd = fd;
      if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) == 0) {
        state->in_epoll = true;
      }
      // Bytes that arrived during the freeze are sitting in the kernel
      // buffer; level-triggered epoll reports them immediately.
    }
  }
  if (!frozen) exec_cv_.notify_all();
}

void WorkerDaemon::handle_readable(const std::shared_ptr<ConnState>& state) {
  while (true) {
    std::uint8_t chunk[kRecvChunk];
    const long n = state->conn->recv_nonblocking(chunk, sizeof(chunk));
    if (n > 0) {
      state->in.insert(state->in.end(), chunk, chunk + n);
      if (static_cast<std::size_t>(n) < sizeof(chunk)) break;  // drained
      continue;
    }
    if (n == 0) break;  // would block: kernel buffer empty
    close_conn(state);  // EOF or error
    return;
  }

  // Decode every complete frame in the buffer. decode_frame is a pure
  // parser: kIoError here simply means "truncated — wait for more
  // bytes"; any other failure is a poisoned stream.
  while (!state->dead) {
    const std::span<const std::uint8_t> rest(
        state->in.data() + state->in_off, state->in.size() - state->in_off);
    if (rest.empty()) break;
    Frame frame;
    std::size_t consumed = 0;
    const FrameStatus status = decode_frame(rest, &frame, &consumed);
    if (status == FrameStatus::kIoError) break;  // incomplete
    if (status != FrameStatus::kOk) {
      close_conn(state);  // framing cannot resynchronize
      return;
    }
    state->in_off += consumed;
    frames_received_.fetch_add(1, std::memory_order_relaxed);
    if (!process_frame(state, std::move(frame))) {
      close_conn(state);  // protocol violation poisons the connection
      return;
    }
  }
  if (state->dead) return;
  if (state->in_off == state->in.size()) {
    state->in.clear();
    state->in_off = 0;
  } else if (state->in_off >= kCompactBytes) {
    state->in.erase(state->in.begin(),
                    state->in.begin() +
                        static_cast<std::ptrdiff_t>(state->in_off));
    state->in_off = 0;
  }
}

bool WorkerDaemon::process_frame(const std::shared_ptr<ConnState>& state,
                                 Frame frame) {
  switch (frame.type) {
    case MsgType::kHello: {
      const auto msg = HelloMsg::decode(frame.payload);
      if (!msg) return false;
      HelloAckMsg ack;
      ack.daemon = options_.name;
      ack.concurrency = static_cast<std::uint32_t>(
          exec::ThreadPool::global().concurrency());
      enqueue_frame(state, MsgType::kHelloAck, ack.encode());
      return true;
    }
    case MsgType::kBeginRun: {
      const auto msg = BeginRunMsg::decode(frame.payload);
      if (!msg) return false;
      Task task;
      task.is_begin_run = true;
      task.begin = *msg;
      push_exec_task(state, std::move(task));
      return true;
    }
    case MsgType::kAssignBlock: {
      const auto msg = AssignBlockMsg::decode(frame.payload);
      if (!msg) return false;
      Task task;
      task.block = *msg;
      push_exec_task(state, std::move(task));
      return true;
    }
    case MsgType::kHeartbeat: {
      // Answered by the reactor itself: liveness never queues behind a
      // kernel, and a frozen daemon (interest removed) answers nothing.
      const auto msg = HeartbeatMsg::decode(frame.payload);
      if (!msg) return false;
      HeartbeatAckMsg ack;
      ack.sequence = msg->sequence;
      enqueue_frame(state, MsgType::kHeartbeatAck, ack.encode());
      return true;
    }
    case MsgType::kShutdown:
    default:
      return false;
  }
}

void WorkerDaemon::push_exec_task(const std::shared_ptr<ConnState>& state,
                                  Task task) {
  {
    std::lock_guard lock(exec_mutex_);
    if (state->exec_dead) return;
    // A new run supersedes any blocks still queued for the old one (the
    // old reader cleared its task deque at BeginRun receipt; queue
    // position equals receipt order here, so this is the same cut).
    if (task.is_begin_run) state->tasks.clear();
    state->tasks.push_back(std::move(task));
    if (!state->exec_running) {
      state->exec_running = true;
      exec_ready_.push_back(state);
    }
  }
  exec_cv_.notify_one();
}

void WorkerDaemon::enqueue_frame(const std::shared_ptr<ConnState>& state,
                                 MsgType type,
                                 std::span<const std::uint8_t> payload) {
  if (state->dead) return;
  state->outq.push_back(encode_frame(type, payload));
  flush_writes(state);
}

void WorkerDaemon::flush_writes(const std::shared_ptr<ConnState>& state) {
  while (!state->outq.empty()) {
    const std::vector<std::uint8_t>& front = state->outq.front();
    const long n = state->conn->send_nonblocking(
        front.data() + state->out_off, front.size() - state->out_off);
    if (n < 0) {
      close_conn(state);
      return;
    }
    if (n == 0) break;  // kernel send buffer full; wait for EPOLLOUT
    state->out_off += static_cast<std::size_t>(n);
    if (state->out_off == front.size()) {
      state->outq.pop_front();
      state->out_off = 0;
    }
  }
  const bool want = !state->outq.empty();
  if (want != state->want_write) {
    state->want_write = want;
    update_interest(*state);
  }
}

void WorkerDaemon::update_interest(ConnState& state) {
  if (!state.in_epoll) return;
  epoll_event ev{};
  ev.events = interest(state.want_write);
  ev.data.fd = state.conn->native_handle();
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, ev.data.fd, &ev);
}

void WorkerDaemon::drain_completions() {
  std::vector<Done> batch;
  {
    std::lock_guard lock(done_mutex_);
    batch.swap(done_);
  }
  if (batch.empty()) return;

  // Ship in arrival order (per connection this equals execution order —
  // one executor serves a connection at a time). Runs of small block
  // results to the same connection coalesce into one batch frame, same
  // policy as the old per-connection sender.
  std::vector<std::uint8_t> body;
  std::size_t i = 0;
  while (i < batch.size()) {
    Done& done = batch[i];
    if (done.conn->dead) {
      ++i;
      continue;
    }
    if (!done.result) {
      enqueue_frame(done.conn, done.type, done.payload);
      ++i;
      continue;
    }
    if (done.result->results.size() > kBatchableResultBytes) {
      done.result->encode_into(body);
      enqueue_frame(done.conn, MsgType::kBlockResult, body);
      ++i;
      continue;
    }
    BlockResultBatchMsg group;
    group.results.push_back(std::move(*done.result));
    ++i;
    while (i < batch.size() && group.results.size() < kMaxBatchedResults &&
           batch[i].conn == done.conn && batch[i].result &&
           batch[i].result->results.size() <= kBatchableResultBytes) {
      group.results.push_back(std::move(*batch[i].result));
      ++i;
    }
    if (group.results.size() == 1) {
      group.results.front().encode_into(body);
      enqueue_frame(done.conn, MsgType::kBlockResult, body);
    } else {
      group.encode_into(body);
      enqueue_frame(done.conn, MsgType::kBlockResultBatch, body);
      results_batched_.fetch_add(group.results.size());
    }
  }
}

// ---- executors -----------------------------------------------------------

void WorkerDaemon::executor_loop() {
  std::unique_lock lock(exec_mutex_);
  while (true) {
    exec_cv_.wait(lock, [&] {
      return stopping_.load(std::memory_order_acquire) ||
             (!exec_ready_.empty() &&
              !frozen_.load(std::memory_order_acquire));
    });
    if (stopping_.load(std::memory_order_acquire)) return;
    std::shared_ptr<ConnState> state = std::move(exec_ready_.front());
    exec_ready_.pop_front();
    if (state->tasks.empty() || state->exec_dead) {
      state->exec_running = false;
      continue;
    }
    Task task = std::move(state->tasks.front());
    state->tasks.pop_front();
    lock.unlock();

    run_task(state, task);

    lock.lock();
    if (!state->tasks.empty() && !state->exec_dead) {
      exec_ready_.push_back(state);  // round-robin across connections
      exec_cv_.notify_one();
    } else {
      state->exec_running = false;
    }
  }
}

void WorkerDaemon::run_task(const std::shared_ptr<ConnState>& state,
                            Task& task) {
  Done done;
  done.conn = state;

  if (task.is_begin_run) {
    const BeginRunMsg& msg = task.begin;
    RunAckMsg ack;
    ack.run_id = msg.run_id;
    std::string error;
    std::shared_ptr<rt::Workload> workload =
        apps::make_workload(msg.spec, &error);
    if (workload != nullptr && !workload->supports_remote_execution()) {
      workload.reset();
      error = "workload does not support remote execution";
    }
    ack.ok = workload != nullptr;
    ack.error = error;
    state->workload = std::move(workload);
    state->run_id = msg.run_id;
    done.type = MsgType::kRunAck;
    done.payload = ack.encode();
  } else {
    const AssignBlockMsg& msg = task.block;
    BlockResultMsg result;
    result.run_id = msg.run_id;
    result.sequence = msg.sequence;
    result.begin = msg.begin;
    result.end = msg.end;
    const std::shared_ptr<rt::Workload>& workload = state->workload;
    if (workload == nullptr || msg.run_id != state->run_id) {
      result.error = "no active run for this block";
    } else if (msg.end > workload->total_grains() || msg.begin >= msg.end) {
      result.error = "block range out of bounds";
    } else {
      const auto begin = static_cast<std::size_t>(msg.begin);
      const auto end = static_cast<std::size_t>(msg.end);
      const Clock::time_point t_exec = Clock::now();
      workload->execute_cpu(begin, end);
      const double measured =
          std::chrono::duration<double>(Clock::now() - t_exec).count();
      stretch_interruptible(measured);
      result.exec_seconds =
          std::chrono::duration<double>(Clock::now() - t_exec).count();
      result.results.resize(workload->result_bytes(begin, end));
      workload->write_results(begin, end, result.results.data());
      result.ok = true;
      blocks_served_.fetch_add(1);
    }
    done.result = std::move(result);
  }

  {
    std::lock_guard lock(done_mutex_);
    done_.push_back(std::move(done));
  }
  wake();
}

void WorkerDaemon::set_slowdown(double slowdown) {
  PLBHEC_EXPECTS(slowdown >= 1.0);
  slowdown_.store(slowdown, std::memory_order_relaxed);
}

/// Heterogeneity emulation: pads a measured kernel to `slowdown` times
/// its length. Unlike the old busy-stretch (a yield spin), this is a
/// timed condition wait — the same wall clock the G_p/F_p fits see,
/// without burning an executor lane, and kill()/stop() interrupt it.
void WorkerDaemon::stretch_interruptible(double measured_seconds) {
  const double slowdown = slowdown_.load(std::memory_order_relaxed);
  if (slowdown <= 1.0) return;
  const auto deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(
                             measured_seconds * (slowdown - 1.0)));
  std::unique_lock lock(exec_mutex_);
  exec_cv_.wait_until(lock, deadline, [&] {
    return stopping_.load(std::memory_order_acquire);
  });
}

}  // namespace plbhec::net
