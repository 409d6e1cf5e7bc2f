#include "sim/machine.hpp"

#include <algorithm>
#include <sstream>
#include <thread>
#include <tuple>

namespace ftsort::sim {

cube::Dim NodeCtx::dim() const { return machine_->dim(); }

const fault::FaultSet& NodeCtx::faults() const { return machine_->faults(); }

bool NodeCtx::is_faulty(cube::NodeId u) const {
  return machine_->faults().is_faulty(u);
}

void NodeCtx::charge_compares(std::uint64_t k) {
  if (k == 0) return;
  const SimTime dt = machine_->cost().compare_time(k);
  clock_ += dt;
  machine_->comparisons_.fetch_add(k, std::memory_order_relaxed);
  if (machine_->metrics_.enabled()) {
    PhaseCounters& pc = machine_->metrics_.at(id_, phase_);
    pc.comparisons += k;
    pc.compute_time += dt;
  }
  machine_->trace_.record(
      {clock_, id_, EventKind::Compute, 0, 0, k, 0, phase_});
  if (machine_->timeline_.enabled())
    machine_->timeline_.note_phase(id_, clock_, phase_);
  machine_->check_alive(id_);
}

void NodeCtx::charge_time(SimTime t) {
  FTSORT_REQUIRE(t >= 0.0);
  clock_ += t;
  if (machine_->metrics_.enabled())
    machine_->metrics_.at(id_, phase_).compute_time += t;
  if (machine_->timeline_.enabled())
    machine_->timeline_.note_phase(id_, clock_, phase_);
  machine_->check_alive(id_);
}

int NodeCtx::hops_to(cube::NodeId dst) const {
  return machine_->router().hops(id_, dst);
}

bool NodeCtx::link_stats_enabled() const {
  return machine_->link_stats_.enabled();
}

void NodeCtx::note_reindex_hops(cube::Dim logical_dim, int extra_hops,
                                bool fault_pair) {
  if (!machine_->link_stats_.enabled()) return;
  machine_->link_stats_.note_reindex(id_, logical_dim, extra_hops,
                                     fault_pair);
}

bool NodeCtx::lineage_enabled() const {
  return machine_->lineage_.enabled();
}

void NodeCtx::note_lineage_retain(cube::NodeId partner, Tag tag,
                                  std::span<const Key> kept,
                                  std::int32_t witness_step) {
  machine_->lineage_.note_retain(id_, partner, tag, kept, phase_,
                                 witness_step);
}

void NodeCtx::note_lineage_rescatter(
    const std::vector<std::vector<Key>>& blocks,
    std::span<const Lineage::SalvageInfo> salvage) {
  machine_->lineage_.note_rescatter(blocks, salvage, phase_);
}

PhaseSpan NodeCtx::span(Phase p) { return PhaseSpan(*this, p, true); }

PhaseSpan NodeCtx::span_if_unattributed(Phase p) {
  return PhaseSpan(*this, p, phase_ == Phase::Unattributed);
}

PhaseSpan::PhaseSpan(NodeCtx& ctx, Phase p, bool engage)
    : ctx_(ctx), prev_(ctx.phase_), engaged_(engage) {
  if (!engaged_) return;
  // Recorded before the phase switches so the walk's gap attribution stays
  // with the enclosing phase; the event itself carries the new phase.
  ctx_.machine_->trace().record(
      {ctx_.clock_, ctx_.id_, EventKind::SpanBegin, 0, 0, 0, 0, p});
  ctx_.phase_ = p;
}

PhaseSpan::~PhaseSpan() {
  if (!engaged_) return;
  ctx_.machine_->trace().record({ctx_.clock_, ctx_.id_, EventKind::SpanEnd,
                                0, 0, 0, 0, ctx_.phase_});
  ctx_.phase_ = prev_;
}

void NodeCtx::send(cube::NodeId dst, Tag tag, std::span<const Key> payload) {
  BufferPool& pool = machine_->pools_[id_];
  std::vector<Key> storage = pool.checkout(payload.size());
  storage.assign(payload.begin(), payload.end());
  if (machine_->metrics_.enabled())
    ++machine_->metrics_.at(id_, phase_).pool_checkouts;
  send(dst, tag, PooledBuffer(&pool, std::move(storage)));
}

void NodeCtx::send(cube::NodeId dst, Tag tag, std::vector<Key>&& payload) {
  // Adopt the storage: it enters the sender's pool circulation when the
  // receiver is done with it.
  send(dst, tag, PooledBuffer(&machine_->pools_[id_], std::move(payload)));
}

void NodeCtx::send(cube::NodeId dst, Tag tag, PooledBuffer&& payload) {
  FTSORT_REQUIRE(dst != id_);
  FTSORT_REQUIRE(cube::valid_node(dst, machine_->dim()));
  FTSORT_REQUIRE(!machine_->faults().is_faulty(dst));
  machine_->check_alive(id_);

  int hops;
  if (machine_->link_stats_.enabled() || machine_->lineage_.enabled()) {
    // Charge every link the message will traverse before the payload is
    // moved out. Same walk the router's hop count summarises, so the two
    // stay consistent by construction; dropped messages are charged here
    // and in post()'s aggregates alike, preserving the conservation
    // invariant (see sim/link_stats.hpp). Lineage charges the identical
    // walk per payload word, which is what makes its per-id + untracked
    // sums match the LinkStats key_hops exactly (sim/lineage.hpp).
    const std::vector<cube::NodeId> path =
        machine_->router().path(id_, dst);
    hops = static_cast<int>(path.size()) - 1;
    if (machine_->link_stats_.enabled())
      machine_->link_stats_.charge_path(path, payload.size(), phase_);
    if (machine_->lineage_.enabled())
      machine_->lineage_.charge_send(id_, path, payload.span());
  } else {
    hops = machine_->router().hops(id_, dst);
  }
  Message msg;
  msg.src = id_;
  msg.dst = dst;
  msg.tag = tag;
  msg.sent_at = clock_;
  msg.hops = hops;
  msg.arrival =
      clock_ + machine_->cost().transfer_time(payload.size(), hops);
  msg.payload = std::move(payload);
  msg.phase = phase_;

  const SimTime injection =
      machine_->cost().injection_time(msg.payload.size());
  clock_ += injection;
  if (machine_->metrics_.enabled()) {
    PhaseCounters& pc = machine_->metrics_.at(id_, phase_);
    ++pc.messages;
    pc.keys_sent += msg.payload.size();
    pc.key_hops +=
        msg.payload.size() * static_cast<std::uint64_t>(msg.hops);
    pc.send_busy += injection;
    ++pc.msg_size_hist[PhaseCounters::size_bucket(msg.payload.size())];
  }
  machine_->trace_.record({msg.sent_at, id_, EventKind::Send, dst, tag,
                           msg.payload.size(), hops, phase_});
  if (machine_->timeline_.enabled()) {
    machine_->timeline_.note_send(id_, dst, msg.payload.size(),
                                  msg.sent_at);
    machine_->timeline_.note_phase(id_, clock_, phase_);
  }
  machine_->post(std::move(msg));
}

bool NodeCtx::RecvAwaiter::await_ready() const noexcept {
  // The threaded executor must re-check under the mailbox lock inside
  // await_suspend; the sequential one can short-circuit here.
  if (ctx.machine_->threaded_) return false;
  return ctx.machine_->has_message(ctx.id_, src, tag);
}

bool NodeCtx::RecvAwaiter::await_suspend(std::coroutine_handle<> h) {
  return ctx.machine_->register_waiter(ctx.id_, src, tag, h,
                                       /*has_deadline=*/false, 0.0);
}

Message NodeCtx::RecvAwaiter::await_resume() {
  return ctx.machine_->pop_message(ctx.id_, src, tag);
}

bool NodeCtx::RecvTimeoutAwaiter::await_ready() const noexcept {
  if (ctx.machine_->threaded_) return false;
  return ctx.machine_->has_message(ctx.id_, src, tag);
}

bool NodeCtx::RecvTimeoutAwaiter::await_suspend(std::coroutine_handle<> h) {
  FTSORT_REQUIRE(patience >= 0.0);
  return ctx.machine_->register_waiter(ctx.id_, src, tag, h,
                                       /*has_deadline=*/true,
                                       ctx.clock_ + patience);
}

std::optional<Message> NodeCtx::RecvTimeoutAwaiter::await_resume() {
  return ctx.machine_->finish_recv_or_timeout(ctx.id_, src, tag);
}

Machine::Machine(cube::Dim n, fault::FaultSet faults,
                 fault::FaultModel model, CostModel cost,
                 cube::LinkSet dead_links)
    : n_(n), faults_(std::move(faults)), model_(model), cost_(cost),
      router_(n, faults_.bitmap(), model == fault::FaultModel::Total,
              std::move(dead_links)) {
  FTSORT_REQUIRE(cube::valid_dim(n_));
  FTSORT_REQUIRE(faults_.dim() == n_);
  pools_ = std::vector<BufferPool>(size());
  nodes_.resize(size());
  trace_.reshard(size());
}

void Machine::profile_host(bool on) {
  profile_host_ = on;
  if (on && prof_shards_.size() != size()) {
    prof_shards_.clear();
    for (std::uint32_t u = 0; u < size(); ++u)
      prof_shards_.push_back(std::make_unique<ShardProfile>());
  }
  for (BufferPool& pool : pools_) pool.set_profiling(on);
}

std::unique_lock<std::mutex> Machine::lock_shard(NodeState& st,
                                                 cube::NodeId id) {
  if (!profile_host_) return std::unique_lock<std::mutex>(st.mutex);
  std::unique_lock<std::mutex> lk(st.mutex, std::try_to_lock);
  if (lk.owns_lock()) return lk;
  const auto t0 = std::chrono::steady_clock::now();
  lk.lock();
  const auto waited = std::chrono::steady_clock::now() - t0;
  ShardProfile& prof = *prof_shards_[id];
  prof.mutex_waits.fetch_add(1, std::memory_order_relaxed);
  prof.mutex_wait_ns.fetch_add(
      static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(waited)
              .count()),
      std::memory_order_relaxed);
  return lk;
}

Diagnosis Machine::diagnose(Diagnosis::Kind kind) const {
  DiagnosisInput in;
  for (cube::NodeId u = 0; u < size(); ++u) {
    const NodeState* st = nodes_[u].get();
    if (st == nullptr) continue;
    if (st->killed) {
      in.kills.push_back({u, st->ctx.clock_, st->ctx.phase_});
    } else if (!st->task.done() && st->waiting) {
      in.waits.push_back({u, static_cast<cube::NodeId>(st->want_channel >> 32),
                          static_cast<Tag>(st->want_channel & 0xffffffffu),
                          st->ctx.clock_, st->ctx.phase_,
                          /*expired=*/false});
    }
  }
  for (const auto& cut : injector_.cuts())
    if (cut.when < kNever) in.cuts.push_back({cut.a, cut.b, cut.when});
  if (trace_.enabled()) {
    // Expired recv_or_timeout waits (and deaths of nodes already reset)
    // survive only in the flight recorder; merge this run's slice in.
    // Only its Timeout and Kill events matter, so only those are copied.
    DiagnosisInput recorded = diagnosis_input_from_events(trace_.snapshot(
        trace_run_start_, {EventKind::Timeout, EventKind::Kill}));
    in.waits.insert(in.waits.end(), recorded.waits.begin(),
                    recorded.waits.end());
    in.kills.insert(in.kills.end(), recorded.kills.begin(),
                    recorded.kills.end());
    // This run's eviction count: a nonzero value tells diagnose() the
    // recorded slice above may be missing the true root event.
    const std::uint64_t dropped_now = trace_.dropped();
    in.trace_dropped = dropped_now >= trace_dropped_mark_
                           ? dropped_now - trace_dropped_mark_
                           : dropped_now;
  }
  return sim::diagnose(std::move(in), kind);
}

PoolStats Machine::pool_stats() const {
  PoolStats total;
  for (const BufferPool& pool : pools_) total += pool.stats();
  return total;
}

PoolStats Machine::pool_stats_delta() const {
  const PoolStats now = pool_stats();
  FTSORT_INVARIANT(now.checkouts >= pool_mark_.checkouts);
  FTSORT_INVARIANT(now.returns >= pool_mark_.returns);
  PoolStats delta;
  delta.checkouts = now.checkouts - pool_mark_.checkouts;
  delta.fresh = now.fresh - pool_mark_.fresh;
  delta.grows = now.grows - pool_mark_.grows;
  delta.returns = now.returns - pool_mark_.returns;
  return delta;
}

Machine::NodeState& Machine::state_of(cube::NodeId id) {
  FTSORT_REQUIRE(cube::valid_node(id, n_));
  FTSORT_INVARIANT(nodes_[id] != nullptr);
  return *nodes_[id];
}

std::size_t Machine::inbox_find(const NodeState& st, std::uint64_t channel) {
  for (std::size_t k = 0; k < st.inbox.size(); ++k) {
    const Message& m = st.inbox[k];
    if (channel_key(m.src, m.tag) == channel) return k;
  }
  return kNotFound;
}

void Machine::check_alive(cube::NodeId id) {
  NodeState& st = state_of(id);
  if (st.ctx.clock_ < st.kill_time) return;
  if (threaded_) {
    const std::unique_lock<std::mutex> guard = lock_shard(st, id);
    st.killed = true;
  } else {
    st.killed = true;
  }
  trace_.record(
      {st.ctx.clock_, id, EventKind::Kill, 0, 0, 0, 0, st.ctx.phase_});
  throw KilledSignal{};
}

void Machine::post(Message msg) {
  messages_.fetch_add(1, std::memory_order_relaxed);
  keys_sent_.fetch_add(msg.payload.size(), std::memory_order_relaxed);
  key_hops_.fetch_add(
      msg.payload.size() * static_cast<std::uint64_t>(msg.hops),
      std::memory_order_relaxed);

  NodeState& dst = state_of(msg.dst);
  // Dynamic-fault drop rules: dead on arrival, or the direct link between
  // adjacent endpoints was cut before the send. Both are purely logical,
  // so each executor drops exactly the same messages.
  const bool dead_on_arrival = msg.arrival >= dst.kill_time;
  const bool link_cut =
      cube::hamming(msg.src, msg.dst) == 1 &&
      msg.sent_at >= injector_.link_cut_time(msg.src, msg.dst);
  if (dead_on_arrival || link_cut) {
    messages_dropped_.fetch_add(1, std::memory_order_relaxed);
    // Charged to the *sender's* row (post runs on the sender's thread, so
    // this stays within the per-node write sharding) under the sender's
    // phase at the send, carried on the message.
    if (metrics_.enabled())
      ++metrics_.at(msg.src, msg.phase).messages_dropped;
    trace_.record({msg.arrival, msg.dst, EventKind::Drop, msg.src, msg.tag,
                   msg.payload.size(), msg.hops, msg.phase});
    if (timeline_.enabled())
      timeline_.note_dropped(msg.src, msg.dst, msg.payload.size(),
                             msg.arrival);
    return;
  }
  if (timeline_.enabled()) timeline_.note_enqueue(msg.dst, msg.arrival);

  const std::uint64_t channel = channel_key(msg.src, msg.tag);
  if (threaded_) {
    // Sharded hot path: only the destination's own lock. The sender is by
    // definition runnable, so quiescence cannot be pending concurrently.
    const std::unique_lock<std::mutex> guard = lock_shard(dst, msg.dst);
    dst.inbox.push_back(std::move(msg));
    deliveries_.fetch_add(1, std::memory_order_release);
    if (dst.waiting && dst.want_channel == channel) {
      dst.waiting = false;
      dst.ready = dst.waiter;
      dst.waiter = nullptr;
      progress_.fetch_sub(1, std::memory_order_acq_rel);
      dst.cv.notify_one();
    }
    return;
  }
  dst.inbox.push_back(std::move(msg));
  deliveries_.fetch_add(1, std::memory_order_relaxed);
  if (dst.waiting && dst.want_channel == channel) {
    dst.waiting = false;
    ready_.push_back(dst.waiter);
    dst.waiter = nullptr;
  }
}

bool Machine::has_message(cube::NodeId node, cube::NodeId src, Tag tag) {
  return inbox_find(state_of(node), channel_key(src, tag)) != kNotFound;
}

bool Machine::register_waiter(cube::NodeId node, cube::NodeId src, Tag tag,
                              std::coroutine_handle<> h, bool has_deadline,
                              SimTime deadline) {
  // A node program is one sequential coroutine chain, so at most one
  // outstanding recv can exist per node. Statically faulty processors can
  // never send (only injector victims can die after sending).
  FTSORT_REQUIRE(!faults_.is_faulty(src));
  NodeState& st = state_of(node);
  const std::uint64_t channel = channel_key(src, tag);
  if (threaded_) {
    {
      const std::unique_lock<std::mutex> guard = lock_shard(st, node);
      if (inbox_find(st, channel) != kNotFound)
        return false;  // raced with a sender: resume immediately
      FTSORT_INVARIANT(!st.waiting);
      st.waiting = true;
      st.want_channel = channel;
      st.waiter = h;
      st.has_deadline = has_deadline;
      st.deadline = deadline;
      // Inside the lock so a racing wake in post() can never observe (and
      // decrement) a blocked count we have not yet incremented.
      progress_.fetch_add(1, std::memory_order_acq_rel);
    }
    maybe_resolve_quiescence();
    return true;
  }
  FTSORT_INVARIANT(!st.waiting);
  st.waiting = true;
  st.want_channel = channel;
  st.waiter = h;
  st.has_deadline = has_deadline;
  st.deadline = deadline;
  return true;
}

Message Machine::pop_message(cube::NodeId node, cube::NodeId src, Tag tag) {
  NodeState& st = state_of(node);
  const std::uint64_t channel = channel_key(src, tag);
  Message msg;
  if (threaded_) {
    const std::unique_lock<std::mutex> guard = lock_shard(st, node);
    const std::size_t k = inbox_find(st, channel);
    FTSORT_INVARIANT(k != kNotFound);
    msg = std::move(st.inbox[k]);
    st.inbox.erase(st.inbox.begin() + static_cast<std::ptrdiff_t>(k));
  } else {
    const std::size_t k = inbox_find(st, channel);
    FTSORT_INVARIANT(k != kNotFound);
    msg = std::move(st.inbox[k]);
    st.inbox.erase(st.inbox.begin() + static_cast<std::ptrdiff_t>(k));
  }
  const SimTime before = st.ctx.clock_;
  st.ctx.clock_ = std::max(st.ctx.clock_, msg.arrival);
  if (metrics_.enabled()) {
    PhaseCounters& pc = metrics_.at(node, st.ctx.phase_);
    ++pc.recvs;
    pc.keys_received += msg.payload.size();
    pc.recv_wait += st.ctx.clock_ - before;
  }
  trace_.record({st.ctx.clock_, node, EventKind::Recv, src, tag,
                 msg.payload.size(), msg.hops, st.ctx.phase_});
  if (timeline_.enabled()) {
    timeline_.note_dequeue(node, st.ctx.clock_);
    timeline_.note_delivered(src, node, msg.payload.size(), st.ctx.clock_);
    timeline_.note_phase(node, st.ctx.clock_, st.ctx.phase_);
  }
  check_alive(node);
  return msg;
}

std::optional<Message> Machine::finish_recv_or_timeout(cube::NodeId node,
                                                       cube::NodeId src,
                                                       Tag tag) {
  NodeState& st = state_of(node);
  if (st.timed_out) {
    st.timed_out = false;
    st.has_deadline = false;
    const SimTime before = st.ctx.clock_;
    st.ctx.clock_ = std::max(st.ctx.clock_, st.deadline);
    timeouts_.fetch_add(1, std::memory_order_relaxed);
    if (metrics_.enabled()) {
      PhaseCounters& pc = metrics_.at(node, st.ctx.phase_);
      ++pc.timeouts;
      pc.recv_wait += st.ctx.clock_ - before;
    }
    trace_.record({st.ctx.clock_, node, EventKind::Timeout, src, tag, 0, 0,
                   st.ctx.phase_});
    if (timeline_.enabled())
      timeline_.note_phase(node, st.ctx.clock_, st.ctx.phase_);
    check_alive(node);
    return std::nullopt;
  }
  st.has_deadline = false;
  return pop_message(node, src, tag);
}

std::string Machine::deadlock_message() const {
  std::ostringstream os;
  os << "simulation deadlock: every live node is blocked;";
  for (const auto& node : nodes_) {
    if (!node || node->task.done() || node->killed) continue;
    os << " node " << node->ctx.id();
    if (node->waiting) {
      os << " waits for src=" << (node->want_channel >> 32)
         << " tag=" << (node->want_channel & 0xffffffffu) << " ["
         << phase_name(node->ctx.phase_) << "];";
    } else {
      os << " is not runnable;";
    }
  }
  // Both executors call this at quiescence with stable node states, so the
  // diagnosis (derived from logical evidence only) matches byte-for-byte.
  const Diagnosis diag = diagnose(Diagnosis::Kind::Deadlock);
  if (diag.triggered()) os << ' ' << diag.to_string();
  return os.str();
}

bool Machine::fire_quiescence_event() {
  // Candidate logical events for blocked nodes: recv-timeout expiry at its
  // deadline, and the death of a node whose kill time can now never be
  // outrun. The earliest (time, kind, node) triple fires; kills order
  // after timeouts on exact ties so a node with deadline == kill time
  // still observes its timeout. At quiescence no node is runnable, so the
  // states read here are stable; the per-node locks (threaded only)
  // synchronise with each node thread's last release of its own state.
  NodeState* best = nullptr;
  SimTime best_time = 0.0;
  int best_kind = 0;  // 0 = timeout, 1 = kill
  cube::NodeId best_node = 0;
  const auto consider = [&](NodeState& st, SimTime t, int kind,
                            cube::NodeId u) {
    if (best != nullptr &&
        std::tie(best_time, best_kind, best_node) <= std::tie(t, kind, u))
      return;
    best = &st;
    best_time = t;
    best_kind = kind;
    best_node = u;
  };
  for (cube::NodeId u = 0; u < size(); ++u) {
    NodeState* st = nodes_[u].get();
    if (st == nullptr) continue;
    std::unique_lock<std::mutex> lock;
    if (threaded_) lock = std::unique_lock<std::mutex>(st->mutex);
    if (!st->waiting) continue;
    if (st->has_deadline) consider(*st, st->deadline, 0, u);
    if (st->kill_time < kNever)
      consider(*st, std::max(st->ctx.clock_, st->kill_time), 1, u);
  }
  if (best == nullptr) return false;

  NodeState& st = *best;
  std::unique_lock<std::mutex> lock;
  if (threaded_) lock = std::unique_lock<std::mutex>(st.mutex);
  FTSORT_INVARIANT(st.waiting);
  st.waiting = false;
  if (best_kind == 0) {
    st.timed_out = true;
    const std::coroutine_handle<> h = st.waiter;
    st.waiter = nullptr;
    if (threaded_) {
      st.ready = h;
      progress_.fetch_sub(1, std::memory_order_acq_rel);
      st.cv.notify_one();
    } else {
      ready_.push_back(h);
    }
    return true;
  }
  // A blocked node dies: its coroutine is abandoned, never resumed.
  st.killed = true;
  st.waiter = nullptr;
  trace_.record({st.ctx.clock_, best_node, EventKind::Kill, 0, 0, 0, 0,
                 st.ctx.phase_});
  if (threaded_) {
    progress_.fetch_sub(1, std::memory_order_acq_rel);
    st.cv.notify_one();  // its thread exits via the killed flag
  }
  return true;
}

void Machine::maybe_resolve_quiescence() {
  const auto quiescent = [this](std::uint64_t packed) {
    const auto blocked = static_cast<std::size_t>(packed & 0xffffffffu);
    const auto terminal = static_cast<std::size_t>(packed >> 32);
    return blocked + terminal >= total_programs_ && blocked > 0;
  };
  if (!quiescent(progress_.load(std::memory_order_acquire))) return;
  const std::lock_guard<std::mutex> guard(sched_mutex_);
  if (profile_host_)
    prof_quiescence_checks_.fetch_add(1, std::memory_order_relaxed);
  if (shutdown_.load(std::memory_order_relaxed)) return;
  // Re-verify under the lock: a concurrent resolver may have fired an
  // event (making some node runnable) between our read and the acquire.
  if (!quiescent(progress_.load(std::memory_order_acquire))) return;
  if (fire_quiescence_event()) {
    if (profile_host_)
      prof_quiescence_events_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  // Genuine deadlock: report the same blocked set the sequential executor
  // would, then shut the thread pool down.
  deadlocked_ = true;
  deadlock_msg_ = deadlock_message();
  begin_shutdown();
}

void Machine::begin_shutdown() {
  shutdown_.store(true, std::memory_order_release);
  for (auto& node : nodes_) {
    if (!node) continue;
    // Lock-then-notify so a thread between its predicate check and its
    // cv wait cannot miss the wakeup.
    const std::lock_guard<std::mutex> guard(node->mutex);
    node->cv.notify_all();
  }
}

void Machine::instantiate_programs(const Program& program) {
  messages_ = keys_sent_ = key_hops_ = comparisons_ = 0;
  messages_dropped_ = timeouts_ = deliveries_ = 0;
  if (metrics_.enabled()) metrics_.reset();
  if (link_stats_.enabled()) link_stats_.reset();
  if (timeline_.enabled()) timeline_.reset();
  // lineage_ is deliberately NOT reset here: its scatter assignment is
  // host-side, pre-run state (see Machine::lineage()).
  pool_mark_ = pool_stats();
  trace_run_start_ = trace_.next_seq();
  trace_dropped_mark_ = trace_.dropped();
  if (profile_host_) {
    for (auto& shard : prof_shards_) {
      shard->mutex_waits.store(0, std::memory_order_relaxed);
      shard->mutex_wait_ns.store(0, std::memory_order_relaxed);
      shard->cv_waits.store(0, std::memory_order_relaxed);
      shard->cv_wakeups.store(0, std::memory_order_relaxed);
      shard->spurious_wakeups.store(0, std::memory_order_relaxed);
      shard->tasks_resumed.store(0, std::memory_order_relaxed);
    }
    prof_quiescence_checks_.store(0, std::memory_order_relaxed);
    prof_quiescence_events_.store(0, std::memory_order_relaxed);
    for (BufferPool& pool : pools_) pool.reset_contention();
  }
  ready_.clear();
  total_programs_ = 0;
  progress_.store(0, std::memory_order_relaxed);
  shutdown_.store(false, std::memory_order_relaxed);
  deadlocked_ = false;
  deadlock_msg_.clear();
  watchdog_stats_ = WatchdogReport{};  // {"enabled": false} stub by default
  for (cube::NodeId u = 0; u < size(); ++u) {
    if (faults_.is_faulty(u)) {
      nodes_[u] = nullptr;
      continue;
    }
    nodes_[u] = std::unique_ptr<NodeState>(new NodeState(NodeCtx(*this, u)));
    nodes_[u]->kill_time = injector_.node_kill_time(u);
    nodes_[u]->task = program(nodes_[u]->ctx);
    ++total_programs_;
  }
}

void Machine::drain_ready() {
  while (!ready_.empty()) {
    // A tripped abort-policy watchdog stops the scheduler at the next
    // resume boundary (the sequential executor cannot preempt a wedged
    // coroutine mid-resume); run() turns the latch into the thrown error.
    if (active_watchdog_ != nullptr && active_watchdog_->tripped()) return;
    auto h = ready_.front();
    ready_.pop_front();
    h.resume();
    if (active_watchdog_ != nullptr) active_watchdog_->beat(0);
  }
}

RunReport Machine::collect_report() {
  RunReport report;
  report.cost = cost_;
  report.node_clocks.assign(size(), 0.0);
  for (cube::NodeId u = 0; u < size(); ++u) {
    if (!nodes_[u]) continue;
    NodeState& st = *nodes_[u];
    report.node_clocks[u] = st.ctx.now();
    if (st.killed) {
      // Died mid-run: clock frozen at death; excluded from the makespan.
      report.killed_nodes.push_back(u);
      continue;
    }
    try {
      st.task.take_result();
    } catch (const std::exception& e) {
      running_ = false;
      for (auto& node : nodes_) node.reset();
      throw std::runtime_error("node " + std::to_string(u) +
                               " failed: " + e.what());
    }
    report.makespan = std::max(report.makespan, st.ctx.now());
  }
  report.messages = messages_.load();
  report.keys_sent = keys_sent_.load();
  report.key_hops = key_hops_.load();
  report.comparisons = comparisons_.load();
  report.messages_dropped = messages_dropped_.load();
  report.timeouts = timeouts_.load();
  report.pool = pool_stats();
  report.pool_delta = pool_stats_delta();
  if (metrics_.enabled()) {
    report.metrics = metrics_.snapshot();
    // Critical-path attribution needs the trace; restrict it to this run's
    // events (the trace may hold earlier runs' history — the run-start
    // sequence watermark slices it, ring evictions notwithstanding).
    std::vector<TraceEvent> events;
    if (trace_.enabled()) {
      events = trace_.snapshot();
      std::erase_if(events, [this](const TraceEvent& ev) {
        return ev.seq < trace_run_start_;
      });
    }
    report.phases = build_phase_breakdown(report.metrics, events,
                                          report.makespan,
                                          report.node_clocks);
  }
  if (link_stats_.enabled()) report.links = link_stats_.snapshot();
  if (timeline_.enabled()) report.timeline = timeline_.snapshot();
  if (lineage_.enabled()) report.lineage = lineage_.snapshot();
  const std::uint64_t dropped_now = trace_.dropped();
  report.trace_dropped =
      dropped_now >= trace_dropped_mark_ ? dropped_now - trace_dropped_mark_
                                         : dropped_now;
  if (report.timeouts > 0 || !report.killed_nodes.empty()) {
    report.diagnosis = diagnose(report.timeouts > 0
                                    ? Diagnosis::Kind::TimeoutBurst
                                    : Diagnosis::Kind::NodeLoss);
  }
  report.host = snapshot_host_profile();
  report.watchdog = watchdog_stats_;

  // Check no messages were left undelivered (protocol completeness). With
  // dynamic faults, stray deliveries to dead or timed-out programs are
  // expected and exempt.
  if (injector_.empty() && report.timeouts == 0) {
    for (const auto& node : nodes_) {
      if (!node) continue;
      FTSORT_ENSURE(node->inbox.empty());
    }
  }
  for (auto& node : nodes_) node.reset();
  running_ = false;
  return report;
}

HostProfile Machine::snapshot_host_profile() const {
  HostProfile host;
  if (!profile_host_) return host;
  host.enabled = true;
  host.shards.resize(size());
  for (std::size_t u = 0; u < prof_shards_.size(); ++u) {
    const ShardProfile& p = *prof_shards_[u];
    SchedShardProfile& out = host.shards[u];
    out.mutex_waits = p.mutex_waits.load(std::memory_order_relaxed);
    out.mutex_wait_ns = p.mutex_wait_ns.load(std::memory_order_relaxed);
    out.cv_waits = p.cv_waits.load(std::memory_order_relaxed);
    out.cv_wakeups = p.cv_wakeups.load(std::memory_order_relaxed);
    out.spurious_wakeups = p.spurious_wakeups.load(std::memory_order_relaxed);
    out.tasks_resumed = p.tasks_resumed.load(std::memory_order_relaxed);
  }
  host.quiescence_checks =
      prof_quiescence_checks_.load(std::memory_order_relaxed);
  host.quiescence_events =
      prof_quiescence_events_.load(std::memory_order_relaxed);
  for (const BufferPool& pool : pools_) {
    host.pool_contended += pool.contended();
    host.pool_contended_wait_ns += pool.contended_wait_ns();
  }
  return host;
}

std::unique_ptr<Watchdog> Machine::arm_watchdog(bool threaded) {
  if (!watchdog_cfg_.enabled) return nullptr;
  auto wd = std::make_unique<Watchdog>(watchdog_cfg_);
  wd->set_activity_namer([](std::uint64_t act) {
    return std::string(phase_name(static_cast<Phase>(act)));
  });
  wd_slot_.assign(size(), 0);
  if (threaded) {
    for (cube::NodeId u = 0; u < size(); ++u)
      if (nodes_[u]) wd_slot_[u] = wd->add_slot("node " + std::to_string(u));
    // Unwedge the node threads so join() returns and the dump can be
    // assembled from a quiescent machine.
    wd->on_trip([this] { begin_shutdown(); });
  } else {
    wd->add_slot("scheduler");
  }
  wd->start();
  return wd;
}

void Machine::throw_watchdog_trip() {
  running_ = false;
  const WatchdogReport rep = watchdog_stats_;
  const Diagnosis diag = diagnose(Diagnosis::Kind::Deadlock);
  const HostProfile host = snapshot_host_profile();
  std::vector<TraceEvent> tail;
  if (trace_.enabled()) {
    tail = trace_.snapshot();
    std::erase_if(tail, [this](const TraceEvent& ev) {
      return ev.seq < trace_run_start_;
    });
    constexpr std::size_t kTailEvents = 64;
    if (tail.size() > kTailEvents)
      tail.erase(tail.begin(),
                 tail.end() - static_cast<std::ptrdiff_t>(kTailEvents));
  }
  WatchdogDumpContext ctx;
  ctx.origin = "machine";
  // A host-level stall usually leaves no logical evidence (the wedge is
  // in wall-clock, not in blocked receives); only attach the diagnosis
  // when it actually found a root, so `ftdiag stuck` never renders a
  // "root cause: none" line.
  ctx.diagnosis = diag.triggered() ? &diag : nullptr;
  ctx.host = &host;
  ctx.trace_tail = trace_.enabled() ? &tail : nullptr;
  if (!watchdog_cfg_.dump_path.empty())
    write_watchdog_dump(watchdog_cfg_.dump_path, rep, ctx);
  // Name the most-silent non-terminal slot: the wedged shard.
  const WatchdogSlotView* worst = nullptr;
  for (const WatchdogSlotView& s : rep.slots)
    if (!s.terminal && (worst == nullptr || s.age_ms > worst->age_ms))
      worst = &s;
  const std::string who = worst != nullptr ? worst->label : std::string();
  std::string msg = "watchdog tripped: no scheduler progress for " +
                    std::to_string(rep.stall_ms) + " ms (deadline " +
                    std::to_string(rep.effective_deadline_ms) + " ms)";
  if (!who.empty()) msg += "; most silent: " + who;
  if (!watchdog_cfg_.dump_path.empty())
    msg += "; dump: " + watchdog_cfg_.dump_path;
  for (auto& node : nodes_) node.reset();
  throw WatchdogError(msg, rep);
}

RunReport Machine::run(const Program& program) {
  FTSORT_REQUIRE(!running_);
  running_ = true;
  threaded_ = false;
  instantiate_programs(program);
  std::unique_ptr<Watchdog> wd = arm_watchdog(/*threaded=*/false);
  active_watchdog_ = wd.get();
  const auto finish_watchdog = [&] {
    active_watchdog_ = nullptr;
    if (wd == nullptr) return false;
    wd->stop();
    watchdog_stats_ = wd->report();
    return wd->tripped();
  };

  try {
    // Kick each program to its first suspension point; then drain wakeups.
    for (cube::NodeId u = 0; u < size(); ++u) {
      if (!nodes_[u]) continue;
      nodes_[u]->task.start();
      if (wd != nullptr) wd->beat(0);
      drain_ready();
    }
    drain_ready();

    // Quiescence loop: every remaining program is blocked in a recv. Fire
    // pending logical events (recv timeouts, deaths of blocked nodes) in
    // event-time order until everything is terminal, or fail with the
    // blocked set if no event can make progress.
    while (true) {
      if (wd != nullptr && wd->tripped()) break;
      bool pending = false;
      for (const auto& node : nodes_) {
        if (node && !node->task.done() && !node->killed) {
          pending = true;
          break;
        }
      }
      if (!pending) break;
      if (!fire_quiescence_event()) {
        running_ = false;
        finish_watchdog();
        const std::string msg = deadlock_message();
        for (auto& node : nodes_) node.reset();
        throw DeadlockError(msg);
      }
      if (wd != nullptr) wd->beat(0);
      drain_ready();
    }
  } catch (...) {
    active_watchdog_ = nullptr;
    throw;
  }
  if (finish_watchdog()) throw_watchdog_trip();
  return collect_report();
}

RunReport Machine::run_threaded(const Program& program,
                                std::chrono::milliseconds timeout) {
  FTSORT_REQUIRE(!running_);
  running_ = true;
  threaded_ = true;
  instantiate_programs(program);
  std::unique_ptr<Watchdog> wd = arm_watchdog(/*threaded=*/true);

  std::atomic<bool> stalled{false};

  std::vector<std::thread> threads;
  threads.reserve(total_programs_);
  for (cube::NodeId u = 0; u < size(); ++u) {
    if (!nodes_[u]) continue;
    NodeState& st = *nodes_[u];
    Watchdog* wdp = wd.get();
    const std::size_t wslot = wdp != nullptr ? wd_slot_[u] : 0;
    threads.emplace_back([&st, &stalled, timeout, this, u, wdp, wslot] {
      ShardProfile* prof =
          profile_host_ ? prof_shards_[u].get() : nullptr;
      st.task.start();
      // Heartbeats are wall-clock-only observability: one relaxed
      // fetch_add per resume, activity = the node's ambient phase. The
      // phase field is only ever written by this node's own coroutine,
      // which runs on this thread.
      if (wdp != nullptr)
        wdp->beat(wslot, static_cast<std::uint64_t>(st.ctx.phase_));
      auto last_epoch = deliveries_.load(std::memory_order_acquire);
      auto last_change = std::chrono::steady_clock::now();
      while (!st.task.done()) {
        std::coroutine_handle<> to_resume = nullptr;
        bool trigger_shutdown = false;
        {
          std::unique_lock<std::mutex> lk = lock_shard(st, u);
          if (st.killed || shutdown_.load(std::memory_order_relaxed))
            break;
          if (st.ready != nullptr) {
            to_resume = st.ready;
            st.ready = nullptr;
          } else {
            if (prof != nullptr)
              prof->cv_waits.fetch_add(1, std::memory_order_relaxed);
            st.cv.wait_for(lk, std::chrono::milliseconds(50), [&] {
              return st.ready != nullptr || st.killed ||
                     shutdown_.load(std::memory_order_relaxed);
            });
            if (prof != nullptr) {
              if (st.ready != nullptr)
                prof->cv_wakeups.fetch_add(1, std::memory_order_relaxed);
              else
                prof->spurious_wakeups.fetch_add(1,
                                                 std::memory_order_relaxed);
            }
            if (st.ready == nullptr && !st.killed &&
                !shutdown_.load(std::memory_order_relaxed)) {
              // Wall-clock backstop against non-blocking livelock; real
              // blocking deadlocks resolve instantly at quiescence.
              const auto epoch =
                  deliveries_.load(std::memory_order_acquire);
              const auto now = std::chrono::steady_clock::now();
              if (epoch != last_epoch) {
                last_epoch = epoch;
                last_change = now;
              } else if (now - last_change > timeout) {
                stalled.store(true);
                trigger_shutdown = true;
              }
            }
          }
        }
        if (trigger_shutdown) begin_shutdown();
        if (to_resume != nullptr) {
          if (prof != nullptr)
            prof->tasks_resumed.fetch_add(1, std::memory_order_relaxed);
          to_resume.resume();
          if (wdp != nullptr)
            wdp->beat(wslot, static_cast<std::uint64_t>(st.ctx.phase_));
        }
      }
      bool newly_terminal = false;
      {
        const std::lock_guard<std::mutex> guard(st.mutex);
        if (!st.terminal) {
          st.terminal = true;
          newly_terminal = true;
        }
      }
      if (newly_terminal) {
        // An orderly thread exit (task done, killed, or shutdown) is
        // progress too, and marks this slot so a dump never blames it.
        if (wdp != nullptr) wdp->beat(wslot, Watchdog::kActivityTerminal);
        progress_.fetch_add(kTerminalOne, std::memory_order_acq_rel);
        maybe_resolve_quiescence();
      }
    });
  }
  for (auto& thread : threads) thread.join();

  bool wd_tripped = false;
  if (wd != nullptr) {
    wd->stop();
    watchdog_stats_ = wd->report();
    wd_tripped = wd->tripped();
  }
  threaded_ = false;
  const bool was_deadlocked = deadlocked_;  // threads joined: plain reads
  if (stalled.load() || was_deadlocked) {
    running_ = false;
    const std::string msg =
        was_deadlocked
            ? deadlock_msg_
            : "threaded run stalled: no message delivered within "
              "the timeout while nodes were still blocked";
    for (auto& node : nodes_) node.reset();
    throw DeadlockError(msg);
  }
  // A watchdog trip shut the pool down without a logical deadlock record:
  // the stall was host-level. Dump and throw from the quiescent machine.
  if (wd_tripped) throw_watchdog_trip();
  return collect_report();
}

}  // namespace ftsort::sim
