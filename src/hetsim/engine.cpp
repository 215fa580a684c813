#include "hetsim/engine.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>

#include "obs/engine_metrics.hpp"

namespace hetcomm {

Engine::Engine(Topology topology, ParamSet params, NoiseModel noise)
    : topo_(std::move(topology)),
      params_(std::move(params)),
      noise_(noise),
      clock_(static_cast<std::size_t>(topo_.num_ranks()), 0.0),
      send_port_(static_cast<std::size_t>(topo_.num_ranks())),
      recv_port_(static_cast<std::size_t>(topo_.num_ranks())),
      nic_out_(static_cast<std::size_t>(topo_.num_nodes()) *
               static_cast<std::size_t>(std::max(1, params_.injection.nics_per_node))),
      nic_in_(nic_out_.size()),
      dma_h2d_(static_cast<std::size_t>(topo_.num_gpus())),
      dma_d2h_(static_cast<std::size_t>(topo_.num_gpus())),
      run_seed_(noise.seed()) {
  params_.validate();
  paths_ = PathTable(topo_, params_.taxonomy);
}

void Engine::check_rank(int rank) const {
  if (rank < 0 || rank >= topo_.num_ranks()) {
    throw std::out_of_range("Engine: rank " + std::to_string(rank) +
                            " out of range");
  }
}

int Engine::isend(int src, int dst, std::int64_t bytes, int tag,
                  MemSpace space, int rail, int depends_on) {
  check_rank(src);
  check_rank(dst);
  if (bytes < 0) throw std::invalid_argument("Engine::isend: negative size");
  if (rail >= std::max(1, params_.injection.nics_per_node)) {
    throw std::invalid_argument("Engine::isend: rail " + std::to_string(rail) +
                                " >= " +
                                std::to_string(std::max(
                                    1, params_.injection.nics_per_node)) +
                                " NIC lane(s)");
  }
  if (depends_on >= next_seq_) {
    throw std::invalid_argument(
        "Engine::isend: depends_on references a not-yet-posted request");
  }
  clock_[src] += params_.overheads.post_overhead;
  sends_.push_back({src, dst, bytes, tag, space, clock_[src], next_seq_++,
                    rail < 0 ? -1 : rail, depends_on < 0 ? -1 : depends_on});
  return next_seq_ - 1;
}

int Engine::irecv(int dst, int src, std::int64_t bytes, int tag,
                  MemSpace space) {
  check_rank(src);
  check_rank(dst);
  if (bytes < 0) throw std::invalid_argument("Engine::irecv: negative size");
  clock_[dst] += params_.overheads.post_overhead;
  recvs_.push_back({dst, src, bytes, tag, space, clock_[dst], next_seq_++});
  return next_seq_ - 1;
}

// Forced inline: copy() and the compiled posting pass (run_phase) share
// these bodies, and left to itself GCC emits a call per copy in
// run_phase's loop, which slowed BM_RepCompiledWide by ~15%.
[[gnu::always_inline]] inline void Engine::run_copy(
    const LoweredPhase::CopyOp& op) {
  BusyServer& dma =
      op.dir == CopyDir::HostToDevice ? dma_h2d_[op.gpu] : dma_d2h_[op.gpu];
  const double ready = clock_[op.rank];
  const double start = dma.acquire(ready, op.occupancy);
  double base = op.duration_base;
  if (faults_) base = faults_->rank_compute_factor(op.rank) * base;
  const double duration = noise_.perturb(base);
  clock_[op.rank] = start + duration;

  if (metrics_inv_ || metrics_smp_) {
    const obs::SimResource res = op.dir == CopyDir::HostToDevice
                                     ? obs::SimResource::DmaH2D
                                     : obs::SimResource::DmaD2H;
    // The DMA occupancy is deterministic (invariant tier); the wait and
    // the noised duration are sampled statistics.
    if (metrics_inv_) metrics_inv_->on_occupancy(res, op.occupancy);
    if (metrics_smp_) {
      metrics_smp_->on_wait(res, ready, start);
      metrics_smp_->on_copy(op.dir, op.sharing_procs, op.bytes, duration);
    }
  }
  if (tracing_) {
    trace_.copies.push_back({op.rank, op.gpu, op.dir, op.bytes,
                             op.sharing_procs, start, clock_[op.rank]});
  }
}

[[gnu::always_inline]] inline void Engine::run_pack(
    const LoweredPhase::PackOp& op) {
  double base = op.duration_base;
  if (faults_) base = faults_->rank_compute_factor(op.rank) * base;
  const double duration = noise_.perturb(base);
  clock_[op.rank] += duration;
  if (metrics_smp_) metrics_smp_->on_pack(op.bytes, duration);
}

void Engine::copy(int rank, int gpu, CopyDir dir, std::int64_t bytes,
                  int sharing_procs) {
  check_rank(rank);
  if (gpu < 0 || gpu >= topo_.num_gpus()) {
    throw std::out_of_range("Engine::copy: bad gpu");
  }
  if (bytes < 0) throw std::invalid_argument("Engine::copy: negative size");
  if (sharing_procs < 1) {
    throw std::invalid_argument("Engine::copy: sharing_procs must be >= 1");
  }

  run_copy(lower_copy(params_, rank, gpu, dir, bytes, sharing_procs));
}

void Engine::set_fabric(const FatTreeConfig& config) {
  fabric_.emplace(config, topo_.num_nodes(),
                  params_.injection.inv_rate_cpu);
}

void Engine::compute(int rank, double seconds) {
  check_rank(rank);
  if (seconds < 0) throw std::invalid_argument("Engine::compute: negative");
  // Straggler ranks dilate their local work multiplicatively (a factor of
  // exactly 1.0 is bit-exact, so neutral fault models change nothing).
  if (faults_) seconds = faults_->rank_compute_factor(rank) * seconds;
  clock_[rank] += noise_.perturb(seconds);
}

void Engine::pack(int rank, std::int64_t bytes) {
  check_rank(rank);
  if (bytes < 0) throw std::invalid_argument("Engine::pack: negative size");
  run_pack(lower_pack(params_, rank, bytes));
}

void Engine::set_metrics(obs::EngineMetrics* sink, bool record_invariants,
                         bool record_samples) {
  metrics_ = sink;
  metrics_inv_ = record_invariants ? sink : nullptr;
  metrics_smp_ = record_samples ? sink : nullptr;
  if (metrics_) {
    metrics_->ensure_lanes(static_cast<int>(nic_out_.size()),
                           std::max(1, params_.injection.nics_per_node));
    // Label the sink's path slots with this machine's declared class names
    // so exports speak the machine's taxonomy, not the fixed enum.
    metrics_->path_names.clear();
    for (const PathClassDef& c : params_.taxonomy.classes()) {
      metrics_->path_names.push_back(c.name);
    }
  }
}

void Engine::set_faults(const FaultModel* faults) {
  if (faults != nullptr && faults->empty()) faults = nullptr;
  if (faults != nullptr) {
    faults->validate(topo_.num_ranks(), params_.taxonomy.num_classes(),
                     topo_.num_nodes(),
                     std::max(1, params_.injection.nics_per_node));
  }
  faults_ = faults;
  refresh_fault_stream();
}

void Engine::refresh_fault_stream() noexcept {
  // Salted double-mix: decoheres the fault stream from the noise stream
  // (which consumes the raw run seed) and from other fault-model seeds.
  constexpr std::uint64_t kFaultStreamSalt = 0xfa17'5eedULL;
  fault_stream_ =
      faults_ ? mix_seed(mix_seed(run_seed_, kFaultStreamSalt), faults_->seed)
              : 0;
}

void Engine::throw_retries_exhausted(std::int32_t src, std::int32_t dst,
                                     std::uint8_t path_id,
                                     int attempts) const {
  throw FaultAbort(FaultAbort::Reason::RetriesExhausted, "", src, dst,
                   path_id, params_.taxonomy.cls(path_id).name, attempts);
}

void Engine::throw_nic_unavailable(std::int32_t src, std::int32_t dst,
                                   std::uint8_t path_id) const {
  throw FaultAbort(FaultAbort::Reason::NicUnavailable, "", src, dst, path_id,
                   params_.taxonomy.cls(path_id).name, 0);
}

void Engine::fail_resolve(const std::string& what) {
  // A failed resolve drops every pending operation so the engine is not
  // left unusable-yet-has_pending(); clocks keep the posting overheads
  // already charged, so reset() is the full-recovery path.
  sends_.clear();
  recvs_.clear();
  throw std::logic_error("Engine::resolve: " + what);
}

void Engine::resolve() {
  // ---- Match sends to receives by (src, dst, tag), FIFO within a key. ----
  // Allocation-free matching: instead of building a std::map of per-key
  // receive lists each call, sort index arrays (member scratch) of both
  // sides by (key, seq) and walk them in lockstep -- within one key the
  // seq order gives FIFO pairing, and any key imbalance is an unmatched
  // operation.
  using Key = std::tuple<int, int, int>;  // (src, dst, tag)
  const auto send_key = [](const PendingOp& s) {
    return Key{s.self, s.peer, s.tag};
  };
  const auto recv_key = [](const PendingOp& r) {
    return Key{r.peer, r.self, r.tag};  // receive stores (dst, src)
  };

  send_order_scratch_.resize(sends_.size());
  for (std::uint32_t i = 0; i < sends_.size(); ++i) send_order_scratch_[i] = i;
  std::sort(send_order_scratch_.begin(), send_order_scratch_.end(),
            [&](std::uint32_t a, std::uint32_t b) {
              const Key ka = send_key(sends_[a]), kb = send_key(sends_[b]);
              if (ka != kb) return ka < kb;
              return sends_[a].seq < sends_[b].seq;
            });
  recv_order_scratch_.resize(recvs_.size());
  for (std::uint32_t i = 0; i < recvs_.size(); ++i) recv_order_scratch_[i] = i;
  std::sort(recv_order_scratch_.begin(), recv_order_scratch_.end(),
            [&](std::uint32_t a, std::uint32_t b) {
              const Key ka = recv_key(recvs_[a]), kb = recv_key(recvs_[b]);
              if (ka != kb) return ka < kb;
              return recvs_[a].seq < recvs_[b].seq;
            });

  LoweredPhase& phase = resolve_phase_;
  phase.clear();
  phase.recv_of_send.resize(sends_.size());
  std::size_t si = 0, ri = 0;
  while (si < sends_.size() && ri < recvs_.size()) {
    const PendingOp& s = sends_[send_order_scratch_[si]];
    const PendingOp& r = recvs_[recv_order_scratch_[ri]];
    const Key ks = send_key(s), kr = recv_key(r);
    if (ks < kr) {
      fail_resolve("unmatched send " + std::to_string(s.self) + "->" +
                   std::to_string(s.peer) + " tag " + std::to_string(s.tag));
    }
    if (kr < ks) {
      fail_resolve("unmatched receive " + std::to_string(r.peer) + "->" +
                   std::to_string(r.self) + " tag " + std::to_string(r.tag));
    }
    if (r.bytes != s.bytes) {
      fail_resolve("size mismatch " + std::to_string(s.self) + "->" +
                   std::to_string(s.peer) + " tag " + std::to_string(s.tag) +
                   ": send " + std::to_string(s.bytes) + "B vs recv " +
                   std::to_string(r.bytes) + "B");
    }
    phase.recv_of_send[send_order_scratch_[si]] = recv_order_scratch_[ri];
    ++si;
    ++ri;
  }
  if (si < sends_.size()) {
    const PendingOp& s = sends_[send_order_scratch_[si]];
    fail_resolve("unmatched send " + std::to_string(s.self) + "->" +
                 std::to_string(s.peer) + " tag " + std::to_string(s.tag));
  }
  if (ri < recvs_.size()) {
    fail_resolve(std::to_string(recvs_.size() - ri) +
                 " unmatched receive(s)");
  }

  // ---- Lower the matched batch, sends in posting (= seq) order. ----
  recv_depth_scratch_.assign(static_cast<std::size_t>(topo_.num_ranks()), 0);
  for (const PendingOp& r : recvs_) ++recv_depth_scratch_[r.self];
  post_send_scratch_.resize(sends_.size());
  for (std::size_t i = 0; i < sends_.size(); ++i) {
    const PendingOp& s = sends_[i];
    std::int32_t dep = -1;
    if (s.dep_seq >= 0) {
      // sends_ is seq-ascending, so the gating send is a binary search
      // away -- or not in this batch at all.
      const auto it = std::lower_bound(
          sends_.begin(), sends_.end(), s.dep_seq,
          [](const PendingOp& p, int seq) { return p.seq < seq; });
      if (it == sends_.end() || it->seq != s.dep_seq) {
        fail_resolve("send " + std::to_string(s.seq) +
                     " depends on request " + std::to_string(s.dep_seq) +
                     ", which is not a send");
      }
      dep = static_cast<std::int32_t>(it - sends_.begin());
    }
    phase.msg_dep.push_back(dep);
    lower_message(phase, topo_, params_, paths_, s.self, s.peer, s.bytes, s.tag,
                  s.space, s.rail);
    post_send_scratch_[i] = s.post_time;
  }
  phase.add_queue_search(params_, recv_depth_scratch_);
  phase.build_waves(wave_depth_scratch_);
  post_recv_scratch_.resize(recvs_.size());
  for (std::size_t j = 0; j < recvs_.size(); ++j) {
    post_recv_scratch_[j] = recvs_[j].post_time;
  }

  // A mid-plan FaultAbort honors the same failure contract as a matching
  // failure: every pending operation is dropped so the engine is reusable
  // (reset() for full recovery), then the structured error propagates.
  try {
    resolve_order_scratch_.clear();  // cold sort: no previous order
    schedule_messages(phase, resolve_order_scratch_);
  } catch (...) {
    sends_.clear();
    recvs_.clear();
    throw;
  }

  sends_.clear();
  recvs_.clear();
}

Engine::FaultMsgState Engine::fault_prepare(
    const LoweredPhase::MessageSchedule& msg, std::uint8_t path_id,
    double ready) {
  FaultMsgState st;
  st.msg_id = fault_msg_counter_++;
  const int lanes = std::max(1, params_.injection.nics_per_node);
  FaultModel::MessageView view;
  view.src = msg.src;
  view.path_id = path_id;
  view.off_node = msg.off_node;
  view.src_node = msg.src_node;
  view.dst_node = msg.dst_node;
  view.src_lane = msg.off_node ? msg.src_nic - msg.src_node * lanes : -1;
  view.dst_lane = msg.off_node ? msg.dst_nic - msg.dst_node * lanes : -1;
  view.send_occupancy = msg.send_occupancy;
  view.drain_occupancy = msg.drain_occupancy;
  view.completion_base = msg.completion_base;
  view.nic_occupancy = msg.nic_occupancy;
  view.nic_overhead = params_.overheads.nic_message_overhead;
  const FaultModel::EffectiveMessage eff = faults_->effective(view, ready);
  st.send_occupancy = eff.send_occupancy;
  st.drain_occupancy = eff.drain_occupancy;
  st.completion_base = eff.completion_base;
  st.nic_occupancy_src = eff.nic_occupancy_src;
  st.nic_occupancy_dst = eff.nic_occupancy_dst;
  st.degraded = eff.degraded;
  st.extra_seconds = eff.extra_seconds;
  st.loss = faults_->loss_rule(path_id, ready);
  return st;
}

std::int32_t Engine::fault_route_nic(std::int32_t node,
                                     std::int32_t nic_server, double& t,
                                     bool& failover, std::int32_t src,
                                     std::int32_t dst, std::uint8_t path_id) {
  const int lanes = std::max(1, params_.injection.nics_per_node);
  const FaultModel::LaneRoute r =
      faults_->route_lane(node, nic_server - node * lanes, lanes, t);
  if (r.at == std::numeric_limits<double>::infinity()) {
    throw_nic_unavailable(src, dst, path_id);
  }
  failover = r.failover;
  if (r.at > t) t = r.at;
  return node * lanes + r.lane;
}

namespace {

/// Sort `order` into exact (ready, index)-ascending order.
///
/// Keys are packed as (bit pattern of ready, index) integer pairs: ready
/// times are sums and maxima of nonnegative finite durations, and the
/// IEEE-754 bit patterns of nonnegative doubles order identically to their
/// values, so one integer pair comparison reproduces the exact
/// (ready, index) strict total order with no double-compare branches.
///
/// When `order` already holds a permutation of the right size -- the
/// previous repetition's schedule order -- the keys are built in that order
/// and sorted by a warm-start insertion pass.  On small phases jitter
/// barely reorders ready times between repetitions (~8 shifts per key on
/// BM_RepCompiled's ~65-message phases), where a comparison sort on freshly
/// jittered keys pays a misprediction per comparison.  On phases with
/// thousands of messages jitter reorders nearly everything and insertion
/// turns quadratic (~200 shifts per key over the Fig-5.1 grid), so the pass
/// runs on a budget: the first k keys may make at most
/// kShiftsPerCompare * bit_width(n) * k shifts, which caps the whole pass
/// at the order of a comparison sort's n log n and gives up within a few
/// keys on a phase that is disordered throughout.  Past the budget the keys
/// are finished by std::sort.  A stale hint (another plan's order of the
/// same size on a reused engine) is bounded the same way.  Any permutation
/// and either path yield the same unique total order, so results never
/// depend on engine history; a stale hint only costs time.
void sort_schedule_order(std::vector<std::uint32_t>& order,
                         std::vector<std::pair<std::uint64_t, std::uint32_t>>&
                             keyed,
                         std::size_t count, const double* ready) {
  // The smallest factor at which BM_RepCompiled's phases never exceed it.
  constexpr std::size_t kShiftsPerCompare = 4;
  const bool warm = order.size() == count;
  keyed.resize(count);
  for (std::size_t k = 0; k < count; ++k) {
    const std::uint32_t i = warm ? order[k] : static_cast<std::uint32_t>(k);
    std::uint64_t bits;
    std::memcpy(&bits, &ready[i], sizeof bits);
    keyed[k] = {bits, i};
  }
  bool sorted = warm;
  if (warm) {
    const std::size_t per_key =
        kShiftsPerCompare * static_cast<std::size_t>(std::bit_width(count));
    std::size_t shifts = 0;
    for (std::size_t k = 1; k < count; ++k) {
      const std::pair<std::uint64_t, std::uint32_t> v = keyed[k];
      std::size_t j = k;
      while (j > 0 && v < keyed[j - 1]) {
        keyed[j] = keyed[j - 1];
        --j;
      }
      keyed[j] = v;
      shifts += k - j;
      if (shifts > per_key * k) {
        sorted = false;
        break;
      }
    }
  } else {
    order.resize(count);
  }
  if (!sorted) std::sort(keyed.begin(), keyed.end());
  for (std::size_t k = 0; k < count; ++k) order[k] = keyed[k].second;
}

/// Subset variant of sort_schedule_order for one dependency wave: sorts the
/// explicit `members` list into (ready, index) order.  Always a cold sort --
/// the warm-start cache slots are shared across plans on a reused engine,
/// and a stale hint with the *wrong membership* would schedule the wrong
/// messages, so wave scheduling never reads or writes that cache.
void sort_wave_order(std::vector<std::uint32_t>& order,
                     std::vector<std::pair<std::uint64_t, std::uint32_t>>&
                         keyed,
                     const std::uint32_t* members, std::size_t count,
                     const double* ready) {
  keyed.resize(count);
  for (std::size_t k = 0; k < count; ++k) {
    const std::uint32_t i = members[k];
    std::uint64_t bits;
    std::memcpy(&bits, &ready[i], sizeof bits);
    keyed[k] = {bits, i};
  }
  std::sort(keyed.begin(), keyed.end());
  order.resize(count);
  for (std::size_t k = 0; k < count; ++k) order[k] = keyed[k].second;
}

}  // namespace

void Engine::run_phase(const LoweredPhase& phase,
                       std::vector<std::uint32_t>& order) {
  // ---- Posting pass, in op order.  Copies and packs draw noise here,
  // exactly where posting them one by one draws it. ----
  const double post_overhead = params_.overheads.post_overhead;
  const std::size_t num_messages = phase.messages.size();
  post_send_scratch_.resize(num_messages);
  post_recv_scratch_.resize(num_messages);
  for (const PhaseStep& step : phase.steps) {
    switch (step.kind) {
      case StepKind::Message: {
        const LoweredPhase::MessageSchedule& msg = phase.messages[step.index];
        clock_[msg.src] += post_overhead;  // isend posting
        post_send_scratch_[step.index] = clock_[msg.src];
        clock_[msg.dst] += post_overhead;  // irecv posting
        post_recv_scratch_[step.index] = clock_[msg.dst];
        break;
      }
      case StepKind::Copy:
        run_copy(phase.copies[step.index]);
        break;
      case StepKind::Pack:
        run_pack(phase.packs[step.index]);
        break;
    }
  }
  schedule_messages(phase, order);
}

void Engine::schedule_messages(const LoweredPhase& phase,
                               std::vector<std::uint32_t>& order) {
  const std::size_t num_messages = phase.messages.size();
  ready_scratch_.resize(num_messages);
  for (std::uint32_t i = 0; i < num_messages; ++i) {
    ready_scratch_[i] =
        phase.messages[i].rendezvous
            ? std::max(post_send_scratch_[i],
                       post_recv_scratch_[phase.recv_of_send[i]])
            : post_send_scratch_[i];
  }

  // ---- One message: only queueing, one noise draw per attempt, clock
  // advancement.  Returns its completion time (what a dependent message in
  // a later wave becomes ready at). ----
  const auto schedule_message = [&](std::uint32_t i, double ready0) -> double {
    const LoweredPhase::MessageSchedule& msg = phase.messages[i];

    FaultMsgState fst;
    fst.send_occupancy = msg.send_occupancy;
    fst.drain_occupancy = msg.drain_occupancy;
    fst.completion_base = msg.completion_base;
    fst.nic_occupancy_src = msg.nic_occupancy;
    fst.nic_occupancy_dst = msg.nic_occupancy;
    std::uint8_t fault_path = 0;
    if (faults_) {
      fault_path = phase.message_meta[i].path_id;
      fst = fault_prepare(msg, fault_path, ready0);
      if (fst.degraded && metrics_smp_) {
        metrics_smp_->on_fault_degraded(fault_path, fst.extra_seconds);
      }
    }

    const double hop_latency =
        (msg.off_node && fabric_)
            ? fabric_->hop_latency(msg.src_node, msg.dst_node)
            : 0.0;

    // Send/resend loop.  Without a matching loss rule (fst.loss == nullptr)
    // the body runs exactly once.  A lost attempt still consumed every
    // resource it acquired (the wire time is real); the retry re-queues
    // from scratch after the backoff delay.
    double ready = ready0;
    double t = 0.0;
    double completion = 0.0;
    std::int32_t egress_server = -1;  ///< last attempt's NIC lane server
    for (int attempt = 0;;) {
      // Sender-side occupancy: the sending process cannot initiate the
      // next message until this one's latency+transfer work is handed off.
      t = send_port_[msg.src].acquire(ready, fst.send_occupancy);
      if (metrics_inv_) {
        if (attempt == 0) {
          const LoweredPhase::MessageMeta& meta = phase.message_meta[i];
          metrics_inv_->on_message(meta.path_id, meta.protocol, msg.bytes);
        }
        metrics_inv_->on_occupancy(obs::SimResource::SendPort,
                                   fst.send_occupancy);
      }
      if (metrics_smp_) {
        metrics_smp_->on_wait(obs::SimResource::SendPort, ready, t);
      }
      if (msg.off_node) {
        std::int32_t out_server = msg.src_nic;
        if (faults_ && faults_->has_outages()) {
          bool failover = false;
          out_server = fault_route_nic(msg.src_node, msg.src_nic, t, failover,
                                       msg.src, msg.dst, fault_path);
          if (failover && metrics_smp_) metrics_smp_->on_fault_failover();
        }
        egress_server = out_server;
        const double t_out =
            nic_out_[out_server].acquire(t, fst.nic_occupancy_src);
        if (metrics_inv_) {
          metrics_inv_->on_occupancy(obs::SimResource::NicOut,
                                     fst.nic_occupancy_src);
          if (attempt == 0) {
            metrics_inv_->on_nic_egress(out_server, msg.bytes, msg.rail >= 0);
          }
        }
        if (metrics_smp_) {
          metrics_smp_->on_wait(obs::SimResource::NicOut, t, t_out);
        }
        t = t_out;
        if (fabric_) {
          const double t_fab =
              fabric_->acquire(msg.src_node, msg.dst_node, msg.bytes, t);
          // Fabric wait folds queueing and link serialization together
          // (the fabric returns only the final acquire time).
          if (metrics_smp_) {
            metrics_smp_->on_wait(obs::SimResource::FabricLink, t, t_fab);
          }
          t = t_fab;
        }
        std::int32_t in_server = msg.dst_nic;
        if (faults_ && faults_->has_outages()) {
          bool failover = false;
          in_server = fault_route_nic(msg.dst_node, msg.dst_nic, t, failover,
                                      msg.src, msg.dst, fault_path);
          if (failover && metrics_smp_) metrics_smp_->on_fault_failover();
        }
        const double t_in = nic_in_[in_server].acquire(t, fst.nic_occupancy_dst);
        if (metrics_inv_) {
          metrics_inv_->on_occupancy(obs::SimResource::NicIn,
                                     fst.nic_occupancy_dst);
        }
        if (metrics_smp_) {
          metrics_smp_->on_wait(obs::SimResource::NicIn, t, t_in);
        }
        t = t_in;
      }
      // Receiver-side drain occupancy.
      const double t_drain =
          recv_port_[msg.dst].acquire(t, fst.drain_occupancy);
      if (metrics_inv_) {
        metrics_inv_->on_occupancy(obs::SimResource::RecvPort,
                                   fst.drain_occupancy);
      }
      if (metrics_smp_) {
        metrics_smp_->on_wait(obs::SimResource::RecvPort, t, t_drain);
      }
      t = t_drain;

      completion = t + noise_.perturb(fst.completion_base) + hop_latency;

      if (fault_lost(fst, attempt)) {
        ++attempt;
        if (attempt >= fst.loss->retry.max_attempts) {
          throw_retries_exhausted(msg.src, msg.dst, fault_path, attempt);
        }
        const double delay = retry_delay(fst.loss->retry, attempt - 1);
        if (metrics_smp_) {
          const int lanes = std::max(1, params_.injection.nics_per_node);
          metrics_smp_->on_fault_retry(
              delay,
              egress_server < 0 ? -1 : egress_server - msg.src_node * lanes);
        }
        ready = completion + delay;
        continue;
      }
      break;
    }

    // Sender finishes when its buffer may be reused: for rendezvous that is
    // the full transfer; for short/eager the data is buffered once the
    // local handoff (port occupancy) completes.
    const double sender_done =
        msg.rendezvous ? completion : send_port_[msg.src].free_at();
    clock_[msg.src] = std::max(clock_[msg.src], sender_done);
    clock_[msg.dst] = std::max(clock_[msg.dst], completion);

    if (tracing_) {
      const LoweredPhase::MessageMeta& meta = phase.message_meta[i];
      trace_.messages.push_back({msg.src, msg.dst, msg.bytes, meta.tag,
                                 meta.space, meta.protocol, meta.path, ready0,
                                 t, completion});
    }
    return completion;
  };

  if (phase.num_waves() == 1) {
    sort_schedule_order(order, sched_key_scratch_, num_messages,
                        ready_scratch_.data());
    for (const std::uint32_t i : order) schedule_message(i, ready_scratch_[i]);
  } else {
    // Dependency waves (split plans): a dependent message is ready no
    // earlier than its gating message's completion.  Each wave sorts its
    // own members cold -- see sort_wave_order on why the warm cache must
    // not be used here.
    completion_scratch_.assign(num_messages, 0.0);
    for (std::size_t w = 0; w + 1 < phase.wave_begin.size(); ++w) {
      const std::uint32_t* members =
          phase.wave_members.data() + phase.wave_begin[w];
      const std::size_t count = phase.wave_begin[w + 1] - phase.wave_begin[w];
      for (std::size_t k = 0; k < count; ++k) {
        const std::uint32_t i = members[k];
        const std::int32_t d = phase.msg_dep[i];
        if (d >= 0) {
          ready_scratch_[i] =
              std::max(ready_scratch_[i],
                       completion_scratch_[static_cast<std::size_t>(d)]);
        }
      }
      sort_wave_order(wave_order_scratch_, sched_key_scratch_, members, count,
                      ready_scratch_.data());
      for (const std::uint32_t i : wave_order_scratch_) {
        completion_scratch_[i] = schedule_message(i, ready_scratch_[i]);
      }
    }
  }
  network_bytes_ += phase.network_bytes;
  network_messages_ += phase.network_messages;
}

double Engine::clock(int rank) const {
  check_rank(rank);
  return clock_[rank];
}

double Engine::max_clock() const {
  // Four independent accumulators: a single running max is a chain of
  // data-dependent maxsd ops (3-4 cycles each), which dominates the metrics
  // phase-end path on wide topologies.  Clocks are non-negative, so 0 is a
  // safe identity.
  const double* p = clock_.data();
  const std::size_t n = clock_.size();
  double m0 = 0.0;
  double m1 = 0.0;
  double m2 = 0.0;
  double m3 = 0.0;
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    m0 = m0 < p[i] ? p[i] : m0;
    m1 = m1 < p[i + 1] ? p[i + 1] : m1;
    m2 = m2 < p[i + 2] ? p[i + 2] : m2;
    m3 = m3 < p[i + 3] ? p[i + 3] : m3;
  }
  for (; i < n; ++i) m0 = m0 < p[i] ? p[i] : m0;
  m0 = m0 < m1 ? m1 : m0;
  m2 = m2 < m3 ? m3 : m2;
  return m0 < m2 ? m2 : m0;
}

void Engine::reset() {
  std::fill(clock_.begin(), clock_.end(), 0.0);
  for (auto& r : send_port_) r.reset();
  for (auto& r : recv_port_) r.reset();
  for (auto& r : nic_out_) r.reset();
  for (auto& r : nic_in_) r.reset();
  for (auto& r : dma_h2d_) r.reset();
  for (auto& r : dma_d2h_) r.reset();
  if (fabric_) fabric_->reset();
  sends_.clear();
  recvs_.clear();
  next_seq_ = 0;
  trace_.clear();
  network_bytes_ = 0;
  network_messages_ = 0;
  fault_msg_counter_ = 0;
}

void Engine::reset(std::uint64_t noise_seed) {
  reset();
  noise_.reseed(noise_seed);
  run_seed_ = noise_seed;
  refresh_fault_stream();
}

}  // namespace hetcomm
