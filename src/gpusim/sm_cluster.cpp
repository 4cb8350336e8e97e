#include "gpusim/sm_cluster.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

#include "common/check.hpp"

namespace ssm {

SmCluster::SmCluster(std::shared_ptr<const GpuConfig> cfg,
                     std::shared_ptr<const KernelProfile> kernel, Rng rng,
                     int cluster_id)
    : cfg_(std::move(cfg)), kernel_(std::move(kernel)),
      cluster_id_(cluster_id) {
  SSM_CHECK(cfg_ != nullptr && kernel_ != nullptr);
  const int warps =
      std::min(kernel_->warps_per_cluster, cfg_->max_warps_per_cluster);
  SSM_CHECK(warps > 0 && warps <= kWakeWarpMask + 1);
  warps_.reserve(static_cast<std::size_t>(warps));
  wake_heap_.assign(static_cast<std::size_t>(warps), 0);
  wheel_key_.assign(static_cast<std::size_t>(warps), 0);
  wheel_next_.assign(static_cast<std::size_t>(warps), -1);
  ready_ring_.assign(static_cast<std::size_t>(warps), 0);
  for (int w = 0; w < warps; ++w) {
    WarpState ws;
    ws.rng = rng.fork(static_cast<std::uint64_t>(w) * 7919u + 13u);
    ws.loops_left = kernel_->phase_loops;
    ws.insts_left = kernel_->phases.front().insts_per_warp;
    warps_.push_back(ws);
    // All warps start ready at time 0; stagger by a cycle-ish amount so the
    // initial issue pattern is not perfectly lockstep.
    heapPush(wakeKey(w, static_cast<TimeNs>(w % 4)));
  }
  // Hoist the per-event cumulative-mix additions out of sampleClass: the
  // boundaries are the same left-to-right partial sums the old code rebuilt
  // for every issued instruction, so lookups stay bit-identical.
  mix_cum_.reserve(kernel_->phases.size());
  for (const PhaseProfile& ph : kernel_->phases) {
    std::array<double, 6> cum{};
    cum[0] = ph.mix.ialu;
    cum[1] = cum[0] + ph.mix.falu;
    cum[2] = cum[1] + ph.mix.sfu;
    cum[3] = cum[2] + ph.mix.load;
    cum[4] = cum[3] + ph.mix.store;
    cum[5] = cum[4] + ph.mix.shared;
    // Integerized boundaries: the sampled u compares as the raw 53-bit
    // draw m (u = m * 2^-53 exactly), and `u >= cum` holds iff
    // `m >= ceil(cum * 2^53)` — the power-of-two scaling is exact, ceil
    // is exact, and an integer m clears a real bound iff it clears the
    // bound's ceiling. Integer compares keep the rank computation off the
    // FP compare ports in the hottest loop of the simulator.
    std::array<std::uint64_t, 6> icum{};
    for (int k = 0; k < 6; ++k) {
      const double scaled = std::ceil(cum[static_cast<std::size_t>(k)] * 0x1p53);
      icum[static_cast<std::size_t>(k)] =
          scaled >= 0x1p63 ? ~0ull : static_cast<std::uint64_t>(scaled);
    }
    mix_cum_.push_back(icum);
  }
}

SmCluster::InstClass SmCluster::sampleClass(std::size_t phase,
                                            std::uint64_t m) const noexcept {
  // Branchless rank over the precomputed boundaries: `m` is the raw
  // 53-bit uniform draw, so a compare chain would mispredict on most
  // draws. The boundaries are non-decreasing, which makes the sum of
  // cleared boundaries exactly the index the old compare chain returned.
  const std::array<std::uint64_t, 6>& cum = mix_cum_[phase];
  const int rank = static_cast<int>(m >= cum[0]) + static_cast<int>(m >= cum[1]) +
                   static_cast<int>(m >= cum[2]) + static_cast<int>(m >= cum[3]) +
                   static_cast<int>(m >= cum[4]) + static_cast<int>(m >= cum[5]);
  return static_cast<InstClass>(rank);
}

void SmCluster::advanceWarpProgram(WarpState& warp, TimeNs now) {
  --warp.insts_left;
  if (warp.insts_left > 0) return;
  // Move to the next phase (or loop / retire).
  ++warp.phase;
  if (warp.phase >= static_cast<int>(kernel_->phases.size())) {
    warp.phase = 0;
    --warp.loops_left;
    if (warp.loops_left <= 0) {
      warp.done = true;
      ++warps_done_;
      finish_ns_ = std::max(finish_ns_, now);
      return;
    }
  }
  warp.insts_left =
      kernel_->phases[static_cast<std::size_t>(warp.phase)].insts_per_warp;
}

void SmCluster::drainExpiredMisses(TimeNs now) {
  while (!misses_.empty() && misses_.top() <= now) misses_.pop();
}

TimeNs SmCluster::issueOne(int w, TimeNs now, EpochCtx& ctx) {
  WarpState& warp = warps_[static_cast<std::size_t>(w)];
  const PhaseProfile& ph = ctx.phases[static_cast<std::size_t>(warp.phase)];
  const auto nsToCycles = [&](TimeNs ns) {
    return static_cast<double>(ns) / ctx.ns_per_cycle;
  };

  // Same single RNG draw nextDouble() performed, compared pre-scaling.
  const InstClass cls = sampleClass(static_cast<std::size_t>(warp.phase),
                                    warp.rng.nextU64() >> 11);

  ++ctx.issued;
  ++total_insts_;
  ++ctx.inst_count[static_cast<std::size_t>(cls)];

  // Default: the warp can issue again next cycle.
  TimeNs ready_at = now + ctx.one_cycle_ns;

  switch (cls) {
    case InstClass::kIalu:
    case InstClass::kFalu:
    case InstClass::kSfu:
    case InstClass::kBranch: {
      // One table-driven arm for every single-hazard class: a fixed
      // execution latency guarded by one Bernoulli draw. The draw order and
      // charged amounts match the per-class arms this replaces; only the
      // unpredictable per-class branching is gone.
      const bool is_branch = cls == InstClass::kBranch;
      ctx.alu_issued += is_branch ? 0 : 1;
      const double p = is_branch ? ph.divergence : ph.dep_prob;
      if (warp.rng.nextBernoulli(p)) {
        // The consumer is adjacent (or the branch diverged): the warp
        // waits out the hazard.
        ready_at = now + ctx.class_lat_ns[static_cast<std::size_t>(cls)];
        (is_branch ? ctx.stall_control : ctx.stall_exec_dep) +=
            ctx.class_stall[static_cast<std::size_t>(cls)];
      }
      break;
    }
    case InstClass::kLoad: {
      ++ctx.mem_issued;
      ++ctx.l1_read_access;
      if (warp.rng.nextBernoulli(ph.l1_hit_rate)) {
        // L1 hit: the dependent-use latency is in core cycles, so this
        // hazard *does* scale with frequency (a key analytical-model trap).
        if (warp.rng.nextBernoulli(ph.dep_prob)) {
          ready_at = now + ctx.l1_hit_lat_ns;
          ctx.stall_mem_load += static_cast<double>(cfg_->l1_hit_latency - 1);
        }
      } else {
        ++ctx.l1_read_miss;
        ++ctx.l2_access;
        TimeNs lat_ns = cfg_->l2_hit_latency_ns;
        if (!warp.rng.nextBernoulli(ph.l2_hit_rate)) {
          ++ctx.l2_miss;
          ++ctx.dram_reqs;
          ctx.dram_bytes += cfg_->bytes_per_miss;
          lat_ns = cfg_->dram_latency_ns;
        }
        lat_ns = static_cast<TimeNs>(static_cast<double>(lat_ns) *
                                     ctx.env->latency_mult);

        drainExpiredMisses(now);
        TimeNs start = now;
        if (static_cast<int>(misses_.size()) >= cfg_->mshr_per_cluster) {
          // MSHRs full: the request waits for the oldest miss to retire.
          const TimeNs free_at = misses_.top();
          ++ctx.mshr_full_events;
          ctx.stall_mem_load += nsToCycles(free_at - now);
          start = free_at;
        }
        const TimeNs done_at = start + lat_ns;
        misses_.push(done_at);
        ctx.mem_lat_sum += static_cast<double>(lat_ns);

        if (warp.miss_done_at > now) {
          // A second overlapping miss: wait for the first, then overlap.
          ctx.stall_mem_load += nsToCycles(warp.miss_done_at - now);
          ready_at = std::max(ready_at, warp.miss_done_at);
        }
        warp.miss_done_at = done_at;
        warp.grace_left = ph.ilp;
      }
      break;
    }
    case InstClass::kStore: {
      ++ctx.mem_issued;
      ++ctx.l1_write_access;
      if (!warp.rng.nextBernoulli(ph.l1_hit_rate)) {
        ++ctx.l1_write_miss;
        ++ctx.dram_reqs;
        ctx.dram_bytes += cfg_->bytes_per_miss;
      }
      if (warp.rng.nextBernoulli(ctx.env->store_stall_prob)) {
        // Store buffer back-pressure: a memory hazard not caused by a load.
        ready_at = now + ctx.store_stall_ns;
        ctx.stall_mem_other +=
            static_cast<double>(cfg_->store_stall_cycles - 1);
        ++ctx.store_buf_full_events;
      }
      break;
    }
    case InstClass::kShared: {
      ++ctx.mem_issued;
      if (warp.rng.nextBernoulli(cfg_->shared_conflict_prob)) {
        ready_at = now + ctx.shared_conflict_ns;
        ctx.stall_mem_other +=
            static_cast<double>(cfg_->shared_conflict_cycles - 1);
      } else if (warp.rng.nextBernoulli(ph.dep_prob)) {
        ready_at = now + ctx.shared_lat_ns;
        ctx.stall_mem_other += static_cast<double>(cfg_->shared_latency - 1);
      }
      break;
    }
  }

  // Memory-level-parallelism bookkeeping: with an open miss the warp may
  // issue `ilp` further instructions, then blocks on the consumer.
  if (warp.miss_done_at > now && cls != InstClass::kLoad) {
    if (warp.grace_left > 0) {
      --warp.grace_left;
    } else if (warp.miss_done_at > ready_at) {
      ctx.stall_mem_load += nsToCycles(warp.miss_done_at - ready_at);
      ready_at = warp.miss_done_at;
    }
  }

  advanceWarpProgram(warp, now);
  return ready_at;
}

ClusterEpochResult SmCluster::runEpoch(TimeNs start_ns, TimeNs len_ns,
                                       FreqMhz freq, bool transitioned,
                                       const MemEnv& env) {
  SSM_CHECK(len_ns > 0 && freq > 0.0);
  // Audit baselines: counters this epoch may only move forward from here.
  [[maybe_unused]] const std::int64_t insts_before = total_insts_;
  [[maybe_unused]] const int done_before = warps_done_;
  ClusterEpochResult res;
  if (done()) {
    res.all_done = true;
    res.cycles = cyclesIn(len_ns, freq);
    return res;
  }

  const TimeNs usable_start =
      start_ns + (transitioned ? cfg_->dvfs_transition_ns : 0);
  const TimeNs end_ns = start_ns + len_ns;
  const double nspc = nsPerCycle(freq);
  const Cycles total_cycles = cyclesIn(end_ns - usable_start, freq);

  const auto latNs = [&](Cycles cyc2) {
    return static_cast<TimeNs>(static_cast<double>(cyc2) * nspc + 0.5);
  };
  const auto stallCycles = [&](Cycles lat) {
    return static_cast<double>(lat - 1);
  };
  EpochCtx ctx{.counters = &res.counters,
               .env = &env,
               .phases = kernel_->phases.data(),
               .ns_per_cycle = nspc,
               .one_cycle_ns = latNs(1),
               .class_lat_ns = {latNs(cfg_->ialu_latency),
                                latNs(cfg_->falu_latency),
                                latNs(cfg_->sfu_latency), 0, 0, 0,
                                latNs(cfg_->branch_resolve_latency)},
               .class_stall = {stallCycles(cfg_->ialu_latency),
                               stallCycles(cfg_->falu_latency),
                               stallCycles(cfg_->sfu_latency), 0.0, 0.0, 0.0,
                               stallCycles(cfg_->branch_resolve_latency)},
               .l1_hit_lat_ns = latNs(cfg_->l1_hit_latency),
               .store_stall_ns = latNs(cfg_->store_stall_cycles),
               .shared_conflict_ns = latNs(cfg_->shared_conflict_cycles),
               .shared_lat_ns = latNs(cfg_->shared_latency),
               .freq = freq};

  // FIFO of issuable warps over the reusable ring (capacity = warp count;
  // each warp is either linked in the wake list or queued here, never both).
  const int ring_cap = static_cast<int>(ready_ring_.size());
  int ring_head = 0;
  int ring_tail = 0;
  int ring_count = 0;
  const auto readyPush = [&](int w) {
    ready_ring_[static_cast<std::size_t>(ring_tail)] = w;
    ring_tail = ring_tail + 1 == ring_cap ? 0 : ring_tail + 1;
    ++ring_count;
  };
  const auto readyPop = [&]() {
    const int w = ready_ring_[static_cast<std::size_t>(ring_head)];
    ring_head = ring_head + 1 == ring_cap ? 0 : ring_head + 1;
    --ring_count;
    return w;
  };

  // --- Bucket-wheel setup. The wheel covers wall-clock offsets
  // [0, wheel_span) from usable_start; anything later lives in the heap
  // and is re-bucketed when a later epoch opens.
  const TimeNs wheel_span =
      std::min<TimeNs>(end_ns - usable_start, kWheelCapNs);
  const bool use_wheel = wheel_span > 0;
  int wheel_count = 0;
  TimeNs drain_floor = -1;  // highest fully-drained wheel offset
  if (use_wheel) {
    const auto span = static_cast<std::size_t>(wheel_span);
    const std::size_t words = (span + 63) / 64;
    if (wheel_head_.size() < span) wheel_head_.resize(span);
    if (wheel_bits_.size() < words) wheel_bits_.resize(words);
    std::fill_n(wheel_head_.begin(), span, -1);
    std::fill_n(wheel_bits_.begin(), words, 0);
  }

  // Inserts clamp to the first undrained bucket: an entry whose true wake
  // time already passed must still surface at the next drain (the heap
  // popped such entries at the following cycle too), and keeping the full
  // key in the chain preserves the (ready_ns, warp) pop order among the
  // bucket's occupants.
  const auto wheelInsert = [&](std::int64_t key) {
    TimeNs off = (key >> kWakeWarpBits) - usable_start;
    if (off <= drain_floor) off = drain_floor + 1;
    if (off >= wheel_span) {
      heapPush(key);
      return;
    }
    const int w = static_cast<int>(key & kWakeWarpMask);
    wheel_key_[static_cast<std::size_t>(w)] = key;
    std::int32_t* slot = &wheel_head_[static_cast<std::size_t>(off)];
    while (*slot != -1 &&
           wheel_key_[static_cast<std::size_t>(*slot)] < key)
      slot = &wheel_next_[static_cast<std::size_t>(*slot)];
    wheel_next_[static_cast<std::size_t>(w)] = *slot;
    *slot = w;
    wheel_bits_[static_cast<std::size_t>(off >> 6)] |= 1ull << (off & 63);
    ++wheel_count;
  };

  // Re-bucket every carried-over wake-up that lands inside this epoch's
  // wheel window. Heap pops come out in ascending key order, so the wheel
  // chains are built sorted.
  if (use_wheel) {
    const TimeNs limit = usable_start + wheel_span;
    while (wake_size_ != 0 && heapTopNs() < limit) wheelInsert(heapPopKey());
  }

  // First occupied wheel offset after drain_floor; -1 when the wheel is
  // empty. One bitmap word covers 64 ns of wall-clock time.
  const auto wheelNextOccupied = [&]() -> TimeNs {
    TimeNs b = drain_floor + 1;
    while (b < wheel_span) {
      const std::uint64_t word =
          wheel_bits_[static_cast<std::size_t>(b >> 6)] & (~0ull << (b & 63));
      if (word != 0) {
        const TimeNs nb = (b & ~TimeNs{63}) + std::countr_zero(word);
        return nb < wheel_span ? nb : -1;
      }
      b = (b & ~TimeNs{63}) + 64;
    }
    return -1;
  };

  const int issue_width = cfg_->issue_width;
  Cycles cyc = 0;
  Cycles last_live_cycle = 0;

  while (cyc < total_cycles) {
    const TimeNs now =
        usable_start + static_cast<TimeNs>(static_cast<double>(cyc) * nspc);

    // Drain every wake-up due by `now`: wheel buckets first (their keys
    // all precede the heap's, which only holds later-than-wheel entries),
    // then any heap entries that fall due (possible only when the epoch
    // outruns kWheelCapNs).
    if (wheel_count != 0) {
      TimeNs lim = now - usable_start;
      if (lim >= wheel_span) lim = wheel_span - 1;
      TimeNs b = drain_floor + 1;
      while (b <= lim) {
        const std::uint64_t word =
            wheel_bits_[static_cast<std::size_t>(b >> 6)] &
            (~0ull << (b & 63));
        if (word == 0) {
          b = (b & ~TimeNs{63}) + 64;
          continue;
        }
        const TimeNs nb = (b & ~TimeNs{63}) + std::countr_zero(word);
        if (nb > lim) break;
        for (int n = wheel_head_[static_cast<std::size_t>(nb)]; n != -1;
             n = wheel_next_[static_cast<std::size_t>(n)]) {
          readyPush(n);
          --wheel_count;
        }
        wheel_head_[static_cast<std::size_t>(nb)] = -1;
        wheel_bits_[static_cast<std::size_t>(nb >> 6)] &=
            ~(1ull << (nb & 63));
        b = nb + 1;
      }
      drain_floor = lim;
    } else if (use_wheel) {
      TimeNs lim = now - usable_start;
      if (lim >= wheel_span) lim = wheel_span - 1;
      drain_floor = lim;
    }
    while (wake_size_ != 0 && heapTopNs() <= now)
      readyPush(static_cast<int>(heapPopKey() & kWakeWarpMask));

    if (ring_count == 0) {
      TimeNs next;
      if (wheel_count != 0) {
        const TimeNs nb = wheelNextOccupied();
        next = static_cast<TimeNs>(
            wheel_key_[static_cast<std::size_t>(
                wheel_head_[static_cast<std::size_t>(nb)])] >>
            kWakeWarpBits);
      } else if (wake_size_ != 0) {
        next = heapTopNs();
      } else {
        break;  // every warp retired
      }
      // Skip ahead to the next wake-up in one step.
      const auto target = static_cast<Cycles>(
          std::ceil(static_cast<double>(next - usable_start) / nspc));
      const Cycles skip = std::max<Cycles>(1, target - cyc);
      ctx.stall_no_ready +=
          static_cast<double>(std::min(skip, total_cycles - cyc));
      cyc += skip;
      last_live_cycle = std::min(cyc, total_cycles);
      continue;
    }

    for (int slot = 0; slot < issue_width && ring_count > 0; ++slot) {
      const int w = readyPop();
      const TimeNs ready_at = issueOne(w, now, ctx);
      if (!warps_[static_cast<std::size_t>(w)].done)
        wheelInsert(wakeKey(w, ready_at));
    }
    ++cyc;
    last_live_cycle = cyc;
  }

  // Hand undrained wheel entries back to the heap (ascending scan keeps
  // the pushes cheap), then park any still-ready warps for the next epoch.
  if (wheel_count != 0) {
    TimeNs b = drain_floor + 1;
    while (b < wheel_span && wheel_count != 0) {
      const std::uint64_t word =
          wheel_bits_[static_cast<std::size_t>(b >> 6)] & (~0ull << (b & 63));
      if (word == 0) {
        b = (b & ~TimeNs{63}) + 64;
        continue;
      }
      const TimeNs nb = (b & ~TimeNs{63}) + std::countr_zero(word);
      for (int n = wheel_head_[static_cast<std::size_t>(nb)]; n != -1;
           n = wheel_next_[static_cast<std::size_t>(n)]) {
        heapPush(wheel_key_[static_cast<std::size_t>(n)]);
        --wheel_count;
      }
      b = nb + 1;
    }
  }
  const TimeNs epoch_close = usable_start + static_cast<TimeNs>(
                                 static_cast<double>(cyc) * nspc);
  while (ring_count > 0)
    heapPush(wakeKey(readyPop(), std::min(epoch_close, end_ns)));

  res.instructions = ctx.issued;
  res.cycles = total_cycles;
  res.all_done = done();
  res.dram_reqs = ctx.dram_reqs;

  const double cyc_d = std::max(1.0, static_cast<double>(total_cycles));
  const double slots = cyc_d * cfg_->issue_width;
  res.issue_act = std::min(1.0, static_cast<double>(ctx.issued) / slots);
  res.alu_act = std::min(1.0, static_cast<double>(ctx.alu_issued) / cyc_d);
  res.mem_act = std::min(1.0, static_cast<double>(ctx.mem_issued) / cyc_d);
  res.active_frac =
      res.all_done ? static_cast<double>(last_live_cycle) / cyc_d : 1.0;

  // Flush the accumulated event counts into the epoch's counter block in
  // one pass (each slot received the same additions in the same order the
  // old per-event path applied, so the values are bit-identical).
  CounterBlock& c = res.counters;
  c.set(CounterId::kInstTotal, static_cast<double>(ctx.issued));
  c.set(CounterId::kInstIalu, static_cast<double>(ctx.inst_count[0]));
  c.set(CounterId::kInstFalu, static_cast<double>(ctx.inst_count[1]));
  c.set(CounterId::kInstSfu, static_cast<double>(ctx.inst_count[2]));
  c.set(CounterId::kInstLoad, static_cast<double>(ctx.inst_count[3]));
  c.set(CounterId::kInstStore, static_cast<double>(ctx.inst_count[4]));
  c.set(CounterId::kInstShared, static_cast<double>(ctx.inst_count[5]));
  c.set(CounterId::kInstBranch, static_cast<double>(ctx.inst_count[6]));
  c.set(CounterId::kL1ReadAccess, static_cast<double>(ctx.l1_read_access));
  c.set(CounterId::kL1ReadMiss, static_cast<double>(ctx.l1_read_miss));
  c.set(CounterId::kL1WriteAccess, static_cast<double>(ctx.l1_write_access));
  c.set(CounterId::kL1WriteMiss, static_cast<double>(ctx.l1_write_miss));
  c.set(CounterId::kL2Access, static_cast<double>(ctx.l2_access));
  c.set(CounterId::kL2Miss, static_cast<double>(ctx.l2_miss));
  c.set(CounterId::kDramReqs, static_cast<double>(ctx.dram_reqs));
  c.set(CounterId::kDramBytes, ctx.dram_bytes);
  c.set(CounterId::kMshrFullEvents,
        static_cast<double>(ctx.mshr_full_events));
  c.set(CounterId::kStoreBufFullEvents,
        static_cast<double>(ctx.store_buf_full_events));
  c.set(CounterId::kStallExecDepCycles, ctx.stall_exec_dep);
  c.set(CounterId::kStallMemLoadCycles, ctx.stall_mem_load);
  c.set(CounterId::kStallMemOtherCycles, ctx.stall_mem_other);
  c.set(CounterId::kStallControlCycles, ctx.stall_control);
  c.set(CounterId::kStallNoReadyCycles, ctx.stall_no_ready);

  // Finalize the mean memory latency (accumulated as a sum above).
  if (ctx.l2_access > 0)
    c.set(CounterId::kAvgMemLatencyNs,
          ctx.mem_lat_sum / static_cast<double>(ctx.l2_access));

  c.set(CounterId::kFreqMhz, freq);
  c.set(CounterId::kActiveCycles,
        res.active_frac * static_cast<double>(total_cycles));
  c.set(CounterId::kOccupancy, static_cast<double>(warps_.size()) /
                                   static_cast<double>(cfg_->max_warps_per_cluster));
  c.set(CounterId::kWarpsDone, static_cast<double>(warps_done_));
  c.finalizeDerived(total_cycles, static_cast<int>(warps_.size()),
                    cfg_->issue_width);

  // Deep invariants at the module seam (audit builds only): the cluster's
  // lifetime counters are monotonic, per-epoch aggregates stay in range,
  // and retirement bookkeeping is consistent.
  SSM_AUDIT_CHECK(total_insts_ >= insts_before &&
                      total_insts_ - insts_before == ctx.issued,
                  "instruction count must advance by exactly what this "
                  "epoch issued");
  SSM_AUDIT_CHECK(warps_done_ >= done_before &&
                      warps_done_ <= static_cast<int>(warps_.size()),
                  "retired-warp count must be monotonic and bounded");
  SSM_AUDIT_CHECK(res.cycles >= 0 && res.instructions >= 0 &&
                      res.dram_reqs >= 0,
                  "epoch aggregates must be non-negative");
  SSM_AUDIT_CHECK(res.issue_act >= 0.0 && res.issue_act <= 1.0 &&
                      res.alu_act >= 0.0 && res.alu_act <= 1.0 &&
                      res.mem_act >= 0.0 && res.mem_act <= 1.0 &&
                      res.active_frac >= 0.0 && res.active_frac <= 1.0,
                  "activity fractions must lie in [0, 1]");
  // finish_ns_ is stamped as each warp retires, so it can be set before the
  // whole cluster is done — but a fully retired cluster must have it.
  SSM_AUDIT_CHECK(!done() || finish_ns_ >= 0,
                  "a retired cluster must carry a finish timestamp");
  return res;
}

}  // namespace ssm
