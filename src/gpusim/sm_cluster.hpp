// One streaming-multiprocessor cluster with its own clock domain.
//
// The cluster executes the workload's per-warp instruction streams with an
// event-accelerated cycle loop: per cycle it issues up to `issue_width`
// instructions from ready warps; blocked warps sit in a packed wake heap
// keyed by wall-clock readiness time, and fully-stalled stretches are
// skipped in one step. Core-side latencies are counted in cycles (they
// scale with the cluster frequency); L2/DRAM latencies are wall-clock
// nanoseconds (they do not) — the asymmetry that gives every workload its
// frequency sensitivity.
//
// The cluster is value-semantic: copying a cluster (as part of a Gpu copy)
// snapshots the full microarchitectural state, which the data-generation
// pipeline uses to replay the same execution at different V/f points.
#pragma once

#include <array>
#include <memory>
#include <queue>
#include <vector>

#include "common/rng.hpp"
#include "counters/counters.hpp"
#include "gpusim/gpu_config.hpp"
#include "workloads/kernel_profile.hpp"

namespace ssm {

class ByteWriter;
class ByteReader;

/// Shared-memory-system environment for an epoch, computed by the Gpu from
/// the previous epoch's aggregate traffic (bandwidth queueing model).
struct MemEnv {
  double latency_mult = 1.0;      ///< multiplies L2/DRAM latencies
  double store_stall_prob = 0.02; ///< store-buffer backpressure probability
};

/// What one cluster produced in one epoch.
struct ClusterEpochResult {
  CounterBlock counters;          ///< power counters filled in by the Gpu
  std::int64_t instructions = 0;
  std::int64_t dram_reqs = 0;
  Cycles cycles = 0;              ///< usable cycles in the epoch
  double active_frac = 0.0;       ///< fraction of the epoch with live warps
  double issue_act = 0.0;         ///< issue-slot utilisation in [0,1]
  double alu_act = 0.0;
  double mem_act = 0.0;
  bool all_done = false;          ///< cluster retired its last warp
};

class SmCluster {
 public:
  SmCluster(std::shared_ptr<const GpuConfig> cfg,
            std::shared_ptr<const KernelProfile> kernel, Rng rng,
            int cluster_id);

  /// Simulates [start_ns, start_ns + len_ns) at `freq`. If `transitioned`,
  /// the first dvfs_transition_ns are lost to the IVR settling.
  ClusterEpochResult runEpoch(TimeNs start_ns, TimeNs len_ns, FreqMhz freq,
                              bool transitioned, const MemEnv& env);

  [[nodiscard]] bool done() const noexcept {
    return warps_done_ == static_cast<int>(warps_.size());
  }
  /// Wall-clock time the last warp retired; -1 while running.
  [[nodiscard]] TimeNs finishNs() const noexcept { return finish_ns_; }
  [[nodiscard]] std::int64_t totalInstructions() const noexcept {
    return total_insts_;
  }
  [[nodiscard]] int clusterId() const noexcept { return cluster_id_; }
  [[nodiscard]] int warpCount() const noexcept {
    return static_cast<int>(warps_.size());
  }
  /// The kernel profile this cluster executes (snapshot serialization reads
  /// it back so a restored Gpu can be reconstructed from the blob alone).
  [[nodiscard]] const KernelProfile& kernel() const noexcept {
    return *kernel_;
  }

  /// Serializes the cluster's epoch-boundary state (warps, pending wake-ups,
  /// in-flight misses, retirement counters). Only valid between epochs —
  /// the per-epoch wheel/ring scratch is always drained back into the heap
  /// before runEpoch returns, so the heap prefix is the complete wake state.
  /// Implemented in gpu_snapshot.cpp.
  void saveState(ByteWriter& w) const;

  /// Overwrites the epoch-boundary state from a saveState image. The cluster
  /// must have been constructed from the same config/kernel (the ctor-derived
  /// tables are not serialized); mismatches throw DataError.
  void restoreState(ByteReader& r);

  /// A lower bound on the saveState image of a cluster with `warps` warps.
  [[nodiscard]] static std::size_t minStateBytes(int warps);

 private:
  /// The retirement counters that close a saveState image; `Self` is const
  /// when encoding. Defined in gpu_snapshot.cpp.
  template <class IO, class Self>
  static void retireFields(IO& io, Self& cluster);

  enum class InstClass { kIalu, kFalu, kSfu, kLoad, kStore, kShared, kBranch };

  struct WarpState {
    Rng rng;
    int phase = 0;
    int loops_left = 0;
    std::int64_t insts_left = 0;   ///< remaining in the current phase
    TimeNs miss_done_at = -1;      ///< outstanding L1-miss completion
    int grace_left = 0;            ///< insts issuable past an open miss
    bool done = false;
  };

  /// Per-epoch scratch. The hot counter slots are accumulated in plain
  /// fields (registers in the issue loop) and flushed into the epoch's
  /// CounterBlock once at the end; each field mirrors one counter and sums
  /// the same values in the same order, so the flush is bit-identical to
  /// the per-event `add` calls it replaces.
  struct EpochCtx {
    CounterBlock* counters;
    const MemEnv* env;
    /// Raw phase-table pointer, hoisted so the issue loop does not re-chase
    /// the shared_ptr-owned KernelProfile on every instruction.
    const PhaseProfile* phases;
    double ns_per_cycle;
    TimeNs one_cycle_ns;
    // Fixed core-side latencies converted to wall-clock once per epoch
    // (`cyclesToNs` is a pure function of the latency and ns_per_cycle, so
    // hoisting it out of the issue loop is exact).
    /// Hazard latency (wall-clock) and stall charge (cycles, integer-valued)
    /// per instruction class; only the single-hazard classes (ialu, falu,
    /// sfu, branch) read theirs, letting one table-driven path replace four
    /// switch arms.
    std::array<TimeNs, 7> class_lat_ns{};
    std::array<double, 7> class_stall{};
    TimeNs l1_hit_lat_ns = 0;
    TimeNs store_stall_ns = 0;
    TimeNs shared_conflict_ns = 0;
    TimeNs shared_lat_ns = 0;
    FreqMhz freq;
    std::int64_t issued = 0;
    std::int64_t alu_issued = 0;
    std::int64_t mem_issued = 0;
    /// Per-class issue counts, indexed by InstClass.
    std::array<std::int64_t, 7> inst_count{};
    std::int64_t l1_read_access = 0;
    std::int64_t l1_read_miss = 0;
    std::int64_t l2_access = 0;
    std::int64_t l2_miss = 0;
    std::int64_t dram_reqs = 0;
    std::int64_t l1_write_access = 0;
    std::int64_t l1_write_miss = 0;
    std::int64_t mshr_full_events = 0;
    std::int64_t store_buf_full_events = 0;
    double dram_bytes = 0.0;
    double stall_exec_dep = 0.0;
    double stall_mem_load = 0.0;
    double stall_mem_other = 0.0;
    double stall_control = 0.0;
    double stall_no_ready = 0.0;
    double mem_lat_sum = 0.0;
  };

  /// Issues one instruction from warp `w` at wall-clock `now`; returns the
  /// time at which the warp may issue again.
  TimeNs issueOne(int w, TimeNs now, EpochCtx& ctx);

  InstClass sampleClass(std::size_t phase, std::uint64_t m) const noexcept;
  void advanceWarpProgram(WarpState& warp, TimeNs now);
  void drainExpiredMisses(TimeNs now);

  // Warp wake-up bookkeeping. The hot structure is a per-epoch bucket
  // wheel indexed by wall-clock offset from the epoch's usable start:
  // inserts are O(1) (bucket chains stay sorted by the packed key below,
  // and same-bucket chains are almost always length one), and draining
  // scans a bitmap word per 64 ns. Keys sort lexicographically by
  // (ready_ns, warp) — identical to the priority_queue<pair> the wheel
  // replaced — by packing the warp id into the low bits. A small binary
  // min-heap over the same keys carries entries the wheel cannot hold:
  // wake-ups beyond the current epoch (re-bucketed when the next epoch
  // opens) and, for epochs longer than kWheelCapNs, the far tail.
  static constexpr int kWakeWarpBits = 8;
  static constexpr std::int64_t kWakeWarpMask = (1 << kWakeWarpBits) - 1;
  static constexpr TimeNs kWheelCapNs = TimeNs{1} << 16;

  static constexpr std::int64_t wakeKey(int w, TimeNs ready_ns) noexcept {
    return (static_cast<std::int64_t>(ready_ns) << kWakeWarpBits) | w;
  }

  void heapPush(std::int64_t key) noexcept {
    int i = wake_size_++;
    std::int64_t* h = wake_heap_.data();
    while (i > 0) {
      const int parent = (i - 1) >> 1;
      if (h[parent] <= key) break;
      h[i] = h[parent];
      i = parent;
    }
    h[i] = key;
  }

  /// Pops the minimal (ready_ns, warp) key; the heap must be non-empty.
  std::int64_t heapPopKey() noexcept {
    std::int64_t* h = wake_heap_.data();
    const std::int64_t top = h[0];
    const std::int64_t last = h[--wake_size_];
    int i = 0;
    for (;;) {
      int child = 2 * i + 1;
      if (child >= wake_size_) break;
      child +=
          static_cast<int>(child + 1 < wake_size_ && h[child + 1] < h[child]);
      if (h[child] >= last) break;
      h[i] = h[child];
      i = child;
    }
    h[i] = last;
    return top;
  }

  [[nodiscard]] TimeNs heapTopNs() const noexcept {
    return static_cast<TimeNs>(wake_heap_[0] >> kWakeWarpBits);
  }

  std::shared_ptr<const GpuConfig> cfg_;
  std::shared_ptr<const KernelProfile> kernel_;
  int cluster_id_;

  std::vector<WarpState> warps_;
  /// Cumulative instruction-mix boundaries per phase, precomputed with the
  /// same left-to-right additions `sampleClass` used to perform per event
  /// and integerized against the raw 53-bit uniform draw (exact; see the
  /// constructor).
  std::vector<std::array<std::uint64_t, 6>> mix_cum_;
  /// Packed wake-heap storage (capacity = warps; each warp appears at most
  /// once across the heap and the wheel).
  std::vector<std::int64_t> wake_heap_;
  int wake_size_ = 0;
  /// Bucket-wheel storage: per-offset chain heads plus an occupancy bitmap
  /// (sized per epoch), and per-warp key/chain-link slots.
  std::vector<std::int32_t> wheel_head_;
  std::vector<std::uint64_t> wheel_bits_;
  std::vector<std::int64_t> wheel_key_;
  std::vector<std::int32_t> wheel_next_;
  /// FIFO ring of issuable warps, reused across epochs (capacity = warps).
  std::vector<int> ready_ring_;
  /// Completion times of in-flight L1 misses (MSHR occupancy).
  std::priority_queue<TimeNs, std::vector<TimeNs>, std::greater<>> misses_;

  int warps_done_ = 0;
  std::int64_t total_insts_ = 0;
  TimeNs finish_ns_ = -1;
};

}  // namespace ssm
