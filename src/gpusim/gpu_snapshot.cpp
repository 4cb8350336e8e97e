// Implementation of full-machine Gpu snapshots (gpu_snapshot.hpp), plus the
// Gpu/SmCluster saveState/restoreState members declared in their headers.
//
// Restore strategy: the blob carries the constructor inputs (config, V/f
// table, kernel, power coefficients) followed by the mutable state, so
// restoreState rebuilds the machine through the ordinary public constructor
// — every ctor-derived table (cumulative mix boundaries, wheel storage,
// shared_ptr wiring) is recomputed from the same inputs — and then
// overwrites the mutable state in place. The wake heap is restored verbatim
// (it was a valid binary heap when saved); the miss queue is rebuilt from
// its drained ascending order, which re-creates the same multiset and
// therefore the same top()/pop() behaviour.
//
// Every record's members are listed once, in wire order, by a field
// function (common/bytes.hpp); saveState and restoreState visit the same
// lists and differ only in what is asymmetric: count checks, the rebuild
// through the constructor, and the wake-heap and miss-queue handling.
#include "gpusim/gpu_snapshot.hpp"

#include <algorithm>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/check.hpp"

namespace ssm {
namespace {

template <class IO, RecordOf<RngSnapshot> Snap>
void fields(IO& io, Snap& s) {
  for (auto& word : s.s) io(word);
  io(s.spare_gauss);
  io(s.has_spare);
}

template <class IO, RecordOf<GpuConfig> Config>
void fields(IO& io, Config& c) {
  io(c.num_clusters);
  io(c.max_warps_per_cluster);
  io(c.issue_width);
  io(c.ialu_latency);
  io(c.falu_latency);
  io(c.sfu_latency);
  io(c.shared_latency);
  io(c.branch_resolve_latency);
  io(c.l1_hit_latency);
  io(c.l2_hit_latency_ns);
  io(c.dram_latency_ns);
  io(c.mshr_per_cluster);
  io(c.dram_bw_gbps);
  io(c.bytes_per_miss);
  io(c.epoch_ns);
  io(c.dvfs_transition_ns);
  io(c.store_stall_base);
  io(c.store_stall_cycles);
  io(c.shared_conflict_prob);
  io(c.shared_conflict_cycles);
}

template <class IO, RecordOf<PhaseProfile> Phase>
void fields(IO& io, Phase& p) {
  io(p.mix.ialu);
  io(p.mix.falu);
  io(p.mix.sfu);
  io(p.mix.load);
  io(p.mix.store);
  io(p.mix.shared);
  io(p.mix.branch);
  io(p.l1_hit_rate);
  io(p.l2_hit_rate);
  io(p.ilp);
  io(p.divergence);
  io(p.dep_prob);
  io(p.insts_per_warp);
}

constexpr auto kRecordFields = [](auto& io, auto& rec) { fields(io, rec); };

/// The kernel header, then its phases.
template <class IO, RecordOf<KernelProfile> Kernel>
void fields(IO& io, Kernel& k) {
  io(k.name);
  io(k.suite);
  io(k.warps_per_cluster);
  io(k.phase_loops);
  io(k.phases, kRecordFields);
}

template <class IO, RecordOf<ClusterPowerParams> Params>
void fields(IO& io, Params& p) {
  io(p.c_eff);
  io(p.act_base);
  io(p.w_issue);
  io(p.w_alu);
  io(p.w_mem);
  io(p.leak_lin);
  io(p.leak_cub);
  io(p.leak_temp_alpha);
  io(p.leak_cal_temp_c);
}

template <class IO, RecordOf<UncorePowerParams> Params>
void fields(IO& io, Params& p) {
  io(p.base_w);
  io(p.dram_max_w);
}

template <class IO, RecordOf<thermal::ThermalParams> Params>
void fields(IO& io, Params& p) {
  io(p.ambient_c);
  io(p.r_cluster);
  io(p.c_cluster);
  io(p.r_package);
  io(p.c_package);
}

template <class IO, RecordOf<thermal::ThermalState> State>
void fields(IO& io, State& s) {
  io(s.cluster_c, kScalarField);
  io(s.package_c);
}

/// One warp's state. The generator travels as its RngSnapshot; `Warp` is
/// SmCluster's private WarpState, deduced rather than named.
template <class IO, class Warp>
void warpFields(IO& io, Warp& ws) {
  RngSnapshot rng = ws.rng.snapshot();
  fields(io, rng);
  if constexpr (!std::is_const_v<Warp>) ws.rng = Rng::fromSnapshot(rng);
  io(ws.phase);
  io(ws.loops_left);
  io(ws.insts_left);
  io(ws.miss_done_at);
  io(ws.grace_left);
  io(ws.done);
}

constexpr auto kWarpFields = [](auto& io, auto& ws) { warpFields(io, ws); };

}  // namespace

template <class IO, class Self>
void SmCluster::retireFields(IO& io, Self& cluster) {
  io(cluster.warps_done_);
  io(cluster.total_insts_);
  io(cluster.finish_ns_);
}

std::size_t SmCluster::minStateBytes(int warps) {
  // The warp count and the warps: a lower bound on the whole image.
  return sizeof(std::uint32_t) + static_cast<std::size_t>(std::max(warps, 0)) *
                                     byteSize<WarpState>(kWarpFields);
}

void SmCluster::saveState(ByteWriter& w) const {
  w(warps_, kWarpFields);
  // The heap array prefix is written verbatim: it is a valid binary heap by
  // construction and restoring the exact layout reproduces the exact pop
  // order (including ties, which the packed keys make impossible anyway).
  w(wake_size_);
  for (int i = 0; i < wake_size_; ++i)
    w(wake_heap_[static_cast<std::size_t>(i)]);
  // Drain a copy of the miss queue into ascending order.
  auto misses = misses_;
  w.u32(static_cast<std::uint32_t>(misses.size()));
  while (!misses.empty()) {
    w(misses.top());
    misses.pop();
  }
  retireFields(w, *this);
}

void SmCluster::restoreState(ByteReader& r) {
  if (r.u32() != warps_.size())
    throw DataError(
        "GPU snapshot warp count does not match the reconstructed cluster");
  for (WarpState& ws : warps_) warpFields(r, ws);
  r(wake_size_);
  if (wake_size_ < 0 || wake_size_ > static_cast<int>(warps_.size()))
    throw DataError("GPU snapshot wake-heap size is out of range");
  for (int i = 0; i < wake_size_; ++i)
    r(wake_heap_[static_cast<std::size_t>(i)]);
  misses_ = {};
  const std::uint32_t misses = r.count(sizeof(TimeNs));
  for (std::uint32_t i = 0; i < misses; ++i) {
    TimeNs t = 0;
    r(t);
    misses_.push(t);
  }
  retireFields(r, *this);
  if (warps_done_ < 0 || warps_done_ > static_cast<int>(warps_.size()))
    throw DataError("GPU snapshot retired-warp count is out of range");
}

template <class IO, class Self>
void Gpu::chipFields(IO& io, Self& gpu) {
  io(gpu.prev_levels_, kScalarField);
  io(gpu.mem_env_.latency_mult);
  io(gpu.mem_env_.store_stall_prob);
  EnergyAccountant::fields(io, gpu.energy_);
  io(gpu.now_ns_);
  io(gpu.last_epoch_insts_);
}

void Gpu::saveState(ByteWriter& w) const {
  // Constructor inputs first, so restoreState can rebuild the machine
  // through the public constructor before overwriting the mutable state.
  fields(w, *cfg_);
  w(vf_.points(), kRecordFields);
  fields(w, clusters_.front().kernel());
  w(power_.numClusters());
  fields(w, power_.cluster().params());
  fields(w, power_.uncore());

  chipFields(w, *this);
  w(thermal_.has_value());
  if (thermal_.has_value()) {
    fields(w, thermal_->params());
    fields(w, thermal_->state());
  }
  w.u32(static_cast<std::uint32_t>(clusters_.size()));
  for (const SmCluster& c : clusters_) c.saveState(w);
}

Gpu Gpu::restoreState(ByteReader& r) {
  GpuConfig cfg;
  fields(r, cfg);
  std::vector<VfPoint> points;
  r(points, kRecordFields);
  KernelProfile kernel;
  fields(r, kernel);
  int power_clusters = 0;
  r(power_clusters);
  if (power_clusters != cfg.num_clusters)
    throw DataError(
        "GPU snapshot power-model cluster count does not match its config");
  ClusterPowerParams cp;
  fields(r, cp);
  UncorePowerParams up;
  fields(r, up);

  // The constructor allocates every cluster and its warps: bound them by
  // the cluster records the remaining bytes can hold before it runs.
  const std::size_t cluster_bytes = SmCluster::minStateBytes(
      std::min(kernel.warps_per_cluster, cfg.max_warps_per_cluster));
  if (cfg.num_clusters > 0 &&
      static_cast<std::uint64_t>(cfg.num_clusters) >
          r.remaining() / cluster_bytes)
    throw DataError("GPU snapshot cluster count exceeds the bytes remaining");

  // The seed only influences ctor-seeded warp RNG streams, which the
  // per-warp snapshots below overwrite — any value works here.
  Gpu gpu = constructDecoded("GPU snapshot", [&] {
    return Gpu(cfg, VfTable(std::move(points)), kernel, /*seed=*/0,
               ChipPowerModel(power_clusters, cp, up));
  });

  chipFields(r, gpu);
  if (gpu.prev_levels_.size() != gpu.clusters_.size())
    throw DataError("GPU snapshot level count does not match its config");

  bool has_thermal = false;
  r(has_thermal);
  if (has_thermal) {
    thermal::ThermalParams tp;
    fields(r, tp);
    constructDecoded("GPU snapshot thermal model",
                     [&] { gpu.attachThermal(tp); });
    thermal::ThermalState ts;
    fields(r, ts);
    if (ts.cluster_c.size() != gpu.clusters_.size())
      throw DataError(
          "GPU snapshot thermal node count does not match its config");
    gpu.thermal_->setState(ts);
  }

  if (r.u32() != gpu.clusters_.size())
    throw DataError("GPU snapshot cluster count does not match its config");
  for (SmCluster& c : gpu.clusters_) c.restoreState(r);
  return gpu;
}

std::string serializeGpu(const Gpu& gpu) {
  ByteWriter w;
  gpu.saveState(w);
  return w.take();
}

Gpu deserializeGpu(std::string_view bytes) {
  ByteReader r(bytes);
  Gpu gpu = Gpu::restoreState(r);
  if (!r.exhausted())
    throw DataError("GPU snapshot blob has trailing bytes");
  return gpu;
}

}  // namespace ssm
