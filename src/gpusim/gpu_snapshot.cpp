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
#include "gpusim/gpu_snapshot.hpp"

#include <utility>
#include <vector>

#include "common/bytes.hpp"
#include "common/check.hpp"

namespace ssm {
namespace {

// Encoded sizes (lower bounds) of the repeated snapshot records, used to
// bound every decoded count by the bytes remaining.
/// Instruction mix, hit rates, ilp, divergence, dep_prob, insts_per_warp.
constexpr std::size_t kPhaseBytes = 7 * 8 + 2 * 8 + 4 + 2 * 8 + 8;
/// RNG snapshot (four words, spare, flag) plus the warp's scalar state.
constexpr std::size_t kWarpBytes = (4 * 8 + 8 + 1) + 4 + 4 + 8 + 8 + 4 + 1;
/// Warp count, wake-heap size, miss count, retired warps, two i64 totals.
constexpr std::size_t kClusterMinBytes = 4 + 4 + 4 + 4 + 8 + 8;

void writeRng(ByteWriter& w, const RngSnapshot& s) {
  for (std::uint64_t word : s.s) w.u64(word);
  w.f64(s.spare_gauss);
  w.u8(s.has_spare ? 1 : 0);
}

RngSnapshot readRng(ByteReader& r) {
  RngSnapshot s;
  for (std::uint64_t& word : s.s) word = r.u64();
  s.spare_gauss = r.f64();
  s.has_spare = r.u8() != 0;
  return s;
}

void writeConfig(ByteWriter& w, const GpuConfig& c) {
  w.i32(c.num_clusters);
  w.i32(c.max_warps_per_cluster);
  w.i32(c.issue_width);
  w.i64(c.ialu_latency);
  w.i64(c.falu_latency);
  w.i64(c.sfu_latency);
  w.i64(c.shared_latency);
  w.i64(c.branch_resolve_latency);
  w.i64(c.l1_hit_latency);
  w.i64(c.l2_hit_latency_ns);
  w.i64(c.dram_latency_ns);
  w.i32(c.mshr_per_cluster);
  w.f64(c.dram_bw_gbps);
  w.i32(c.bytes_per_miss);
  w.i64(c.epoch_ns);
  w.i64(c.dvfs_transition_ns);
  w.f64(c.store_stall_base);
  w.i64(c.store_stall_cycles);
  w.f64(c.shared_conflict_prob);
  w.i64(c.shared_conflict_cycles);
}

GpuConfig readConfig(ByteReader& r) {
  GpuConfig c;
  c.num_clusters = r.i32();
  c.max_warps_per_cluster = r.i32();
  c.issue_width = r.i32();
  c.ialu_latency = r.i64();
  c.falu_latency = r.i64();
  c.sfu_latency = r.i64();
  c.shared_latency = r.i64();
  c.branch_resolve_latency = r.i64();
  c.l1_hit_latency = r.i64();
  c.l2_hit_latency_ns = r.i64();
  c.dram_latency_ns = r.i64();
  c.mshr_per_cluster = r.i32();
  c.dram_bw_gbps = r.f64();
  c.bytes_per_miss = r.i32();
  c.epoch_ns = r.i64();
  c.dvfs_transition_ns = r.i64();
  c.store_stall_base = r.f64();
  c.store_stall_cycles = r.i64();
  c.shared_conflict_prob = r.f64();
  c.shared_conflict_cycles = r.i64();
  return c;
}

void writeKernel(ByteWriter& w, const KernelProfile& k) {
  w.str(k.name);
  w.str(k.suite);
  w.i32(k.warps_per_cluster);
  w.i32(k.phase_loops);
  w.u32(static_cast<std::uint32_t>(k.phases.size()));
  for (const PhaseProfile& p : k.phases) {
    w.f64(p.mix.ialu);
    w.f64(p.mix.falu);
    w.f64(p.mix.sfu);
    w.f64(p.mix.load);
    w.f64(p.mix.store);
    w.f64(p.mix.shared);
    w.f64(p.mix.branch);
    w.f64(p.l1_hit_rate);
    w.f64(p.l2_hit_rate);
    w.i32(p.ilp);
    w.f64(p.divergence);
    w.f64(p.dep_prob);
    w.i64(p.insts_per_warp);
  }
}

KernelProfile readKernel(ByteReader& r) {
  KernelProfile k;
  k.name = r.str();
  k.suite = r.str();
  k.warps_per_cluster = r.i32();
  k.phase_loops = r.i32();
  const std::uint32_t phases = r.count(kPhaseBytes);
  k.phases.reserve(phases);
  for (std::uint32_t i = 0; i < phases; ++i) {
    PhaseProfile p;
    p.mix.ialu = r.f64();
    p.mix.falu = r.f64();
    p.mix.sfu = r.f64();
    p.mix.load = r.f64();
    p.mix.store = r.f64();
    p.mix.shared = r.f64();
    p.mix.branch = r.f64();
    p.l1_hit_rate = r.f64();
    p.l2_hit_rate = r.f64();
    p.ilp = r.i32();
    p.divergence = r.f64();
    p.dep_prob = r.f64();
    p.insts_per_warp = r.i64();
    k.phases.push_back(p);
  }
  return k;
}

}  // namespace

void SmCluster::saveState(ByteWriter& w) const {
  w.u32(static_cast<std::uint32_t>(warps_.size()));
  for (const WarpState& ws : warps_) {
    writeRng(w, ws.rng.snapshot());
    w.i32(ws.phase);
    w.i32(ws.loops_left);
    w.i64(ws.insts_left);
    w.i64(ws.miss_done_at);
    w.i32(ws.grace_left);
    w.u8(ws.done ? 1 : 0);
  }
  // The heap array prefix is written verbatim: it is a valid binary heap by
  // construction and restoring the exact layout reproduces the exact pop
  // order (including ties, which the packed keys make impossible anyway).
  w.i32(wake_size_);
  for (int i = 0; i < wake_size_; ++i)
    w.i64(wake_heap_[static_cast<std::size_t>(i)]);
  // Drain a copy of the miss queue into ascending order.
  auto misses = misses_;
  w.u32(static_cast<std::uint32_t>(misses.size()));
  while (!misses.empty()) {
    w.i64(misses.top());
    misses.pop();
  }
  w.i32(warps_done_);
  w.i64(total_insts_);
  w.i64(finish_ns_);
}

void SmCluster::restoreState(ByteReader& r) {
  const std::uint32_t warps = r.count(kWarpBytes);
  if (warps != warps_.size())
    throw DataError(
        "GPU snapshot warp count does not match the reconstructed cluster");
  for (WarpState& ws : warps_) {
    ws.rng = Rng::fromSnapshot(readRng(r));
    ws.phase = r.i32();
    ws.loops_left = r.i32();
    ws.insts_left = r.i64();
    ws.miss_done_at = r.i64();
    ws.grace_left = r.i32();
    ws.done = r.u8() != 0;
  }
  wake_size_ = r.i32();
  if (wake_size_ < 0 || wake_size_ > static_cast<int>(warps_.size()))
    throw DataError("GPU snapshot wake-heap size is out of range");
  for (int i = 0; i < wake_size_; ++i)
    wake_heap_[static_cast<std::size_t>(i)] = r.i64();
  misses_ = {};
  const std::uint32_t misses = r.count(sizeof(std::int64_t));
  for (std::uint32_t i = 0; i < misses; ++i) misses_.push(r.i64());
  warps_done_ = r.i32();
  if (warps_done_ < 0 || warps_done_ > static_cast<int>(warps_.size()))
    throw DataError("GPU snapshot retired-warp count is out of range");
  total_insts_ = r.i64();
  finish_ns_ = r.i64();
}

void Gpu::saveState(ByteWriter& w) const {
  // Constructor inputs first, so restoreState can rebuild the machine
  // through the public constructor before overwriting the mutable state.
  writeConfig(w, *cfg_);
  w.u32(static_cast<std::uint32_t>(vf_.size()));
  for (const VfPoint& p : vf_.points()) {
    w.f64(p.voltage_v);
    w.f64(p.freq_mhz);
  }
  writeKernel(w, clusters_.front().kernel());
  w.i32(power_.numClusters());
  const ClusterPowerParams& cp = power_.cluster().params();
  w.f64(cp.c_eff);
  w.f64(cp.act_base);
  w.f64(cp.w_issue);
  w.f64(cp.w_alu);
  w.f64(cp.w_mem);
  w.f64(cp.leak_lin);
  w.f64(cp.leak_cub);
  w.f64(cp.leak_temp_alpha);
  w.f64(cp.leak_cal_temp_c);
  const UncorePowerParams& up = power_.uncore();
  w.f64(up.base_w);
  w.f64(up.dram_max_w);

  // Mutable chip-level state.
  w.u32(static_cast<std::uint32_t>(prev_levels_.size()));
  for (VfLevel l : prev_levels_) w.i32(l);
  w.f64(mem_env_.latency_mult);
  w.f64(mem_env_.store_stall_prob);
  w.f64(energy_.energyJ());
  w.i64(energy_.elapsedNs());
  w.i64(now_ns_);
  w.i64(last_epoch_insts_);

  w.u8(thermal_.has_value() ? 1 : 0);
  if (thermal_.has_value()) {
    const thermal::ThermalParams& tp = thermal_->params();
    w.f64(tp.ambient_c);
    w.f64(tp.r_cluster);
    w.f64(tp.c_cluster);
    w.f64(tp.r_package);
    w.f64(tp.c_package);
    const thermal::ThermalState& ts = thermal_->state();
    w.u32(static_cast<std::uint32_t>(ts.cluster_c.size()));
    for (double t : ts.cluster_c) w.f64(t);
    w.f64(ts.package_c);
  }

  w.u32(static_cast<std::uint32_t>(clusters_.size()));
  for (const SmCluster& c : clusters_) c.saveState(w);
}

Gpu Gpu::restoreState(ByteReader& r) {
  const GpuConfig cfg = readConfig(r);
  const std::uint32_t vf_points = r.count(2 * sizeof(double));
  if (vf_points == 0)
    throw DataError("GPU snapshot has an empty V/f table");
  std::vector<VfPoint> points;
  points.reserve(vf_points);
  for (std::uint32_t i = 0; i < vf_points; ++i) {
    VfPoint p;
    p.voltage_v = r.f64();
    p.freq_mhz = r.f64();
    points.push_back(p);
  }
  const KernelProfile kernel = readKernel(r);
  const int power_clusters = r.i32();
  if (power_clusters != cfg.num_clusters)
    throw DataError(
        "GPU snapshot power-model cluster count does not match its config");
  ClusterPowerParams cp;
  cp.c_eff = r.f64();
  cp.act_base = r.f64();
  cp.w_issue = r.f64();
  cp.w_alu = r.f64();
  cp.w_mem = r.f64();
  cp.leak_lin = r.f64();
  cp.leak_cub = r.f64();
  cp.leak_temp_alpha = r.f64();
  cp.leak_cal_temp_c = r.f64();
  UncorePowerParams up;
  up.base_w = r.f64();
  up.dram_max_w = r.f64();

  // The seed only influences ctor-seeded warp RNG streams, which the
  // per-warp snapshots below overwrite — any value works here.
  Gpu gpu(cfg, VfTable(std::move(points)), kernel, /*seed=*/0,
          ChipPowerModel(power_clusters, cp, up));

  const std::uint32_t prev_levels = r.count(sizeof(std::int32_t));
  if (prev_levels != gpu.prev_levels_.size())
    throw DataError("GPU snapshot level count does not match its config");
  for (VfLevel& l : gpu.prev_levels_) l = r.i32();
  gpu.mem_env_.latency_mult = r.f64();
  gpu.mem_env_.store_stall_prob = r.f64();
  const double energy_j = r.f64();
  const TimeNs elapsed_ns = r.i64();
  gpu.energy_.restore(energy_j, elapsed_ns);
  gpu.now_ns_ = r.i64();
  gpu.last_epoch_insts_ = r.i64();

  if (r.u8() != 0) {
    thermal::ThermalParams tp;
    tp.ambient_c = r.f64();
    tp.r_cluster = r.f64();
    tp.c_cluster = r.f64();
    tp.r_package = r.f64();
    tp.c_package = r.f64();
    gpu.attachThermal(tp);
    thermal::ThermalState ts;
    const std::uint32_t nodes = r.count(sizeof(double));
    if (nodes != static_cast<std::uint32_t>(gpu.numClusters()))
      throw DataError(
          "GPU snapshot thermal node count does not match its config");
    ts.cluster_c.reserve(nodes);
    for (std::uint32_t i = 0; i < nodes; ++i) ts.cluster_c.push_back(r.f64());
    ts.package_c = r.f64();
    gpu.thermal_->setState(ts);
  }

  const std::uint32_t clusters = r.count(kClusterMinBytes);
  if (clusters != gpu.clusters_.size())
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
