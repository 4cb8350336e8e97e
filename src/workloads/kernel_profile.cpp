#include "workloads/kernel_profile.hpp"

#include <algorithm>
#include <cmath>

namespace ssm {

void KernelProfile::validate() const {
  if (name.empty()) throw DataError("kernel profile needs a name");
  if (phases.empty())
    throw DataError("kernel profile '" + name + "' has no phases");
  if (warps_per_cluster < 1 || warps_per_cluster > 64)
    throw DataError("kernel '" + name + "': warps_per_cluster out of [1,64]");
  if (phase_loops < 1)
    throw DataError("kernel '" + name + "': phase_loops must be >= 1");
  for (const auto& p : phases) {
    // Negated so a NaN share fails too; the simulator converts the
    // cumulative shares to integers, which needs them finite and >= 0.
    const InstructionMix& m = p.mix;
    if (!(std::abs(m.sum() - 1.0) <= 1e-6) ||
        std::min({m.ialu, m.falu, m.sfu, m.load, m.store, m.shared,
                  m.branch}) < 0.0)
      throw DataError("kernel '" + name +
                      "': instruction mix must be non-negative and sum to 1");
    if (p.l1_hit_rate < 0.0 || p.l1_hit_rate > 1.0 || p.l2_hit_rate < 0.0 ||
        p.l2_hit_rate > 1.0)
      throw DataError("kernel '" + name + "': hit rate out of [0,1]");
    if (p.ilp < 0 || p.ilp > 64)
      throw DataError("kernel '" + name + "': ilp out of [0,64]");
    if (p.divergence < 0.0 || p.divergence > 1.0)
      throw DataError("kernel '" + name + "': divergence out of [0,1]");
    if (p.dep_prob < 0.0 || p.dep_prob > 1.0)
      throw DataError("kernel '" + name + "': dep_prob out of [0,1]");
    if (p.insts_per_warp <= 0)
      throw DataError("kernel '" + name + "': insts_per_warp must be > 0");
  }
}

namespace {

// Phase archetype constructors. The numeric profiles are hand-tuned to the
// published behaviour of each benchmark (compute- vs memory-bound, cache
// friendliness, divergence) at the granularity a 10 µs window observes.

PhaseProfile computePhase(std::int64_t insts, double fp = 0.55) {
  PhaseProfile p;
  p.mix = {.ialu = 0.86 - fp,
           .falu = fp,
           .sfu = 0.02,
           .load = 0.07,
           .store = 0.02,
           .shared = 0.02,
           .branch = 0.01};
  p.l1_hit_rate = 0.92;
  p.l2_hit_rate = 0.80;
  p.ilp = 6;
  p.divergence = 0.04;
  p.dep_prob = 0.30;
  p.insts_per_warp = insts;
  return p;
}

PhaseProfile memoryPhase(std::int64_t insts, double l1_hit = 0.35,
                         double l2_hit = 0.40, int ilp = 2) {
  PhaseProfile p;
  p.mix = {.ialu = 0.28,
           .falu = 0.12,
           .sfu = 0.00,
           .load = 0.38,
           .store = 0.12,
           .shared = 0.04,
           .branch = 0.06};
  p.l1_hit_rate = l1_hit;
  p.l2_hit_rate = l2_hit;
  p.ilp = ilp;
  p.divergence = 0.08;
  p.dep_prob = 0.20;
  p.insts_per_warp = insts;
  return p;
}

PhaseProfile balancedPhase(std::int64_t insts, double load_frac = 0.20,
                           double l1_hit = 0.70) {
  PhaseProfile p;
  const double rest = 1.0 - load_frac - 0.06 - 0.05 - 0.04;
  p.mix = {.ialu = rest * 0.45,
           .falu = rest * 0.50,
           .sfu = rest * 0.05,
           .load = load_frac,
           .store = 0.06,
           .shared = 0.05,
           .branch = 0.04};
  p.l1_hit_rate = l1_hit;
  p.l2_hit_rate = 0.60;
  p.ilp = 4;
  p.divergence = 0.06;
  p.dep_prob = 0.25;
  p.insts_per_warp = insts;
  return p;
}

PhaseProfile irregularPhase(std::int64_t insts) {
  PhaseProfile p;
  p.mix = {.ialu = 0.40,
           .falu = 0.05,
           .sfu = 0.00,
           .load = 0.30,
           .store = 0.08,
           .shared = 0.02,
           .branch = 0.15};
  p.l1_hit_rate = 0.25;
  p.l2_hit_rate = 0.30;
  p.ilp = 1;
  p.divergence = 0.35;
  p.dep_prob = 0.15;
  p.insts_per_warp = insts;
  return p;
}

PhaseProfile sharedHeavyPhase(std::int64_t insts) {
  PhaseProfile p;
  p.mix = {.ialu = 0.28,
           .falu = 0.30,
           .sfu = 0.02,
           .load = 0.08,
           .store = 0.03,
           .shared = 0.26,
           .branch = 0.03};
  p.l1_hit_rate = 0.85;
  p.l2_hit_rate = 0.70;
  p.ilp = 5;
  p.divergence = 0.05;
  p.dep_prob = 0.28;
  p.insts_per_warp = insts;
  return p;
}

KernelProfile make(std::string name, std::string suite,
                   std::vector<PhaseProfile> phases, int warps, int loops) {
  KernelProfile k;
  k.name = std::move(name);
  k.suite = std::move(suite);
  k.phases = std::move(phases);
  k.warps_per_cluster = warps;
  k.phase_loops = loops;
  k.validate();
  return k;
}

std::vector<KernelProfile> buildRegistry() {
  std::vector<KernelProfile> r;

  // ---- Rodinia ---------------------------------------------------------
  // backprop: feed-forward (compute) alternating with weight updates (mem).
  r.push_back(make("backprop", "rodinia",
                   {computePhase(1500, 0.60), memoryPhase(900, 0.45, 0.50)},
                   24, 5));
  // bfs: frontier expansion, highly irregular and memory bound.
  r.push_back(make("bfs", "rodinia", {irregularPhase(1200)}, 20, 8));
  // hotspot: stencil iterations — shared-memory tiles plus boundary loads.
  r.push_back(make("hotspot", "rodinia",
                   {sharedHeavyPhase(1400), memoryPhase(500, 0.55, 0.60)},
                   28, 7));
  // kmeans: distance computation (compute) then membership update (mem).
  r.push_back(make("kmeans", "rodinia",
                   {computePhase(2000, 0.65), memoryPhase(1100, 0.40, 0.45)},
                   24, 4));
  // lud: dense LU decomposition, compute bound with small mem bursts.
  r.push_back(make("lud", "rodinia",
                   {computePhase(2600, 0.70), balancedPhase(600, 0.25, 0.65)},
                   24, 4));
  // nw: Needleman–Wunsch wavefront, dependency-limited, mixed.
  r.push_back(make("nw", "rodinia",
                   {balancedPhase(1100, 0.28, 0.55), memoryPhase(700, 0.5)},
                   16, 7));
  // srad: image regions — compute phase then reduction/memory phase.
  r.push_back(make("srad", "rodinia",
                   {computePhase(1700, 0.75), memoryPhase(800, 0.5, 0.55),
                    balancedPhase(700)},
                   26, 4));
  // gaussian: elimination steps shrink; mildly compute bound, divergent.
  r.push_back(make("gaussian", "rodinia",
                   {computePhase(1300, 0.55), irregularPhase(500)}, 22, 6));
  // pathfinder: dynamic programming rows, shared-memory friendly.
  r.push_back(make("pathfinder", "rodinia",
                   {sharedHeavyPhase(1600), balancedPhase(500, 0.22)}, 26,
                   6));
  // heartwall: tracking — long compute with SFU (trig) usage.
  {
    auto p = computePhase(2400, 0.58);
    p.mix.sfu = 0.08;
    p.mix.ialu -= 0.06;
    r.push_back(make("heartwall", "rodinia", {p, balancedPhase(700)}, 24, 4));
  }
  // lavaMD: n-body style inner loops, strongly compute bound.
  r.push_back(make("lavamd", "rodinia", {computePhase(3200, 0.78)}, 28, 4));
  // streamcluster: distance evaluations over streamed points, memory heavy.
  r.push_back(make("streamcluster", "rodinia",
                   {memoryPhase(1300, 0.30, 0.35, 3), computePhase(600, 0.6)},
                   22, 6));

  // ---- Parboil ---------------------------------------------------------
  // cutcp: cutoff Coulomb potential — compute dominated, good locality.
  r.push_back(make("cutcp", "parboil", {computePhase(3000, 0.80)}, 28, 4));
  // mri-q: Q computation, SFU-heavy compute.
  {
    auto p = computePhase(2600, 0.62);
    p.mix.sfu = 0.12;
    p.mix.ialu -= 0.10;
    r.push_back(make("mriq", "parboil", {p}, 26, 5));
  }
  // sad: sum of absolute differences, integer compute + streaming loads.
  {
    auto p = balancedPhase(1500, 0.30, 0.60);
    p.mix.falu = 0.05;
    p.mix.ialu = 1.0 - p.mix.falu - p.mix.sfu - p.mix.load - p.mix.store -
                 p.mix.shared - p.mix.branch;
    r.push_back(make("sad", "parboil", {p, memoryPhase(600, 0.5)}, 24, 5));
  }
  // sgemm: blocked matrix multiply — the canonical compute-bound kernel.
  r.push_back(make("sgemm", "parboil",
                   {computePhase(2800, 0.82), sharedHeavyPhase(700)}, 30, 4));
  // spmv: sparse matrix-vector — the canonical memory-bound kernel.
  r.push_back(make("spmv", "parboil", {memoryPhase(1500, 0.28, 0.32, 2)}, 20,
                   7));
  // stencil: 7-point stencil, bandwidth bound with some reuse.
  r.push_back(make("stencil", "parboil",
                   {memoryPhase(1000, 0.55, 0.65, 4), computePhase(600, 0.6)},
                   26, 6));
  // tpacf: angular correlation histogram — compute with divergence.
  {
    auto p = computePhase(1800, 0.55);
    p.divergence = 0.20;
    p.mix.branch = 0.06;
    p.mix.ialu -= 0.05;
    r.push_back(make("tpacf", "parboil", {p, irregularPhase(400)}, 24, 5));
  }
  // histo: histogramming — atomic-like conflicts, store-stall heavy.
  {
    auto p = memoryPhase(1100, 0.45, 0.50, 2);
    p.mix.store = 0.22;
    p.mix.load = 0.28;
    r.push_back(make("histo", "parboil", {p}, 22, 7));
  }

  // ---- PolyBench -------------------------------------------------------
  // 2mm / 3mm / gemm: dense multiplies with different blocking quality.
  r.push_back(make("2mm", "polybench",
                   {computePhase(2200, 0.75), memoryPhase(500, 0.5, 0.6)}, 28,
                   5));
  r.push_back(make("3mm", "polybench",
                   {computePhase(1900, 0.75), memoryPhase(450, 0.5, 0.6),
                    computePhase(1300, 0.70)},
                   28, 4));
  r.push_back(make("gemm", "polybench", {computePhase(3100, 0.80)}, 30, 4));
  // atax / bicg / mvt / gesummv: matrix-vector family, bandwidth bound.
  r.push_back(make("atax", "polybench", {memoryPhase(1300, 0.35, 0.45, 3)},
                   22, 7));
  r.push_back(make("bicg", "polybench",
                   {memoryPhase(1200, 0.32, 0.40, 3), balancedPhase(400)}, 22,
                   7));
  r.push_back(make("mvt", "polybench", {memoryPhase(1400, 0.38, 0.42, 3)}, 24,
                   6));
  r.push_back(make("gesummv", "polybench",
                   {memoryPhase(1000, 0.40, 0.45, 2), computePhase(400, 0.5)},
                   22, 7));
  // correlation: mean/stddev passes (mem) then correlation matrix (compute).
  r.push_back(make("correlation", "polybench",
                   {memoryPhase(800, 0.45, 0.55, 3), computePhase(1900, 0.72)},
                   26, 5));

  // ---- Microbenchmarks -------------------------------------------------
  // Synthetic corner cases for testing and characterisation; deliberately
  // excluded from the training and evaluation splits.
  {
    // Pure compute: the frequency-sensitivity ceiling.
    PhaseProfile p = computePhase(3000, 0.85);
    p.mix.load = 0.02;
    p.mix.store = 0.01;
    p.mix.ialu += 0.06;
    p.l1_hit_rate = 0.99;
    r.push_back(make("micro_compute", "micro", {p}, 28, 4));
  }
  {
    // Pure memory: the frequency-insensitivity floor.
    PhaseProfile p = memoryPhase(1200, 0.15, 0.20, 1);
    r.push_back(make("micro_memory", "micro", {p}, 20, 7));
  }
  // Sawtooth: hard phase alternation at roughly the epoch scale — the
  // worst case for one-epoch-lookbehind predictors.
  r.push_back(make("micro_sawtooth", "micro",
                   {computePhase(600, 0.8), memoryPhase(500, 0.25, 0.3, 2)},
                   24, 12));
  {
    // Divergence-dominated control flow.
    PhaseProfile p = irregularPhase(1400);
    p.divergence = 0.5;
    r.push_back(make("micro_branchy", "micro", {p}, 20, 6));
  }

  return r;
}

const std::vector<std::string>& trainingNames() {
  // 20 benchmarks (§III.A: "over 20 benchmarks"); every registry entry not
  // reserved as an unseen evaluation program.
  static const std::vector<std::string> names = {
      "backprop", "bfs",     "hotspot",     "kmeans", "lud",
      "srad",     "gaussian", "sgemm",      "spmv",   "stencil",
      "2mm",      "atax",    "correlation", "cutcp",  "gemm",
      "3mm",      "bicg",    "mvt",         "gesummv", "histo"};
  return names;
}

const std::vector<std::string>& evaluationNames() {
  // 12 programs; 8 of them (67 %) never appear in the training set,
  // matching §V.A's ">50 % of the selected programs are not included in
  // the training set".
  static const std::vector<std::string> names = {
      "pathfinder", "nw",   "heartwall", "lavamd", "streamcluster", "mriq",
      "sad",        "tpacf", "hotspot",  "sgemm",  "spmv",          "bfs"};
  return names;
}

}  // namespace

const std::vector<KernelProfile>& allWorkloads() {
  static const std::vector<KernelProfile> registry = buildRegistry();
  return registry;
}

const KernelProfile& workloadByName(const std::string& name) {
  for (const auto& k : allWorkloads())
    if (k.name == name) return k;
  throw DataError("unknown workload: " + name);
}

std::vector<KernelProfile> trainingWorkloads() {
  std::vector<KernelProfile> out;
  for (const auto& n : trainingNames()) out.push_back(workloadByName(n));
  return out;
}

std::vector<KernelProfile> evaluationWorkloads() {
  std::vector<KernelProfile> out;
  for (const auto& n : evaluationNames()) out.push_back(workloadByName(n));
  return out;
}

}  // namespace ssm
