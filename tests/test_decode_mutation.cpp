// Seeded mutation harness for the binary decoders: every mutant of a valid
// .ssmtrace image or Gpu snapshot must either decode or throw DataError.
// Nothing else may escape — no ContractError from a validating constructor,
// no bad_alloc from a mangled count, no length_error.
//
// Inputs: a v1 trace, a v2 trace with thermal tracks, a v3 trace with
// keyframes, and a mid-run Gpu snapshot with thermal attached. Mutants:
// byte flips, truncations, splices, inflated counts and (for traces)
// version rewrites. Trace headers are rewritten after every mutation so the
// payload checksum passes and the payload parser sees the mutant.

#include <gtest/gtest.h>

#include <cstdint>
#include <exception>
#include <string>
#include <string_view>
#include <typeinfo>
#include <utility>
#include <vector>

#include "baselines/pcstall.hpp"
#include "common/check.hpp"
#include "common/rng.hpp"
#include "engine/epoch_loop.hpp"
#include "engine/fork.hpp"
#include "engine/sim_backend.hpp"
#include "engine/trace_io.hpp"
#include "gpusim/gpu_snapshot.hpp"
#include "gpusim/trace.hpp"
#include "workloads/kernel_profile.hpp"

namespace ssm {
namespace {

constexpr std::size_t kHeader = 28;
constexpr int kMutantsPerInput = 1200;

Gpu smallGpu(bool thermal) {
  GpuConfig cfg;
  cfg.num_clusters = 2;
  Gpu gpu(cfg, VfTable::titanX(), workloadByName("spmv"), 777,
          ChipPowerModel(cfg.num_clusters));
  if (thermal) gpu.attachThermal(thermal::ThermalParams{});
  return gpu;
}

/// A short pcstall recording: v1 plain, v2 with thermal, v3 with keyframes.
std::string recordImage(bool thermal, std::int64_t keyframe_every) {
  const VfTable vf = VfTable::titanX();
  const PcstallFactory factory(vf, PcstallConfig{});
  EpochTraceRecorder rec;
  rec.enableReplayCapture();
  std::vector<engine::TraceKeyframe> keyframes;
  engine::SimBackend backend(smallGpu(thermal));
  engine::LoopConfig cfg;
  cfg.max_time_ns = kNsPerMs / 4;
  cfg.max_epochs = 24;
  cfg.trace = &rec;
  cfg.keyframe_every = keyframe_every;
  cfg.keyframes = keyframe_every > 0 ? &keyframes : nullptr;
  const RunResult run =
      engine::EpochLoop(cfg).run(backend, backend, factory, "pcstall");
  engine::EpochTrace trace =
      engine::traceFromRecorder(rec, "spmv", "pcstall", 777, vf, run);
  trace.keyframes = std::move(keyframes);
  return engine::serializeTrace(trace);
}

std::string snapshotImage() {
  engine::GpuFork fork(smallGpu(/*thermal=*/true));
  for (int e = 0; e < 5; ++e) fork.stepUniform(e % 4);
  return serializeGpu(fork.gpu());
}

void putU32(std::string& bytes, std::size_t at, std::uint32_t v) {
  for (int i = 0; i < 4; ++i)
    bytes[at + static_cast<std::size_t>(i)] =
        static_cast<char>((v >> (8 * i)) & 0xFF);
}

void putU64(std::string& bytes, std::size_t at, std::uint64_t v) {
  for (int i = 0; i < 8; ++i)
    bytes[at + static_cast<std::size_t>(i)] =
        static_cast<char>((v >> (8 * i)) & 0xFF);
}

std::uint32_t getU32(std::string_view bytes, std::size_t at) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i)
    v |= static_cast<std::uint32_t>(static_cast<unsigned char>(
             bytes[at + static_cast<std::size_t>(i)]))
         << (8 * i);
  return v;
}

/// Offsets in [from, size) holding a small u32 — where the count prefixes
/// live, among other things.
std::vector<std::size_t> countLikeOffsets(std::string_view bytes,
                                          std::size_t from) {
  std::vector<std::size_t> out;
  for (std::size_t at = from; at + 4 <= bytes.size(); ++at) {
    const std::uint32_t v = getU32(bytes, at);
    if (v >= 1 && v <= 4096) out.push_back(at);
  }
  return out;
}

/// One mutant of `good`, mutating only bytes at or after `from`.
std::string mutate(const std::string& good, std::size_t from,
                   const std::vector<std::size_t>& counts, Rng& rng) {
  std::string m = good;
  const std::size_t body = m.size() - from;
  const auto pick = [&](std::size_t n) {
    return static_cast<std::size_t>(rng.nextBelow(n));
  };
  switch (rng.nextBelow(5)) {
    case 0: {  // flip 1-8 bytes
      const std::size_t flips = 1 + pick(8);
      for (std::size_t i = 0; i < flips; ++i) {
        const std::size_t at = from + pick(body);
        m[at] = static_cast<char>(m[at] ^ static_cast<char>(1 + pick(255)));
      }
      break;
    }
    case 1:  // truncate
      m.resize(from + pick(body));
      break;
    case 2: {  // splice: copy a chunk of the image over another position
      const std::size_t len = 1 + pick(64);
      const std::size_t src = from + pick(body);
      const std::size_t dst = from + pick(body);
      const std::string chunk = good.substr(src, len);
      if (rng.nextBelow(2) == 0)
        m.replace(dst, chunk.size(), chunk);
      else
        m.insert(dst, chunk);
      break;
    }
    case 3: {  // inflate a count-like u32
      const std::size_t at = counts[pick(counts.size())];
      static constexpr std::uint32_t kBig[] = {0xFFFFFFFFu, 0x7FFFFFFFu,
                                               0x10000000u, 0x00010000u};
      const std::uint32_t v = rng.nextBelow(2) == 0
                                  ? kBig[pick(4)]
                                  : getU32(m, at) * (2 + pick(64));
      putU32(m, at, v);
      break;
    }
    default: {  // zero or max a random 8-byte word
      if (body < 8) break;
      const std::size_t at = from + pick(body - 7);
      putU64(m, at, rng.nextBelow(2) == 0 ? 0 : ~std::uint64_t{0});
      break;
    }
  }
  return m;
}

/// Makes the outer integrity checks pass so the payload parser sees the
/// mutant; sometimes also claims another supported version.
void rewriteHeader(std::string& bytes, Rng& rng) {
  if (bytes.size() < kHeader) return;
  if (rng.nextBelow(8) == 0)
    putU32(bytes, 8, static_cast<std::uint32_t>(1 + rng.nextBelow(3)));
  const std::string_view payload = std::string_view(bytes).substr(kHeader);
  putU64(bytes, 12, payload.size());
  putU64(bytes, 20, engine::fnv1a64(payload));
}

/// Runs `decode` on every mutant; returns how many escaped with anything
/// other than DataError (each is also reported).
template <class Decode>
int escapes(const std::string& good, bool is_trace, std::uint64_t seed,
            Decode decode) {
  const std::size_t from = is_trace ? kHeader : 0;
  const std::vector<std::size_t> counts = countLikeOffsets(good, from);
  EXPECT_FALSE(counts.empty());
  Rng rng(seed);
  int escaped = 0;
  for (int i = 0; i < kMutantsPerInput; ++i) {
    std::string m = mutate(good, from, counts, rng);
    if (is_trace) rewriteHeader(m, rng);
    try {
      decode(m);
    } catch (const DataError&) {
    } catch (const std::exception& e) {
      ++escaped;
      ADD_FAILURE() << "mutant " << i << " (seed " << seed << ") escaped with "
                    << typeid(e).name() << ": " << e.what();
    } catch (...) {
      ++escaped;
      ADD_FAILURE() << "mutant " << i << " (seed " << seed
                    << ") escaped with a non-std exception";
    }
  }
  return escaped;
}

void decodeTrace(const std::string& bytes) {
  static_cast<void>(engine::deserializeTrace(bytes));
}

void decodeSnapshot(const std::string& bytes) {
  static_cast<void>(deserializeGpu(bytes));
}

TEST(DecodeMutation, InputsAreTheVersionsTheyClaim) {
  EXPECT_EQ(getU32(recordImage(false, 0), 8), engine::kTraceVersionV1);
  EXPECT_EQ(getU32(recordImage(true, 0), 8), engine::kTraceVersionV2);
  EXPECT_EQ(getU32(recordImage(false, 8), 8), engine::kTraceVersionV3);
}

TEST(DecodeMutation, TraceV1MutantsDecodeOrThrowDataError) {
  EXPECT_EQ(escapes(recordImage(false, 0), true, 1, decodeTrace), 0);
}

TEST(DecodeMutation, TraceV2MutantsDecodeOrThrowDataError) {
  EXPECT_EQ(escapes(recordImage(true, 0), true, 2, decodeTrace), 0);
}

TEST(DecodeMutation, TraceV3MutantsDecodeOrThrowDataError) {
  EXPECT_EQ(escapes(recordImage(false, 8), true, 3, decodeTrace), 0);
}

TEST(DecodeMutation, SnapshotMutantsDecodeOrThrowDataError) {
  EXPECT_EQ(escapes(snapshotImage(), false, 4, decodeSnapshot), 0);
}

}  // namespace
}  // namespace ssm
