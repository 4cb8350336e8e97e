// Versioned, checksummed binary epoch-trace format (the .ssmtrace file).
//
// An EpochTrace is everything ReplayBackend needs to re-drive a governor
// without the simulator: the recording run's metadata (workload, mechanism,
// seed, V/f table), its final RunResult, and every GpuEpochReport — all 47
// counters for every cluster-epoch. Doubles are serialized as raw bit
// patterns (memcpy), so a round trip is exact: deserialize(serialize(t))
// compares equal field-for-field, including NaN payloads.
//
// File layout (little-endian on every platform this repo targets; fields
// are memcpy'd native-endian and the format is not meant for cross-endian
// archival):
//
//   offset  size  field
//   0       8     magic "SSMTRACE"
//   8       4     u32 format version (1, 2 or 3)
//   12      8     u64 payload_size — byte length of the payload that follows
//   20      8     u64 checksum — FNV-1a 64 over the payload bytes
//   28      ...   payload (payload_size bytes, nothing after it)
//
// Version history. v1 is the original format. v2 adds the thermal tracks:
// the RunResult block gains peak_temp_c + throttle_epochs and every epoch
// gains a package temperature plus one temperature per cluster. v3 adds
// periodic Gpu keyframes — full simulator snapshots taken at epoch
// boundaries (`record --keyframe-every N`) that let counterfactual replay
// fork and re-simulate a divergent branch — plus an explicit has-thermal
// flag so keyframed traces carry thermal tracks only when recorded. Each
// keyframe blob carries its own FNV-1a checksum, validated on read
// independently of the whole-payload checksum. The writer always picks the
// LOWEST version that can represent the trace: keyframes force v3, thermal
// tracks alone v2, everything else stays v1 — byte-identical to what the
// pre-thermal and pre-keyframe builds produced — and all three versions are
// read transparently, so committed golden traces and old archives keep
// working unchanged.
//
// Integrity rules, enforced by deserializeTrace/loadTrace (all failures
// throw DataError, never ContractError — a bad file is an input problem):
//   * magic mismatch            -> "not an SSMTRACE file"
//   * version not in {1, 2, 3}  -> unsupported version
//   * fewer payload bytes than payload_size announces -> truncated
//   * trailing bytes after the payload               -> rejected
//   * checksum mismatch (payload or keyframe blob)   -> corrupted
//   * a count larger than the bytes left can hold    -> rejected before
//                                                       any allocation
//   * values a validating constructor rejects (e.g. a V/f table that is
//     not ascending)                                 -> rejected
//
// Payload encoding: strings are u32 length + bytes; vectors are u32 count +
// elements; bools are one byte (0/1); integers and doubles are fixed-width
// memcpy. Each record's field order is written once, as a `fields(io, rec)`
// function in trace_io.cpp that the encoder, the decoder and the size
// counter all visit (common/bytes.hpp); docs/engine.md summarises it.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "gpusim/gpu.hpp"
#include "gpusim/runner.hpp"
#include "power/vf_table.hpp"

namespace ssm {
class EpochTraceRecorder;
}  // namespace ssm

namespace ssm::engine {

inline constexpr std::string_view kTraceMagic = "SSMTRACE";
/// Original format, and what every trace WITHOUT thermal tracks or keyframes
/// is still written as (byte-compatibility with committed goldens).
inline constexpr std::uint32_t kTraceVersionV1 = 1;
/// v1 plus temperature tracks. Written only when the recorded epochs carry
/// them (and no keyframes are present).
inline constexpr std::uint32_t kTraceVersionV2 = 2;
/// v2 plus checksummed Gpu keyframes and an explicit has-thermal flag.
/// Written only when the trace carries keyframes.
inline constexpr std::uint32_t kTraceVersionV3 = 3;
/// The newest version this build writes and reads.
inline constexpr std::uint32_t kTraceVersion = kTraceVersionV3;

/// A full simulator snapshot pinned to an epoch boundary: `gpu_blob` is the
/// serializeGpu() image of the machine BEFORE epoch `epoch` ran, so a branch
/// restored from it and stepped forward re-produces epochs epoch, epoch+1,
/// ... byte-identically (counterfactual replay forks from these).
struct TraceKeyframe {
  std::int64_t epoch = 0;
  std::string gpu_blob;
};

/// A fully recorded run: metadata + final stats + every epoch report.
struct EpochTrace {
  std::string workload;
  std::string mechanism;  ///< governor that produced the recorded decisions
  std::uint64_t seed = 0;
  VfTable vf = VfTable::titanX();
  /// The recording run's final RunResult. Open-loop replay reproduces this
  /// exactly for ANY governor (stats are stream-derived; see replay_backend).
  RunResult recorded;
  std::vector<GpuEpochReport> epochs;
  /// Periodic Gpu snapshots (empty unless recorded with --keyframe-every).
  /// Sorted by epoch, strictly increasing, each in [0, epochs.size()).
  std::vector<TraceKeyframe> keyframes;

  [[nodiscard]] int numClusters() const noexcept {
    return epochs.empty() ? 0
                          : static_cast<int>(epochs.front().clusters.size());
  }
};

/// FNV-1a 64-bit over arbitrary bytes — the trace checksum function.
[[nodiscard]] std::uint64_t fnv1a64(std::string_view bytes) noexcept;

/// Assembles an EpochTrace from a recorder that ran with replay capture
/// enabled (throws DataError when it was not — the column summaries alone
/// cannot reconstruct the 47-counter observations).
[[nodiscard]] EpochTrace traceFromRecorder(const EpochTraceRecorder& recorder,
                                           std::string workload,
                                           std::string mechanism,
                                           std::uint64_t seed, VfTable vf,
                                           RunResult recorded);

/// Full file image (header + payload) as a byte string.
[[nodiscard]] std::string serializeTrace(const EpochTrace& trace);

/// Parses a full file image; throws DataError per the integrity rules above.
[[nodiscard]] EpochTrace deserializeTrace(std::string_view bytes);

void saveTrace(const EpochTrace& trace, const std::string& path);
[[nodiscard]] EpochTrace loadTrace(const std::string& path);

/// Header fields of a trace file, for display without a full parse. Validates
/// magic/version and that the payload length on disk matches the header.
struct TraceFileInfo {
  std::uint32_t version = 0;
  std::uint64_t payload_size = 0;
  std::uint64_t checksum = 0;
};
[[nodiscard]] TraceFileInfo traceFileInfo(const std::string& path);

}  // namespace ssm::engine
