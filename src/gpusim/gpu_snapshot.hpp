// Full-machine Gpu snapshots as byte blobs.
//
// serializeGpu captures EVERYTHING a Gpu carries at an epoch boundary —
// static inputs (GpuConfig, V/f table, kernel profile, power-model
// coefficients) and mutable state (per-warp RNG streams and program
// counters, pending wake-ups, in-flight misses, memory-system environment,
// energy accounting, thermal nodes) — so deserializeGpu rebuilds a machine
// that continues the simulation byte-identically: every subsequent epoch
// report equals what the original Gpu would have produced.
//
// This is the substrate of trace-v3 keyframes (engine/trace_io.hpp) and the
// engine fork primitive (engine/fork.hpp): counterfactual replay restores a
// keyframe and re-simulates a divergent branch from it. Blobs are
// native-endian with no header of their own — embed them in a container
// that carries a checksum (v3 traces checksum each keyframe blob).
//
// Only epoch-boundary state is captured: SmCluster's intra-epoch bucket
// wheel and ready ring are always drained before runEpoch returns, so
// snapshotting mid-epoch is not a meaningful operation and not supported.
#pragma once

#include <string>
#include <string_view>

#include "common/bytes.hpp"
#include "gpusim/gpu.hpp"

namespace ssm {

/// A V/f point's wire fields, shared by the snapshot and the .ssmtrace
/// payload (see common/bytes.hpp for the field-list idiom).
template <class IO, RecordOf<VfPoint> Point>
void fields(IO& io, Point& p) {
  io(p.voltage_v);
  io(p.freq_mhz);
}

/// The complete machine as a byte blob; see the header comment.
[[nodiscard]] std::string serializeGpu(const Gpu& gpu);

/// Rebuilds a machine from a serializeGpu blob. Malformed or truncated
/// blobs throw DataError.
[[nodiscard]] Gpu deserializeGpu(std::string_view bytes);

}  // namespace ssm
