#include "engine/trace_io.hpp"

#include <cstring>
#include <fstream>
#include <sstream>
#include <utility>

#include "common/bytes.hpp"
#include "common/check.hpp"
#include "gpusim/trace.hpp"

namespace ssm::engine {
namespace {

constexpr std::size_t kHeaderSize = 8 + 4 + 8 + 8;

// Encoded sizes (lower bounds) of the repeated payload records, used to
// bound every decoded count by the bytes remaining.
constexpr std::size_t kVfPointBytes = 2 * 8;
constexpr std::size_t kEpochHeaderBytes = 4 * 8 + 1;
constexpr std::size_t kObservationBytes =
    4 + 4 * 8 + 4 + 1 + 8 * static_cast<std::size_t>(kNumCounters);
constexpr std::size_t kKeyframeHeaderBytes = 8 + 8 + 4;

void writeRunResult(ByteWriter& w, const RunResult& r, bool has_thermal) {
  w.str(r.workload);
  w.str(r.mechanism);
  w.i64(r.exec_time_ns);
  w.f64(r.energy_j);
  w.f64(r.edp);
  w.i64(r.instructions);
  w.i32(r.epochs);
  w.f64(r.mean_power_w);
  w.u32(static_cast<std::uint32_t>(r.level_histogram.size()));
  for (double h : r.level_histogram) w.f64(h);
  if (has_thermal) {
    w.f64(r.peak_temp_c);
    w.i32(r.throttle_epochs);
  }
}

RunResult readRunResult(ByteReader& r, bool has_thermal) {
  RunResult out;
  out.workload = r.str();
  out.mechanism = r.str();
  out.exec_time_ns = r.i64();
  out.energy_j = r.f64();
  out.edp = r.f64();
  out.instructions = r.i64();
  out.epochs = r.i32();
  out.mean_power_w = r.f64();
  const std::uint32_t hist = r.count(sizeof(double));
  out.level_histogram.reserve(hist);
  for (std::uint32_t i = 0; i < hist; ++i)
    out.level_histogram.push_back(r.f64());
  if (has_thermal) {
    out.peak_temp_c = r.f64();
    out.throttle_epochs = r.i32();
  }
  return out;
}

void writeObservation(ByteWriter& w, const EpochObservation& obs) {
  w.i32(obs.level);
  w.f64(obs.power_w);
  w.i64(obs.instructions);
  w.i64(obs.epoch_start_ns);
  w.i64(obs.epoch_len_ns);
  w.i32(obs.cluster_id);
  w.u8(obs.cluster_done ? 1 : 0);
  for (double c : obs.counters.raw()) w.f64(c);
}

EpochObservation readObservation(ByteReader& r) {
  EpochObservation obs;
  obs.level = r.i32();
  obs.power_w = r.f64();
  obs.instructions = r.i64();
  obs.epoch_start_ns = r.i64();
  obs.epoch_len_ns = r.i64();
  obs.cluster_id = r.i32();
  obs.cluster_done = r.u8() != 0;
  for (int c = 0; c < kNumCounters; ++c)
    obs.counters.set(static_cast<CounterId>(c), r.f64());
  return obs;
}

[[nodiscard]] bool traceHasThermal(const EpochTrace& trace) {
  for (const GpuEpochReport& rep : trace.epochs)
    if (rep.hasThermal()) return true;
  return false;
}

/// The on-disk version a trace needs — always the LOWEST one that can
/// represent it: keyframes force v3, thermal tracks alone v2, and every
/// keyframe-free thermal-free trace stays byte-identical to v1 goldens.
std::uint32_t versionFor(const EpochTrace& trace) {
  if (!trace.keyframes.empty()) return kTraceVersionV3;
  if (traceHasThermal(trace)) return kTraceVersionV2;
  return kTraceVersionV1;
}

std::string buildPayload(const EpochTrace& trace, std::uint32_t version) {
  const bool has_thermal =
      version == kTraceVersionV3 ? traceHasThermal(trace)
                                 : version >= kTraceVersionV2;
  ByteWriter w;
  w.str(trace.workload);
  w.str(trace.mechanism);
  w.u64(trace.seed);
  // v3 decouples the thermal tracks from the version number: a keyframed
  // trace may or may not carry them, so the payload says which.
  if (version == kTraceVersionV3) w.u8(has_thermal ? 1 : 0);
  w.u32(static_cast<std::uint32_t>(trace.vf.size()));
  for (const VfPoint& p : trace.vf.points()) {
    w.f64(p.voltage_v);
    w.f64(p.freq_mhz);
  }
  writeRunResult(w, trace.recorded, has_thermal);
  w.u32(static_cast<std::uint32_t>(trace.epochs.size()));
  w.u32(static_cast<std::uint32_t>(trace.numClusters()));
  for (const GpuEpochReport& rep : trace.epochs) {
    SSM_CHECK(static_cast<int>(rep.clusters.size()) == trace.numClusters(),
              "cluster count changed mid-trace; cannot serialize");
    w.f64(rep.chip_power_w);
    w.f64(rep.dram_util);
    w.i64(rep.epoch_start_ns);
    w.i64(rep.epoch_len_ns);
    w.u8(rep.all_done ? 1 : 0);
    if (has_thermal) {
      SSM_CHECK(rep.hasThermal() &&
                    rep.cluster_temps_c.size() == rep.clusters.size(),
                "every epoch of a thermal trace must carry one temperature "
                "per cluster");
      w.f64(rep.package_temp_c);
      for (double t : rep.cluster_temps_c) w.f64(t);
    }
    for (const EpochObservation& obs : rep.clusters) writeObservation(w, obs);
  }
  if (version == kTraceVersionV3) {
    w.u32(static_cast<std::uint32_t>(trace.keyframes.size()));
    std::int64_t prev_epoch = -1;
    for (const TraceKeyframe& kf : trace.keyframes) {
      SSM_CHECK(kf.epoch > prev_epoch &&
                    kf.epoch < static_cast<std::int64_t>(trace.epochs.size()),
                "keyframes must be strictly increasing epoch boundaries "
                "inside the trace");
      prev_epoch = kf.epoch;
      w.i64(kf.epoch);
      w.u64(fnv1a64(kf.gpu_blob));
      w.str(kf.gpu_blob);
    }
  }
  return w.take();
}

EpochTrace parsePayload(std::string_view payload, std::uint32_t version) {
  ByteReader r(payload);
  EpochTrace trace;
  trace.workload = r.str();
  trace.mechanism = r.str();
  trace.seed = r.u64();
  const bool has_thermal = version == kTraceVersionV3
                               ? r.u8() != 0
                               : version >= kTraceVersionV2;
  const std::uint32_t vf_points = r.count(kVfPointBytes);
  if (vf_points == 0)
    throw DataError("SSMTRACE payload has an empty V/f table");
  std::vector<VfPoint> points;
  points.reserve(vf_points);
  for (std::uint32_t i = 0; i < vf_points; ++i) {
    VfPoint p;
    p.voltage_v = r.f64();
    p.freq_mhz = r.f64();
    points.push_back(p);
  }
  trace.vf = VfTable(std::move(points));
  trace.recorded = readRunResult(r, has_thermal);
  const std::uint32_t num_epochs = r.count(kEpochHeaderBytes);
  // Only a trace with epochs stores observations to bound the count by.
  const std::uint32_t num_clusters =
      r.count(num_epochs > 0 ? kObservationBytes : 0);
  trace.epochs.reserve(num_epochs);
  for (std::uint32_t e = 0; e < num_epochs; ++e) {
    GpuEpochReport rep;
    rep.chip_power_w = r.f64();
    rep.dram_util = r.f64();
    rep.epoch_start_ns = r.i64();
    rep.epoch_len_ns = r.i64();
    rep.all_done = r.u8() != 0;
    if (has_thermal) {
      rep.package_temp_c = r.f64();
      rep.cluster_temps_c.reserve(num_clusters);
      for (std::uint32_t c = 0; c < num_clusters; ++c)
        rep.cluster_temps_c.push_back(r.f64());
    }
    rep.clusters.reserve(num_clusters);
    for (std::uint32_t c = 0; c < num_clusters; ++c)
      rep.clusters.push_back(readObservation(r));
    trace.epochs.push_back(std::move(rep));
  }
  if (version == kTraceVersionV3) {
    const std::uint32_t num_keyframes = r.count(kKeyframeHeaderBytes);
    trace.keyframes.reserve(num_keyframes);
    std::int64_t prev_epoch = -1;
    for (std::uint32_t k = 0; k < num_keyframes; ++k) {
      TraceKeyframe kf;
      kf.epoch = r.i64();
      if (kf.epoch <= prev_epoch ||
          kf.epoch >= static_cast<std::int64_t>(num_epochs))
        throw DataError(
            "SSMTRACE keyframe block has out-of-order or out-of-range "
            "epochs");
      prev_epoch = kf.epoch;
      const std::uint64_t checksum = r.u64();
      kf.gpu_blob = r.str();
      if (fnv1a64(kf.gpu_blob) != checksum)
        throw DataError("SSMTRACE keyframe block corrupted: checksum mismatch");
      trace.keyframes.push_back(std::move(kf));
    }
  }
  if (!r.exhausted())
    throw DataError("SSMTRACE payload has trailing bytes after the last epoch");
  return trace;
}

struct Header {
  std::uint32_t version = 0;
  std::uint64_t payload_size = 0;
  std::uint64_t checksum = 0;
};

Header parseHeader(std::string_view bytes) {
  if (bytes.size() < kHeaderSize)
    throw DataError("SSMTRACE file truncated: shorter than the 28-byte header");
  if (bytes.substr(0, kTraceMagic.size()) != kTraceMagic)
    throw DataError("not an SSMTRACE file (bad magic)");
  Header h;
  std::memcpy(&h.version, bytes.data() + 8, sizeof h.version);
  std::memcpy(&h.payload_size, bytes.data() + 12, sizeof h.payload_size);
  std::memcpy(&h.checksum, bytes.data() + 20, sizeof h.checksum);
  if (h.version < kTraceVersionV1 || h.version > kTraceVersion)
    throw DataError("unsupported SSMTRACE version " + std::to_string(h.version) +
                    " (this build reads versions " +
                    std::to_string(kTraceVersionV1) + "-" +
                    std::to_string(kTraceVersion) + ")");
  return h;
}

}  // namespace

std::uint64_t fnv1a64(std::string_view bytes) noexcept {
  std::uint64_t h = 14695981039346656037ULL;
  for (char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

EpochTrace traceFromRecorder(const EpochTraceRecorder& recorder,
                             std::string workload, std::string mechanism,
                             std::uint64_t seed, VfTable vf,
                             RunResult recorded) {
  if (!recorder.replayCaptureEnabled())
    throw DataError(
        "recorder ran without enableReplayCapture(): the full 47-counter "
        "observations were not retained and the trace cannot be built");
  EpochTrace trace;
  trace.workload = std::move(workload);
  trace.mechanism = std::move(mechanism);
  trace.seed = seed;
  trace.vf = std::move(vf);
  trace.recorded = std::move(recorded);
  trace.epochs = recorder.reports();
  return trace;
}

std::string serializeTrace(const EpochTrace& trace) {
  const std::uint32_t version = versionFor(trace);
  const std::string payload = buildPayload(trace, version);
  const auto payload_size = static_cast<std::uint64_t>(payload.size());
  const std::uint64_t checksum = fnv1a64(payload);

  std::string out;
  out.reserve(kHeaderSize + payload.size());
  out.append(kTraceMagic);
  out.append(reinterpret_cast<const char*>(&version), sizeof version);
  out.append(reinterpret_cast<const char*>(&payload_size), sizeof payload_size);
  out.append(reinterpret_cast<const char*>(&checksum), sizeof checksum);
  out.append(payload);
  return out;
}

EpochTrace deserializeTrace(std::string_view bytes) {
  const Header h = parseHeader(bytes);
  const std::string_view payload = bytes.substr(kHeaderSize);
  if (payload.size() < h.payload_size)
    throw DataError("SSMTRACE file truncated: header announces " +
                    std::to_string(h.payload_size) + " payload bytes, found " +
                    std::to_string(payload.size()));
  if (payload.size() > h.payload_size)
    throw DataError("SSMTRACE file has trailing bytes after the payload");
  const std::uint64_t actual = fnv1a64(payload);
  if (actual != h.checksum)
    throw DataError("SSMTRACE payload corrupted: checksum mismatch");
  return parsePayload(payload, h.version);
}

void saveTrace(const EpochTrace& trace, const std::string& path) {
  const std::string bytes = serializeTrace(trace);
  std::ofstream os(path, std::ios::binary);
  if (!os) throw DataError("cannot open for writing: " + path);
  os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  if (!os) throw DataError("write failed: " + path);
}

EpochTrace loadTrace(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) throw DataError("cannot open trace file: " + path);
  std::ostringstream buf;
  buf << is.rdbuf();
  if (!is && !is.eof()) throw DataError("read failed: " + path);
  return deserializeTrace(buf.str());
}

TraceFileInfo traceFileInfo(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) throw DataError("cannot open trace file: " + path);
  std::string header(kHeaderSize, '\0');
  is.read(header.data(), static_cast<std::streamsize>(header.size()));
  if (is.gcount() != static_cast<std::streamsize>(kHeaderSize))
    throw DataError("SSMTRACE file truncated: shorter than the 28-byte header");
  const Header h = parseHeader(header);
  is.seekg(0, std::ios::end);
  const auto file_size = static_cast<std::uint64_t>(is.tellg());
  if (file_size != kHeaderSize + h.payload_size)
    throw DataError("SSMTRACE file length does not match header payload_size");
  TraceFileInfo info;
  info.version = h.version;
  info.payload_size = h.payload_size;
  info.checksum = h.checksum;
  return info;
}

}  // namespace ssm::engine
