#include "engine/trace_io.hpp"

#include <cstring>
#include <fstream>
#include <sstream>
#include <utility>

#include "common/bytes.hpp"
#include "common/check.hpp"
#include "gpusim/gpu_snapshot.hpp"
#include "gpusim/trace.hpp"

namespace ssm::engine {
namespace {

constexpr std::size_t kHeaderSize = 8 + 4 + 8 + 8;

/// The trace's metadata header.
template <class IO, RecordOf<EpochTrace> Trace>
void fields(IO& io, Trace& t) {
  io(t.workload);
  io(t.mechanism);
  io(t.seed);
}

/// The recorded run; the thermal fields exist from v2 on.
template <class IO, RecordOf<RunResult> Result>
void fields(IO& io, Result& r, bool has_thermal) {
  io(r.workload);
  io(r.mechanism);
  io(r.exec_time_ns);
  io(r.energy_j);
  io(r.edp);
  io(r.instructions);
  io(r.epochs);
  io(r.mean_power_w);
  io(r.level_histogram, kScalarField);
  if (has_thermal) {
    io(r.peak_temp_c);
    io(r.throttle_epochs);
  }
}

template <class IO, RecordOf<EpochObservation> Obs>
void fields(IO& io, Obs& obs) {
  io(obs.level);
  io(obs.power_w);
  io(obs.instructions);
  io(obs.epoch_start_ns);
  io(obs.epoch_len_ns);
  io(obs.cluster_id);
  io(obs.cluster_done);
  for (auto& c : obs.counters.raw()) io(c);
}

/// One epoch: its header, the thermal tracks when the trace has them, then
/// one observation per cluster. Decoding sizes `cluster_temps_c` and
/// `clusters` to the trace's cluster count first.
template <class IO, RecordOf<GpuEpochReport> Report>
void fields(IO& io, Report& rep, bool has_thermal) {
  io(rep.chip_power_w);
  io(rep.dram_util);
  io(rep.epoch_start_ns);
  io(rep.epoch_len_ns);
  io(rep.all_done);
  if (has_thermal) {
    io(rep.package_temp_c);
    for (auto& t : rep.cluster_temps_c) io(t);
  }
  for (auto& obs : rep.clusters) fields(io, obs);
}

/// A keyframe: its epoch, the blob's own checksum, then the blob.
template <class IO, RecordOf<TraceKeyframe> Keyframe, class Checksum>
void fields(IO& io, Keyframe& kf, Checksum& checksum) {
  io(kf.epoch);
  io(checksum);
  io(kf.gpu_blob);
}

constexpr auto kRecordFields = [](auto& io, auto& rec) { fields(io, rec); };

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
  fields(w, trace);
  // v3 decouples the thermal tracks from the version number: a keyframed
  // trace may or may not carry them, so the payload says which.
  if (version == kTraceVersionV3) w(has_thermal);
  w(trace.vf.points(), kRecordFields);
  fields(w, trace.recorded, has_thermal);
  w.u32(static_cast<std::uint32_t>(trace.epochs.size()));
  w.u32(static_cast<std::uint32_t>(trace.numClusters()));
  for (const GpuEpochReport& rep : trace.epochs) {
    SSM_CHECK(static_cast<int>(rep.clusters.size()) == trace.numClusters(),
              "cluster count changed mid-trace; cannot serialize");
    SSM_CHECK(!has_thermal || rep.cluster_temps_c.size() == rep.clusters.size(),
              "every epoch of a thermal trace must carry one temperature "
              "per cluster");
    fields(w, rep, has_thermal);
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
      const std::uint64_t checksum = fnv1a64(kf.gpu_blob);
      fields(w, kf, checksum);
    }
  }
  return w.take();
}

EpochTrace parsePayload(std::string_view payload, std::uint32_t version) {
  ByteReader r(payload);
  EpochTrace trace;
  fields(r, trace);
  bool has_thermal = version >= kTraceVersionV2;
  if (version == kTraceVersionV3) r(has_thermal);
  std::vector<VfPoint> points;
  r(points, kRecordFields);
  trace.vf = constructDecoded("SSMTRACE V/f table",
                              [&] { return VfTable(std::move(points)); });
  fields(r, trace.recorded, has_thermal);
  const std::uint32_t num_epochs =
      r.count(byteSize<GpuEpochReport>([](auto& io, auto& rep) {
        fields(io, rep, /*has_thermal=*/false);
      }));
  // Only a trace with epochs stores observations to bound the count by.
  const std::uint32_t num_clusters = r.count(
      num_epochs > 0 ? byteSize<EpochObservation>(kRecordFields) : 0);
  trace.epochs.resize(num_epochs);
  for (GpuEpochReport& rep : trace.epochs) {
    if (has_thermal) rep.cluster_temps_c.resize(num_clusters);
    rep.clusters.resize(num_clusters);
    fields(r, rep, has_thermal);
  }
  if (version == kTraceVersionV3) {
    const auto keyframe_bytes =
        byteSize<TraceKeyframe>([](auto& io, auto& kf) {
          const std::uint64_t checksum = 0;
          fields(io, kf, checksum);
        });
    trace.keyframes.resize(r.count(keyframe_bytes));
    std::int64_t prev_epoch = -1;
    for (TraceKeyframe& kf : trace.keyframes) {
      std::uint64_t checksum = 0;
      fields(r, kf, checksum);
      if (kf.epoch <= prev_epoch ||
          kf.epoch >= static_cast<std::int64_t>(num_epochs))
        throw DataError(
            "SSMTRACE keyframe block has out-of-order or out-of-range "
            "epochs");
      prev_epoch = kf.epoch;
      if (fnv1a64(kf.gpu_blob) != checksum)
        throw DataError("SSMTRACE keyframe block corrupted: checksum mismatch");
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
