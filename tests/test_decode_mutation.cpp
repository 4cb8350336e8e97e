// Seeded mutation harness for the decoders of untrusted input: every mutant
// of a valid .ssmtrace image, Gpu snapshot, model text or spec-grammar
// string must either decode or throw DataError. Nothing else may escape —
// no ContractError from a validating constructor, no bad_alloc from a
// mangled count, no length_error.
//
// Binary inputs: a v1 trace, a v2 trace with thermal tracks, a v3 trace
// with keyframes, and a mid-run Gpu snapshot with thermal attached.
// Mutants: byte flips, truncations, splices, inflated counts and (for
// traces) version rewrites. Trace headers are rewritten after every
// mutation so the payload checksum passes and the payload parser sees the
// mutant.
//
// Text inputs: a small model text, a workload-profile text and valid
// --faults, --thermal and --traffic specs. Mutants: character flips,
// truncations, splices, token deletions and hostile numbers (huge,
// negative, NaN, out of int range) in place of a number. A grammar string
// that parses must also round-trip: parse(print(x)) prints x again; a
// profile text that parses must write back to a text that parses and
// writes to the same bytes.

#include <gtest/gtest.h>

#include <cstdint>
#include <exception>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <typeinfo>
#include <utility>
#include <vector>

#include "baselines/pcstall.hpp"
#include "common/check.hpp"
#include "common/rng.hpp"
#include "core/ssm_io.hpp"
#include "dc/traffic.hpp"
#include "engine/epoch_loop.hpp"
#include "engine/fork.hpp"
#include "engine/sim_backend.hpp"
#include "engine/trace_io.hpp"
#include "faults/fault_spec.hpp"
#include "gpusim/gpu_snapshot.hpp"
#include "gpusim/trace.hpp"
#include "thermal/thermal_spec.hpp"
#include "workloads/kernel_profile.hpp"
#include "workloads/profile_io.hpp"

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

// ---- text decoders --------------------------------------------------------

/// A small valid model text: 2 features, 4 levels, one hidden layer in each
/// net, deterministic non-trivial parameters.
std::string modelImage() {
  std::ostringstream os;
  os << "ssmdvfs-model-v1\nfeatures 2 0 3\nlevels 4\ndecode_theta 0.5\n"
        "corrupt 0.1 0.5\ninit_seed 7\ntrain 10 0.001\n"
        "decision_hidden 1 3\ncalibrator_hidden 1 2\n"
        "standardizer 3 0.5 -1 2\n3 1 0.5 2\n";
  int k = 0;
  const auto vec = [&](std::size_t n, bool mask) {
    os << n;
    for (std::size_t i = 0; i < n; ++i, ++k)
      os << ' ' << (mask ? (k % 5 != 0 ? 1 : 0) : 0.125 * (k % 11) - 0.5);
    os << '\n';
  };
  const auto net = [&](const char* name, const std::vector<int>& dims) {
    os << name << '\n' << dims.size() - 1 << '\n';
    for (std::size_t l = 0; l + 1 < dims.size(); ++l) {
      const auto in = static_cast<std::size_t>(dims[l]);
      const auto out = static_cast<std::size_t>(dims[l + 1]);
      os << in << ' ' << out << '\n';
      vec(in * out, false);
      vec(out, false);
      vec(in * out, true);
    }
  };
  net("decision", {3, 3, 4});
  net("calibrator", {7, 2, 1});
  return os.str();
}

/// Start offsets of the whitespace-separated tokens of `text`.
std::vector<std::size_t> tokenStarts(std::string_view text) {
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < text.size(); ++i)
    if (text[i] != ' ' && text[i] != '\n' &&
        (i == 0 || text[i - 1] == ' ' || text[i - 1] == '\n'))
      out.push_back(i);
  return out;
}

/// One mutant of a text input. Numbers are replaced whole: a token runs to
/// the next blank, newline or grammar separator.
std::string mutateText(const std::string& good, Rng& rng) {
  static constexpr const char* kHostile[] = {
      "999999999999999", "-1", "0", "4294967297", "4294967298", "nan",
      "-nan", "inf", "-inf", "1e999", "1e308", "-2147483648", "2147483647",
      "18446744073709551615", "9223372036854775808", "3.5", "+1", "0x10",
      "", "1e-320"};
  static constexpr std::string_view kChars = "0123456789-+.e=,;:| \nanx";
  std::string m = good;
  const auto pick = [&](std::size_t n) {
    return static_cast<std::size_t>(rng.nextBelow(n));
  };
  const auto tokenEnd = [&](std::size_t at) {
    const std::size_t end = m.find_first_of(" \n=,;:", at + 1);
    return end == std::string::npos ? m.size() : end;
  };
  switch (rng.nextBelow(5)) {
    case 0: {  // flip 1-4 characters
      const std::size_t flips = 1 + pick(4);
      for (std::size_t i = 0; i < flips && !m.empty(); ++i)
        m[pick(m.size())] = kChars[pick(kChars.size())];
      break;
    }
    case 1:  // truncate
      m.resize(pick(m.size()));
      break;
    case 2: {  // splice a chunk over, or into, another position
      const std::string chunk = good.substr(pick(good.size()), 1 + pick(24));
      const std::size_t dst = pick(m.size());
      if (rng.nextBelow(2) == 0)
        m.replace(dst, chunk.size(), chunk);
      else
        m.insert(dst, chunk);
      break;
    }
    case 3: {  // a hostile number in place of a value or number token
      std::vector<std::size_t> starts;
      for (std::size_t i = 0; i < m.size(); ++i)
        if ((m[i] >= '0' && m[i] <= '9') &&
            (i == 0 || std::string_view(" \n=,").find(m[i - 1]) !=
                           std::string_view::npos))
          starts.push_back(i);
      if (starts.empty()) break;
      const std::size_t at = starts[pick(starts.size())];
      m.replace(at, tokenEnd(at) - at, kHostile[pick(std::size(kHostile))]);
      break;
    }
    default: {  // delete one token
      const std::vector<std::size_t> starts = tokenStarts(m);
      if (starts.empty()) break;
      const std::size_t at = starts[pick(starts.size())];
      m.erase(at, tokenEnd(at) - at);
      break;
    }
  }
  return m;
}

/// Runs `decode` on mutants of the `inputs`; returns how many escaped with
/// anything other than DataError (each is also reported).
template <class Decode>
int textEscapes(const std::vector<std::string>& inputs, std::uint64_t seed,
                Decode decode) {
  Rng rng(seed);
  int escaped = 0;
  for (int i = 0; i < kMutantsPerInput; ++i) {
    const std::string m = mutateText(inputs[rng.nextBelow(inputs.size())], rng);
    try {
      decode(m);
    } catch (const DataError&) {
    } catch (const std::exception& e) {
      ++escaped;
      ADD_FAILURE() << "mutant '" << m << "' (seed " << seed
                    << ") escaped with " << typeid(e).name() << ": "
                    << e.what();
    }
  }
  return escaped;
}

void decodeModel(const std::string& text) {
  std::istringstream is(text);
  static_cast<void>(deserializeModel(is));
}

/// Parses `text`; whatever is accepted must print to a canonical form that
/// parses back to the same print.
template <class Spec>
void parseRoundTrip(const std::string& text) {
  const std::string printed = Spec::parse(text).print();
  std::string again;
  try {
    again = Spec::parse(printed).print();
  } catch (const DataError& e) {
    throw std::logic_error("canonical form '" + printed +
                           "' rejected: " + e.what());
  }
  if (again != printed)
    throw std::logic_error("'" + printed + "' printed back as '" + again +
                           "'");
}

TEST(DecodeMutation, ModelImageDecodes) {
  std::istringstream is(modelImage());
  const SsmModel model = deserializeModel(is);
  EXPECT_EQ(model.config().num_levels, 4);
  EXPECT_EQ(model.config().features.size(), 2U);
}

TEST(DecodeMutation, ModelTextMutantsDecodeOrThrowDataError) {
  EXPECT_EQ(textEscapes({modelImage()}, 5, decodeModel), 0);
}

TEST(DecodeMutation, ModelTextRejectsHugeAndDegenerateSizes) {
  const std::string good = modelImage();
  for (const auto& [from, to] :
       {std::pair<std::string, std::string>{"standardizer 3", 
                                            "standardizer 999999999999999"},
        {"decision_hidden 1 3", "decision_hidden 999999999999999"},
        {"decision_hidden 1 3", "decision_hidden 1 2000000000"},
        {"decision_hidden 1 3", "decision_hidden 1 -3"},
        {"levels 4", "levels 0"},
        {"levels 4", "levels 2147483647"},
        {"features 2 0 3", "features 999999999999999 0 3"}}) {
    std::string bad = good;
    bad.replace(bad.find(from), from.size(), to);
    EXPECT_THROW(decodeModel(bad), DataError) << to;
  }
}

TEST(DecodeMutation, FaultSpecMutantsParseOrThrowDataError) {
  EXPECT_EQ(textEscapes({"noise:p=0.3,sigma=0.25,bias=0.05;dropout:p=0.1,"
                         "mode=stale;delay:p=0.2,k=3;fail:p=0.1",
                         "stuck:p=0.05,epochs=6;jitter:p=0.3,frac=0.15;"
                         "heatsoak:add=5,ramp=100;window:start=10,end=60",
                         "tsensor:p=0.1,mode=lag,k=2;tjolt:p=0.1,amp=3"},
                        6, parseRoundTrip<faults::FaultSpec>),
            0);
}

TEST(DecodeMutation, ThermalSpecMutantsParseOrThrowDataError) {
  EXPECT_EQ(textEscapes({"amb=40,rc=0.5,cc=0.02,rp=0.1,cp=0.5",
                         "trip=80,ptrip=75,hyst=2,floor=1,recover=5", "on"},
                        7, parseRoundTrip<thermal::ThermalScenario>),
            0);
}

TEST(DecodeMutation, TrafficSpecMutantsParseOrThrowDataError) {
  EXPECT_EQ(textEscapes({"shape=bursty;jobs=64;rate=2;slack=3;burst=6;"
                         "duty=0.25;period=4;prio=2",
                         "shape=diurnal;jobs=10;rate=1;period=3",
                         "shape=adversarial;jobs=8;burst=4;prio=16"},
                        8, parseRoundTrip<dc::TrafficSpec>),
            0);
}

/// A small valid workload-profile text: two kernels, one of them two-phase.
std::string profileImage() {
  return "# two kernels\n"
         "kernel k1 custom\nwarps_per_cluster 8\nphase_loops 2\n"
         "phase ialu=0.4 falu=0.2 sfu=0 load=0.2 store=0.05 shared=0.05 "
         "branch=0.1 l1=0.8 l2=0.5 ilp=4 div=0.1 dep=0.25 insts=1000\n"
         "phase ialu=0.3 falu=0.1 sfu=0.05 load=0.3 store=0.1 shared=0.1 "
         "branch=0.05 l1=0.6 l2=0.4 ilp=2 div=0.2 dep=0.5 insts=700\n"
         "end\n"
         "kernel k2 rodinia\nwarps_per_cluster 16\nphase_loops 1\n"
         "phase ialu=0.9 falu=0 sfu=0 load=0.05 store=0 shared=0 "
         "branch=0.05 l1=0.9 l2=0.9 ilp=8 div=0 dep=0.1 insts=2500\n"
         "end\n";
}

/// Parses a profile text; whatever is accepted must write back to a text
/// that parses and writes to the same bytes again.
void profileRoundTrip(const std::string& text) {
  std::istringstream is(text);
  std::ostringstream once;
  writeProfiles(parseProfiles(is), once);
  std::istringstream back(once.str());
  std::ostringstream twice;
  try {
    writeProfiles(parseProfiles(back), twice);
  } catch (const DataError& e) {
    throw std::logic_error("written profile rejected: " +
                           std::string(e.what()));
  }
  if (twice.str() != once.str())
    throw std::logic_error("profile wrote back as '" + twice.str() + "'");
}

TEST(DecodeMutation, ProfileTextMutantsParseOrThrowDataError) {
  profileRoundTrip(profileImage());
  EXPECT_EQ(textEscapes({profileImage()}, 9, profileRoundTrip), 0);
}

TEST(DecodeMutation, ProfileTextRejectsInexactAndNonFiniteNumbers) {
  const std::string good = profileImage();
  for (const auto& [from, to] :
       {std::pair<std::string, std::string>{"ilp=4", "ilp=1e300"},
        {"ilp=4", "ilp=2.7"},
        {"ilp=4", "ilp=4294967300"},
        {"insts=1000", "insts=1e5"},
        {"insts=1000", "insts=9223372036854775808"},
        {"l1=0.8", "l1=nan"},
        {"l1=0.8", "l1=inf"},
        {"l1=0.8", "l1=0x1p-1"},
        {"warps_per_cluster 8", "warps_per_cluster 8x"},
        {"warps_per_cluster 8", "warps_per_cluster 8 9"},
        {"phase_loops 2", "phase_loops 2.5"},
        {"phase_loops 2", "phase_loops"}}) {
    std::string bad = good;
    bad.replace(bad.find(from), from.size(), to);
    std::istringstream is(bad);
    EXPECT_THROW(static_cast<void>(parseProfiles(is)), DataError) << to;
  }
}

TEST(DecodeMutation, GrammarsRejectNaNAndOutOfRangeIntegers) {
  for (const char* bad : {"noise:p=0.5,sigma=nan", "jitter:p=0.5,frac=nan",
                          "noise:p=0.5,bias=inf", "window:start=1e999",
                          "window:start=9223372036854775808"})
    EXPECT_THROW(static_cast<void>(faults::FaultSpec::parse(bad)), DataError)
        << bad;
  for (const char* bad : {"trip=nan", "trip=40,hyst=nan", "rc=inf",
                          "floor=4294967296"})
    EXPECT_THROW(static_cast<void>(thermal::ThermalScenario::parse(bad)),
                 DataError)
        << bad;
  for (const char* bad : {"shape=steady;jobs=4294967298", "rate=inf",
                          "prio=4294967298", "period=nan"})
    EXPECT_THROW(static_cast<void>(dc::TrafficSpec::parse(bad)), DataError)
        << bad;
}

}  // namespace
}  // namespace ssm
