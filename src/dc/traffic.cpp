#include "dc/traffic.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"
#include "common/parse.hpp"
#include "common/rng.hpp"

namespace ssm::dc {

namespace {

/// Salts separating the per-job draw streams from one another.
constexpr std::uint64_t kArrivalSalt = 0xDC00;
constexpr std::uint64_t kShapeSalt = 0xDC01;

[[noreturn]] void specError(const std::string& what) {
  throw DataError("bad --traffic spec: " + what);
}

double parseDouble(std::string_view key, std::string_view value) {
  const auto d = parseNumber<double>(value);
  if (!d)
    specError(std::string(key) + "='" + std::string(value) +
              "' is not a finite number");
  return *d;
}

/// Range-checked before narrowing: an int field never wraps.
int parseInt(std::string_view key, std::string_view value) {
  const auto i = parseNumber<int>(value);
  if (!i)
    specError(std::string(key) + "='" + std::string(value) +
              "' is not an integer in int range");
  return *i;
}

const char* shapeName(TrafficSpec::Shape s) {
  switch (s) {
    case TrafficSpec::Shape::kSteady: return "steady";
    case TrafficSpec::Shape::kBursty: return "bursty";
    case TrafficSpec::Shape::kDiurnal: return "diurnal";
    case TrafficSpec::Shape::kAdversarial: return "adversarial";
  }
  return "steady";
}

/// Instantaneous arrival-rate multiplier at time `t_ms` within the shape's
/// modulation cycle. Steady is flat; bursty is a square wave (hot for
/// `duty` of each period, quiet otherwise); diurnal is a raised sine.
double rateMultiplier(const TrafficSpec& spec, double t_ms) {
  switch (spec.shape) {
    case TrafficSpec::Shape::kSteady:
      return 1.0;
    case TrafficSpec::Shape::kBursty: {
      const double phase = std::fmod(t_ms, spec.period_ms) / spec.period_ms;
      return phase < spec.duty ? spec.burst : 0.1;
    }
    case TrafficSpec::Shape::kDiurnal: {
      const double phase = std::fmod(t_ms, spec.period_ms) / spec.period_ms;
      constexpr double kPi = 3.14159265358979323846;
      return 1.0 + std::sin(2.0 * kPi * phase);
    }
    case TrafficSpec::Shape::kAdversarial:
      return 1.0;  // waves are placed directly, not drawn
  }
  return 1.0;
}

/// Peak of rateMultiplier over a cycle — the thinning envelope.
double rateEnvelope(const TrafficSpec& spec) {
  switch (spec.shape) {
    case TrafficSpec::Shape::kSteady: return 1.0;
    case TrafficSpec::Shape::kBursty: return spec.burst;
    case TrafficSpec::Shape::kDiurnal: return 2.0;
    case TrafficSpec::Shape::kAdversarial: return 1.0;
  }
  return 1.0;
}

}  // namespace

void TrafficSpec::validate() const {
  if (jobs < 1 || jobs > 1'000'000)
    specError("jobs must be in [1, 1e6], got " + std::to_string(jobs));
  if (!(rate_per_ms > 0.0))
    specError("rate must be > 0, got " + printDouble(rate_per_ms));
  if (!(slack >= 1.0))
    specError("slack must be >= 1, got " + printDouble(slack));
  if (!(burst >= 1.0))
    specError("burst must be >= 1, got " + printDouble(burst));
  if (!(duty > 0.0) || !(duty < 1.0))
    specError("duty must be in (0,1), got " + printDouble(duty));
  if (!(period_ms > 0.0))
    specError("period must be > 0, got " + printDouble(period_ms));
  if (priorities < 1 || priorities > 16)
    specError("prio must be in [1,16], got " + std::to_string(priorities));
}

TrafficSpec TrafficSpec::parse(std::string_view text) {
  TrafficSpec spec;
  text = trimBlanks(text);
  if (text.empty()) return spec;
  for (std::string_view raw : splitNonEmpty(text, ';')) {
    const std::string_view kv = trimBlanks(raw);
    if (kv.empty()) continue;
    const std::size_t eq = kv.find('=');
    if (eq == std::string_view::npos || eq == 0 || eq + 1 >= kv.size())
      specError("expected key=value pairs, got '" + std::string(kv) + "'");
    const std::string_view key = trimBlanks(kv.substr(0, eq));
    const std::string_view value = trimBlanks(kv.substr(eq + 1));
    if (key == "shape") {
      if (value == "steady") spec.shape = Shape::kSteady;
      else if (value == "bursty") spec.shape = Shape::kBursty;
      else if (value == "diurnal") spec.shape = Shape::kDiurnal;
      else if (value == "adversarial") spec.shape = Shape::kAdversarial;
      else
        specError("shape must be steady|bursty|diurnal|adversarial, got '" +
                  std::string(value) + "'");
    } else if (key == "jobs") {
      spec.jobs = parseInt(key, value);
    } else if (key == "rate") {
      spec.rate_per_ms = parseDouble(key, value);
    } else if (key == "slack") {
      spec.slack = parseDouble(key, value);
    } else if (key == "burst") {
      spec.burst = parseDouble(key, value);
    } else if (key == "duty") {
      spec.duty = parseDouble(key, value);
    } else if (key == "period") {
      spec.period_ms = parseDouble(key, value);
    } else if (key == "prio") {
      spec.priorities = parseInt(key, value);
    } else {
      specError("unknown key '" + std::string(key) +
                "' (expected shape|jobs|rate|slack|burst|duty|period|prio)");
    }
  }
  spec.validate();
  return spec;
}

std::string TrafficSpec::print() const {
  std::string out = std::string("shape=") + shapeName(shape);
  out += ";jobs=" + std::to_string(jobs);
  out += ";rate=" + printDouble(rate_per_ms);
  out += ";slack=" + printDouble(slack);
  if (shape == Shape::kBursty || shape == Shape::kAdversarial)
    out += ";burst=" + printDouble(burst);
  if (shape == Shape::kBursty) out += ";duty=" + printDouble(duty);
  if (shape != Shape::kSteady) out += ";period=" + printDouble(period_ms);
  out += ";prio=" + std::to_string(priorities);
  return out;
}

TimeNs estimatedServiceNs(const KernelProfile& kernel, const GpuConfig& gpu,
                          const VfTable& vf) {
  // Issue-bound time for one cluster's resident warps at the default
  // frequency, derated by an empirical stall factor (memory and dependency
  // stalls keep real IPC well under the issue width). All clusters run the
  // same warp set, so chip completion tracks per-cluster completion.
  const double insts = static_cast<double>(kernel.totalInstsPerWarp()) *
                       kernel.warps_per_cluster;
  const double issue_per_s = static_cast<double>(gpu.issue_width) *
                             vf.at(vf.defaultLevel()).freq_mhz * 1e6;
  constexpr double kStallDerate = 0.35;
  const double seconds = insts / (issue_per_s * kStallDerate);
  const auto ns = static_cast<TimeNs>(seconds * 1e9);
  // Never shorter than one epoch: a job occupies at least one decision
  // window, and zero-length estimates would break deadline slack.
  return std::max<TimeNs>(ns, gpu.epoch_ns);
}

std::vector<JobSpec> generateTraffic(const TrafficSpec& spec,
                                     const std::vector<KernelProfile>& mix,
                                     const GpuConfig& gpu, const VfTable& vf,
                                     std::uint64_t seed) {
  spec.validate();
  SSM_CHECK(!mix.empty(), "traffic needs a non-empty workload mix");

  // Service estimates are per-profile, computed once.
  std::vector<TimeNs> service(mix.size());
  for (std::size_t i = 0; i < mix.size(); ++i)
    service[i] = estimatedServiceNs(mix[i], gpu, vf);

  std::vector<JobSpec> out(static_cast<std::size_t>(spec.jobs));

  // Arrival instants. The thinning stream is inherently sequential (each
  // gap depends on the previous instant), so it gets one dedicated fork;
  // per-job attribute draws are keyed on the job index below.
  Rng arrivals = Rng(seed).fork(kArrivalSalt);
  if (spec.shape == TrafficSpec::Shape::kAdversarial) {
    // Synchronized waves: `burst` jobs land at every period boundary
    // simultaneously — the thundering-herd worst case for a dispatcher.
    const auto wave = static_cast<int>(spec.burst);
    for (int j = 0; j < spec.jobs; ++j) {
      const int wave_idx = j / std::max(wave, 1);
      out[static_cast<std::size_t>(j)].arrival_ns = static_cast<TimeNs>(
          wave_idx * spec.period_ms * static_cast<double>(kNsPerMs));
    }
  } else {
    // Non-homogeneous Poisson via thinning: candidates at the envelope
    // rate, accepted with probability λ(t)/λmax.
    const double env_rate = spec.rate_per_ms * rateEnvelope(spec);
    double t_ms = 0.0;
    for (int j = 0; j < spec.jobs; ++j) {
      for (;;) {
        t_ms += arrivals.nextExponential(env_rate);
        const double accept =
            rateMultiplier(spec, t_ms) / rateEnvelope(spec);
        if (arrivals.nextDouble() < accept) break;
      }
      out[static_cast<std::size_t>(j)].arrival_ns =
          static_cast<TimeNs>(t_ms * static_cast<double>(kNsPerMs));
    }
  }

  // Per-job attributes: independent stream per job index, so inserting or
  // removing an arrival never perturbs its neighbours' draws.
  const Rng shape_root = Rng(seed).fork(kShapeSalt);
  for (int j = 0; j < spec.jobs; ++j) {
    JobSpec& job = out[static_cast<std::size_t>(j)];
    Rng rng = shape_root.fork(static_cast<std::uint64_t>(j));
    job.id = static_cast<std::uint32_t>(j);
    job.workload =
        static_cast<std::uint32_t>(rng.nextBelow(mix.size()));
    job.est_service_ns = service[job.workload];
    if (spec.shape == TrafficSpec::Shape::kAdversarial) {
      // Whole waves of maximum-priority jobs with the tightest deadlines.
      job.priority = spec.priorities - 1;
      job.deadline_ns =
          job.arrival_ns +
          static_cast<TimeNs>(static_cast<double>(job.est_service_ns) *
                              spec.slack);
    } else {
      job.priority =
          static_cast<int>(rng.nextBelow(
              static_cast<std::uint64_t>(spec.priorities)));
      // Slack jitter in [1, slack + (slack-1)]: keeps every deadline
      // feasible at the estimate while spreading urgency.
      const double jitter = 1.0 + (spec.slack - 1.0) * 2.0 * rng.nextDouble();
      job.deadline_ns =
          job.arrival_ns +
          static_cast<TimeNs>(static_cast<double>(job.est_service_ns) *
                              jitter);
    }
  }
  return out;
}

}  // namespace ssm::dc
