#include "faults/fault_spec.hpp"

#include "common/check.hpp"
#include "common/parse.hpp"

namespace ssm::faults {

namespace {

[[noreturn]] void specError(const std::string& what) {
  throw DataError("bad --faults spec: " + what);
}

double parseDouble(std::string_view clause, std::string_view key,
                   std::string_view value) {
  const auto d = parseNumber<double>(value);
  if (!d)
    specError(std::string(clause) + "." + std::string(key) + "='" +
              std::string(value) + "' is not a finite number");
  return *d;
}

std::int64_t parseInt(std::string_view clause, std::string_view key,
                      std::string_view value) {
  const auto i = parseNumber<std::int64_t>(value);
  if (!i)
    specError(std::string(clause) + "." + std::string(key) + "='" +
              std::string(value) + "' is not a 64-bit integer");
  return *i;
}

double parseProb(std::string_view clause, std::string_view key,
                 std::string_view value) {
  const double p = parseDouble(clause, key, value);
  if (p < 0.0 || p > 1.0)
    specError(std::string(clause) + ".p must be in [0,1], got " +
         std::string(value));
  return p;
}

double parseNonNeg(std::string_view clause, std::string_view key,
                   std::string_view value) {
  const double d = parseDouble(clause, key, value);
  if (d < 0.0)
    specError(std::string(clause) + "." + std::string(key) +
         " must be >= 0, got " + std::string(value));
  return d;
}

/// One parsed "key=value" pair of a clause body.
struct KeyValue {
  std::string_view key;
  std::string_view value;
};

std::vector<KeyValue> parseBody(std::string_view clause,
                                std::string_view body) {
  std::vector<KeyValue> out;
  for (std::string_view kv : splitNonEmpty(body, ',')) {
    kv = trimBlanks(kv);
    const std::size_t eq = kv.find('=');
    if (eq == std::string_view::npos || eq == 0 || eq + 1 >= kv.size())
      specError("clause '" + std::string(clause) + "' expects key=value pairs, " +
           "got '" + std::string(kv) + "'");
    out.push_back(
        {trimBlanks(kv.substr(0, eq)), trimBlanks(kv.substr(eq + 1))});
  }
  return out;
}

[[noreturn]] void unknownKey(std::string_view clause, std::string_view key) {
  specError("unknown key '" + std::string(key) + "' in clause '" +
       std::string(clause) + "'");
}

}  // namespace

bool FaultSpec::active() const noexcept {
  return noise.p > 0.0 || dropout.p > 0.0 || delay.p > 0.0 || fail.p > 0.0 ||
         stuck.p > 0.0 || jitter.p > 0.0 || heatsoak.add_c > 0.0 ||
         tsensor.p > 0.0 || tjolt.p > 0.0;
}

FaultSpec FaultSpec::parse(std::string_view text) {
  FaultSpec spec;
  text = trimBlanks(text);
  if (text.empty() || text == "none") return spec;

  bool seen[10] = {};
  for (std::string_view raw : splitNonEmpty(text, ';')) {
    const std::string_view clause_text = trimBlanks(raw);
    if (clause_text.empty()) continue;
    const std::size_t colon = clause_text.find(':');
    const std::string_view name = trimBlanks(clause_text.substr(
        0, colon == std::string_view::npos ? clause_text.size() : colon));
    const std::string_view body =
        colon == std::string_view::npos ? std::string_view{}
                                        : clause_text.substr(colon + 1);
    const auto kvs = parseBody(name, body);

    int which = -1;
    if (name == "noise") {
      which = 0;
      for (const auto& kv : kvs) {
        if (kv.key == "p") spec.noise.p = parseProb(name, kv.key, kv.value);
        else if (kv.key == "sigma")
          spec.noise.sigma = parseNonNeg(name, kv.key, kv.value);
        else if (kv.key == "bias")
          spec.noise.bias = parseDouble(name, kv.key, kv.value);
        else unknownKey(name, kv.key);
      }
    } else if (name == "dropout") {
      which = 1;
      for (const auto& kv : kvs) {
        if (kv.key == "p") spec.dropout.p = parseProb(name, kv.key, kv.value);
        else if (kv.key == "mode") {
          if (kv.value == "zero") spec.dropout.stale = false;
          else if (kv.value == "stale") spec.dropout.stale = true;
          else specError("dropout.mode must be 'zero' or 'stale', got '" +
                    std::string(kv.value) + "'");
        } else unknownKey(name, kv.key);
      }
    } else if (name == "delay") {
      which = 2;
      for (const auto& kv : kvs) {
        if (kv.key == "p") spec.delay.p = parseProb(name, kv.key, kv.value);
        else if (kv.key == "k") {
          const std::int64_t k = parseInt(name, kv.key, kv.value);
          if (k < 1 || k > 64) specError("delay.k must be in [1,64]");
          spec.delay.k = static_cast<int>(k);
        } else unknownKey(name, kv.key);
      }
    } else if (name == "fail") {
      which = 3;
      for (const auto& kv : kvs) {
        if (kv.key == "p") spec.fail.p = parseProb(name, kv.key, kv.value);
        else unknownKey(name, kv.key);
      }
    } else if (name == "stuck") {
      which = 4;
      for (const auto& kv : kvs) {
        if (kv.key == "p") spec.stuck.p = parseProb(name, kv.key, kv.value);
        else if (kv.key == "epochs") {
          const std::int64_t e = parseInt(name, kv.key, kv.value);
          if (e < 1 || e > 100000) specError("stuck.epochs must be in [1,1e5]");
          spec.stuck.epochs = static_cast<int>(e);
        } else unknownKey(name, kv.key);
      }
    } else if (name == "jitter") {
      which = 5;
      for (const auto& kv : kvs) {
        if (kv.key == "p") spec.jitter.p = parseProb(name, kv.key, kv.value);
        else if (kv.key == "frac")
          spec.jitter.frac = parseNonNeg(name, kv.key, kv.value);
        else unknownKey(name, kv.key);
      }
    } else if (name == "heatsoak") {
      which = 7;
      for (const auto& kv : kvs) {
        if (kv.key == "add")
          spec.heatsoak.add_c = parseNonNeg(name, kv.key, kv.value);
        else if (kv.key == "ramp") {
          const std::int64_t e = parseInt(name, kv.key, kv.value);
          if (e < 1 || e > 100000) specError("heatsoak.ramp must be in [1,1e5]");
          spec.heatsoak.ramp = static_cast<int>(e);
        } else unknownKey(name, kv.key);
      }
    } else if (name == "tsensor") {
      which = 8;
      for (const auto& kv : kvs) {
        if (kv.key == "p") spec.tsensor.p = parseProb(name, kv.key, kv.value);
        else if (kv.key == "mode") {
          if (kv.value == "lag") spec.tsensor.mode = ThermalSensorFault::Mode::kLag;
          else if (kv.value == "stuck")
            spec.tsensor.mode = ThermalSensorFault::Mode::kStuck;
          else if (kv.value == "drop")
            spec.tsensor.mode = ThermalSensorFault::Mode::kDrop;
          else specError("tsensor.mode must be 'lag', 'stuck' or 'drop', got '" +
                    std::string(kv.value) + "'");
        } else if (kv.key == "k") {
          const std::int64_t k = parseInt(name, kv.key, kv.value);
          if (k < 1 || k > 64) specError("tsensor.k must be in [1,64]");
          spec.tsensor.k = static_cast<int>(k);
        } else unknownKey(name, kv.key);
      }
    } else if (name == "tjolt") {
      which = 9;
      for (const auto& kv : kvs) {
        if (kv.key == "p") spec.tjolt.p = parseProb(name, kv.key, kv.value);
        else if (kv.key == "amp")
          spec.tjolt.amp_c = parseNonNeg(name, kv.key, kv.value);
        else unknownKey(name, kv.key);
      }
    } else if (name == "window") {
      which = 6;
      for (const auto& kv : kvs) {
        if (kv.key == "start") {
          spec.window.start = parseInt(name, kv.key, kv.value);
          if (spec.window.start < 0) specError("window.start must be >= 0");
        } else if (kv.key == "end") {
          spec.window.end = parseInt(name, kv.key, kv.value);
          if (spec.window.end < 1) specError("window.end must be >= 1");
        } else unknownKey(name, kv.key);
      }
      if (spec.window.end != FaultWindow::kNoEnd &&
          spec.window.end <= spec.window.start)
        specError("window.end must be > window.start");
    } else {
      specError("unknown clause '" + std::string(name) +
           "' (expected noise|dropout|delay|fail|stuck|jitter|heatsoak|"
           "tsensor|tjolt|window)");
    }
    if (seen[which]) specError("duplicate clause '" + std::string(name) + "'");
    seen[which] = true;
  }
  return spec;
}

std::string FaultSpec::print() const {
  const auto num = [](double v) { return printDouble(v); };
  std::string out;
  const auto clause = [&](const std::string& text) {
    if (!out.empty()) out += ';';
    out += text;
  };
  if (noise.p > 0.0)
    clause("noise:p=" + num(noise.p) + ",sigma=" + num(noise.sigma) +
           ",bias=" + num(noise.bias));
  if (dropout.p > 0.0)
    clause("dropout:p=" + num(dropout.p) +
           ",mode=" + (dropout.stale ? "stale" : "zero"));
  if (delay.p > 0.0)
    clause("delay:p=" + num(delay.p) + ",k=" + std::to_string(delay.k));
  if (fail.p > 0.0) clause("fail:p=" + num(fail.p));
  if (stuck.p > 0.0)
    clause("stuck:p=" + num(stuck.p) +
           ",epochs=" + std::to_string(stuck.epochs));
  if (jitter.p > 0.0)
    clause("jitter:p=" + num(jitter.p) + ",frac=" + num(jitter.frac));
  if (heatsoak.add_c > 0.0)
    clause("heatsoak:add=" + num(heatsoak.add_c) +
           ",ramp=" + std::to_string(heatsoak.ramp));
  if (tsensor.p > 0.0) {
    const char* mode = tsensor.mode == ThermalSensorFault::Mode::kLag ? "lag"
                       : tsensor.mode == ThermalSensorFault::Mode::kStuck
                           ? "stuck"
                           : "drop";
    clause("tsensor:p=" + num(tsensor.p) + ",mode=" + mode +
           ",k=" + std::to_string(tsensor.k));
  }
  if (tjolt.p > 0.0)
    clause("tjolt:p=" + num(tjolt.p) + ",amp=" + num(tjolt.amp_c));
  if (active() && window != FaultWindow{}) {
    std::string w = "window:start=" + std::to_string(window.start);
    if (window.end != FaultWindow::kNoEnd)
      w += ",end=" + std::to_string(window.end);
    clause(w);
  }
  return out;
}

}  // namespace ssm::faults
