#include "thermal/thermal_spec.hpp"

#include "common/check.hpp"
#include "common/parse.hpp"

namespace ssm::thermal {

namespace {

[[noreturn]] void specError(const std::string& what) {
  throw DataError("bad --thermal spec: " + what);
}

double parseFinite(std::string_view key, std::string_view value) {
  const auto d = parseNumber<double>(value);
  if (!d)
    specError(std::string(key) + "='" + std::string(value) +
              "' is not a finite number");
  return *d;
}

double parsePositive(std::string_view key, std::string_view value) {
  const double d = parseFinite(key, value);
  if (d <= 0.0)
    specError(std::string(key) + " must be > 0, got " + std::string(value));
  return d;
}

double parseTemp(std::string_view key, std::string_view value) {
  const double d = parseFinite(key, value);
  if (d < -273.15 || d > 1000.0)
    specError(std::string(key) + " must be a plausible degC value, got " +
              std::string(value));
  return d;
}

int parseSmallInt(std::string_view key, std::string_view value, int lo,
                  int hi) {
  const auto i = parseNumber<int>(value);
  if (!i)
    specError(std::string(key) + "='" + std::string(value) +
              "' is not an integer");
  if (*i < lo || *i > hi)
    specError(std::string(key) + " must be in [" + std::to_string(lo) + "," +
              std::to_string(hi) + "], got " + std::string(value));
  return *i;
}

}  // namespace

ThermalScenario ThermalScenario::parse(std::string_view text) {
  ThermalScenario scenario;
  text = trimBlanks(text);
  if (text.empty() || text == "none") return scenario;
  scenario.enabled = true;
  if (text == "on") return scenario;

  for (const std::string_view raw : splitNonEmpty(text, ',')) {
    const std::string_view kv = trimBlanks(raw);
    if (kv.empty()) continue;
    const std::size_t eq = kv.find('=');
    if (eq == std::string_view::npos || eq == 0 || eq + 1 >= kv.size())
      specError("expected key=value pairs, got '" + std::string(kv) + "'");
    const std::string_view key = trimBlanks(kv.substr(0, eq));
    const std::string_view value = trimBlanks(kv.substr(eq + 1));
    if (key == "amb") scenario.params.ambient_c = parseTemp(key, value);
    else if (key == "rc") scenario.params.r_cluster = parsePositive(key, value);
    else if (key == "cc") scenario.params.c_cluster = parsePositive(key, value);
    else if (key == "rp") scenario.params.r_package = parsePositive(key, value);
    else if (key == "cp") scenario.params.c_package = parsePositive(key, value);
    else if (key == "trip") scenario.throttle.trip_c = parseTemp(key, value);
    else if (key == "ptrip")
      scenario.throttle.package_trip_c = parseTemp(key, value);
    else if (key == "hyst")
      scenario.throttle.hysteresis_c = parsePositive(key, value);
    else if (key == "floor")
      scenario.throttle.floor_level = parseSmallInt(key, value, 0, 63);
    else if (key == "recover")
      scenario.throttle.recover_epochs = parseSmallInt(key, value, 1, 100000);
    else
      specError("unknown key '" + std::string(key) +
                "' (expected amb|rc|cc|rp|cp|trip|ptrip|hyst|floor|recover)");
  }
  return scenario;
}

std::string ThermalScenario::print() const {
  if (!enabled) return "none";
  ThermalScenario defaults;
  defaults.enabled = true;
  std::string out;
  const auto emit = [&](std::string_view key, const std::string& value) {
    if (!out.empty()) out += ',';
    out += key;
    out += '=';
    out += value;
  };
  if (params.ambient_c != defaults.params.ambient_c)
    emit("amb", printDouble(params.ambient_c));
  if (params.r_cluster != defaults.params.r_cluster)
    emit("rc", printDouble(params.r_cluster));
  if (params.c_cluster != defaults.params.c_cluster)
    emit("cc", printDouble(params.c_cluster));
  if (params.r_package != defaults.params.r_package)
    emit("rp", printDouble(params.r_package));
  if (params.c_package != defaults.params.c_package)
    emit("cp", printDouble(params.c_package));
  if (throttle.trip_c != defaults.throttle.trip_c)
    emit("trip", printDouble(throttle.trip_c));
  if (throttle.package_trip_c != defaults.throttle.package_trip_c)
    emit("ptrip", printDouble(throttle.package_trip_c));
  if (throttle.hysteresis_c != defaults.throttle.hysteresis_c)
    emit("hyst", printDouble(throttle.hysteresis_c));
  if (throttle.floor_level != defaults.throttle.floor_level)
    emit("floor", std::to_string(throttle.floor_level));
  if (throttle.recover_epochs != defaults.throttle.recover_epochs)
    emit("recover", std::to_string(throttle.recover_epochs));
  return out.empty() ? "on" : out;
}

std::optional<ThermalThrottle> ThermalScenario::makeThrottle(
    const VfTable& vf, int num_clusters) const {
  if (!enabled) return std::nullopt;
  if (throttle.floor_level > vf.defaultLevel())
    specError("floor=" + std::to_string(throttle.floor_level) +
              " lies above the V/f table's top level " +
              std::to_string(vf.defaultLevel()));
  return ThermalThrottle(throttle, num_clusters, vf.defaultLevel());
}

}  // namespace ssm::thermal
