#include "core/ssm_io.hpp"

#include <fstream>
#include <iomanip>
#include <istream>
#include <iterator>
#include <limits>
#include <ostream>
#include <sstream>

#include "common/bytes.hpp"
#include "common/check.hpp"

namespace ssm {

namespace {

constexpr const char* kMagic = "ssmdvfs-model-v1";

void writeVec(std::ostream& os, std::span<const double> v) {
  os << v.size();
  for (double x : v) os << ' ' << x;
  os << '\n';
}

/// Reads a length-prefixed vector into `dst`, whose size the model already
/// fixes: a mismatched length is rejected before any element is read.
void readInto(std::istream& is, std::span<double> dst, const char* what) {
  std::size_t n = 0;
  if (!(is >> n)) throw DataError("model stream: expected vector length");
  if (n != dst.size())
    throw DataError(std::string("model stream: ") + what + " size mismatch");
  for (auto& x : dst)
    if (!(is >> x)) throw DataError("model stream: truncated vector");
}

/// Rejects net widths the text left cannot hold before the model allocates
/// them: a layer stores weights, bias and mask, (2·in + 1)·out numbers, and
/// every number takes at least two characters.
void checkNet(std::int64_t in, const std::vector<int>& hidden,
              std::int64_t output, std::size_t& numbers_left) {
  for (std::size_t l = 0; l <= hidden.size(); ++l) {
    const std::int64_t out = l < hidden.size() ? hidden[l] : output;
    const std::size_t fit =
        out < 1 ? 0 : numbers_left / static_cast<std::size_t>(out);
    if (in < 1 || in > std::numeric_limits<int>::max() || fit == 0 ||
        static_cast<std::size_t>(in) > (fit - 1) / 2)
      throw DataError("model stream: layer widths out of range");
    numbers_left -= static_cast<std::size_t>((2 * in + 1) * out);
    in = out;
  }
}

void writeNet(std::ostream& os, const Mlp& net) {
  os << net.layerCount() << '\n';
  for (std::size_t l = 0; l < net.layerCount(); ++l) {
    const DenseLayer& layer = net.layer(l);
    os << layer.inDim() << ' ' << layer.outDim() << '\n';
    writeVec(os, layer.weights().flat());
    writeVec(os, layer.bias());
    writeVec(os, layer.mask().flat());
  }
}

void readNetInto(std::istream& is, Mlp& net) {
  std::size_t layers = 0;
  if (!(is >> layers) || layers != net.layerCount())
    throw DataError("model stream: layer count mismatch");
  for (std::size_t l = 0; l < layers; ++l) {
    int in = 0;
    int out = 0;
    if (!(is >> in >> out) || in != net.layer(l).inDim() ||
        out != net.layer(l).outDim())
      throw DataError("model stream: layer shape mismatch");
    DenseLayer& layer = net.layer(l);
    readInto(is, layer.weights().flat(), "weight");
    readInto(is, layer.bias(), "bias");
    readInto(is, layer.mask().flat(), "mask");
  }
  net.applyMasks();
}

}  // namespace

void serializeModel(const SsmModel& model, std::ostream& os) {
  SSM_CHECK(model.trained(), "refusing to serialize an untrained model");
  os << std::setprecision(std::numeric_limits<double>::max_digits10);
  os << kMagic << '\n';

  const SsmModelConfig& cfg = model.cfg_;
  os << "features " << cfg.features.size();
  for (CounterId id : cfg.features) os << ' ' << static_cast<int>(id);
  os << '\n';
  os << "levels " << cfg.num_levels << '\n';
  os << "decode_theta " << cfg.decode_theta << '\n';
  os << "corrupt " << cfg.calibrator_loss_corrupt_prob << ' '
     << cfg.corrupt_loss_max << '\n';
  os << "init_seed " << cfg.init_seed << '\n';
  os << "train " << cfg.train.epochs << ' ' << cfg.train.learning_rate
     << '\n';
  os << "decision_hidden " << cfg.decision_hidden.size();
  for (int h : cfg.decision_hidden) os << ' ' << h;
  os << '\n';
  os << "calibrator_hidden " << cfg.calibrator_hidden.size();
  for (int h : cfg.calibrator_hidden) os << ' ' << h;
  os << '\n';

  os << "standardizer ";
  writeVec(os, model.standardizer_.mean);
  writeVec(os, model.standardizer_.inv_std);
  os << "decision\n";
  writeNet(os, model.decision_);
  os << "calibrator\n";
  writeNet(os, model.calibrator_);
}

SsmModel deserializeModel(std::istream& in) {
  // Read whole, so every declared size is bounded by the text left before
  // anything is allocated for it.
  const std::string text{std::istreambuf_iterator<char>(in), {}};
  std::istringstream is(text);
  const auto numbers_left = [&]() -> std::size_t {
    const std::streamoff at = is.tellg();
    return at < 0 ? 0 : (text.size() - static_cast<std::size_t>(at) + 1) / 2;
  };
  const auto count = [&](const char* what) {
    std::size_t n = 0;
    if (!(is >> n) || n > numbers_left())
      throw DataError(std::string("model stream: bad ") + what + " count");
    return n;
  };

  std::string token;
  if (!(is >> token) || token != kMagic)
    throw DataError("not an ssmdvfs model stream");

  SsmModelConfig cfg;
  const auto expect = [&](const char* name) {
    if (!(is >> token) || token != name)
      throw DataError(std::string("model stream: expected '") + name + "'");
  };

  expect("features");
  const std::size_t nf = count("feature");
  cfg.features.clear();
  for (std::size_t i = 0; i < nf; ++i) {
    int id = 0;
    if (!(is >> id) || id < 0 || id >= kNumCounters)
      throw DataError("model stream: bad feature id");
    cfg.features.push_back(static_cast<CounterId>(id));
  }
  expect("levels");
  is >> cfg.num_levels;
  expect("decode_theta");
  is >> cfg.decode_theta;
  expect("corrupt");
  is >> cfg.calibrator_loss_corrupt_prob >> cfg.corrupt_loss_max;
  expect("init_seed");
  is >> cfg.init_seed;
  expect("train");
  is >> cfg.train.epochs >> cfg.train.learning_rate;
  const auto hidden = [&](const char* name, std::vector<int>& widths) {
    expect(name);
    widths.assign(count(name), 0);
    for (auto& h : widths) is >> h;
  };
  hidden("decision_hidden", cfg.decision_hidden);
  hidden("calibrator_hidden", cfg.calibrator_hidden);
  if (!is) throw DataError("model stream: malformed header");

  // Both nets' widths, as the SsmModel constructor will lay them out.
  const auto input = static_cast<std::int64_t>(nf) + 1;
  std::size_t budget = numbers_left();
  checkNet(input, cfg.decision_hidden, cfg.num_levels, budget);
  checkNet(input + cfg.num_levels, cfg.calibrator_hidden, 1, budget);

  SsmModel model =
      constructDecoded("model stream", [&] { return SsmModel(cfg); });
  expect("standardizer");
  model.standardizer_.mean.assign(nf + 1, 0.0);
  model.standardizer_.inv_std.assign(nf + 1, 0.0);
  readInto(is, model.standardizer_.mean, "standardizer");
  readInto(is, model.standardizer_.inv_std, "standardizer");
  expect("decision");
  readNetInto(is, model.decision_);
  expect("calibrator");
  readNetInto(is, model.calibrator_);
  model.trained_ = true;
  constructDecoded("model stream", [&] { model.recompilePacked(); });
  return model;
}

void saveModel(const SsmModel& model, const std::string& path) {
  std::ofstream os(path);
  if (!os) throw DataError("cannot open for writing: " + path);
  serializeModel(model, os);
  if (!os) throw DataError("write failed: " + path);
}

SsmModel loadModel(const std::string& path) {
  std::ifstream is(path);
  if (!is) throw DataError("cannot open for reading: " + path);
  return deserializeModel(is);
}

}  // namespace ssm
