#include "nn/mlp.hpp"

#include <algorithm>
#include <cmath>

namespace ssm {

namespace {

/// Audit-mode helpers: cheap enough per inference, but O(n) per call and
/// therefore compiled out of release builds.
[[maybe_unused]] bool allFinite(std::span<const double> v) noexcept {
  for (double x : v)
    if (!std::isfinite(x)) return false;
  return true;
}

[[maybe_unused]] bool isProbabilityVector(std::span<const double> v) noexcept {
  double sum = 0.0;
  for (double x : v) {
    if (!(x >= 0.0 && x <= 1.0)) return false;
    sum += x;
  }
  // softmaxInPlace leaves the vector untouched when the exp-sum underflows
  // to zero, so an all-(near-)zero vector is also acceptable.
  return std::abs(sum - 1.0) <= 1e-9 || sum <= 1e-12;
}

/// A layer width as a size, refused before anything is sized by it (a
/// negative width would otherwise become a huge allocation).
std::size_t positiveDim(int dim) {
  SSM_CHECK(dim > 0, "layer dims must be positive");
  return static_cast<std::size_t>(dim);
}

}  // namespace

DenseLayer::DenseLayer(int in_dim, int out_dim, Rng& rng)
    : in_dim_(in_dim),
      out_dim_(out_dim),
      w_(positiveDim(out_dim), positiveDim(in_dim)),  // checked first
      mask_(static_cast<std::size_t>(out_dim), static_cast<std::size_t>(in_dim),
            1.0),
      b_(static_cast<std::size_t>(out_dim), 0.0) {
  // He initialisation, appropriate for ReLU networks.
  const double scale = std::sqrt(2.0 / static_cast<double>(in_dim));
  for (double& w : w_.flat()) w = rng.nextGaussian(0.0, scale);
}

std::int64_t DenseLayer::nonzeroWeights() const noexcept {
  std::int64_t n = 0;
  for (double m : mask_.flat()) n += (m != 0.0);
  return n;
}

void DenseLayer::applyMask() noexcept {
  const auto w = w_.flat();
  const auto m = mask_.flat();
  for (std::size_t i = 0; i < w.size(); ++i)
    if (m[i] == 0.0) w[i] = 0.0;
}

void softmaxInPlace(std::span<double> logits) noexcept {
  double mx = logits.empty() ? 0.0 : logits[0];
  for (double v : logits) mx = std::max(mx, v);
  double sum = 0.0;
  for (double& v : logits) {
    v = std::exp(v - mx);
    sum += v;
  }
  if (sum <= 0.0) return;
  for (double& v : logits) v /= sum;
}

Mlp::Mlp(std::vector<int> dims, Head head, Rng rng)
    : dims_(std::move(dims)), head_(head) {
  SSM_CHECK(dims_.size() >= 2, "MLP needs at least input and output dims");
  layers_.reserve(dims_.size() - 1);
  for (std::size_t i = 0; i + 1 < dims_.size(); ++i)
    layers_.emplace_back(dims_[i], dims_[i + 1], rng);
}

std::vector<double> Mlp::forward(std::span<const double> input) const {
  SSM_CHECK(static_cast<int>(input.size()) == inputDim(),
            "input width mismatch");
  std::vector<double> act(input.begin(), input.end());
  std::vector<double> next;
  for (std::size_t l = 0; l < layers_.size(); ++l) {
    const DenseLayer& layer = layers_[l];
    next.assign(static_cast<std::size_t>(layer.outDim()), 0.0);
    const Matrix& w = layer.weights();
    for (std::size_t o = 0; o < next.size(); ++o) {
      double acc = layer.bias()[o];
      for (std::size_t i = 0; i < act.size(); ++i) acc += w(o, i) * act[i];
      next[o] = acc;
    }
    if (l + 1 < layers_.size())
      for (double& v : next) v = std::max(0.0, v);
    act.swap(next);
  }
  if (head_ == Head::kSoftmaxClassifier) {
    softmaxInPlace(act);
    SSM_AUDIT_CHECK(isProbabilityVector(act),
                    "softmax head must emit probabilities in [0,1] summing "
                    "to 1");
  } else {
    SSM_AUDIT_CHECK(allFinite(act),
                    "forward pass produced a non-finite activation "
                    "(non-finite weight or input?)");
  }
  return act;
}

int Mlp::predictClass(std::span<const double> input) const {
  SSM_CHECK(head_ == Head::kSoftmaxClassifier,
            "predictClass requires a classifier head");
  const auto probs = forward(input);
  return static_cast<int>(std::max_element(probs.begin(), probs.end()) -
                          probs.begin());
}

double Mlp::predictScalar(std::span<const double> input) const {
  SSM_CHECK(head_ == Head::kRegression,
            "predictScalar requires a regression head");
  return forward(input)[0];
}

std::int64_t Mlp::flops() const noexcept {
  std::int64_t total = 0;
  for (std::size_t l = 0; l < layers_.size(); ++l) {
    const DenseLayer& layer = layers_[l];
    const std::int64_t macs = layer.nonzeroWeights();
    total += 2 * macs;
    // Live output neurons: at least one incoming live weight.
    const Matrix& m = layer.mask();
    std::int64_t live = 0;
    for (int o = 0; o < layer.outDim(); ++o) {
      bool any = false;
      for (int i = 0; i < layer.inDim() && !any; ++i)
        any = m(static_cast<std::size_t>(o), static_cast<std::size_t>(i)) != 0.0;
      live += any;
    }
    total += live;                              // bias adds
    if (l + 1 < layers_.size()) total += live;  // ReLU on hidden neurons
  }
  return total;
}

std::int64_t Mlp::denseFlops() const noexcept {
  std::int64_t total = 0;
  for (std::size_t l = 0; l < layers_.size(); ++l) {
    const DenseLayer& layer = layers_[l];
    total += 2 * static_cast<std::int64_t>(layer.inDim()) * layer.outDim();
    total += layer.outDim();                              // bias adds
    if (l + 1 < layers_.size()) total += layer.outDim();  // hidden ReLUs
  }
  return total;
}

double Mlp::sparsity() const noexcept {
  std::int64_t total = 0;
  std::int64_t zero = 0;
  for (const auto& layer : layers_) {
    total += static_cast<std::int64_t>(layer.mask().size());
    zero += static_cast<std::int64_t>(layer.mask().size()) -
            layer.nonzeroWeights();
  }
  return total > 0 ? static_cast<double>(zero) / static_cast<double>(total)
                   : 0.0;
}

void Mlp::applyMasks() noexcept {
  for (auto& layer : layers_) layer.applyMask();
}

}  // namespace ssm
