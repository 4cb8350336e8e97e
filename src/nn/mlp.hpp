// Multi-layer perceptron with ReLU activations, per-weight pruning masks
// and heads for classification (softmax cross-entropy) or regression (MSE).
//
// This is the network family of §III.D / §IV: a handful of fully-connected
// layers with ~10–20 neurons each. The implementation keeps an explicit
// binary mask per weight so the two-stage pruning of §IV.C (fine-grained
// magnitude pruning + neuron removal) composes with ordinary training, and
// exposes the FLOPs accounting used in Fig. 3 / Table II.
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "nn/matrix.hpp"

namespace ssm {

/// One fully-connected layer: y = mask(W) x + b.
class DenseLayer {
 public:
  DenseLayer(int in_dim, int out_dim, Rng& rng);

  [[nodiscard]] int inDim() const noexcept { return in_dim_; }
  [[nodiscard]] int outDim() const noexcept { return out_dim_; }

  [[nodiscard]] Matrix& weights() noexcept { return w_; }
  [[nodiscard]] const Matrix& weights() const noexcept { return w_; }
  [[nodiscard]] std::vector<double>& bias() noexcept { return b_; }
  [[nodiscard]] const std::vector<double>& bias() const noexcept { return b_; }
  [[nodiscard]] Matrix& mask() noexcept { return mask_; }
  [[nodiscard]] const Matrix& mask() const noexcept { return mask_; }

  /// Number of weights with a non-zero mask.
  [[nodiscard]] std::int64_t nonzeroWeights() const noexcept;

  /// Forces masked weights to exactly zero (call after optimiser steps).
  void applyMask() noexcept;

 private:
  int in_dim_;
  int out_dim_;
  Matrix w_;      ///< out_dim x in_dim
  Matrix mask_;   ///< same shape; 1 keeps the weight, 0 prunes it
  std::vector<double> b_;
};

/// Output head of the network.
enum class Head { kSoftmaxClassifier, kRegression };

/// A feed-forward MLP. ReLU after every layer except the last.
class Mlp {
 public:
  /// `dims` = {input, hidden..., output}; needs at least one layer.
  Mlp(std::vector<int> dims, Head head, Rng rng);

  [[nodiscard]] int inputDim() const noexcept { return dims_.front(); }
  [[nodiscard]] int outputDim() const noexcept { return dims_.back(); }
  [[nodiscard]] const std::vector<int>& dims() const noexcept { return dims_; }
  [[nodiscard]] Head head() const noexcept { return head_; }

  [[nodiscard]] std::size_t layerCount() const noexcept {
    return layers_.size();
  }
  [[nodiscard]] DenseLayer& layer(std::size_t i) { return layers_.at(i); }
  [[nodiscard]] const DenseLayer& layer(std::size_t i) const {
    return layers_.at(i);
  }

  /// Forward pass for one input row. For kSoftmaxClassifier the output is
  /// the probability vector; for kRegression the raw outputs.
  [[nodiscard]] std::vector<double> forward(
      std::span<const double> input) const;

  /// Classifier convenience: argmax of forward().
  [[nodiscard]] int predictClass(std::span<const double> input) const;

  /// Regression convenience: first output of forward().
  [[nodiscard]] double predictScalar(std::span<const double> input) const;

  /// FLOPs per inference under the convention used in the paper's tables:
  /// 2 FLOPs per non-zero weight (MAC) + 1 per live bias + 1 per hidden
  /// ReLU on a neuron with at least one live incoming weight.
  [[nodiscard]] std::int64_t flops() const noexcept;

  /// FLOPs a dense (mask-blind) forward pass executes: 2 per weight slot +
  /// 1 per bias + 1 per hidden ReLU, pruned or not. flops() / denseFlops()
  /// is the compute fraction the packed engine's CSR lowering can recover.
  [[nodiscard]] std::int64_t denseFlops() const noexcept;

  /// Fraction of weights whose mask is zero.
  [[nodiscard]] double sparsity() const noexcept;

  /// Re-applies every layer's mask (used after external weight edits).
  void applyMasks() noexcept;

 private:
  friend class AdamTrainer;

  std::vector<int> dims_;
  Head head_;
  std::vector<DenseLayer> layers_;
};

/// Numerically-stable softmax in place.
void softmaxInPlace(std::span<double> logits) noexcept;

}  // namespace ssm
