// Tests for the NN library: matrix, layers, forward/backward correctness,
// training convergence, masks and FLOPs accounting.
#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.hpp"
#include "nn/matrix.hpp"
#include "nn/mlp.hpp"
#include "nn/trainer.hpp"

namespace ssm {
namespace {

TEST(MatrixT, BasicAccessAndBounds) {
  Matrix m(2, 3, 1.5);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_EQ(m.size(), 6u);
  EXPECT_DOUBLE_EQ(m.at(1, 2), 1.5);
  m.at(0, 1) = 7.0;
  EXPECT_DOUBLE_EQ(m(0, 1), 7.0);
  EXPECT_THROW(static_cast<void>(m.at(2, 0)), ContractError);
  EXPECT_THROW(static_cast<void>(m.at(0, 3)), ContractError);
  EXPECT_THROW(static_cast<void>(m.row(2)), ContractError);
}

TEST(MatrixT, RowSpanWritesThrough) {
  Matrix m(2, 2);
  auto r = m.row(1);
  r[0] = 3.0;
  EXPECT_DOUBLE_EQ(m(1, 0), 3.0);
}

TEST(MatrixT, FillAndEquality) {
  Matrix a(2, 2, 1.0);
  Matrix b(2, 2, 1.0);
  EXPECT_EQ(a, b);
  a.fill(0.0);
  EXPECT_NE(a, b);
}

TEST(Softmax, NormalizesAndIsStable) {
  std::vector<double> v{1000.0, 1001.0, 999.0};
  softmaxInPlace(v);
  double sum = 0.0;
  for (double x : v) {
    EXPECT_GE(x, 0.0);
    sum += x;
  }
  EXPECT_NEAR(sum, 1.0, 1e-12);
  EXPECT_GT(v[1], v[0]);
  EXPECT_GT(v[0], v[2]);
}

TEST(DenseLayer, HeInitStatistics) {
  Rng rng(1);
  DenseLayer layer(100, 50, rng);
  double sum = 0.0;
  double sq = 0.0;
  for (double w : layer.weights().flat()) {
    sum += w;
    sq += w * w;
  }
  const auto n = static_cast<double>(layer.weights().size());
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sq / n, 2.0 / 100.0, 0.005);  // He variance = 2/fan_in
  for (double b : layer.bias()) EXPECT_DOUBLE_EQ(b, 0.0);
}

TEST(DenseLayer, RejectsNonPositiveDimsBeforeAllocating) {
  Rng rng(3);
  EXPECT_THROW(DenseLayer(-3, 4, rng), ContractError);
  EXPECT_THROW(DenseLayer(4, -3, rng), ContractError);
  EXPECT_THROW(DenseLayer(0, 4, rng), ContractError);
}

TEST(DenseLayer, MaskZeroesWeights) {
  Rng rng(2);
  DenseLayer layer(4, 3, rng);
  layer.mask().fill(0.0);
  layer.applyMask();
  for (double w : layer.weights().flat()) EXPECT_DOUBLE_EQ(w, 0.0);
  EXPECT_EQ(layer.nonzeroWeights(), 0);
}

TEST(Mlp, RejectsDegenerateDims) {
  EXPECT_THROW(Mlp({5}, Head::kRegression, Rng(1)), ContractError);
}

TEST(Mlp, ForwardShapeAndDeterminism) {
  Mlp net({4, 8, 3}, Head::kSoftmaxClassifier, Rng(3));
  const std::vector<double> x{0.1, -0.2, 0.3, 0.4};
  const auto y1 = net.forward(x);
  const auto y2 = net.forward(x);
  ASSERT_EQ(y1.size(), 3u);
  EXPECT_EQ(y1, y2);
  double sum = 0.0;
  for (double p : y1) sum += p;
  EXPECT_NEAR(sum, 1.0, 1e-12);
}

TEST(Mlp, ForwardRejectsWrongWidth) {
  Mlp net({4, 8, 3}, Head::kSoftmaxClassifier, Rng(3));
  EXPECT_THROW(net.forward(std::vector<double>{1.0, 2.0}), ContractError);
}

TEST(Mlp, HeadGuards) {
  Mlp cls({2, 4, 3}, Head::kSoftmaxClassifier, Rng(1));
  Mlp reg({2, 4, 1}, Head::kRegression, Rng(1));
  const std::vector<double> x{0.5, -0.5};
  EXPECT_NO_THROW(static_cast<void>(cls.predictClass(x)));
  EXPECT_THROW(static_cast<void>(cls.predictScalar(x)), ContractError);
  EXPECT_NO_THROW(static_cast<void>(reg.predictScalar(x)));
  EXPECT_THROW(static_cast<void>(reg.predictClass(x)), ContractError);
}

TEST(Mlp, FlopsMatchesPaperConventionForPaperArch) {
  // Decision-maker: 6 -> 20x5 -> 6; Calibrator: 12 -> 20x4 -> 1.
  Mlp dec({6, 20, 20, 20, 20, 20, 6}, Head::kSoftmaxClassifier, Rng(1));
  Mlp cal({12, 20, 20, 20, 20, 1}, Head::kRegression, Rng(2));
  // 2*MACs + live biases + hidden ReLUs:
  // dec MACs = 6*20 + 4*400 + 20*6 = 1840 -> 3680 + 106 + 100 = 3886
  // cal MACs = 12*20 + 3*400 + 20  = 1460 -> 2920 + 81 + 80  = 3081
  EXPECT_EQ(dec.flops(), 3886);
  EXPECT_EQ(cal.flops(), 3081);
  // Combined ~6967, matching the paper's reported ~6960 FLOPs.
  EXPECT_NEAR(static_cast<double>(dec.flops() + cal.flops()), 6960.0, 20.0);
}

TEST(Mlp, FlopsDropWithMasks) {
  Mlp net({4, 8, 2}, Head::kRegression, Rng(5));
  const auto before = net.flops();
  net.layer(0).mask().fill(0.0);
  net.applyMasks();
  const auto after = net.flops();
  EXPECT_LT(after, before);
  // Layer 0 fully dead: only layer 1 MACs + its bias remain.
  EXPECT_EQ(after, 2 * 8 * 2 + 2);
}

TEST(Mlp, SparsityAccounting) {
  Mlp net({4, 4, 1}, Head::kRegression, Rng(6));
  EXPECT_DOUBLE_EQ(net.sparsity(), 0.0);
  net.layer(0).mask().fill(0.0);  // 16 of 20 weights masked
  EXPECT_NEAR(net.sparsity(), 16.0 / 20.0, 1e-12);
}

TEST(Trainer, RejectsBadConfigAndData) {
  TrainConfig bad;
  bad.epochs = 0;
  EXPECT_THROW(AdamTrainer{bad}, ContractError);

  Mlp net({2, 4, 2}, Head::kSoftmaxClassifier, Rng(1));
  AdamTrainer tr;
  Matrix x(3, 2);
  const std::vector<int> short_labels{0, 1};
  EXPECT_THROW(tr.fitClassifier(net, x, short_labels), ContractError);
  const std::vector<int> bad_labels{0, 1, 5};
  EXPECT_THROW(tr.fitClassifier(net, x, bad_labels), ContractError);
}

TEST(Trainer, LearnsLinearlySeparableClassification) {
  // Two Gaussian blobs.
  Rng rng(7);
  const int n = 300;
  Matrix x(n, 2);
  std::vector<int> y(n);
  for (int i = 0; i < n; ++i) {
    const int cls = i % 2;
    x(i, 0) = rng.nextGaussian(cls ? 2.0 : -2.0, 0.7);
    x(i, 1) = rng.nextGaussian(cls ? -1.0 : 1.0, 0.7);
    y[i] = cls;
  }
  Mlp net({2, 8, 2}, Head::kSoftmaxClassifier, Rng(8));
  TrainConfig cfg;
  cfg.epochs = 40;
  AdamTrainer tr(cfg);
  const auto log = tr.fitClassifier(net, x, y);
  EXPECT_GT(classifierAccuracy(net, x, y), 0.97);
  EXPECT_LT(log.back().loss, log.front().loss);
}

TEST(Trainer, LearnsSmoothRegression) {
  Rng rng(9);
  const int n = 400;
  Matrix x(n, 2);
  std::vector<double> y(n);
  for (int i = 0; i < n; ++i) {
    x(i, 0) = rng.nextDouble() * 2.0 - 1.0;
    x(i, 1) = rng.nextDouble() * 2.0 - 1.0;
    // Keep targets bounded away from zero so MAPE is well conditioned.
    y[i] = 6.0 + x(i, 0) * 1.5 - x(i, 1) * 0.5 + x(i, 0) * x(i, 1);
  }
  Mlp net({2, 12, 12, 1}, Head::kRegression, Rng(10));
  TrainConfig cfg;
  cfg.epochs = 250;
  cfg.learning_rate = 3e-3;
  AdamTrainer tr(cfg);
  tr.fitRegression(net, x, y);
  EXPECT_LT(regressionMape(net, x, y), 5.0);
}

TEST(Trainer, TrainingIsDeterministic) {
  const auto train_once = [] {
    Rng rng(11);
    const int n = 100;
    Matrix x(n, 2);
    std::vector<int> y(n);
    for (int i = 0; i < n; ++i) {
      x(i, 0) = rng.nextGaussian();
      x(i, 1) = rng.nextGaussian();
      y[i] = x(i, 0) > 0 ? 1 : 0;
    }
    Mlp net({2, 6, 2}, Head::kSoftmaxClassifier, Rng(12));
    TrainConfig cfg;
    cfg.epochs = 10;
    AdamTrainer tr(cfg);
    tr.fitClassifier(net, x, y);
    return net.forward(std::vector<double>{0.3, -0.7});
  };
  EXPECT_EQ(train_once(), train_once());
}

TEST(Trainer, MaskedWeightsStayZeroThroughTraining) {
  Rng rng(13);
  const int n = 200;
  Matrix x(n, 3);
  std::vector<double> y(n);
  for (int i = 0; i < n; ++i) {
    for (int c = 0; c < 3; ++c) x(i, static_cast<std::size_t>(c)) = rng.nextGaussian();
    y[i] = x(i, 0) + x(i, 1);
  }
  Mlp net({3, 6, 1}, Head::kRegression, Rng(14));
  // Mask half of layer-0 weights.
  auto mask = net.layer(0).mask().flat();
  for (std::size_t i = 0; i < mask.size(); i += 2) mask[i] = 0.0;
  net.applyMasks();
  TrainConfig cfg;
  cfg.epochs = 30;
  AdamTrainer tr(cfg);
  tr.fitRegression(net, x, y);
  const auto w = net.layer(0).weights().flat();
  for (std::size_t i = 0; i < w.size(); i += 2) EXPECT_DOUBLE_EQ(w[i], 0.0);
}

TEST(Trainer, NumericalGradientCheck) {
  // Verify the analytic gradient of the classifier loss against finite
  // differences on a tiny network and batch.
  Rng data_rng(15);
  const int n = 8;
  Matrix x(n, 3);
  std::vector<int> y(n);
  for (int i = 0; i < n; ++i) {
    for (int c = 0; c < 3; ++c)
      x(i, static_cast<std::size_t>(c)) = data_rng.nextGaussian();
    y[i] = i % 2;
  }

  const auto loss_of = [&](Mlp& net) {
    double total = 0.0;
    for (int i = 0; i < n; ++i) {
      const auto p = net.forward(x.row(static_cast<std::size_t>(i)));
      total += -std::log(std::max(p[static_cast<std::size_t>(y[static_cast<std::size_t>(i)])], 1e-12));
    }
    return total / n;
  };

  // One full-batch SGD-like probe: estimate the gradient impact of a single
  // weight perturbation and compare against the training step direction.
  Mlp net({3, 4, 2}, Head::kSoftmaxClassifier, Rng(16));
  const double eps = 1e-5;
  // Pick a few weights across layers.
  for (const auto& [layer_idx, w_idx] : std::vector<std::pair<int, int>>{
           {0, 0}, {0, 5}, {1, 3}}) {
    Mlp plus = net;
    plus.layer(static_cast<std::size_t>(layer_idx)).weights().flat()[static_cast<std::size_t>(w_idx)] += eps;
    Mlp minus = net;
    minus.layer(static_cast<std::size_t>(layer_idx)).weights().flat()[static_cast<std::size_t>(w_idx)] -= eps;
    const double numeric = (loss_of(plus) - loss_of(minus)) / (2 * eps);
    // Analytic: run one epoch with huge batch so the accumulated gradient
    // equals the batch mean; recover it from the Adam update direction sign
    // is too indirect — instead recompute via backward on a clone with a
    // fresh trainer and inspect the weight delta direction for a tiny lr.
    Mlp stepped = net;
    TrainConfig cfg;
    cfg.epochs = 1;
    cfg.batch_size = n;
    cfg.learning_rate = 1e-7;
    cfg.l2 = 0.0;
    cfg.lr_step1_frac = 2.0;  // no decay
    cfg.lr_step2_frac = 2.0;
    AdamTrainer tr(cfg);
    tr.fitClassifier(stepped, x, y);
    const double delta =
        stepped.layer(static_cast<std::size_t>(layer_idx)).weights().flat()[static_cast<std::size_t>(w_idx)] -
        net.layer(static_cast<std::size_t>(layer_idx)).weights().flat()[static_cast<std::size_t>(w_idx)];
    if (std::abs(numeric) > 1e-6) {
      // Adam moves against the gradient.
      EXPECT_LT(delta * numeric, 0.0)
          << "layer " << layer_idx << " weight " << w_idx;
    }
  }
}

}  // namespace
}  // namespace ssm
