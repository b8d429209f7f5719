#include "ml/logistic_regression.h"

#include <cmath>
#include <numeric>
#include <vector>

#include "common/rng.h"

namespace helix {
namespace ml {

namespace {

// Below this weight scale the factored weights are folded back in, long
// before `scale` (and the 1/scale in each update) leaves the normal double
// range.
constexpr double kMinScale = 1e-9;

double Sigmoid(double z) {
  if (z >= 0) {
    double e = std::exp(-z);
    return 1.0 / (1.0 + e);
  }
  double e = std::exp(z);
  return e / (1.0 + e);
}

}  // namespace

Result<std::shared_ptr<dataflow::ModelData>> TrainLogisticRegression(
    const dataflow::ExamplesData& data,
    const LogisticRegressionOptions& opts) {
  std::vector<size_t> train_idx;
  for (size_t i = 0; i < static_cast<size_t>(data.num_examples()); ++i) {
    if (!data.example(static_cast<int64_t>(i)).is_test) {
      train_idx.push_back(i);
    }
  }
  if (train_idx.empty()) {
    return Status::InvalidArgument("no training examples (all is_test)");
  }
  if (opts.epochs <= 0 || opts.learning_rate <= 0) {
    return Status::InvalidArgument(
        "epochs and learning_rate must be positive");
  }

  // The model is held as `scale * weights` (Bottou's "wscale" trick): the
  // per-example L2 shrink multiplies `scale` alone, so a step touches only
  // the example's non-zero features. `weights` absorbs `scale` in an
  // O(dim) fold when it nears underflow and once at the end. With
  // reg_param == 0, `scale` stays exactly 1.0 and every step matches the
  // plain update bit for bit.
  std::vector<double> weights(static_cast<size_t>(data.num_features()), 0.0);
  double scale = 1.0;
  auto fold = [&weights, &scale] {
    for (double& w : weights) {
      w *= scale;
    }
    scale = 1.0;
  };
  double bias = 0.0;
  Rng rng(opts.seed);
  // Summed over the last epoch only: it is the one reported.
  double loss = 0.0;

  for (int epoch = 0; epoch < opts.epochs; ++epoch) {
    rng.Shuffle(&train_idx);
    double lr = opts.learning_rate / (1.0 + opts.lr_decay * epoch);
    bool last_epoch = epoch + 1 == opts.epochs;
    // Per-example L2 shrink scaled by 1/n keeps regularization strength
    // independent of dataset size.
    double shrink =
        1.0 - lr * opts.reg_param / static_cast<double>(train_idx.size());
    if (shrink < 0.0) {
      shrink = 0.0;
    }
    for (size_t i : train_idx) {
      const dataflow::Example& e = data.example(static_cast<int64_t>(i));
      double p = Sigmoid(scale * e.features.Dot(weights) + bias);
      double err = p - e.label;  // gradient of log-loss wrt score
      scale *= shrink;
      if (scale < kMinScale) {
        fold();
      }
      e.features.AddTo(&weights, -lr * err / scale);
      bias -= lr * err;
      if (last_epoch) {
        double clamped = std::min(std::max(p, 1e-12), 1.0 - 1e-12);
        loss += e.label > 0.5 ? -std::log(clamped) : -std::log(1.0 - clamped);
      }
    }
  }
  fold();

  // AddTo may have grown weights past num_features if indices were sparse;
  // clamp back to dictionary size for a canonical representation.
  weights.resize(static_cast<size_t>(data.num_features()), 0.0);
  auto model = std::make_shared<dataflow::ModelData>(
      "logistic_regression", std::move(weights), bias);
  model->SetInfo("train_loss", loss / static_cast<double>(train_idx.size()));
  model->SetInfo("epochs", opts.epochs);
  model->SetInfo("reg_param", opts.reg_param);
  model->SetInfo("num_train", static_cast<double>(train_idx.size()));
  return model;
}

double PredictScore(const dataflow::ModelData& model,
                    const dataflow::SparseVector& features) {
  return features.Dot(model.weights()) + model.bias();
}

double PredictProbability(const dataflow::ModelData& model,
                          const dataflow::SparseVector& features) {
  return Sigmoid(PredictScore(model, features));
}

}  // namespace ml
}  // namespace helix
