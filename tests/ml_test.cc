// Tests for src/ml: trainers (logistic regression, naive Bayes, averaged
// perceptron) and evaluation metrics.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "common/rng.h"
#include "ml/evaluation.h"
#include "ml/logistic_regression.h"
#include "ml/naive_bayes.h"
#include "ml/perceptron.h"

namespace helix {
namespace ml {
namespace {

using dataflow::Example;
using dataflow::ExamplesData;

// Planted linearly separable problem: label = [w* . x > 0], features in
// {0,1}^dim. Returns data with an 80/20 train/test split.
std::shared_ptr<ExamplesData> MakePlantedData(int n, int dim, uint64_t seed,
                                              double flip_noise = 0.0) {
  Rng rng(seed);
  std::vector<double> w_star;
  for (int j = 0; j < dim; ++j) {
    w_star.push_back(rng.NextGaussian());
  }
  auto data = std::make_shared<ExamplesData>();
  for (int j = 0; j < dim; ++j) {
    data->mutable_dict()->Intern("f" + std::to_string(j));
  }
  for (int i = 0; i < n; ++i) {
    Example e;
    double score = 0;
    for (int j = 0; j < dim; ++j) {
      if (rng.NextBool(0.4)) {
        e.features.Set(j, 1.0);
        score += w_star[static_cast<size_t>(j)];
      }
    }
    e.label = score > 0 ? 1.0 : 0.0;
    if (flip_noise > 0 && rng.NextBool(flip_noise)) {
      e.label = 1.0 - e.label;
    }
    e.id = i;
    e.is_test = i >= n * 8 / 10;
    data->Add(std::move(e));
  }
  return data;
}

double TestAccuracy(const dataflow::ModelData& model,
                    const ExamplesData& data) {
  int correct = 0;
  int total = 0;
  for (int64_t i = 0; i < data.num_examples(); ++i) {
    const Example& e = data.example(i);
    if (!e.is_test) {
      continue;
    }
    double p = PredictProbability(model, e.features);
    if ((p >= 0.5) == (e.label > 0.5)) {
      ++correct;
    }
    ++total;
  }
  return total > 0 ? static_cast<double>(correct) / total : 0.0;
}

// --- Logistic regression -----------------------------------------------------

TEST(LogisticRegressionTest, LearnsSeparableData) {
  auto data = MakePlantedData(2000, 12, 1);
  LogisticRegressionOptions opts;
  opts.epochs = 30;
  auto model = TrainLogisticRegression(*data, opts);
  ASSERT_TRUE(model.ok()) << model.status().ToString();
  EXPECT_GT(TestAccuracy(*model.value(), *data), 0.9);
}

TEST(LogisticRegressionTest, DeterministicGivenSeed) {
  auto data = MakePlantedData(500, 8, 2);
  LogisticRegressionOptions opts;
  auto a = TrainLogisticRegression(*data, opts);
  auto b = TrainLogisticRegression(*data, opts);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a.value()->Fingerprint(), b.value()->Fingerprint());
}

TEST(LogisticRegressionTest, SeedChangesModel) {
  auto data = MakePlantedData(500, 8, 2);
  LogisticRegressionOptions opts;
  auto a = TrainLogisticRegression(*data, opts);
  opts.seed = 777;
  auto b = TrainLogisticRegression(*data, opts);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_NE(a.value()->Fingerprint(), b.value()->Fingerprint());
}

TEST(LogisticRegressionTest, StrongRegularizationShrinksWeights) {
  auto data = MakePlantedData(500, 8, 3);
  LogisticRegressionOptions weak;
  weak.reg_param = 0.0;
  LogisticRegressionOptions strong;
  strong.reg_param = 200.0;
  auto weak_model = TrainLogisticRegression(*data, weak);
  auto strong_model = TrainLogisticRegression(*data, strong);
  ASSERT_TRUE(weak_model.ok());
  ASSERT_TRUE(strong_model.ok());
  auto norm = [](const std::vector<double>& w) {
    double s = 0;
    for (double x : w) {
      s += x * x;
    }
    return s;
  };
  EXPECT_LT(norm(strong_model.value()->weights()),
            norm(weak_model.value()->weights()));
}

TEST(LogisticRegressionTest, RejectsAllTestData) {
  auto data = std::make_shared<ExamplesData>();
  Example e;
  e.is_test = true;
  data->Add(e);
  EXPECT_FALSE(TrainLogisticRegression(*data, {}).ok());
}

TEST(LogisticRegressionTest, RejectsBadHyperparameters) {
  auto data = MakePlantedData(50, 4, 4);
  LogisticRegressionOptions opts;
  opts.epochs = 0;
  EXPECT_FALSE(TrainLogisticRegression(*data, opts).ok());
  opts.epochs = 5;
  opts.learning_rate = -1;
  EXPECT_FALSE(TrainLogisticRegression(*data, opts).ok());
}

TEST(LogisticRegressionTest, ProbabilityIsCalibratedShape) {
  dataflow::ModelData model("lr", {2.0}, -1.0);
  dataflow::SparseVector on;
  on.Set(0, 1.0);
  dataflow::SparseVector off;
  // score(on) = 1, score(off) = -1.
  EXPECT_NEAR(PredictProbability(model, on), 1.0 / (1.0 + std::exp(-1.0)),
              1e-12);
  EXPECT_NEAR(PredictProbability(model, off), 1.0 / (1.0 + std::exp(1.0)),
              1e-12);
  EXPECT_DOUBLE_EQ(PredictScore(model, on), 1.0);
}

// --- Logistic regression vs the eager-shrink reference ---------------------------

double ReferenceSigmoid(double z) {
  if (z >= 0) {
    return 1.0 / (1.0 + std::exp(-z));
  }
  double e = std::exp(z);
  return e / (1.0 + e);
}

// The textbook SGD loop the trainer replaced: it multiplies every weight by
// the L2 shrink factor once per example, O(num_features) per step. Kept
// here as the reference the scaled-weight trainer is checked against.
std::shared_ptr<dataflow::ModelData> TrainEagerReference(
    const ExamplesData& data, const LogisticRegressionOptions& opts) {
  std::vector<size_t> train_idx;
  for (size_t i = 0; i < static_cast<size_t>(data.num_examples()); ++i) {
    if (!data.example(static_cast<int64_t>(i)).is_test) {
      train_idx.push_back(i);
    }
  }
  std::vector<double> weights(static_cast<size_t>(data.num_features()), 0.0);
  double bias = 0.0;
  Rng rng(opts.seed);
  double final_loss = 0.0;
  for (int epoch = 0; epoch < opts.epochs; ++epoch) {
    rng.Shuffle(&train_idx);
    double lr = opts.learning_rate / (1.0 + opts.lr_decay * epoch);
    double loss = 0.0;
    double shrink =
        1.0 - lr * opts.reg_param / static_cast<double>(train_idx.size());
    if (shrink < 0.0) {
      shrink = 0.0;
    }
    for (size_t i : train_idx) {
      const Example& e = data.example(static_cast<int64_t>(i));
      double p = ReferenceSigmoid(e.features.Dot(weights) + bias);
      double err = p - e.label;
      if (shrink != 1.0) {
        for (double& w : weights) {
          w *= shrink;
        }
      }
      e.features.AddTo(&weights, -lr * err);
      bias -= lr * err;
      double clamped = std::min(std::max(p, 1e-12), 1.0 - 1e-12);
      loss += e.label > 0.5 ? -std::log(clamped) : -std::log(1.0 - clamped);
    }
    final_loss = loss / static_cast<double>(train_idx.size());
  }
  weights.resize(static_cast<size_t>(data.num_features()), 0.0);
  auto model = std::make_shared<dataflow::ModelData>(
      "logistic_regression", std::move(weights), bias);
  model->SetInfo("train_loss", final_loss);
  model->SetInfo("epochs", opts.epochs);
  model->SetInfo("reg_param", opts.reg_param);
  model->SetInfo("num_train", static_cast<double>(train_idx.size()));
  return model;
}

std::vector<bool> TestLabels(const dataflow::ModelData& model,
                             const ExamplesData& data) {
  std::vector<bool> labels;
  for (int64_t i = 0; i < data.num_examples(); ++i) {
    if (data.example(i).is_test) {
      labels.push_back(PredictProbability(model, data.example(i).features) >=
                       0.5);
    }
  }
  return labels;
}

// How many times the trainer's weight scale falls below its fold threshold
// during the first epoch (the shrink schedule alone decides it).
int FoldsInFirstEpoch(const LogisticRegressionOptions& opts, int num_train) {
  double shrink = 1.0 - opts.learning_rate * opts.reg_param / num_train;
  double scale = 1.0;
  int folds = 0;
  for (int i = 0; i < num_train; ++i) {
    scale *= shrink;
    if (scale < 1e-9) {
      scale = 1.0;
      ++folds;
    }
  }
  return folds;
}

TEST(LogisticRegressionTest, UnregularizedMatchesEagerReferenceBitForBit) {
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    auto data = MakePlantedData(300, 10, seed, 0.1);
    LogisticRegressionOptions opts;
    opts.reg_param = 0.0;
    opts.seed = seed;
    auto model = TrainLogisticRegression(*data, opts);
    ASSERT_TRUE(model.ok()) << model.status().ToString();
    auto reference = TrainEagerReference(*data, opts);
    EXPECT_EQ(model.value()->Fingerprint(), reference->Fingerprint())
        << "seed " << seed;
    EXPECT_EQ(model.value()->InfoOr("train_loss", -1),
              reference->InfoOr("train_loss", -2))
        << "seed " << seed;
  }
}

TEST(LogisticRegressionTest, RegularizedMatchesEagerReferenceClosely) {
  // On 240 training rows reg 1000 folds the weight scale back several
  // times per epoch, and reg 200 (the StrongRegularizationShrinksWeights
  // shape) about once, so the comparison covers the folds too.
  LogisticRegressionOptions strong;
  strong.reg_param = 1000.0;
  ASSERT_GE(FoldsInFirstEpoch(strong, 240), 3);
  for (double reg_param : {0.1, 10.0, 200.0, 1000.0}) {
    for (uint64_t seed = 1; seed <= 10; ++seed) {
      auto data = MakePlantedData(300, 10, seed, 0.1);
      LogisticRegressionOptions opts;
      opts.reg_param = reg_param;
      opts.seed = seed;
      auto model = TrainLogisticRegression(*data, opts);
      ASSERT_TRUE(model.ok()) << model.status().ToString();
      auto reference = TrainEagerReference(*data, opts);
      const std::vector<double>& w = model.value()->weights();
      const std::vector<double>& ref = reference->weights();
      ASSERT_EQ(w.size(), ref.size());
      for (size_t j = 0; j < w.size(); ++j) {
        EXPECT_NEAR(w[j], ref[j], 1e-9 * std::abs(ref[j]))
            << "reg " << reg_param << " seed " << seed << " weight " << j;
      }
      EXPECT_NEAR(model.value()->bias(), reference->bias(),
                  1e-9 * std::abs(reference->bias()))
          << "reg " << reg_param << " seed " << seed;
      EXPECT_EQ(TestLabels(*model.value(), *data),
                TestLabels(*reference, *data))
          << "reg " << reg_param << " seed " << seed;
    }
  }
}

TEST(LogisticRegressionTest, ClampedShrinkMatchesEagerReferenceBitForBit) {
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    auto data = MakePlantedData(300, 10, seed, 0.1);
    LogisticRegressionOptions opts;
    // lr * reg / n >= 1 in every epoch: the shrink factor clamps to 0.
    opts.reg_param = 1e6;
    opts.seed = seed;
    auto model = TrainLogisticRegression(*data, opts);
    ASSERT_TRUE(model.ok()) << model.status().ToString();
    auto reference = TrainEagerReference(*data, opts);
    EXPECT_EQ(model.value()->Fingerprint(), reference->Fingerprint())
        << "seed " << seed;
    EXPECT_EQ(model.value()->InfoOr("train_loss", -1),
              reference->InfoOr("train_loss", -2))
        << "seed " << seed;
  }
}

// --- Naive Bayes ----------------------------------------------------------------

TEST(NaiveBayesTest, LearnsSeparableData) {
  auto data = MakePlantedData(2000, 12, 5);
  auto model = TrainNaiveBayes(*data, {});
  ASSERT_TRUE(model.ok()) << model.status().ToString();
  EXPECT_GT(TestAccuracy(*model.value(), *data), 0.8);
}

TEST(NaiveBayesTest, RequiresBothClasses) {
  auto data = std::make_shared<ExamplesData>();
  data->mutable_dict()->Intern("f");
  for (int i = 0; i < 5; ++i) {
    Example e;
    e.label = 1.0;
    data->Add(e);
  }
  EXPECT_FALSE(TrainNaiveBayes(*data, {}).ok());
}

TEST(NaiveBayesTest, RejectsNonPositiveSmoothing) {
  auto data = MakePlantedData(100, 4, 6);
  NaiveBayesOptions opts;
  opts.smoothing = 0;
  EXPECT_FALSE(TrainNaiveBayes(*data, opts).ok());
}

TEST(NaiveBayesTest, DeterministicAndExportedAsLinear) {
  auto data = MakePlantedData(300, 6, 7);
  auto a = TrainNaiveBayes(*data, {});
  auto b = TrainNaiveBayes(*data, {});
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a.value()->Fingerprint(), b.value()->Fingerprint());
  EXPECT_EQ(a.value()->model_type(), "naive_bayes");
  EXPECT_EQ(a.value()->weights().size(), 6u);
}

// --- Averaged perceptron -----------------------------------------------------------

TEST(PerceptronTest, LearnsSeparableData) {
  auto data = MakePlantedData(2000, 12, 8);
  PerceptronOptions opts;
  opts.epochs = 15;
  auto model = TrainAveragedPerceptron(*data, opts);
  ASSERT_TRUE(model.ok()) << model.status().ToString();
  EXPECT_GT(TestAccuracy(*model.value(), *data), 0.88);
}

TEST(PerceptronTest, Deterministic) {
  auto data = MakePlantedData(400, 8, 9);
  PerceptronOptions opts;
  auto a = TrainAveragedPerceptron(*data, opts);
  auto b = TrainAveragedPerceptron(*data, opts);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a.value()->Fingerprint(), b.value()->Fingerprint());
}

TEST(PerceptronTest, TracksMistakes) {
  auto data = MakePlantedData(400, 8, 10, /*flip_noise=*/0.1);
  auto model = TrainAveragedPerceptron(*data, {});
  ASSERT_TRUE(model.ok());
  EXPECT_GT(model.value()->InfoOr("mistakes", 0), 0);
}

// --- Binary metrics -------------------------------------------------------------------

TEST(MetricsTest, PerfectClassifier) {
  std::vector<ScoredLabel> rows = {{1, 0.9}, {0, 0.1}, {1, 0.8}, {0, 0.2}};
  BinaryMetricsOptions opts;
  opts.auc = true;
  auto m = ComputeBinaryMetrics(rows, opts);
  ASSERT_TRUE(m.ok());
  EXPECT_DOUBLE_EQ(m.value().at("accuracy"), 1.0);
  EXPECT_DOUBLE_EQ(m.value().at("precision"), 1.0);
  EXPECT_DOUBLE_EQ(m.value().at("recall"), 1.0);
  EXPECT_DOUBLE_EQ(m.value().at("f1"), 1.0);
  EXPECT_DOUBLE_EQ(m.value().at("auc"), 1.0);
}

TEST(MetricsTest, KnownConfusionCounts) {
  // preds at 0.5: TP=1 (0.7), FP=1 (0.6), TN=1 (0.3), FN=1 (0.4).
  std::vector<ScoredLabel> rows = {{1, 0.7}, {0, 0.6}, {0, 0.3}, {1, 0.4}};
  BinaryMetricsOptions opts;
  opts.confusion_counts = true;
  auto m = ComputeBinaryMetrics(rows, opts);
  ASSERT_TRUE(m.ok());
  EXPECT_DOUBLE_EQ(m.value().at("tp"), 1);
  EXPECT_DOUBLE_EQ(m.value().at("fp"), 1);
  EXPECT_DOUBLE_EQ(m.value().at("tn"), 1);
  EXPECT_DOUBLE_EQ(m.value().at("fn"), 1);
  EXPECT_DOUBLE_EQ(m.value().at("accuracy"), 0.5);
  EXPECT_DOUBLE_EQ(m.value().at("precision"), 0.5);
  EXPECT_DOUBLE_EQ(m.value().at("recall"), 0.5);
}

TEST(MetricsTest, ThresholdMatters) {
  std::vector<ScoredLabel> rows = {{1, 0.55}, {0, 0.45}};
  BinaryMetricsOptions opts;
  opts.threshold = 0.6;
  auto m = ComputeBinaryMetrics(rows, opts);
  ASSERT_TRUE(m.ok());
  // The positive (0.55) now falls below the threshold.
  EXPECT_DOUBLE_EQ(m.value().at("recall"), 0.0);
  EXPECT_DOUBLE_EQ(m.value().at("accuracy"), 0.5);
}

TEST(MetricsTest, AucHandlesTiesByMidrank) {
  // All scores equal: AUC should be exactly 0.5.
  std::vector<ScoredLabel> rows = {{1, 0.5}, {0, 0.5}, {1, 0.5}, {0, 0.5}};
  BinaryMetricsOptions opts;
  opts.auc = true;
  auto m = ComputeBinaryMetrics(rows, opts);
  ASSERT_TRUE(m.ok());
  EXPECT_DOUBLE_EQ(m.value().at("auc"), 0.5);
}

TEST(MetricsTest, LogLossMatchesHandComputation) {
  std::vector<ScoredLabel> rows = {{1, 0.8}, {0, 0.2}};
  BinaryMetricsOptions opts;
  opts.log_loss = true;
  auto m = ComputeBinaryMetrics(rows, opts);
  ASSERT_TRUE(m.ok());
  EXPECT_NEAR(m.value().at("log_loss"), -std::log(0.8), 1e-12);
}

TEST(MetricsTest, EmptyInputRejected) {
  EXPECT_FALSE(ComputeBinaryMetrics({}, {}).ok());
}

TEST(MetricsTest, DegeneratePrecisionRecallAreZero) {
  // No predicted positives and no actual positives.
  std::vector<ScoredLabel> rows = {{0, 0.1}, {0, 0.2}};
  auto m = ComputeBinaryMetrics(rows, {});
  ASSERT_TRUE(m.ok());
  EXPECT_DOUBLE_EQ(m.value().at("precision"), 0.0);
  EXPECT_DOUBLE_EQ(m.value().at("recall"), 0.0);
  EXPECT_DOUBLE_EQ(m.value().at("f1"), 0.0);
}

// --- Span metrics -------------------------------------------------------------------------

TEST(SpanMetricsTest, ExactMatchCounting) {
  std::vector<dataflow::Span> gold = {{0, 5, "PERSON"}, {10, 15, "PERSON"}};
  std::vector<dataflow::Span> pred = {{0, 5, "PERSON"}, {20, 25, "PERSON"}};
  auto m = ComputeSpanMetrics(gold, pred);
  EXPECT_DOUBLE_EQ(m.at("span_tp"), 1);
  EXPECT_DOUBLE_EQ(m.at("span_fp"), 1);
  EXPECT_DOUBLE_EQ(m.at("span_fn"), 1);
  EXPECT_DOUBLE_EQ(m.at("span_precision"), 0.5);
  EXPECT_DOUBLE_EQ(m.at("span_recall"), 0.5);
  EXPECT_DOUBLE_EQ(m.at("span_f1"), 0.5);
}

TEST(SpanMetricsTest, LabelMustMatch) {
  std::vector<dataflow::Span> gold = {{0, 5, "PERSON"}};
  std::vector<dataflow::Span> pred = {{0, 5, "ORG"}};
  auto m = ComputeSpanMetrics(gold, pred);
  EXPECT_DOUBLE_EQ(m.at("span_tp"), 0);
}

TEST(SpanMetricsTest, PartialOverlapDoesNotCount) {
  std::vector<dataflow::Span> gold = {{0, 5, "PERSON"}};
  std::vector<dataflow::Span> pred = {{0, 4, "PERSON"}};
  auto m = ComputeSpanMetrics(gold, pred);
  EXPECT_DOUBLE_EQ(m.at("span_tp"), 0);
  EXPECT_DOUBLE_EQ(m.at("span_fp"), 1);
  EXPECT_DOUBLE_EQ(m.at("span_fn"), 1);
}

TEST(SpanMetricsTest, DuplicateGoldMatchedOncePerPrediction) {
  std::vector<dataflow::Span> gold = {{0, 5, "P"}, {0, 5, "P"}};
  std::vector<dataflow::Span> pred = {{0, 5, "P"}};
  auto m = ComputeSpanMetrics(gold, pred);
  EXPECT_DOUBLE_EQ(m.at("span_tp"), 1);
  EXPECT_DOUBLE_EQ(m.at("span_fn"), 1);
}

TEST(SpanMetricsTest, CorpusAggregationMicroAverages) {
  std::vector<std::vector<dataflow::Span>> gold = {{{0, 3, "P"}},
                                                   {{5, 9, "P"}}};
  std::vector<std::vector<dataflow::Span>> pred = {{{0, 3, "P"}}, {}};
  auto m = ComputeCorpusSpanMetrics(gold, pred);
  EXPECT_DOUBLE_EQ(m.at("span_tp"), 1);
  EXPECT_DOUBLE_EQ(m.at("span_fn"), 1);
  EXPECT_DOUBLE_EQ(m.at("span_recall"), 0.5);
}

TEST(SpanMetricsTest, MismatchedDocCountsCounted) {
  std::vector<std::vector<dataflow::Span>> gold = {{{0, 3, "P"}},
                                                   {{5, 9, "P"}}};
  std::vector<std::vector<dataflow::Span>> pred = {{{0, 3, "P"}}};
  auto m = ComputeCorpusSpanMetrics(gold, pred);
  EXPECT_DOUBLE_EQ(m.at("span_fn"), 1);  // the unmatched doc's gold span
}

}  // namespace
}  // namespace ml
}  // namespace helix
