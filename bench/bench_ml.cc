// Microbenchmark: training throughput of the three Learner model types.
//
// Runs the Learner operator (logistic regression, naive Bayes, averaged
// perceptron) on two planted sparse datasets shaped like the paper's
// applications, each with that application's learner settings:
//   * census: 266 features, 4 non-zeros per row (one-hot bucketized and
//     categorical columns); CensusConfig's learner (reg 0.1, lr 0.1,
//     20 epochs);
//   * ie:     2134 features, 2.4 non-zeros per row on average (token
//     lexical and context features); IeConfig's learner (reg 0.01,
//     lr 0.5, 5 epochs).
// Reports training examples/s, where one example is one row visited once
// (an epoch over n rows is n examples), as the median of kReps timed runs,
// plus the model's fingerprint, so runs of two builds can be checked for
// training the same model.
//
//   ./build/bench_ml
//
// Prints an aligned table and one `json,` line per (dataset, model) pair;
// writes BENCH_ml.json via WriteBenchSummary.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "apps/census_app.h"
#include "apps/ie_app.h"
#include "bench/bench_util.h"
#include "common/json.h"
#include "common/rng.h"
#include "core/std_ops.h"
#include "dataflow/data_collection.h"
#include "dataflow/examples.h"

namespace helix {
namespace bench {
namespace {

using dataflow::DataCollection;
using dataflow::Example;
using dataflow::ExamplesData;

constexpr int64_t kCensusRows = 16000;
constexpr int64_t kIeRows = 20000;
constexpr int kReps = 3;

struct Shape {
  const char* name;
  int64_t rows;
  int dim;
  // Rows carry `min_nnz` non-zeros, plus one more with probability
  // `extra_nnz_prob`: mean nnz = min_nnz + extra_nnz_prob.
  int min_nnz;
  double extra_nnz_prob;
  core::ops::LearnerConfig learner;
};

// Binary features at distinct random indices; the label is a planted
// linear rule with 10% label noise. Every fifth row is held out (is_test).
std::shared_ptr<ExamplesData> MakeData(const Shape& shape, uint64_t seed) {
  Rng rng(seed);
  std::vector<double> w_star;
  for (int j = 0; j < shape.dim; ++j) {
    w_star.push_back(rng.NextGaussian());
  }
  auto data = std::make_shared<ExamplesData>();
  for (int j = 0; j < shape.dim; ++j) {
    data->mutable_dict()->Intern("f" + std::to_string(j));
  }
  for (int64_t i = 0; i < shape.rows; ++i) {
    Example e;
    int nnz = shape.min_nnz + (rng.NextBool(shape.extra_nnz_prob) ? 1 : 0);
    double score = 0;
    while (e.features.num_entries() < nnz) {
      int32_t j = static_cast<int32_t>(rng.NextBelow(shape.dim));
      if (e.features.Get(j) == 0.0) {
        e.features.Set(j, 1.0);
        score += w_star[static_cast<size_t>(j)];
      }
    }
    e.label = score > 0 ? 1.0 : 0.0;
    if (rng.NextBool(0.1)) {
      e.label = 1.0 - e.label;
    }
    e.id = i;
    e.is_test = i % 5 == 4;
    data->Add(std::move(e));
  }
  return data;
}

void Run() {
  const Shape shapes[] = {
      {"census", kCensusRows, 266, 4, 0.0, apps::CensusConfig().learner},
      {"ie", kIeRows, 2134, 2, 0.4, apps::IeConfig().learner},
  };
  std::printf("%-7s %-11s %8s %8s %10s %14s  %s\n", "data", "model", "rows",
              "nnz/row", "median ms", "examples/s", "fingerprint");
  for (const Shape& shape : shapes) {
    DataCollection input = DataCollection::FromExamples(MakeData(shape, 7));
    const ExamplesData& data = *ValueOrDie(input.AsExamples(), "examples");
    int64_t num_train = 0;
    int64_t nnz = 0;
    for (int64_t i = 0; i < data.num_examples(); ++i) {
      num_train += data.example(i).is_test ? 0 : 1;
      nnz += data.example(i).features.num_entries();
    }
    double nnz_per_row =
        static_cast<double>(nnz) / static_cast<double>(data.num_examples());
    for (const char* model_type : {"lr", "nb", "perceptron"}) {
      core::ops::LearnerConfig config = shape.learner;
      config.model_type = model_type;
      core::Operator learner = core::ops::Learner("learner", config);
      std::vector<double> millis;
      uint64_t fingerprint = 0;
      for (int r = 0; r < kReps; ++r) {
        auto start = std::chrono::steady_clock::now();
        DataCollection model =
            ValueOrDie(learner.Invoke({&input}), model_type);
        millis.push_back(std::chrono::duration<double, std::milli>(
                             std::chrono::steady_clock::now() - start)
                             .count());
        fingerprint = ValueOrDie(model.AsModel(), "model")->Fingerprint();
      }
      std::sort(millis.begin(), millis.end());
      double median_ms = millis[millis.size() / 2];
      // Naive Bayes counts in one pass; the SGD trainers visit every
      // training row once per epoch.
      int passes = config.model_type == "nb" ? 1 : config.epochs;
      int64_t examples = num_train * passes;
      double examples_per_s = static_cast<double>(examples) / median_ms * 1e3;
      std::printf("%-7s %-11s %8lld %8.2f %10.2f %14.0f  %016llx\n",
                  shape.name, model_type, static_cast<long long>(shape.rows),
                  nnz_per_row, median_ms, examples_per_s,
                  static_cast<unsigned long long>(fingerprint));

      JsonWriter json;
      json.BeginObject();
      json.KV("record", "ml_train");
      json.KV("dataset", shape.name);
      json.KV("model", model_type);
      json.KV("rows", shape.rows);
      json.KV("num_features", shape.dim);
      json.KV("nnz_per_row", nnz_per_row);
      json.KV("train_examples", examples);
      json.KV("reps", kReps);
      json.KV("median_ms", median_ms);
      json.KV("examples_per_s", examples_per_s);
      json.KV("model_fingerprint", fingerprint);
      json.EndObject();
      PrintJsonLine(json);
    }
  }
}

}  // namespace
}  // namespace bench
}  // namespace helix

int main() {
  helix::bench::Run();
  helix::bench::WriteBenchSummary("ml");
  return 0;
}
