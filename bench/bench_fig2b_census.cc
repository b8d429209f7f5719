// Reproduces paper Figure 2(b): cumulative runtime on the Census
// classification task for HELIX vs DeepDive vs KeystoneML (plus
// HELIX-unopt, the demo's "without optimizations" comparison point).
//
// The 10-iteration script mixes the paper's three edit categories:
// purple = data pre-processing, orange = ML, green = post-processing.
// Expected shape (paper Section 2.4):
//   * HELIX cumulative runtime is below KeystoneML's, which re-runs
//     everything each iteration. The paper reports about an order of
//     magnitude; here it measures about 1.9-2.0x on a 4-vCPU x86 host.
//     The script is training-dominated: 7 of its 10 iterations change the
//     model's inputs or hyperparameters and so must retrain, and
//     KeystoneML runs the same in-process trainer, so skipping work
//     cannot buy the paper's ratio;
//   * HELIX post-processing (green) iterations are near zero;
//   * ML (orange) iterations cost more than green, less than purple;
//   * DeepDive has no data for iterations > 2: its ML and evaluation
//     components are not user-configurable, so only pre-processing edits
//     are expressible.
//
// Absolute numbers differ from the paper (in-process C++ engine vs their
// Spark cluster); the ordering and per-category behaviour are the claims
// under reproduction.
#include <cstdio>
#include <map>

#include "apps/census_app.h"
#include "baselines/baselines.h"
#include "bench/bench_util.h"
#include "common/strings.h"
#include "core/session.h"
#include "datagen/census_gen.h"

namespace helix {
namespace bench {
namespace {

using baselines::SystemKind;

constexpr int64_t kRows = 16000;
constexpr int kEpochs = 30;

Series RunSystem(SystemKind kind, const TempWorkspace& workspace,
                 const std::string& train, const std::string& test,
                 const std::vector<apps::ScriptedIteration>& script) {
  core::SessionOptions options = baselines::MakeSessionOptions(
      kind,
      workspace.Path(std::string("ws-") + baselines::SystemKindToString(kind)),
      1LL << 30, SystemClock::Default());
  auto session = ValueOrDie(core::Session::Open(options), "open session");

  Series series;
  series.name = baselines::SystemKindToString(kind);

  apps::CensusConfig config;
  config.train_path = train;
  config.test_path = test;
  config.learner.epochs = kEpochs;

  double cumulative = 0;
  bool deepdive_expressible = true;
  for (const auto& step : script) {
    step.mutate(&config);
    if (kind == SystemKind::kDeepDive && !apps::DeepDiveSupports(step)) {
      // The paper reports missing DeepDive data beyond this point (its ML
      // and evaluation components are not user-configurable).
      deepdive_expressible = false;
    }
    if (!deepdive_expressible) {
      series.iteration_ms.push_back(-1);
      series.cumulative_ms.push_back(-1);
      continue;
    }
    auto result = ValueOrDie(
        session->RunIteration(apps::BuildCensusWorkflow(config),
                              step.description, step.category),
        "iteration");
    double ms = static_cast<double>(result.report.total_micros) / 1e3;
    cumulative += ms;
    series.iteration_ms.push_back(ms);
    series.cumulative_ms.push_back(cumulative);
  }
  return series;
}

void Run() {
  TempWorkspace workspace("helix-fig2b");
  std::string train = workspace.Path("census.train.csv");
  std::string test = workspace.Path("census.test.csv");
  datagen::CensusGenOptions gen;
  gen.num_rows = kRows;
  CheckOk(datagen::WriteCensusFiles(gen, train, test), "census datagen");

  auto script = apps::MakeCensusIterationScript();
  std::vector<std::string> labels;
  std::vector<std::string> types;
  for (const auto& step : script) {
    labels.push_back(step.description);
    types.push_back(core::ChangeCategoryToString(step.category));
  }

  std::vector<Series> series;
  for (SystemKind kind : {SystemKind::kHelix, SystemKind::kDeepDive,
                          SystemKind::kKeystoneMl, SystemKind::kHelixUnopt}) {
    std::fprintf(stderr, "running %s...\n",
                 baselines::SystemKindToString(kind));
    series.push_back(RunSystem(kind, workspace, train, test, script));
  }

  PrintFigure(
      StrFormat("Figure 2(b): Census classification, cumulative runtime "
                "(%lld rows, %d epochs)",
                static_cast<long long>(kRows), kEpochs),
      labels, types, series);

  // Shape checks reported inline (the EXPERIMENTS.md evidence).
  const Series& helix = series[0];
  const Series& keystone = series[2];
  const Series& unopt = series[3];
  double helix_cum = helix.cumulative_ms.back();
  std::printf("\nsummary:\n");
  std::printf("  cumulative: helix=%.1fms keystoneml=%.1fms (%.2fx) "
              "helix-unopt=%.1fms (%.2fx)\n",
              helix_cum, keystone.cumulative_ms.back(),
              keystone.cumulative_ms.back() / helix_cum,
              unopt.cumulative_ms.back(),
              unopt.cumulative_ms.back() / helix_cum);

  // Per-category mean iteration time for HELIX (paper: green ~ 0 < orange
  // < purple).
  std::map<std::string, std::pair<double, int>> by_type;
  for (size_t i = 1; i < script.size(); ++i) {  // skip the initial run
    auto& [total, count] = by_type[types[i]];
    total += helix.iteration_ms[i];
    count += 1;
  }
  std::printf("  helix mean iteration time by change type:\n");
  for (const auto& [type, agg] : by_type) {
    std::printf("    %-11s %.1f ms\n", type.c_str(),
                agg.first / agg.second);
  }
}

}  // namespace
}  // namespace bench
}  // namespace helix

int main() {
  helix::bench::Run();
  helix::bench::WriteBenchSummary("fig2b_census");
  return 0;
}
