// census_edits and ie_edits: one analyst runs a paper edit script
// (Fig. 2b census, Fig. 2a IE) through core::Session::RunIteration with
// Helix defaults — disk store, online cost-model policy, parallel
// executor — starting every lap from a fresh workspace.
//
// Sizes: laps must be long enough that lap-to-lap jitter averages out (at
// 16k census rows an identical incPred training swings 43-75 ms from lap
// to lap) and the working set small enough to stay in cache: on a shared
// 4-vCPU machine a 64k-row lap took 2.2-5.3 s as neighbours came and went
// (about 3x a 32k-row lap, not 2x), while 32k-row laps run 1.0-1.5 s.
// 200 IE documents give laps of about 2.5 s; smaller IE corpora spread
// more between runs (the cost-model policy's decisions flip between laps).
#include <algorithm>
#include <cstdio>
#include <functional>
#include <memory>

#include "apps/census_app.h"
#include "apps/ie_app.h"
#include "baselines/baselines.h"
#include "common/file_util.h"
#include "core/session.h"
#include "datagen/census_gen.h"
#include "datagen/news_gen.h"
#include "obs/metrics.h"
#include "perf.h"

namespace helix {
namespace perfbench {
namespace {

constexpr int64_t kCensusRows = 32000;
constexpr int kCensusEpochs = 30;
constexpr int64_t kIeDocs = 200;
constexpr int kIeEpochs = 10;

struct Edit {
  std::string description;
  core::ChangeCategory category = core::ChangeCategory::kInitial;
  core::Workflow workflow{""};
};

// One application's script plus what the benchmark needs around it.
struct App {
  std::vector<Edit> edits;
  /// Writes the input files (deterministic in the data seed).
  std::function<Status()> generate;
  /// Initial workflow with the largest intermediates (`probe_nodes`,
  /// the throughput probes' payloads) marked as outputs.
  core::Workflow probe_workflow{""};
  std::vector<std::string> probe_nodes;
  /// The paper's comparison system for this application.
  baselines::SystemKind paper_baseline = baselines::SystemKind::kKeystoneMl;
};

App MakeCensusApp(const std::string& data_dir, uint64_t seed) {
  App app;
  const std::string train = JoinPath(data_dir, "census.train.csv");
  const std::string test = JoinPath(data_dir, "census.test.csv");
  app.generate = [train, test, seed]() {
    datagen::CensusGenOptions gen;
    gen.num_rows = kCensusRows;
    gen.seed = seed;
    return datagen::WriteCensusFiles(gen, train, test);
  };
  apps::CensusConfig config;
  config.train_path = train;
  config.test_path = test;
  config.learner.epochs = kCensusEpochs;
  app.probe_workflow = apps::BuildCensusWorkflow(config);
  app.probe_nodes = {"rows", "income"};
  for (const apps::ScriptedIteration& step :
       apps::MakeCensusIterationScript()) {
    step.mutate(&config);
    app.edits.push_back({step.description, step.category,
                         apps::BuildCensusWorkflow(config)});
  }
  return app;
}

App MakeIeApp(const std::string& data_dir, uint64_t seed) {
  App app;
  const std::string corpus = JoinPath(data_dir, "news.dat");
  app.generate = [corpus, seed]() {
    datagen::NewsGenOptions gen;
    gen.num_docs = kIeDocs;
    gen.seed = seed;
    return datagen::WriteNewsCorpus(gen, corpus);
  };
  apps::IeConfig config;
  config.corpus_path = corpus;
  config.learner.epochs = kIeEpochs;
  app.probe_workflow = apps::BuildIeWorkflow(config);
  app.probe_nodes = {"tokenFeats", "tokens"};
  app.paper_baseline = baselines::SystemKind::kDeepDive;
  for (const apps::IeScriptedIteration& step : apps::MakeIeIterationScript()) {
    step.mutate(&config);
    app.edits.push_back(
        {step.description, step.category, apps::BuildIeWorkflow(config)});
  }
  return app;
}

// Critical path (longest chain of node costs along DAG edges; pruned
// nodes pass their parents' chains through at zero cost, as the
// scheduler routes dependencies through them) and pool wait (for every
// node with active ancestors: its start minus the end of the last of
// them).
struct DagTimes {
  int64_t critical_path_us = 0;
  int64_t pool_wait_us = 0;
};

DagTimes AnalyzeDag(const core::IterationResult& result) {
  const core::WorkflowDag& dag = result.dag;
  const size_t n = static_cast<size_t>(dag.num_nodes());
  std::vector<int64_t> chain(n, 0);
  std::vector<int64_t> available(n, -1);
  DagTimes times;
  for (int i : dag.topo_order()) {
    const core::NodeExecution& node =
        result.report.nodes[static_cast<size_t>(i)];
    const bool active = node.state != core::NodeState::kPrune;
    int64_t chain_in = 0;
    int64_t ready = -1;
    for (graph::NodeId p : dag.dag().Parents(i)) {
      chain_in = std::max(chain_in, chain[static_cast<size_t>(p)]);
      ready = std::max(ready, available[static_cast<size_t>(p)]);
    }
    const size_t s = static_cast<size_t>(i);
    chain[s] = chain_in + (active ? node.cost_micros : 0);
    times.critical_path_us = std::max(times.critical_path_us, chain[s]);
    if (active) {
      if (ready >= 0) {
        times.pool_wait_us += std::max<int64_t>(0, node.start_micros - ready);
      }
      available[s] = node.start_micros + node.cost_micros;
    } else {
      available[s] = ready;
    }
  }
  return times;
}

// Output digests of one pass over the script, by edit index.
using PassFingerprints = std::vector<uint64_t>;

struct PassResult {
  PassFingerprints fingerprints;
  int64_t cum_us = 0;
  int failed = 0;
};

// Runs every edit once through `session`, emitting one "iter" record per
// edit when `lap` >= 0 (measured laps).
PassResult RunPass(const App& app, core::Session* session, int lap,
                   bool traced, uint64_t pid, obs::TraceCollector* trace) {
  PassResult pass;
  for (size_t i = 0; i < app.edits.size(); ++i) {
    const Edit& edit = app.edits[i];
    int64_t start = NowMicros();
    Result<core::IterationResult> result = [&]() {
      ScopedSpan span(trace, "core.Session::RunIteration", pid, 1000);
      return session->RunIteration(edit.workflow, edit.description,
                                   edit.category);
    }();
    int64_t call_us = NowMicros() - start;
    pass.cum_us += call_us;
    if (!result.ok()) {
      std::fprintf(stderr, "iteration %zu failed: %s\n", i,
                   result.status().ToString().c_str());
      ++pass.failed;
      pass.fingerprints.push_back(0);
      continue;
    }
    pass.fingerprints.push_back(CombineOutputs(result->report.outputs));
    if (lap < 0) {
      continue;
    }
    const core::ExecutionReport& report = result->report;
    DagTimes dag_times = AnalyzeDag(*result);
    JsonWriter record;
    record.BeginObject()
        .KV("type", "iter")
        .KV("lap", lap)
        .KV("traced", traced)
        .KV("pid", pid)
        .KV("iteration", session->iteration() - 1)
        .KV("index", static_cast<int64_t>(i))
        .KV("category", core::ChangeCategoryToString(edit.category))
        .KV("call_us", call_us)
        .KV("total_us", report.total_micros)
        .KV("plan_us", report.planning_micros)
        .KV("cp_us", dag_times.critical_path_us)
        .KV("pool_wait_us", dag_times.pool_wait_us)
        .KV("computed", report.num_computed)
        .KV("loaded", report.num_loaded)
        .KV("pruned", report.num_pruned)
        .EndObject();
    EmitRecord(record);
  }
  return pass;
}

core::SessionOptions OptionsFor(baselines::SystemKind kind,
                                const std::string& workspace) {
  return baselines::MakeSessionOptions(kind, workspace, 1LL << 30,
                                       SystemClock::Default());
}

// Compares every successful measured iteration (a failed one has
// fingerprint 0) with the reference; returns how many were compared.
int64_t CheckPasses(const char* what, const PassFingerprints& expected,
                    const std::vector<PassFingerprints>& laps) {
  int64_t checked = 0;
  int mismatches = 0;
  for (const PassFingerprints& lap : laps) {
    for (size_t i = 0; i < expected.size(); ++i) {
      if (lap[i] == 0) {
        continue;
      }
      ++checked;
      if (lap[i] != expected[i]) {
        std::fprintf(stderr, "%s: edit %zu fingerprint %016llx != %016llx\n",
                     what, i, static_cast<unsigned long long>(lap[i]),
                     static_cast<unsigned long long>(expected[i]));
        ++mismatches;
      }
    }
  }
  if (mismatches > 0) {
    Die(std::string(what) + ": output fingerprints differ from a plain "
        "recompute");
  }
  return checked;
}

}  // namespace

void RunSingleAnalyst(const RunOptions& options, obs::TraceCollector* trace) {
  const bool census = options.workload == "census_edits";
  const std::string data_dir = JoinPath(options.workdir, "data");
  CheckOk(MakeDirs(data_dir), "create data dir");
  App app = census ? MakeCensusApp(data_dir, options.seed)
                   : MakeIeApp(data_dir, options.seed);
  for (const std::string& name : app.probe_nodes) {
    app.probe_workflow.MarkOutput(app.probe_workflow.Find(name));
  }

  JsonWriter header;
  header.BeginObject()
      .KV("type", "run")
      .KV("workload", options.workload)
      .KV("parallelism",
          core::ResolveParallelism(core::ExecutionOptions(),
                                   app.edits.front().workflow.num_nodes()))
      .EndObject();
  EmitRecord(header);

  // Measured laps. A traced run alternates traced and untraced laps so
  // the tracing overhead is measured inside one process.
  std::vector<PassFingerprints> lap_fingerprints;
  int failed = 0;
  const int64_t laps_start = NowMicros();
  for (int lap = 0; AnotherLap(options, laps_start, lap); ++lap) {
    const bool traced = options.trace && lap % 2 == 0;
    const uint64_t pid = static_cast<uint64_t>(lap) + 1;
    const std::string workspace =
        JoinPath(options.workdir, "ws-" + std::to_string(lap));
    obs::MetricsRegistry registry;
    core::SessionOptions session_options =
        OptionsFor(baselines::SystemKind::kHelix, workspace);
    session_options.session_id = pid;
    if (traced) {
      session_options.metrics = &registry;
      session_options.trace = trace;
    }

    int64_t setup_start = NowMicros();
    std::unique_ptr<core::Session> session;
    {
      ScopedSpan span(traced ? trace : nullptr, "setup", pid, 1000);
      CheckOk(app.generate(), "datagen");
      session = ValueOrDie(core::Session::Open(session_options),
                           "open session");
    }
    int64_t setup_us = NowMicros() - setup_start;

    PassResult pass = RunPass(app, session.get(), lap, traced, pid,
                              traced ? trace : nullptr);
    failed += pass.failed;
    lap_fingerprints.push_back(std::move(pass.fingerprints));

    JsonWriter record;
    record.BeginObject()
        .KV("type", "lap")
        .KV("lap", lap)
        .KV("traced", traced)
        .KV("setup_us", setup_us)
        .KV("cum_us", pass.cum_us)
        .KV("iterations", static_cast<int64_t>(app.edits.size()))
        .KV("failed", pass.failed)
        .KV("store_bytes", session->store()->TotalBytes())
        .EndObject();
    EmitRecord(record);
    if (traced) {
      EmitDocument("metrics", lap, "metrics", registry.SnapshotJson());
    }
    session.reset();
    CheckOk(RemoveDirRecursively(workspace), "remove workspace");
  }
  JsonWriter rss;
  rss.BeginObject().KV("type", "rss").KV("peak_rss_mb", PeakRssMb())
      .EndObject();
  EmitRecord(rss);

  // Reference: the same script under the KeystoneML configuration (no
  // store, no reuse), once per run. Its cumulative time is the census
  // paper readout.
  auto reference_session = ValueOrDie(
      core::Session::Open(OptionsFor(baselines::SystemKind::kKeystoneMl, "")),
      "open reference session");
  PassResult reference =
      RunPass(app, reference_session.get(), -1, false, 0, nullptr);
  reference_session.reset();
  if (reference.failed > 0) {
    Die("reference recompute failed");
  }
  const int64_t checked = CheckPasses(
      options.workload.c_str(), reference.fingerprints, lap_fingerprints);
  JsonWriter check;
  check.BeginObject()
      .KV("type", "check")
      .KV("checked", checked)
      .KV("failed", failed)
      .EndObject();
  EmitRecord(check);

  if (options.trace) {
    JsonWriter keystone;
    keystone.BeginObject()
        .KV("type", "baseline")
        .KV("system", baselines::SystemKindToString(
                          baselines::SystemKind::kKeystoneMl))
        .KV("cum_us", reference.cum_us)
        .EndObject();
    EmitRecord(keystone);
    if (app.paper_baseline != baselines::SystemKind::kKeystoneMl) {
      const std::string workspace = JoinPath(options.workdir, "ws-baseline");
      auto session = ValueOrDie(
          core::Session::Open(OptionsFor(app.paper_baseline, workspace)),
          "open baseline session");
      PassResult baseline = RunPass(app, session.get(), -1, false, 0, nullptr);
      session.reset();
      CheckOk(RemoveDirRecursively(workspace), "remove workspace");
      CheckPasses(baselines::SystemKindToString(app.paper_baseline),
                  reference.fingerprints, {baseline.fingerprints});
      JsonWriter record;
      record.BeginObject()
          .KV("type", "baseline")
          .KV("system", baselines::SystemKindToString(app.paper_baseline))
          .KV("cum_us", baseline.cum_us)
          .EndObject();
      EmitRecord(record);
    }

    auto probe_session = ValueOrDie(
        core::Session::Open(OptionsFor(baselines::SystemKind::kKeystoneMl, "")),
        "open probe session");
    core::IterationResult probe = ValueOrDie(
        probe_session->RunIteration(app.probe_workflow, "probe payloads",
                                    core::ChangeCategory::kInitial),
        "probe iteration");
    std::vector<std::pair<std::string, dataflow::DataCollection>> payloads;
    for (const std::string& name : app.probe_nodes) {
      payloads.emplace_back(name, probe.report.outputs.at(name));
    }
    RunThroughputProbes(payloads, JoinPath(options.workdir, "probe"), trace);
  }
}

}  // namespace perfbench
}  // namespace helix
