// team_tcp: three analysts drive the generated `localized` trace against
// an in-process net::HelixServer over loopback TCP. Users alternate
// census and IE (users 0 and 2 are census analysts sharing one data set,
// user 1 runs the IE script alongside). Each analyst has one blocking
// HelixClient connection and its own thread, and after every
// RunIteration fetches each returned output. One disk store is shared by
// all sessions; the service pool is no wider than the machine.
//
// The edit sequence is fixed (kScriptSeed) so every run replays the same
// mix of edit classes; the data seed only changes the generated inputs.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <thread>

#include "common/file_util.h"
#include "net/app_specs.h"
#include "net/client.h"
#include "net/server.h"
#include "perf.h"
#include "workload/generator.h"
#include "workload/replay.h"

namespace helix {
namespace perfbench {
namespace {

constexpr int kUsers = 3;
constexpr int kIterationsPerUser = 10;
constexpr uint64_t kScriptSeed = 11;
// Sized so the IE analyst's ten calls take about as long per lap as a
// census analyst's (run.py prints each analyst's summed call time).
constexpr int64_t kTeamRows = 32000;
constexpr int64_t kTeamDocs = 200;

struct TeamIteration {
  uint32_t user = 0;
  uint32_t index = 0;
  std::string app;
  const char* category = "";
  uint64_t session_id = 0;
  bool ok = false;
  uint64_t fingerprint = 0;
  int64_t call_us = 0;   // RunIteration + every fetch
  int64_t run_us = 0;    // RunIteration round trip alone
  int64_t total_us = 0;  // server-side ExecutionReport::total_micros
  int64_t fetch_us = 0;
  int64_t fetch_bytes = 0;
  int fetches = 0;
  int fetch_misses = 0;
  int fetch_failed = 0;
  int fetch_mismatches = 0;
  int64_t computed = 0;
  int64_t loaded = 0;
  int64_t shared = 0;
  int64_t pruned = 0;
};

struct Analyst {
  std::unique_ptr<net::HelixClient> client;
  uint64_t session_id = 0;
  std::vector<const workload::TraceEvent*> events;
  std::vector<TeamIteration> done;
  /// Last fetched payload per output name (the probes' team payloads).
  std::map<std::string, dataflow::DataCollection> payloads;
};

void RunAnalyst(Analyst* analyst, obs::TraceCollector* trace) {
  for (size_t i = 0; i < analyst->events.size(); ++i) {
    const workload::TraceEvent& event = *analyst->events[i];
    TeamIteration it;
    it.user = event.user;
    it.index = static_cast<uint32_t>(i);
    it.app = event.spec.app;
    it.category = core::ChangeCategoryToString(event.category);
    it.session_id = analyst->session_id;
    const uint64_t pid = 1000 + event.user;
    const int64_t start = NowMicros();
    Result<net::RemoteIterationResult> result = [&]() {
      ScopedSpan span(trace, "net.HelixClient::RunIteration", pid, 1);
      return analyst->client->RunIteration(analyst->session_id, event.spec,
                                           event.description, event.category);
    }();
    it.run_us = NowMicros() - start;
    if (!result.ok()) {
      std::fprintf(stderr, "user %u iteration %zu failed: %s\n", event.user,
                   i, result.status().ToString().c_str());
      it.call_us = it.run_us;
      analyst->done.push_back(it);
      continue;
    }
    it.ok = true;
    it.fingerprint = CombineOutputs(result->outputs);
    it.total_us = result->total_micros;
    it.computed = result->num_computed;
    it.loaded = result->num_loaded;
    it.shared = result->num_shared;
    it.pruned = result->num_pruned;
    for (const net::RemoteOutput& output : result->outputs) {
      const int64_t fetch_start = NowMicros();
      Result<dataflow::DataCollection> fetched = [&]() {
        ScopedSpan span(trace, "net.HelixClient::FetchOutput", pid, 1);
        return analyst->client->FetchOutput(output.signature);
      }();
      const int64_t fetch_us = NowMicros() - fetch_start;
      ++it.fetches;
      if (fetched.ok()) {
        it.fetch_us += fetch_us;
        it.fetch_bytes += fetched->SizeBytes();
        if (fetched->Fingerprint() != output.fingerprint) {
          ++it.fetch_mismatches;
        }
        analyst->payloads[output.name] = std::move(fetched).value();
      } else if (fetched.status().IsNotFound()) {
        // Never materialized (or evicted): a miss, not a failure.
        ++it.fetch_misses;
      } else {
        std::fprintf(stderr, "fetch of %s failed: %s\n", output.name.c_str(),
                     fetched.status().ToString().c_str());
        ++it.fetch_failed;
      }
    }
    it.call_us = NowMicros() - start;
    analyst->done.push_back(it);
  }
}

void EmitIteration(const TeamIteration& it, int lap, bool traced) {
  JsonWriter record;
  record.BeginObject()
      .KV("type", "iter")
      .KV("lap", lap)
      .KV("traced", traced)
      .KV("user", static_cast<int64_t>(it.user))
      .KV("index", static_cast<int64_t>(it.index))
      .KV("app", it.app)
      .KV("category", it.category)
      .KV("pid", it.session_id)
      .KV("ok", it.ok)
      .KV("call_us", it.call_us)
      .KV("run_us", it.run_us)
      .KV("total_us", it.total_us)
      .KV("fetch_us", it.fetch_us)
      .KV("fetch_bytes", it.fetch_bytes)
      .KV("fetches", it.fetches)
      .KV("fetch_misses", it.fetch_misses)
      .KV("fetch_failed", it.fetch_failed)
      .KV("computed", it.computed)
      .KV("loaded", it.loaded)
      .KV("shared", it.shared)
      .KV("pruned", it.pruned)
      .EndObject();
  EmitRecord(record);
}

}  // namespace

void RunTeam(const RunOptions& options, obs::TraceCollector* trace) {
  workload::ScenarioConfig scenario;
  scenario.scenario = "localized";
  scenario.seed = kScriptSeed;
  scenario.users = kUsers;
  scenario.iterations = kIterationsPerUser;
  scenario.rows = kTeamRows;
  scenario.docs = kTeamDocs;
  const workload::Trace script =
      ValueOrDie(workload::GenerateTrace(scenario), "generate trace");
  // Inputs follow the data seed; the edit sequence does not.
  workload::Trace data_trace = script;
  data_trace.header.seed = options.seed;
  const std::string data_dir = JoinPath(options.workdir, "data");
  const workload::Trace run_trace = workload::RebaseTracePaths(
      script, workload::kWorkspacePlaceholder, data_dir);

  const int threads = std::max(
      1, std::min<int>(kUsers,
                       static_cast<int>(std::thread::hardware_concurrency())));
  JsonWriter header;
  header.BeginObject()
      .KV("type", "run")
      .KV("workload", options.workload)
      .KV("users", kUsers)
      .KV("service_threads", threads)
      .EndObject();
  EmitRecord(header);

  // fingerprints[user][index] of every successful measured iteration.
  std::vector<std::vector<std::vector<uint64_t>>> lap_fingerprints;
  std::map<std::string, dataflow::DataCollection> probe_payloads;
  int mismatches = 0;
  int failed = 0;
  const int64_t laps_start = NowMicros();
  for (int lap = 0; AnotherLap(options, laps_start, lap); ++lap) {
    const bool traced = options.trace && lap % 2 == 0;
    obs::TraceCollector* lap_trace = traced ? trace : nullptr;
    const std::string workspace =
        JoinPath(options.workdir, "ws-" + std::to_string(lap));

    const int64_t setup_start = NowMicros();
    std::unique_ptr<net::HelixServer> server;
    std::vector<Analyst> analysts(kUsers);
    {
      ScopedSpan span(lap_trace, "setup", 1000, 0);
      CheckOk(workload::MaterializeTraceData(data_trace, data_dir),
              "datagen");
      net::ServerOptions server_options;
      server_options.service.workspace_dir = workspace;
      server_options.service.num_threads = threads;
      server = ValueOrDie(
          net::HelixServer::Start(server_options, net::MakeStandardResolver()),
          "start server");
      for (int u = 0; u < kUsers; ++u) {
        Analyst& analyst = analysts[static_cast<size_t>(u)];
        analyst.client = ValueOrDie(
            net::HelixClient::Connect("127.0.0.1", server->port()),
            "connect");
        analyst.session_id =
            ValueOrDie(analyst.client->OpenSession("analyst-" +
                                                   std::to_string(u)),
                       "open session");
      }
    }
    const int64_t setup_us = NowMicros() - setup_start;
    for (const workload::TraceEvent& event : run_trace.events) {
      analysts[event.user].events.push_back(&event);
    }

    const int64_t lap_start = NowMicros();
    std::vector<std::thread> workers;
    for (Analyst& analyst : analysts) {
      workers.emplace_back(RunAnalyst, &analyst, lap_trace);
    }
    for (std::thread& worker : workers) {
      worker.join();
    }
    const int64_t wall_us = NowMicros() - lap_start;

    std::vector<std::vector<uint64_t>> fingerprints(kUsers);
    int lap_failed = 0;
    int64_t cum_us = 0;
    int64_t attempted = 0;
    for (size_t u = 0; u < analysts.size(); ++u) {
      for (const TeamIteration& it : analysts[u].done) {
        EmitIteration(it, lap, traced);
        cum_us += it.call_us;
        attempted += 1 + it.fetches;
        lap_failed += (it.ok ? 0 : 1) + it.fetch_failed;
        mismatches += it.fetch_mismatches;
        fingerprints[it.user].push_back(it.ok ? it.fingerprint : 0);
      }
      if (traced) {
        for (auto& [name, data] : analysts[u].payloads) {
          probe_payloads[name + "@user" + std::to_string(u)] = data;
        }
      }
    }
    failed += lap_failed;
    lap_fingerprints.push_back(std::move(fingerprints));

    JsonWriter record;
    record.BeginObject()
        .KV("type", "lap")
        .KV("lap", lap)
        .KV("traced", traced)
        .KV("setup_us", setup_us)
        .KV("cum_us", cum_us)
        .KV("wall_us", wall_us)
        .KV("iterations", static_cast<int64_t>(run_trace.events.size()))
        .KV("attempted", attempted)
        .KV("failed", lap_failed)
        .KV("store_bytes", server->service()->store()->TotalBytes());
    if (traced) {
      service::SessionCounters totals =
          ValueOrDie(analysts[0].client->GetCounters(0), "get counters");
      record.KV("cross_session_loads", totals.cross_session_loads);
    }
    record.EndObject();
    EmitRecord(record);
    if (traced) {
      EmitDocument("metrics", lap, "metrics",
                   ValueOrDie(analysts[0].client->GetMetricsJson(),
                              "get metrics"));
      EmitDocument("server_trace", lap, "trace",
                   ValueOrDie(analysts[0].client->GetTraceJson(),
                              "get trace"));
    }
    analysts.clear();
    server->Stop();
    server.reset();
    CheckOk(RemoveDirRecursively(workspace), "remove workspace");
  }
  JsonWriter rss;
  rss.BeginObject().KV("type", "rss").KV("peak_rss_mb", PeakRssMb())
      .EndObject();
  EmitRecord(rss);

  // Reference: the same trace replayed sequentially in process.
  workload::ReplayOptions replay;
  replay.sequential = true;
  replay.data_dir = data_dir;
  workload::ReplayResult reference =
      ValueOrDie(workload::ReplayTrace(script, replay), "reference replay");
  int checked = 0;
  for (const workload::IterationRecord& expected : reference.records) {
    for (const auto& lap : lap_fingerprints) {
      uint64_t got = lap[expected.user][expected.index];
      if (got == 0) {
        continue;  // failed iteration, already counted
      }
      ++checked;
      if (got != expected.fingerprint) {
        std::fprintf(stderr, "user %u iteration %u: fingerprint mismatch\n",
                     expected.user, expected.index);
        ++mismatches;
      }
    }
  }
  if (mismatches > 0) {
    Die("team_tcp: outputs differ from a sequential in-process replay");
  }
  JsonWriter check;
  check.BeginObject()
      .KV("type", "check")
      .KV("checked", checked)
      .KV("failed", failed)
      .EndObject();
  EmitRecord(check);

  if (trace != nullptr) {
    std::vector<std::pair<std::string, dataflow::DataCollection>> payloads(
        probe_payloads.begin(), probe_payloads.end());
    RunThroughputProbes(payloads, JoinPath(options.workdir, "probe"), trace);
  }
}

}  // namespace perfbench
}  // namespace helix
