// Shared pieces of the iteration-latency benchmark program (helix_perf).
//
// helix_perf runs one workload for a wall-clock budget and reports what
// it measured as newline-delimited JSON records on stdout, each line
// prefixed "raw,". perfbench/analyze.py turns those records into the
// end-to-end and per-layer metrics. helix_perf keeps everything that
// needs Helix's in-memory objects: the timed calls, the
// output-fingerprint checks, the per-iteration quantities that need the
// DAG, and the layer throughput probes. Progress text goes to stderr.
#ifndef HELIX_PERFBENCH_PERF_H_
#define HELIX_PERFBENCH_PERF_H_

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/json.h"
#include "common/result.h"
#include "dataflow/data_collection.h"
#include "net/wire.h"
#include "obs/trace.h"

namespace helix {
namespace perfbench {

struct RunOptions {
  std::string workload;
  /// Data seed: every generated input derives from it.
  uint64_t seed = 1;
  /// Wall-clock budget of the measured laps.
  int64_t seconds = 10;
  /// Traced run: per-layer split, probes and paper readout.
  bool trace = false;
  /// Scratch directory for generated data and workspaces.
  std::string workdir;
  /// Where a traced run writes its Chrome trace.
  std::string trace_out;
};

/// Steady-clock microseconds on helix::SystemClock's epoch, so the
/// benchmark's timestamps compare directly with executor span times.
int64_t NowMicros();

/// Lap pacing: true while another lap of the average length so far still
/// ends within the budget that began at `start_us`. The first lap always
/// runs, and a traced run makes at least two (one traced, one untraced).
bool AnotherLap(const RunOptions& options, int64_t start_us, int laps_done);

/// Prints `what` to stderr and exits with status 1.
[[noreturn]] void Die(const std::string& what);
void CheckOk(const Status& status, const std::string& what);

template <typename T>
T ValueOrDie(Result<T> result, const std::string& what) {
  if (!result.ok()) {
    Die(what + ": " + result.status().ToString());
  }
  return std::move(result).value();
}

/// Peak resident set size of this process so far, in MB (10^6 bytes).
double PeakRssMb();

/// Writes one raw record line ("raw," + the writer's JSON object).
void EmitRecord(const JsonWriter& record);
/// Writes one raw record carrying an already-encoded JSON document under
/// `key` (a metrics snapshot or a Chrome trace fetched from a server).
void EmitDocument(const std::string& type, int lap, const std::string& key,
                  const std::string& json_document);

/// Digest over (output name, fingerprint) pairs in name order: the
/// same value for an in-process report and a remote reply.
uint64_t CombineOutputs(
    const std::map<std::string, dataflow::DataCollection>& outputs);
uint64_t CombineOutputs(const std::vector<net::RemoteOutput>& outputs);

/// Records one span around a benchmark call into a layer; a no-op when
/// `trace` is null (timed runs).
class ScopedSpan {
 public:
  ScopedSpan(obs::TraceCollector* trace, std::string name, uint64_t pid,
             uint64_t tid);
  ~ScopedSpan();

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  obs::TraceCollector* trace_;
  obs::TraceSpan span_;
};

/// Times serialization, store and frame round trips over `payloads`
/// (a workload's own largest intermediates) and emits one "probe" record
/// per measured throughput, in MB/s. `dir` holds a scratch disk store.
void RunThroughputProbes(
    const std::vector<std::pair<std::string, dataflow::DataCollection>>&
        payloads,
    const std::string& dir, obs::TraceCollector* trace);

/// census_edits / ie_edits: one analyst, Session::RunIteration.
void RunSingleAnalyst(const RunOptions& options, obs::TraceCollector* trace);
/// team_tcp: three analysts against an in-process HelixServer.
void RunTeam(const RunOptions& options, obs::TraceCollector* trace);

}  // namespace perfbench
}  // namespace helix

#endif  // HELIX_PERFBENCH_PERF_H_
