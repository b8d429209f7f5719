// helix_perf: the iteration-latency benchmark program. Usually run through
// perfbench/run.py, which builds it and aggregates its raw records:
//
//   helix_perf --workload=census_edits|ie_edits|team_tcp --seed=N
//              --seconds=S --trace=0|1 --workdir=DIR [--trace-out=FILE]
//
// Exits 1 on any output-fingerprint mismatch or setup failure.
#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "common/file_util.h"
#include "common/hash.h"
#include "common/logging.h"
#include "perf.h"

namespace helix {
namespace perfbench {

int64_t NowMicros() { return SystemClock::Default()->NowMicros(); }

bool AnotherLap(const RunOptions& options, int64_t start_us, int laps_done) {
  if (laps_done < (options.trace ? 2 : 1)) {
    return true;
  }
  const int64_t now = NowMicros();
  const int64_t average = (now - start_us) / laps_done;
  return now + average <= start_us + options.seconds * 1000000;
}

void Die(const std::string& what) {
  std::fflush(stdout);
  std::fprintf(stderr, "helix_perf: FAILED %s\n", what.c_str());
  std::exit(1);
}

void CheckOk(const Status& status, const std::string& what) {
  if (!status.ok()) {
    Die(what + ": " + status.ToString());
  }
}

double PeakRssMb() {
  struct rusage usage;
  std::memset(&usage, 0, sizeof(usage));
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) * 1024.0 / 1e6;  // KiB
}

void EmitRecord(const JsonWriter& record) {
  std::printf("raw,%s\n", record.str().c_str());
}

void EmitDocument(const std::string& type, int lap, const std::string& key,
                  const std::string& json_document) {
  std::printf("raw,{\"type\":%s,\"lap\":%d,%s:%s}\n", JsonQuote(type).c_str(),
              lap, JsonQuote(key).c_str(), json_document.c_str());
}

uint64_t CombineOutputs(
    const std::map<std::string, dataflow::DataCollection>& outputs) {
  Hasher hasher;
  for (const auto& [name, collection] : outputs) {
    hasher.Add(name).AddU64(collection.Fingerprint());
  }
  return hasher.Digest();
}

uint64_t CombineOutputs(const std::vector<net::RemoteOutput>& outputs) {
  Hasher hasher;
  for (const net::RemoteOutput& output : outputs) {
    hasher.Add(output.name).AddU64(output.fingerprint);
  }
  return hasher.Digest();
}

ScopedSpan::ScopedSpan(obs::TraceCollector* trace, std::string name,
                       uint64_t pid, uint64_t tid)
    : trace_(trace) {
  if (trace_ != nullptr) {
    span_.name = std::move(name);
    span_.category = "bench";
    span_.pid = pid;
    span_.tid = tid;
    span_.start_micros = NowMicros();
  }
}

ScopedSpan::~ScopedSpan() {
  if (trace_ != nullptr) {
    span_.duration_micros = NowMicros() - span_.start_micros;
    trace_->Record(std::move(span_));
  }
}

namespace {

// "--name=value" -> value, or nullptr when `arg` is another flag.
const char* FlagValue(const char* arg, const char* name) {
  size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) == 0 && arg[len] == '=') {
    return arg + len + 1;
  }
  return nullptr;
}

int Main(int argc, char** argv) {
  RunOptions options;
  for (int i = 1; i < argc; ++i) {
    const char* v = nullptr;
    if ((v = FlagValue(argv[i], "--workload")) != nullptr) {
      options.workload = v;
    } else if ((v = FlagValue(argv[i], "--seed")) != nullptr) {
      options.seed = std::strtoull(v, nullptr, 10);
    } else if ((v = FlagValue(argv[i], "--seconds")) != nullptr) {
      options.seconds = std::atoll(v);
    } else if ((v = FlagValue(argv[i], "--trace")) != nullptr) {
      options.trace = std::atoi(v) != 0;
    } else if ((v = FlagValue(argv[i], "--workdir")) != nullptr) {
      options.workdir = v;
    } else if ((v = FlagValue(argv[i], "--trace-out")) != nullptr) {
      options.trace_out = v;
    } else {
      Die(std::string("unknown flag ") + argv[i]);
    }
  }
  if (options.workdir.empty() || options.seconds < 1) {
    Die("--workdir and --seconds>=1 are required");
  }
  // Per-materialization INFO lines would interleave with the records.
  SetLogLevel(LogLevel::kWarning);
  CheckOk(MakeDirs(options.workdir), "create workdir");

  obs::TraceCollector collector(1 << 20);
  obs::TraceCollector* trace = options.trace ? &collector : nullptr;
  if (options.workload == "census_edits" || options.workload == "ie_edits") {
    RunSingleAnalyst(options, trace);
  } else if (options.workload == "team_tcp") {
    RunTeam(options, trace);
  } else {
    Die("unknown workload '" + options.workload + "'");
  }
  if (trace != nullptr && !options.trace_out.empty()) {
    CheckOk(WriteStringToFile(options.trace_out, collector.ToChromeJson()),
            "write trace");
  }
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace perfbench
}  // namespace helix

int main(int argc, char** argv) { return helix::perfbench::Main(argc, argv); }
