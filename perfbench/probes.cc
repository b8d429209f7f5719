// Layer throughput probes (traced runs only): envelope serialization per
// payload kind, IntermediateStore Put/Get on a disk store, and wire frame
// encode/decode, each over the workload's own largest intermediates.
// Every probe repeats its round until it has run for kProbeMicros and
// reports the median round's MB/s (1 MB = 10^6 bytes).
#include <algorithm>
#include <functional>

#include "common/file_util.h"
#include "common/spans.h"
#include "net/frame.h"
#include "perf.h"
#include "storage/store.h"

namespace helix {
namespace perfbench {
namespace {

constexpr int64_t kProbeMicros = 150000;
constexpr int kMinRounds = 5;

// Median MB/s of repeated `round`s, each moving `bytes` bytes.
double MedianMbPerSecond(int64_t bytes, const std::function<void()>& round) {
  std::vector<double> rates;
  const int64_t start = NowMicros();
  while (static_cast<int>(rates.size()) < kMinRounds ||
         NowMicros() - start < kProbeMicros) {
    int64_t t0 = NowMicros();
    round();
    int64_t us = std::max<int64_t>(1, NowMicros() - t0);
    rates.push_back(static_cast<double>(bytes) / static_cast<double>(us));
  }
  std::nth_element(rates.begin(), rates.begin() + rates.size() / 2,
                   rates.end());
  return rates[rates.size() / 2];
}

void EmitProbe(const std::string& name, double mb_per_s, int64_t bytes) {
  JsonWriter record;
  record.BeginObject()
      .KV("type", "probe")
      .KV("name", name)
      .KV("mb_s", mb_per_s)
      .KV("bytes", bytes)
      .EndObject();
  EmitRecord(record);
}

}  // namespace

void RunThroughputProbes(
    const std::vector<std::pair<std::string, dataflow::DataCollection>>&
        payloads,
    const std::string& dir, obs::TraceCollector* trace) {
  constexpr uint64_t kPid = 0;
  constexpr uint64_t kTid = 2000;
  // dataflow: per payload kind, over every payload of that kind.
  for (dataflow::PayloadKind kind :
       {dataflow::PayloadKind::kTable, dataflow::PayloadKind::kExamples,
        dataflow::PayloadKind::kText}) {
    std::vector<const dataflow::DataCollection*> group;
    std::vector<std::string> encoded;
    int64_t bytes = 0;
    for (const auto& [name, data] : payloads) {
      if (data.kind() == kind) {
        group.push_back(&data);
        encoded.push_back(data.SerializeToString());
        bytes += static_cast<int64_t>(encoded.back().size());
      }
    }
    if (group.empty()) {
      continue;
    }
    const std::string prefix =
        std::string("dataflow.") + dataflow::PayloadKindToString(kind);
    ScopedSpan span(trace, prefix + " probes", kPid, kTid);
    EmitProbe(prefix + ".serialize_mb_s",
              MedianMbPerSecond(bytes,
                                [&]() {
                                  for (const auto* data : group) {
                                    std::string s = data->SerializeToString();
                                    if (s.empty()) {
                                      Die("empty serialization");
                                    }
                                  }
                                }),
              bytes);
    EmitProbe(prefix + ".serialize_spans_mb_s",
              MedianMbPerSecond(bytes,
                                [&]() {
                                  for (const auto* data : group) {
                                    SpanWriter spans;
                                    data->SerializeToSpans(&spans);
                                    if (spans.TotalBytes() == 0) {
                                      Die("empty serialization");
                                    }
                                  }
                                }),
              bytes);
    EmitProbe(prefix + ".deserialize_mb_s",
              MedianMbPerSecond(bytes,
                                [&]() {
                                  for (const std::string& s : encoded) {
                                    CheckOk(dataflow::DataCollection::
                                                DeserializeFromString(s)
                                                    .status(),
                                            "deserialize probe");
                                  }
                                }),
              bytes);
  }

  int64_t total_bytes = 0;
  std::vector<std::string> frames_in;
  for (const auto& [name, data] : payloads) {
    frames_in.push_back(data.SerializeToString());
    total_bytes += static_cast<int64_t>(frames_in.back().size());
  }

  // storage: Put then Get every payload on a fresh disk store; each round
  // uses new signatures so Put never hits AlreadyExists.
  {
    ScopedSpan span(trace, "storage probes", kPid, kTid);
    storage::StoreOptions store_options;
    auto store = ValueOrDie(storage::IntermediateStore::Open(
                                JoinPath(dir, "store"), store_options),
                            "open probe store");
    uint64_t next_signature = 1;
    std::vector<uint64_t> written;
    EmitProbe("storage.put_mb_s",
              MedianMbPerSecond(total_bytes,
                                [&]() {
                                  for (const auto& [name, data] : payloads) {
                                    CheckOk(store->Put(next_signature, name,
                                                       data, 0),
                                            "probe put");
                                    written.push_back(next_signature++);
                                  }
                                }),
              total_bytes);
    size_t next_read = 0;
    EmitProbe("storage.get_mb_s",
              MedianMbPerSecond(total_bytes,
                                [&]() {
                                  for (size_t i = 0; i < payloads.size();
                                       ++i) {
                                    uint64_t sig =
                                        written[next_read++ % written.size()];
                                    CheckOk(store->Get(sig).status(),
                                            "probe get");
                                  }
                                }),
              total_bytes);
    store.reset();
    CheckOk(RemoveDirRecursively(dir), "remove probe store");
  }

  // net: frame encode/decode with each serialized payload as the body.
  {
    ScopedSpan span(trace, "net frame probes", kPid, kTid);
    std::vector<net::Frame> frames;
    std::vector<std::string> encoded;
    for (std::string& body : frames_in) {
      net::Frame frame;
      frame.opcode = static_cast<uint8_t>(net::Opcode::kReply);
      frame.request_id = frames.size() + 1;
      frame.payload = std::move(body);
      encoded.push_back(net::EncodeFrame(frame));
      frames.push_back(std::move(frame));
    }
    EmitProbe("net.frame_encode_mb_s",
              MedianMbPerSecond(total_bytes,
                                [&]() {
                                  for (const net::Frame& frame : frames) {
                                    if (net::EncodeFrame(frame).empty()) {
                                      Die("empty frame");
                                    }
                                  }
                                }),
              total_bytes);
    EmitProbe("net.frame_decode_mb_s",
              MedianMbPerSecond(total_bytes,
                                [&]() {
                                  for (const std::string& bytes : encoded) {
                                    CheckOk(net::DecodeFrame(bytes).status(),
                                            "frame decode probe");
                                  }
                                }),
              total_bytes);
  }
}

}  // namespace perfbench
}  // namespace helix
