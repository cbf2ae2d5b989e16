// The traced replay: a workload's requests one at a time through the
// library's public per-layer calls, with a span around every call.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "bench.h"

namespace perfbench {

// One timed call. `parent` indexes the enclosing span (-1: none); spans of
// one request share `request`.
struct Span {
  const char* name = "";
  double start_s = 0.0;
  double end_s = 0.0;
  int parent = -1;
  std::uint64_t request = 0;
};

// Keeps spans in memory; write_chrome_trace() dumps them at the end.
class SpanRecorder {
 public:
  // Spans begun from now on belong to `request`.
  void set_request(std::uint64_t request) { request_ = request; }
  // Opens a span whose parent is the innermost open one.
  int begin(const char* name);
  void end(int id);
  const std::vector<Span>& spans() const { return spans_; }
  // Duration minus the part covered by direct children, per span.
  std::vector<double> self_times() const;
  // Chrome trace-event JSON ("X" complete events, microseconds).
  void write_chrome_trace(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::vector<int> open_;
  std::uint64_t request_ = 0;
};

// Opens a span for the lifetime of the object.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder& rec, const char* name)
      : rec_(rec), id_(rec.begin(name)) {}
  ~ScopedSpan() { rec_.end(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder& rec_;
  int id_;
};

// Per-layer totals the replay accumulates from span self times.
struct ReplayResult {
  std::vector<std::vector<int>> tokens;  // submit order
  std::size_t span_count = 0;

  std::size_t prompt_tokens = 0;   // prompt rows through the stack
  std::size_t decode_tokens = 0;   // single-row decode steps
  std::size_t emitted_tokens = 0;  // logits rows taken
  double prefill_dense_s = 0.0;    // project (excl. append) + finish_layer
  double decode_dense_s = 0.0;
  double prefill_attend_s = 0.0;
  double decode_attend_s = 0.0;
  double append_s = 0.0;           // KV quantize + append, all rows
  double prefill_total_s = 0.0;    // whole prefill chunks
  double logits_s = 0.0;

  // One entry per request: the post-prefill handoff.
  std::vector<double> serialize_s;
  std::vector<double> deserialize_s;
  std::vector<double> transfer_s;  // netsim-modeled at the workload NIC rate
  std::vector<std::size_t> wire_bytes;
  std::vector<std::size_t> wire_tokens;
};

// Replays every request (prefill in the engine's chunk schedule, handoff
// through the KV wire, greedy decode) and writes the spans to trace_path.
ReplayResult replay_requests(const WorkloadSpec& spec,
                             const std::shared_ptr<const hack::TinyModelWeights>& w,
                             const std::vector<ServingRequest>& requests,
                             const std::string& trace_path);

// The solo path of one request, untraced: TinyTransformer::generate() for
// whole-prompt prefill, the same chunk schedule as the engine otherwise.
std::vector<int> solo_tokens(const WorkloadSpec& spec,
                             const std::shared_ptr<const hack::TinyModelWeights>& w,
                             const ServingRequest& request);

// Per-layer metrics: model/quant/attention/kv_wire/netsim from the replay,
// serving/fleet/tier from the untraced episode's own reports.
MetricMap per_layer_metrics(const WorkloadSpec& spec, const Episode& ep,
                            const ReplayResult& replay);

}  // namespace perfbench
