// The traced replay and the per-layer report.
#include "replay.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string_view>

#include "kvcache/kv_wire.h"
#include "model/tiny_transformer.h"
#include "netsim/link.h"
#include "netsim/transfer.h"
#include "serving/scheduler.h"

namespace perfbench {

int SpanRecorder::begin(const char* name) {
  Span s;
  s.name = name;
  s.parent = open_.empty() ? -1 : open_.back();
  s.request = request_;
  s.start_s = now_s();
  spans_.push_back(s);
  open_.push_back(static_cast<int>(spans_.size() - 1));
  return open_.back();
}

void SpanRecorder::end(int id) {
  spans_[static_cast<std::size_t>(id)].end_s = now_s();
  // Spans close innermost first; RAII scopes guarantee it.
  open_.pop_back();
}

std::vector<double> SpanRecorder::self_times() const {
  std::vector<double> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    self[i] = spans_[i].end_s - spans_[i].start_s;
  }
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      self[static_cast<std::size_t>(s.parent)] -= s.end_s - s.start_s;
    }
  }
  return self;
}

void SpanRecorder::write_chrome_trace(const std::string& path) const {
  const std::filesystem::path p(path);
  if (p.has_parent_path()) std::filesystem::create_directories(p.parent_path());
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write trace " + path);
  const double origin = spans_.empty() ? 0.0 : spans_.front().start_s;
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  char buf[256];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(buf, sizeof(buf),
                  "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%llu,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                  "\"parent\":%d,\"request\":%llu}}%s\n",
                  s.name, static_cast<unsigned long long>(s.request),
                  (s.start_s - origin) * 1e6, (s.end_s - s.start_s) * 1e6, i,
                  s.parent, static_cast<unsigned long long>(s.request),
                  i + 1 < spans_.size() ? "," : "");
    out << buf;
  }
  out << "]}\n";
  if (!out) throw std::runtime_error("short write to trace " + path);
}

namespace {

// Delegates to the workload's HACK layer backend, timing append and attend
// from outside. hack_state() exposes the wrapped state, so the wire
// serializer sees the real backend.
class TimedLayerBackend : public hack::LayerBackend {
 public:
  TimedLayerBackend(std::unique_ptr<hack::LayerBackend> inner,
                    SpanRecorder& rec)
      : inner_(std::move(inner)), rec_(rec) {}
  void append(const hack::Matrix& k_all, const hack::Matrix& v_all) override {
    ScopedSpan span(rec_, "append");
    inner_->append(k_all, v_all);
  }
  hack::Matrix attend(const hack::Matrix& q_all,
                      std::size_t key_offset) override {
    ScopedSpan span(rec_, "attend");
    return inner_->attend(q_all, key_offset);
  }
  std::size_t stored_bytes() const override { return inner_->stored_bytes(); }
  hack::HackLayerKvState* hack_state() override {
    return inner_->hack_state();
  }

 private:
  std::unique_ptr<hack::LayerBackend> inner_;
  SpanRecorder& rec_;
};

hack::LayerBackendFactory timed_factory(const WorkloadSpec& spec,
                                        SpanRecorder& rec) {
  return [inner = make_factory(spec), &rec](std::size_t d_head,
                                            std::size_t kv_heads,
                                            std::size_t query_heads) {
    return std::make_unique<TimedLayerBackend>(
        inner(d_head, kv_heads, query_heads), rec);
  };
}

// Runs `tokens` (a prompt chunk or one decode row) through every layer of
// `session` with the split per-layer calls and commits it. Returns the
// final hidden rows.
hack::Matrix run_rows(hack::TinyModelSession& session,
                      const std::vector<int>& tokens, SpanRecorder& rec) {
  const std::size_t pos = session.position();
  hack::Matrix x;
  {
    ScopedSpan span(rec, "embed");
    x = session.weights().embed(tokens);
  }
  for (std::size_t layer = 0; layer < session.layers(); ++layer) {
    hack::Matrix q;
    {
      ScopedSpan span(rec, "project_and_append");
      q = session.project_and_append(layer, x, pos);
    }
    const hack::Matrix attn = session.backend(layer).attend(q, pos);
    ScopedSpan span(rec, "finish_layer");
    x = session.finish_layer(layer, std::move(x), attn);
  }
  session.advance(tokens.size());
  return x;
}

int next_token(const hack::TinyModelSession& session, const hack::Matrix& x,
               SpanRecorder& rec) {
  ScopedSpan span(rec, "logits");
  return hack::argmax_logits(session.logits_for_row(x, x.rows() - 1));
}

// One request through the replay: chunked prefill, KV handoff over the
// wire into a fresh session, greedy decode. Appends its handoff figures to
// `out` and returns the generated tokens.
std::vector<int> replay_one(const WorkloadSpec& spec,
                            const std::shared_ptr<const hack::TinyModelWeights>& w,
                            const ServingRequest& req, SpanRecorder& rec,
                            ReplayResult& out) {
  rec.set_request(req.id);
  ScopedSpan whole(rec, "request");
  const hack::LayerBackendFactory factory = timed_factory(spec, rec);
  auto session = std::make_unique<hack::TinyModelSession>(w, factory);
  hack::SchedulerConfig sc;
  sc.prefill_chunk_tokens =
      spec.chunk_tokens > 0 ? spec.chunk_tokens : req.prompt.size();
  const hack::Scheduler scheduler(sc);

  std::vector<int> generated;
  const std::size_t len = req.prompt.size();
  for (std::size_t begin = 0; begin < len;) {
    const std::size_t end = scheduler.chunk_end(begin, len);
    ScopedSpan chunk(rec, "prefill_chunk");
    const std::vector<int> rows(req.prompt.begin() + begin,
                                req.prompt.begin() + end);
    const hack::Matrix x = run_rows(*session, rows, rec);
    if (end == len) generated.push_back(next_token(*session, x, rec));
    begin = end;
  }
  out.prompt_tokens += len;

  // Handoff: serialize, modeled transfer, rehydrate into a fresh session.
  std::vector<std::uint8_t> blob;
  double t0 = now_s();
  {
    ScopedSpan span(rec, "serialize");
    blob = hack::serialize_session_kv(*session);
  }
  out.serialize_s.push_back(now_s() - t0);
  hack::Nic src(kNicGbps), dst(kNicGbps);
  hack::TransferResult tr;
  {
    // The span times the model's own cost; the modeled wire time is
    // tr.duration().
    ScopedSpan span(rec, "nccl_transfer");
    tr = hack::nccl_transfer(
        src, dst, 0.0, static_cast<double>(blob.size()),
        hack::kv_wire_transfer_chunks(
            blob.size(), hack::DisaggConfig{}.transfer_chunk_bytes));
  }
  out.transfer_s.push_back(tr.duration());
  out.wire_bytes.push_back(blob.size());
  out.wire_tokens.push_back(len);
  session = std::make_unique<hack::TinyModelSession>(w, factory);
  t0 = now_s();
  {
    ScopedSpan span(rec, "deserialize");
    hack::deserialize_session_kv(blob, *session);
  }
  out.deserialize_s.push_back(now_s() - t0);

  while (generated.size() < req.max_new_tokens) {
    ScopedSpan step(rec, "decode_step");
    const hack::Matrix x = run_rows(*session, {generated.back()}, rec);
    generated.push_back(next_token(*session, x, rec));
    ++out.decode_tokens;
  }
  return generated;
}

bool has_ancestor(const std::vector<Span>& spans, int id, const char* name) {
  for (int p = spans[static_cast<std::size_t>(id)].parent; p >= 0;
       p = spans[static_cast<std::size_t>(p)].parent) {
    if (std::string_view(spans[static_cast<std::size_t>(p)].name) == name) {
      return true;
    }
  }
  return false;
}

// Dense FLOPs of one token through every layer's projections: two per
// weight, so FP32 weight bytes per token are twice this.
double dense_flops_per_token(const TinyConfig& m) {
  const double d = static_cast<double>(m.d_model());
  const double q = static_cast<double>(m.heads * m.d_head);
  const double kv = static_cast<double>(m.kv_heads * m.d_head);
  const double ff = static_cast<double>(m.d_ff);
  return static_cast<double>(m.layers) * 2.0 *
         (d * (q + 2.0 * kv) + q * d + 3.0 * d * ff);
}

}  // namespace

ReplayResult replay_requests(
    const WorkloadSpec& spec,
    const std::shared_ptr<const hack::TinyModelWeights>& w,
    const std::vector<ServingRequest>& requests,
    const std::string& trace_path) {
  SpanRecorder rec;
  ReplayResult out;
  for (const ServingRequest& req : requests) {
    out.tokens.push_back(replay_one(spec, w, req, rec, out));
  }
  const std::vector<Span>& spans = rec.spans();
  const std::vector<double> self = rec.self_times();
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const std::string_view name = spans[i].name;
    const int id = static_cast<int>(i);
    const bool prefill = has_ancestor(spans, id, "prefill_chunk");
    if (name == "project_and_append" || name == "finish_layer") {
      (prefill ? out.prefill_dense_s : out.decode_dense_s) += self[i];
    } else if (name == "attend") {
      (prefill ? out.prefill_attend_s : out.decode_attend_s) +=
          spans[i].end_s - spans[i].start_s;
    } else if (name == "append") {
      out.append_s += spans[i].end_s - spans[i].start_s;
    } else if (name == "logits") {
      out.logits_s += spans[i].end_s - spans[i].start_s;
      ++out.emitted_tokens;
    } else if (name == "prefill_chunk") {
      out.prefill_total_s += spans[i].end_s - spans[i].start_s;
    }
  }
  out.span_count = spans.size();
  rec.write_chrome_trace(trace_path);
  return out;
}

std::vector<int> solo_tokens(
    const WorkloadSpec& spec,
    const std::shared_ptr<const hack::TinyModelWeights>& w,
    const ServingRequest& request) {
  if (spec.chunk_tokens == 0 || request.prompt.size() <= spec.chunk_tokens) {
    hack::TinyTransformer solo(w, make_factory(spec));
    return solo.generate(request.prompt, request.max_new_tokens, request.eos);
  }
  SpanRecorder rec;
  ReplayResult scratch;
  return replay_one(spec, w, request, rec, scratch);
}

MetricMap per_layer_metrics(const WorkloadSpec& spec, const Episode& ep,
                            const ReplayResult& r) {
  const auto ratio = [](double num, double den) {
    return den > 0.0 ? num / den : 0.0;
  };
  const TinyConfig& m = spec.model;
  const double prompt = static_cast<double>(r.prompt_tokens);
  const double decode = static_cast<double>(r.decode_tokens);
  const double flops = dense_flops_per_token(m);
  // FP32 bytes of every layer's projection weights, read once per token.
  const double weight_bytes = flops / 2.0 * 4.0;

  MetricMap out;
  out["model.prefill_dense_s_per_token"] = {ratio(r.prefill_dense_s, prompt),
                                            "s/token"};
  out["model.prefill_dense_gflop_per_s"] = {
      ratio(flops * prompt, r.prefill_dense_s) / 1e9, "GFLOP/s"};
  out["model.decode_dense_s_per_token"] = {ratio(r.decode_dense_s, decode),
                                           "s/token"};
  out["model.decode_weight_gb_per_s"] = {
      ratio(weight_bytes * decode, r.decode_dense_s) / 1e9, "GB/s"};
  out["model.logits_s_per_token"] = {
      ratio(r.logits_s, static_cast<double>(r.emitted_tokens)), "s/token"};
  out["quant.kv_append_s_per_token"] = {ratio(r.append_s, prompt + decode),
                                        "s/token"};
  out["attention.prefill_s_per_token"] = {ratio(r.prefill_attend_s, prompt),
                                          "s/token"};
  out["attention.decode_s_per_token"] = {ratio(r.decode_attend_s, decode),
                                         "s/token"};
  out["attention.prefill_share"] = {
      ratio(r.prefill_attend_s, r.prefill_total_s), "ratio"};

  std::size_t bytes = 0, tokens = 0;
  for (std::size_t i = 0; i < r.wire_bytes.size(); ++i) {
    bytes += r.wire_bytes[i];
    tokens += r.wire_tokens[i];
  }
  const double fp16 = static_cast<double>(tokens) *
                      static_cast<double>(m.layers * m.kv_heads * m.d_head) *
                      2.0 * 2.0;
  out["kv_wire.serialize_s"] = {median(r.serialize_s), "s"};
  out["kv_wire.deserialize_s"] = {median(r.deserialize_s), "s"};
  out["kv_wire.bytes_per_token"] = {
      ratio(static_cast<double>(bytes), static_cast<double>(tokens)),
      "B/token"};
  out["kv_wire.bytes_vs_fp16"] = {ratio(static_cast<double>(bytes), fp16),
                                  "ratio"};
  out["netsim.transfer_s"] = {median(r.transfer_s), "s"};

  hack::KvTierStats tier;
  double steps = 0, rows_per_step = 0, peak = 0, chunks = 0, wait = 0,
         tbt_p90 = 0;
  if (ep.serving) {
    const hack::ServingReport& s = *ep.serving;
    tier = s.engine.tier;
    steps = static_cast<double>(s.engine.steps);
    rows_per_step = ratio(static_cast<double>(s.total_generated - ep.finished),
                          steps);
    peak = static_cast<double>(s.engine.peak_running);
    chunks = static_cast<double>(s.engine.prefill_chunks);
    std::vector<double> waits;
    for (const hack::ServingRecord& rec : s.requests) {
      waits.push_back(rec.admit_time_s - rec.request.arrival_time_s);
    }
    wait = median(waits);
    tbt_p90 = s.tbt_s.p90;
  }
  out["tier.evictions"] = {static_cast<double>(tier.evictions), "count"};
  out["tier.rehydrations"] = {static_cast<double>(tier.rehydrations),
                              "count"};
  out["tier.prefetch_hit_ratio"] = {
      ratio(static_cast<double>(tier.prefetch_hits),
            static_cast<double>(tier.rehydrations)),
      "ratio"};
  out["tier.swap_out_bytes"] = {static_cast<double>(tier.bytes_swapped_out),
                                "bytes"};
  out["tier.far_bytes_peak"] = {static_cast<double>(tier.far_bytes_peak),
                                "bytes"};
  out["tier.swap_in_work_s"] = {tier.swap_in_work_s, "s"};
  out["tier.swap_in_stall_s"] = {tier.swap_in_stall_s, "s"};
  out["serving.steps"] = {steps, "count"};
  out["serving.decode_rows_per_step"] = {rows_per_step, "rows"};
  out["serving.peak_running"] = {peak, "count"};
  out["serving.prefill_chunks"] = {chunks, "count"};
  out["serving.queue_wait_p50_s"] = {wait, "s"};
  out["serving.tbt_p90_s"] = {tbt_p90, "s"};

  double fleet_wait = 0, pre_util = 0, dec_util = 0;
  if (ep.fleet) {
    const hack::FleetReport& f = *ep.fleet;
    std::vector<double> waits;
    for (const hack::FleetRecord& rec : f.requests) {
      if (rec.d.rejected) continue;
      // Clamped: the difference of equal sums can round below zero.
      waits.push_back(std::max(0.0, rec.d.ttft_s - rec.d.prefill_s -
                                        rec.d.serialize_s - rec.d.transfer_s -
                                        rec.d.deserialize_s));
    }
    fleet_wait = median(waits);
    for (const hack::FleetWorkerStats& s : f.prefill_workers) {
      pre_util += s.utilization / static_cast<double>(f.prefill_workers.size());
    }
    for (const hack::FleetWorkerStats& s : f.decode_workers) {
      dec_util += s.utilization / static_cast<double>(f.decode_workers.size());
    }
  }
  out["fleet.queue_wait_p50_s"] = {fleet_wait, "s"};
  out["fleet.prefill_utilization"] = {pre_util, "ratio"};
  out["fleet.decode_utilization"] = {dec_util, "ratio"};
  return out;
}

}  // namespace perfbench
