// Correctness checks, the independent FP32 reference, and the self-test.
#include "checks.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>

#include "base/rng.h"
#include "kvcache/kv_wire.h"
#include "model/tiny_transformer.h"

namespace perfbench {

void CheckLog::expect(bool ok, const std::string& what) {
  if (ok) {
    ++passed;
  } else {
    failures.push_back(what);
  }
}

std::size_t wire_blob_bytes(const WorkloadSpec& spec, std::size_t tokens) {
  const HackAttentionConfig& a = spec.attn;
  const std::size_t d = spec.model.d_head;
  const std::size_t pi = a.pi;
  const std::size_t bits = static_cast<std::size_t>(a.kv_bits);
  const bool se = a.summation_elimination;
  const auto packed = [bits](std::size_t values) {
    return (values * bits + 7) / 8;
  };
  // K: one (min, scale) binary16 pair and (SE) one u16 sum per Π-group of
  // each row. V: whole-Π row groups per column, plus the FP16 tail (RQE) of
  // the rows past the last whole group.
  const std::size_t k_groups = tokens * (d / pi);
  const std::size_t v_rows = tokens / pi * pi;
  const std::size_t v_groups = d * (v_rows / pi);
  const std::size_t tail_rows = tokens - v_rows;
  std::size_t tail = 0;
  if (tail_rows > 0) {
    tail = a.requant_elimination
               ? 2 * tail_rows * d
               : packed(tail_rows * d) + 4 * d;
  }
  const std::size_t record = 8 + 4                            // framing
                             + 32                             // RNG stream
                             + packed(tokens * d) + 4 * k_groups +
                             (se ? 2 * k_groups : 0)          // K
                             + 8 + packed(v_rows * d) + 4 * v_groups +
                             (se ? 2 * v_groups : 0)          // V
                             + 1 + 8 + tail;                  // tail
  return 52 + spec.model.layers * spec.model.kv_heads * record;
}

bool tokens_equal(const std::vector<std::vector<int>>& a,
                  const std::vector<std::vector<int>>& b) {
  return a == b;
}

bool exact_lengths(const std::vector<ServingRequest>& requests,
                   const std::vector<std::vector<int>>& tokens) {
  if (requests.size() != tokens.size()) return false;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    if (tokens[i].size() != requests[i].max_new_tokens) return false;
  }
  return true;
}

bool all_finished(std::size_t finished, std::size_t rejected,
                  std::size_t requests) {
  return rejected == 0 && finished == requests;
}

bool swap_out_closed_form(const WorkloadSpec& spec,
                          const hack::ServingEngineStats& s) {
  std::size_t expected = 0;
  for (const hack::SwapEvent& ev : s.swap_events) {
    if (ev.kind == hack::SwapEvent::Kind::kEvict) {
      expected += wire_blob_bytes(spec, ev.tokens);
    }
  }
  return s.tier.evictions > 0 && expected == s.tier.bytes_swapped_out;
}

bool tier_conserved(const hack::KvTierStats& t, std::size_t pool_free,
                    std::size_t pool_blocks) {
  return t.bytes_swapped_out == t.bytes_swapped_in &&
         t.evictions == t.rehydrations &&
         t.hot_bytes_admitted == t.hot_bytes_released &&
         pool_free == pool_blocks;
}

bool kv_ledger_balanced(const hack::ServingEngineStats& s) {
  return s.kv_bytes_admitted == s.kv_bytes_released;
}

bool transfer_within_line_rate(std::size_t bytes, double gbps,
                               double transfer_s) {
  return transfer_s >= static_cast<double>(bytes) / (gbps * 1e9 / 8.0);
}

bool reference_order_holds(double err8, double err4, double err2,
                           double bound8) {
  return err8 < err4 && err4 < err2 && err8 <= bound8;
}

namespace {

std::string describe(const char* what, std::size_t episode) {
  std::ostringstream os;
  os << what << " (episode " << episode << ")";
  return os.str();
}

}  // namespace

void check_episode_properties(const WorkloadSpec& spec,
                              const std::vector<ServingRequest>& requests,
                              const std::vector<Episode>& episodes,
                              CheckLog& log) {
  for (std::size_t e = 0; e < episodes.size(); ++e) {
    const Episode& ep = episodes[e];
    log.expect(all_finished(ep.finished, ep.rejected, requests.size()),
               describe("every request finished, none rejected or shed", e));
    log.expect(exact_lengths(requests, ep.tokens),
               describe("every request generated its max_new_tokens", e));
    log.expect(tokens_equal(ep.tokens, episodes.front().tokens),
               describe("tokens equal across episodes", e));
    if (ep.serving) {
      const hack::ServingEngineStats& s = ep.serving->engine;
      log.expect(kv_ledger_balanced(s),
                 describe("kv_bytes_admitted == kv_bytes_released", e));
      if (spec.engine == Engine::kTieredServing) {
        log.expect(tier_conserved(s.tier, ep.pool_free_after, ep.pool_blocks),
                   describe("tier ledger balanced and pool drained", e));
        log.expect(swap_out_closed_form(spec, s),
                   describe("swap-out blobs match the closed-form size", e));
      }
    }
    if (ep.fleet) {
      bool sizes = true, line_rate = true;
      for (const hack::FleetRecord& rec : ep.fleet->requests) {
        const std::size_t want =
            wire_blob_bytes(spec, rec.d.request.prompt.size());
        sizes = sizes && rec.d.wire_bytes == want &&
                rec.d.sections.total() == want;
        line_rate = line_rate &&
                    transfer_within_line_rate(rec.d.wire_bytes, kNicGbps,
                                              rec.d.transfer_s);
      }
      log.expect(sizes, describe("wire blobs match the closed-form size", e));
      log.expect(line_rate,
                 describe("transfers no faster than the line rate", e));
    }
  }
}

void check_episodes(const WorkloadSpec& spec,
                    const std::shared_ptr<const hack::TinyModelWeights>& w,
                    const std::vector<ServingRequest>& requests,
                    const std::vector<Episode>& episodes, std::uint64_t seed,
                    CheckLog& log) {
  check_episode_properties(spec, requests, episodes, log);
  const std::size_t pick = static_cast<std::size_t>(seed % requests.size());
  log.expect(solo_tokens(spec, w, requests[pick]) ==
                 episodes.front().tokens[pick],
             "sampled request " + std::to_string(pick) +
                 " tokens equal the solo path");
}

void check_replay(const WorkloadSpec& spec,
                  const std::shared_ptr<const hack::TinyModelWeights>& w,
                  const std::vector<ServingRequest>& requests,
                  const Episode& ep, const ReplayResult& replay,
                  CheckLog& log) {
  log.expect(tokens_equal(replay.tokens, ep.tokens),
             "replay tokens equal the untraced run's tokens");
  bool sizes = true;
  for (std::size_t i = 0; i < replay.wire_bytes.size(); ++i) {
    sizes = sizes && replay.wire_bytes[i] ==
                         wire_blob_bytes(spec, replay.wire_tokens[i]);
  }
  log.expect(sizes, "replay wire blobs match the closed-form size");
  // Where the solo path is TinyTransformer::generate() (whole-prompt
  // prefill), check every request against it too; with chunked prefill the
  // replay itself is the solo path of the same chunk schedule.
  for (std::size_t i = 0; i < requests.size(); ++i) {
    if (spec.chunk_tokens != 0 &&
        requests[i].prompt.size() > spec.chunk_tokens) {
      continue;
    }
    log.expect(solo_tokens(spec, w, requests[i]) == ep.tokens[i],
               "request " + std::to_string(i) +
                   " tokens equal TinyTransformer::generate()");
  }
}

// ------------------------------------------------------ FP32 reference pass

namespace {

using Rows = std::vector<std::vector<double>>;

std::vector<double> rms_norm(const std::vector<double>& x,
                             const std::vector<float>& gain) {
  double ss = 0.0;
  for (double v : x) ss += v * v;
  const double inv = 1.0 / std::sqrt(ss / static_cast<double>(x.size()) + 1e-6);
  std::vector<double> out(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) out[i] = x[i] * inv * gain[i];
  return out;
}

// x [n × in] · W [in × out].
Rows project(const Rows& x, const hack::Matrix& w) {
  Rows y(x.size(), std::vector<double>(w.cols(), 0.0));
  for (std::size_t r = 0; r < x.size(); ++r) {
    for (std::size_t k = 0; k < w.rows(); ++k) {
      const double a = x[r][k];
      const auto wrow = w.row(k);
      for (std::size_t j = 0; j < w.cols(); ++j) y[r][j] += a * wrow[j];
    }
  }
  return y;
}

void rope(Rows& x, std::size_t heads, std::size_t d_head, double base) {
  for (std::size_t pos = 0; pos < x.size(); ++pos) {
    for (std::size_t h = 0; h < heads; ++h) {
      for (std::size_t i = 0; i + 1 < d_head; i += 2) {
        const double theta =
            static_cast<double>(pos) *
            std::pow(base, -static_cast<double>(i) / static_cast<double>(d_head));
        const double c = std::cos(theta), s = std::sin(theta);
        double& x0 = x[pos][h * d_head + i];
        double& x1 = x[pos][h * d_head + i + 1];
        const double a = x0, b = x1;
        x0 = a * c - b * s;
        x1 = a * s + b * c;
      }
    }
  }
}

// Plain forward pass of the tiny model over its public weights: RMSNorm,
// RoPE, causal GQA attention, SwiGLU, tied LM head. Returns the logits of
// the last prompt row. The final norm's gains are not public; the model
// initializes them to one, which is what this pass uses.
std::vector<double> reference_logits(const hack::TinyModelWeights& w,
                                     const std::vector<int>& prompt) {
  const TinyConfig& c = w.config();
  const std::size_t d = c.d_model(), dh = c.d_head;
  const std::size_t group = c.heads / c.kv_heads;
  const std::size_t n = prompt.size();
  std::vector<int> vocab(c.vocab);
  for (std::size_t t = 0; t < c.vocab; ++t) vocab[t] = static_cast<int>(t);
  const hack::Matrix embedding = w.embed(vocab);

  Rows x(n, std::vector<double>(d));
  for (std::size_t r = 0; r < n; ++r) {
    const auto row = embedding.row(static_cast<std::size_t>(prompt[r]));
    for (std::size_t j = 0; j < d; ++j) x[r][j] = row[j];
  }
  for (std::size_t l = 0; l < c.layers; ++l) {
    const auto& lw = w.layer(l);
    Rows h(n);
    for (std::size_t r = 0; r < n; ++r) h[r] = rms_norm(x[r], lw.norm_attn);
    Rows q = project(h, lw.wq), k = project(h, lw.wk);
    const Rows v = project(h, lw.wv);
    rope(q, c.heads, dh, c.rope_base);
    rope(k, c.kv_heads, dh, c.rope_base);
    Rows attn(n, std::vector<double>(c.heads * dh, 0.0));
    const double scale = 1.0 / std::sqrt(static_cast<double>(dh));
    for (std::size_t hq = 0; hq < c.heads; ++hq) {
      const std::size_t g = hq / group;
      for (std::size_t r = 0; r < n; ++r) {
        std::vector<double> p(r + 1);
        double mx = -1e300;
        for (std::size_t j = 0; j <= r; ++j) {
          double s = 0.0;
          for (std::size_t i = 0; i < dh; ++i) {
            s += q[r][hq * dh + i] * k[j][g * dh + i];
          }
          p[j] = s * scale;
          mx = std::max(mx, p[j]);
        }
        double sum = 0.0;
        for (double& e : p) sum += (e = std::exp(e - mx));
        for (std::size_t j = 0; j <= r; ++j) {
          for (std::size_t i = 0; i < dh; ++i) {
            attn[r][hq * dh + i] += p[j] / sum * v[j][g * dh + i];
          }
        }
      }
    }
    const Rows o = project(attn, lw.wo);
    for (std::size_t r = 0; r < n; ++r) {
      for (std::size_t j = 0; j < d; ++j) x[r][j] += o[r][j];
    }
    Rows h2(n);
    for (std::size_t r = 0; r < n; ++r) h2[r] = rms_norm(x[r], lw.norm_mlp);
    Rows gate = project(h2, lw.w_gate);
    const Rows up = project(h2, lw.w_up);
    for (std::size_t r = 0; r < n; ++r) {
      for (std::size_t j = 0; j < gate[r].size(); ++j) {
        const double gv = gate[r][j];
        gate[r][j] = gv / (1.0 + std::exp(-gv)) * up[r][j];
      }
    }
    const Rows down = project(gate, lw.w_down);
    for (std::size_t r = 0; r < n; ++r) {
      for (std::size_t j = 0; j < d; ++j) x[r][j] += down[r][j];
    }
  }
  const std::vector<double> last =
      rms_norm(x[n - 1], std::vector<float>(d, 1.0f));
  std::vector<double> logits(c.vocab, 0.0);
  for (std::size_t t = 0; t < c.vocab; ++t) {
    const auto row = embedding.row(t);
    for (std::size_t j = 0; j < d; ++j) logits[t] += last[j] * row[j];
  }
  return logits;
}

std::vector<int> reference_prompt(std::uint64_t seed) {
  hack::Rng rng(0xC0FFEEULL + seed);
  std::vector<int> prompt(48);
  for (int& t : prompt) t = static_cast<int>(rng.next_below(256));
  return prompt;
}

}  // namespace

double reference_logit_error(
    int kv_bits, std::uint64_t seed,
    const std::function<hack::LayerBackendFactory(hack::LayerBackendFactory)>&
        factory_wrap) {
  static const auto weights = hack::make_tiny_weights(narrow_shape());
  const std::vector<int> prompt = reference_prompt(seed);
  HackAttentionConfig attn;
  attn.pi = 64;
  attn.kv_bits = kv_bits;
  hack::LayerBackendFactory factory =
      hack::make_hack_layer_backend(attn, kBackendSeed);
  if (factory_wrap) factory = factory_wrap(std::move(factory));
  hack::TinyTransformer model(weights, std::move(factory));
  const std::vector<float> got = model.prefill(prompt);
  const std::vector<double> ref = reference_logits(*weights, prompt);
  double num = 0.0, den = 0.0;
  for (std::size_t t = 0; t < ref.size(); ++t) {
    const double diff = static_cast<double>(got[t]) - ref[t];
    num += diff * diff;
    den += ref[t] * ref[t];
  }
  return std::sqrt(num / den);
}

void check_reference_logits(std::uint64_t seed, CheckLog& log) {
  const double e8 = reference_logit_error(8, seed);
  const double e4 = reference_logit_error(4, seed);
  const double e2 = reference_logit_error(2, seed);
  char buf[200];
  std::snprintf(buf, sizeof(buf),
                "FP32 reference: logit error 8-bit %.4f < 4-bit %.4f < 2-bit "
                "%.4f, 8-bit <= %.2f",
                e8, e4, e2, kReferenceBound8);
  std::printf("%s\n", buf);
  log.expect(reference_order_holds(e8, e4, e2, kReferenceBound8), buf);
}

// --------------------------------------------------------------- self-test

namespace {

// Halves every attention output: a kernel fault that breaks the math the
// same way on every path, which token identity cannot see.
class HalvingBackend : public hack::LayerBackend {
 public:
  explicit HalvingBackend(std::unique_ptr<hack::LayerBackend> inner)
      : inner_(std::move(inner)) {}
  void append(const hack::Matrix& k, const hack::Matrix& v) override {
    inner_->append(k, v);
  }
  hack::Matrix attend(const hack::Matrix& q, std::size_t offset) override {
    hack::Matrix out = inner_->attend(q, offset);
    for (float& x : out.flat()) x *= 0.5f;
    return out;
  }
  std::size_t stored_bytes() const override { return inner_->stored_bytes(); }

 private:
  std::unique_ptr<hack::LayerBackend> inner_;
};

}  // namespace

int run_selftest() {
  int failures = 0;
  const auto expect = [&](bool good, bool corrupted, const char* name) {
    const bool ok = good && !corrupted;
    std::printf("%-44s good input %s, corrupted input %s: %s\n", name,
                good ? "passes" : "FAILS", corrupted ? "passes" : "fails",
                ok ? "ok" : "WRONG");
    if (!ok) ++failures;
  };

  const std::vector<std::vector<int>> toks = {{1, 2, 3}, {4, 5}};
  std::vector<std::vector<int>> flipped = toks;
  flipped[1][1] = 6;
  expect(tokens_equal(toks, toks), tokens_equal(toks, flipped),
         "token identity");

  std::vector<ServingRequest> reqs(2);
  reqs[0].max_new_tokens = 3;
  reqs[1].max_new_tokens = 2;
  std::vector<std::vector<int>> short_toks = toks;
  short_toks[0].pop_back();
  expect(exact_lengths(reqs, toks), exact_lengths(reqs, short_toks),
         "exact output lengths");

  expect(all_finished(2, 0, 2), all_finished(1, 1, 2),
         "every request finished, none rejected");

  hack::KvTierStats t;
  t.evictions = t.rehydrations = 3;
  t.bytes_swapped_out = t.bytes_swapped_in = 1000;
  t.hot_bytes_admitted = t.hot_bytes_released = 4096;
  hack::KvTierStats leaked = t;
  leaked.bytes_swapped_in = 999;
  hack::KvTierStats lost = t;
  lost.rehydrations = 2;
  hack::KvTierStats hot_held = t;
  hot_held.hot_bytes_released = 2048;
  expect(tier_conserved(t, 10, 10), tier_conserved(leaked, 10, 10),
         "tier bytes out == bytes in");
  expect(tier_conserved(t, 10, 10), tier_conserved(lost, 10, 10),
         "tier evictions == rehydrations");
  expect(tier_conserved(t, 10, 10), tier_conserved(hot_held, 10, 10),
         "tier hot bytes admitted == released");
  expect(tier_conserved(t, 10, 10), tier_conserved(t, 9, 10),
         "tier pool drained");

  hack::ServingEngineStats s;
  s.kv_bytes_admitted = s.kv_bytes_released = 512;
  hack::ServingEngineStats s_bad = s;
  s_bad.kv_bytes_released = 256;
  expect(kv_ledger_balanced(s), kv_ledger_balanced(s_bad),
         "engine kv ledger balanced");

  // Closed-form size against a real blob, and against an off-by-one.
  const WorkloadSpec spec = workload_spec("longctx_tiered");
  const auto weights = hack::make_tiny_weights(spec.model);
  hack::TinyTransformer model(weights, make_factory(spec));
  std::vector<int> prompt(150);
  for (std::size_t i = 0; i < prompt.size(); ++i) {
    prompt[i] = static_cast<int>(i % 256);
  }
  model.prefill(prompt);
  const std::size_t blob =
      hack::serialize_session_kv(model.session()).size();
  expect(blob == wire_blob_bytes(spec, prompt.size()),
         blob + 1 == wire_blob_bytes(spec, prompt.size()),
         "wire blob closed-form size");

  // Swap-out bytes against the evictions' closed-form sizes: a byte too
  // many, and a run that never evicted.
  hack::ServingEngineStats swapped;
  for (const std::size_t tokens : {150, 320}) {
    hack::SwapEvent ev;
    ev.kind = hack::SwapEvent::Kind::kEvict;
    ev.tokens = tokens;
    swapped.swap_events.push_back(ev);
    swapped.tier.bytes_swapped_out += wire_blob_bytes(spec, tokens);
    ++swapped.tier.evictions;
  }
  hack::ServingEngineStats swapped_bad = swapped;
  ++swapped_bad.tier.bytes_swapped_out;
  expect(swap_out_closed_form(spec, swapped),
         swap_out_closed_form(spec, swapped_bad),
         "swap-out bytes closed-form size");
  expect(swap_out_closed_form(spec, swapped),
         swap_out_closed_form(spec, hack::ServingEngineStats{}),
         "swap-out needs at least one eviction");

  const double line = 1e6 / (10.0 * 1e9 / 8.0);
  expect(transfer_within_line_rate(1000000, 10.0, line * 1.01),
         transfer_within_line_rate(1000000, 10.0, line * 0.5),
         "transfer at most line rate");

  const double e8 = reference_logit_error(8, 1);
  const double e4 = reference_logit_error(4, 1);
  const double e2 = reference_logit_error(2, 1);
  const auto halve = [](hack::LayerBackendFactory f) -> hack::LayerBackendFactory {
    return [f = std::move(f)](std::size_t d, std::size_t kv, std::size_t q) {
      return std::make_unique<HalvingBackend>(f(d, kv, q));
    };
  };
  const double bad8 = reference_logit_error(8, 1, halve);
  std::printf("reference errors: 8-bit %.4f, 4-bit %.4f, 2-bit %.4f, "
              "8-bit with halved attention %.4f\n",
              e8, e4, e2, bad8);
  expect(reference_order_holds(e8, e4, e2, kReferenceBound8),
         reference_order_holds(bad8, e4, e2, kReferenceBound8),
         "FP32 reference bound (broken attention)");
  expect(reference_order_holds(e8, e4, e2, kReferenceBound8),
         reference_order_holds(e4, e8, e2, kReferenceBound8),
         "FP32 reference ordering (swapped widths)");

  std::printf("selftest: %s\n", failures == 0 ? "all checks ok" : "FAILED");
  return failures == 0 ? 0 : 1;
}

}  // namespace perfbench
