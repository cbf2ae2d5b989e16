// Workload definitions and the timed episode of each engine.
#include <algorithm>
#include <stdexcept>
#include <string>

#include <sys/resource.h>

#include "base/rng.h"
#include "bench.h"
#include "kvcache/block_allocator.h"
#include "metrics/stats.h"

namespace perfbench {

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  return hack::percentile(std::move(values), 0.5);
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

namespace {

// The ROADMAP bench shape: 32 query heads over 8 KV heads, d_head 128.
TinyConfig bench_shape() {
  TinyConfig c;
  c.vocab = 256;
  c.layers = 2;
  c.heads = 32;
  c.kv_heads = 8;
  c.d_head = 128;
  c.d_ff = 512;
  return c;
}

HackAttentionConfig two_bit_kv() {
  HackAttentionConfig a;
  a.pi = 64;
  a.kv_bits = 2;
  return a;
}

}  // namespace

TinyConfig narrow_shape() {
  TinyConfig c = bench_shape();
  c.heads = 8;
  c.kv_heads = 2;
  return c;
}

WorkloadSpec workload_spec(const std::string& name) {
  WorkloadSpec s;
  s.name = name;
  s.attn = two_bit_kv();
  if (name == "handoff_prefill") {
    s.engine = Engine::kFleet;
    s.model = bench_shape();
    s.prompt_lens = {112, 80, 144, 96};
    s.output_lens = {8, 12, 6, 10};
    s.chunk_tokens = 0;
    s.prefill_workers = 2;
    s.decode_workers = 1;
    s.arrival_interval_s = 2.0;
  } else if (name == "decode_batch") {
    s.engine = Engine::kServing;
    s.model = bench_shape();
    // Prompts of a few tokens keep prefill a small share of the episode:
    // at the bench shape a prompt token costs about as much dense work as
    // a decode row.
    s.prompt_lens = {8, 4, 12, 6, 10, 5, 11, 7};
    s.output_lens = {28, 16, 12, 36, 20, 32, 8, 24};
    s.chunk_tokens = 128;
  } else if (name == "longctx_tiered") {
    s.engine = Engine::kTieredServing;
    s.model = narrow_shape();
    s.prompt_lens = {1280, 1024, 1536, 1152};
    s.output_lens = {32, 48, 24, 40};
    s.chunk_tokens = 256;
  } else {
    throw std::invalid_argument(
        "unknown workload " + name +
        " (want handoff_prefill, decode_batch or longctx_tiered)");
  }
  if (s.engine == Engine::kTieredServing) {
    // Pool: a little above the largest request's worst case, well below
    // the summed working set, so sequences swap to the far tier.
    const std::size_t block_tokens = hack::SchedulerConfig{}.block_tokens;
    std::size_t max_worst = 0;
    for (std::size_t i = 0; i < s.prompt_lens.size(); ++i) {
      const std::size_t tokens = s.prompt_lens[i] + s.output_lens[i];
      max_worst = std::max(max_worst,
                           (tokens + block_tokens - 1) / block_tokens);
    }
    s.pool_blocks = max_worst + max_worst / 2;
  }
  return s;
}

std::vector<ServingRequest> make_requests(const WorkloadSpec& spec,
                                          std::uint64_t seed) {
  hack::Rng rng(0x9E3779B97F4A7C15ULL ^ (seed * 0xD1B54A32D192ED03ULL));
  std::vector<ServingRequest> requests;
  for (std::size_t i = 0; i < spec.prompt_lens.size(); ++i) {
    ServingRequest r;
    r.id = i;
    r.prompt.resize(spec.prompt_lens[i]);
    for (int& t : r.prompt) {
      t = static_cast<int>(rng.next_below(spec.model.vocab));
    }
    r.max_new_tokens = spec.output_lens[i];
    r.eos = -1;
    r.arrival_time_s = spec.engine == Engine::kFleet
                           ? static_cast<double>(i) * spec.arrival_interval_s
                           : 0.0;
    requests.push_back(std::move(r));
  }
  return requests;
}

std::vector<ServingRequest> warmup_requests(const WorkloadSpec& spec,
                                            std::uint64_t seed) {
  std::vector<ServingRequest> requests = make_requests(spec, seed);
  requests.resize(1);
  return requests;
}

hack::LayerBackendFactory make_factory(const WorkloadSpec& spec) {
  return hack::make_hack_layer_backend(spec.attn, kBackendSeed);
}

hack::ServingEngineConfig serving_config(const WorkloadSpec& spec) {
  hack::ServingEngineConfig ec;
  ec.scheduler.max_active = kMaxActive;
  ec.scheduler.prefill_chunk_tokens = spec.chunk_tokens;
  ec.scheduler.tiered = spec.engine == Engine::kTieredServing;
  return ec;
}

hack::FleetConfig fleet_config(const WorkloadSpec& spec) {
  hack::FleetConfig fc;
  fc.worker.attn = spec.attn;
  fc.worker.backend_seed = kBackendSeed;
  fc.worker.prefill_chunk_tokens = spec.chunk_tokens;
  fc.worker.prefill_nic_gbps = kNicGbps;
  fc.worker.decode_nic_gbps = kNicGbps;
  fc.prefill_workers = spec.prefill_workers;
  fc.decode_workers = spec.decode_workers;
  fc.prefill_policy = &hack::dispatch_round_robin;
  fc.decode_policy = &hack::dispatch_round_robin;
  return fc;
}

std::size_t block_bytes(const WorkloadSpec& spec) {
  const TinyConfig& m = spec.model;
  return hack::SchedulerConfig{}.block_tokens * m.kv_heads * m.d_head * 2 *
         2 * m.layers;
}

namespace {

Episode fleet_episode(const WorkloadSpec& spec,
                      const std::shared_ptr<const hack::TinyModelWeights>& w,
                      const std::vector<ServingRequest>& requests) {
  hack::FleetEngine engine(w, fleet_config(spec));
  const double t0 = now_s();
  auto report = std::make_shared<hack::FleetReport>(engine.run(requests));
  Episode ep;
  ep.wall_s = now_s() - t0;
  std::vector<double> ttft, tbt, jct;
  for (const hack::FleetRecord& rec : report->requests) {
    ++ep.attempted;
    ep.tokens.push_back(rec.d.generated);
    if (rec.d.rejected || rec.shed) {
      ++ep.rejected;
      continue;
    }
    ++ep.finished;
    ttft.push_back(rec.d.ttft_s);
    jct.push_back(rec.d.jct_s);
    if (rec.d.generated.size() > 1) {
      tbt.push_back(rec.d.decode_s /
                    static_cast<double>(rec.d.generated.size() - 1));
    }
  }
  ep.ttft_p50_s = median(ttft);
  ep.tbt_p50_s = median(tbt);
  ep.jct_p50_s = median(jct);
  ep.output_tokens_per_s =
      report->makespan_s > 0.0
          ? static_cast<double>(report->total_generated) / report->makespan_s
          : 0.0;
  ep.fleet = std::move(report);
  return ep;
}

Episode serving_episode(const WorkloadSpec& spec,
                        const std::shared_ptr<const hack::TinyModelWeights>& w,
                        const std::vector<ServingRequest>& requests) {
  std::unique_ptr<hack::BlockAllocator> pool;
  if (spec.pool_blocks > 0) {
    pool = std::make_unique<hack::BlockAllocator>(spec.pool_blocks,
                                                  block_bytes(spec));
  }
  hack::ServingEngine engine(
      w, [&spec] { return make_factory(spec); }, serving_config(spec),
      pool.get());
  for (const ServingRequest& r : requests) engine.submit(r);
  const double t0 = now_s();
  auto report = std::make_shared<hack::ServingReport>(engine.run());
  Episode ep;
  ep.wall_s = now_s() - t0;
  for (const hack::ServingRecord& rec : report->requests) {
    ++ep.attempted;
    ep.tokens.push_back(rec.generated);
    if (rec.state == hack::RequestState::kFinished) {
      ++ep.finished;
    } else {
      ++ep.rejected;
    }
  }
  ep.ttft_p50_s = report->ttft_s.p50;
  ep.tbt_p50_s = report->tbt_s.p50;
  ep.jct_p50_s = report->jct_s.p50;
  ep.output_tokens_per_s = report->tokens_per_s;
  if (pool) {
    ep.pool_blocks = pool->num_blocks();
    ep.pool_free_after = pool->blocks_free();
  }
  ep.serving = std::move(report);
  return ep;
}

}  // namespace

Episode run_episode(const WorkloadSpec& spec,
                    const std::shared_ptr<const hack::TinyModelWeights>& w,
                    const std::vector<ServingRequest>& requests) {
  return spec.engine == Engine::kFleet ? fleet_episode(spec, w, requests)
                                       : serving_episode(spec, w, requests);
}

}  // namespace perfbench
