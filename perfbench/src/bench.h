// Shared declarations of the end-to-end benchmark (perfbench/README.md).
//
// One process runs one named workload against the library's public API:
// set-up (weights, pool start-up, warm-up), a timed region of whole episodes,
// then correctness checks outside the timed region. A traced run replays the
// same requests one at a time through the per-layer public calls and reports
// per-layer numbers instead of the end-to-end ones.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "attention/hack_attention.h"
#include "model/session.h"
#include "serving/engine.h"
#include "serving/fleet.h"
#include "serving/request.h"

namespace perfbench {

using hack::HackAttentionConfig;
using hack::ServingRequest;
using hack::TinyConfig;

// Seconds on the steady clock since an arbitrary origin.
inline double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double median(std::vector<double> values);
// Peak resident set size of this process so far, in MiB.
double peak_rss_mib();

enum class Engine { kFleet, kServing, kTieredServing };

// Settings every workload shares: the HACK backend's RNG seed (also used by
// the FP32 reference check), the serving engine's active-sequence cap and
// the modeled NIC line rate of the fleet's transfers.
inline constexpr std::uint64_t kBackendSeed = 7;
inline constexpr std::size_t kMaxActive = 8;
inline constexpr double kNicGbps = 10.0;

// Everything that defines one workload: model shape, KV config, engine and
// the length make-up of its requests. Token contents come from the seed;
// lengths and their order are fixed, so every seed costs the same work and
// the seed spread of a metric is host noise, not input mix.
struct WorkloadSpec {
  std::string name;
  Engine engine = Engine::kServing;
  TinyConfig model;
  HackAttentionConfig attn;
  std::vector<std::size_t> prompt_lens;  // one entry per request, in order
  std::vector<std::size_t> output_lens;  // max_new_tokens, paired by index
  // Serving engine knobs.
  std::size_t chunk_tokens = 128;  // prefill chunk (fleet: 0 = whole prompt)
  std::size_t pool_blocks = 0;     // tiered KV pool (0: no pool)
  // Fleet knobs: worker counts and the open-loop arrival interval on the
  // fleet's own timeline.
  std::size_t prefill_workers = 0;
  std::size_t decode_workers = 0;
  double arrival_interval_s = 0.0;
};

// The narrow long-context shape (8Q/2KV, d_head 128); also the shape of
// the FP32 reference check.
TinyConfig narrow_shape();

// Throws std::invalid_argument on an unknown name.
WorkloadSpec workload_spec(const std::string& name);
// The seeded request list: the spec's lengths, tokens drawn uniformly from
// the vocabulary by seed, arrivals zeroed on the serving engine and spaced
// arrival_interval_s apart on the fleet.
std::vector<ServingRequest> make_requests(const WorkloadSpec& spec,
                                          std::uint64_t seed);

// The workload's first request alone, at full length, run through the
// workload's engine before timing so pool threads, allocator arenas and
// the long-context code paths are warm.
std::vector<ServingRequest> warmup_requests(const WorkloadSpec& spec,
                                            std::uint64_t seed);

// The per-session factory every engine and replay of a workload uses.
hack::LayerBackendFactory make_factory(const WorkloadSpec& spec);
hack::ServingEngineConfig serving_config(const WorkloadSpec& spec);
hack::FleetConfig fleet_config(const WorkloadSpec& spec);
// Block bytes of the accounting pool: FP16 K+V of block_tokens tokens.
std::size_t block_bytes(const WorkloadSpec& spec);

// One timed episode of a workload: its end-to-end figures plus what the
// checks and the per-layer report read off the engine.
struct Episode {
  double ttft_p50_s = 0.0;
  double tbt_p50_s = 0.0;
  double jct_p50_s = 0.0;
  double output_tokens_per_s = 0.0;
  double wall_s = 0.0;  // measured wall time of the episode
  std::size_t attempted = 0;
  std::size_t finished = 0;
  std::size_t rejected = 0;  // rejected or shed
  std::vector<std::vector<int>> tokens;  // submit order

  // Exactly one of these is filled, by engine kind.
  std::shared_ptr<hack::ServingReport> serving;
  std::shared_ptr<hack::FleetReport> fleet;
  // Free blocks of the tiered pool after the episode (0 otherwise).
  std::size_t pool_free_after = 0;
  std::size_t pool_blocks = 0;
};

// Runs one whole episode of `requests` on a fresh engine over `weights`.
Episode run_episode(const WorkloadSpec& spec,
                    const std::shared_ptr<const hack::TinyModelWeights>& w,
                    const std::vector<ServingRequest>& requests);

using MetricMap = std::map<std::string, std::pair<double, std::string>>;

}  // namespace perfbench
