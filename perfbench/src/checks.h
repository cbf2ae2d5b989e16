// Correctness checks of a benchmark run, and their self-test.
//
// Every check is a plain predicate over data the run produced, so the
// self-test (--selftest) can feed each one a deliberately corrupted input
// and show that it fails.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "bench.h"
#include "replay.h"

namespace perfbench {

struct CheckLog {
  std::size_t passed = 0;
  std::vector<std::string> failures;
  void expect(bool ok, const std::string& what);
};

// Closed-form size of a full (v2) KV wire blob of `tokens` rows of the
// workload's model and KV config, from the layout in
// docs/disaggregation.md.
std::size_t wire_blob_bytes(const WorkloadSpec& spec, std::size_t tokens);

// --- the single predicates ---------------------------------------------
bool tokens_equal(const std::vector<std::vector<int>>& a,
                  const std::vector<std::vector<int>>& b);
// Every request generated exactly its max_new_tokens.
bool exact_lengths(const std::vector<ServingRequest>& requests,
                   const std::vector<std::vector<int>>& tokens);
// Every request finished; none was rejected or shed.
bool all_finished(std::size_t finished, std::size_t rejected,
                  std::size_t requests);
// At least one eviction, and the swapped-out bytes equal the summed
// closed-form blob sizes of the evicted sequences.
bool swap_out_closed_form(const WorkloadSpec& spec,
                          const hack::ServingEngineStats& s);
// Swap ledger balanced and the pool drained.
bool tier_conserved(const hack::KvTierStats& t, std::size_t pool_free,
                    std::size_t pool_blocks);
bool kv_ledger_balanced(const hack::ServingEngineStats& s);
// Modeled transfer no faster than the line rate allows.
bool transfer_within_line_rate(std::size_t bytes, double gbps,
                               double transfer_s);
// Logit error falls as the KV bit width rises and 8-bit stays in bound.
bool reference_order_holds(double err8, double err4, double err2,
                           double bound8);

// The 8-bit relative L2 logit error bound against the FP32 reference.
inline constexpr double kReferenceBound8 = 0.05;

// --- run-level checks ----------------------------------------------------
// Properties every episode must hold (lengths, ledgers, wire sizes,
// transfer bounds) plus agreement of all episodes' tokens.
void check_episode_properties(const WorkloadSpec& spec,
                              const std::vector<ServingRequest>& requests,
                              const std::vector<Episode>& episodes,
                              CheckLog& log);
// The above plus token identity of a seeded sample request against the
// solo path.
void check_episodes(const WorkloadSpec& spec,
                    const std::shared_ptr<const hack::TinyModelWeights>& w,
                    const std::vector<ServingRequest>& requests,
                    const std::vector<Episode>& episodes, std::uint64_t seed,
                    CheckLog& log);
// The replay's tokens equal the engine's, request by request; on the
// fleet they also equal TinyTransformer::generate().
void check_replay(const WorkloadSpec& spec,
                  const std::shared_ptr<const hack::TinyModelWeights>& w,
                  const std::vector<ServingRequest>& requests,
                  const Episode& ep, const ReplayResult& replay,
                  CheckLog& log);

// Relative L2 error of first-token logits of the HACK backend at `kv_bits`
// against the FP32 reference, at the narrow shape on a seeded prompt.
// `factory_wrap`, when set, wraps the backend factory (the self-test uses
// it to break the attention math).
double reference_logit_error(
    int kv_bits, std::uint64_t seed,
    const std::function<hack::LayerBackendFactory(hack::LayerBackendFactory)>&
        factory_wrap = {});
void check_reference_logits(std::uint64_t seed, CheckLog& log);

// Feeds every predicate a good and a corrupted input; 0 when each good
// input passes and each corrupted one fails.
int run_selftest();

}  // namespace perfbench
