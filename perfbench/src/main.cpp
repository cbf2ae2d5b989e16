// perfbench: one workload, one process.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//   perfbench --selftest
//
// Timed run (--trace 0): set-up, then whole episodes until --seconds have
// passed, then the correctness checks; the last stdout line is the JSON
// result with every end-to-end metric. Traced run (--trace 1): one untraced
// episode for the engine's own counters, then the per-layer replay; the last
// line carries every per-layer metric.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include <sys/resource.h>

#include "base/thread_pool.h"
#include "bench.h"
#include "checks.h"
#include "replay.h"

namespace perfbench {
namespace {

constexpr const char* kPoolLanes = "2";

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool selftest = false;
  std::string trace_dir = "perfbench-out";
};

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--trace-dir <dir>]\n"
               "       perfbench --selftest\n",
               msg);
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--selftest") {
      a.selftest = true;
      continue;
    }
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const char* v = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      a.workload = v;
      have_workload = true;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(v, &end, 10);
      if (*end != '\0') usage("bad --seed");
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(v, &end);
      if (*end != '\0' || a.seconds <= 0.0) usage("bad --seconds");
    } else if (flag == "--trace") {
      if (std::strcmp(v, "0") != 0 && std::strcmp(v, "1") != 0) {
        usage("bad --trace (want 0 or 1)");
      }
      a.trace = v[0] == '1';
    } else if (flag == "--trace-dir") {
      a.trace_dir = v;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (!a.selftest && !have_workload) usage("--workload is required");
  return a;
}

void print_metrics_json(bool correct, std::size_t attempted,
                        std::size_t failed, const MetricMap& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  bool first = true;
  for (const auto& [name, vu] : metrics) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                first ? "" : ", ", name.c_str(), vu.first,
                vu.second.c_str());
    first = false;
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

// A fixed scalar loop that touches nothing of the program: its time tells
// host drift between sets of runs apart from a change in the program.
double host_probe_ms() {
  const double t0 = now_s();
  volatile std::uint64_t sink = 0;
  std::uint64_t x = 0x243F6A8885A308D3ULL;
  for (int i = 0; i < 20'000'000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  sink = x;
  (void)sink;
  return (now_s() - t0) * 1e3;
}

int timed_run(const Args& args, double process_start) {
  const WorkloadSpec spec = workload_spec(args.workload);
  const auto requests = make_requests(spec, args.seed);

  // ---- set-up: weights, pool start-up, warm-up ----
  const auto weights = hack::make_tiny_weights(spec.model);
  hack::ThreadPool::global();
  run_episode(spec, weights, warmup_requests(spec, args.seed));
  const double setup_s = now_s() - process_start;

  // ---- timed region: the whole number of episodes nearest --seconds ----
  // Another episode starts only while it would end closer to --seconds
  // than stopping now, judged by the last episode's wall time.
  std::vector<Episode> episodes;
  const double t0 = now_s();
  do {
    episodes.push_back(run_episode(spec, weights, requests));
  } while (now_s() - t0 + episodes.back().wall_s / 2.0 < args.seconds);
  const double rss = peak_rss_mib();

  std::vector<double> ttft, tbt, jct, tps;
  std::size_t attempted = 0, finished = 0, rejected = 0;
  for (const Episode& ep : episodes) {
    std::printf("episode %zu: wall %.3f s, ttft_p50 %.4f s, tbt_p50 %.5f s, "
                "jct_p50 %.4f s, %.3f tokens/s\n",
                ttft.size(), ep.wall_s, ep.ttft_p50_s, ep.tbt_p50_s,
                ep.jct_p50_s, ep.output_tokens_per_s);
    ttft.push_back(ep.ttft_p50_s);
    tbt.push_back(ep.tbt_p50_s);
    jct.push_back(ep.jct_p50_s);
    tps.push_back(ep.output_tokens_per_s);
    attempted += ep.attempted;
    finished += ep.finished;
    rejected += ep.rejected;
  }

  // ---- checks, outside the timed region ----
  CheckLog log;
  check_episodes(spec, weights, requests, episodes, args.seed, log);
  check_reference_logits(args.seed, log);
  const double probe = host_probe_ms();
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  std::printf("process: user %.2f s, sys %.2f s, minor faults %ld, "
              "involuntary switches %ld\n",
              ru.ru_utime.tv_sec + ru.ru_utime.tv_usec * 1e-6,
              ru.ru_stime.tv_sec + ru.ru_stime.tv_usec * 1e-6, ru.ru_minflt,
              ru.ru_nivcsw);

  std::printf("workload %s seed %llu: %zu episodes, %zu requests attempted, "
              "%zu finished, %zu rejected or shed; host_probe_ms %.2f; "
              "checks %zu passed, %zu failed\n",
              spec.name.c_str(), static_cast<unsigned long long>(args.seed),
              episodes.size(), attempted, finished, rejected, probe,
              log.passed, log.failures.size());
  for (const std::string& f : log.failures) {
    std::printf("CHECK FAILED: %s\n", f.c_str());
  }

  MetricMap m;
  m["ttft_p50_s"] = {median(ttft), "s"};
  m["tbt_p50_s"] = {median(tbt), "s"};
  m["jct_p50_s"] = {median(jct), "s"};
  m["output_tokens_per_s"] = {median(tps), "tokens/s"};
  m["setup_s"] = {setup_s, "s"};
  m["peak_rss_mib"] = {rss, "MiB"};
  print_metrics_json(log.failures.empty(), attempted,
                     attempted - finished, m);
  return 0;
}

int traced_run(const Args& args) {
  const WorkloadSpec spec = workload_spec(args.workload);
  const auto requests = make_requests(spec, args.seed);
  const auto weights = hack::make_tiny_weights(spec.model);
  run_episode(spec, weights, warmup_requests(spec, args.seed));

  const Episode ep = run_episode(spec, weights, requests);
  const std::string trace_path = args.trace_dir + "/" + spec.name + "-seed" +
                                 std::to_string(args.seed) + ".trace.json";
  const ReplayResult replay =
      replay_requests(spec, weights, requests, trace_path);

  CheckLog log;
  check_replay(spec, weights, requests, ep, replay, log);
  check_episode_properties(spec, requests, {ep}, log);

  std::printf("workload %s seed %llu (traced): %zu requests attempted, %zu "
              "finished, %zu rejected or shed; %zu spans written to %s; "
              "checks %zu passed, %zu failed\n",
              spec.name.c_str(), static_cast<unsigned long long>(args.seed),
              ep.attempted, ep.finished, ep.rejected, replay.span_count,
              trace_path.c_str(), log.passed, log.failures.size());
  for (const std::string& f : log.failures) {
    std::printf("CHECK FAILED: %s\n", f.c_str());
  }
  const MetricMap m = per_layer_metrics(spec, ep, replay);
  print_metrics_json(log.failures.empty(), ep.attempted,
                     ep.attempted - ep.finished, m);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const double process_start = perfbench::now_s();
  // The program's shared pool gets two lanes, whatever the environment
  // says. With as many lanes as vCPUs, one busy neighbour delays every
  // pool barrier: on a 4-vCPU host a single competing process made
  // longctx_tiered TTFT 54% and decode_batch TTFT 25% worse at 4 lanes,
  // and moved no figure by more than 5% at 2 (README.md). Set before the
  // pool's first use.
  setenv("HACK_NUM_THREADS", perfbench::kPoolLanes, 1);
  const perfbench::Args args = perfbench::parse(argc, argv);
  try {
    if (args.selftest) return perfbench::run_selftest();
    return args.trace ? perfbench::traced_run(args)
                      : perfbench::timed_run(args, process_start);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
