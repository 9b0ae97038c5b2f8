// perfbench: the repository benchmark's measuring program. perfbench/run.py
// builds and drives it; see perfbench/README.md.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--spans <path>]
//
// Prints one record line ({"record": ...}: tails, sample counts, noise
// flags) and, last, the result line {"correct", "attempted", "failed",
// "metrics"}. Untraced runs report the end-to-end metrics, traced runs the
// per-layer ones.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <thread>

#include "common.h"
#include "runtime/thread_pool.h"
#include "workloads.h"

namespace {

using namespace perfbench;

// Modules whose self time a traced run reports (span-name prefixes).
constexpr const char* kModules[] = {"bench", "core", "nn", "quant", "runtime", "serve", "train"};

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload resnet18_partial_bayes|vgg11_opt_latency|"
               "serve_multi_tenant --seed N --seconds S --trace 0|1 [--spans PATH]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  RunOptions options;
  std::string spans_path;
  if (argc % 2 == 0) return usage();  // a flag without its value
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") options.workload = value;
    else if (flag == "--seed") options.seed = std::strtoull(value, nullptr, 10);
    else if (flag == "--seconds") options.seconds = std::atof(value);
    else if (flag == "--trace") options.trace = std::strcmp(value, "1") == 0;
    else if (flag == "--spans") spans_path = value;
    else return usage();
  }
  const bool offline = options.workload == "resnet18_partial_bayes" ||
                       options.workload == "vgg11_opt_latency";
  if ((!offline && options.workload != "serve_multi_tenant") || !(options.seconds > 0.0))
    return usage();

  try {
    bnn::runtime::ThreadPool pool(kLanes);
    Tracer tracer(options.trace);
    Report report;
    if (offline) run_offline(options, pool, tracer, report);
    else run_serving(options, pool, tracer, report);

    if (options.trace) {
      if (offline) {
        // The serving layer's per-layer metrics come from a short serving
        // probe; its requests count toward the correctness tally.
        RunOptions serving{"serve_multi_tenant", options.seed, kServingProbeSeconds, true};
        Report probe;
        run_serving(serving, pool, tracer, probe);
        for (const auto& [name, metric] : probe.metrics)
          if (name.rfind("serve.", 0) == 0 || name == "bench.generator_lag_ms")
            report.metrics[name] = metric;
        report.attempted += probe.attempted;
        report.failed += probe.failed;
      }
      run_layer_suite(pool, tracer, report);
      const auto self = tracer.self_ms_by_module();
      for (const char* module : kModules) {
        const auto it = self.find(module);
        report.set(std::string("trace.self_ms.") + module, it == self.end() ? 0.0 : it->second,
                   "ms");
      }
      report.note("spans", std::to_string(tracer.size()));
      if (!spans_path.empty() && !tracer.write_jsonl(spans_path))
        std::fprintf(stderr, "perfbench: cannot write spans to %s\n", spans_path.c_str());
    }

    std::string record = "{\"record\": {\"workload\": " + json_string(options.workload) +
                         ", \"seed\": " + std::to_string(options.seed) +
                         ", \"seconds\": " + json_number(options.seconds) +
                         ", \"trace\": " + (options.trace ? "1" : "0") +
                         ", \"nproc\": " + std::to_string(std::thread::hardware_concurrency()) +
                         ", \"compiler\": " + json_string(PERFBENCH_COMPILER) +
                         ", \"build_type\": " + json_string(PERFBENCH_BUILD_TYPE) +
                         ", \"lanes\": " + std::to_string(kLanes);
    for (const auto& [key, json] : report.notes) record += ", " + json_string(key) + ": " + json;
    std::printf("%s}}\n", record.c_str());

    const bool correct = report.attempted > 0 && report.failed == 0;
    std::string result = std::string("{\"correct\": ") + (correct ? "true" : "false") +
                         ", \"attempted\": " + std::to_string(report.attempted) +
                         ", \"failed\": " + std::to_string(report.failed) + ", \"metrics\": {";
    bool first = true;
    for (const auto& [name, metric] : report.metrics) {
      result += (first ? "" : ", ") + json_string(name) + ": {\"value\": " +
                json_number(metric.value) + ", \"unit\": " + json_string(metric.unit) + "}";
      first = false;
    }
    std::printf("%s}}\n", result.c_str());
    return 0;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "perfbench: %s\n", error.what());
    return 1;
  }
}
