// atfbench — runs one benchmark workload and prints its result as one JSON
// line on stdout:
//
//   atfbench --workload NAME --seed N --seconds S --trace 0|1
//            --work-dir DIR --served PATH
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 they
// are the per-layer ones, and the spans go to DIR/trace.json as Chrome
// trace-event JSON. Diagnostics go to stderr. The exit code is non-zero when
// a correctness check failed.
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <map>
#include <string>

#include "bench.hpp"

namespace {

constexpr double kCompanionServeSeconds = 2.0;

void print_metrics(std::FILE* out,
                   const std::map<std::string, atfbench::metric>& metrics) {
  std::fprintf(out, "{");
  bool first = true;
  for (const auto& [name, m] : metrics) {
    std::fprintf(out, "%s\"%s\": {\"value\": %.9g, \"unit\": \"%s\"}",
                first ? "" : ", ", name.c_str(), m.value, m.unit.c_str());
    first = false;
  }
  std::fprintf(out, "}");
}

int usage() {
  std::fprintf(stderr,
               "usage: atfbench --workload tune_large_space|"
               "tune_surrogate_small|serve_mixed --seed N --seconds S "
               "--trace 0|1 --work-dir DIR --served PATH\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  atfbench::run_options opts;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      opts.workload = value;
    } else if (flag == "--seed") {
      opts.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      opts.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      opts.trace = value == "1";
    } else if (flag == "--work-dir") {
      opts.work_dir = value;
    } else if (flag == "--served") {
      opts.served = value;
    } else {
      return usage();
    }
  }
  if (opts.work_dir.empty() || opts.seconds <= 0.0) {
    return usage();
  }

  try {
    // Journals, the socket and the trace live in the work directory; the
    // socket path stays short because it is relative to it.
    opts.served = std::filesystem::absolute(opts.served).string();
    std::filesystem::create_directories(opts.work_dir);
    std::filesystem::current_path(opts.work_dir);
    atfbench::tracer trace(opts.trace);
    atfbench::run_result result;
    if (opts.workload == "tune_large_space") {
      result = atfbench::run_tune_large_space(opts, trace);
    } else if (opts.workload == "tune_surrogate_small") {
      result = atfbench::run_tune_surrogate_small(opts, trace);
    } else if (opts.workload == "serve_mixed") {
      result = atfbench::run_serve_mixed(opts, trace);
    } else {
      return usage();
    }
    if (opts.trace) {
      // Every traced run reports every layer, so each borrows the layers its
      // workload leaves idle from a short pass of another workload: a tune
      // workload takes the session and service layers from a serve_mixed
      // pass of kCompanionServeSeconds, serve_mixed takes the core, search
      // and kernels layers from one round of tune_surrogate_small's cells.
      // The pass's operations are not the workload's and stay out of its
      // attempted and failed counts; its checks still fail the run.
      atfbench::run_options companion_opts = opts;
      const bool serve = opts.workload == "serve_mixed";
      companion_opts.seconds = serve ? 0.0 : kCompanionServeSeconds;
      const atfbench::run_result companion =
          serve ? atfbench::run_tune_cells(atfbench::surrogate_small_cells(),
                                           companion_opts, 1, trace)
                : atfbench::run_serve_mixed(companion_opts, trace);
      std::fprintf(stderr,
                   "atfbench: companion pass: %" PRIu64 " attempted, %" PRIu64
                   " failed\n",
                   companion.attempted, companion.failed);
      for (const auto& [name, m] : companion.layers) {
        result.layers.try_emplace(name, m);
      }
      for (const std::string& problem : companion.problems) {
        result.fail_check("companion pass: " + problem);
      }
    }
    for (const std::string& problem : result.problems) {
      std::fprintf(stderr, "atfbench: check failed: %s\n", problem.c_str());
    }
    if (opts.trace) {
      const std::string path =
          (std::filesystem::current_path() / "trace.json").string();
      trace.write_chrome_json(path);
      std::fprintf(stderr, "atfbench: %zu spans written to %s\n",
                   trace.spans().size(), path.c_str());
      // End-to-end figures taken under tracing: only for the overhead report.
      std::fprintf(stderr, "atfbench: traced end-to-end: ");
      print_metrics(stderr, result.end_to_end);
      std::fprintf(stderr, "\n");
    }
    std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
                ", \"failed\": %" PRIu64 ", \"metrics\": ",
                result.correct ? "true" : "false", result.attempted,
                result.failed);
    print_metrics(stdout, opts.trace ? result.layers : result.end_to_end);
    std::printf("}\n");
    return result.correct ? 0 : 1;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "atfbench: %s\n", error.what());
    return 1;
  }
}
