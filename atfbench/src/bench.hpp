// Shared pieces of the benchmark driver: the clock, sample statistics,
// process counters, the span recorder behind traced mode and the result
// every workload hands back to main().
#pragma once

#include <sched.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <thread>
#include <vector>

namespace atfbench {

using clock_type = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(clock_type::time_point start) {
  return std::chrono::duration<double>(clock_type::now() - start).count();
}

[[nodiscard]] inline double micros(clock_type::time_point a,
                                   clock_type::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

/// Linear-interpolated percentile (q in [0, 1]) of a copy of `values`.
[[nodiscard]] double percentile(std::vector<double> values, double q);
[[nodiscard]] inline double median(std::vector<double> values) {
  return percentile(std::move(values), 0.5);
}
[[nodiscard]] double geomean(const std::vector<double>& values);
[[nodiscard]] double sum(const std::vector<double>& values);

/// Peak resident set (VmHWM) of `pid` in MB; 0 for the calling process.
[[nodiscard]] double peak_rss_mb(int pid = 0);
/// User + system CPU seconds of `pid` (all threads); 0 = the calling
/// process, read from CLOCK_PROCESS_CPUTIME_ID.
[[nodiscard]] double cpu_seconds(int pid = 0);

/// Samples the calling process's resident set every millisecond on a
/// background thread and keeps the largest value seen, in MB.
class rss_sampler {
public:
  rss_sampler();
  ~rss_sampler();
  rss_sampler(const rss_sampler&) = delete;
  rss_sampler& operator=(const rss_sampler&) = delete;

  /// The largest resident set seen so far (the starting one at first).
  [[nodiscard]] double peak() const { return peak_mb_.load(); }
  /// Stops sampling and returns the peak resident set seen.
  double stop();

private:
  std::atomic<bool> stop_{false};
  std::atomic<double> peak_mb_{0.0};
  std::thread thread_;
};

/// Pins the calling thread, and so every thread and child process it starts
/// afterwards, to the first CPU it may run on; restores the old CPU set when
/// destroyed.
class single_cpu_pin {
public:
  single_cpu_pin();
  ~single_cpu_pin();
  single_cpu_pin(const single_cpu_pin&) = delete;
  single_cpu_pin& operator=(const single_cpu_pin&) = delete;

private:
  cpu_set_t saved_{};
  bool pinned_ = false;
};

/// Records spans (name, start, end, parent) for traced mode and writes them
/// as Chrome trace-event JSON. Disabled recorders cost one branch per span.
class tracer {
public:
  struct span {
    std::string name;
    double start_us = 0.0;  ///< since the tracer's epoch
    double end_us = 0.0;
    int parent = -1;        ///< index into spans(), -1 for a root span
  };

  explicit tracer(bool enabled) : enabled_(enabled) {
    if (enabled_) spans_.reserve(1 << 20);
  }

  [[nodiscard]] bool enabled() const noexcept { return enabled_; }

  /// Opens a span under the innermost open one; returns its id (-1 when
  /// disabled).
  int begin(const std::string& name);
  /// Closes the span `id` (a no-op for -1).
  void end(int id);
  /// Records an already measured span under the innermost open one.
  void add(const std::string& name, clock_type::time_point start,
           clock_type::time_point end);

  [[nodiscard]] const std::vector<span>& spans() const noexcept {
    return spans_;
  }
  /// Writes {"traceEvents":[...]} with one complete ("X") event per span;
  /// the parent index travels in args.
  void write_chrome_json(const std::string& path) const;

private:
  [[nodiscard]] double at_us(clock_type::time_point t) const {
    return std::chrono::duration<double, std::micro>(t - epoch_).count();
  }

  bool enabled_;
  clock_type::time_point epoch_ = clock_type::now();
  std::vector<span> spans_;
  std::vector<int> open_;
};

/// RAII helper around tracer::begin/end.
class scoped_span {
public:
  scoped_span(tracer& t, const std::string& name)
      : tracer_(t), id_(t.begin(name)) {}
  ~scoped_span() { tracer_.end(id_); }
  scoped_span(const scoped_span&) = delete;
  scoped_span& operator=(const scoped_span&) = delete;

private:
  tracer& tracer_;
  int id_;
};

struct metric {
  double value = 0.0;
  std::string unit;
};

/// What one workload run hands back: the operation counts, the verdict of
/// the correctness checks and the metrics by name. A traced run fills
/// `layers` and still fills `end_to_end` (measured under tracing, used only
/// to report the tracing overhead).
struct run_result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool correct = true;
  std::vector<std::string> problems;  ///< one line per failed check
  std::map<std::string, metric> end_to_end;
  std::map<std::string, metric> layers;

  void fail_check(const std::string& what) {
    correct = false;
    problems.push_back(what);
  }
};

struct run_options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir;  ///< scratch directory for journals and sockets
  std::string served;    ///< path of the atf_served binary
};

/// One tuned (kernel family, size) pair: technique and evaluation budget.
struct tune_cell {
  std::string family;
  std::string size;
  std::string technique;
  std::uint64_t budget = 0;
};

/// Tunes `cells` on the K20m profile in whole rounds: at least
/// `min_rounds`, then more while another one fits in opts.seconds.
[[nodiscard]] run_result run_tune_cells(const std::vector<tune_cell>& cells,
                                        const run_options& opts,
                                        std::size_t min_rounds, tracer& trace);
/// tune_surrogate_small's cells.
[[nodiscard]] const std::vector<tune_cell>& surrogate_small_cells();

[[nodiscard]] run_result run_tune_large_space(const run_options& opts,
                                              tracer& trace);
[[nodiscard]] run_result run_tune_surrogate_small(const run_options& opts,
                                                  tracer& trace);
[[nodiscard]] run_result run_serve_mixed(const run_options& opts,
                                         tracer& trace);

/// splitmix64: derives independent sub-seeds from the run seed.
[[nodiscard]] inline std::uint64_t mix_seed(std::uint64_t seed,
                                            std::uint64_t salt) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (salt + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace atfbench
