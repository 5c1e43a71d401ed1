// The two tune workloads. Each run repeats whole rounds; a round tunes every
// cell once: generate the cell's space through atf::tuner::space(), then run
// the tuner with a wrapped search technique and a wrapped cost function so
// that every evaluation-loop turn (propose -> apply -> cost -> report) is
// timed from outside the library.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "atf/abort_condition.hpp"
#include "atf/common/rng.hpp"
#include "atf/cost.hpp"
#include "atf/kernels/registry.hpp"
#include "atf/kernels/xgemm_direct.hpp"
#include "atf/tuner.hpp"
#include "bench.hpp"
#include "ocls/ocls.hpp"

namespace atfbench {
namespace {

namespace registry = atf::kernels::registry;

// Per-cell samples of one tune, collected by the wrappers below.
struct tune_probe {
  tracer* trace = nullptr;
  std::vector<double> turn_us;
  std::vector<double> propose_us;
  std::vector<double> report_us;
  std::vector<double> cost_us;
  std::vector<double> overhead_us;  ///< turn minus propose, report and cost
  std::set<std::uint64_t> proposed;
  std::uint64_t repeats = 0;  ///< proposals of an already proposed config
  double min_cost = INFINITY;
  double turn_cost_us = 0.0;  ///< cost time inside the current turn
  clock_type::time_point propose_start;
  clock_type::time_point propose_end;
};

// Forwards every call to the real technique and times propose/report.
class timed_technique final : public atf::search_technique {
public:
  timed_technique(std::unique_ptr<atf::search_technique> inner,
                  tune_probe& probe)
      : inner_(std::move(inner)), probe_(probe) {}

  [[nodiscard]] const char* name() const override { return inner_->name(); }
  void initialize(const atf::search_space& space) override {
    atf::search_technique::initialize(space);
    inner_->initialize(space);
  }
  void finalize() override { inner_->finalize(); }
  void warm_start(const atf::session::result_store& store) override {
    inner_->warm_start(store);
  }
  [[nodiscard]] atf::configuration get_next_config() override {
    return inner_->get_next_config();
  }
  void report_cost(double cost) override { inner_->report_cost(cost); }

  [[nodiscard]] std::vector<atf::configuration> propose_batch(
      std::size_t max_configs) override {
    probe_.propose_start = clock_type::now();
    std::vector<atf::configuration> batch = inner_->propose_batch(max_configs);
    probe_.propose_end = clock_type::now();
    probe_.turn_cost_us = 0.0;
    for (const atf::configuration& c : batch) {
      const std::uint64_t index = c.space_index().value_or(c.hash());
      if (!probe_.proposed.insert(index).second) {
        ++probe_.repeats;
      }
    }
    return batch;
  }

  void report_batch(const std::vector<atf::configuration>& configs,
                    const std::vector<double>& costs) override {
    const auto report_start = clock_type::now();
    inner_->report_batch(configs, costs);
    const auto report_end = clock_type::now();
    const double turn = micros(probe_.propose_start, report_end);
    probe_.turn_us.push_back(turn);
    if (probe_.trace->enabled()) {
      const double propose = micros(probe_.propose_start, probe_.propose_end);
      const double report = micros(report_start, report_end);
      probe_.propose_us.push_back(propose);
      probe_.report_us.push_back(report);
      probe_.overhead_us.push_back(turn - propose - report -
                                   probe_.turn_cost_us);
      probe_.trace->add("search.propose", probe_.propose_start,
                        probe_.propose_end);
      probe_.trace->add("search.report", report_start, report_end);
      probe_.trace->add("turn", probe_.propose_start, report_end);
    }
  }

private:
  std::unique_ptr<atf::search_technique> inner_;
  tune_probe& probe_;
};

atf::kernels::xgemm::params xgemm_params(const atf::configuration& c) {
  atf::kernels::xgemm::params p;
  p.wgd = c["WGD"];
  p.mdimcd = c["MDIMCD"];
  p.ndimcd = c["NDIMCD"];
  p.mdimad = c["MDIMAD"];
  p.ndimbd = c["NDIMBD"];
  p.kwid = c["KWID"];
  p.vwmd = c["VWMD"];
  p.vwnd = c["VWND"];
  p.pada = c["PADA"];
  p.padb = c["PADB"];
  return p;
}

// Everything one workload run accumulates over its rounds.
struct workload_totals {
  std::vector<double> setup_s;   ///< per round: generation of every cell
  std::vector<double> wall_s;    ///< per round: setup + every tune
  std::vector<double> ops_rate;  ///< per round: turns / tune seconds
  std::vector<double> cpu_s;     ///< per round: process CPU time
  std::vector<double> turn_p50_us, turn_p99_us;  ///< per round
  std::vector<double> best_ns;   ///< best cost per sub-seed and cell
  // Traced-only layer samples.
  std::vector<double> generate_s, propose_s, cost_s;  ///< per round
  std::vector<double> propose_us, report_us, cost_us, overhead_us;
  std::vector<double> config_at_ns, apply_ns;
  double generated_configs = 0.0, generate_total_s = 0.0;
  double space_mb = 0.0;
  double peak_over_space = 0.0;  ///< of the cell with the largest space
  double largest_space_mb = 0.0;
  std::uint64_t proposals = 0, repeats = 0;
};

constexpr std::size_t kValiditySamples = 32;
// Rounds cycle through this many sub-seeds per cell; every run makes at
// least this many rounds, so best_ns_geomean covers each sub-seed once.
constexpr std::size_t kSeedCycle = 3;
constexpr std::size_t kAccessSamples = 512;

// Seeded config_at indices must launch on the simulator; xgemm ones must
// also satisfy xgemm::valid. Returns false on the first violation.
bool sample_launches(const registry::entry& family,
                     const registry::input_size& size,
                     const ocls::device& dev, const atf::search_space& sp,
                     std::uint64_t seed, std::string& why) {
  auto cost = family.make_cost(size, dev);
  atf::common::xoshiro256 rng(seed);
  for (std::size_t i = 0; i < kValiditySamples; ++i) {
    const std::uint64_t index = sp.random_index(rng);
    const atf::configuration c = sp.config_at(index);
    try {
      (void)cost(c);
    } catch (const atf::evaluation_error& error) {
      why = "index " + std::to_string(index) + " fails to launch: " +
            error.what();
      return false;
    }
    if (family.name == "xgemm") {
      const atf::kernels::xgemm::problem prob{size.dims[0], size.dims[1],
                                              size.dims[2]};
      if (!atf::kernels::xgemm::valid(
              prob, xgemm_params(c), atf::kernels::xgemm::size_mode::general,
              atf::kernels::xgemm::device_limits::of(dev.profile()))) {
        why = "index " + std::to_string(index) + " violates xgemm::valid";
        return false;
      }
    }
  }
  return true;
}

// Times seeded config_at and apply calls (traced mode only).
void time_access(const atf::search_space& sp, std::uint64_t seed,
                 workload_totals& totals, tracer& trace) {
  atf::common::xoshiro256 rng(seed);
  std::vector<std::uint64_t> indices(kAccessSamples);
  for (auto& index : indices) index = sp.random_index(rng);
  auto start = clock_type::now();
  for (const std::uint64_t index : indices) (void)sp.config_at(index);
  auto end = clock_type::now();
  trace.add("core.config_at", start, end);
  totals.config_at_ns.push_back(micros(start, end) * 1e3 /
                                static_cast<double>(kAccessSamples));
  start = clock_type::now();
  for (const std::uint64_t index : indices) sp.apply(index);
  end = clock_type::now();
  trace.add("core.apply", start, end);
  totals.apply_ns.push_back(micros(start, end) * 1e3 /
                            static_cast<double>(kAccessSamples));
}

// Tunes the cells once. Round r tunes every cell with sub-seed r % kSeedCycle.
// The first round of each sub-seed runs the correctness checks and records
// the best costs; later rounds with the same sub-seed must reproduce them.
// Wall and CPU time cover generation and tuning only, not the checks.
void run_round(const std::vector<tune_cell>& cells, const ocls::device& dev,
               const run_options& opts, std::size_t round,
               workload_totals& totals, run_result& result, tracer& trace) {
  const std::size_t sub = round % kSeedCycle;
  const bool first_round = round < kSeedCycle;
  scoped_span round_span(trace, "round");
  double setup = 0.0, tune_s = 0.0, cpu = 0.0, gen_traced = 0.0,
         propose_sum = 0.0, cost_sum = 0.0;
  std::uint64_t turns = 0;
  std::vector<double> turn_us;  // every turn of this round

  for (std::size_t ci = 0; ci < cells.size(); ++ci) {
    const tune_cell& cl = cells[ci];
    scoped_span cell_span(trace, "cell " + cl.family + " " + cl.size);
    const registry::entry* family = registry::find(cl.family);
    const auto size = registry::input_size::parse(cl.size);
    const std::uint64_t seed = mix_seed(opts.seed, ci * kSeedCycle + sub);

    atf::tuner t;
    t.tuning_parameters(family->make_groups(size, dev.profile()));
    // Traced first round: the resident-set peak while generating, against
    // the resident set before it.
    std::optional<rss_sampler> rss;
    if (round == 0 && trace.enabled()) rss.emplace();
    const double rss_before_mb = rss ? rss->peak() : 0.0;
    double cpu_start = cpu_seconds();
    const auto gen_start = clock_type::now();
    const atf::search_space& sp = t.space();
    const auto gen_end = clock_type::now();
    cpu += cpu_seconds() - cpu_start;
    const double gen_peak_mb = rss ? rss->stop() : 0.0;
    const double gen = micros(gen_start, gen_end) * 1e-6;
    setup += gen;
    trace.add("core.generate", gen_start, gen_end);

    if (trace.enabled()) {
      gen_traced += gen;
      totals.generated_configs += static_cast<double>(sp.size());
      totals.generate_total_s += gen;
      if (round == 0) {
        const double mb = static_cast<double>(sp.memory_bytes()) / 1048576.0;
        totals.space_mb += mb;
        if (mb > totals.largest_space_mb) {
          totals.largest_space_mb = mb;
          totals.peak_over_space = (gen_peak_mb - rss_before_mb) / mb;
        }
        time_access(sp, mix_seed(seed, 1), totals, trace);
      }
    }

    std::string why;
    if (first_round &&
        !sample_launches(*family, size, dev, sp, mix_seed(seed, 2), why)) {
      result.fail_check(cl.family + " " + cl.size + ": " + why);
    }

    tune_probe probe;
    probe.trace = &trace;
    auto cost = family->make_cost(size, dev);
    auto wrapped_cost = [&probe, &cost, &trace](const atf::configuration& c) {
      const auto start = clock_type::now();
      const double value = cost(c);
      const auto end = clock_type::now();
      probe.min_cost = std::min(probe.min_cost, value);
      if (trace.enabled()) {
        const double us = micros(start, end);
        probe.cost_us.push_back(us);
        probe.turn_cost_us += us;
        trace.add("kernels.cost", start, end);
      }
      return value;
    };

    t.search_technique(std::make_unique<timed_technique>(
        registry::make_technique(cl.technique, seed), probe));
    t.abort_condition(atf::cond::evaluations(cl.budget));
    t.cache_evaluations(true);
    cpu_start = cpu_seconds();
    const auto tune_start = clock_type::now();
    const auto outcome = [&] {
      scoped_span tune_span(trace, "tune");
      return t.tune(wrapped_cost);
    }();
    tune_s += seconds_since(tune_start);
    cpu += cpu_seconds() - cpu_start;

    // Operations: every loop turn. Over-budget turns of an exhaustive sweep
    // (proposals past the end of a finite space) are the known wrap-around
    // fault and count as failed.
    const std::uint64_t cell_turns = probe.turn_us.size();
    turns += cell_turns;
    result.attempted += cell_turns;
    std::uint64_t cell_failed = outcome.failed_evaluations;
    if (cl.technique == "exhaustive") {
      cell_failed += probe.repeats;
    }
    const std::string label = cl.family + " " + cl.size;
    // A cell uses its whole budget, except that an exhaustive sweep may stop
    // after one pass over a smaller space; any turn past that pass is a
    // counted repeat.
    const std::uint64_t expected_turns =
        cl.technique == "exhaustive"
            ? std::min<std::uint64_t>(cl.budget, sp.size()) + probe.repeats
            : cl.budget;
    if (cell_turns != expected_turns || cell_turns > cl.budget) {
      result.fail_check(label + ": " + std::to_string(cell_turns) +
                        " turns for a budget of " +
                        std::to_string(cl.budget));
    }
    if (!outcome.has_best() || *outcome.best_cost != probe.min_cost) {
      result.fail_check(label + ": reported best differs from the minimum "
                        "seen through the cost function");
      cell_failed = cell_turns;
    } else if (first_round) {
      if (!family->reference_check(size, dev, outcome.best_configuration())) {
        result.fail_check(label + ": best fails reference_check");
        cell_failed = cell_turns;
      }
      totals.best_ns.push_back(*outcome.best_cost);
    } else if (*outcome.best_cost != totals.best_ns[sub * cells.size() + ci]) {
      result.fail_check(label + ": best differs between rounds of one seed");
      cell_failed = cell_turns;
    }
    // With the evaluation cache on, a re-proposal is the only way the
    // surrogate could measure a configuration twice.
    if (cl.technique == "surrogate" && probe.repeats != 0) {
      result.fail_check(label + ": surrogate re-proposed a measured config");
    }
    result.failed += std::min(cell_failed, cell_turns);

    turn_us.insert(turn_us.end(), probe.turn_us.begin(), probe.turn_us.end());
    totals.proposals += cell_turns;
    totals.repeats += probe.repeats;
    if (trace.enabled()) {
      propose_sum += sum(probe.propose_us) * 1e-6;
      cost_sum += sum(probe.cost_us) * 1e-6;
      totals.propose_us.insert(totals.propose_us.end(),
                               probe.propose_us.begin(),
                               probe.propose_us.end());
      totals.report_us.insert(totals.report_us.end(), probe.report_us.begin(),
                              probe.report_us.end());
      totals.cost_us.insert(totals.cost_us.end(), probe.cost_us.begin(),
                            probe.cost_us.end());
      totals.overhead_us.insert(totals.overhead_us.end(),
                                probe.overhead_us.begin(),
                                probe.overhead_us.end());
    }
  }

  totals.setup_s.push_back(setup);
  totals.wall_s.push_back(setup + tune_s);
  totals.ops_rate.push_back(static_cast<double>(turns) / tune_s);
  totals.cpu_s.push_back(cpu);
  totals.turn_p50_us.push_back(percentile(turn_us, 0.5));
  totals.turn_p99_us.push_back(percentile(turn_us, 0.99));
  if (trace.enabled()) {
    totals.generate_s.push_back(gen_traced);
    totals.propose_s.push_back(propose_sum);
    totals.cost_s.push_back(cost_sum);
  }
}

}  // namespace

run_result run_tune_cells(const std::vector<tune_cell>& cells,
                          const run_options& opts, std::size_t min_rounds,
                          tracer& trace) {
  const ocls::device dev = ocls::find_device("", "K20m");
  run_result result;
  workload_totals totals;
  const auto start = clock_type::now();
  // Whole rounds only, so the failed share is the same in every run: after
  // min_rounds, start another round while one more would still fit.
  for (std::size_t round = 0;; ++round) {
    run_round(cells, dev, opts, round, totals, result, trace);
    const double elapsed = seconds_since(start);
    const double mean_round = elapsed / static_cast<double>(round + 1);
    if (round + 1 >= min_rounds && elapsed + mean_round > opts.seconds) {
      break;
    }
  }

  auto& e2e = result.end_to_end;
  e2e["setup_s"] = {median(totals.setup_s), "s"};
  e2e["wall_s"] = {median(totals.wall_s), "s"};
  e2e["ops_per_s"] = {median(totals.ops_rate), "1/s"};
  e2e["op_p50_us"] = {median(totals.turn_p50_us), "us"};
  e2e["op_p99_us"] = {median(totals.turn_p99_us), "us"};
  e2e["best_ns_geomean"] = {geomean(totals.best_ns), "ns"};
  e2e["peak_rss_mb"] = {peak_rss_mb(), "MB"};
  e2e["cpu_s"] = {median(totals.cpu_s), "s"};

  if (trace.enabled()) {
    auto& l = result.layers;
    l["core.generate_s"] = {median(totals.generate_s), "s"};
    l["core.generate_ns_per_config"] = {
        totals.generate_total_s * 1e9 / totals.generated_configs, "ns"};
    l["core.space_mb"] = {totals.space_mb, "MB"};
    l["core.generate_peak_over_space"] = {totals.peak_over_space, "ratio"};
    l["core.config_at_ns"] = {sum(totals.config_at_ns) /
                                  static_cast<double>(totals.config_at_ns.size()),
                              "ns"};
    l["core.apply_ns"] = {sum(totals.apply_ns) /
                              static_cast<double>(totals.apply_ns.size()),
                          "ns"};
    l["core.loop_overhead_us"] = {median(totals.overhead_us), "us"};
    l["search.propose_us_p50"] = {percentile(totals.propose_us, 0.5), "us"};
    l["search.propose_us_p99"] = {percentile(totals.propose_us, 0.99), "us"};
    l["search.report_us_p50"] = {percentile(totals.report_us, 0.5), "us"};
    l["search.propose_s"] = {median(totals.propose_s), "s"};
    l["search.repeat_ratio"] = {static_cast<double>(totals.repeats) /
                                    static_cast<double>(totals.proposals),
                                "ratio"};
    l["kernels.cost_us_p50"] = {percentile(totals.cost_us, 0.5), "us"};
    l["kernels.cost_s"] = {median(totals.cost_s), "s"};
  }
  std::fprintf(stderr, "atfbench: %s: %zu round(s)\n", opts.workload.c_str(),
               totals.wall_s.size());
  return result;
}

run_result run_tune_large_space(const run_options& opts, tracer& trace) {
  // Random search at a small budget over three large spaces with different
  // constraint shapes: generation and space memory dominate.
  const std::vector<tune_cell> cells = {
      {"xgemm", "64x64x64", "random", 2000},
      {"stencil2d", "258x258x2", "random", 2000},
      {"reduce", "1048576", "random", 2000},
  };
  return run_tune_cells(cells, opts, kSeedCycle, trace);
}

const std::vector<tune_cell>& surrogate_small_cells() {
  // Surrogate search at budgets well below each space's size, plus an
  // exhaustive sweep of a finite space under a larger budget.
  static const std::vector<tune_cell> cells = {
      {"stencil2d", "66x66x1", "surrogate", 400},
      {"batched_gemm", "256x16x16x16", "surrogate", 400},
      {"conv2d", "32x32x5x5", "surrogate", 400},
      {"xgemm", "32x32x32", "surrogate", 400},
      {"spmv", "2048x16", "exhaustive", 1000},
  };
  return cells;
}

run_result run_tune_surrogate_small(const run_options& opts, tracer& trace) {
  // The search is single-threaded; on one CPU the generation pool's ~0.1 s
  // of small spaces costs its work, not the virtual machine's cross-CPU
  // wake-ups.
  const single_cpu_pin pin;
  return run_tune_cells(surrogate_small_cells(), opts, kSeedCycle, trace);
}

}  // namespace atfbench
