// The serve_mixed workload: the shipped atf_served daemon, warm-started from
// a journal fixture that the daemon itself builds before timing, answers
// closed-loop `get`s over the warm keys on one connection while a second
// connection asks for unseen keys until each one is refined into a hit.
#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "atf/common/hash.hpp"
#include "atf/common/rng.hpp"
#include "atf/kernels/registry.hpp"
#include "atf/service/client.hpp"
#include "atf/service/service.hpp"
#include "atf/session/journal.hpp"
#include "atf/value.hpp"
#include "blasmini/gemm.hpp"
#include "bench.hpp"
#include "ocls/ocls.hpp"

extern char** environ;

namespace atfbench {
namespace {

namespace fs = std::filesystem;
namespace registry = atf::kernels::registry;
using atf::service::service_key;

constexpr const char* kDevice = "K20m";
constexpr std::uint64_t kRefineStep = 1200;
constexpr int kSetupStarts = 5;  // daemon starts before the serving one
// Connection 1 works in rounds of kRoundGets gets plus one stats request;
// a round lasts about 0.1 s or more. A run makes kRoundsPerSecond rounds per
// --seconds, a fixed amount of work, so that wall and CPU time measure it.
constexpr std::size_t kRoundGets = 4000;
constexpr double kRoundsPerSecond = 10.0;
constexpr std::size_t kReferenceSubset = 8;
constexpr auto kRetryInterval = std::chrono::milliseconds(25);
constexpr double kDeadlineS = 120.0;

// ~40 warm keys over all seven families; the fixture holds one refinement
// of kRefineStep random-search evaluations for each.
const std::vector<service_key>& fixture_keys() {
  static const std::vector<service_key> keys = [] {
    const std::vector<std::pair<std::string, std::vector<std::string>>>
        sizes = {
            {"saxpy", {"8192", "16384", "32768", "65536"}},
            {"reduce", {"4096", "8192", "16384", "24576", "32768", "65536"}},
            {"xgemm",
             {"16x16x8", "16x16x16", "16x16x32", "24x24x24", "32x16x16",
              "32x32x32"}},
            {"conv2d",
             {"16x16x3x3", "32x32x3x3", "32x32x5x5", "48x48x3x3", "48x48x5x5",
              "64x64x3x3"}},
            {"stencil2d",
             {"34x34x1", "34x34x2", "50x50x1", "50x50x2", "66x66x1",
              "66x66x2"}},
            {"spmv",
             {"512x4", "1024x8", "2048x16", "4096x8", "4096x32", "8192x16"}},
            {"batched_gemm",
             {"32x16x16x16", "64x8x8x8", "64x16x16x16", "128x8x8x8",
              "128x16x16x16", "256x16x16x16"}},
        };
    std::vector<service_key> out;
    for (const auto& [kernel, list] : sizes) {
      for (const std::string& size : list) {
        out.push_back({kernel, kDevice, size});
      }
    }
    return out;
  }();
  return keys;
}

// Keys the fixture lacks: two take the blasmini::gemm_executor path, the
// rest the registry path.
const std::vector<service_key>& unseen_keys() {
  static const std::vector<service_key> keys = {
      {"xgemm", kDevice, "16x32x16"},
      {"xgemm", kDevice, "32x16x32"},
      {"saxpy", kDevice, "131072"},
      {"reduce", kDevice, "131072"},
      {"conv2d", kDevice, "64x64x5x5"},
      {"stencil2d", kDevice, "98x98x1"},
      {"spmv", kDevice, "16384x8"},
      {"batched_gemm", kDevice, "96x16x16x16"},
  };
  return keys;
}

std::string get_line(const service_key& key) {
  atf::service::request r;
  r.operation = atf::service::request::op::get;
  r.key = key;
  return atf::service::serialize_request(r);
}

// One atf_served child process; the destructor stops it and waits.
class daemon_process {
public:
  daemon_process(const std::string& binary,
                 const std::vector<std::string>& args,
                 const std::string& log_path) {
    std::vector<char*> argv;
    argv.push_back(const_cast<char*>(binary.c_str()));
    for (const std::string& a : args) {
      argv.push_back(const_cast<char*>(a.c_str()));
    }
    argv.push_back(nullptr);
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_addopen(&actions, STDOUT_FILENO,
                                     log_path.c_str(),
                                     O_WRONLY | O_CREAT | O_APPEND, 0644);
    posix_spawn_file_actions_adddup2(&actions, STDOUT_FILENO, STDERR_FILENO);
    const int rc = posix_spawn(&pid_, binary.c_str(), &actions, nullptr,
                               argv.data(), environ);
    posix_spawn_file_actions_destroy(&actions);
    if (rc != 0) {
      throw std::runtime_error("cannot start " + binary);
    }
  }
  ~daemon_process() { stop(); }
  daemon_process(const daemon_process&) = delete;
  daemon_process& operator=(const daemon_process&) = delete;

  [[nodiscard]] int pid() const noexcept { return pid_; }

  [[nodiscard]] bool exited() {
    if (pid_ <= 0) return true;
    int status = 0;
    if (::waitpid(pid_, &status, WNOHANG) == pid_) {
      pid_ = -1;
      return true;
    }
    return false;
  }

  /// SIGTERM (the daemon drains its in-flight refine), then SIGKILL after
  /// 30 s; always reaps the child.
  void stop() {
    if (pid_ <= 0) return;
    ::kill(pid_, SIGTERM);
    const auto start = clock_type::now();
    int status = 0;
    while (::waitpid(pid_, &status, WNOHANG) == 0) {
      if (seconds_since(start) > 30.0) {
        ::kill(pid_, SIGKILL);
        ::waitpid(pid_, &status, 0);
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    pid_ = -1;
  }

private:
  pid_t pid_ = -1;
};

struct serve_context {
  const run_options* opts = nullptr;
  std::uint64_t daemon_seed = 0;
  std::string journal_dir = "journals";
  std::string socket = "served.sock";

  [[nodiscard]] std::vector<std::string> daemon_args() const {
    return {"--socket",      socket,
            "--journal-dir", journal_dir,
            "--device",      kDevice,
            "--technique",   "random",
            "--refine-step", std::to_string(kRefineStep),
            "--seed",        std::to_string(daemon_seed)};
  }
};

// Starts the daemon and returns a connected client once `ping` answers.
std::unique_ptr<atf::service::service_client> connect_when_ready(
    daemon_process& daemon, const std::string& socket) {
  const auto start = clock_type::now();
  for (;;) {
    try {
      auto client = std::make_unique<atf::service::service_client>(socket);
      if (client->ping()) return client;
    } catch (const atf::service::service_error&) {
    }
    if (daemon.exited()) {
      throw std::runtime_error("atf_served exited during start-up");
    }
    if (seconds_since(start) > kDeadlineS) {
      throw std::runtime_error("atf_served did not answer ping");
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
}

std::map<std::string, std::uint64_t> stats_of(
    atf::service::service_client& client) {
  const auto reply = client.stats();
  if (!reply.ok) throw std::runtime_error("stats failed: " + reply.error);
  return reply.counters;
}

// Polls stats until the refiner has nothing queued or running and every
// refine since `base` has published its snapshot (the refine counters move
// before the snapshot does, one snapshot version per refine).
std::map<std::string, std::uint64_t> wait_refiner_idle(
    atf::service::service_client& client,
    std::map<std::string, std::uint64_t> base) {
  const auto start = clock_type::now();
  for (;;) {
    auto s = stats_of(client);
    const std::uint64_t done = s["refines"] + s["failed_refines"];
    if (s["pending"] == 0 && s["enqueued"] == done &&
        s["snapshot_version"] - base["snapshot_version"] ==
            done - base["refines"] - base["failed_refines"]) {
      return s;
    }
    if (seconds_since(start) > kDeadlineS) {
      throw std::runtime_error("atf_served refiner did not go idle");
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
}

// The fixture: the shipped daemon refines every fixture key exactly once.
void build_fixture(const serve_context& ctx, run_result& result) {
  fs::remove_all(ctx.journal_dir);
  fs::create_directories(ctx.journal_dir);
  fs::remove(ctx.socket);
  daemon_process daemon(ctx.opts->served, ctx.daemon_args(), "served.log");
  auto client = connect_when_ready(daemon, ctx.socket);
  const auto base = stats_of(*client);
  for (const service_key& key : fixture_keys()) {
    const auto reply = client->get(key);
    if (!reply.ok || reply.hit || !reply.enqueued) {
      throw std::runtime_error("fixture key " + key.to_string() +
                               " was not enqueued: " + reply.raw);
    }
  }
  auto s = wait_refiner_idle(*client, base);
  if (s["refines"] != fixture_keys().size() || s["failed_refines"] != 0) {
    result.fail_check("fixture: " + std::to_string(s["refines"]) +
                      " refines for " +
                      std::to_string(fixture_keys().size()) + " keys");
  }
  std::fprintf(stderr, "atfbench: fixture: %" PRIu64 " keys, %" PRIu64
               " records\n", s["keys"], s["records"]);
}

std::string hash_hex(std::uint64_t hash) {
  char text[17];
  std::snprintf(text, sizeof text, "%016" PRIx64, hash);
  return text;
}

// Checks one hit reply against the key's journal and the cost model:
// the scalar is reproduced by re-evaluating the configuration, it is <= every
// valid journal cost, and (when asked) the configuration passes the
// family's reference_check.
std::string check_hit(const service_key& key, const std::string& raw,
                      const std::string& journal_dir, const ocls::device& dev,
                      bool reference) {
  const auto reply = atf::service::parse_get_reply(raw);
  if (!reply.ok || !reply.hit) return "not a hit: " + raw;
  const auto journal = atf::session::read_journal(
      journal_dir + "/" + key.file_stem() + ".jsonl");
  const atf::session::tuning_record* match = nullptr;
  for (const auto& record : journal.records) {
    if (record.valid && record.scalar < reply.scalar) {
      return "a journal cost is below the served scalar";
    }
    if (record.valid && hash_hex(record.config_hash) == reply.hash) {
      match = &record;
    }
  }
  if (match == nullptr) return "served configuration is not in the journal";
  if (match->values.size() != reply.config.size()) {
    return "served configuration has the wrong arity";
  }
  for (std::size_t i = 0; i < reply.config.size(); ++i) {
    if (reply.config[i].first != match->values[i].first ||
        reply.config[i].second != atf::to_string(match->values[i].second)) {
      return "served configuration differs from the journal record";
    }
  }
  const registry::entry* family = registry::find(key.kernel);
  const auto size = registry::input_size::parse(key.size);
  const atf::configuration config = match->to_configuration();
  if (family->make_cost(size, dev)(config) != reply.scalar) {
    return "re-evaluating the configuration does not reproduce the scalar";
  }
  if (reference && !family->reference_check(size, dev, config)) {
    return "served configuration fails reference_check";
  }
  return {};
}

struct live_samples {
  std::vector<double> hit_rtt_us;  ///< every hit round trip, both connections
  std::vector<double> round_rate;    ///< connection 1: requests/s per round
  std::vector<double> round_p50_us;  ///< connection 1: hit p50 per round
  std::vector<double> round_p99_us;  ///< connection 1: hit p99 per round
  std::size_t rounds = 0;            ///< connection 1 rounds completed
  std::map<std::string, std::string> first_reply;  ///< key string -> raw
  std::map<std::string, std::uint64_t> hits_per_key;
  std::uint64_t requests = 0;
  std::uint64_t gets = 0;
  std::uint64_t hits = 0;
  std::uint64_t failed = 0;
};

// Connection 2: asks every unseen key, re-asking each at a fixed interval
// until it hits; `last_hit` gets the time of the last first hit.
void ask_unseen(const std::string& socket, live_samples& out,
                clock_type::time_point& last_hit, std::string& error) {
  try {
    atf::service::service_client client(socket);
    std::vector<bool> done(unseen_keys().size(), false);
    std::size_t remaining = done.size();
    const auto start = clock_type::now();
    auto next = start;
    while (remaining > 0) {
      for (std::size_t i = 0; i < done.size(); ++i) {
        if (done[i]) continue;
        const service_key& key = unseen_keys()[i];
        const auto t0 = clock_type::now();
        const std::string raw = client.round_trip(get_line(key));
        const auto t1 = clock_type::now();
        ++out.requests;
        ++out.gets;
        const auto reply = atf::service::parse_get_reply(raw);
        if (!reply.ok || reply.dropped || reply.unrefinable) {
          throw std::runtime_error("unseen key " + key.to_string() +
                                   " refused: " + raw);
        }
        if (reply.hit) {
          ++out.hits;
          out.hit_rtt_us.push_back(micros(t0, t1));
          out.first_reply[key.to_string()] = raw;
          ++out.hits_per_key[key.to_string()];
          done[i] = true;
          --remaining;
          last_hit = t1;
        }
      }
      if (seconds_since(start) > kDeadlineS) {
        throw std::runtime_error("unseen keys never became hits");
      }
      next += kRetryInterval;
      std::this_thread::sleep_until(next);
    }
  } catch (const std::exception& e) {
    error = e.what();
  }
}

// Zipf(1) popularity over the warm keys; one round of kRoundGets requests,
// replayed identically in every round. Popularity ranks are dealt to the
// families in turn, so every seed gives each family the same share of the
// traffic; the seed orders the sizes within each family and draws the
// stream.
std::vector<std::string> request_round(std::uint64_t seed,
                                       std::vector<std::string>& key_of) {
  atf::common::xoshiro256 rng(seed);
  std::vector<std::vector<const service_key*>> families;
  for (const service_key& key : fixture_keys()) {
    if (families.empty() || families.back().front()->kernel != key.kernel) {
      families.emplace_back();
    }
    families.back().push_back(&key);
  }
  for (auto& family : families) {
    for (std::size_t i = family.size(); i > 1; --i) {
      std::swap(family[i - 1], family[rng() % i]);
    }
  }
  std::vector<const service_key*> keys;  // by popularity rank
  for (std::size_t depth = 0; keys.size() < fixture_keys().size(); ++depth) {
    for (const auto& family : families) {
      if (depth < family.size()) keys.push_back(family[depth]);
    }
  }
  std::vector<double> cdf(keys.size());
  double total = 0.0;
  for (std::size_t r = 0; r < keys.size(); ++r) {
    total += 1.0 / static_cast<double>(r + 1);
    cdf[r] = total;
  }
  std::vector<std::string> lines;
  for (std::size_t i = 0; i < kRoundGets; ++i) {
    const double u = static_cast<double>(rng() >> 11) * 0x1.0p-53 * total;
    const std::size_t rank = static_cast<std::size_t>(
        std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
    const service_key& key = *keys[std::min(rank, keys.size() - 1)];
    lines.push_back(get_line(key));
    key_of.push_back(key.to_string());
  }
  return lines;
}

// In-process replays for the traced run: journal reads, service load,
// handle_line over connection 1's stream, and the unseen keys' refines
// through registry::tune and gemm_executor::tune with a journal set.
void replay_layers(const serve_context& ctx, const live_samples& live,
                   const std::vector<std::string>& round,
                   std::uint64_t refine_delta, run_result& result,
                   tracer& trace) {
  auto& l = result.layers;
  // session: read every journal of the fixture directory.
  std::vector<std::string> journals;
  double bytes = 0.0;
  for (const auto& entry : fs::directory_iterator(ctx.journal_dir)) {
    if (entry.path().extension() == ".jsonl") {
      journals.push_back(entry.path().string());
      bytes += static_cast<double>(entry.file_size());
    }
  }
  std::vector<double> read_s;
  double records = 0.0;
  for (int rep = 0; rep < 3; ++rep) {
    scoped_span span(trace, "session.read_journals");
    const auto start = clock_type::now();
    records = 0.0;
    for (const std::string& path : journals) {
      records += static_cast<double>(
          atf::session::read_journal(path).records.size());
    }
    read_s.push_back(seconds_since(start));
  }
  const double mb = bytes / 1048576.0;
  l["session.journal_mb"] = {mb, "MB"};
  l["session.journal_read_mb_per_s"] = {mb / median(read_s), "MB/s"};
  l["session.journal_read_records_per_s"] = {records / median(read_s), "1/s"};

  // service: load the same directory, then replay connection 1's stream.
  atf::service::service_options sopts;
  sopts.journal_dir = ctx.journal_dir;
  auto no_refine = [](const service_key&, const std::string&) {
    return false;
  };
  std::vector<double> load_s;
  std::unique_ptr<atf::service::tuning_service> service;
  for (int rep = 0; rep < 3; ++rep) {
    service = std::make_unique<atf::service::tuning_service>(sopts, no_refine);
    scoped_span span(trace, "service.load");
    const auto start = clock_type::now();
    (void)service->load();
    load_s.push_back(seconds_since(start));
  }
  l["service.load_s"] = {median(load_s), "s"};
  std::vector<double> handle_us;
  handle_us.reserve(live.rounds * (round.size() + 1));
  for (std::size_t r = 0; r < live.rounds; ++r) {
    for (const std::string& line : round) {
      const auto t0 = clock_type::now();
      const std::string reply = service->handle_line(line);
      const auto t1 = clock_type::now();
      trace.add("service.handle_line", t0, t1);
      handle_us.push_back(micros(t0, t1));
    }
  }
  const double handle_p50 = percentile(handle_us, 0.5);
  l["service.handle_line_us_p50"] = {handle_p50, "us"};
  l["service.handle_line_us_p99"] = {percentile(handle_us, 0.99), "us"};
  l["service.transport_us_p50"] = {
      percentile(live.hit_rtt_us, 0.5) - handle_p50, "us"};
  l["service.hit_ratio"] = {
      static_cast<double>(live.hits) / static_cast<double>(live.gets),
      "ratio"};
  l["service.refines_per_new_key"] = {
      static_cast<double>(refine_delta) /
          static_cast<double>(unseen_keys().size()),
      "ratio"};

  // Refines, replayed as the daemon runs them, into fresh journals.
  const ocls::device dev = ocls::find_device("", kDevice);
  fs::create_directories("replay");
  std::vector<double> refine_s, xgemm_s, append_us;
  for (const service_key& key : unseen_keys()) {
    const std::string journal = "replay/" + key.file_stem() + ".jsonl";
    fs::remove(journal);
    const std::uint64_t key_seed =
        ctx.daemon_seed ^ atf::common::fnv1a(key.to_string());
    const auto start = clock_type::now();
    if (key.kernel == "xgemm") {
      scoped_span span(trace, "blasmini.xgemm_refine " + key.size);
      const auto size = registry::input_size::parse(key.size);
      blasmini::tune_options topts;
      topts.technique = blasmini::tune_technique::random;
      topts.evaluations = kRefineStep;
      topts.seed = key_seed;
      topts.journal = journal;
      blasmini::gemm_executor gemm(dev);
      (void)gemm.tune(size.dims[0], size.dims[1], size.dims[2], topts);
      xgemm_s.push_back(seconds_since(start));
    } else {
      scoped_span span(trace, "service.refine " + key.to_string());
      registry::tune_settings settings;
      settings.technique = "random";
      settings.evaluations = kRefineStep;
      settings.seed = key_seed;
      settings.journal = journal;
      (void)registry::tune(*registry::find(key.kernel),
                           registry::input_size::parse(key.size), dev,
                           settings);
      refine_s.push_back(seconds_since(start));
    }
    // session: append the refine's records to a fresh journal one by one.
    const auto replayed = atf::session::read_journal(journal);
    const std::string copy = journal + ".append";
    fs::remove(copy);
    atf::session::journal_writer writer(copy);
    for (const auto& record : replayed.records) {
      const auto t0 = clock_type::now();
      writer.append(record);
      const auto t1 = clock_type::now();
      append_us.push_back(micros(t0, t1));
    }
  }
  l["service.refine_s_p50"] = {median(refine_s), "s"};
  l["blasmini.xgemm_refine_s_p50"] = {median(xgemm_s), "s"};
  l["session.append_us_p50"] = {percentile(append_us, 0.5), "us"};
  fs::remove_all("replay");
}

}  // namespace

run_result run_serve_mixed(const run_options& opts, tracer& trace) {
  // One CPU: a round trip is then two context switches instead of two
  // cross-CPU wake-ups, whose cost in a virtual machine follows the host's
  // load. The daemon inherits the pin.
  const single_cpu_pin pin;
  run_result result;
  serve_context ctx;
  ctx.opts = &opts;
  ctx.daemon_seed = mix_seed(opts.seed, 0x5e) & 0xffffffffULL;
  {
    scoped_span span(trace, "fixture");
    build_fixture(ctx, result);
  }

  // setup_s: daemon start (warm start over the fixture) to the first ping
  // reply, measured over several starts; the last start keeps serving.
  std::vector<double> setup_s;
  for (int i = 0; i < kSetupStarts; ++i) {
    scoped_span span(trace, "setup");
    const auto start = clock_type::now();
    daemon_process daemon(opts.served, ctx.daemon_args(), "served.log");
    (void)connect_when_ready(daemon, ctx.socket);
    setup_s.push_back(seconds_since(start));
  }
  const auto serve_start = clock_type::now();
  daemon_process daemon(opts.served, ctx.daemon_args(), "served.log");
  auto client = connect_when_ready(daemon, ctx.socket);
  setup_s.push_back(seconds_since(serve_start));

  std::vector<std::string> key_of;
  const std::vector<std::string> round =
      request_round(mix_seed(opts.seed, 0x9e7), key_of);
  const std::string stats_line = R"({"op":"stats"})";
  const auto stats_start = stats_of(*client);

  live_samples live, unseen;
  clock_type::time_point last_unseen_hit = clock_type::now();
  std::string unseen_error;
  const std::size_t rounds = std::max<std::size_t>(
      1, static_cast<std::size_t>(
             std::llround(opts.seconds * kRoundsPerSecond)));
  const auto ops_start = clock_type::now();
  std::thread second([&] {
    ask_unseen(ctx.socket, unseen, last_unseen_hit, unseen_error);
  });

  clock_type::time_point last_op = ops_start;
  {
    scoped_span span(trace, "ops");
    while (live.rounds < rounds) {
      const auto round_start = clock_type::now();
      const std::size_t first_sample = live.hit_rtt_us.size();
      for (std::size_t i = 0; i < round.size(); ++i) {
        const auto t0 = clock_type::now();
        const std::string raw = client->round_trip(round[i]);
        const auto t1 = clock_type::now();
        trace.add("get", t0, t1);
        ++live.requests;
        ++live.gets;
        auto [it, first] = live.first_reply.try_emplace(key_of[i], raw);
        if (!first && it->second != raw) {
          ++live.failed;  // a warm key's answer changed while serving
        } else {
          ++live.hits;
          ++live.hits_per_key[key_of[i]];
          live.hit_rtt_us.push_back(micros(t0, t1));
        }
        last_op = t1;
      }
      ++live.rounds;
      (void)client->round_trip(stats_line);
      ++live.requests;
      last_op = clock_type::now();
      live.round_rate.push_back(static_cast<double>(round.size() + 1) /
                                (micros(round_start, last_op) * 1e-6));
      const std::vector<double> round_rtt(
          live.hit_rtt_us.begin() + static_cast<std::ptrdiff_t>(first_sample),
          live.hit_rtt_us.end());
      live.round_p50_us.push_back(percentile(round_rtt, 0.5));
      live.round_p99_us.push_back(percentile(round_rtt, 0.99));
    }
  }
  second.join();
  const auto end = std::max(last_op, last_unseen_hit);
  const double wall = micros(serve_start, end) * 1e-6;
  if (!unseen_error.empty()) {
    throw std::runtime_error("unseen keys: " + unseen_error);
  }

  auto stats_end = wait_refiner_idle(*client, stats_start);
  // The unseen keys' answers may have improved by a later refine; check the
  // final ones, which match the journals as they stand now.
  for (const service_key& key : unseen_keys()) {
    unseen.first_reply[key.to_string()] = client->round_trip(get_line(key));
    ++unseen.requests;
    ++unseen.hits_per_key[key.to_string()];
  }
  const double rss = peak_rss_mb(daemon.pid());
  const double cpu = cpu_seconds(daemon.pid());
  daemon.stop();
  if (stats_end["dropped_refinements"] != stats_start.at("dropped_refinements")) {
    result.fail_check("serve: refinements were dropped");
  }
  if (stats_end["failed_refines"] != stats_start.at("failed_refines")) {
    result.fail_check("serve: a refinement failed");
  }

  // Correctness of every distinct answer; a failing key fails its hits.
  const ocls::device dev = ocls::find_device("", kDevice);
  atf::common::xoshiro256 pick(mix_seed(opts.seed, 0xc4ec));
  std::vector<std::string> reference_keys;
  for (std::size_t i = 0; i < kReferenceSubset; ++i) {
    reference_keys.push_back(
        fixture_keys()[pick() % fixture_keys().size()].to_string());
  }
  std::vector<double> warm_best;
  auto check_all = [&](const std::vector<service_key>& keys,
                       live_samples& samples, bool all_reference) {
    for (const service_key& key : keys) {
      const std::string name = key.to_string();
      const auto it = samples.first_reply.find(name);
      if (it == samples.first_reply.end()) continue;  // never requested
      const bool reference =
          all_reference || std::find(reference_keys.begin(),
                                     reference_keys.end(),
                                     name) != reference_keys.end();
      const std::string why =
          check_hit(key, it->second, ctx.journal_dir, dev, reference);
      if (!why.empty()) {
        result.fail_check("serve: " + name + ": " + why);
        samples.failed += samples.hits_per_key[name];
      } else if (!all_reference) {
        warm_best.push_back(
            atf::service::parse_get_reply(it->second).scalar);
      }
    }
  };
  check_all(fixture_keys(), live, false);
  check_all(unseen_keys(), unseen, true);
  if (live.failed != 0) {
    result.fail_check("serve: " + std::to_string(live.failed) +
                      " warm answers failed");
  }

  result.attempted = live.requests + unseen.requests;
  result.failed = live.failed + unseen.failed;
  std::vector<double> rtt = live.hit_rtt_us;
  rtt.insert(rtt.end(), unseen.hit_rtt_us.begin(), unseen.hit_rtt_us.end());
  auto& e2e = result.end_to_end;
  e2e["setup_s"] = {median(setup_s), "s"};
  e2e["wall_s"] = {wall, "s"};
  // Connection 1's rounds: median throughput and median per-round
  // percentiles, so that a burst of scheduling noise moves one round only.
  e2e["ops_per_s"] = {median(live.round_rate), "1/s"};
  e2e["op_p50_us"] = {median(live.round_p50_us), "us"};
  e2e["op_p99_us"] = {median(live.round_p99_us), "us"};
  e2e["best_ns_geomean"] = {geomean(warm_best), "ns"};
  e2e["peak_rss_mb"] = {rss, "MB"};
  e2e["cpu_s"] = {cpu, "s"};
  std::fprintf(stderr,
               "atfbench: serve_mixed: %" PRIu64 " requests, %" PRIu64
               " refines for %zu unseen keys\n",
               result.attempted,
               stats_end["refines"] - stats_start.at("refines"),
               unseen_keys().size());

  if (trace.enabled()) {
    live.gets += unseen.gets;
    live.hits += unseen.hits;
    live.hit_rtt_us = rtt;
    replay_layers(ctx, live, round,
                  stats_end["refines"] - stats_start.at("refines"), result,
                  trace);
  }
  return result;
}

}  // namespace atfbench
