#include "bench.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <numeric>
#include <sstream>
#include <stdexcept>

#include <time.h>
#include <unistd.h>

namespace atfbench {

double percentile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double geomean(const std::vector<double>& values) {
  if (values.empty()) {
    return 0.0;
  }
  double log_sum = 0.0;
  for (const double v : values) {
    log_sum += std::log(v);
  }
  return std::exp(log_sum / static_cast<double>(values.size()));
}

double sum(const std::vector<double>& values) {
  return std::accumulate(values.begin(), values.end(), 0.0);
}

namespace {

std::string proc_file(int pid, const char* name) {
  std::ostringstream path;
  path << "/proc/";
  if (pid == 0) {
    path << "self";
  } else {
    path << pid;
  }
  path << '/' << name;
  std::ifstream in(path.str());
  if (!in) {
    throw std::runtime_error("cannot read " + path.str());
  }
  std::stringstream text;
  text << in.rdbuf();
  return text.str();
}

}  // namespace

double peak_rss_mb(int pid) {
  std::istringstream in(proc_file(pid, "status"));
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MB
    }
  }
  throw std::runtime_error("no VmHWM line in /proc status");
}

double cpu_seconds(int pid) {
  if (pid == 0) {
    timespec ts{};
    ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
  }
  // Fields 14 and 15 of /proc/<pid>/stat, after the parenthesised comm.
  const std::string stat = proc_file(pid, "stat");
  std::istringstream in(stat.substr(stat.rfind(')') + 2));
  std::string field;
  unsigned long long utime = 0, stime = 0;
  for (int i = 3; i <= 15 && in >> field; ++i) {
    if (i == 14) utime = std::stoull(field);
    if (i == 15) stime = std::stoull(field);
  }
  return static_cast<double>(utime + stime) /
         static_cast<double>(::sysconf(_SC_CLK_TCK));
}

namespace {

double resident_mb() {
  std::ifstream in("/proc/self/statm");
  double pages_total = 0.0, pages_resident = 0.0;
  in >> pages_total >> pages_resident;
  return pages_resident * static_cast<double>(::sysconf(_SC_PAGESIZE)) /
         1048576.0;
}

}  // namespace

rss_sampler::rss_sampler() {
  peak_mb_ = resident_mb();
  thread_ = std::thread([this] {
    while (!stop_.load()) {
      const double now = resident_mb();
      if (now > peak_mb_.load()) peak_mb_ = now;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
}

rss_sampler::~rss_sampler() { (void)stop(); }

double rss_sampler::stop() {
  stop_ = true;
  if (thread_.joinable()) thread_.join();
  const double now = resident_mb();
  if (now > peak_mb_.load()) peak_mb_ = now;
  return peak_mb_.load();
}

single_cpu_pin::single_cpu_pin() {
  if (::sched_getaffinity(0, sizeof saved_, &saved_) != 0) return;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &saved_)) {
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(cpu, &one);
      pinned_ = ::sched_setaffinity(0, sizeof one, &one) == 0;
      return;
    }
  }
}

single_cpu_pin::~single_cpu_pin() {
  if (pinned_) (void)::sched_setaffinity(0, sizeof saved_, &saved_);
}

int tracer::begin(const std::string& name) {
  if (!enabled_) {
    return -1;
  }
  const double now = at_us(clock_type::now());
  spans_.push_back({name, now, now, open_.empty() ? -1 : open_.back()});
  open_.push_back(static_cast<int>(spans_.size() - 1));
  return open_.back();
}

void tracer::end(int id) {
  if (id < 0) {
    return;
  }
  spans_[static_cast<std::size_t>(id)].end_us = at_us(clock_type::now());
  if (!open_.empty() && open_.back() == id) {
    open_.pop_back();
  }
}

void tracer::add(const std::string& name, clock_type::time_point start,
                 clock_type::time_point end) {
  if (!enabled_) {
    return;
  }
  spans_.push_back(
      {name, at_us(start), at_us(end), open_.empty() ? -1 : open_.back()});
}

void tracer::write_chrome_json(const std::string& path) const {
  std::ofstream out(path);
  out << "{\"traceEvents\":[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const span& s = spans_[i];
    out << (i == 0 ? "" : ",") << "\n{\"name\":\"" << s.name
        << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":" << s.start_us
        << ",\"dur\":" << (s.end_us - s.start_us) << ",\"args\":{\"id\":" << i
        << ",\"parent\":" << s.parent << "}}";
  }
  out << "\n]}\n";
  if (!out) {
    throw std::runtime_error("cannot write trace file " + path);
  }
}

}  // namespace atfbench
