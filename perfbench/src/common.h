// Shared helpers of the repository benchmark: clocks, order statistics, the
// metric table every workload fills, and the span recorder of traced runs.
#ifndef PERFBENCH_COMMON_H
#define PERFBENCH_COMMON_H

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}
inline double ms_since(Clock::time_point from) { return ms_between(from, Clock::now()); }

/// Nearest-rank quantile (q in [0, 1]) of an unsorted sample; 0 when empty.
double quantile(std::vector<double> values, double q);
inline double median(std::vector<double> values) { return quantile(std::move(values), 0.5); }
double mean(const std::vector<double>& values);

/// The highest of {50, 75, 90, 95, 99, 99.9} with at least ten samples
/// beyond it (p50 when fewer than twenty samples exist), its value, and the
/// sample count it was taken over.
struct Tail {
  double percentile = 50.0;
  double value = 0.0;
  std::size_t samples = 0;
};
Tail tail_of(const std::vector<double>& values);

/// Latency over several measurement windows of one run: the median across
/// windows of each window's p50 and of each window's tail, so a window
/// disturbed by a neighbour on a shared host is outvoted.
struct Windowed {
  double p50 = 0.0;
  Tail tail;  ///< value = median of the window tails; samples = per window (min)
  std::size_t windows = 0;
};
Windowed windowed(const std::vector<std::vector<double>>& windows);

/// Splits a time-ordered sample into `count` consecutive, equal windows.
std::vector<std::vector<double>> split_windows(const std::vector<double>& values, int count);

struct Metric {
  double value = 0.0;
  std::string unit;
};

/// What one invocation reports: the metric table plus the correctness
/// tally, and free-form notes (tail percentiles, sample counts, noise
/// flags) that go to the run record but not to the result line.
struct Report {
  std::map<std::string, Metric> metrics;
  std::map<std::string, std::string> notes;  // value is raw JSON
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  void note(const std::string& key, const std::string& json) { notes[key] = json; }
  void note_windowed(const std::string& key, const Windowed& latency);
};

/// One recorded span: a call the benchmark made into a layer.
struct Span {
  std::string name;  ///< "<module>.<call>", e.g. "core.predict_batch"
  double start_ms = 0.0;
  double end_ms = 0.0;
  int parent = -1;  ///< index into the recorder's span list, -1 for roots
  std::int64_t request = -1;
};

/// In-memory span store of a traced run. Disabled recorders cost one
/// branch per call site. Thread-safe; spans are written out at exit.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

  bool enabled() const { return enabled_; }
  double now_ms() const { return ms_since(origin_); }
  double to_ms(Clock::time_point t) const { return ms_between(origin_, t); }

  /// Opens a span starting now and returns its index (-1 when disabled).
  int begin(const char* name, int parent = -1, std::int64_t request = -1);
  /// Closes a span opened by begin (no-op for -1).
  void end(int index);
  /// Records an already finished span; returns its index (-1 when disabled).
  int add(const char* name, double start_ms, double end_ms, int parent = -1,
          std::int64_t request = -1);

  /// Per-module self time in ms: each span's duration minus the part of its
  /// interval its children cover, summed by the module prefix of the span
  /// name (the text before the first '.').
  std::map<std::string, double> self_ms_by_module() const;

  /// Writes every span as one JSON object per line.
  bool write_jsonl(const std::string& path) const;

  std::size_t size() const;

 private:
  bool enabled_;
  Clock::time_point origin_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;  // guarded by mutex_
};

/// RAII span around one call; a child of `parent` when given.
class Scope {
 public:
  Scope(Tracer& tracer, const char* name, int parent = -1, std::int64_t request = -1)
      : tracer_(tracer), index_(tracer.begin(name, parent, request)) {}
  ~Scope() { tracer_.end(index_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  int index() const { return index_; }

 private:
  Tracer& tracer_;
  int index_;
};

/// Peak resident set size of this process in MiB.
double peak_rss_mb();

std::string json_string(const std::string& s);
std::string json_number(double v);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H
