#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <numeric>
#include <utility>

namespace perfbench {

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const std::size_t index =
      static_cast<std::size_t>(std::clamp(rank, 1.0, static_cast<double>(values.size()))) - 1;
  return values[index];
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

Tail tail_of(const std::vector<double>& values) {
  Tail tail;
  tail.samples = values.size();
  for (double pct : {99.9, 99.0, 95.0, 90.0, 75.0, 50.0}) {
    const double beyond = static_cast<double>(values.size()) * (1.0 - pct / 100.0);
    if (beyond >= 10.0 || pct == 50.0) {
      tail.percentile = pct;
      tail.value = quantile(values, pct / 100.0);
      return tail;
    }
  }
  return tail;
}

Windowed windowed(const std::vector<std::vector<double>>& windows) {
  Windowed out;
  out.windows = windows.size();
  std::vector<double> p50s, tails;
  out.tail.samples = windows.empty() ? 0 : windows.front().size();
  out.tail.percentile = 99.9;
  for (const std::vector<double>& window : windows) {
    const Tail tail = tail_of(window);
    p50s.push_back(median(window));
    tails.push_back(tail.value);
    out.tail.samples = std::min(out.tail.samples, tail.samples);
    out.tail.percentile = std::min(out.tail.percentile, tail.percentile);
  }
  out.p50 = median(p50s);
  out.tail.value = median(tails);
  return out;
}

std::vector<std::vector<double>> split_windows(const std::vector<double>& values, int count) {
  std::vector<std::vector<double>> windows;
  for (int w = 0; w < count; ++w) {
    const std::size_t from = values.size() * static_cast<std::size_t>(w) / count;
    const std::size_t to = values.size() * static_cast<std::size_t>(w + 1) / count;
    if (to > from) windows.emplace_back(values.begin() + from, values.begin() + to);
  }
  return windows;
}

void Report::note_windowed(const std::string& key, const Windowed& latency) {
  note(key, "{\"p50\": " + json_number(latency.p50) + ", \"tail_percentile\": " +
                json_number(latency.tail.percentile) + ", \"tail\": " +
                json_number(latency.tail.value) + ", \"windows\": " +
                std::to_string(latency.windows) + ", \"samples_per_window\": " +
                std::to_string(latency.tail.samples) + "}");
}

int Tracer::begin(const char* name, int parent, std::int64_t request) {
  if (!enabled_) return -1;
  const double start = now_ms();
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(Span{name, start, start, parent, request});
  return static_cast<int>(spans_.size()) - 1;
}

void Tracer::end(int index) {
  if (index < 0) return;
  const double stop = now_ms();
  std::lock_guard<std::mutex> lock(mutex_);
  spans_[static_cast<std::size_t>(index)].end_ms = stop;
}

int Tracer::add(const char* name, double start_ms, double end_ms, int parent,
                std::int64_t request) {
  if (!enabled_) return -1;
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(Span{name, start_ms, end_ms, parent, request});
  return static_cast<int>(spans_.size()) - 1;
}

std::map<std::string, double> Tracer::self_ms_by_module() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::vector<std::pair<double, double>>> children(spans_.size());
  for (const Span& span : spans_)
    if (span.parent >= 0)
      children[static_cast<std::size_t>(span.parent)].emplace_back(span.start_ms,
                                                                    span.end_ms);
  std::map<std::string, double> self;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    // Union of the children's intervals, clipped to this span (children of
    // concurrent work may overlap each other).
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    double covered = 0.0;
    double reach = span.start_ms;
    for (const auto& [start, stop] : kids) {
      const double from = std::max(start, reach);
      const double to = std::min(stop, span.end_ms);
      if (to > from) covered += to - from;
      reach = std::max(reach, std::min(stop, span.end_ms));
    }
    const std::string module = span.name.substr(0, span.name.find('.'));
    self[module] += std::max(0.0, span.end_ms - span.start_ms - covered);
  }
  return self;
}

bool Tracer::write_jsonl(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::ofstream out(path);
  if (!out) return false;
  for (const Span& span : spans_) {
    out << "{\"name\": " << json_string(span.name) << ", \"start_ms\": "
        << json_number(span.start_ms) << ", \"end_ms\": " << json_number(span.end_ms)
        << ", \"parent\": " << span.parent << ", \"request\": " << span.request << "}\n";
  }
  return static_cast<bool>(out);
}

std::size_t Tracer::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_.size();
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace perfbench
