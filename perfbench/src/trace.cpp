#include "trace.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <iterator>
#include <unordered_map>

namespace perfbench {
namespace {

std::int64_t steady_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Spans open on this thread, innermost last.
thread_local std::vector<Span> open_spans;

}  // namespace

Recorder::Recorder() : epoch_ns_(steady_ns()) {}

Recorder& Recorder::global() {
  static Recorder recorder;
  return recorder;
}

double Recorder::now_us() const {
  return static_cast<double>(steady_ns() - epoch_ns_) / 1e3;
}

std::uint64_t Recorder::begin(const char* name) {
  if (!enabled()) return 0;
  Span span;
  span.name = name;
  span.id = next_id_.fetch_add(1);
  span.parent = open_spans.empty() ? ambient_.load() : open_spans.back().id;
  span.run = run();
  span.start_us = now_us();
  open_spans.push_back(std::move(span));
  return open_spans.back().id;
}

void Recorder::end(std::uint64_t id) {
  // ScopedSpan closes innermost first, so `id` is normally at the back.
  const auto it = std::find_if(open_spans.rbegin(), open_spans.rend(),
                               [id](const Span& s) { return s.id == id; });
  if (it == open_spans.rend()) return;
  Span span = std::move(*it);
  open_spans.erase(std::next(it).base());
  span.end_us = now_us();
  const std::lock_guard<std::mutex> lock(mutex_);
  done_.push_back(std::move(span));
}

void Recorder::count(const std::string& name, double value) {
  if (!enabled()) return;
  const std::lock_guard<std::mutex> lock(mutex_);
  counters_[{run(), name}] += value;
}

std::vector<Span> Recorder::spans() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return done_;
}

std::map<std::string, double> Recorder::counters(std::uint64_t run) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::map<std::string, double> out;
  for (const auto& [key, value] : counters_) {
    if (key.first == run) out[key.second] = value;
  }
  return out;
}

void Recorder::clear() {
  const std::lock_guard<std::mutex> lock(mutex_);
  done_.clear();
  counters_.clear();
}

std::vector<double> self_times_us(const std::vector<Span>& spans) {
  std::unordered_map<std::uint64_t, std::vector<std::pair<double, double>>>
      children;
  std::unordered_map<std::uint64_t, const Span*> by_id;
  for (const Span& s : spans) by_id[s.id] = &s;
  for (const Span& s : spans) {
    const auto parent = by_id.find(s.parent);
    if (s.parent == 0 || parent == by_id.end()) continue;
    const double lo = std::max(s.start_us, parent->second->start_us);
    const double hi = std::min(s.end_us, parent->second->end_us);
    if (hi > lo) children[s.parent].emplace_back(lo, hi);
  }
  std::vector<double> out;
  out.reserve(spans.size());
  for (const Span& s : spans) {
    double covered = 0.0;
    auto it = children.find(s.id);
    if (it != children.end()) {
      auto& intervals = it->second;
      std::sort(intervals.begin(), intervals.end());
      double cursor = s.start_us;
      for (const auto& [lo, hi] : intervals) {
        const double from = std::max(lo, cursor);
        if (hi > from) {
          covered += hi - from;
          cursor = hi;
        }
      }
    }
    out.push_back(std::max(0.0, s.duration_us() - covered));
  }
  return out;
}

double percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double pos = q / 100.0 * static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  return samples[lo] + (pos - static_cast<double>(lo)) *
                           (samples[hi] - samples[lo]);
}

double median(std::vector<double> samples) {
  return percentile(std::move(samples), 50.0);
}

Tail tail_percentile(const std::vector<double>& samples) {
  Tail tail;
  tail.samples = samples.size();
  // Per-mille, so "ten samples beyond" is exact integer arithmetic.
  for (const std::size_t permille : {999, 990, 900, 500}) {
    if (samples.size() * (1000 - permille) >= 10 * 1000) {
      tail.q = static_cast<double>(permille) / 10.0;
      tail.value = percentile(samples, tail.q);
      return tail;
    }
  }
  tail.value = median(samples);
  return tail;
}

}  // namespace perfbench
