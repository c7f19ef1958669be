#pragma once
/// \file trace.hpp
/// \brief The benchmark's span recorder and the statistics it reports.
///
/// A span is one timed call into a layer: name, start, end, the span
/// that caused it and the benchmark pass (run id) it belongs to. Spans
/// are kept in memory while the run lasts and folded into per-layer
/// metrics (and written out) when it ends. The recorder is process-wide
/// because the probes that open spans (probes.cpp) sit on library call
/// paths and may fire on any thread, including wi_serve workers.

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  std::string name;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 = root
  std::uint64_t run = 0;     ///< benchmark pass; 0 = set-up
  double start_us = 0.0;     ///< since the recorder's epoch
  double end_us = 0.0;

  [[nodiscard]] double duration_us() const { return end_us - start_us; }
};

/// Process-wide span and counter store. Disabled, begin() returns 0 and
/// nothing is recorded.
class Recorder {
 public:
  static Recorder& global();

  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  [[nodiscard]] bool enabled() const {
    return enabled_.load(std::memory_order_relaxed);
  }
  void set_run(std::uint64_t run) { run_.store(run); }
  [[nodiscard]] std::uint64_t run() const { return run_.load(); }

  /// Opens a span on the calling thread. Its parent is the innermost
  /// span open on this thread or, on a thread with none (an engine pool
  /// worker), the span last marked ambient.
  std::uint64_t begin(const char* name);
  /// Closes span `id` on the calling thread (ignored when not open).
  void end(std::uint64_t id);
  /// Spans opened on threads with no open span get this parent.
  void set_ambient(std::uint64_t id) { ambient_.store(id); }

  /// Adds to a named counter of the current run.
  void count(const std::string& name, double value);

  [[nodiscard]] std::vector<Span> spans() const;
  [[nodiscard]] std::map<std::string, double> counters(
      std::uint64_t run) const;
  void clear();

 private:
  Recorder();
  [[nodiscard]] double now_us() const;

  std::atomic<bool> enabled_{false};
  std::atomic<std::uint64_t> run_{0};
  std::atomic<std::uint64_t> next_id_{1};
  std::atomic<std::uint64_t> ambient_{0};
  std::int64_t epoch_ns_ = 0;

  mutable std::mutex mutex_;  ///< guards the two containers below
  std::vector<Span> done_;
  std::map<std::pair<std::uint64_t, std::string>, double> counters_;
};

/// RAII span; a no-op while the recorder is disabled.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name)
      : id_(Recorder::global().begin(name)) {}
  ~ScopedSpan() {
    if (id_ != 0) Recorder::global().end(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  [[nodiscard]] std::uint64_t id() const { return id_; }

 private:
  std::uint64_t id_;
};

/// Self time of every span, in the order given: its duration minus the
/// union of its children's intervals, each child clipped to the parent.
/// Children on other threads may overlap; overlap is counted once, so a
/// self time is never negative.
[[nodiscard]] std::vector<double> self_times_us(const std::vector<Span>& spans);

/// Linear-interpolated percentile (q in [0, 100]) of unsorted samples.
[[nodiscard]] double percentile(std::vector<double> samples, double q);

/// The tail percentile a sample supports: the highest of p99.9, p99,
/// p90 and p50 that has at least ten samples beyond it. q is 0 when the
/// sample is too small even for p50 (under 20 samples); the value is
/// then the median, reported as such.
struct Tail {
  double q = 0.0;
  double value = 0.0;
  std::size_t samples = 0;
};
[[nodiscard]] Tail tail_percentile(const std::vector<double>& samples);

[[nodiscard]] double median(std::vector<double> samples);

}  // namespace perfbench
