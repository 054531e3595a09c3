// The benchmark's own arithmetic: latency percentiles, the paper's
// frame-equivalent FPS conversion, and the span log whose self-time
// subtraction turns spans into a per-layer time ledger.
//
// Spans are recorded by the benchmark around calls into each layer's
// public functions; nothing inside the library is instrumented. Each
// thread owns one SpanLog, spans on one thread nest strictly (a child
// starts and ends inside its parent), and every span carries the id of
// the scan it serves, so the spans of one scan can be joined across
// threads and layers after the run.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "harness/paper_reference.hpp"

namespace omu::perfbench {

inline int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// ---- Percentiles ------------------------------------------------------------

/// Samples strictly above the nearest-rank `pct` percentile of `n` samples.
inline std::size_t samples_beyond(std::size_t n, double pct) {
  if (n == 0) return 0;
  // Nearest rank: the ceil(pct/100 * n)-th smallest sample (1-based).
  auto rank = static_cast<std::size_t>(std::ceil(pct / 100.0 * static_cast<double>(n) - 1e-9));
  rank = std::clamp<std::size_t>(rank, 1, n);
  return n - rank;
}

/// The highest percentile of {99.9, 99, 95, 90, 75, 50} that keeps at
/// least ten samples beyond it; 0 when even the median does not.
inline double tail_percentile(std::size_t n) {
  for (double pct : {99.9, 99.0, 95.0, 90.0, 75.0, 50.0}) {
    if (samples_beyond(n, pct) >= 10) return pct;
  }
  return 0.0;
}

/// Nearest-rank percentile of `values` (copied; the caller's order stays).
inline double percentile(std::vector<double> values, double pct) {
  if (values.empty()) throw std::invalid_argument("percentile of no samples");
  const std::size_t rank = values.size() - samples_beyond(values.size(), pct);
  std::nth_element(values.begin(), values.begin() + (rank - 1), values.end());
  return values[rank - 1];
}

/// A reported tail percentile must keep ten samples beyond it, or it is an
/// anecdote rather than a percentile.
inline double reported_percentile(const std::vector<double>& values, double pct,
                                  const std::string& what) {
  if (samples_beyond(values.size(), pct) < 10) {
    throw std::runtime_error(what + ": p" + std::to_string(static_cast<int>(pct)) + " of " +
                             std::to_string(values.size()) +
                             " samples keeps fewer than 10 samples beyond it");
  }
  return percentile(values, pct);
}

/// The best (lowest) value of each work item over its repeats. A run
/// repeats identical inputs, and other tenants of a shared host slow some
/// repeats but never speed one up, so an item's fastest repeat is the
/// steadiest estimate of what it costs. Percentiles are then taken over
/// items, so a tail names costly items rather than a noisy moment.
class ItemBest {
 public:
  void add(std::size_t item, double value) {
    if (item >= best_.size()) best_.resize(item + 1, HUGE_VAL);
    best_[item] = std::min(best_[item], value);
    ++samples_;
  }

  /// The best value of every item seen, in item order.
  std::vector<double> values() const {
    std::vector<double> out;
    for (double v : best_) {
      if (v != HUGE_VAL) out.push_back(v);
    }
    return out;
  }
  /// Sum of the best values; the best time of one repeat of every item.
  double sum() const {
    double total = 0.0;
    for (double v : values()) total += v;
    return total;
  }
  std::size_t items() const { return values().size(); }
  std::size_t samples() const { return samples_; }

  /// The nearest-rank `pct` percentile over items, under the ten-beyond
  /// rule of reported_percentile.
  double percentile_over_items(double pct, const std::string& what) const {
    return reported_percentile(values(), pct, what);
  }

 private:
  std::vector<double> best_;
  std::size_t samples_ = 0;
};

// ---- Frame-equivalent FPS ---------------------------------------------------

/// The paper's throughput unit: voxel updates per second divided by the
/// updates of one 320x240 depth frame (harness::kVoxelUpdatesPerFrame).
inline double frame_fps(uint64_t voxel_updates, double seconds) {
  if (!(seconds > 0.0)) throw std::invalid_argument("frame_fps over an empty window");
  return harness::fps_from_update_rate(static_cast<double>(voxel_updates) / seconds);
}

// ---- Spans ------------------------------------------------------------------

inline constexpr uint32_t kNoParent = UINT32_MAX;

struct Span {
  const char* layer = "";   ///< "<module>.<call>", e.g. "map.apply" (a literal)
  uint64_t scan_id = 0;     ///< every span of one scan shares it
  uint32_t parent = kNoParent;  ///< index of the enclosing span in the same log
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t duration_ns() const { return end_ns - start_ns; }
};

/// One thread's spans, in start order; kept in memory until the run ends.
class SpanLog {
 public:
  explicit SpanLog(std::string thread) : thread_(std::move(thread)) { spans_.reserve(1 << 14); }

  /// Opens a span nested in the innermost open one; returns its index.
  uint32_t open(const char* layer, uint64_t scan_id) {
    const uint32_t parent = open_.empty() ? kNoParent : open_.back();
    spans_.push_back(Span{layer, scan_id, parent, now_ns(), 0});
    open_.push_back(static_cast<uint32_t>(spans_.size() - 1));
    return open_.back();
  }

  void close(uint32_t index) {
    if (open_.empty() || open_.back() != index) {
      throw std::logic_error("SpanLog: spans must close innermost first");
    }
    spans_[index].end_ns = now_ns();
    open_.pop_back();
  }

  /// Appends an already-timed span (tests, and spans built from two reads).
  uint32_t add(Span span) {
    spans_.push_back(std::move(span));
    return static_cast<uint32_t>(spans_.size() - 1);
  }

  const std::string& thread() const { return thread_; }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::string thread_;
  std::vector<Span> spans_;
  std::vector<uint32_t> open_;
};

/// RAII span; a null log records nothing (the untraced path).
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* layer, uint64_t scan_id)
      : log_(log), index_(log != nullptr ? log->open(layer, scan_id) : 0) {}
  ~ScopedSpan() {
    if (log_ != nullptr) log_->close(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
  uint32_t index_;
};

/// A span's duration minus the time its direct children cover. Children on
/// one thread never overlap each other, so their durations add.
inline std::vector<int64_t> self_times(const std::vector<Span>& spans) {
  std::vector<int64_t> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) self[i] = spans[i].duration_ns();
  for (const Span& s : spans) {
    if (s.parent != kNoParent) self.at(s.parent) -= s.duration_ns();
  }
  return self;
}

/// Per-layer totals over any number of span logs.
struct LayerTotals {
  uint64_t calls = 0;
  int64_t total_ns = 0;  ///< summed span durations
  int64_t self_ns = 0;   ///< summed self times
};

class Ledger {
 public:
  void add(const SpanLog& log) {
    const std::vector<int64_t> self = self_times(log.spans());
    for (std::size_t i = 0; i < log.spans().size(); ++i) {
      LayerTotals& t = layers_[log.spans()[i].layer];
      ++t.calls;
      t.total_ns += log.spans()[i].duration_ns();
      t.self_ns += self[i];
    }
  }

  const LayerTotals& at(const std::string& layer) const {
    static const LayerTotals kEmpty;
    const auto it = layers_.find(layer);
    return it == layers_.end() ? kEmpty : it->second;
  }
  const std::map<std::string, LayerTotals>& layers() const { return layers_; }

  /// Mean span duration of `layer` in `unit_ns` units (0 when never seen).
  double mean(const std::string& layer, double unit_ns = 1.0) const {
    const LayerTotals& t = at(layer);
    return t.calls == 0 ? 0.0 : static_cast<double>(t.total_ns) / unit_ns / t.calls;
  }

 private:
  std::map<std::string, LayerTotals> layers_;
};

}  // namespace omu::perfbench
