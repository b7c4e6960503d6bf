// In-memory span trace for the traced run.
//
// A span records one call into a layer from the benchmark's own code: its
// name, start, end, parent span, operation id, round, and the allocations
// and peak heap growth seen while it was open. Spans are kept in memory
// and written out once the run ends (Chrome trace JSON plus a per-layer
// table). A layer's self time is its duration minus the part of it that
// its child spans cover. With no tracer installed a Span costs one branch.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "heap.h"

namespace zbench {

struct SpanRec {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;            ///< index of the enclosing span, -1 at top level
  std::uint64_t op = 0;       ///< operation the span belongs to
  std::uint64_t round = 0;    ///< round of the workload it ran in
  std::uint64_t allocs = 0;   ///< allocations while open (children included)
  std::int64_t peak_bytes = 0;///< peak live heap above the level at start
};

/// Per-layer totals over one round.
struct LayerRound {
  double self_ms = 0;
  double total_ms = 0;
  std::uint64_t self_allocs = 0;
  std::int64_t peak_bytes = 0;  ///< largest single span's peak growth
  std::uint64_t count = 0;
};

class Tracer {
 public:
  Tracer();

  int open(const char* name);
  void close(int index);
  void rename(int index, const char* name) { spans_[static_cast<std::size_t>(index)].name = name; }

  void set_op(std::uint64_t op) { op_ = op; }
  void set_round(std::uint64_t round) { round_ = round; }

  using SpanList = std::vector<SpanRec, heap::RawAllocator<SpanRec>>;
  const SpanList& spans() const { return spans_; }

  /// layer name -> one entry per round in which the layer appeared.
  std::map<std::string, std::vector<LayerRound>> by_layer() const;

  /// Chrome trace JSON ("X" complete events, microsecond timestamps).
  bool write_chrome_json(const std::string& path) const;
  /// Plain-text per-layer table: rounds, median self/total ms, allocations
  /// and peak heap per round.
  bool write_layer_table(const std::string& path) const;

  static Tracer* active() { return active_; }
  static void install(Tracer* t) { active_ = t; }

 private:
  struct Open {
    int index;
    std::uint64_t allocs0;
    std::int64_t live0;
    std::int64_t saved_peak;
  };
  static Tracer* active_;
  std::chrono::steady_clock::time_point t0_;
  SpanList spans_;
  std::vector<Open, heap::RawAllocator<Open>> stack_;
  std::uint64_t op_ = 0;
  std::uint64_t round_ = 0;
};

/// RAII span on the active tracer (no-op when none is installed).
class Span {
 public:
  explicit Span(const char* name) : t_(Tracer::active()) {
    if (t_) index_ = t_->open(name);
  }
  ~Span() {
    if (t_) t_->close(index_);
  }
  /// Rename the span once its outcome is known (e.g. a request's source).
  void rename(const char* name) {
    if (t_) t_->rename(index_, name);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer* t_;
  int index_ = -1;
};

}  // namespace zbench
