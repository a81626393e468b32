#ifndef PERFBENCH_SPANS_HPP
#define PERFBENCH_SPANS_HPP

/// @file spans.hpp
/// In-memory span log for the traced run: one span (name, start, end, parent)
/// around each public call the benchmark makes into a layer. Spans are kept in
/// memory and written once, at exit. A disabled log records nothing, so the
/// untraced runs pay one branch per call.

#include <cstddef>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  std::string name;
  double start_s = 0.0;  ///< seconds since the log was created
  double end_s = 0.0;
  int parent = -1;       ///< index of the enclosing span, -1 at the root
};

class SpanLog {
 public:
  explicit SpanLog(bool enabled);

  bool enabled() const { return enabled_; }

  /// RAII span on the calling thread's open-span stack (main thread only).
  class Scope {
   public:
    Scope(SpanLog& log, std::string name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    /// Index of this span, usable as a parent for add(); -1 when disabled.
    int id() const { return id_; }

   private:
    SpanLog& log_;
    int id_ = -1;
  };

  /// Record an already-finished span from any thread (e.g. a progress
  /// callback on a worker); times are absolute now_s() values.
  void add(std::string name, double start_abs_s, double end_abs_s, int parent);

  void write_json(std::ostream& os) const;

 private:
  bool enabled_;
  double origin_s_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_HPP
