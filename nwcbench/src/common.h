// Shared helpers of the served-path benchmark: clocks, quantiles, a
// stream hash, the in-memory span recorder and the metric sheet.
#ifndef NWCBENCH_COMMON_H_
#define NWCBENCH_COMMON_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

namespace nwcbench {

inline uint64_t NowNs() {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                   std::chrono::steady_clock::now().time_since_epoch())
                                   .count());
}

/// CPU time of this thread and of the whole process (every thread), in ns.
/// Neither counts time spent waiting for a CPU, nor, on a guest kernel with
/// steal-time accounting, time the host took from the virtual CPU.
uint64_t ThreadCpuNs();
uint64_t ProcessCpuNs();

/// Quantile by linear interpolation between closest ranks (R-7), the same
/// estimator the load generator of the library uses. 0 on an empty sample.
double Quantile(std::vector<double> values, double q);
inline double Median(std::vector<double> values) { return Quantile(std::move(values), 0.5); }

/// FNV-1a over raw bytes: fingerprints the generated input streams.
class Fnv64 {
 public:
  void Add(const void* data, size_t size) {
    const auto* bytes = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < size; ++i) {
      hash_ ^= bytes[i];
      hash_ *= 1099511628211ull;
    }
  }
  template <typename T>
  void AddValue(const T& value) {
    unsigned char bytes[sizeof(T)];
    std::memcpy(bytes, &value, sizeof(T));
    Add(bytes, sizeof(T));
  }
  uint64_t value() const { return hash_; }

 private:
  uint64_t hash_ = 1469598103934665603ull;
};

/// One span: a named interval around a call the benchmark made into a
/// layer. Spans of one request share `id`; `parent` is the id of the span
/// that caused it (0 for none).
struct Span {
  const char* name = "";
  uint64_t id = 0;
  uint64_t parent = 0;
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
};

/// Keeps spans in memory for the whole run; written out once at the end.
/// A disabled recorder drops everything, so untraced runs pay one branch.
class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }
  void Record(const char* name, uint64_t id, uint64_t parent, uint64_t start_ns,
              uint64_t end_ns) {
    if (enabled_) spans_.push_back(Span{name, id, parent, start_ns, end_ns});
  }
  /// Runs `fn`, records a span around it and returns its duration in ns.
  template <typename Fn>
  uint64_t Time(const char* name, uint64_t id, Fn&& fn) {
    const uint64_t start = NowNs();
    fn();
    const uint64_t end = NowNs();
    Record(name, id, 0, start, end);
    return end - start;
  }
  size_t size() const { return spans_.size(); }

  /// Writes one JSON object per line; false when the file cannot be written.
  bool WriteJsonl(const std::string& path) const;

 private:
  bool enabled_;
  std::vector<Span> spans_;
};

/// The metrics one run reports, in the order they were added.
class MetricSheet {
 public:
  void Set(const std::string& name, double value, const std::string& unit) {
    for (Entry& entry : entries_) {
      if (entry.name == name) {
        entry.value = value;
        entry.unit = unit;
        return;
      }
    }
    entries_.push_back(Entry{name, value, unit});
  }
  /// `{"name": {"value": v, "unit": "u"}, ...}` with full precision.
  std::string ToJson() const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> entries_;
};

}  // namespace nwcbench

#endif  // NWCBENCH_COMMON_H_
