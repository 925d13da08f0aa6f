#include "common.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ctime>

namespace nwcbench {
namespace {

uint64_t CpuClockNs(clockid_t clock) {
  timespec ts{};
  ::clock_gettime(clock, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1'000'000'000ull + static_cast<uint64_t>(ts.tv_nsec);
}

}  // namespace

uint64_t ThreadCpuNs() { return CpuClockNs(CLOCK_THREAD_CPUTIME_ID); }
uint64_t ProcessCpuNs() { return CpuClockNs(CLOCK_PROCESS_CPUTIME_ID); }

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  if (q <= 0.0) return values.front();
  if (q >= 1.0) return values.back();
  const double rank = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  if (lo + 1 >= values.size()) return values.back();
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + frac * (values[lo + 1] - values[lo]);
}

bool SpanRecorder::WriteJsonl(const std::string& path) const {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return false;
  for (const Span& span : spans_) {
    std::fprintf(file,
                 "{\"name\":\"%s\",\"id\":%llu,\"parent\":%llu,\"start_ns\":%llu,"
                 "\"dur_ns\":%llu}\n",
                 span.name, static_cast<unsigned long long>(span.id),
                 static_cast<unsigned long long>(span.parent),
                 static_cast<unsigned long long>(span.start_ns),
                 static_cast<unsigned long long>(span.end_ns - span.start_ns));
  }
  return std::fclose(file) == 0;
}

std::string MetricSheet::ToJson() const {
  std::string out = "{";
  for (size_t i = 0; i < entries_.size(); ++i) {
    const Entry& entry = entries_[i];
    char number[64];
    // Non-finite values have no JSON spelling; report them as -1 so a
    // broken measurement is visible instead of producing invalid JSON.
    const double value = std::isfinite(entry.value) ? entry.value : -1.0;
    std::snprintf(number, sizeof(number), "%.17g", value);
    if (i > 0) out += ", ";
    out += "\"" + entry.name + "\": {\"value\": " + number + ", \"unit\": \"" + entry.unit +
           "\"}";
  }
  return out + "}";
}

}  // namespace nwcbench
