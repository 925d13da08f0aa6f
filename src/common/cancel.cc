#include "common/cancel.h"

#include <utility>

namespace nwc {

bool QueryControl::Stop(Status status) {
  stopped_ = true;
  status_ = std::move(status);
  return true;
}

bool QueryControl::StopCancelled() { return Stop(Status::Cancelled("query cancelled")); }

bool QueryControl::PollDeadline() {
  if (has_clock_deadline_) {
    // The injected test clock is read at every checkpoint, so tests can
    // place a deadline between any two of them.
    if (clock_ns_ && clock_ns_() >= clock_deadline_ns_) {
      return Stop(Status::DeadlineExceeded("query deadline exceeded"));
    }
    return false;
  }
  clock_countdown_ = kDeadlineStride - 1;
  if (has_deadline_ && std::chrono::steady_clock::now() >= deadline_) {
    return Stop(Status::DeadlineExceeded("query deadline exceeded"));
  }
  return false;
}

QueryControl& NullControl() {
  // Never armed, so ShouldStop() never writes — one shared instance is safe
  // for any number of concurrent queries.
  static QueryControl null_control;
  return null_control;
}

}  // namespace nwc
