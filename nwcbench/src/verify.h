// Answer checks: every served answer must be well-formed and consistent
// with the data, and a deterministic sample must match an in-process NWC+
// engine bit-exactly.
#ifndef NWCBENCH_VERIFY_H_
#define NWCBENCH_VERIFY_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "driver.h"
#include "geometry/point.h"
#include "rtree/rstar_tree.h"
#include "workload.h"

namespace nwcbench {

struct VerifyReport {
  size_t attempted = 0;        ///< query requests + update frames sent
  size_t error_responses = 0;  ///< kError frames, non-OK statuses, undecodable bodies
  size_t lost = 0;             ///< never answered
  size_t wrong_answers = 0;    ///< failed a consistency or reference check
  size_t reference_compared = 0;
  size_t update_failures = 0;  ///< update acks that were not clean
  std::vector<std::string> examples;

  size_t failed() const { return error_responses + lost + wrong_answers + update_failures; }
  void Note(std::string what);
};

class AnswerChecker {
 public:
  /// `universe` is every object that was ever stored; a served answer may
  /// only contain these (exact id and position).
  AnswerChecker(const Streams& streams, const std::vector<nwc::DataObject>& universe);

  /// Checks requests [first, last): lost and failed requests are counted,
  /// and every answer gets the full check.
  void CheckRequests(const RequestLog& records, size_t first, size_t last,
                     VerifyReport* report);

  /// Update acks must be OK, apply every mutation and raise the epoch.
  void CheckUpdates(const std::vector<UpdateRecord>& records, VerifyReport* report);

  /// Compares the answers of requests [first, last) to queries in
  /// `sample_items` with an in-process NWC+ (SRR + DIP) engine over `tree`:
  /// NWC distances and every kNWC group distance must be bit-identical.
  void CompareWithReference(const RequestLog& records, size_t first, size_t last,
                            const std::vector<uint32_t>& sample_items,
                            const nwc::RStarTree& tree, VerifyReport* report);

 private:
  bool Stored(const nwc::DataObject& object) const;

  const Streams& streams_;
  std::unordered_map<nwc::ObjectId, nwc::Point> universe_;
};

/// The first `nwc_count` distinct NWC items and `knwc_count` distinct kNWC
/// items answered in requests [first, last), in request order.
std::vector<uint32_t> ReferenceSample(const RequestLog& records, size_t first,
                                      size_t last, size_t nwc_count, size_t knwc_count);

}  // namespace nwcbench

#endif  // NWCBENCH_VERIFY_H_
