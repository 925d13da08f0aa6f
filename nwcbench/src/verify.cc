#include "verify.h"

#include <cstring>
#include <unordered_set>

#include "answer.h"
#include "common.h"
#include "common/string_util.h"
#include "core/brute_force.h"
#include "core/knwc_engine.h"
#include "core/nwc_engine.h"

namespace nwcbench {

using nwc::DataObject;
using nwc::KnwcResponse;
using nwc::NwcResponse;

namespace {

constexpr size_t kMaxExamples = 5;
const nwc::DistanceMeasure kMeasure = nwc::NwcOptions::Star().measure;

bool SameBits(double a, double b) { return std::memcmp(&a, &b, sizeof(double)) == 0; }

std::string DistanceText(double distance) { return nwc::StrFormat(" %.17g", distance); }

}  // namespace

void VerifyReport::Note(std::string what) {
  if (examples.size() < kMaxExamples) examples.push_back(std::move(what));
}

AnswerChecker::AnswerChecker(const Streams& streams, const std::vector<DataObject>& universe)
    : streams_(streams) {
  universe_.reserve(universe.size());
  for (const DataObject& object : universe) universe_.emplace(object.id, object.pos);
}

bool AnswerChecker::Stored(const DataObject& object) const {
  const auto it = universe_.find(object.id);
  return it != universe_.end() && it->second == object.pos;
}

void AnswerChecker::CheckRequests(const RequestLog& records, size_t first,
                                  size_t last, VerifyReport* report) {
  for (size_t i = first; i < last; ++i) {
    const RequestRecord& record = records[i];
    ++report->attempted;
    if (record.recv_ns == 0) {
      ++report->lost;
      report->Note(nwc::StrFormat("request %zu never answered", i));
      continue;
    }
    if (!record.ok) {
      ++report->error_responses;
      report->Note(nwc::StrFormat(
          "request %zu: %s", i, DecodeAnswer(record.knwc, record.type, record.body).why.c_str()));
      continue;
    }
    const Answer answer = DecodeAnswer(record.knwc, record.type, record.body);

    // Membership of every returned object is checked here against the
    // hashed universe; the library's consistency checks then run with the
    // answer's own objects as the dataset, which keeps their remaining
    // checks (cardinality, distinct ids, window fit, recomputed distance,
    // ordering and m-overlap) exact without a linear scan per object.
    const QueryItem item = streams_.item(record.item);
    std::vector<DataObject> members;
    if (record.knwc) {
      for (const nwc::NwcGroup& group : answer.knwc.result.groups) {
        members.insert(members.end(), group.objects.begin(), group.objects.end());
      }
    } else {
      members = answer.nwc.result.objects;
    }
    bool stored = true;
    for (const DataObject& object : members) stored = stored && Stored(object);
    const nwc::Status consistent =
        !stored ? nwc::Status::Internal("answer holds an object that was never stored")
        : record.knwc
            ? nwc::CheckKnwcResultConsistency(answer.knwc.result, members, item.knwc_query,
                                              kMeasure)
            : nwc::CheckNwcResultConsistency(answer.nwc.result, members, item.nwc, kMeasure);
    const bool empty =
        record.knwc ? answer.knwc.result.groups.empty() : !answer.nwc.result.found;
    if (!consistent.ok() || empty) {
      ++report->wrong_answers;
      report->Note(nwc::StrFormat("request %zu: %s", i,
                                  empty ? "no group found" : consistent.ToString().c_str()));
    }
  }
}

void AnswerChecker::CheckUpdates(const std::vector<UpdateRecord>& records,
                                 VerifyReport* report) {
  uint64_t last_epoch = 0;
  for (const UpdateRecord& record : records) {
    ++report->attempted;
    if (record.recv_ns == 0) {
      ++report->lost;
      report->Note(nwc::StrFormat("update %u never acknowledged", record.batch));
      continue;
    }
    nwc::UpdateResponse response;
    const bool decoded = record.type == nwc::MsgType::kUpdateResponse &&
                         nwc::DecodeUpdateResponse(record.body, &response).ok();
    const size_t inserts = kMutationsPerBatch / 2;
    const size_t deletes = kMutationsPerBatch - inserts;
    if (!decoded || !response.status.ok() || response.applied_inserts != inserts ||
        response.applied_deletes != deletes || response.delete_misses != 0 ||
        response.epoch <= last_epoch) {
      ++report->update_failures;
      report->Note(nwc::StrFormat("update %u: bad acknowledgement (%s)", record.batch,
                                  decoded ? response.status.ToString().c_str()
                                          : "undecodable"));
      continue;
    }
    last_epoch = response.epoch;
  }
}

void AnswerChecker::CompareWithReference(const RequestLog& records,
                                         size_t first, size_t last,
                                         const std::vector<uint32_t>& sample_items,
                                         const nwc::RStarTree& tree, VerifyReport* report) {
  const std::unordered_set<uint32_t> wanted(sample_items.begin(), sample_items.end());
  std::unordered_set<uint32_t> done;
  const nwc::NwcEngine nwc_engine(tree);
  const nwc::KnwcEngine knwc_engine(tree);
  const nwc::NwcOptions plus = nwc::NwcOptions::Plus();
  for (size_t i = first; i < last; ++i) {
    const RequestRecord& record = records[i];
    if (!record.ok || wanted.count(record.item) == 0 ||
        !done.insert(record.item).second) {
      continue;
    }
    ++report->reference_compared;
    const Answer answer = DecodeAnswer(record.knwc, record.type, record.body);
    const QueryItem item = streams_.item(record.item);
    nwc::IoCounter io;
    bool same = true;
    std::string served_distances;
    std::string expected_distances;
    if (record.knwc) {
      const nwc::Result<nwc::KnwcResult> expected =
          knwc_engine.Execute(item.knwc_query, plus, &io);
      const std::vector<nwc::NwcGroup>& got = answer.knwc.result.groups;
      same = expected.ok() && expected->groups.size() == got.size();
      for (size_t g = 0; same && g < got.size(); ++g) {
        same = SameBits(expected->groups[g].distance, got[g].distance);
      }
      for (const nwc::NwcGroup& group : got) served_distances += DistanceText(group.distance);
      if (expected.ok()) {
        for (const nwc::NwcGroup& group : expected->groups) {
          expected_distances += DistanceText(group.distance);
        }
      }
    } else {
      const nwc::Result<nwc::NwcResult> expected = nwc_engine.Execute(item.nwc, plus, &io);
      same = expected.ok() && expected->found == answer.nwc.result.found &&
             SameBits(expected->distance, answer.nwc.result.distance);
      served_distances = DistanceText(answer.nwc.result.distance);
      if (expected.ok()) expected_distances = DistanceText(expected->distance);
    }
    if (!same) {
      ++report->wrong_answers;
      report->Note(nwc::StrFormat(
          "request %zu (%s at %.17g,%.17g): served answer differs from NWC+: distances%s, "
          "NWC+%s",
          i, record.knwc ? "kNWC" : "NWC", item.nwc.q.x, item.nwc.q.y, served_distances.c_str(),
          expected_distances.c_str()));
    }
  }
}

std::vector<uint32_t> ReferenceSample(const RequestLog& records, size_t first,
                                      size_t last, size_t nwc_count, size_t knwc_count) {
  std::vector<uint32_t> sample;
  std::unordered_set<uint32_t> seen;
  size_t nwc_taken = 0;
  size_t knwc_taken = 0;
  for (size_t i = first; i < last && (nwc_taken < nwc_count || knwc_taken < knwc_count); ++i) {
    const RequestRecord& record = records[i];
    if (!record.ok || seen.count(record.item) > 0) continue;
    size_t& taken = record.knwc ? knwc_taken : nwc_taken;
    if (taken >= (record.knwc ? knwc_count : nwc_count)) continue;
    ++taken;
    seen.insert(record.item);
    sample.push_back(record.item);
  }
  return sample;
}

}  // namespace nwcbench
