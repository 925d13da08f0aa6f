#include "workload.h"

#include <algorithm>
#include <unordered_map>

#include "common.h"
#include "common/rng.h"
#include "datasets/generators.h"

namespace nwcbench {

using nwc::DataObject;
using nwc::Mutation;
using nwc::MutationBatch;

namespace {

// The library's dataset seed (see bench/bench_common.h), so the fixed
// CA-like dataset here is the one the repository's figures use.
constexpr uint64_t kDatasetSeed = 20160315;

// Open-loop rates sit well below the capacity of 2 workers (450-650 q/s
// on a shared 4-vCPU host, NWC execute p50 ~2.5 ms, kNWC ~5 ms): ca_mixed
// at about a third of it, so latency is not dominated by queueing when
// the host slows down, ca_churn at half that beside its update frames.
constexpr WorkloadSpec kWorkloads[] = {
    {"ca_mixed", false, 200.0, 0.0, 1'000'000},
    {"ca_churn", true, 100.0, 10.0, 1'000'000},
};

QueryItem MakeItem(const nwc::Point& q, bool knwc) {
  QueryItem item;
  item.knwc = knwc;
  item.nwc = nwc::NwcQuery{q, kWindow, kWindow, kGroupSize};
  item.knwc_query = nwc::KnwcQuery{item.nwc, kGroups, kOverlap};
  return item;
}

// 1 of 8 distinct queries is kNWC.
bool IsKnwcSlot(size_t index) { return index % 8 == 7; }

// Distinct data positions, in a seed-dependent order.
std::vector<size_t> SampleDistinct(size_t population, size_t count, nwc::Rng& rng) {
  std::vector<size_t> order(population);
  for (size_t i = 0; i < population; ++i) order[i] = i;
  count = std::min(count, population);
  for (size_t i = 0; i < count; ++i) {
    const size_t j = i + static_cast<size_t>(rng.NextUint64(population - i));
    std::swap(order[i], order[j]);
  }
  order.resize(count);
  return order;
}

std::vector<MutationBatch> MakeUpdates(const nwc::Dataset& dataset, size_t batches,
                                       nwc::Rng& rng) {
  std::vector<DataObject> live = dataset.objects;
  nwc::ObjectId next_id = 0;
  for (const DataObject& object : live) next_id = std::max(next_id, object.id + 1);
  std::vector<MutationBatch> updates(batches);
  for (MutationBatch& batch : updates) {
    for (size_t i = 0; i < kMutationsPerBatch; ++i) {
      if (i % 2 == 0) {
        // Inserts follow the data's own density: a jittered copy of a
        // random live object, clamped to the normalized space.
        const DataObject& near = live[rng.NextUint64(live.size())];
        const double x = std::clamp(rng.NextGaussian(near.pos.x, 20.0), dataset.space.min_x,
                                    dataset.space.max_x);
        const double y = std::clamp(rng.NextGaussian(near.pos.y, 20.0), dataset.space.min_y,
                                    dataset.space.max_y);
        const DataObject object{next_id++, nwc::Point{x, y}};
        live.push_back(object);
        batch.push_back(Mutation::Insert(object));
      } else {
        const size_t victim = rng.NextUint64(live.size());
        batch.push_back(Mutation::Delete(live[victim]));
        live[victim] = live.back();
        live.pop_back();
      }
    }
  }
  return updates;
}

}  // namespace

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& spec : kWorkloads) {
    if (name == spec.name) return &spec;
  }
  return nullptr;
}

std::string WorkloadNames() {
  std::string names;
  for (const WorkloadSpec& spec : kWorkloads) {
    if (!names.empty()) names += ", ";
    names += spec.name;
  }
  return names;
}

nwc::Dataset MakeWorkloadDataset() { return nwc::MakeCaLike(kDatasetSeed); }

Streams MakeStreams(const nwc::Dataset& dataset, uint64_t seed, size_t warmup_length,
                    size_t sequence_length, size_t update_batches) {
  nwc::Rng rng(seed * 0x9E3779B97F4A7C15ull + 0x5bd1e995u);
  nwc::Rng query_rng = rng.Fork();
  nwc::Rng update_rng = rng.Fork();
  Streams streams;
  const std::vector<size_t> sample =
      SampleDistinct(dataset.size(), warmup_length + sequence_length, query_rng);
  for (const size_t index : sample) {
    const uint32_t slot = static_cast<uint32_t>(streams.catalog.size());
    streams.catalog.push_back(dataset.objects[index].pos);
    (slot < warmup_length ? streams.warmup : streams.sequence).push_back(slot);
  }
  streams.updates = MakeUpdates(dataset, update_batches, update_rng);

  Fnv64 hash;
  for (size_t i = 0; i < streams.catalog.size(); ++i) {
    hash.AddValue(IsKnwcSlot(i));
    hash.AddValue(streams.catalog[i].x);
    hash.AddValue(streams.catalog[i].y);
  }
  for (const uint32_t index : streams.warmup) hash.AddValue(index);
  for (const uint32_t index : streams.sequence) hash.AddValue(index);
  for (const MutationBatch& batch : streams.updates) {
    for (const Mutation& mutation : batch) {
      hash.AddValue(static_cast<uint8_t>(mutation.kind));
      hash.AddValue(mutation.object.id);
      hash.AddValue(mutation.object.pos.x);
      hash.AddValue(mutation.object.pos.y);
    }
  }
  streams.hash = hash.value();
  return streams;
}

QueryItem Streams::item(uint32_t index) const {
  return MakeItem(catalog[index], IsKnwcSlot(index));
}

std::vector<DataObject> LiveObjectsAfter(const std::vector<DataObject>& initial,
                                         const std::vector<MutationBatch>& updates,
                                         size_t batches) {
  std::unordered_map<nwc::ObjectId, DataObject> live;
  live.reserve(initial.size() + batches * kMutationsPerBatch);
  for (const DataObject& object : initial) live.emplace(object.id, object);
  for (size_t b = 0; b < batches && b < updates.size(); ++b) {
    for (const Mutation& mutation : updates[b]) {
      if (mutation.kind == Mutation::Kind::kInsert) {
        live.emplace(mutation.object.id, mutation.object);
      } else {
        live.erase(mutation.object.id);
      }
    }
  }
  std::vector<DataObject> objects;
  objects.reserve(live.size());
  for (const auto& [id, object] : live) objects.push_back(object);
  std::sort(objects.begin(), objects.end(),
            [](const DataObject& a, const DataObject& b) { return a.id < b.id; });
  return objects;
}

}  // namespace nwcbench
