#include "service/result_cache.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <new>
#include <utility>
#include <vector>

#include "common/float_bits.h"

namespace nwc {
namespace {

uint8_t PackScheme(const NwcOptions& options) {
  return static_cast<uint8_t>((options.use_srr ? 1u : 0u) | (options.use_dip ? 2u : 0u) |
                              (options.use_dep ? 4u : 0u) | (options.use_iwp ? 8u : 0u));
}

}  // namespace

ResultCacheKey ResultCacheKey::ForNwc(const NwcQuery& query, const NwcOptions& options,
                                      uint64_t data_epoch) {
  ResultCacheKey key;
  key.kind = 0;
  key.scheme = PackScheme(options);
  key.measure = static_cast<uint8_t>(options.measure);
  // Keys store the *canonical* bits (-0.0 folded onto +0.0), so both the
  // field-wise operator== and Hash() see one representation per numeric
  // value.
  key.qx_bits = CanonicalDoubleBits(query.q.x);
  key.qy_bits = CanonicalDoubleBits(query.q.y);
  key.l_bits = CanonicalDoubleBits(query.length);
  key.w_bits = CanonicalDoubleBits(query.width);
  key.n = query.n;
  key.data_epoch = data_epoch;
  return key;
}

ResultCacheKey ResultCacheKey::ForKnwc(const KnwcQuery& query, const NwcOptions& options,
                                       uint64_t data_epoch) {
  ResultCacheKey key = ForNwc(query.base, options, data_epoch);
  key.kind = 1;
  key.k = query.k;
  key.m = query.m;
  return key;
}

uint64_t ResultCacheKey::Hash() const {
  // FNV-1a, mixed a field at a time.
  uint64_t hash = 1469598103934665603ull;
  auto mix = [&hash](uint64_t value) {
    for (int byte = 0; byte < 8; ++byte) {
      hash ^= (value >> (byte * 8)) & 0xFFu;
      hash *= 1099511628211ull;
    }
  };
  mix(static_cast<uint64_t>(kind) | (static_cast<uint64_t>(scheme) << 8) |
      (static_cast<uint64_t>(measure) << 16));
  mix(qx_bits);
  mix(qy_bits);
  mix(l_bits);
  mix(w_bits);
  mix(n);
  mix(k);
  mix(m);
  mix(data_epoch);
  return hash;
}

namespace {

// Packed result layout, one allocation per entry:
//
//   u32 group_count, u32 object_count
//   per group: f64 distance, u32 member count, u32 found flag
//   f64 xs[object_count], f64 ys[object_count]   members of all groups
//   u32 ids[object_count]
//
// An NWC result is one group whose flag carries NwcResult::found (its
// distance is kept even when nothing was found, so a hit is bit-identical
// to what was inserted). A kNWC result is one group per NwcGroup. Fields
// are copied in and out with memcpy: the allocation is raw bytes.
constexpr size_t kHeaderBytes = 2 * sizeof(uint32_t);
constexpr size_t kGroupBytes = sizeof(double) + 2 * sizeof(uint32_t);
constexpr size_t kMemberBytes = 2 * sizeof(double) + sizeof(ObjectId);

size_t PackedBytes(size_t groups, size_t objects) {
  return kHeaderBytes + groups * kGroupBytes + objects * kMemberBytes;
}

template <typename T>
void Store(std::byte* at, const T& value) {
  std::memcpy(at, &value, sizeof(T));
}

template <typename T>
T Load(const std::byte* at) {
  T value;
  std::memcpy(&value, at, sizeof(T));
  return value;
}

size_t GroupCount(const std::byte* packed) { return Load<uint32_t>(packed); }
size_t ObjectCount(const std::byte* packed) { return Load<uint32_t>(packed + sizeof(uint32_t)); }
size_t PackedBytesOf(const std::byte* packed) {
  return PackedBytes(GroupCount(packed), ObjectCount(packed));
}

// Offsets into one packed allocation.
class PackedResult {
 public:
  explicit PackedResult(std::byte* base)
      : base_(base),
        xs_(base + kHeaderBytes + GroupCount(base) * kGroupBytes),
        ys_(xs_ + ObjectCount(base) * sizeof(double)),
        ids_(ys_ + ObjectCount(base) * sizeof(double)) {}

  // Stamps the counts into fresh storage of PackedBytes(groups, objects).
  static PackedResult Init(std::byte* base, size_t groups, size_t objects) {
    Store(base, static_cast<uint32_t>(groups));
    Store(base + sizeof(uint32_t), static_cast<uint32_t>(objects));
    return PackedResult(base);
  }

  size_t group_count() const { return GroupCount(base_); }
  double distance(size_t g) const { return Load<double>(Group(g)); }
  bool found(size_t g) const { return Load<uint32_t>(Group(g) + 12) != 0; }

  // Writes group `g` with its members from member index `first` on;
  // returns the index after its last member.
  size_t PutGroup(size_t g, size_t first, double distance, bool found,
                  const std::vector<DataObject>& objects) {
    Store(Group(g), distance);
    Store(Group(g) + 8, static_cast<uint32_t>(objects.size()));
    Store(Group(g) + 12, uint32_t{found ? 1u : 0u});
    for (const DataObject& object : objects) {
      Store(xs_ + first * sizeof(double), object.pos.x);
      Store(ys_ + first * sizeof(double), object.pos.y);
      Store(ids_ + first * sizeof(ObjectId), object.id);
      ++first;
    }
    return first;
  }

  // Reads group `g`'s members from member index `first` on; returns the
  // index after its last member.
  size_t GetGroup(size_t g, size_t first, std::vector<DataObject>* objects) const {
    const uint32_t count = Load<uint32_t>(Group(g) + 8);
    objects->clear();
    objects->reserve(count);
    for (uint32_t i = 0; i < count; ++i, ++first) {
      objects->push_back(DataObject{Load<ObjectId>(ids_ + first * sizeof(ObjectId)),
                                    Point{Load<double>(xs_ + first * sizeof(double)),
                                          Load<double>(ys_ + first * sizeof(double))}});
    }
    return first;
  }

 private:
  std::byte* Group(size_t g) const { return base_ + kHeaderBytes + g * kGroupBytes; }

  std::byte* base_;
  std::byte* xs_;
  std::byte* ys_;
  std::byte* ids_;
};

// Fibonacci hashing: the top bits of hash * 2^64/phi. The shard was picked
// by hash % shards, so a shard's keys share their low bits and a mask of
// the raw hash would leave most buckets empty.
size_t BucketIndex(uint64_t hash, size_t bucket_count) {
  const int shift = 64 - std::countr_zero(bucket_count);
  return shift == 64 ? 0 : static_cast<size_t>((hash * 0x9E3779B97F4A7C15ull) >> shift);
}

constexpr size_t kMinBuckets = 8;

}  // namespace

ResultCache::Shard::~Shard() {
  for (Entry* entry = newest; entry != nullptr;) {
    Entry* next = entry->older;
    Free(entry);
    entry = next;
  }
}

void ResultCache::Shard::NoteLookup(bool hit) {
  if (hit) {
    ++window_hits;
    no_reuse = false;
  }
  if (++window_lookups == kAdmissionWindow) {
    no_reuse = window_hits == 0;
    window_lookups = window_hits = 0;
  }
}

bool ResultCache::Shard::Admits() {
  return !no_reuse || ++skipped_inserts % kSampledAdmission == 0;
}

ResultCache::Entry** ResultCache::Shard::Bucket(const ResultCacheKey& key) {
  return &buckets[BucketIndex(key.Hash(), buckets.size())];
}

ResultCache::Entry* ResultCache::Shard::Find(const ResultCacheKey& key) {
  if (buckets.empty()) return nullptr;
  Entry* entry = *Bucket(key);
  while (entry != nullptr && !(entry->key == key)) entry = entry->next_in_bucket;
  return entry;
}

void ResultCache::Shard::Link(Entry* entry) {
  if (entries + 1 > 2 * buckets.size()) {
    std::vector<Entry*, ChargedAllocator<Entry*>> grown(
        std::max(kMinBuckets, 2 * buckets.size()), nullptr, buckets.get_allocator());
    buckets.swap(grown);
    for (Entry* chain : grown) {
      while (chain != nullptr) {
        Entry* next = chain->next_in_bucket;
        Entry** bucket = Bucket(chain->key);
        chain->next_in_bucket = *bucket;
        *bucket = chain;
        chain = next;
      }
    }
  }
  Entry** bucket = Bucket(entry->key);
  entry->next_in_bucket = *bucket;
  *bucket = entry;
  ++entries;
  PushNewest(entry);
}

void ResultCache::Shard::Unlink(Entry* entry) {
  (entry->newer != nullptr ? entry->newer->older : newest) = entry->older;
  (entry->older != nullptr ? entry->older->newer : oldest) = entry->newer;
  entry->newer = entry->older = nullptr;
}

void ResultCache::Shard::PushNewest(Entry* entry) {
  entry->older = newest;
  entry->newer = nullptr;
  (newest != nullptr ? newest->newer : oldest) = entry;
  newest = entry;
}

void ResultCache::Shard::Erase(Entry* entry) {
  Unlink(entry);
  Entry** link = Bucket(entry->key);
  while (*link != entry) link = &(*link)->next_in_bucket;
  *link = entry->next_in_bucket;
  --entries;
  Free(entry);
}

void ResultCache::Shard::Free(Entry* entry) {
  const size_t size = sizeof(Entry) + PackedBytesOf(entry->payload());
  entry->~Entry();
  ChargedAllocator<std::byte>(&bytes).deallocate(reinterpret_cast<std::byte*>(entry), size);
}

ResultCache::ResultCache(size_t capacity_bytes, size_t shards)
    : capacity_bytes_(capacity_bytes) {
  if (shards == 0) shards = 1;
  shards_.reserve(shards);
  for (size_t i = 0; i < shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
  shard_capacity_bytes_ = capacity_bytes_ / shards_.size();
}

template <typename Unpack>
bool ResultCache::LookupImpl(const ResultCacheKey& key, const Unpack& unpack) {
  const uint64_t generation = generation_.load(std::memory_order_relaxed);
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  Entry* entry = shard.Find(key);
  if (entry != nullptr && entry->generation != generation) {
    // Stale entry from before the last Invalidate(): erase lazily.
    shard.Erase(entry);
    entry = nullptr;
  }
  shard.NoteLookup(entry != nullptr);
  if (entry == nullptr) {
    ++shard.misses;
    return false;
  }
  shard.Unlink(entry);
  shard.PushNewest(entry);
  ++shard.hits;
  unpack(PackedResult(entry->payload()));
  return true;
}

bool ResultCache::LookupNwc(const NwcQuery& query, const NwcOptions& options, NwcResult* out,
                            uint64_t data_epoch) {
  const ResultCacheKey key = ResultCacheKey::ForNwc(query, options, data_epoch);
  return LookupImpl(key, [out](const PackedResult& packed) {
    out->found = packed.found(0);
    out->distance = packed.distance(0);
    packed.GetGroup(0, 0, &out->objects);
  });
}

bool ResultCache::LookupKnwc(const KnwcQuery& query, const NwcOptions& options, KnwcResult* out,
                             uint64_t data_epoch) {
  const ResultCacheKey key = ResultCacheKey::ForKnwc(query, options, data_epoch);
  return LookupImpl(key, [out](const PackedResult& packed) {
    out->groups.resize(packed.group_count());
    size_t next = 0;
    for (size_t g = 0; g < out->groups.size(); ++g) {
      out->groups[g].distance = packed.distance(g);
      next = packed.GetGroup(g, next, &out->groups[g].objects);
    }
  });
}

template <typename Pack>
void ResultCache::InsertImpl(const ResultCacheKey& key, size_t groups, size_t objects,
                             const Pack& pack) {
  const size_t entry_bytes = sizeof(Entry) + PackedBytes(groups, objects);
  // Its share of a bucket array is at most one pointer.
  if (entry_bytes + sizeof(Entry*) > shard_capacity_bytes_) {
    return;  // would evict a whole shard
  }
  const uint64_t generation = generation_.load(std::memory_order_relaxed);
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  if (!shard.Admits()) return;
  if (Entry* old = shard.Find(key); old != nullptr) shard.Erase(old);

  std::byte* block = ChargedAllocator<std::byte>(&shard.bytes).allocate(entry_bytes);
  Entry* entry = new (block) Entry{nullptr, nullptr, nullptr, generation, key};
  PackedResult packed = PackedResult::Init(entry->payload(), groups, objects);
  pack(packed);
  shard.Link(entry);
  ++shard.insertions;
  while (shard.bytes > shard_capacity_bytes_ && shard.entries > 1) {
    shard.Erase(shard.oldest);
    ++shard.evictions;
  }
}

void ResultCache::InsertNwc(const NwcQuery& query, const NwcOptions& options,
                            const NwcResult& result, uint64_t data_epoch) {
  InsertImpl(ResultCacheKey::ForNwc(query, options, data_epoch), 1, result.objects.size(),
             [&result](PackedResult& packed) {
               packed.PutGroup(0, 0, result.distance, result.found, result.objects);
             });
}

void ResultCache::InsertKnwc(const KnwcQuery& query, const NwcOptions& options,
                             const KnwcResult& result, uint64_t data_epoch) {
  size_t objects = 0;
  for (const NwcGroup& group : result.groups) objects += group.objects.size();
  InsertImpl(ResultCacheKey::ForKnwc(query, options, data_epoch), result.groups.size(), objects,
             [&result](PackedResult& packed) {
               size_t next = 0;
               for (size_t g = 0; g < result.groups.size(); ++g) {
                 next = packed.PutGroup(g, next, result.groups[g].distance, true,
                                        result.groups[g].objects);
               }
             });
}

ResultCache::Stats ResultCache::GetStats() const {
  Stats stats;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    stats.hits += shard->hits;
    stats.misses += shard->misses;
    stats.insertions += shard->insertions;
    stats.evictions += shard->evictions;
    stats.entries += shard->entries;
    stats.bytes += shard->bytes;
  }
  return stats;
}

void ResultCache::ResetStats() {
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    shard->hits = 0;
    shard->misses = 0;
    shard->insertions = 0;
    shard->evictions = 0;
  }
}

}  // namespace nwc
