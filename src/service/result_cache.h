#ifndef NWC_SERVICE_RESULT_CACHE_H_
#define NWC_SERVICE_RESULT_CACHE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "core/nwc_types.h"

namespace nwc {

/// Canonical, hashable identity of one NWC/kNWC request. Two requests map
/// to the same key exactly when the engines are guaranteed to return
/// bit-identical results for them:
///
///  - the query kind (NWC vs kNWC) and every numeric parameter (q, l, w,
///    n, and for kNWC k and m) compared by exact bit pattern, except that
///    -0.0 is folded to +0.0 first. Sign-folding the zero is the *only*
///    sound coordinate canonicalization: the engines are symmetric under
///    it (IEEE arithmetic treats -0.0 == +0.0 everywhere the search
///    compares or subtracts coordinates), whereas a full quadrant
///    reflection of q moves the query relative to the actual data and
///    changes the answer.
///  - the optimization scheme and distance measure. Every preset returns
///    a group at the same *distance*, but equal-distance ties can break
///    differently between schemes, so serving a Star result for a Plain
///    request would not be bit-exact. Keeping the scheme in the key keeps
///    the cache's contract exact instead of merely optimal.
///  - the data epoch the answer was computed against (0 for static
///    sessions). Pinning the epoch into the key makes publish-vs-cache
///    races structurally impossible: a result computed on epoch N and
///    inserted after epoch N+1 published can only ever be found by a
///    reader still pinned to N — for whom it is exactly right.
struct ResultCacheKey {
  uint8_t kind = 0;       ///< 0 = NWC, 1 = kNWC
  uint8_t scheme = 0;     ///< packed use_srr/dip/dep/iwp bits
  uint8_t measure = 0;    ///< DistanceMeasure
  uint64_t qx_bits = 0;   ///< bit pattern of q.x (-0.0 folded to +0.0)
  uint64_t qy_bits = 0;
  uint64_t l_bits = 0;
  uint64_t w_bits = 0;
  uint64_t n = 0;
  uint64_t k = 0;  ///< 0 for NWC
  uint64_t m = 0;  ///< 0 for NWC
  uint64_t data_epoch = 0;  ///< snapshot epoch (0 = static session)

  static ResultCacheKey ForNwc(const NwcQuery& query, const NwcOptions& options,
                               uint64_t data_epoch = 0);
  static ResultCacheKey ForKnwc(const KnwcQuery& query, const NwcOptions& options,
                                uint64_t data_epoch = 0);

  /// FNV-1a over the packed fields; also used to pick the shard.
  uint64_t Hash() const;

  friend bool operator==(const ResultCacheKey& a, const ResultCacheKey& b) {
    return a.kind == b.kind && a.scheme == b.scheme && a.measure == b.measure &&
           a.qx_bits == b.qx_bits && a.qy_bits == b.qy_bits && a.l_bits == b.l_bits &&
           a.w_bits == b.w_bits && a.n == b.n && a.k == b.k && a.m == b.m &&
           a.data_epoch == b.data_epoch;
  }
};

/// Sharded, thread-safe LRU cache of exact NWC/kNWC query results.
///
/// Requests are canonicalized into ResultCacheKeys; a hit returns a copy
/// of the stored result, bit-identical to what the engines would compute
/// (the service only inserts results of queries that completed with an OK
/// status — aborted or failed queries never populate the cache). Negative
/// results (found == false / zero groups) are cached too: they are exact
/// answers and often the most expensive to recompute.
///
/// Each entry is one allocation: the hash-chain and LRU links, the
/// generation stamp and the key, followed by the packed result (group
/// headers, then the members' xs, ys and ids). Each shard indexes its
/// entries with an intrusive chained hash table. Capacity is accounted in
/// bytes actually allocated: entries and bucket arrays are allocated
/// through an allocator that charges the shard, so the budget bounds what
/// the cache holds. Each shard owns capacity_bytes / shards and evicts its
/// own LRU tail independently. Sharding bounds lock contention: workers
/// serving different queries almost always lock different shards.
///
/// Admission under zero reuse: a shard whose last kAdmissionWindow
/// lookups found no hit admits only one answer in kSampledAdmission until
/// a lookup hits again, which restores full admission at once. A stream
/// of distinct queries would otherwise fill memory with answers nobody
/// asks for twice; the sampled answers let a stream that starts repeating
/// find its first hit (EXPERIMENTS.md prices that delay).
///
/// Invalidation is generational: Invalidate() bumps a global generation
/// counter, and entries stamped with an older generation are treated as
/// misses and lazily erased on the next probe (or evicted as the LRU
/// tail). The service calls this when its Session is swapped — the cache
/// object can stay in place while every stale answer becomes unreachable
/// immediately.
///
/// ThreadSafety: all methods are safe to call concurrently; each shard is
/// guarded by its own mutex and the generation counter is atomic.
class ResultCache {
 public:
  /// Aggregated counters across all shards. hits/misses/insertions/
  /// evictions are monotonic (until ResetStats); entries/bytes are
  /// point-in-time gauges.
  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t insertions = 0;
    uint64_t evictions = 0;
    uint64_t entries = 0;
    uint64_t bytes = 0;
  };

  /// A cache of at most `capacity_bytes` of entries, split over
  /// `shards` independent LRU shards. `shards` is rounded up to 1.
  explicit ResultCache(size_t capacity_bytes, size_t shards = 8);

  ResultCache(const ResultCache&) = delete;
  ResultCache& operator=(const ResultCache&) = delete;

  /// Probes for an exact NWC result. On a hit, copies it into `out` and
  /// refreshes the entry's LRU position. Counts one hit or one miss.
  /// `data_epoch` pins the probe to one snapshot epoch (0 = static).
  bool LookupNwc(const NwcQuery& query, const NwcOptions& options, NwcResult* out,
                 uint64_t data_epoch = 0);

  /// Stores an NWC result under the canonicalized key (replacing any
  /// previous entry), evicting LRU entries while the shard is over budget.
  /// Entries larger than a whole shard are not admitted.
  void InsertNwc(const NwcQuery& query, const NwcOptions& options, const NwcResult& result,
                 uint64_t data_epoch = 0);

  bool LookupKnwc(const KnwcQuery& query, const NwcOptions& options, KnwcResult* out,
                  uint64_t data_epoch = 0);
  void InsertKnwc(const KnwcQuery& query, const NwcOptions& options, const KnwcResult& result,
                  uint64_t data_epoch = 0);

  /// Makes every current entry unreachable (lazily erased). Call when the
  /// data under the cache changes — e.g. the service's Session is swapped.
  void Invalidate() { generation_.fetch_add(1, std::memory_order_relaxed); }

  /// Aggregated counters + gauges across shards.
  Stats GetStats() const;

  /// Zeroes hits/misses/insertions/evictions (entries stay cached).
  void ResetStats();

  size_t capacity_bytes() const { return capacity_bytes_; }
  size_t shard_count() const { return shards_.size(); }
  uint64_t generation() const { return generation_.load(std::memory_order_relaxed); }

 private:
  /// Allocator that adds every byte it hands out to a shard's byte gauge
  /// and subtracts it again on release.
  template <typename T>
  struct ChargedAllocator {
    using value_type = T;

    explicit ChargedAllocator(size_t* bytes) : bytes(bytes) {}
    template <typename U>
    ChargedAllocator(const ChargedAllocator<U>& other) : bytes(other.bytes) {}

    T* allocate(size_t n) {
      *bytes += n * sizeof(T);
      return std::allocator<T>().allocate(n);
    }
    void deallocate(T* p, size_t n) {
      *bytes -= n * sizeof(T);
      std::allocator<T>().deallocate(p, n);
    }
    friend bool operator==(const ChargedAllocator& a, const ChargedAllocator& b) {
      return a.bytes == b.bytes;
    }

    size_t* bytes;
  };

  /// Header of one entry's allocation; the packed result (see
  /// result_cache.cc) follows it in the same block.
  struct Entry {
    Entry* next_in_bucket = nullptr;
    Entry* newer = nullptr;
    Entry* older = nullptr;
    uint64_t generation = 0;
    ResultCacheKey key;

    std::byte* payload() { return reinterpret_cast<std::byte*>(this + 1); }
  };

  struct Shard {
    ~Shard();

    mutable std::mutex mu;
    size_t bytes = 0;  // every byte allocated for this shard's entries
    std::vector<Entry*, ChargedAllocator<Entry*>> buckets{ChargedAllocator<Entry*>(&bytes)};
    size_t entries = 0;
    Entry* newest = nullptr;  // LRU head
    Entry* oldest = nullptr;  // LRU tail, evicted first
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t insertions = 0;
    uint64_t evictions = 0;
    // Admission under zero reuse: lookups and hits of the current window,
    // whether the last full window saw no hit, and a counter that picks
    // the inserts admitted meanwhile.
    uint32_t window_lookups = 0;
    uint32_t window_hits = 0;
    bool no_reuse = false;
    uint32_t skipped_inserts = 0;

    /// Counts a lookup toward the admission window.
    void NoteLookup(bool hit);
    /// False for the inserts a shard without reuse turns away.
    bool Admits();

    /// The bucket slot whose chain holds (or would hold) `key`; requires
    /// a non-empty bucket array.
    Entry** Bucket(const ResultCacheKey& key);
    Entry* Find(const ResultCacheKey& key);
    /// Links a new entry into its chain and the LRU head, growing the
    /// bucket array to keep at most two entries per bucket on average.
    void Link(Entry* entry);
    void Unlink(Entry* entry);
    void PushNewest(Entry* entry);
    /// Removes an entry from its chain and the LRU list and frees it.
    void Erase(Entry* entry);
    /// Releases an entry's allocation.
    void Free(Entry* entry);
  };

  Shard& ShardFor(const ResultCacheKey& key) {
    return *shards_[key.Hash() % shards_.size()];
  }

  /// Shared hit/miss machinery; `unpack` copies the packed result out.
  template <typename Unpack>
  bool LookupImpl(const ResultCacheKey& key, const Unpack& unpack);

  /// Stores the packed form of a result with `groups` group headers and
  /// `objects` members in total; `pack` fills the allocation.
  template <typename Pack>
  void InsertImpl(const ResultCacheKey& key, size_t groups, size_t objects, const Pack& pack);

  // A shard admits every answer while at least one lookup in 1,024 hits;
  // without reuse it stores one answer in 16, a sixteenth of the memory.
  static constexpr uint32_t kAdmissionWindow = 1024;
  static constexpr uint32_t kSampledAdmission = 16;

  size_t capacity_bytes_;
  size_t shard_capacity_bytes_;
  std::atomic<uint64_t> generation_{0};
  // unique_ptr: Shard holds a mutex and must not move.
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace nwc

#endif  // NWC_SERVICE_RESULT_CACHE_H_
