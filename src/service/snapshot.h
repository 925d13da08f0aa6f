#ifndef NWC_SERVICE_SNAPSHOT_H_
#define NWC_SERVICE_SNAPSHOT_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "common/status.h"
#include "geometry/point.h"
#include "service/session.h"

namespace nwc {

/// One data mutation: inserting or deleting a single object. Deletes match
/// by exact (id, position) pair, like RStarTree::Delete.
struct Mutation {
  enum class Kind : uint8_t { kInsert = 0, kDelete = 1 };

  Kind kind = Kind::kInsert;
  DataObject object;

  static Mutation Insert(const DataObject& object) { return Mutation{Kind::kInsert, object}; }
  static Mutation Delete(const DataObject& object) { return Mutation{Kind::kDelete, object}; }

  friend bool operator==(const Mutation& a, const Mutation& b) {
    return a.kind == b.kind && a.object == b.object;
  }
};

/// An ordered group of mutations applied (and usually published) together.
using MutationBatch = std::vector<Mutation>;

/// Epoch-based copy-on-write snapshot manager over the index stack.
///
/// The store owns a *writer* stack — a mutable R*-tree plus the density
/// grid's mutable cell counts — and a *published* immutable Session
/// readers share. Apply() mutates only the writer stack; Publish() builds
/// a fresh Session from it and atomically swaps it in under a new epoch
/// number. A publish costs in proportion to the batch, not to n:
///  * the tree is a copy-on-write clone that shares every node with the
///    writer tree; the writer copies a node before its first write while
///    any snapshot still holds it, so a publish copies only what the batch
///    touched;
///  * the IWP tables are patched from the last snapshot that carried them
///    (IwpIndex::Update): only the lists of nodes the batch replaced, of
///    leaves below a target ancestor that moved or changed MBR, and of
///    their same-level overlap peers are recomputed, and the rest are
///    copied;
///  * the density grid is published from the counts in one pass that
///    writes its prefix sums straight into the new, immutable grid.
/// Readers that Acquire()d the previous epoch keep their shared_ptr — and
/// therefore bit-exact answers for that epoch — until they drop it; the
/// old Session is destroyed when the last holder releases, which frees
/// only the nodes no later epoch shares.
///
/// IWP staleness: the IWP pointer tables store node ids and MBRs of the
/// exact tree they describe, so *any* structural change invalidates them —
/// a stale IWP is wrong, not merely slow. A snapshot published while the
/// number of mutations since the last IWP publish is within
/// `iwp_staleness_limit` simply carries no IWP (`session->iwp() ==
/// nullptr`); QueryService then degrades use_iwp requests to the
/// SRR+DIP+DEP path, which is bit-exact for the effective scheme. Once
/// the bound is exceeded, Publish() patches the tables across all the
/// batches since, and the next snapshots carry a fresh IWP again. The
/// store keeps the last IWP-carrying snapshot alive for that patch, so a
/// limit above 0 also pins the nodes it no longer shares with the writer.
/// The default limit of 0 patches on every publish (every snapshot has a
/// fresh IWP).
///
/// ThreadSafety: Acquire()/epoch() are safe from any thread at any time,
/// and a SnapshotRef may be dropped on any thread. Apply()/Publish()/
/// ApplyAndPublish() are serialized internally (writer_mu_), so at most
/// one thread at a time clones or mutates the writer tree, as its
/// copy-on-write requires. The store is designed for the
/// one-writer/many-readers regime the service exposes.
class SnapshotStore {
 public:
  struct Config {
    SessionConfig session;
    /// Mutations a published snapshot may be missing from its IWP before
    /// Publish() patches the tables. 0 = patch every publish.
    size_t iwp_staleness_limit = 0;

    Status Validate() const { return session.Validate(); }
  };

  /// A pinned view: the Session plus the epoch it was published under.
  /// Holding the shared_ptr keeps the whole epoch alive; the epoch number
  /// keys the result cache so answers never migrate across publishes.
  struct SnapshotRef {
    std::shared_ptr<const Session> session;
    uint64_t epoch = 0;
  };

  /// Per-batch application outcome (counts, not statuses).
  struct ApplyStats {
    size_t inserts = 0;
    size_t deletes = 0;
    size_t delete_misses = 0;  ///< deletes whose (id, position) was absent
  };

  /// Adopts `tree` as the writer stack, builds the configured auxiliary
  /// structures, and publishes epoch 1. The grid's data space is fixed at
  /// open time (config or tree bounds); later inserts outside it clamp to
  /// the boundary cells, which keeps the DEP bound sound (every object is
  /// in some cell) at some pruning-precision cost.
  static Result<std::unique_ptr<SnapshotStore>> Open(RStarTree tree, const Config& config);

  /// The currently-published snapshot. Never null after Open().
  SnapshotRef Acquire() const;

  /// Epoch of the currently-published snapshot (starts at 1).
  uint64_t epoch() const;

  /// Applies `batch` in order to the writer stack only — readers see
  /// nothing until Publish(). Inserts always succeed; a delete whose exact
  /// (id, position) is absent is skipped and counted in
  /// `stats->delete_misses`. Returns NotFound if any delete missed (the
  /// rest of the batch is still applied), Ok otherwise.
  Status Apply(const MutationBatch& batch, ApplyStats* stats = nullptr);

  /// Publishes the writer stack as a new immutable Session under the next
  /// epoch and returns a ref to it. When nothing was applied since the
  /// last publish, returns the current snapshot without cloning.
  SnapshotRef Publish();

  /// Apply() + Publish() under one writer-lock acquisition — the typed
  /// update API's path. `stats` and `out` may be null.
  Status ApplyAndPublish(const MutationBatch& batch, ApplyStats* stats, SnapshotRef* out);

  /// Number of objects in the *writer* stack (>= published when unflushed
  /// inserts exist, etc.).
  size_t writer_object_count() const;

  /// Mutations applied since the last snapshot that carried an IWP
  /// (test/monitoring hook).
  size_t mutations_since_iwp_build() const;

  /// Wall time of the steps of the last publish, in microseconds. `apply`
  /// is the batch of the last ApplyAndPublish (0 for a bare Publish);
  /// `teardown` drops the superseded snapshot (near 0 while a reader pins
  /// it).
  struct PublishTiming {
    uint64_t apply_us = 0;
    uint64_t clone_us = 0;
    uint64_t iwp_us = 0;
    uint64_t grid_us = 0;
    uint64_t teardown_us = 0;
  };
  PublishTiming last_publish() const;

  /// True when the store is *configured* to serve this scheme. Unlike
  /// Session::Supports this is epoch-independent: with build_iwp on, a
  /// use_iwp request is supported even against a snapshot currently inside
  /// the staleness bound (the service degrades it for that query).
  bool Supports(const NwcOptions& options) const {
    return (!options.use_iwp || config_.session.build_iwp) &&
           (!options.use_dep || config_.session.build_grid);
  }

  const Config& config() const { return config_; }

 private:
  explicit SnapshotStore(const Config& config) : config_(config) {}

  Status ApplyLocked(const MutationBatch& batch, ApplyStats* stats);
  SnapshotRef PublishLocked();

  Config config_;

  /// Serializes writers (Apply/Publish). Never held while executing
  /// queries; readers don't touch it.
  mutable std::mutex writer_mu_;
  std::unique_ptr<RStarTree> writer_tree_;
  std::unique_ptr<DensityCounts> writer_grid_;  ///< null when !build_grid
  size_t unpublished_mutations_ = 0;
  size_t mutations_since_iwp_build_ = 0;
  /// The last published snapshot that carried an IWP: the base the next
  /// IWP is patched from. Null before the first publish or without IWP.
  std::shared_ptr<const Session> iwp_base_;
  PublishTiming last_publish_;

  /// Guards the published (session, epoch) pair; held only for the swap in
  /// Publish() and the copy in Acquire(). The superseded session is
  /// released after the swap, outside this lock.
  mutable std::mutex publish_mu_;
  std::shared_ptr<const Session> published_;
  uint64_t epoch_ = 0;
};

}  // namespace nwc

#endif  // NWC_SERVICE_SNAPSHOT_H_
