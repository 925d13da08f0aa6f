#include "service/snapshot.h"

#include <memory>
#include <mutex>
#include <utility>

#include "common/stopwatch.h"
#include "common/string_util.h"

namespace nwc {

Result<std::unique_ptr<SnapshotStore>> SnapshotStore::Open(RStarTree tree, const Config& config) {
  const Status valid = config.Validate();
  if (!valid.ok()) return valid;

  std::unique_ptr<SnapshotStore> store(new SnapshotStore(config));
  store->writer_tree_ = std::make_unique<RStarTree>(std::move(tree));
  if (config.session.build_grid) {
    Rect space = config.session.grid_space;
    if (space.IsEmpty()) space = store->writer_tree_->bounds();
    if (space.IsEmpty()) {
      // Empty tree: a 1-cell grid with zero counts keeps DEP sound until
      // the first inserts land (they clamp into the single cell).
      space = Rect{0.0, 0.0, config.session.grid_cell_size, config.session.grid_cell_size};
    }
    store->writer_grid_ = std::make_unique<DensityCounts>(
        space, config.session.grid_cell_size, CollectTreeObjects(*store->writer_tree_));
  }
  {
    std::lock_guard<std::mutex> lock(store->writer_mu_);
    store->PublishLocked();
  }
  return store;
}

SnapshotStore::SnapshotRef SnapshotStore::Acquire() const {
  std::lock_guard<std::mutex> lock(publish_mu_);
  return SnapshotRef{published_, epoch_};
}

uint64_t SnapshotStore::epoch() const {
  std::lock_guard<std::mutex> lock(publish_mu_);
  return epoch_;
}

size_t SnapshotStore::writer_object_count() const {
  std::lock_guard<std::mutex> lock(writer_mu_);
  return writer_tree_->size();
}

size_t SnapshotStore::mutations_since_iwp_build() const {
  std::lock_guard<std::mutex> lock(writer_mu_);
  return mutations_since_iwp_build_;
}

Status SnapshotStore::Apply(const MutationBatch& batch, ApplyStats* stats) {
  std::lock_guard<std::mutex> lock(writer_mu_);
  return ApplyLocked(batch, stats);
}

SnapshotStore::SnapshotRef SnapshotStore::Publish() {
  std::lock_guard<std::mutex> lock(writer_mu_);
  return PublishLocked();
}

Status SnapshotStore::ApplyAndPublish(const MutationBatch& batch, ApplyStats* stats,
                                      SnapshotRef* out) {
  std::lock_guard<std::mutex> lock(writer_mu_);
  Stopwatch apply;
  const Status status = ApplyLocked(batch, stats);
  last_publish_.apply_us = apply.ElapsedMicros();
  const SnapshotRef ref = PublishLocked();
  if (out != nullptr) *out = ref;
  return status;
}

Status SnapshotStore::ApplyLocked(const MutationBatch& batch, ApplyStats* stats) {
  ApplyStats local;
  for (const Mutation& m : batch) {
    if (m.kind == Mutation::Kind::kInsert) {
      writer_tree_->Insert(m.object);
      if (writer_grid_ != nullptr) writer_grid_->OnInsert(m.object.pos);
      ++local.inserts;
    } else {
      // A miss leaves both tree and grid untouched; the rest of the batch
      // still applies (each mutation is atomic, the batch is not).
      const Status deleted = writer_tree_->Delete(m.object);
      if (deleted.ok()) {
        if (writer_grid_ != nullptr) writer_grid_->OnRemove(m.object.pos);
        ++local.deletes;
      } else {
        ++local.delete_misses;
      }
    }
  }
  const size_t applied = local.inserts + local.deletes;
  unpublished_mutations_ += applied;
  mutations_since_iwp_build_ += applied;
  if (stats != nullptr) *stats = local;
  if (local.delete_misses > 0) {
    return Status::NotFound(
        StrFormat("%zu of %zu deletes matched no stored object", local.delete_misses,
                  local.deletes + local.delete_misses));
  }
  return Status::Ok();
}

SnapshotStore::SnapshotRef SnapshotStore::PublishLocked() {
  {
    std::lock_guard<std::mutex> lock(publish_mu_);
    if (published_ != nullptr && unpublished_mutations_ == 0) {
      return SnapshotRef{published_, epoch_};
    }
  }

  // Copy-on-write: the clone shares every node with the writer tree, and
  // the writer copies a node before its next write to it, so readers can
  // hold this epoch across any number of future publishes. published_
  // always holds the latest clone, so a node the writer writes in place
  // was made after the last publish and no reader has ever seen it.
  Stopwatch step;
  auto tree = std::make_unique<RStarTree>(writer_tree_->Clone());
  last_publish_.clone_us = step.ElapsedMicros();

  step.Restart();
  std::unique_ptr<IwpIndex> iwp;
  if (config_.session.build_iwp) {
    if (iwp_base_ == nullptr) {
      iwp = std::make_unique<IwpIndex>(IwpIndex::Build(*tree));
    } else if (mutations_since_iwp_build_ > config_.iwp_staleness_limit) {
      // Patched from the last snapshot that carried an IWP: it pins the
      // tree that index describes, so every node this clone still shares
      // with it is unchanged.
      iwp = std::make_unique<IwpIndex>(
          IwpIndex::Update(*iwp_base_->iwp(), iwp_base_->tree(), *tree));
    }
    // Else: within the staleness bound the snapshot ships without IWP and
    // the service degrades use_iwp requests (see class comment).
    if (iwp != nullptr) mutations_since_iwp_build_ = 0;
  }
  last_publish_.iwp_us = step.ElapsedMicros();

  step.Restart();
  std::unique_ptr<DensityGrid> grid;
  if (writer_grid_ != nullptr) grid = std::make_unique<DensityGrid>(*writer_grid_);
  last_publish_.grid_us = step.ElapsedMicros();

  const bool carries_iwp = iwp != nullptr;
  auto session = std::make_shared<const Session>(
      Session::FromParts(std::move(tree), std::move(iwp), std::move(grid)));
  if (carries_iwp) iwp_base_ = session;

  // The superseded session is released after publish_mu_ is: when no
  // reader pins it, dropping it frees the nodes the writer has since
  // replaced, and Acquire() must not wait on that.
  std::shared_ptr<const Session> superseded;
  SnapshotRef ref;
  {
    std::lock_guard<std::mutex> lock(publish_mu_);
    superseded = std::exchange(published_, std::move(session));
    ++epoch_;
    unpublished_mutations_ = 0;
    ref = SnapshotRef{published_, epoch_};
  }
  step.Restart();
  superseded.reset();
  last_publish_.teardown_us = step.ElapsedMicros();
  return ref;
}

SnapshotStore::PublishTiming SnapshotStore::last_publish() const {
  std::lock_guard<std::mutex> lock(writer_mu_);
  return last_publish_;
}

}  // namespace nwc
