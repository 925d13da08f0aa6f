#include "rtree/serialize.h"

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "rtree/bulk_load.h"
#include "rtree/queries.h"
#include "rtree/validate.h"

namespace nwc {
namespace {

std::string TempPath(const char* name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

std::vector<DataObject> RandomObjects(size_t count, uint64_t seed) {
  Rng rng(seed);
  std::vector<DataObject> objects;
  for (size_t i = 0; i < count; ++i) {
    objects.push_back(DataObject{static_cast<ObjectId>(i),
                                 Point{rng.NextDouble(0, 1000), rng.NextDouble(0, 1000)}});
  }
  return objects;
}

std::vector<ObjectId> SortedIds(std::vector<DataObject> objects) {
  std::vector<ObjectId> ids;
  for (const DataObject& obj : objects) ids.push_back(obj.id);
  std::sort(ids.begin(), ids.end());
  return ids;
}

TEST(SerializeTest, RoundTripPreservesQueries) {
  const std::vector<DataObject> objects = RandomObjects(3000, 51);
  RTreeOptions options;
  options.max_entries = 12;
  options.min_entries = 5;
  RStarTree tree(options);
  for (const DataObject& obj : objects) tree.Insert(obj);

  const std::string path = TempPath("roundtrip.nwctree");
  ASSERT_TRUE(SaveTree(tree, path).ok());
  Result<RStarTree> loaded = LoadTree(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

  EXPECT_EQ(loaded->size(), tree.size());
  EXPECT_EQ(loaded->height(), tree.height());
  EXPECT_EQ(loaded->node_count(), tree.node_count());
  EXPECT_TRUE(ValidateTree(*loaded).ok()) << ValidateTree(*loaded).ToString();

  Rng rng(52);
  for (int trial = 0; trial < 30; ++trial) {
    const Rect window = Rect::FromCorners(
        Point{rng.NextDouble(0, 1000), rng.NextDouble(0, 1000)},
        Point{rng.NextDouble(0, 1000), rng.NextDouble(0, 1000)});
    EXPECT_EQ(SortedIds(WindowQuery(*loaded, window, nullptr)),
              SortedIds(WindowQuery(tree, window, nullptr)));
  }
}

TEST(SerializeTest, RoundTripAfterDeletions) {
  std::vector<DataObject> objects = RandomObjects(1000, 53);
  RTreeOptions options;
  options.max_entries = 10;
  options.min_entries = 4;
  RStarTree tree(options);
  for (const DataObject& obj : objects) tree.Insert(obj);
  // Deletions create freed arena slots; serialization must handle them.
  for (size_t i = 0; i < 400; ++i) {
    ASSERT_TRUE(tree.Delete(objects[i]).ok());
  }

  const std::string path = TempPath("after_delete.nwctree");
  ASSERT_TRUE(SaveTree(tree, path).ok());
  Result<RStarTree> loaded = LoadTree(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->size(), 600u);
  EXPECT_TRUE(ValidateTree(*loaded).ok()) << ValidateTree(*loaded).ToString();
}

TEST(SerializeTest, RoundTripEmptyTree) {
  RStarTree tree;
  const std::string path = TempPath("empty.nwctree");
  ASSERT_TRUE(SaveTree(tree, path).ok());
  Result<RStarTree> loaded = LoadTree(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_TRUE(loaded->empty());
}

TEST(SerializeTest, RoundTripBulkLoadedTree) {
  const std::vector<DataObject> objects = RandomObjects(5000, 54);
  const RStarTree tree = BulkLoadStr(objects, RTreeOptions{});
  const std::string path = TempPath("bulk.nwctree");
  ASSERT_TRUE(SaveTree(tree, path).ok());
  Result<RStarTree> loaded = LoadTree(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->size(), 5000u);
  EXPECT_EQ(loaded->node_count(), tree.node_count());
}

TEST(SerializeTest, LoadMissingFileFails) {
  Result<RStarTree> loaded = LoadTree(TempPath("does_not_exist.nwctree"));
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kIoError);
}

TEST(SerializeTest, LoadGarbageFails) {
  const std::string path = TempPath("garbage.nwctree");
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fputs("this is not a tree file at all", f);
  std::fclose(f);
  Result<RStarTree> loaded = LoadTree(path);
  EXPECT_FALSE(loaded.ok());
}

TEST(SerializeTest, LoadTruncatedFails) {
  const std::vector<DataObject> objects = RandomObjects(500, 55);
  const RStarTree tree = BulkLoadStr(objects, RTreeOptions{});
  const std::string path = TempPath("truncated.nwctree");
  ASSERT_TRUE(SaveTree(tree, path).ok());
  // Truncate to half size.
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::fseek(f, 0, SEEK_END);
  const long size = std::ftell(f);
  std::fclose(f);
  ASSERT_EQ(truncate(path.c_str(), size / 2), 0);
  Result<RStarTree> loaded = LoadTree(path);
  EXPECT_FALSE(loaded.ok());
}

// A hand-written tree file: a valid header claiming `slot_count` slots,
// then `tail` as the slot bytes.
std::string WriteTreeFile(const char* name, uint64_t slot_count, const std::string& tail) {
  const std::string path = TempPath(name);
  std::FILE* f = std::fopen(path.c_str(), "wb");
  EXPECT_NE(f, nullptr);
  const RTreeOptions options;
  const uint64_t magic = 0x4E57435452454531ULL;  // "NWCTREE1"
  const int32_t max_entries = static_cast<int32_t>(options.max_entries);
  const int32_t min_entries = static_cast<int32_t>(options.min_entries);
  const uint8_t forced = options.forced_reinsert ? 1 : 0;
  const uint8_t split = static_cast<uint8_t>(options.split_algorithm);
  const uint64_t size = 1;
  const NodeId root = 0;
  std::fwrite(&magic, sizeof(magic), 1, f);
  std::fwrite(&max_entries, sizeof(max_entries), 1, f);
  std::fwrite(&min_entries, sizeof(min_entries), 1, f);
  std::fwrite(&options.reinsert_fraction, sizeof(double), 1, f);
  std::fwrite(&forced, 1, 1, f);
  std::fwrite(&split, 1, 1, f);
  std::fwrite(&size, sizeof(size), 1, f);
  std::fwrite(&slot_count, sizeof(slot_count), 1, f);
  std::fwrite(&root, sizeof(root), 1, f);
  std::fwrite(tail.data(), 1, tail.size(), f);
  std::fclose(f);
  return path;
}

// One live slot at `level` whose record count is 0xFFFFFFFF, followed by
// a few stray bytes instead of the records.
std::string HostileSlot(int32_t level) {
  std::string slot(1, '\1');
  const NodeId parent = kInvalidNodeId;
  const uint32_t count = 0xFFFFFFFFu;
  slot.append(reinterpret_cast<const char*>(&level), sizeof(level));
  slot.append(reinterpret_cast<const char*>(&parent), sizeof(parent));
  slot.append(reinterpret_cast<const char*>(&count), sizeof(count));
  slot.append(24, '\0');
  return slot;
}

// Counts in a tree file are bounded by the file's size before anything is
// allocated: each hostile count below used to size a multi-gigabyte
// allocation and throw std::bad_alloc.
TEST(SerializeTest, HostileSlotCountInHeaderFails) {
  const std::string path = WriteTreeFile("hostile_slots.nwctree", uint64_t{1} << 40, "");
  Result<RStarTree> loaded = Status::Internal("LoadTree threw");
  EXPECT_NO_THROW(loaded = LoadTree(path));
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kIoError) << loaded.status();
}

TEST(SerializeTest, HostileLeafObjectCountFails) {
  const std::string path = WriteTreeFile("hostile_leaf.nwctree", 1, HostileSlot(0));
  Result<RStarTree> loaded = Status::Internal("LoadTree threw");
  EXPECT_NO_THROW(loaded = LoadTree(path));
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kIoError) << loaded.status();
}

TEST(SerializeTest, HostileChildCountFails) {
  const std::string path = WriteTreeFile("hostile_children.nwctree", 1, HostileSlot(1));
  Result<RStarTree> loaded = Status::Internal("LoadTree threw");
  EXPECT_NO_THROW(loaded = LoadTree(path));
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kIoError) << loaded.status();
}

}  // namespace
}  // namespace nwc
