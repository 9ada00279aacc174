// Leaf directory for Z-index-style structures: the ordered list of leaf
// nodes (the paper's LeafList), their cell rectangles, tight MBRs, page
// ids, gapped ordinal keys, doubly-linked order, and the four look-ahead
// pointer slots of §5.
//
// Two rectangles per leaf, on purpose:
//  * `cell`  — the space-partition cell the leaf owns. Stable under
//    inserts (tree traversal routes every new point into its cell), so the
//    look-ahead skipping invariants built on cells survive updates.
//  * `mbr`   — tight bounding box of the points actually stored. Used for
//    the overlap check right before scanning a page; may grow on insert
//    (growth is safe there because it only makes scans more likely).

#ifndef WAZI_STORAGE_LEAF_DIR_H_
#define WAZI_STORAGE_LEAF_DIR_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/geometry.h"

namespace wazi {

// Look-ahead pointer criteria (paper §5.1): the reason a leaf is
// irrelevant to a query, and the pointer to the next leaf that could be
// relevant under that criterion.
enum Criterion : int {
  kBelow = 0,  // leaf entirely below the query
  kAbove = 1,  // leaf entirely above the query
  kLeft = 2,   // leaf entirely left of the query
  kRight = 3,  // leaf entirely right of the query
};
inline constexpr int kNumCriteria = 4;

inline constexpr int32_t kInvalidLeaf = -1;

struct LeafRec {
  Rect cell;
  Rect mbr;
  int32_t page = -1;
  int64_t ord = 0;
  int32_t next = kInvalidLeaf;
  int32_t prev = kInvalidLeaf;
  int32_t lookahead[kNumCriteria] = {kInvalidLeaf, kInvalidLeaf, kInvalidLeaf,
                                     kInvalidLeaf};
};

class LeafDir {
 public:
  // Ord keys are spaced by this gap at bulk load / renumber so leaf splits
  // can slot new leaves between neighbours without renumbering.
  static constexpr int64_t kOrdGap = int64_t{1} << 20;

  LeafDir() = default;

  void Clear();

  // Drops spare capacity left by the bulk load's appends.
  void ShrinkToFit() { leaves_.shrink_to_fit(); }

  // Appends a leaf at the end of the list (bulk load path). Assigns ord.
  int32_t Append(const Rect& cell, const Rect& mbr, int32_t page);

  // Inserts a new leaf immediately after `pos` in the list. The caller
  // must have ensured an ord gap exists (see HasOrdGapAfter / Renumber).
  int32_t InsertAfter(int32_t pos, const Rect& cell, const Rect& mbr,
                      int32_t page);

  // True if at least `needed` distinct ord values fit strictly between
  // `pos` and its successor.
  bool HasOrdGapAfter(int32_t pos, int64_t needed) const;

  // Reassigns ord keys with the standard gap, preserving list order.
  void Renumber();

  int32_t head() const { return head_; }
  int32_t tail() const { return tail_; }
  size_t size() const { return leaves_.size(); }

  LeafRec& leaf(int32_t id) { return leaves_[id]; }
  const LeafRec& leaf(int32_t id) const { return leaves_[id]; }

  // Leaf ids in list order (head to tail).
  std::vector<int32_t> InOrder() const;

  // Restores a directory verbatim (deserialization): `leaves` indexed by
  // leaf id with next/prev/ord/lookahead already consistent.
  void Restore(std::vector<LeafRec> leaves, int32_t head, int32_t tail);

  // Raw access for serialization.
  const std::vector<LeafRec>& raw_leaves() const { return leaves_; }

  size_t SizeBytes() const {
    return sizeof(*this) + leaves_.capacity() * sizeof(LeafRec);
  }

 private:
  std::vector<LeafRec> leaves_;
  int32_t head_ = kInvalidLeaf;
  int32_t tail_ = kInvalidLeaf;
};

}  // namespace wazi

#endif  // WAZI_STORAGE_LEAF_DIR_H_
