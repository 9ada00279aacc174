// The generalized Z-index of the paper (§3-§5): a quaternary space
// partitioning tree in which every internal node carries its own split
// point and child ordering ("abcd" or "acbd"), leaves are pages of at most
// L points linked in curve order (the LeafList), and — optionally — four
// look-ahead pointers per leaf implement the §5 skipping mechanism.
//
// The same class implements the Base Z-index (median splits, "abcd"
// everywhere, naive scanning) and WaZI (cost-optimized splits/orderings
// plus skipping); construction strategies live in builder.h.

#ifndef WAZI_CORE_ZINDEX_H_
#define WAZI_CORE_ZINDEX_H_

#include <cstddef>
#include <cstdint>
#include <vector>
#include <iosfwd>

#include "common/geometry.h"
#include "core/cost_model.h"
#include "index/spatial_index.h"
#include "storage/leaf_dir.h"
#include "storage/page_store.h"

namespace wazi {

class ZIndex {
 public:
  struct Node {
    double sx = 0.0;
    double sy = 0.0;
    Ordering ord = Ordering::kAbcd;
    // Children indexed by Quadrant (not curve order); kInvalidNode iff leaf.
    int32_t child[4] = {-1, -1, -1, -1};
    int32_t leaf_id = kInvalidLeaf;  // valid iff leaf

    bool is_leaf() const { return leaf_id != kInvalidLeaf; }
  };

  static constexpr int32_t kInvalidNode = -1;

  ZIndex() = default;

  // --- Construction surface (used by builders; see builder.h) ---
  void StartBuild(const Rect& domain, int leaf_capacity);
  // Adds an internal node; returns its id. Children are patched later.
  int32_t AddInternal(double sx, double sy, Ordering ord);
  // Adds a leaf node covering `cell` whose points are [begin, end) of the
  // final clustered array; returns node id. MBR computed from the points.
  int32_t AddLeaf(const Rect& cell, const Point* points, uint32_t begin,
                  uint32_t end);
  void SetChild(int32_t parent, Quadrant q, int32_t child);
  void SetRoot(int32_t node) { root_ = node; }
  // Adopts the clustered point array; `AddLeaf` calls must have covered
  // exactly [0, points.size()) in curve order. Leaves no spare capacity.
  void FinishBuild(std::vector<Point> points);
  // Computes the §5 look-ahead pointers (enables skipping range queries).
  void BuildLookahead();

  // --- Queries ---
  // Algorithm 1: leaf (node id) containing the point.
  int32_t FindLeafNode(double x, double y) const;

  // Algorithm 2, naive variant: scan [low:high] leaves, checking each MBR.
  void RangeQueryNaive(const Rect& query, std::vector<Point>* out,
                       QueryStats* stats) const;
  // Algorithm 2 with §5 skipping via look-ahead pointers.
  void RangeQuerySkipping(const Rect& query, std::vector<Point>* out,
                          QueryStats* stats) const;

  // Projection phase only (Fig. 9): spans of pages that pass the MBR
  // check, using the requested execution mode.
  void Project(const Rect& query, bool use_skipping, Projection* proj,
               QueryStats* stats) const;

  bool PointQuery(double x, double y, QueryStats* stats) const;

  // --- Updates (§6.7) ---
  // Inserts p into its leaf; splits the leaf along data medians when the
  // page overflows. `maintain_lookahead` repairs the affected look-ahead
  // pointers (WaZI); pass false for the Base index.
  void Insert(const Point& p, bool maintain_lookahead);
  // Removes one point with these coordinates; false if absent.
  bool Remove(double x, double y);

  // --- Introspection ---
  size_t num_points() const { return store_.num_points(); }
  size_t num_leaves() const { return dir_.size(); }
  size_t num_nodes() const { return nodes_.size(); }
  const Rect& domain() const { return domain_; }
  const LeafDir& leaf_dir() const { return dir_; }
  const PageStore& page_store() const { return store_; }
  const Node& node(int32_t id) const { return nodes_[id]; }
  int32_t root() const { return root_; }
  bool has_lookahead() const { return has_lookahead_; }
  int leaf_capacity() const { return leaf_capacity_; }

  size_t SizeBytes() const;

 private:
  friend class ZIndexUpdater;
  friend bool SaveZIndex(const ZIndex& index, std::ostream& out);
  friend bool LoadZIndex(std::istream& in, ZIndex* index);

  // Shared walk for both range-query variants and projection.
  template <bool kUseSkipping, typename LeafFn>
  void WalkRange(const Rect& query, QueryStats* stats, LeafFn&& fn) const;

  void SplitLeaf(int32_t node_id, bool maintain_lookahead);
  // Recomputes `leaf`'s look-ahead pointers from the (valid) suffix.
  void ComputeLookaheadFor(int32_t leaf_id);

  std::vector<Node> nodes_;
  LeafDir dir_;
  PageStore store_;
  Rect domain_;
  int32_t root_ = kInvalidNode;
  int leaf_capacity_ = 256;
  bool has_lookahead_ = false;

  // Bulk-load scratch: leaf page offsets, filled by AddLeaf.
  std::vector<uint32_t> build_offsets_;
};

}  // namespace wazi

#endif  // WAZI_CORE_ZINDEX_H_
