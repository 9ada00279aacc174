#include "core/serialize.h"

#include <cstddef>
#include <cstring>
#include <fstream>
#include <istream>
#include <ostream>

namespace wazi {
namespace {

constexpr uint64_t kMagic = 0x57615a4931000000ULL;  // "WaZI1"
constexpr uint32_t kVersion = 1;

template <typename T>
void WritePod(std::ostream& out, const T& v) {
  out.write(reinterpret_cast<const char*>(&v), sizeof(T));
}

template <typename T>
bool ReadPod(std::istream& in, T* v) {
  in.read(reinterpret_cast<char*>(v), sizeof(T));
  return static_cast<bool>(in);
}

template <typename T>
bool ReadVec(std::istream& in, std::vector<T>* v, uint64_t max_elems) {
  uint64_t n = 0;
  if (!ReadPod(in, &n) || n > max_elems) return false;
  v->resize(n);
  if (n > 0) {
    in.read(reinterpret_cast<char*>(v->data()),
            static_cast<std::streamsize>(n * sizeof(T)));
  }
  return static_cast<bool>(in);
}

// One record as written to disk: each field's bytes at its offset in the
// struct, every padding byte zero. Writing the in-memory struct instead
// would leak whatever its padding happened to hold, so two saves of the
// same index could differ. The layout matches the struct's, so the
// reader stays a plain ReadVec.
template <typename T>
class RecordImage {
 public:
  template <typename F>
  void Put(size_t offset, const F& field) {
    std::memcpy(bytes_ + offset, &field, sizeof(F));
  }
  void WriteTo(std::ostream& out) const { out.write(bytes_, sizeof(T)); }

 private:
  char bytes_[sizeof(T)] = {};
};

// Pinned sizes: a changed struct fails here until its Put list (and
// kVersion) is revisited.
static_assert(sizeof(ZIndex::Node) == 40);
static_assert(sizeof(LeafRec) == 104);

void WriteRecord(std::ostream& out, const ZIndex::Node& n) {
  RecordImage<ZIndex::Node> rec;
  rec.Put(offsetof(ZIndex::Node, sx), n.sx);
  rec.Put(offsetof(ZIndex::Node, sy), n.sy);
  rec.Put(offsetof(ZIndex::Node, ord), n.ord);
  rec.Put(offsetof(ZIndex::Node, child), n.child);
  rec.Put(offsetof(ZIndex::Node, leaf_id), n.leaf_id);
  rec.WriteTo(out);
}

void WriteRecord(std::ostream& out, const LeafRec& l) {
  RecordImage<LeafRec> rec;
  rec.Put(offsetof(LeafRec, cell), l.cell);
  rec.Put(offsetof(LeafRec, mbr), l.mbr);
  rec.Put(offsetof(LeafRec, page), l.page);
  rec.Put(offsetof(LeafRec, ord), l.ord);
  rec.Put(offsetof(LeafRec, next), l.next);
  rec.Put(offsetof(LeafRec, prev), l.prev);
  rec.Put(offsetof(LeafRec, lookahead), l.lookahead);
  rec.WriteTo(out);
}

// Count-prefixed records, the layout ReadVec reads back.
template <typename T>
void WriteRecords(std::ostream& out, const std::vector<T>& v) {
  WritePod(out, static_cast<uint64_t>(v.size()));
  for (const T& r : v) WriteRecord(out, r);
}

// Sanity cap against corrupt headers (1 billion entries).
constexpr uint64_t kMaxElems = 1ull << 30;

}  // namespace

bool SaveZIndex(const ZIndex& index, std::ostream& out) {
  WritePod(out, kMagic);
  WritePod(out, kVersion);
  WritePod(out, index.root_);
  WritePod(out, index.leaf_capacity_);
  WritePod(out, static_cast<uint8_t>(index.has_lookahead_ ? 1 : 0));
  WritePod(out, index.domain_);

  WriteRecords(out, index.nodes_);

  // Leaf directory: records plus list anchors.
  WritePod(out, index.dir_.head());
  WritePod(out, index.dir_.tail());
  WriteRecords(out, index.dir_.raw_leaves());

  // Pages, materialized in page-id order (re-clusters on load).
  const PageStore& store = index.store_;
  WritePod(out, static_cast<uint64_t>(store.num_pages()));
  for (int32_t p = 0; p < store.num_pages(); ++p) {
    const Span span = store.PageSpan(p);
    WritePod(out, static_cast<uint64_t>(span.size()));
    if (!span.empty()) {
      out.write(reinterpret_cast<const char*>(span.begin),
                static_cast<std::streamsize>(span.size() * sizeof(Point)));
    }
  }
  return static_cast<bool>(out);
}

bool LoadZIndex(std::istream& in, ZIndex* index) {
  *index = ZIndex();
  uint64_t magic = 0;
  uint32_t version = 0;
  if (!ReadPod(in, &magic) || magic != kMagic) return false;
  if (!ReadPod(in, &version) || version != kVersion) return false;

  int32_t root = ZIndex::kInvalidNode;
  int leaf_capacity = 0;
  uint8_t has_lookahead = 0;
  Rect domain;
  if (!ReadPod(in, &root) || !ReadPod(in, &leaf_capacity) ||
      !ReadPod(in, &has_lookahead) || !ReadPod(in, &domain)) {
    return false;
  }

  std::vector<ZIndex::Node> nodes;
  if (!ReadVec(in, &nodes, kMaxElems)) return false;

  int32_t head = kInvalidLeaf, tail = kInvalidLeaf;
  std::vector<LeafRec> leaves;
  if (!ReadPod(in, &head) || !ReadPod(in, &tail) ||
      !ReadVec(in, &leaves, kMaxElems)) {
    return false;
  }

  uint64_t num_pages = 0;
  if (!ReadPod(in, &num_pages) || num_pages > kMaxElems) return false;
  std::vector<Point> clustered;
  std::vector<uint32_t> offsets;
  offsets.reserve(num_pages + 1);
  for (uint64_t p = 0; p < num_pages; ++p) {
    uint64_t len = 0;
    if (!ReadPod(in, &len) || len > kMaxElems) return false;
    offsets.push_back(static_cast<uint32_t>(clustered.size()));
    const size_t old = clustered.size();
    clustered.resize(old + len);
    if (len > 0) {
      in.read(reinterpret_cast<char*>(clustered.data() + old),
              static_cast<std::streamsize>(len * sizeof(Point)));
      if (!in) return false;
    }
  }
  offsets.push_back(static_cast<uint32_t>(clustered.size()));

  // Structural sanity before committing.
  if (root >= static_cast<int32_t>(nodes.size())) return false;
  for (const ZIndex::Node& n : nodes) {
    if (n.is_leaf()) {
      if (n.leaf_id >= static_cast<int32_t>(leaves.size())) return false;
    } else {
      for (int c = 0; c < 4; ++c) {
        if (n.child[c] < 0 ||
            n.child[c] >= static_cast<int32_t>(nodes.size())) {
          return false;
        }
      }
    }
  }
  for (const LeafRec& leaf : leaves) {
    if (leaf.page < 0 || leaf.page >= static_cast<int32_t>(num_pages)) {
      return false;
    }
  }

  index->nodes_ = std::move(nodes);
  index->dir_.Restore(std::move(leaves), head, tail);
  index->store_.BulkLoad(std::move(clustered), offsets);
  index->domain_ = domain;
  index->root_ = root;
  index->leaf_capacity_ = leaf_capacity;
  index->has_lookahead_ = has_lookahead != 0;
  return true;
}

bool SaveZIndexToFile(const ZIndex& index, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  return out && SaveZIndex(index, out) && static_cast<bool>(out.flush());
}

bool LoadZIndexFromFile(const std::string& path, ZIndex* index) {
  std::ifstream in(path, std::ios::binary);
  return in && LoadZIndex(in, index);
}

}  // namespace wazi
