#include "storage/leaf_dir.h"

#include "common/vector_growth.h"

namespace wazi {

void LeafDir::Clear() {
  leaves_.clear();
  head_ = tail_ = kInvalidLeaf;
}

int32_t LeafDir::Append(const Rect& cell, const Rect& mbr, int32_t page) {
  const int32_t id = static_cast<int32_t>(leaves_.size());
  LeafRec rec;
  rec.cell = cell;
  rec.mbr = mbr;
  rec.page = page;
  rec.prev = tail_;
  rec.next = kInvalidLeaf;
  rec.ord = (tail_ == kInvalidLeaf) ? kOrdGap : leaves_[tail_].ord + kOrdGap;
  leaves_.push_back(rec);
  if (tail_ != kInvalidLeaf) {
    leaves_[tail_].next = id;
  } else {
    head_ = id;
  }
  tail_ = id;
  return id;
}

int32_t LeafDir::InsertAfter(int32_t pos, const Rect& cell, const Rect& mbr,
                             int32_t page) {
  const int32_t id = static_cast<int32_t>(leaves_.size());
  LeafRec rec;
  rec.cell = cell;
  rec.mbr = mbr;
  rec.page = page;
  const int32_t nxt = leaves_[pos].next;
  rec.prev = pos;
  rec.next = nxt;
  const int64_t lo = leaves_[pos].ord;
  const int64_t hi =
      (nxt == kInvalidLeaf) ? lo + 2 * kOrdGap : leaves_[nxt].ord;
  rec.ord = lo + (hi - lo) / 2;
  ReserveForAppend(&leaves_, 1);
  leaves_.push_back(rec);
  leaves_[pos].next = id;
  if (nxt != kInvalidLeaf) {
    leaves_[nxt].prev = id;
  } else {
    tail_ = id;
  }
  return id;
}

bool LeafDir::HasOrdGapAfter(int32_t pos, int64_t needed) const {
  const int32_t nxt = leaves_[pos].next;
  if (nxt == kInvalidLeaf) return true;
  return leaves_[nxt].ord - leaves_[pos].ord > needed;
}

void LeafDir::Renumber() {
  int64_t ord = kOrdGap;
  for (int32_t id = head_; id != kInvalidLeaf; id = leaves_[id].next) {
    leaves_[id].ord = ord;
    ord += kOrdGap;
  }
}

void LeafDir::Restore(std::vector<LeafRec> leaves, int32_t head,
                      int32_t tail) {
  leaves_ = std::move(leaves);
  head_ = head;
  tail_ = tail;
}

std::vector<int32_t> LeafDir::InOrder() const {
  std::vector<int32_t> out;
  out.reserve(leaves_.size());
  for (int32_t id = head_; id != kInvalidLeaf; id = leaves_[id].next) {
    out.push_back(id);
  }
  return out;
}

}  // namespace wazi
