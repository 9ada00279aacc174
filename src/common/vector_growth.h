// Capacity growth for arrays that a bulk load leaves exact.

#ifndef WAZI_COMMON_VECTOR_GROWTH_H_
#define WAZI_COMMON_VECTOR_GROWTH_H_

#include <cstddef>
#include <vector>

namespace wazi {

// Makes room for `n` more elements, growing by an eighth instead of
// doubling. A built index holds no spare capacity, and doubling on the
// first insert-time append would leave up to half of the array unused.
// Still geometric, so appends stay amortized O(1).
template <typename T>
void ReserveForAppend(std::vector<T>* v, size_t n) {
  if (v->size() + n > v->capacity()) {
    v->reserve(v->size() + n + v->size() / 8);
  }
}

}  // namespace wazi

#endif  // WAZI_COMMON_VECTOR_GROWTH_H_
