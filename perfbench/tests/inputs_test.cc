// The benchmark's inputs are a pure function of --seed: the same seed
// gives identical input digests, different seeds give different ones,
// for every workload.

#include <cstdio>

#include "workloads.h"

int main() {
  struct Workload {
    const char* name;
    uint64_t (*digest)(uint64_t);
  };
  const Workload workloads[] = {
      {"index_range", perfbench::IndexRangeDigest},
      {"serve_read", perfbench::ServeReadDigest},
      {"serve_mixed", perfbench::ServeMixedDigest},
  };
  int failures = 0;
  for (const Workload& w : workloads) {
    const uint64_t a = w.digest(1);
    const uint64_t again = w.digest(1);
    const uint64_t b = w.digest(2);
    if (a != again) {
      std::fprintf(stderr,
                   "FAIL %s: seed 1 digests differ (%016llx, %016llx)\n",
                   w.name, static_cast<unsigned long long>(a),
                   static_cast<unsigned long long>(again));
      ++failures;
    }
    if (a == b) {
      std::fprintf(stderr, "FAIL %s: seeds 1 and 2 share digest %016llx\n",
                   w.name, static_cast<unsigned long long>(a));
      ++failures;
    }
    std::printf("%s: seed1=%016llx seed2=%016llx\n", w.name,
                static_cast<unsigned long long>(a),
                static_cast<unsigned long long>(b));
  }
  if (failures == 0) std::printf("PASS\n");
  return failures == 0 ? 0 : 1;
}
