// Table 3: build time (seconds) of the six main indexes across dataset
// sizes, each beside the number of threads its build ran on. The paper's
// Table 3 is single-threaded; the Z-index builds here score split
// candidates on every core (core/builder.h), the others use one thread.

#include <cstdio>

#include "common/harness.h"
#include "core/wazi.h"

int main() {
  using namespace wazi;
  using namespace wazi::bench;

  const Scale& scale = CurrentScale();
  std::vector<std::string> header = {"size"};
  for (const std::string& name : MainIndexNames()) header.push_back(name);

  std::vector<std::vector<std::string>> rows;
  for (const size_t n : scale.size_sweep) {
    const Dataset& data = GetDataset(Region::kCaliNev, n);
    const Workload& workload =
        GetWorkload(Region::kCaliNev, scale.num_queries, kSelectivityMid2);
    std::vector<std::string> row = {FormatCount(n)};
    for (const std::string& name : MainIndexNames()) {
      double build_s = 0.0;
      auto index = BuildIndex(name, data, workload, &build_s);
      const auto* z = dynamic_cast<const ZIndexVariant*>(index.get());
      const int threads = z != nullptr ? z->build_workers() : 1;
      char buf[48];
      std::snprintf(buf, sizeof(buf), "%.2fs (%dt)", build_s, threads);
      row.push_back(buf);
      std::fprintf(stderr, "[tab03] %s n=%zu done (%.2fs, %d threads)\n",
                   name.c_str(), n, build_s, threads);
    }
    rows.push_back(std::move(row));
  }
  PrintTable("Table 3: build time (seconds, build threads), CaliNev", header,
             rows);
  return 0;
}
