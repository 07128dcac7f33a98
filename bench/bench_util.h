#ifndef PROBSYN_BENCH_BENCH_UTIL_H_
#define PROBSYN_BENCH_BENCH_UTIL_H_

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

namespace probsyn::bench {

/// Benchmarks run at laptop scale by default; setting PROBSYN_BENCH_FULL=1
/// unlocks paper-scale parameters (the paper's own runs took ~20 minutes
/// per figure on its 2008 hardware).
inline bool FullScale() {
  const char* env = std::getenv("PROBSYN_BENCH_FULL");
  return env != nullptr && env[0] == '1';
}

inline std::size_t Scaled(std::size_t quick, std::size_t full) {
  return FullScale() ? full : quick;
}

/// Fixed-width series table, one row per budget, one column per method —
/// the textual equivalent of one figure panel.
class SeriesTable {
 public:
  SeriesTable(std::string title, std::string row_header,
              std::vector<std::string> columns)
      : title_(std::move(title)),
        row_header_(std::move(row_header)),
        columns_(std::move(columns)) {}

  void AddRow(std::size_t key, const std::vector<double>& values) {
    rows_.push_back({key, values});
  }

  void Print() const {
    std::printf("\n=== %s ===\n", title_.c_str());
    std::printf("%10s", row_header_.c_str());
    for (const std::string& c : columns_) std::printf(" %16s", c.c_str());
    std::printf("\n");
    for (const Row& row : rows_) {
      std::printf("%10zu", row.key);
      for (double v : row.values) std::printf(" %16.3f", v);
      std::printf("\n");
    }
  }

 private:
  struct Row {
    std::size_t key;
    std::vector<double> values;
  };
  std::string title_;
  std::string row_header_;
  std::vector<std::string> columns_;
  std::vector<Row> rows_;
};

}  // namespace probsyn::bench

#endif  // PROBSYN_BENCH_BENCH_UTIL_H_
