// Detection-quality accounting for the Fig. 4 reproduction.
//
// Each trial contributes one labelled outcome: was an attacker present
// (ground truth) and was one confirmed (prediction). Rates follow the
// paper's reporting: detection accuracy, false-positive rate (honest nodes
// confirmed), false-negative rate (attackers missed).
#pragma once

#include <cstdint>

namespace blackdp::metrics {

class ConfusionMatrix {
 public:
  void addTruePositive() { ++tp_; }
  void addFalsePositive() { ++fp_; }
  void addTrueNegative() { ++tn_; }
  void addFalseNegative() { ++fn_; }

  /// Builds a matrix from pre-aggregated counts (e.g. one Fig. 4 cell's
  /// detected / missed / false-positive tallies).
  [[nodiscard]] static ConfusionMatrix fromCounts(std::uint64_t tp,
                                                  std::uint64_t fp,
                                                  std::uint64_t tn,
                                                  std::uint64_t fn) {
    ConfusionMatrix m;
    m.tp_ = tp;
    m.fp_ = fp;
    m.tn_ = tn;
    m.fn_ = fn;
    return m;
  }

  [[nodiscard]] std::uint64_t tp() const { return tp_; }
  [[nodiscard]] std::uint64_t fp() const { return fp_; }
  [[nodiscard]] std::uint64_t tn() const { return tn_; }
  [[nodiscard]] std::uint64_t fn() const { return fn_; }
  [[nodiscard]] std::uint64_t total() const { return tp_ + fp_ + tn_ + fn_; }

  /// (TP + TN) / total; 0 when empty.
  [[nodiscard]] double accuracy() const;
  /// TP / (TP + FN); 1 when no positives exist.
  [[nodiscard]] double recall() const;
  /// TP / (TP + FP); 1 when nothing was flagged.
  [[nodiscard]] double precision() const;
  /// FP / (FP + TN); 0 when no negatives exist.
  [[nodiscard]] double falsePositiveRate() const;
  /// FN / (FN + TP); 0 when no positives exist.
  [[nodiscard]] double falseNegativeRate() const;

  ConfusionMatrix& operator+=(const ConfusionMatrix& other);

 private:
  std::uint64_t tp_{0};
  std::uint64_t fp_{0};
  std::uint64_t tn_{0};
  std::uint64_t fn_{0};
};

}  // namespace blackdp::metrics
