// In-memory columnar attribute state A_{t,s}: the per-(snapshot,
// superstep) vertex attribute arrays the BSP executor reads and writes
// (§5.2) and whose after-image diffs the vertex store persists as delta
// chains (§5.1). See ARCHITECTURE.md, layer 4.
#ifndef ITG_ENGINE_COLUMNS_H_
#define ITG_ENGINE_COLUMNS_H_

#include <vector>

#include "common/logging.h"
#include "common/types.h"

namespace itg {

/// Maximum width of an attribute (Array<_, N> needs N <= kMaxAttrWidth).
/// Bounds the value a walk task keeps per emission (Engine::EmissionSlot);
/// the executor's frames are sized from the lowered code instead.
inline constexpr int kMaxAttrWidth = 64;

/// Columnar storage for vertex attribute values at one (snapshot,
/// superstep): one dense double column per attribute (width doubles per
/// vertex). The runtime represents every L_NGA value as doubles — exact
/// for bool/int/long up to 2^53, which the declared types bound.
class ColumnSet {
 public:
  ColumnSet() = default;

  void Init(VertexId num_vertices, const std::vector<int>& widths) {
    num_vertices_ = num_vertices;
    widths_ = widths;
    data_.resize(widths.size());
    for (size_t a = 0; a < widths.size(); ++a) {
      data_[a].assign(
          static_cast<size_t>(num_vertices) * static_cast<size_t>(widths[a]),
          0.0);
    }
  }

  double* Cell(int attr, VertexId v) {
    return data_[attr].data() +
           static_cast<size_t>(v) * static_cast<size_t>(widths_[attr]);
  }
  const double* Cell(int attr, VertexId v) const {
    return data_[attr].data() +
           static_cast<size_t>(v) * static_cast<size_t>(widths_[attr]);
  }

  std::vector<double>& Column(int attr) { return data_[attr]; }
  const std::vector<double>& Column(int attr) const { return data_[attr]; }

  int width(int attr) const { return widths_[attr]; }
  int attr_count() const { return static_cast<int>(widths_.size()); }
  VertexId num_vertices() const { return num_vertices_; }

  /// Resident bytes of all columns (capacity, not logical size — this is
  /// what the allocator actually holds; feeds the memory gauges).
  size_t ByteSize() const {
    size_t bytes = 0;
    for (const auto& col : data_) bytes += col.capacity() * sizeof(double);
    return bytes;
  }

  /// True if the `width(attr)` values of `v` differ between two sets.
  static bool CellDiffers(const ColumnSet& a, const ColumnSet& b, int attr,
                          VertexId v) {
    const double* pa = a.Cell(attr, v);
    const double* pb = b.Cell(attr, v);
    for (int i = 0; i < a.width(attr); ++i) {
      if (pa[i] != pb[i]) return true;
    }
    return false;
  }

 private:
  VertexId num_vertices_ = 0;
  std::vector<int> widths_;
  std::vector<std::vector<double>> data_;
};

}  // namespace itg

#endif  // ITG_ENGINE_COLUMNS_H_
