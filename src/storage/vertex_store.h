#ifndef ITG_STORAGE_VERTEX_STORE_H_
#define ITG_STORAGE_VERTEX_STORE_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/types.h"
#include "storage/disk_array.h"
#include "storage/page_store.h"

namespace itg {

/// How vertex-attribute delta chains are compacted (§5.5, Figure 17).
enum class MergeStrategy {
  kNoMerge,    ///< deltas accumulate forever (Fig 17 "NoMerge")
  kPeriodic,   ///< merge every `merge_period` snapshots ("PeriodicMerge")
  kCostBased,  ///< merge when W_merge < R_delta (the paper's "Cost")
};

/// The vertex half of the dynamic graph store: maintains, for every
/// attribute and superstep, a chain of *delta files* instead of updating
/// values in place.
///
/// File F(τ, s) holds after-images of the vertices whose attribute value
/// at (snapshot τ, superstep s) differs from (τ, s−1) or from (τ−1, s).
/// Materializing A_{t,s} from an in-memory A_{t,s−1} array is then a
/// sequential overlay of F(0,s), F(1,s), …, F(t,s) (§5.5): the last file
/// containing a vertex wins.
///
/// The cost-based maintenance strategy merges a chain when the write cost
/// of merging, W_merge = |∪_τ X^{(τ,s)}|, is smaller than the accumulated
/// read cost R_delta = Σ_{0<τ<t} (t−τ)·|X^{(τ,s)}|. A merge replaces the
/// chain by one file that becomes the chain's new base: like F(0, s), a
/// base is left out of R_delta, so only deltas written after the last
/// merge push a chain towards its next one.
class VertexStore {
 public:
  VertexStore(PageStore* store, VertexId num_vertices,
              MergeStrategy strategy = MergeStrategy::kCostBased,
              int merge_period = 50);

  /// Registers an attribute with `width` doubles per vertex (1 for
  /// scalars, N for Array<_,N>). Returns the attribute handle.
  int RegisterAttribute(std::string name, int width);

  int attribute_count() const { return static_cast<int>(attrs_.size()); }
  int attribute_width(int attr) const { return attrs_[attr].width; }
  const std::string& attribute_name(int attr) const {
    return attrs_[attr].name;
  }

  /// Writes delta file F(t, s) for `attr`: one after-image per vertex of
  /// `vids` (sorted ascending), its values read from `column`
  /// (num_vertices × width doubles).
  Status WriteDelta(Timestamp t, Superstep s, int attr,
                    const std::vector<VertexId>& vids, const double* column);

  /// Overlays all delta files F(τ≤t, s) for `attr` onto `column`
  /// (num_vertices × width doubles), in snapshot order. When `changed` is
  /// non-null, vertices whose value actually changed are appended
  /// (unsorted, may contain duplicates).
  Status OverlaySuperstep(BufferPool* pool, Timestamp t, Superstep s,
                          int attr, double* column,
                          std::vector<VertexId>* changed = nullptr) const;

  /// Applies the configured maintenance strategy after snapshot `t`
  /// finished. May rewrite chains (counts as disk writes).
  Status MaintainAfterSnapshot(Timestamp t, BufferPool* pool);

  /// Total delta records currently chained for (attr, s); Fig 17's driver
  /// uses this to report chain growth.
  uint64_t ChainRecords(Superstep s, int attr) const;

  /// Largest superstep for which any delta file exists.
  Superstep max_superstep() const { return max_superstep_; }

  VertexId num_vertices() const { return num_vertices_; }

 private:
  struct AttrInfo {
    std::string name;
    int width;
  };

  struct DeltaFile {
    Timestamp t;
    DiskArray<int64_t> data;  // records: vid, then width doubles (bitcast)
    size_t num_records;
    bool base;  // F(0, s) or a merged chain: not charged to R_delta
  };

  using ChainKey = std::pair<int, Superstep>;  // (attr, superstep)

  Status MergeChain(std::vector<DeltaFile>* chain, int width,
                    BufferPool* pool);

  PageStore* store_;
  VertexId num_vertices_;
  MergeStrategy strategy_;
  int merge_period_;
  // Merge decisions, exported so the Fig-17 strategy comparison can
  // report how often each policy fires (null without metrics).
  Counter* merges_ = nullptr;
  Counter* merge_skips_ = nullptr;
  Histogram* merged_records_ = nullptr;
  Superstep max_superstep_ = -1;
  std::vector<AttrInfo> attrs_;
  std::map<ChainKey, std::vector<DeltaFile>> chains_;
};

}  // namespace itg

#endif  // ITG_STORAGE_VERTEX_STORE_H_
