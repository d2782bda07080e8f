#ifndef ITG_STORAGE_GRAPH_STORE_H_
#define ITG_STORAGE_GRAPH_STORE_H_

#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/logging.h"
#include "common/metrics.h"
#include "common/status.h"
#include "common/types.h"
#include "storage/csr.h"
#include "storage/disk_array.h"
#include "storage/edge_delta_store.h"
#include "storage/page_store.h"
#include "storage/vertex_store.h"

namespace itg {

/// The dynamic graph store (§5.5): a disk-resident CSR base snapshot G_0,
/// per-timestamp edge-delta segments, lazily applied deletions, and the
/// delta-maintained vertex store.
///
/// Adjacency reads merge the base lists with an in-memory *overlay* of
/// the cumulative mutations — the counterpart of the paper's strategy of
/// keeping deletions in memory and lazily marking edges as deleted when
/// their pages are loaded, rather than rewriting data on disk.
///
/// Snapshots: timestamp 0 is G_0; each ApplyMutations() call creates the
/// next snapshot. Queries may target the latest or the immediately
/// preceding snapshot (all the incremental engine ever needs). The
/// overlay is kept once, for the latest snapshot, and updated in place;
/// an undo log holds the pre-batch overlay of every vertex the latest
/// batch touched, which is all a read of the previous snapshot needs.
/// Merged degrees are dense arrays, one per direction and snapshot.
/// Ingest therefore costs what the batch touches, not every mutation
/// applied since Create.
class DynamicGraphStore {
 public:
  struct Options {
    /// Capacity of the store's default buffer pool, in 64 KiB pages.
    size_t buffer_pool_pages = 2048;
    MergeStrategy merge_strategy = MergeStrategy::kCostBased;
    int merge_period = 50;
  };

  /// Creates a store at `path` (a file prefix) over `base_edges`.
  /// The edge list is deduplicated and self-loops are dropped (simple
  /// directed graph; symmetrize beforehand for undirected analytics).
  static StatusOr<std::unique_ptr<DynamicGraphStore>> Create(
      const std::string& path, VertexId num_vertices,
      std::vector<Edge> base_edges, const Options& options,
      Metrics* metrics);

  /// Applies the mutation batch as the next snapshot and returns its
  /// timestamp. Inserting an existing edge or deleting a missing one is
  /// ignored at read time (the merged view stays a simple graph), but
  /// Degree() is only exact when every insertion targets an absent edge
  /// and every deletion a present one, counting the batch's earlier
  /// operations. Endpoints must lie below num_vertices().
  StatusOr<Timestamp> ApplyMutations(const std::vector<EdgeDelta>& batch);

  /// Merged adjacency of `u` at snapshot `t` in direction `d`, sorted.
  /// `cursor`, when given, keeps the last base page pinned across calls
  /// (see PageCursor): a window of neighboring vertices then costs one
  /// pool lookup per page rather than one per vertex.
  Status GetAdjacency(BufferPool* pool, VertexId u, Timestamp t, Direction d,
                      std::vector<VertexId>* out,
                      PageCursor* cursor = nullptr) const;

  /// Degree of `u` at snapshot `t` (merged view): one array read.
  int64_t Degree(VertexId u, Timestamp t, Direction d) const {
    CheckSnapshot(t);
    const Overlay& overlay =
        (d == Direction::kOut) ? out_overlay_ : in_overlay_;
    return (t == latest_ ? overlay.degree : overlay.prev_degree)[u];
  }

  /// True if edge (u→v for kOut) exists at snapshot `t`.
  StatusOr<bool> HasEdge(BufferPool* pool, VertexId u, VertexId v,
                         Timestamp t, Direction d) const;

  /// Iterates the mutation batch of exactly snapshot `t`.
  Status ScanDeltas(BufferPool* pool, Timestamp t, Direction d,
                    const std::function<void(Edge, Multiplicity)>& fn) const;

  /// Materializes the full edge list of snapshot `t` (base ∪ ΔG₁..ΔG_t,
  /// last operation per edge wins), sorted by (src, dst). Unlike the
  /// overlay views — which only survive for the latest and previous
  /// snapshots — this replays the persisted per-timestamp delta segments,
  /// so it works for *any* recorded t. Used by the drift auditor to build
  /// shadow stores for from-scratch replays at checkpointed timestamps.
  Status MaterializeEdges(BufferPool* pool, Timestamp t,
                          std::vector<Edge>* out) const;

  /// Per-vertex delta adjacency of snapshot t's batch (sorted by dst).
  Status GetDeltaAdjacency(
      BufferPool* pool, VertexId u, Timestamp t, Direction d,
      std::vector<std::pair<VertexId, Multiplicity>>* out) const {
    return delta_store_->GetDeltaAdjacency(pool, t, u, d, out);
  }

  /// Distinct traversal origins of snapshot t's delta batch.
  Status DeltaSources(Timestamp t, Direction d,
                      std::vector<VertexId>* out) const {
    return delta_store_->DeltaSources(t, d, out);
  }

  size_t BatchSize(Timestamp t) const { return delta_store_->BatchSize(t); }

  VertexId num_vertices() const { return num_vertices_; }
  size_t num_edges(Timestamp t) const;
  Timestamp latest() const { return latest_; }

  BufferPool* pool() { return pool_.get(); }
  PageStore* page_store() { return page_store_.get(); }
  VertexStore* vertex_store() { return vertex_store_.get(); }
  Metrics* metrics() { return metrics_; }

 private:
  /// Cumulative mutations of one vertex in one direction.
  struct VertexOverlay {
    // Sorted by neighbor; mult is the last operation applied to that edge.
    std::vector<std::pair<VertexId, Multiplicity>> entries;
  };
  /// The overlay of one direction, keyed by traversal origin.
  struct Overlay {
    std::unordered_map<VertexId, VertexOverlay> latest;
    // Pre-batch state of each vertex the latest batch touched.
    std::unordered_map<VertexId, VertexOverlay> undo;
    // Merged degree of every vertex at the latest snapshot and at the
    // one before it; they differ only on the undo log's vertices.
    std::vector<int64_t> degree;
    std::vector<int64_t> prev_degree;
  };

  DynamicGraphStore() = default;

  /// The overlay of `u` at snapshot `t` (latest or previous), or null
  /// when no mutation up to `t` touched it.
  const VertexOverlay* OverlayAt(VertexId u, Timestamp t, Direction d) const;
  void CheckSnapshot(Timestamp t) const {
    ITG_CHECK(t == latest_ || (latest_ > 0 && t == latest_ - 1))
        << "snapshot " << t << " view unavailable (only latest and "
        << "previous snapshots are retained); latest=" << latest_;
  }
  Status ReadBaseAdjacency(BufferPool* pool, VertexId u, Direction d,
                           std::vector<VertexId>* out,
                           PageCursor* cursor = nullptr) const;

  VertexId num_vertices_ = 0;
  Timestamp latest_ = 0;
  size_t base_num_edges_ = 0;
  Metrics* metrics_ = nullptr;

  std::unique_ptr<PageStore> page_store_;
  std::unique_ptr<BufferPool> pool_;
  std::unique_ptr<EdgeDeltaStore> delta_store_;
  std::unique_ptr<VertexStore> vertex_store_;

  // Base CSR: offsets in memory, neighbor arrays on disk.
  std::vector<int64_t> out_offsets_;
  std::vector<int64_t> in_offsets_;
  DiskArray<VertexId> out_neighbors_;
  DiskArray<VertexId> in_neighbors_;

  Overlay out_overlay_;
  Overlay in_overlay_;
  size_t num_edges_ = 0;       // at latest_
  size_t prev_num_edges_ = 0;  // at latest_ - 1
};

}  // namespace itg

#endif  // ITG_STORAGE_GRAPH_STORE_H_
