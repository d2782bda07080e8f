#include "storage/graph_store.h"

#include <algorithm>

#include "common/logging.h"
#include "common/trace.h"

namespace itg {

StatusOr<std::unique_ptr<DynamicGraphStore>> DynamicGraphStore::Create(
    const std::string& path, VertexId num_vertices,
    std::vector<Edge> base_edges, const Options& options, Metrics* metrics) {
  auto store = std::unique_ptr<DynamicGraphStore>(new DynamicGraphStore());
  store->num_vertices_ = num_vertices;
  store->metrics_ = metrics;
  ITG_ASSIGN_OR_RETURN(store->page_store_,
                       PageStore::Open(path + ".pages", metrics));
  store->pool_ = std::make_unique<BufferPool>(store->page_store_.get(),
                                              options.buffer_pool_pages);
  store->delta_store_ =
      std::make_unique<EdgeDeltaStore>(store->page_store_.get());
  store->vertex_store_ = std::make_unique<VertexStore>(
      store->page_store_.get(), num_vertices, options.merge_strategy,
      options.merge_period);

  Csr out_csr = Csr::FromEdges(num_vertices, base_edges);
  Csr in_csr = out_csr.Transposed();
  store->base_num_edges_ = out_csr.num_edges();
  store->out_offsets_ = out_csr.offsets();
  store->in_offsets_ = in_csr.offsets();
  auto init_degrees = [num_vertices](const Csr& csr, Overlay* overlay) {
    overlay->degree.resize(static_cast<size_t>(num_vertices));
    for (VertexId u = 0; u < num_vertices; ++u) {
      overlay->degree[u] = csr.Degree(u);
    }
    overlay->prev_degree = overlay->degree;
  };
  init_degrees(out_csr, &store->out_overlay_);
  init_degrees(in_csr, &store->in_overlay_);

  DiskArrayBuilder<VertexId> out_builder(store->page_store_.get());
  ITG_RETURN_IF_ERROR(out_builder.AppendRange(out_csr.neighbors().data(),
                                              out_csr.neighbors().size()));
  ITG_ASSIGN_OR_RETURN(store->out_neighbors_, out_builder.Finish());

  DiskArrayBuilder<VertexId> in_builder(store->page_store_.get());
  ITG_RETURN_IF_ERROR(in_builder.AppendRange(in_csr.neighbors().data(),
                                             in_csr.neighbors().size()));
  ITG_ASSIGN_OR_RETURN(store->in_neighbors_, in_builder.Finish());

  // Snapshot 0 has an empty overlay.
  store->num_edges_ = store->base_num_edges_;
  return store;
}

StatusOr<Timestamp> DynamicGraphStore::ApplyMutations(
    const std::vector<EdgeDelta>& batch) {
  TraceSpan span("apply_mutations", "storage",
                 static_cast<int64_t>(batch.size()));
  if (metrics_ != nullptr) {
    metrics_->registry()
        .histogram("store.delta_batch_size")
        ->Record(batch.size());
  }
  Timestamp t = latest_ + 1;
  ITG_RETURN_IF_ERROR(delta_store_->ApplyBatch(t, batch));

  // Update the latest overlay in place (last operation wins). The first
  // time the batch touches a vertex, its pre-batch overlay goes to the
  // undo log, which is what keeps reads at t − 1 exact.
  // Degree bookkeeping assumes the workload invariant that insertions
  // target absent edges and deletions target present ones, so each
  // operation shifts the merged degree by exactly its multiplicity.
  auto apply = [](Overlay& overlay, VertexId src, VertexId dst,
                  Multiplicity m) {
    VertexOverlay& cur = overlay.latest[src];
    overlay.undo.try_emplace(src, cur);
    auto it = std::lower_bound(
        cur.entries.begin(), cur.entries.end(), dst,
        [](const auto& e, VertexId v) { return e.first < v; });
    if (it != cur.entries.end() && it->first == dst) {
      it->second = m;
    } else {
      cur.entries.insert(it, {dst, m});
    }
    overlay.degree[src] += m;
  };
  // The latest snapshot becomes the previous one: the degrees differ only
  // on the vertices the last batch touched, which its undo log holds.
  for (Overlay* overlay : {&out_overlay_, &in_overlay_}) {
    for (const auto& entry : overlay->undo) {
      overlay->prev_degree[entry.first] = overlay->degree[entry.first];
    }
    overlay->undo.clear();
  }
  prev_num_edges_ = num_edges_;
  for (const EdgeDelta& d : batch) {
    apply(out_overlay_, d.edge.src, d.edge.dst, d.mult);
    apply(in_overlay_, d.edge.dst, d.edge.src, d.mult);
    num_edges_ += (d.mult > 0) ? 1 : -1;
  }
  latest_ = t;
  return t;
}

const DynamicGraphStore::VertexOverlay* DynamicGraphStore::OverlayAt(
    VertexId u, Timestamp t, Direction d) const {
  CheckSnapshot(t);
  const Overlay& overlay = (d == Direction::kOut) ? out_overlay_ : in_overlay_;
  if (t != latest_) {
    auto it = overlay.undo.find(u);
    if (it != overlay.undo.end()) return &it->second;
  }
  auto it = overlay.latest.find(u);
  return it == overlay.latest.end() ? nullptr : &it->second;
}

Status DynamicGraphStore::ReadBaseAdjacency(BufferPool* pool, VertexId u,
                                            Direction d,
                                            std::vector<VertexId>* out,
                                            PageCursor* cursor) const {
  const auto& offsets = (d == Direction::kOut) ? out_offsets_ : in_offsets_;
  const auto& neighbors =
      (d == Direction::kOut) ? out_neighbors_ : in_neighbors_;
  int64_t begin = offsets[u];
  int64_t end = offsets[u + 1];
  out->resize(static_cast<size_t>(end - begin));
  if (begin == end) return Status::OK();
  return neighbors.Read(pool, static_cast<size_t>(begin), out->size(),
                        out->data(), cursor);
}

Status DynamicGraphStore::GetAdjacency(BufferPool* pool, VertexId u,
                                       Timestamp t, Direction d,
                                       std::vector<VertexId>* out,
                                       PageCursor* cursor) const {
  ITG_RETURN_IF_ERROR(ReadBaseAdjacency(pool, u, d, out, cursor));
  const VertexOverlay* overlay = OverlayAt(u, t, d);
  if (overlay == nullptr || overlay->entries.empty()) return Status::OK();
  // Merge the sorted base list with the sorted overlay: deletions drop
  // base edges, insertions add new ones (this is the lazy deletion
  // marking applied at page-load time).
  const auto& entries = overlay->entries;
  std::vector<VertexId> merged;
  merged.reserve(out->size() + entries.size());
  size_t bi = 0;
  size_t oi = 0;
  while (bi < out->size() || oi < entries.size()) {
    if (oi == entries.size() ||
        (bi < out->size() && (*out)[bi] < entries[oi].first)) {
      merged.push_back((*out)[bi++]);
    } else if (bi == out->size() || entries[oi].first < (*out)[bi]) {
      if (entries[oi].second > 0) merged.push_back(entries[oi].first);
      ++oi;
    } else {  // same dst in base and overlay: overlay's last op decides
      if (entries[oi].second > 0) merged.push_back((*out)[bi]);
      ++bi;
      ++oi;
    }
  }
  *out = std::move(merged);
  return Status::OK();
}

StatusOr<bool> DynamicGraphStore::HasEdge(BufferPool* pool, VertexId u,
                                          VertexId v, Timestamp t,
                                          Direction d) const {
  const VertexOverlay* overlay = OverlayAt(u, t, d);
  if (overlay != nullptr) {
    const auto& entries = overlay->entries;
    auto eit = std::lower_bound(
        entries.begin(), entries.end(), v,
        [](const auto& e, VertexId x) { return e.first < x; });
    if (eit != entries.end() && eit->first == v) return eit->second > 0;
  }
  std::vector<VertexId> base;
  ITG_RETURN_IF_ERROR(ReadBaseAdjacency(pool, u, d, &base));
  return std::binary_search(base.begin(), base.end(), v);
}

Status DynamicGraphStore::ScanDeltas(
    BufferPool* pool, Timestamp t, Direction d,
    const std::function<void(Edge, Multiplicity)>& fn) const {
  return delta_store_->ForEachDelta(pool, t, d, fn);
}

size_t DynamicGraphStore::num_edges(Timestamp t) const {
  CheckSnapshot(t);
  return t == latest_ ? num_edges_ : prev_num_edges_;
}

Status DynamicGraphStore::MaterializeEdges(BufferPool* pool, Timestamp t,
                                           std::vector<Edge>* out) const {
  out->clear();
  // Cumulative overlay from the persisted delta segments: the last
  // operation applied to each edge across batches 1..t decides.
  std::unordered_map<Edge, Multiplicity, EdgeHash> last_op;
  for (Timestamp i = 1; i <= t; ++i) {
    ITG_RETURN_IF_ERROR(ScanDeltas(
        pool, i, Direction::kOut,
        [&](Edge e, Multiplicity m) { last_op[e] = m; }));
  }
  std::vector<VertexId> base;
  for (VertexId u = 0; u < num_vertices_; ++u) {
    ITG_RETURN_IF_ERROR(ReadBaseAdjacency(pool, u, Direction::kOut, &base));
    for (VertexId v : base) {
      auto it = last_op.find(Edge{u, v});
      if (it == last_op.end()) {
        out->push_back(Edge{u, v});
      } else {
        if (it->second > 0) out->push_back(Edge{u, v});
        // Consumed: whatever remains in last_op afterwards is an
        // insertion of an edge absent from the base snapshot.
        last_op.erase(it);
      }
    }
  }
  for (const auto& [edge, m] : last_op) {
    if (m > 0) out->push_back(edge);
  }
  std::sort(out->begin(), out->end());
  return Status::OK();
}

}  // namespace itg
