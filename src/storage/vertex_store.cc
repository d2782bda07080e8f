#include "storage/vertex_store.h"

#include <algorithm>
#include <bit>

#include "common/logging.h"
#include "common/trace.h"

namespace itg {

namespace {

/// Streams the records of one delta file through the buffer pool, at
/// most a page's worth of whole records at a time.
class RecordCursor {
 public:
  RecordCursor(const DiskArray<int64_t>* data, size_t record_width)
      : data_(data),
        record_width_(record_width),
        chunk_size_(std::max<size_t>(1, DiskArray<int64_t>::ElementsPerPage() /
                                            record_width) *
                    record_width) {}

  bool done() const { return cur_ == end_; }
  VertexId vid() const { return cur_[0]; }
  const int64_t* record() const { return cur_; }

  /// Loads the next chunk; the first call positions at the first record.
  Status Load(BufferPool* pool) {
    buf_.resize(std::min(chunk_size_, data_->size() - next_));
    ITG_RETURN_IF_ERROR(data_->Read(pool, next_, buf_.size(), buf_.data()));
    next_ += buf_.size();
    cur_ = buf_.data();
    end_ = cur_ + buf_.size();
    return Status::OK();
  }

  Status Advance(BufferPool* pool) {
    cur_ += record_width_;
    return done() ? Load(pool) : Status::OK();
  }

 private:
  const DiskArray<int64_t>* data_;
  size_t record_width_;
  size_t chunk_size_;  // elements
  size_t next_ = 0;    // element offset of the next chunk
  std::vector<int64_t> buf_;
  const int64_t* cur_ = nullptr;
  const int64_t* end_ = nullptr;
};

}  // namespace

VertexStore::VertexStore(PageStore* store, VertexId num_vertices,
                         MergeStrategy strategy, int merge_period)
    : store_(store),
      num_vertices_(num_vertices),
      strategy_(strategy),
      merge_period_(merge_period) {
  if (store_ != nullptr && store_->metrics() != nullptr) {
    MetricsRegistry& reg = store_->metrics()->registry();
    merges_ = reg.counter("vertex_store.chain_merges");
    merge_skips_ = reg.counter("vertex_store.chain_merge_skips");
    merged_records_ = reg.histogram("vertex_store.merged_records");
  }
}

int VertexStore::RegisterAttribute(std::string name, int width) {
  ITG_CHECK_GT(width, 0);
  attrs_.push_back({std::move(name), width});
  return static_cast<int>(attrs_.size()) - 1;
}

Status VertexStore::WriteDelta(Timestamp t, Superstep s, int attr,
                               const std::vector<VertexId>& vids,
                               const double* column) {
  if (vids.empty()) return Status::OK();
  const int width = attrs_[attr].width;
  DiskArrayBuilder<int64_t> builder(store_);
  for (VertexId v : vids) {
    ITG_RETURN_IF_ERROR(builder.Append(v));
    const double* values = column + static_cast<size_t>(v) * width;
    for (int w = 0; w < width; ++w) {
      ITG_RETURN_IF_ERROR(builder.Append(std::bit_cast<int64_t>(values[w])));
    }
  }
  ITG_ASSIGN_OR_RETURN(auto array, builder.Finish());
  chains_[{attr, s}].push_back(
      {t, std::move(array), vids.size(), /*base=*/t == 0});
  max_superstep_ = std::max(max_superstep_, s);
  return Status::OK();
}

Status VertexStore::OverlaySuperstep(BufferPool* pool, Timestamp t,
                                     Superstep s, int attr, double* column,
                                     std::vector<VertexId>* changed) const {
  auto it = chains_.find({attr, s});
  if (it == chains_.end()) return Status::OK();
  const int width = attrs_[attr].width;
  const size_t record_width = 1 + static_cast<size_t>(width);
  std::vector<int64_t> buf;
  for (const DeltaFile& file : it->second) {
    if (file.t > t) break;  // chain is in snapshot order
    buf.resize(file.num_records * record_width);
    ITG_RETURN_IF_ERROR(file.data.Read(pool, 0, buf.size(), buf.data()));
    for (size_t r = 0; r < file.num_records; ++r) {
      const int64_t* rec = buf.data() + r * record_width;
      VertexId vid = rec[0];
      double* dst = column + static_cast<size_t>(vid) * width;
      bool differs = false;
      for (int w = 0; w < width; ++w) {
        double value = std::bit_cast<double>(rec[1 + w]);
        if (dst[w] != value) {
          dst[w] = value;
          differs = true;
        }
      }
      if (differs && changed != nullptr) changed->push_back(vid);
    }
  }
  return Status::OK();
}

Status VertexStore::MaintainAfterSnapshot(Timestamp t, BufferPool* pool) {
  TraceSpan span("vertex_maintain", "storage", static_cast<int64_t>(t));
  for (auto& [key, chain] : chains_) {
    if (chain.size() <= 1) continue;
    bool merge = false;
    switch (strategy_) {
      case MergeStrategy::kNoMerge:
        break;
      case MergeStrategy::kPeriodic:
        merge = (t % merge_period_ == 0);
        break;
      case MergeStrategy::kCostBased: {
        // W_merge: records in the merged file — bounded by the union of
        // the chain's record sets (we use the cheap upper bound
        // min(sum, |V|); reading every file just to count exactly would
        // itself cost the reads we are trying to avoid).
        uint64_t sum_records = 0;
        // R_delta: each delta written at snapshot τ has been re-read at
        // every snapshot after it: (t − τ) times. The base is not a delta.
        uint64_t read_cost = 0;
        for (const DeltaFile& f : chain) {
          sum_records += f.num_records;
          if (!f.base) {
            read_cost +=
                static_cast<uint64_t>(t - f.t) * f.num_records;
          }
        }
        uint64_t w_merge = std::min<uint64_t>(
            sum_records, static_cast<uint64_t>(num_vertices_));
        merge = (w_merge < read_cost);
        break;
      }
    }
    if (merges_ != nullptr) (merge ? merges_ : merge_skips_)->Increment();
    if (merge) {
      TraceSpan merge_span("merge_chain", "storage",
                           static_cast<int64_t>(chain.size()));
      ITG_RETURN_IF_ERROR(
          MergeChain(&chain, attrs_[key.first].width, pool));
      if (merged_records_ != nullptr) {
        merged_records_->Record(chain.front().num_records);
      }
    }
  }
  return Status::OK();
}

Status VertexStore::MergeChain(std::vector<DeltaFile>* chain, int width,
                               BufferPool* pool) {
  // k-way merge of the chain's vid-sorted files; on equal vids the newest
  // file (latest in the chain) wins, i.e. last writer wins.
  const size_t record_width = 1 + static_cast<size_t>(width);
  std::vector<RecordCursor> cursors;
  cursors.reserve(chain->size());
  for (const DeltaFile& file : *chain) {
    cursors.emplace_back(&file.data, record_width);
    ITG_RETURN_IF_ERROR(cursors.back().Load(pool));
  }
  DiskArrayBuilder<int64_t> builder(store_);
  size_t num_records = 0;
  while (true) {
    const RecordCursor* winner = nullptr;
    for (const RecordCursor& c : cursors) {
      if (!c.done() && (winner == nullptr || c.vid() <= winner->vid())) {
        winner = &c;
      }
    }
    if (winner == nullptr) break;
    const VertexId vid = winner->vid();
    ITG_RETURN_IF_ERROR(builder.AppendRange(winner->record(), record_width));
    ++num_records;
    for (RecordCursor& c : cursors) {
      if (!c.done() && c.vid() == vid) ITG_RETURN_IF_ERROR(c.Advance(pool));
    }
  }
  ITG_ASSIGN_OR_RETURN(auto array, builder.Finish());
  const Timestamp last_t = chain->back().t;
  chain->clear();
  chain->push_back({last_t, std::move(array), num_records, /*base=*/true});
  return Status::OK();
}

uint64_t VertexStore::ChainRecords(Superstep s, int attr) const {
  auto it = chains_.find({attr, s});
  if (it == chains_.end()) return 0;
  uint64_t total = 0;
  for (const DeltaFile& f : it->second) total += f.num_records;
  return total;
}

}  // namespace itg
