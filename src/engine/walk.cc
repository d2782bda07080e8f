#include "engine/walk.h"

#include <algorithm>

#include "common/logging.h"
#include "common/metrics.h"
#include "common/trace.h"

namespace itg {
namespace {

/// Sorts the distinct last vertices of `prefixes` (rows of `prefix_len`)
/// into `frontier` and sets `pos[i]` to prefix i's position in it. Each
/// prefix costs one lookup in an open-addressing table of the distinct
/// vertices (linear probing, at most half full), and only those are
/// sorted: a level's prefixes repeat their last vertices, and a search
/// or sort per prefix would cost more than the W-Join it prepares.
void IndexFrontier(const std::vector<VertexId>& prefixes, int prefix_len,
                   std::vector<VertexId>* frontier,
                   std::vector<uint32_t>* pos) {
  constexpr VertexId kEmpty = -1;
  using Entry = std::pair<VertexId, uint32_t>;  // (vertex, first-seen slot)
  const size_t num_prefixes = prefixes.size() / prefix_len;
  std::vector<Entry> table(64, {kEmpty, 0});
  auto find = [&table](VertexId v) {
    const size_t mask = table.size() - 1;
    size_t h = static_cast<size_t>(
                   (static_cast<uint64_t>(v) * 0x9E3779B97F4A7C15ull) >> 32) &
               mask;
    while (table[h].first != v && table[h].first != kEmpty) {
      h = (h + 1) & mask;
    }
    return h;
  };
  frontier->clear();
  pos->resize(num_prefixes);
  for (size_t i = 0; i < num_prefixes; ++i) {
    const VertexId v = prefixes[i * prefix_len + (prefix_len - 1)];
    size_t h = find(v);
    if (table[h].first == kEmpty) {
      if (2 * (frontier->size() + 1) > table.size()) {
        std::vector<Entry> old(2 * table.size(), {kEmpty, 0});
        old.swap(table);
        for (const Entry& e : old) {
          if (e.first != kEmpty) table[find(e.first)] = e;
        }
        h = find(v);
      }
      table[h] = {v, static_cast<uint32_t>(frontier->size())};
      frontier->push_back(v);
    }
    (*pos)[i] = table[h].second;
  }
  // Sort the distinct vertices and renumber the slots by rank.
  std::vector<Entry> sorted(frontier->size());
  for (size_t k = 0; k < sorted.size(); ++k) {
    sorted[k] = {(*frontier)[k], static_cast<uint32_t>(k)};
  }
  std::sort(sorted.begin(), sorted.end());
  std::vector<uint32_t> rank(sorted.size());
  for (size_t r = 0; r < sorted.size(); ++r) {
    (*frontier)[r] = sorted[r].first;
    rank[sorted[r].second] = static_cast<uint32_t>(r);
  }
  for (uint32_t& p : *pos) p = rank[p];
}

}  // namespace

/// One loaded graph window gw_i: the adjacency lists (with multiplicities)
/// of up to `window_vertices` frontier vertices, resident in memory.
struct WalkEnumerator::AdjacencyWindow {
  // Range into the backing arrays of the window's i-th vertex.
  std::vector<std::pair<uint32_t, uint32_t>> ranges;
  std::vector<VertexId> dsts;   // sorted within each range
  std::vector<int8_t> mults;

  // mem.window_cache accounting (RAII: whatever this window charged is
  // released when it goes out of scope, early error returns included).
  ByteGauge* gauge = nullptr;
  int64_t charged = 0;

  ~AdjacencyWindow() {
    if (gauge != nullptr && charged != 0) gauge->Add(-charged);
  }

  void Recharge() {
    if (gauge == nullptr) return;
    const int64_t bytes = static_cast<int64_t>(
        dsts.capacity() * sizeof(VertexId) +
        mults.capacity() * sizeof(int8_t) +
        ranges.capacity() * sizeof(std::pair<uint32_t, uint32_t>));
    gauge->Add(bytes - charged);
    charged = bytes;
  }
};

Status WalkEnumerator::LoadWindow(const std::vector<VertexId>& vertices,
                                  LevelStream stream, Direction dir,
                                  Timestamp current_t, Timestamp previous_t,
                                  AdjacencyWindow* window) {
  // W-Seek: load the frontier chunk's adjacency into the window.
  TraceSpan span("seek", "walk", static_cast<int64_t>(vertices.size()));
  window->ranges.clear();
  window->dsts.clear();
  window->mults.clear();
  std::vector<VertexId> adj;
  std::vector<std::pair<VertexId, Multiplicity>> delta_adj;
  // The window's vertices are sorted, so their base lists are read in
  // page order: the cursor makes that one pool lookup per page.
  PageCursor cursor;
  for (VertexId u : vertices) {
    uint32_t begin = static_cast<uint32_t>(window->dsts.size());
    switch (stream) {
      case LevelStream::kCurrent:
      case LevelStream::kPrevious: {
        Timestamp t =
            (stream == LevelStream::kCurrent) ? current_t : previous_t;
        ITG_RETURN_IF_ERROR(
            store_->GetAdjacency(pool_, u, t, dir, &adj, &cursor));
        for (VertexId v : adj) {
          window->dsts.push_back(v);
          window->mults.push_back(1);
        }
        break;
      }
      case LevelStream::kDelta: {
        ITG_RETURN_IF_ERROR(
            store_->GetDeltaAdjacency(pool_, u, current_t, dir, &delta_adj));
        for (const auto& [v, m] : delta_adj) {
          window->dsts.push_back(v);
          window->mults.push_back(m);
        }
        break;
      }
    }
    window->ranges.emplace_back(begin,
                                static_cast<uint32_t>(window->dsts.size()));
  }
  if (window->gauge == nullptr && mem_window_.bound()) {
    window->gauge = &mem_window_;
  }
  window->Recharge();
  return Status::OK();
}

Status WalkEnumerator::Enumerate(
    const std::vector<VertexId>& starts,
    const std::vector<LevelStream>& streams, Timestamp current_t,
    Timestamp previous_t,
    const std::vector<const std::vector<uint8_t>*>& level_allow,
    int max_depth, const WalkSink& sink) {
  ITG_CHECK_LE(max_depth, program_->walk_length());
  const size_t block = static_cast<size_t>(options_.window_vertices);
  for (size_t begin = 0; begin < starts.size(); begin += block) {
    size_t end = std::min(starts.size(), begin + block);
    std::vector<VertexId> prefixes(starts.begin() + begin,
                                   starts.begin() + end);
    std::vector<int8_t> mults(prefixes.size(), 1);
    counts_.starts += prefixes.size();
    for (size_t i = 0; i < prefixes.size(); ++i) {
      sink(&prefixes[i], 0, 1);
    }
    if (max_depth >= 1) {
      ITG_RETURN_IF_ERROR(Extend(1, prefixes, mults, 1, streams, current_t,
                                 previous_t, level_allow, max_depth, sink));
    }
  }
  return Status::OK();
}

Status WalkEnumerator::Extend(
    int level, const std::vector<VertexId>& prefixes,
    const std::vector<int8_t>& mults, int prefix_len,
    const std::vector<LevelStream>& streams, Timestamp current_t,
    Timestamp previous_t,
    const std::vector<const std::vector<uint8_t>*>& level_allow,
    int max_depth, const WalkSink& sink) {
  const LevelSpec& spec = program_->traverse.levels[level - 1];
  const LevelStream stream = streams[level - 1];
  const std::vector<uint8_t>* allow = level_allow[level - 1];
  LevelCounts& lc = counts_.levels[static_cast<size_t>(level - 1)];
  const size_t num_prefixes = prefixes.size() / prefix_len;
  if (num_prefixes == 0) return Status::OK();
  // Exclusive time of the level: the frontier index and the prefix
  // grouping below, then each window chunk up to the recursion into
  // deeper levels.
  Stopwatch level_timer;

  // The distinct frontier vertices (the W-Seek input) and each prefix's
  // position in them, found once. A stable counting sort then groups the
  // prefixes by window chunk, so each window joins only its own prefixes,
  // in prefix order: chunk c's are order[chunk_begin[c] ..
  // chunk_begin[c + 1]).
  ITG_CHECK_LE(num_prefixes, static_cast<size_t>(UINT32_MAX));
  std::vector<VertexId> frontier;
  std::vector<uint32_t> pos;
  IndexFrontier(prefixes, prefix_len, &frontier, &pos);
  const size_t chunk = static_cast<size_t>(options_.window_vertices);
  const size_t num_chunks = (frontier.size() + chunk - 1) / chunk;
  std::vector<size_t> chunk_begin(num_chunks + 1, 0);
  for (size_t i = 0; i < num_prefixes; ++i) {
    ++chunk_begin[pos[i] / chunk + 1];
  }
  for (size_t c = 0; c < num_chunks; ++c) {
    chunk_begin[c + 1] += chunk_begin[c];
  }
  std::vector<uint32_t> order(num_prefixes);
  {
    std::vector<size_t> fill(chunk_begin.begin(), chunk_begin.end() - 1);
    for (size_t i = 0; i < num_prefixes; ++i) {
      order[fill[pos[i] / chunk]++] = static_cast<uint32_t>(i);
    }
  }

  EvalContext ctx;
  ctx.columns = columns_;
  ctx.globals = globals_;
  ctx.num_vertices = num_vertices_;
  ctx.num_edges = num_edges_;
  ctx.eval_counter = &lc.evals;
  // The level's general conjuncts, if it has any.
  const SlotCode* general = nullptr;
  if (!spec.general.empty()) {
    ITG_CHECK(code_ != nullptr) << "general Where conjuncts need SetCode";
    general = &code_->where[static_cast<size_t>(level - 1)];
  }

  std::vector<VertexId> row(static_cast<size_t>(prefix_len) + 1);
  AdjacencyWindow window;

  for (size_t c = 0; c < num_chunks; ++c) {
    const size_t cb = c * chunk;
    const size_t ce = std::min(frontier.size(), cb + chunk);
    std::vector<VertexId> chunk_vertices(frontier.begin() + cb,
                                         frontier.begin() + ce);
    ITG_RETURN_IF_ERROR(LoadWindow(chunk_vertices, stream, spec.dir,
                                   current_t, previous_t, &window));
    ++lc.windows;

    std::vector<VertexId> next_prefixes;
    std::vector<int8_t> next_mults;
    {
    // W-Join: extend this window's prefixes by its adjacency (scoped so
    // the span ends before recursing into the next level).
    TraceSpan join_span(
        "join", "walk",
        static_cast<int64_t>(chunk_begin[c + 1] - chunk_begin[c]));
    for (size_t k = chunk_begin[c]; k < chunk_begin[c + 1]; ++k) {
      const size_t i = order[k];
      const VertexId* prefix = prefixes.data() + i * prefix_len;
      const auto [begin, end] = window.ranges[pos[i] - cb];
      if (begin == end) continue;
      std::copy(prefix, prefix + prefix_len, row.begin());
      ctx.rows = row.data();
      ctx.row_len = prefix_len + 1;

      const VertexId* dsts = window.dsts.data();
      // Fast paths over the sorted list: lower-bound seek for
      // `next > row[gt]`, early stop for `next < row[lt]`, binary probe
      // for the closing constraint `next == row[eq]`.
      if (spec.eq_pos >= 0 && options_.eq_fast_path) {
        VertexId want = row[spec.eq_pos];
        if (spec.gt_pos >= 0 && want <= row[spec.gt_pos]) continue;
        if (spec.lt_pos >= 0 && want >= row[spec.lt_pos]) continue;
        const VertexId* lo = dsts + begin;
        const VertexId* hi = dsts + end;
        const VertexId* it = std::lower_bound(lo, hi, want);
        ++lc.edges;
        // Duplicated dsts cannot occur in base lists; delta segments may
        // repeat a dst across insert/delete of the same batch.
        for (; it != hi && *it == want; ++it) {
          uint32_t j = static_cast<uint32_t>(it - dsts);
          row[prefix_len] = want;
          if (allow != nullptr && !(*allow)[static_cast<size_t>(want)]) {
            ++lc.pruned;
            break;
          }
          if (general != nullptr &&
              ExecuteOne(*general, ctx, frame_) == nullptr) {
            continue;
          }
          int m = mults[i] * window.mults[j];
          (m > 0 ? lc.out_pos : lc.out_neg) += 1;
          sink(row.data(), prefix_len, m);
          if (level < max_depth) {
            next_prefixes.insert(next_prefixes.end(), row.begin(),
                                 row.begin() + prefix_len + 1);
            next_mults.push_back(static_cast<int8_t>(m));
          }
        }
        continue;
      }

      uint32_t j = begin;
      if (spec.gt_pos >= 0) {
        const VertexId* lo = dsts + begin;
        const VertexId* hi = dsts + end;
        j = static_cast<uint32_t>(
            std::upper_bound(lo, hi, row[spec.gt_pos]) - dsts);
      }
      for (; j < end; ++j) {
        VertexId v = dsts[j];
        if (spec.lt_pos >= 0 && v >= row[spec.lt_pos]) break;
        ++lc.edges;
        if (allow != nullptr && !(*allow)[static_cast<size_t>(v)]) {
          ++lc.pruned;
          continue;
        }
        row[prefix_len] = v;
        if (spec.eq_pos >= 0 && v != row[spec.eq_pos]) continue;
        if (general != nullptr &&
            ExecuteOne(*general, ctx, frame_) == nullptr) {
          continue;
        }
        int m = mults[i] * window.mults[j];
        (m > 0 ? lc.out_pos : lc.out_neg) += 1;
        sink(row.data(), prefix_len, m);
        if (level < max_depth) {
          next_prefixes.insert(next_prefixes.end(), row.begin(),
                               row.begin() + prefix_len + 1);
          next_mults.push_back(static_cast<int8_t>(m));
        }
      }
    }
    }
    lc.wall_nanos += static_cast<uint64_t>(level_timer.ElapsedNanos());
    if (level < max_depth && !next_prefixes.empty()) {
      ITG_RETURN_IF_ERROR(Extend(level + 1, next_prefixes, next_mults,
                                 prefix_len + 1, streams, current_t,
                                 previous_t, level_allow, max_depth, sink));
    }
    level_timer.Restart();
  }
  return Status::OK();
}

}  // namespace itg
