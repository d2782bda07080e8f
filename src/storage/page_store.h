#ifndef ITG_STORAGE_PAGE_STORE_H_
#define ITG_STORAGE_PAGE_STORE_H_

#include <cstdint>
#include <cstdio>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/memory_budget.h"
#include "common/metrics.h"
#include "common/status.h"
#include "common/timed_mutex.h"

namespace itg {

/// Fixed page size of the on-disk stores. 64 KiB mirrors the coarse IO
/// units of the disk-based engines the paper builds on (TurboGraph++).
inline constexpr size_t kPageSize = 64 * 1024;

using PageId = uint32_t;

/// A file-backed store of fixed-size pages. All graph data (CSR adjacency,
/// edge delta segments, vertex attribute delta files) lives in pages so
/// that every byte the engine touches is observable as IO.
///
/// Thread-safe: AppendPage/ReadPage serialize the shared FILE* cursor
/// under an internal mutex, so pool workers enumerating walk shards may
/// fault pages concurrently.
class PageStore {
 public:
  /// Creates (truncating) the backing file. `metrics` receives write
  /// accounting; reads are accounted by the BufferPool on miss.
  static StatusOr<std::unique_ptr<PageStore>> Open(const std::string& path,
                                                   Metrics* metrics);

  /// Closes and deletes the backing file.
  ~PageStore();

  PageStore(const PageStore&) = delete;
  PageStore& operator=(const PageStore&) = delete;

  /// Appends a new page holding `n <= kPageSize` bytes (zero-padded).
  StatusOr<PageId> AppendPage(const void* data, size_t n);

  /// Reads a full page into `out` (at least kPageSize bytes). Counts raw
  /// read bytes; normally called through a BufferPool, not directly.
  Status ReadPage(PageId id, void* out) const;

  size_t page_count() const { return page_count_; }
  const std::string& path() const { return path_; }
  Metrics* metrics() const { return metrics_; }

 private:
  PageStore(std::string path, std::FILE* file, Metrics* metrics)
      : path_(std::move(path)), file_(file), metrics_(metrics) {
    if (metrics_ != nullptr) {
      read_latency_ = metrics_->registry().histogram("page_store.read_nanos");
    }
  }

  std::string path_;
  std::FILE* file_;
  Metrics* metrics_;
  Histogram* read_latency_ = nullptr;
  // Serializes the fseek+fread/fwrite pairs on file_ (mutable so the
  // logically-const ReadPage can lock it).
  mutable std::mutex io_mu_;
  size_t page_count_ = 0;
  // Zeroed padding for short pages; guarded by io_mu_.
  std::vector<uint8_t> pad_ = std::vector<uint8_t>(kPageSize);
};

/// An LRU page cache over a PageStore with a fixed capacity in pages.
/// This is the knob that turns "graph larger than memory" into real
/// repeated IO: every miss reads kPageSize bytes from the store.
///
/// Pages are returned as shared_ptr so an evicted-but-pinned page stays
/// valid until the caller drops it. GetPage/Clear are thread-safe (one
/// mutex over the map + LRU list), so a pool of walk workers can share
/// one cache; the page bytes themselves are immutable once loaded.
class BufferPool {
 public:
  using Page = std::vector<uint8_t>;

  BufferPool(PageStore* store, size_t capacity_pages)
      : store_(store), capacity_(capacity_pages) {
    // Mirror hit/miss tallies into the owning machine's metrics registry
    // (summed across all pools of that machine) so run reports can export
    // a hit rate without reaching into individual pools.
    if (store_ != nullptr && store_->metrics() != nullptr) {
      MetricsRegistry& reg = store_->metrics()->registry();
      hits_counter_ = reg.counter("buffer_pool.hits");
      misses_counter_ = reg.counter("buffer_pool.misses");
      // Add-deltas so all pools of a machine (the distributed simulation
      // creates one per simulated machine) aggregate into one gauge pair.
      mem_gauge_.Bind(&reg, "buffer_pool");
    }
  }

  ~BufferPool() { Clear(); }

  /// Fetches a page, from cache or disk.
  StatusOr<std::shared_ptr<const Page>> GetPage(PageId id);

  /// Drops all cached pages (used between experiment runs for cold-cache
  /// measurements).
  void Clear();

  size_t capacity_pages() const { return capacity_; }
  uint64_t hits() const {
    std::lock_guard<TimedMutex> lock(mu_);
    return hits_;
  }
  uint64_t misses() const {
    std::lock_guard<TimedMutex> lock(mu_);
    return misses_;
  }

 private:
  struct Entry {
    std::shared_ptr<const Page> page;
    std::list<PageId>::iterator lru_it;
  };

  PageStore* store_;
  size_t capacity_;
  // Guards cache_, lru_, hits_, misses_. Timed: misses hold it across
  // the disk read, so pool workers queueing behind a cold window show up
  // as `contention.buffer_pool.wait_us`.
  mutable TimedMutex mu_{"buffer_pool"};
  std::unordered_map<PageId, Entry> cache_;
  std::list<PageId> lru_;  // front = most recent
  uint64_t hits_ = 0;    // per-pool tallies (tests assert exact counts);
  uint64_t misses_ = 0;  // the registry counters aggregate across pools
  Counter* hits_counter_ = nullptr;
  Counter* misses_counter_ = nullptr;
  ByteGauge mem_gauge_;  // mem.buffer_pool.* resident page bytes
};

/// The page a reader last fetched, kept pinned between reads so a run of
/// reads inside one page costs one BufferPool::GetPage (one lookup under
/// the pool mutex) instead of one per read. Owned by a single reader (one
/// W-Seek window load), never shared between threads. Pages are
/// immutable once written and the shared_ptr keeps an evicted page valid,
/// so a read through the cursor returns the bytes a lookup would.
struct PageCursor {
  PageId id = 0;
  std::shared_ptr<const BufferPool::Page> page;  // null: nothing pinned
};

}  // namespace itg

#endif  // ITG_STORAGE_PAGE_STORE_H_
