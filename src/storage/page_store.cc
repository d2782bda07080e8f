#include "storage/page_store.h"

#include <cstdio>
#include <cstring>

#include "common/logging.h"
#include "common/resource_scope.h"

namespace itg {

StatusOr<std::unique_ptr<PageStore>> PageStore::Open(const std::string& path,
                                                     Metrics* metrics) {
  std::FILE* file = std::fopen(path.c_str(), "w+b");
  if (file == nullptr) {
    return Status::IOError("cannot open page store file: " + path);
  }
  return std::unique_ptr<PageStore>(new PageStore(path, file, metrics));
}

PageStore::~PageStore() {
  // The file was opened truncating ("w+b"), so nothing can reopen its
  // pages later: it dies with the store.
  if (file_ != nullptr) std::fclose(file_);
  std::remove(path_.c_str());
}

StatusOr<PageId> PageStore::AppendPage(const void* data, size_t n) {
  if (n > kPageSize) {
    return Status::InvalidArgument("page payload exceeds page size");
  }
  std::lock_guard<std::mutex> lock(io_mu_);
  if (std::fseek(file_, static_cast<long>(page_count_ * kPageSize),
                 SEEK_SET) != 0) {
    return Status::IOError("seek failed on " + path_);
  }
  // A short page is padded in pad_, which is all zeros between calls, so
  // the page is still one write and only its n payload bytes are copied.
  const bool pad = n < kPageSize;
  if (pad) std::memcpy(pad_.data(), data, n);
  const size_t written =
      std::fwrite(pad ? pad_.data() : data, 1, kPageSize, file_);
  if (pad) std::memset(pad_.data(), 0, n);
  if (written != kPageSize) {
    return Status::IOError("write failed on " + path_);
  }
  if (metrics_ != nullptr) metrics_->AddWriteBytes(kPageSize);
  return static_cast<PageId>(page_count_++);
}

Status PageStore::ReadPage(PageId id, void* out) const {
  Stopwatch timer;
  std::lock_guard<std::mutex> lock(io_mu_);
  if (id >= page_count_) {
    return Status::InvalidArgument("page id out of range");
  }
  if (std::fseek(file_, static_cast<long>(static_cast<size_t>(id) * kPageSize),
                 SEEK_SET) != 0) {
    return Status::IOError("seek failed on " + path_);
  }
  if (std::fread(out, 1, kPageSize, file_) != kPageSize) {
    return Status::IOError("read failed on " + path_);
  }
  if (metrics_ != nullptr) {
    metrics_->AddReadBytes(kPageSize);
    metrics_->AddPageReads(1);
    // Includes time queued on io_mu_: that is the latency a walk task
    // actually observes on a cold window, which is what the async-IO
    // ROADMAP item needs to see.
    read_latency_->Record(timer.ElapsedNanos());
  }
  return Status::OK();
}

StatusOr<std::shared_ptr<const BufferPool::Page>> BufferPool::GetPage(
    PageId id) {
  // One lock over lookup + fill: misses hold it across the disk read,
  // which also prevents two workers from double-reading the same page.
  // The underlying FILE* is a single cursor, so reads are serialized at
  // the store regardless.
  std::lock_guard<TimedMutex> lock(mu_);
  auto it = cache_.find(id);
  if (it != cache_.end()) {
    ++hits_;
    if (hits_counter_ != nullptr) hits_counter_->Increment();
    lru_.erase(it->second.lru_it);
    lru_.push_front(id);
    it->second.lru_it = lru_.begin();
    return it->second.page;
  }
  ++misses_;
  if (misses_counter_ != nullptr) misses_counter_->Increment();
  // Attribute the miss (one kPageSize disk read) to whichever resource
  // context scheduled this work — under multi-view serving, the view
  // whose working set blew the cache is the one billed for the IO.
  ChargeCurrentPagesRead(1);
  auto page = std::make_shared<Page>(kPageSize);
  ITG_RETURN_IF_ERROR(store_->ReadPage(id, page->data()));
  while (cache_.size() >= capacity_ && !lru_.empty()) {
    PageId victim = lru_.back();
    lru_.pop_back();
    cache_.erase(victim);
    mem_gauge_.Add(-static_cast<int64_t>(kPageSize));
  }
  lru_.push_front(id);
  cache_.emplace(id, Entry{page, lru_.begin()});
  mem_gauge_.Add(static_cast<int64_t>(kPageSize));
  return std::shared_ptr<const Page>(page);
}

void BufferPool::Clear() {
  std::lock_guard<TimedMutex> lock(mu_);
  mem_gauge_.Add(-static_cast<int64_t>(cache_.size() * kPageSize));
  cache_.clear();
  lru_.clear();
}

}  // namespace itg
