#ifndef ITG_STORAGE_DISK_ARRAY_H_
#define ITG_STORAGE_DISK_ARRAY_H_

#include <algorithm>
#include <cstring>
#include <type_traits>
#include <vector>

#include "storage/page_store.h"

namespace itg {

/// A flat on-disk array of trivially copyable elements, laid out across
/// consecutive pages of a PageStore. Random reads go through a BufferPool
/// (so repeated access to hot ranges is cached and cold access is real IO).
///
/// This is the storage primitive for CSR adjacency arrays, edge-delta
/// segments, and vertex attribute delta files: everything the paper's
/// engine streams from disk.
template <typename T>
class DiskArray {
  static_assert(std::is_trivially_copyable_v<T>);

 public:
  DiskArray() = default;
  DiskArray(std::vector<PageId> pages, size_t size)
      : pages_(std::move(pages)), size_(size) {}

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  static constexpr size_t ElementsPerPage() { return kPageSize / sizeof(T); }

  /// Reads elements [start, start+count) into `out` through `pool`. With
  /// a `cursor`, a read that falls on the cursor's page reuses it instead
  /// of looking the page up again, and the cursor ends on the last page
  /// read.
  Status Read(BufferPool* pool, size_t start, size_t count, T* out,
              PageCursor* cursor = nullptr) const {
    if (start + count > size_) {
      return Status::InvalidArgument("DiskArray read out of range");
    }
    constexpr size_t kPerPage = kPageSize / sizeof(T);
    PageCursor local;
    PageCursor& pin = cursor != nullptr ? *cursor : local;
    size_t done = 0;
    while (done < count) {
      size_t idx = start + done;
      size_t page_idx = idx / kPerPage;
      size_t in_page = idx % kPerPage;
      size_t n = std::min(count - done, kPerPage - in_page);
      const PageId id = pages_[page_idx];
      if (pin.page == nullptr || pin.id != id) {
        ITG_ASSIGN_OR_RETURN(pin.page, pool->GetPage(id));
        pin.id = id;
      }
      std::memcpy(out + done, pin.page->data() + in_page * sizeof(T),
                  n * sizeof(T));
      done += n;
    }
    return Status::OK();
  }

  /// Convenience: reads the whole range into a vector.
  StatusOr<std::vector<T>> ReadAll(BufferPool* pool) const {
    std::vector<T> out(size_);
    ITG_RETURN_IF_ERROR(Read(pool, 0, size_, out.data()));
    return out;
  }

 private:
  std::vector<PageId> pages_;
  size_t size_ = 0;
};

/// Builds a DiskArray by appending elements; flushes full pages eagerly so
/// peak memory stays one page.
template <typename T>
class DiskArrayBuilder {
  static_assert(std::is_trivially_copyable_v<T>);

 public:
  explicit DiskArrayBuilder(PageStore* store) : store_(store) {
    buffer_.reserve(kPageSize / sizeof(T));
  }

  Status Append(const T& value) {
    buffer_.push_back(value);
    if (buffer_.size() == kPageSize / sizeof(T)) {
      return FlushPage();
    }
    return Status::OK();
  }

  Status AppendRange(const T* data, size_t n) {
    constexpr size_t kPerPage = kPageSize / sizeof(T);
    while (n > 0) {
      const size_t take = std::min(n, kPerPage - buffer_.size());
      buffer_.insert(buffer_.end(), data, data + take);
      data += take;
      n -= take;
      if (buffer_.size() == kPerPage) ITG_RETURN_IF_ERROR(FlushPage());
    }
    return Status::OK();
  }

  StatusOr<DiskArray<T>> Finish() {
    if (!buffer_.empty()) ITG_RETURN_IF_ERROR(FlushPage());
    return DiskArray<T>(std::move(pages_), size_);
  }

  size_t size() const { return size_ + buffer_.size(); }

 private:
  Status FlushPage() {
    ITG_ASSIGN_OR_RETURN(
        PageId id,
        store_->AppendPage(buffer_.data(), buffer_.size() * sizeof(T)));
    pages_.push_back(id);
    size_ += buffer_.size();
    buffer_.clear();
    return Status::OK();
  }

  PageStore* store_;
  std::vector<T> buffer_;
  std::vector<PageId> pages_;
  size_t size_ = 0;
};

}  // namespace itg

#endif  // ITG_STORAGE_DISK_ARRAY_H_
