// Read-only file mapping for the snapshot loader.
//
// On POSIX this is mmap(PROT_READ, MAP_PRIVATE): opening a multi-GB snapshot
// is O(1) — pages fault in on first touch and are shared, clean, and
// evictable across every process serving the same file. On platforms without
// mmap the file is read into a heap buffer instead (correct, not O(1)); the
// rest of the subsystem never sees the difference.
#pragma once

#include <cstddef>
#include <filesystem>
#include <memory>

namespace c3::snapshot {

class MappedFile {
 public:
  MappedFile() = default;

  /// Maps `path` read-only. Throws std::runtime_error on any failure (the
  /// message names the path and the failing operation).
  [[nodiscard]] static MappedFile map_readonly(const std::filesystem::path& path);

  /// Reads `path` into a heap buffer instead of mapping it — the fallback
  /// platforms without mmap always take, callable directly where a private
  /// copy is wanted (or to test the fallback path). is_mapped() is false;
  /// the page-granular warm-up hints (prefault, lock_memory) become
  /// explicit no-ops: madvise/mlock assume a page-aligned mapping, and a
  /// heap buffer is already resident anyway.
  [[nodiscard]] static MappedFile read_heap(const std::filesystem::path& path);

  MappedFile(MappedFile&& other) noexcept { *this = std::move(other); }
  MappedFile& operator=(MappedFile&& other) noexcept;
  MappedFile(const MappedFile&) = delete;
  MappedFile& operator=(const MappedFile&) = delete;
  ~MappedFile();

  [[nodiscard]] const std::byte* data() const noexcept { return data_; }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }

  /// True when the contents are an actual mmap (false: heap fallback).
  [[nodiscard]] bool is_mapped() const noexcept { return mapped_; }

  /// Warm-up hint: asks the kernel to read the whole mapping ahead
  /// (madvise WILLNEED), so first-touch page faults hit the page cache
  /// instead of the disk. Best-effort; a no-op for the heap fallback (its
  /// pages are already resident) and on platforms without madvise.
  void prefault() const noexcept;

  /// Pins the mapping into RAM (mlock), so serving never takes a major
  /// fault — at the price of unevictable memory. Best-effort: returns false
  /// when unsupported or refused (e.g. RLIMIT_MEMLOCK), which callers
  /// should treat as a degraded warm-up, not an error. A no-op returning
  /// false for the heap fallback — mlock wants a page-aligned mapping, and
  /// heap pages need no pinning to avoid major faults.
  [[nodiscard]] bool lock_memory() const noexcept;

 private:
  void reset() noexcept;

  const std::byte* data_ = nullptr;
  std::size_t size_ = 0;
  bool mapped_ = false;                    // owns an mmap region
  std::unique_ptr<std::byte[]> heap_;      // owns the fallback buffer
};

}  // namespace c3::snapshot
