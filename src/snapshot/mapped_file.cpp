#include "snapshot/mapped_file.hpp"

#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <string>
#include <utility>

#include <fstream>

#if !defined(_WIN32)
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#endif

namespace c3::snapshot {
namespace {

[[noreturn]] void fail(const std::filesystem::path& path, const std::string& what) {
  throw std::runtime_error("c3::snapshot: " + what + ": " + path.string());
}

}  // namespace

void MappedFile::reset() noexcept {
#if !defined(_WIN32)
  if (mapped_ && data_ != nullptr) {
    ::munmap(const_cast<std::byte*>(data_), size_);
  }
#endif
  heap_.reset();
  data_ = nullptr;
  size_ = 0;
  mapped_ = false;
}

MappedFile& MappedFile::operator=(MappedFile&& other) noexcept {
  if (this != &other) {
    reset();
    data_ = std::exchange(other.data_, nullptr);
    size_ = std::exchange(other.size_, 0);
    mapped_ = std::exchange(other.mapped_, false);
    heap_ = std::move(other.heap_);
  }
  return *this;
}

MappedFile::~MappedFile() { reset(); }

void MappedFile::prefault() const noexcept {
#if !defined(_WIN32)
  if (mapped_ && data_ != nullptr && size_ > 0) {
    ::madvise(const_cast<std::byte*>(data_), size_, MADV_WILLNEED);
  }
#endif
}

bool MappedFile::lock_memory() const noexcept {
#if defined(_WIN32)
  return false;
#else
  // Heap fallback: mlock assumes a page-aligned mapping — locking an
  // unaligned heap buffer would pin whatever else shares its boundary
  // pages. The buffer is already resident, so "not locked" is the honest
  // no-op, reported as false for Snapshot::memory_locked().
  if (!mapped_ || data_ == nullptr || size_ == 0) return false;
  return ::mlock(data_, size_) == 0;
#endif
}

MappedFile MappedFile::read_heap(const std::filesystem::path& path) {
  MappedFile out;
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) fail(path, "cannot open for reading");
  const auto bytes = static_cast<std::size_t>(in.tellg());
  if (bytes == 0) return out;  // empty file: validation rejects it later
  out.heap_ = std::make_unique<std::byte[]>(bytes);
  in.seekg(0);
  in.read(reinterpret_cast<char*>(out.heap_.get()), static_cast<std::streamsize>(bytes));
  if (!in) fail(path, "read error");
  out.data_ = out.heap_.get();
  out.size_ = bytes;
  return out;
}

MappedFile MappedFile::map_readonly(const std::filesystem::path& path) {
#if defined(_WIN32)
  return read_heap(path);
#else
  MappedFile out;
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) fail(path, std::string("cannot open for reading (") + std::strerror(errno) + ")");
  struct stat st{};
  if (::fstat(fd, &st) != 0) {
    const int err = errno;
    ::close(fd);
    fail(path, std::string("fstat failed (") + std::strerror(err) + ")");
  }
  const auto bytes = static_cast<std::size_t>(st.st_size);
  if (bytes == 0) {
    ::close(fd);
    out.size_ = 0;
    return out;  // empty file: validation rejects it with a precise message
  }
  void* addr = ::mmap(nullptr, bytes, PROT_READ, MAP_PRIVATE, fd, 0);
  const int err = errno;
  ::close(fd);
  if (addr == MAP_FAILED) {
    fail(path, std::string("mmap failed (") + std::strerror(err) + ")");
  }
  out.data_ = static_cast<const std::byte*>(addr);
  out.size_ = bytes;
  out.mapped_ = true;
  return out;
#endif
}

}  // namespace c3::snapshot
