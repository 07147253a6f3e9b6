#include "util/mapped_file.hpp"

#include <cstdio>

#include "util/error.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#define MPA_HAVE_MMAP 1
#endif

namespace mpa {
namespace {

std::string err(std::string_view who, const char* what, const std::string& path) {
  return std::string(who) + ": " + what + " " + path;
}

}  // namespace

MappedFile::MappedFile(const std::string& path, std::string_view who) {
#ifdef MPA_HAVE_MMAP
  const int fd = ::open(path.c_str(), O_RDONLY);
  require_data(fd >= 0, err(who, "cannot open", path));
  struct stat st {};
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    throw DataError(err(who, "cannot stat", path));
  }
  size_ = static_cast<std::size_t>(st.st_size);
  if (size_ == 0) {
    ::close(fd);
    return;
  }
  void* addr = ::mmap(nullptr, size_, PROT_READ, MAP_PRIVATE, fd, 0);
  ::close(fd);
  if (addr != MAP_FAILED) {
    data_ = static_cast<const std::byte*>(addr);
    mapped_ = true;
    return;
  }
  // mmap can fail on exotic filesystems; fall through to a plain read.
#endif
  fallback_ = read_file(path, who);
  data_ = reinterpret_cast<const std::byte*>(fallback_.data());
  size_ = fallback_.size();
}

MappedFile::~MappedFile() {
#ifdef MPA_HAVE_MMAP
  if (mapped_) ::munmap(const_cast<void*>(static_cast<const void*>(data_)), size_);
#endif
}

std::string read_file(const std::string& path, std::string_view who) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  const std::streamoff size = in ? static_cast<std::streamoff>(in.tellg()) : -1;
  require_data(size >= 0, err(who, "cannot open", path));
  std::string out(static_cast<std::size_t>(size), '\0');
  in.seekg(0);
  in.read(out.data(), size);
  require_data(static_cast<bool>(in), err(who, "read failed for", path));
  return out;
}

ReplaceFile::ReplaceFile(std::string path, std::string_view who)
    : path_(std::move(path)), tmp_(path_ + ".tmp"), who_(who) {
  out_.open(tmp_, std::ios::binary | std::ios::trunc);
  require_data(static_cast<bool>(out_), err(who_, "cannot open", path_));
}

ReplaceFile::~ReplaceFile() {
  if (committed_) return;
  out_.close();
  std::remove(tmp_.c_str());
}

void ReplaceFile::commit() {
  out_.close();
  require_data(!out_.fail() && std::rename(tmp_.c_str(), path_.c_str()) == 0,
               err(who_, "write failed for", path_));
  committed_ = true;
}

void replace_file(const std::string& path, std::string_view content, std::string_view who) {
  ReplaceFile f(path, who);
  f.out().write(content.data(), static_cast<std::streamsize>(content.size()));
  f.commit();
}

}  // namespace mpa
