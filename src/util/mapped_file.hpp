// Whole-file reads and writes for the dataset layer: a read-only
// mapping that snapshot text can view into (util/shared_text.hpp), a
// one-shot sized read for the small files that are parsed into owned
// records, and a writer that replaces a file instead of editing it.
#pragma once

#include <cstddef>
#include <fstream>
#include <span>
#include <string>
#include <string_view>

namespace mpa {

/// Read-only bytes of one file, mapped with mmap where the platform
/// provides it and read into the heap otherwise. Neither copyable nor
/// movable: views into it are shared through a
/// std::shared_ptr<const MappedFile>, which keeps the mapping alive.
///
/// A mapping sees later writes to the same file, and a truncation
/// makes reads past the new end fault; the dataset writers therefore
/// replace files through ReplaceFile and never edit one in place.
class MappedFile {
 public:
  /// Throws DataError "<who>: cannot open <path>" (or "cannot stat")
  /// when the file cannot be read.
  MappedFile(const std::string& path, std::string_view who);
  ~MappedFile();

  MappedFile(const MappedFile&) = delete;
  MappedFile& operator=(const MappedFile&) = delete;

  std::span<const std::byte> bytes() const { return {data_, size_}; }
  std::string_view text() const { return {reinterpret_cast<const char*>(data_), size_}; }

 private:
  const std::byte* data_ = nullptr;
  std::size_t size_ = 0;
  bool mapped_ = false;
  std::string fallback_;
};

/// The whole file in one sized read. Throws DataError
/// "<who>: cannot open <path>" when it cannot be opened or read.
std::string read_file(const std::string& path, std::string_view who);

/// Writes `<path>.tmp` and renames it over `path` on commit(), so a
/// reader that has the old `path` mapped keeps the bytes it mapped and
/// no reader ever sees a half-written file. An uncommitted temporary
/// is removed on destruction.
class ReplaceFile {
 public:
  /// Throws DataError "<who>: cannot open <path>".
  ReplaceFile(std::string path, std::string_view who);
  ~ReplaceFile();

  ReplaceFile(const ReplaceFile&) = delete;
  ReplaceFile& operator=(const ReplaceFile&) = delete;

  std::ostream& out() { return out_; }

  /// Flush, close and rename into place. Throws DataError
  /// "<who>: write failed for <path>".
  void commit();

 private:
  std::string path_;
  std::string tmp_;
  std::string who_;
  std::ofstream out_;
  bool committed_ = false;
};

/// ReplaceFile with the whole content at once.
void replace_file(const std::string& path, std::string_view content, std::string_view who);

}  // namespace mpa
