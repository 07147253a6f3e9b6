// A private scratch directory per test case.
//
// ctest runs every gtest case as its own process, in parallel, so two
// cases writing the same name under testing::TempDir() overwrite each
// other's files. Cases write under case_dir() instead; srclint's
// tempdir-literal rule rejects a string literal appended to TempDir().
#pragma once

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <string>
#include <system_error>
#include <vector>

namespace mpa {

/// The directories case_dir() made in this process; removed when the
/// process exits (ctest runs each case as its own process), so repeated
/// runs leave nothing behind. A crashed case keeps its files.
struct CaseDirs {
  std::vector<std::string> made;
  ~CaseDirs() {
    for (const std::string& dir : made) {
      std::error_code ec;
      std::filesystem::remove_all(dir, ec);
    }
  }
};

/// `<TempDir>/<Suite>.<Case>.<pid>/`, created empty by the case's first
/// call; later calls in the same case return it untouched. Ends in '/',
/// so callers append file names.
inline std::string case_dir() {
  const testing::TestInfo* info = testing::UnitTest::GetInstance()->current_test_info();
  std::string name = std::string(info->test_suite_name()) + '.' + info->name() + '.' +
                     std::to_string(::getpid());
  for (char& c : name)
    if (c == '/') c = '_';  // parameterized names contain '/'
  const std::string dir = (std::filesystem::path(testing::TempDir()) / name).string() + '/';
  static CaseDirs dirs;
  if (dirs.made.empty() || dirs.made.back() != dir) {
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    dirs.made.push_back(dir);
  }
  return dir;
}

}  // namespace mpa
