// Per-test scratch directory for file-based fixtures.
//
// ctest runs every gtest case as its own process, and the HP_THREADS=1
// and =16 re-runs (tests/CMakeLists.txt) execute whole suites at the
// same time as those processes. A fixed file name under
// ::testing::TempDir() is therefore shared by concurrent cases: one
// case's TearDown deletes, or its SetUp truncates, another case's
// input. ScratchDir gives each running test its own directory, named
// after the test and the process id, and removes it on destruction.
#pragma once

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <string>
#include <system_error>

namespace hp::testutil {

class ScratchDir {
 public:
  ScratchDir() {
    const ::testing::TestInfo* info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    std::string tag = info != nullptr
                          ? std::string{info->test_suite_name()} + "." +
                                info->name()
                          : std::string{"no_test"};
    std::replace(tag.begin(), tag.end(), '/', '_');  // parameterized names
    path_ = ::testing::TempDir() + "/" + tag + "." +
            std::to_string(::getpid());
    std::filesystem::create_directories(path_);
  }
  ~ScratchDir() {
    std::error_code ignored;
    std::filesystem::remove_all(path_, ignored);
  }

  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;

  const std::string& path() const { return path_; }

  /// Path of `name` inside this test's directory.
  std::string file(const std::string& name) const {
    return path_ + "/" + name;
  }

 private:
  std::string path_;
};

}  // namespace hp::testutil
