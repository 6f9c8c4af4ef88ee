// Per-process temp file names for tests.  ctest runs every gtest case —
// every parameter of a parameterized one included — as its own process,
// and `ctest -j` runs those processes side by side, so a fixed name under
// TempDir() would be shared between them.
#pragma once

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <string>
#include <system_error>
#include <vector>

namespace lgg::testutil {

/// TempDir()/lgg-<pid>-<Suite.Test>-<name>: unique to this process and
/// the running test ('/' in parameterized names becomes '_').  Call it
/// from inside a test body.  Whatever ends up at the path (file or
/// directory) is removed when the process exits.
inline std::string temp_path(const std::string& name) {
  struct Cleanup {
    std::vector<std::string> paths;
    ~Cleanup() {
      std::error_code ignored;
      for (const std::string& p : paths)
        std::filesystem::remove_all(p, ignored);
    }
  };
  static Cleanup cleanup;
  const ::testing::TestInfo* info =
      ::testing::UnitTest::GetInstance()->current_test_info();
  std::string test =
      std::string(info->test_suite_name()) + "." + info->name();
  std::replace(test.begin(), test.end(), '/', '_');
  cleanup.paths.push_back(::testing::TempDir() + "lgg-" +
                          std::to_string(::getpid()) + "-" + test + "-" +
                          name);
  return cleanup.paths.back();
}

}  // namespace lgg::testutil
