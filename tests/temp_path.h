// Scratch-file paths for tests that touch the filesystem.
//
// ctest runs every test case as its own process, in parallel, so a fixed
// file name lets one test's cleanup (or atomic rename) hit another test's
// open. The path therefore carries the running test's name and the pid.

#ifndef HDOV_TESTS_TEMP_PATH_H_
#define HDOV_TESTS_TEMP_PATH_H_

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <string>

namespace hdov {

// `<tmp>/<Suite>.<Test>.<pid>.<name>`; outside a test body (e.g. in
// SetUpTestSuite) the test part is omitted.
inline std::string TempPath(const std::string& name) {
  std::string unique = std::to_string(::getpid()) + "." + name;
  if (const ::testing::TestInfo* info =
          ::testing::UnitTest::GetInstance()->current_test_info()) {
    unique = std::string(info->test_suite_name()) + "." + info->name() +
             "." + unique;
  }
  std::replace(unique.begin(), unique.end(), '/', '_');  // Param tests.
  return (std::filesystem::temp_directory_path() / unique).string();
}

}  // namespace hdov

#endif  // HDOV_TESTS_TEMP_PATH_H_
