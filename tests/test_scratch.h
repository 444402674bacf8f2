// Per-test scratch files for the suites that write to disk.
//
// ctest runs every test case as its own process, several at once under
// `ctest -j N`, so a fixed file name under testing::TempDir() is shared by
// concurrently running tests that overwrite each other's files.
// ScratchPath() keys the directory by pid, suite and test name instead:
// no two processes, and no two tests of one process, share a file. The
// process's scratch tree is removed when the process exits normally.

#ifndef PIGEONRING_TESTS_TEST_SCRATCH_H_
#define PIGEONRING_TESTS_TEST_SCRATCH_H_

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <string>
#include <system_error>

namespace pigeonring {

namespace scratch_internal {

/// `<TempDir>/pigeonring_test.<pid>`, removed when the process exits.
inline const std::filesystem::path& ProcessRoot() {
  struct Root {
    Root() = default;
    Root(const Root&) = delete;
    Root& operator=(const Root&) = delete;
    ~Root() {
      std::error_code ignored;
      std::filesystem::remove_all(path, ignored);
    }
    const std::filesystem::path path =
        std::filesystem::path(testing::TempDir()) /
        ("pigeonring_test." + std::to_string(::getpid()));
  };
  static const Root root;
  return root.path;
}

}  // namespace scratch_internal

/// `<TempDir>/pigeonring_test.<pid>/<suite>.<test>/<file>`, with the
/// directory created. Call it only from inside a running test.
inline std::string ScratchPath(const std::string& file) {
  const testing::TestInfo& test =
      *testing::UnitTest::GetInstance()->current_test_info();
  const std::filesystem::path dir =
      scratch_internal::ProcessRoot() /
      (std::string(test.test_suite_name()) + "." + test.name());
  std::filesystem::create_directories(dir);
  return (dir / file).string();
}

}  // namespace pigeonring

#endif  // PIGEONRING_TESTS_TEST_SCRATCH_H_
