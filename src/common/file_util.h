// Whole-file read and write for the dump containers and JSON exports.
// Errors are IoError statuses prefixed with `what` (e.g. "flight dump:
// cannot open <path>"), so every artifact reports failures the same way.

#ifndef HDOV_COMMON_FILE_UTIL_H_
#define HDOV_COMMON_FILE_UTIL_H_

#include <string>
#include <string_view>

#include "common/result.h"
#include "common/status.h"

namespace hdov {

// Replaces the file at `path` with `data`.
Status WriteStringToFile(const std::string& path, std::string_view data,
                         std::string_view what);
Result<std::string> ReadFileToString(const std::string& path,
                                     std::string_view what);

}  // namespace hdov

#endif  // HDOV_COMMON_FILE_UTIL_H_
