#include "common/file_util.h"

#include <fstream>
#include <iterator>

namespace hdov {

Status WriteStringToFile(const std::string& path, std::string_view data,
                         std::string_view what) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    return Status::IoError(std::string(what) + ": cannot open " + path);
  }
  out.write(data.data(), static_cast<std::streamsize>(data.size()));
  if (!out) {
    return Status::IoError(std::string(what) + ": write to " + path +
                           " failed");
  }
  return Status::OK();
}

Result<std::string> ReadFileToString(const std::string& path,
                                     std::string_view what) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Status::IoError(std::string(what) + ": cannot open " + path);
  }
  std::string data((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  if (in.bad()) {
    return Status::IoError(std::string(what) + ": read from " + path +
                           " failed");
  }
  return data;
}

}  // namespace hdov
