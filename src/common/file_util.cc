#include "common/file_util.h"

#include <algorithm>
#include <filesystem>
#include <system_error>

namespace kjoin {

bool ReadStreamToString(std::istream& in, const std::string& path, std::string* out) {
  out->clear();
  std::error_code error;
  size_t length = 0;
  if (std::filesystem::is_regular_file(path, error)) {
    const std::uintmax_t size = std::filesystem::file_size(path, error);
    if (!error) length = static_cast<size_t>(size);
  }
  // One byte past the expected end, so the read that fills the file also
  // meets end-of-file.
  size_t chunk = std::max<size_t>(length + 1, 4096);
  while (true) {
    const size_t filled = out->size();
    out->resize(filled + chunk);
    in.read(out->data() + filled, static_cast<std::streamsize>(chunk));
    out->resize(filled + static_cast<size_t>(in.gcount()));
    if (!in) break;
    chunk = std::max(chunk, out->size());
  }
  return !in.bad();
}

}  // namespace kjoin
