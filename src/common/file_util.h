#ifndef KJOIN_COMMON_FILE_UTIL_H_
#define KJOIN_COMMON_FILE_UTIL_H_

// Reading whole files for the text parsers.

#include <istream>
#include <string>

namespace kjoin {

// Reads the rest of `in`, opened on `path`, into `out`, straight into the
// string's buffer: a regular file in one read of its length, anything
// else (a pipe) in doubling chunks. Returns false on a read error.
bool ReadStreamToString(std::istream& in, const std::string& path, std::string* out);

}  // namespace kjoin

#endif  // KJOIN_COMMON_FILE_UTIL_H_
