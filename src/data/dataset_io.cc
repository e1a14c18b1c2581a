#include "data/dataset_io.h"

#include <algorithm>
#include <cerrno>
#include <climits>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "common/fault_injection.h"
#include "common/file_util.h"
#include "common/string_util.h"

namespace kjoin {
namespace {

Status ParseError(std::string_view source_name, int line_number, std::string message) {
  return InvalidArgumentError(std::string(source_name) + ":" +
                              std::to_string(line_number) + ": " + std::move(message));
}

}  // namespace

std::string SerializeDataset(const Dataset& dataset) {
  std::ostringstream os;
  os << "# kjoin dataset: " << dataset.name << ", " << dataset.records.size()
     << " records, " << dataset.synonyms.size() << " synonyms\n";
  for (const auto& [alias, label] : dataset.synonyms) {
    os << "S\t" << alias << "\t" << label << "\n";
  }
  for (const Record& record : dataset.records) {
    os << "R\t" << record.cluster;
    for (const std::string& token : record.tokens) os << "\t" << token;
    os << "\n";
  }
  return os.str();
}

StatusOr<Dataset> ParseDataset(std::string_view text, std::string name) {
  Dataset dataset;
  dataset.name = std::move(name);
  std::vector<std::string_view> fields;  // views into `text`, reused per line
  std::string number;                    // a NUL-terminated copy for strtol
  int line_number = 0;
  for (size_t start = 0; start <= text.size();) {
    const size_t newline = std::min(text.find('\n', start), text.size());
    const std::string_view line = StripAsciiWhitespace(text.substr(start, newline - start));
    start = newline + 1;
    ++line_number;
    if (line.empty() || line[0] == '#') continue;
    SplitViews(line, '\t', &fields);
    if (fields[0] == "S") {
      if (fields.size() != 3) {
        return ParseError(dataset.name, line_number,
                          "synonym lines need 3 fields, got " +
                              std::to_string(fields.size()));
      }
      if (!IsValidUtf8(fields[1]) || !IsValidUtf8(fields[2])) {
        return ParseError(dataset.name, line_number, "synonym is not valid UTF-8");
      }
      dataset.synonyms.emplace_back(fields[1], fields[2]);
      continue;
    }
    if (fields[0] == "R") {
      if (fields.size() < 3) {
        return ParseError(dataset.name, line_number,
                          "record lines need a cluster and >= 1 token");
      }
      // strtol over the whole field, as on the field's own string.
      number.assign(fields[1]);
      char* end = nullptr;
      errno = 0;
      const long cluster = std::strtol(number.c_str(), &end, 10);
      if (end == number.c_str() || *end != '\0' || errno == ERANGE ||
          cluster > INT32_MAX || cluster < INT32_MIN) {
        return ParseError(dataset.name, line_number,
                          "bad cluster '" + std::string(fields[1]) + "'");
      }
      Record record;
      record.id = static_cast<int32_t>(dataset.records.size());
      record.cluster = static_cast<int32_t>(cluster);
      // No UTF-8 sequence spans a tab, so the tokens are all valid iff
      // the text holding them is: one check per record, and a search for
      // the bad token only when it fails.
      const std::string_view token_text(
          fields[2].data(),
          static_cast<size_t>(fields.back().data() + fields.back().size() - fields[2].data()));
      if (!IsValidUtf8(token_text)) {
        for (size_t k = 2; k < fields.size(); ++k) {
          if (!IsValidUtf8(fields[k])) {
            return ParseError(dataset.name, line_number,
                              "token " + std::to_string(k - 2) + " is not valid UTF-8");
          }
        }
      }
      record.tokens.assign(fields.begin() + 2, fields.end());
      dataset.records.push_back(std::move(record));
      continue;
    }
    return ParseError(dataset.name, line_number,
                      "unknown line type '" + std::string(fields[0]) + "'");
  }
  return dataset;
}

Status WriteDatasetFile(const Dataset& dataset, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    return NotFoundError("cannot open " + path + " for writing");
  }
  out << SerializeDataset(dataset);
  out.flush();
  if (!out || KJOIN_FAULT_POINT("dataset_io/write_fail")) {
    return DataLossError("write failed for " + path);
  }
  return OkStatus();
}

StatusOr<Dataset> ReadDatasetFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in || KJOIN_FAULT_POINT("dataset_io/open_fail")) {
    return NotFoundError("cannot open " + path);
  }
  std::string bytes;
  if (!ReadStreamToString(in, path, &bytes) || KJOIN_FAULT_POINT("dataset_io/short_read")) {
    return DataLossError("read failed for " + path);
  }
  return ParseDataset(bytes, path);
}

}  // namespace kjoin
