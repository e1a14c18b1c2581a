#include "hierarchy/hierarchy_io.h"

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "common/fault_injection.h"
#include "common/file_util.h"
#include "common/string_util.h"
#include "hierarchy/hierarchy_builder.h"

namespace kjoin {
namespace {

// "<source>:<line>: <message>" — every parse error carries its location.
Status ParseError(std::string_view source_name, int line_number, std::string message) {
  return InvalidArgumentError(std::string(source_name) + ":" +
                              std::to_string(line_number) + ": " + std::move(message));
}

}  // namespace

std::string SerializeHierarchy(const Hierarchy& hierarchy) {
  std::ostringstream os;
  os << "# kjoin hierarchy: " << hierarchy.num_nodes() << " nodes, height "
     << hierarchy.height() << "\n";
  for (NodeId v = 0; v < hierarchy.num_nodes(); ++v) {
    const NodeId parent = (v == hierarchy.root()) ? kInvalidNode : hierarchy.parent(v);
    os << v << "\t" << parent << "\t" << hierarchy.label(v) << "\n";
  }
  return os.str();
}

StatusOr<Hierarchy> ParseHierarchy(std::string_view text, std::string_view source_name) {
  std::vector<NodeId> parents;
  std::vector<std::string> labels;
  std::vector<std::string_view> fields;  // views into `text`, reused per line
  std::string number;                    // a NUL-terminated copy for strtol
  // strtol over a whole field, as on the field's own string: leading
  // whitespace and a sign are accepted, trailing bytes are not.
  auto parse_id = [&](std::string_view field, long* value) {
    number.assign(field);
    char* end = nullptr;
    *value = std::strtol(number.c_str(), &end, 10);
    return end != number.c_str() && *end == '\0';
  };
  int line_number = 0;
  for (size_t start = 0; start <= text.size();) {
    const size_t newline = std::min(text.find('\n', start), text.size());
    const std::string_view line = StripAsciiWhitespace(text.substr(start, newline - start));
    start = newline + 1;
    ++line_number;
    if (line.empty() || line[0] == '#') continue;
    SplitViews(line, '\t', &fields);
    if (fields.size() != 3) {
      return ParseError(source_name, line_number,
                        "expected 3 tab-separated fields, got " +
                            std::to_string(fields.size()));
    }
    long id = 0;
    if (!parse_id(fields[0], &id)) {
      return ParseError(source_name, line_number, "bad node id '" + std::string(fields[0]) + "'");
    }
    if (id != static_cast<long>(parents.size())) {
      return ParseError(source_name, line_number,
                        "ids must be dense and ascending: expected " +
                            std::to_string(parents.size()) + ", got '" +
                            std::string(fields[0]) + "'");
    }
    long parent = 0;
    if (!parse_id(fields[1], &parent)) {
      return ParseError(source_name, line_number,
                        "bad parent id '" + std::string(fields[1]) + "'");
    }
    if (id == 0) {
      if (parent != -1) {
        return ParseError(source_name, line_number,
                          "root parent must be -1, got " + std::to_string(parent));
      }
    } else if (parent < 0 || parent >= id) {
      return ParseError(source_name, line_number,
                        "parent must precede child, got " + std::to_string(parent));
    }
    if (!IsValidUtf8(fields[2])) {
      return ParseError(source_name, line_number, "label is not valid UTF-8");
    }
    parents.push_back(static_cast<NodeId>(parent));
    labels.emplace_back(fields[2]);
  }
  if (parents.empty()) {
    return InvalidArgumentError(std::string(source_name) + ": hierarchy text has no nodes");
  }
  // The per-line checks above already enforce the Hierarchy invariants;
  // the checked factory keeps that true if the two ever drift.
  return BuildHierarchyChecked(std::move(parents), std::move(labels));
}

Status WriteHierarchyFile(const Hierarchy& hierarchy, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    return NotFoundError("cannot open " + path + " for writing");
  }
  out << SerializeHierarchy(hierarchy);
  out.flush();
  if (!out || KJOIN_FAULT_POINT("hierarchy_io/write_fail")) {
    return DataLossError("write failed for " + path);
  }
  return OkStatus();
}

StatusOr<Hierarchy> ReadHierarchyFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in || KJOIN_FAULT_POINT("hierarchy_io/open_fail")) {
    return NotFoundError("cannot open " + path);
  }
  std::string bytes;
  if (!ReadStreamToString(in, path, &bytes) || KJOIN_FAULT_POINT("hierarchy_io/short_read")) {
    return DataLossError("read failed for " + path);
  }
  return ParseHierarchy(bytes, path);
}

}  // namespace kjoin
