#include "common/flags.h"

#include <cstdio>
#include <cstdlib>
#include <sstream>

#include "common/string_util.h"

namespace kjoin {

struct FlagSet::Flag {
  enum class Type { kInt, kDouble, kBool, kString };

  std::string name;
  std::string help;
  Type type;
  int64_t int_value = 0;
  double double_value = 0.0;
  bool bool_value = false;
  std::string string_value;

  std::string DefaultString() const {
    switch (type) {
      case Type::kInt:
        return std::to_string(int_value);
      case Type::kDouble: {
        std::ostringstream os;
        os << double_value;
        return os.str();
      }
      case Type::kBool:
        return bool_value ? "true" : "false";
      case Type::kString:
        return "\"" + string_value + "\"";
    }
    return "";
  }

  bool SetFromString(const std::string& text) {
    char* end = nullptr;
    switch (type) {
      case Type::kInt: {
        const long long v = std::strtoll(text.c_str(), &end, 10);
        if (end == text.c_str() || *end != '\0') return false;
        int_value = v;
        return true;
      }
      case Type::kDouble: {
        const double v = std::strtod(text.c_str(), &end);
        if (end == text.c_str() || *end != '\0') return false;
        double_value = v;
        return true;
      }
      case Type::kBool: {
        if (text == "true" || text == "1") {
          bool_value = true;
          return true;
        }
        if (text == "false" || text == "0") {
          bool_value = false;
          return true;
        }
        return false;
      }
      case Type::kString:
        string_value = text;
        return true;
    }
    return false;
  }
};

FlagSet::FlagSet(std::string program_name) : program_name_(std::move(program_name)) {}
FlagSet::~FlagSet() = default;

int64_t* FlagSet::Int(const std::string& name, int64_t default_value, const std::string& help) {
  auto flag = std::make_unique<Flag>();
  flag->name = name;
  flag->help = help;
  flag->type = Flag::Type::kInt;
  flag->int_value = default_value;
  flags_.push_back(std::move(flag));
  return &flags_.back()->int_value;
}

double* FlagSet::Double(const std::string& name, double default_value, const std::string& help) {
  auto flag = std::make_unique<Flag>();
  flag->name = name;
  flag->help = help;
  flag->type = Flag::Type::kDouble;
  flag->double_value = default_value;
  flags_.push_back(std::move(flag));
  return &flags_.back()->double_value;
}

bool* FlagSet::Bool(const std::string& name, bool default_value, const std::string& help) {
  auto flag = std::make_unique<Flag>();
  flag->name = name;
  flag->help = help;
  flag->type = Flag::Type::kBool;
  flag->bool_value = default_value;
  flags_.push_back(std::move(flag));
  return &flags_.back()->bool_value;
}

std::string* FlagSet::String(const std::string& name, const std::string& default_value,
                             const std::string& help) {
  auto flag = std::make_unique<Flag>();
  flag->name = name;
  flag->help = help;
  flag->type = Flag::Type::kString;
  flag->string_value = default_value;
  flags_.push_back(std::move(flag));
  return &flags_.back()->string_value;
}

FlagSet::Flag* FlagSet::Find(const std::string& name) {
  for (auto& flag : flags_) {
    if (flag->name == name) return flag.get();
  }
  return nullptr;
}

std::string FlagSet::Usage() const {
  std::ostringstream os;
  os << "Usage: " << program_name_ << " [flags]\n";
  for (const auto& flag : flags_) {
    os << "  --" << flag->name << "  (default " << flag->DefaultString() << ")  " << flag->help
       << "\n";
  }
  return os.str();
}

bool FlagSet::Parse(int argc, char** argv) {
  // The bool flag the previous argument set without '=', if any: a stray
  // word right after it is most likely its intended value.
  std::string bare_bool;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      std::fputs(Usage().c_str(), stderr);
      return false;
    }
    if (!StartsWith(arg, "--")) {
      const std::string name = bare_bool.empty() ? "name" : bare_bool;
      std::fprintf(stderr,
                   "Unexpected argument '%s'; a bool flag takes its value as "
                   "--%s=false or --no%s\n%s",
                   arg.c_str(), name.c_str(), name.c_str(), Usage().c_str());
      return false;
    }
    bare_bool.clear();
    arg = arg.substr(2);
    std::string value;
    bool has_value = false;
    const size_t eq = arg.find('=');
    if (eq != std::string::npos) {
      value = arg.substr(eq + 1);
      arg = arg.substr(0, eq);
      has_value = true;
    }
    Flag* flag = Find(arg);
    if (flag == nullptr && StartsWith(arg, "no")) {
      Flag* negated = Find(arg.substr(2));
      if (negated != nullptr && negated->type == Flag::Type::kBool && !has_value) {
        negated->bool_value = false;
        continue;
      }
    }
    if (flag == nullptr) {
      std::fprintf(stderr, "Unknown flag --%s\n%s", arg.c_str(), Usage().c_str());
      return false;
    }
    if (!has_value) {
      if (flag->type == Flag::Type::kBool) {
        flag->bool_value = true;
        bare_bool = arg;
        continue;
      }
      if (i + 1 >= argc) {
        std::fprintf(stderr, "Flag --%s needs a value\n", arg.c_str());
        return false;
      }
      value = argv[++i];
    }
    if (!flag->SetFromString(value)) {
      std::fprintf(stderr, "Bad value '%s' for flag --%s\n", value.c_str(), arg.c_str());
      return false;
    }
  }
  return true;
}

}  // namespace kjoin
