#ifndef KJOIN_COMMON_FLAGS_H_
#define KJOIN_COMMON_FLAGS_H_

// A tiny command-line flag parser for the example and benchmark binaries.
//
//   kjoin::FlagSet flags("bench_fig9");
//   int* n = flags.Int("n", 20000, "number of objects");
//   double* tau = flags.Double("tau", 0.85, "object threshold");
//   if (!flags.Parse(argc, argv)) return 1;   // prints usage on error/--help
//
// Accepted syntaxes: --name=value, --name value (non-bool flags),
// --flag (bool true), --noflag (bool false). Any other argument is an
// error: a bool flag never takes its value from the next word, so
// `--plus false` is rejected rather than read as `--plus`.

#include <memory>
#include <string>
#include <vector>

namespace kjoin {

class FlagSet {
 public:
  explicit FlagSet(std::string program_name);
  ~FlagSet();

  FlagSet(const FlagSet&) = delete;
  FlagSet& operator=(const FlagSet&) = delete;

  // Registration. The returned pointer stays valid for the FlagSet's
  // lifetime and holds the default until Parse runs.
  int64_t* Int(const std::string& name, int64_t default_value, const std::string& help);
  double* Double(const std::string& name, double default_value, const std::string& help);
  bool* Bool(const std::string& name, bool default_value, const std::string& help);
  std::string* String(const std::string& name, const std::string& default_value,
                      const std::string& help);

  // Parses argv. Returns false (after printing usage) on unknown flags,
  // malformed values, non-flag arguments, or --help.
  bool Parse(int argc, char** argv);

  std::string Usage() const;

 private:
  struct Flag;
  Flag* Find(const std::string& name);

  std::string program_name_;
  std::vector<std::unique_ptr<Flag>> flags_;
};

}  // namespace kjoin

#endif  // KJOIN_COMMON_FLAGS_H_
