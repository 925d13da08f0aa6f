// Shared command-line parsing for nwc_tool and nwc_load.
//
// Flags take the form --key=value, or bare --key (value "true"). Each
// command names the flags it reads; any other flag (a typo, or a flag of
// another command) makes status() an InvalidArgument "unknown flag --X",
// so a misspelled option fails the run instead of being silently ignored.

#ifndef NWC_TOOLS_CLI_ARGS_H_
#define NWC_TOOLS_CLI_ARGS_H_

#include <cassert>
#include <cstdlib>
#include <cstring>
#include <initializer_list>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/nwc_types.h"

namespace nwc {

/// Flag names without the leading dashes.
using FlagList = std::vector<std::string>;

class Args {
 public:
  /// Parses argv[first..]; the command reads the flags of every list in
  /// `known`.
  Args(int argc, char** argv, int first, std::initializer_list<FlagList> known) {
    for (const FlagList& list : known) known_.insert(list.begin(), list.end());
    for (int i = first; i < argc; ++i) {
      const char* arg = argv[i];
      if (std::strncmp(arg, "--", 2) != 0) {
        if (status_.ok()) {
          status_ = Status::InvalidArgument(std::string("unexpected argument ") + arg);
        }
        continue;
      }
      const char* eq = std::strchr(arg, '=');
      const std::string key = eq == nullptr ? std::string(arg + 2) : std::string(arg + 2, eq);
      if (known_.count(key) == 0 && status_.ok()) {
        status_ = Status::InvalidArgument("unknown flag --" + key);
      }
      values_[key] = eq == nullptr ? "true" : std::string(eq + 1);
    }
  }

  /// Ok, or the first unknown flag / stray positional argument.
  const Status& status() const { return status_; }

  std::string Get(const std::string& key, const std::string& fallback = "") const {
    const auto it = Find(key);
    return it == values_.end() ? fallback : it->second;
  }
  double GetDouble(const std::string& key, double fallback) const {
    const auto it = Find(key);
    return it == values_.end() ? fallback : std::strtod(it->second.c_str(), nullptr);
  }
  long GetLong(const std::string& key, long fallback) const {
    const auto it = Find(key);
    return it == values_.end() ? fallback : std::strtol(it->second.c_str(), nullptr, 10);
  }
  bool Has(const std::string& key) const { return Find(key) != values_.end(); }

 private:
  // Reading a flag the command did not declare is a bug in the command:
  // the parser would reject that flag on every command line.
  std::map<std::string, std::string>::const_iterator Find(const std::string& key) const {
    assert(known_.count(key) > 0 && "flag read but not declared");
    return values_.find(key);
  }

  std::set<std::string> known_;
  std::map<std::string, std::string> values_;
  Status status_ = Status::Ok();
};

/// The optimization preset named by --scheme (default star) with the
/// distance measure named by --measure (default nearest).
inline Result<NwcOptions> ParseSchemeFlags(const Args& args) {
  NwcOptions options;
  const std::string scheme = args.Get("scheme", "star");
  if (scheme == "plain") {
    options = NwcOptions::Plain();
  } else if (scheme == "srr") {
    options = NwcOptions::Srr();
  } else if (scheme == "dip") {
    options = NwcOptions::Dip();
  } else if (scheme == "dep") {
    options = NwcOptions::Dep();
  } else if (scheme == "iwp") {
    options = NwcOptions::Iwp();
  } else if (scheme == "plus") {
    options = NwcOptions::Plus();
  } else if (scheme == "star") {
    options = NwcOptions::Star();
  } else {
    return Status::InvalidArgument("unknown --scheme " + scheme);
  }
  const std::string measure = args.Get("measure", "nearest");
  if (measure == "min") {
    options.measure = DistanceMeasure::kMin;
  } else if (measure == "max") {
    options.measure = DistanceMeasure::kMax;
  } else if (measure == "avg") {
    options.measure = DistanceMeasure::kAvg;
  } else if (measure == "nearest") {
    options.measure = DistanceMeasure::kNearestWindow;
  } else {
    return Status::InvalidArgument("unknown --measure " + measure);
  }
  return options;
}

}  // namespace nwc

#endif  // NWC_TOOLS_CLI_ARGS_H_
