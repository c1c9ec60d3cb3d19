// Strict command lines for the benches, as the tools have: every number is
// one whole decimal token in range (tools/number_arg.hpp), and an argument
// a bench does not read is a usage error. Either prints the problem and
// `usage: <name> <synopsis>` to stderr and exits 2 before any work starts.
#pragma once

#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <limits>
#include <string>
#include <utility>

#include "number_arg.hpp"
#include "sim/thread_pool.hpp"

namespace blackdp::bench {

inline constexpr std::uint64_t kMaxU32 =
    std::numeric_limits<std::uint32_t>::max();

/// Walks argv one argument at a time: a bench's loop reads the values of
/// the flags it knows and hands anything else to reject().
class Args {
 public:
  Args(int argc, char** argv, std::string synopsis)
      : argc_{argc},
        argv_{argv},
        name_{argc > 0 ? std::filesystem::path{argv[0]}.filename().string()
                       : "bench"},
        synopsis_{std::move(synopsis)} {}

  /// Steps to the next argument; false once argv is used up.
  bool next() {
    if (++index_ >= argc_) return false;
    arg_ = argv_[index_];
    return true;
  }
  [[nodiscard]] const std::string& arg() const { return arg_; }
  [[nodiscard]] bool is(const char* flag) const { return arg_ == flag; }

  /// The current argument itself as a number in [min, max], named `what`.
  [[nodiscard]] std::uint64_t positional(const std::string& what,
                                         std::uint64_t min,
                                         std::uint64_t max) const {
    return tools::numberArg(what, arg_, min, max, [this](const auto& problem) {
      return printUsage(problem);
    });
  }
  /// The value that follows the current flag.
  [[nodiscard]] std::string value() {
    if (index_ + 1 >= argc_) fail(arg_ + " needs a value");
    return argv_[++index_];
  }
  /// The value that follows the current flag, as a number in [min, max].
  [[nodiscard]] std::uint64_t number(std::uint64_t min, std::uint64_t max) {
    return tools::numberArg(arg_, value(), min, max,
                            [this](const auto& problem) {
                              return printUsage(problem);
                            });
  }

  [[noreturn]] void reject() const {
    fail("unexpected argument '" + arg_ + "'");
  }
  /// Prints `problem` and the usage line, then exits 2.
  [[noreturn]] void fail(const std::string& problem) const {
    std::exit(printUsage(problem));
  }

 private:
  /// Prints `problem` and the usage line; returns the exit status (2).
  int printUsage(const std::string& problem) const {
    std::cerr << name_ << ": " << problem << "\nusage: " << name_;
    if (!synopsis_.empty()) std::cerr << ' ' << synopsis_;
    std::cerr << '\n';
    return 2;
  }

  int argc_;
  char** argv_;
  int index_{0};
  std::string arg_;
  std::string name_;
  std::string synopsis_;
};

/// The command line of the table benches: `[TRIALS] [--jobs N]`.
struct TrialArgs {
  std::uint32_t trials{0};
  unsigned jobs{0};  ///< 0 = BLACKDP_JOBS / hardware default
};

/// Reads `[TRIALS] [--jobs N]`, or only `[--jobs N]` when `defaultTrials`
/// is 0 (a bench without a trial count). TRIALS is in 1..2^32-1 and --jobs
/// in 0..sim::kMaxJobs.
[[nodiscard]] inline TrialArgs parseTrialArgs(int argc, char** argv,
                                              std::uint32_t defaultTrials) {
  Args args{argc, argv, defaultTrials != 0 ? "[TRIALS] [--jobs N]"
                                           : "[--jobs N]"};
  TrialArgs out{defaultTrials, 0};
  bool trialsRead = false;
  while (args.next()) {
    if (args.is("--jobs")) {
      out.jobs = static_cast<unsigned>(args.number(0, sim::kMaxJobs));
    } else if (defaultTrials != 0 && !trialsRead && !args.arg().empty() &&
               args.arg()[0] != '-') {
      out.trials =
          static_cast<std::uint32_t>(args.positional("TRIALS", 1, kMaxU32));
      trialsRead = true;
    } else {
      args.reject();
    }
  }
  return out;
}

}  // namespace blackdp::bench
