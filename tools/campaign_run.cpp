// campaign_run — execute a declarative experiment campaign.
//
//   campaign_run <spec.json | builtin-name> [options]
//   campaign_run --list
//
// Options:
//   --jobs N         worker threads (0 = BLACKDP_JOBS / hardware default)
//   --out DIR        output directory for the manifest and BENCH JSON
//                    (default: BLACKDP_BENCH_OUT, then ".")
//   --trials N       override the spec's repetitions per treatment
//   --resume         skip trials already recorded in the manifest
//   --dry-run        expand and print the treatment matrix, run nothing
//   --pin-sidecar    zero the wall-clock sidecar so BENCH_<name>.json is
//                    byte-reproducible end to end
//   --list           list the built-in campaign specs
//
// The positional argument is tried as a file path first, then as a builtin
// name (`campaign_run fig4` works from any directory).
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <limits>
#include <sstream>
#include <string>

#include "campaign/builtin.hpp"
#include "campaign/runner.hpp"
#include "metrics/table.hpp"
#include "number_arg.hpp"
#include "sim/thread_pool.hpp"

namespace {

void printUsage(std::ostream& out) {
  out << "usage: campaign_run <spec.json | builtin-name> "
         "[--jobs N] [--out DIR] [--trials N]\n"
         "                    [--resume] [--dry-run] [--pin-sidecar]\n"
         "       campaign_run --list\n";
}

int usage(const std::string& problem) {
  std::cerr << "campaign_run: " << problem << '\n';
  printUsage(std::cerr);
  return 2;
}

int listBuiltins() {
  std::cout << "built-in campaigns:\n";
  for (const blackdp::campaign::BuiltinSpec& spec :
       blackdp::campaign::builtinSpecs()) {
    std::cout << "  " << spec.name << " — " << spec.description << '\n';
  }
  return 0;
}

/// The spec text: the positional argument as a file when one exists there,
/// otherwise the builtin of that name.
bool loadSpecText(const std::string& arg, std::string& text,
                  std::string& origin) {
  std::ifstream in{arg};
  if (in) {
    std::ostringstream buffer;
    buffer << in.rdbuf();
    text = buffer.str();
    origin = arg;
    return true;
  }
  const blackdp::campaign::BuiltinSpec* builtin =
      blackdp::campaign::findBuiltinSpec(arg);
  if (builtin != nullptr) {
    text = std::string{builtin->json};
    origin = "builtin:" + std::string{builtin->name};
    return true;
  }
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace blackdp;
  using metrics::Table;

  campaign::CampaignOptions options;
  options.log = &std::cout;
  std::string specArg;
  std::uint32_t trialsOverride = 0;
  bool list = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> const char* {
      if (i + 1 >= argc) std::exit(usage(arg + " needs a value"));
      return argv[++i];
    };
    const auto number = [&](std::uint64_t min, std::uint64_t max) {
      return tools::numberArg(arg, value(), min, max, usage);
    };
    if (arg == "--jobs") {
      options.jobs = static_cast<unsigned>(number(0, sim::kMaxJobs));
    } else if (arg == "--out") {
      options.outDir = value();
    } else if (arg == "--trials") {
      trialsOverride = static_cast<std::uint32_t>(
          number(1, std::numeric_limits<std::uint32_t>::max()));
    } else if (arg == "--resume") {
      options.resume = true;
    } else if (arg == "--dry-run") {
      options.dryRun = true;
    } else if (arg == "--pin-sidecar") {
      options.pinSidecar = true;
    } else if (arg == "--list") {
      list = true;
    } else if (arg == "--help" || arg == "-h") {
      printUsage(std::cout);
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      return usage("unknown option " + arg);
    } else if (specArg.empty()) {
      specArg = arg;
    } else {
      return usage("more than one spec given");
    }
  }

  if (list) return listBuiltins();
  if (specArg.empty()) return usage("no spec given");

  std::string text;
  std::string origin;
  if (!loadSpecText(specArg, text, origin)) {
    std::cerr << "campaign_run: no spec file or builtin named '" << specArg
              << "' (see --list)\n";
    return 2;
  }

  std::string error;
  std::optional<campaign::CampaignSpec> spec =
      campaign::parseCampaignSpec(text, &error);
  if (!spec) {
    std::cerr << "campaign_run: " << origin << ": " << error << '\n';
    return 2;
  }
  if (trialsOverride != 0) spec->trials = trialsOverride;

  try {
    const campaign::CampaignRunner runner{options};
    const campaign::CampaignResult result = runner.run(*spec);

    if (options.dryRun) {
      std::cout << "campaign " << spec->name << " (" << origin << "): "
                << result.cells.size() << " treatments x " << spec->trials
                << " trials = " << result.trialsTotal << "\n\n";
      Table table({"#", "Config hash", "Treatment"});
      for (const campaign::TreatmentCell& cell : result.cells) {
        table.addRow({std::to_string(cell.treatment.index),
                      cell.treatment.configHash, cell.treatment.label});
      }
      table.print(std::cout);
      return 0;
    }

    Table table({"Treatment", "Trials", "Launched", "Detected", "FP",
                 "Packets", "Accuracy"});
    for (const campaign::TreatmentCell& cell : result.cells) {
      const std::string packets =
          cell.packetsMin == cell.packetsMax
              ? std::to_string(cell.packetsMin)
              : std::to_string(cell.packetsMin) + "-" +
                    std::to_string(cell.packetsMax);
      table.addRow({cell.treatment.label, std::to_string(cell.trials),
                    std::to_string(cell.attacksLaunched),
                    std::to_string(cell.detected),
                    std::to_string(cell.falsePositives), packets,
                    Table::percent(cell.detectionAccuracy())});
    }
    table.print(std::cout);
    std::cout << '\n';
    if (!result.manifestPath.empty()) {
      std::cout << "manifest: " << result.manifestPath << '\n';
    }
    if (!result.benchPath.empty()) {
      std::cout << "bench:    " << result.benchPath << '\n';
    }
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "campaign_run: " << e.what() << '\n';
    return 1;
  }
}
