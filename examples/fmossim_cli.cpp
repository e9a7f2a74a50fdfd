// fmossim_cli — command-line fault simulator driver over the unified
// Engine API.
//
//   fmossim_cli --sim <netlist.sim> --seq <sequence.txt> --faults <spec.txt>
//               [--backend serial|concurrent] [--jobs N]
//               [--policy any|definite] [--no-drop] [--csv <file>]
//               [--compare] [--quiet]
//   fmossim_cli --bench <circuit.bench> ...      (ISCAS .bench input)
//   fmossim_cli --demo                           (built-in demo run)
//   fmossim_cli fuzz --seeds N [--seed S] ...    (differential fuzzing)
//   fmossim_cli bench [--json] [--smoke] ...     (performance harness)
//   fmossim_cli serve --socket PATH ...          (fault-simulation daemon)
//   fmossim_cli loadgen (--socket PATH | --inproc) ...  (service load test)
//   fmossim_cli seu ...                          (transient-fault grading)
//   fmossim_cli [<subcommand>] --help            (flags of one subcommand)
//
// The fuzz subcommand generates seeded random switch-level workloads
// (src/gen/random_circuit.hpp) and cross-checks the serial, concurrent and
// sharded backends against each other (src/gen/diff_oracle.hpp). Any
// divergence is shrunk to a minimized reproducer and re-derivable from its
// seed alone: `fuzz --seed S --seeds 1` replays one campaign member.
//
// The bench subcommand runs the reproducible performance harness
// (src/perf/): the named scenario matrix of docs/BENCHMARKING.md with
// warmup + repetition, writing schema-versioned BENCH_<scenario>.json files
// with --json, and gating fresh results against checked-in baselines with
// --check (the CI perf-regression gate; see docs/BENCHMARKING.md).
//
// The serve subcommand turns the simulator into a long-lived daemon: a
// persistent engine pool over a shared good-machine checkpoint store, a
// bounded request queue drained by worker threads, and newline-delimited
// JSON over a Unix-domain socket (submit/status/result/cancel/stats/
// shutdown; see docs/SERVICE.md). The loadgen subcommand is the matching
// client harness: it replays a seeded zipf-skewed mixed-tenant workload,
// verifies every response against a direct Engine run bit for bit, and
// emits BENCH_serve_mixed.json with --json.
//
// Every subcommand declares its flags as one table (name, value kind,
// destination, help line); one loop parses argv against it and --help is
// generated from it, so the help cannot drift from the accepted flags.
// Exit codes: 0 success, 1 simulation failure or failed check, 2 invalid
// invocation (unknown subcommand or flag, missing or malformed flag value,
// malformed input file).
//
// Input formats are documented in src/netlist/sim_format.hpp,
// src/patterns/sequence_io.hpp, and src/faults/fault_spec.hpp.
#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "api/engine.hpp"
#include "core/estimator.hpp"
#include "faults/fault_spec.hpp"
#include "faults/transient.hpp"
#include "gen/diff_oracle.hpp"
#include "gen/random_circuit.hpp"
#include "gen/transient_gen.hpp"
#include "netlist/bench_format.hpp"
#include "netlist/gate_expand.hpp"
#include "netlist/sim_format.hpp"
#include "patterns/sequence_io.hpp"
#include "perf/bench_check.hpp"
#include "perf/bench_json.hpp"
#include "perf/bench_runner.hpp"
#include "seu/seu_campaign.hpp"
#include "serve/loadgen.hpp"
#include "serve/server.hpp"
#include "serve/transport.hpp"
#include "stats/recorder.hpp"
#include "util/strings.hpp"

using namespace fmossim;

namespace {

// ------------------------------------------------------------ flag tables ---

constexpr std::uint64_t kMaxU32 = std::numeric_limits<std::uint32_t>::max();
constexpr std::uint64_t kMaxThreads = 1u << 16;  // jobs, pool, workers
constexpr std::uint64_t kMaxQueue = 1u << 20;    // queue, store entries

/// One row of a subcommand's flag table. `value` is the placeholder shown in
/// --help ("" for a switch, which takes no value). `set` is the value kind's
/// strict parse-and-store: it returns "" on success, else what the value
/// should have been, reported as "invalid value 'V' for --flag (want ...)".
struct Flag {
  std::string name;
  std::string value;
  std::string help;
  std::function<std::string(const char*)> set;
};

/// A subcommand's usage: synopsis (after "usage: <command> "), flag table
/// and a prose footer.
struct FlagTable {
  std::string synopsis;
  std::vector<Flag> flags;
  std::string footer;
};

/// The invocation as a subcommand sees it.
struct Cli {
  const char* argv0;
  std::string command;            ///< argv0 plus the subcommand name, if any
  std::vector<const char*> args;  ///< arguments after the subcommand name
};

// Destinations may be optional (unset = "not given"); values are stored
// into the underlying type.
template <class D> struct Underlying { using type = D; };
template <class D> struct Underlying<std::optional<D>> { using type = D; };

template <class D> void store(D& dest, std::uint64_t v) {
  dest = static_cast<typename Underlying<D>::type>(v);
}

/// Switch: no value; sets `dest` to true.
Flag switchFlag(const char* name, bool& dest, const char* help) {
  return {name, "", help, [&dest](const char*) {
            dest = true;
            return std::string();
          }};
}

/// String: stored as given; a vector destination makes the flag repeatable.
template <class D>
Flag stringFlag(const char* name, D& dest, const char* value,
                const char* help) {
  return {name, value, help, [&dest](const char* text) {
            if constexpr (std::is_same_v<D, std::vector<std::string>>) {
              dest.emplace_back(text);
            } else {
              dest = text;
            }
            return std::string();
          }};
}

/// Non-negative integer in [lo, max]; the count kind is lo = 1.
template <class D>
Flag integerFlag(const char* name, D& dest, std::uint64_t lo, std::uint64_t max,
                 const char* value, const char* help) {
  return {name, value, help, [&dest, lo, max](const char* text) {
            const ParsedNumber n = parseDecimal(text, max);
            if (n.status != NumberStatus::Ok || n.value < lo) {
              return format("an integer in [%llu, %llu]",
                            static_cast<unsigned long long>(lo),
                            static_cast<unsigned long long>(max));
            }
            store(dest, n.value);
            return std::string();
          }};
}

/// Count: an integer in [1, max] — zero, garbage and overflow are errors,
/// never a silently clamped or truncated count.
template <class D>
Flag countFlag(const char* name, D& dest, std::uint64_t max, const char* help) {
  FMOSSIM_ASSERT(max <= std::numeric_limits<typename Underlying<D>::type>::max(),
                 "count cap exceeds its destination type");
  return integerFlag(name, dest, 1, max, "N", help);
}

/// u64: any non-negative integer that fits the destination (seeds, and
/// counts where 0 means "off").
template <class D>
Flag u64Flag(const char* name, D& dest, const char* value, const char* help) {
  return integerFlag(
      name, dest, 0,
      std::numeric_limits<typename Underlying<D>::type>::max(), value, help);
}

/// Byte size: plain bytes or a k/m/g suffix (binary units), range-checked
/// so a suffix shift can never wrap into a silently truncated budget.
template <class D>
Flag byteSizeFlag(const char* name, D& dest, const char* help) {
  return {name, "SIZE", help, [&dest](const char* text) {
            std::string_view digits = text;
            unsigned shift = 0;
            if (!digits.empty()) {
              switch (std::tolower(static_cast<unsigned char>(digits.back()))) {
                case 'k': shift = 10; break;
                case 'm': shift = 20; break;
                case 'g': shift = 30; break;
                default: break;
              }
            }
            if (shift != 0) digits.remove_suffix(1);
            const ParsedNumber n = parseDecimal(
                digits, std::numeric_limits<std::size_t>::max() >> shift);
            if (n.status != NumberStatus::Ok) {
              return std::string("a byte count with an optional k/m/g suffix");
            }
            store(dest, n.value << shift);
            return std::string();
          }};
}

/// Finite non-negative double: NaN and infinity are refused, since either
/// would silently disable the comparison the value feeds.
Flag doubleFlag(const char* name, double& dest, const char* value,
                const char* help) {
  return {name, value, help, [&dest](const char* text) {
            char* end = nullptr;
            const double v = std::strtod(text, &end);
            if (end == text || *end != '\0' ||
                std::isspace(static_cast<unsigned char>(*text)) ||
                !std::isfinite(v) || v < 0.0) {
              return std::string("a finite number >= 0");
            }
            dest = v;
            return std::string();
          }};
}

/// Choice: one of the names `parse` accepts (listed as `names`, a|b).
template <class D, class Parse>
Flag choiceFlag(const char* name, D& dest, Parse parse, const char* names,
                const char* help) {
  return {name, names, help, [&dest, parse, names](const char* text) {
            const auto v = parse(text);
            if (!v) return std::string("one of ") + names;
            dest = *v;
            return std::string();
          }};
}

std::optional<Backend> parseBackend(const std::string& text) {
  if (text == "concurrent") return Backend::Concurrent;
  if (text == "serial") return Backend::Serial;
  return std::nullopt;
}

std::vector<Flag> concat(std::vector<Flag> a, std::vector<Flag> b) {
  for (Flag& f : b) a.push_back(std::move(f));
  return a;
}

void printUsage(std::FILE* to, const Cli& cli, const FlagTable& table) {
  std::fprintf(to, "usage: %s %s\n", cli.command.c_str(),
               table.synopsis.c_str());
  const auto line = [&](const std::string& lhs, const std::string& help) {
    // A flag too wide for the column gets its help on the next line.
    if (lhs.size() > 24) std::fprintf(to, "  %s\n%27s", lhs.c_str(), "");
    else std::fprintf(to, "  %-24s ", lhs.c_str());
    std::fprintf(to, "%s\n", help.c_str());
  };
  for (const Flag& f : table.flags) {
    line(f.value.empty() ? f.name : f.name + " " + f.value, f.help);
  }
  line("--help", "print this help and exit");
  std::fprintf(to, "%s", table.footer.c_str());
}

/// The one argument loop. Returns the exit code when the invocation ends
/// here (0 after --help, 2 on any usage error), nullopt to run the command.
std::optional<int> parseFlags(const Cli& cli, const FlagTable& table) {
  for (std::size_t i = 0; i < cli.args.size(); ++i) {
    const std::string_view arg = cli.args[i];
    if (arg == "--help") {
      printUsage(stdout, cli, table);
      return 0;
    }
    const auto flag =
        std::find_if(table.flags.begin(), table.flags.end(),
                     [&](const Flag& f) { return f.name == arg; });
    if (flag == table.flags.end()) {
      std::fprintf(stderr, "unknown flag '%s'\n", cli.args[i]);
      printUsage(stderr, cli, table);
      return 2;
    }
    const char* value = "";
    if (!flag->value.empty()) {
      if (i + 1 == cli.args.size()) {
        std::fprintf(stderr, "missing value for %s\n", flag->name.c_str());
        return 2;
      }
      value = cli.args[++i];
    }
    const std::string want = flag->set(value);
    if (!want.empty()) {
      std::fprintf(stderr, "invalid value '%s' for %s (want %s)\n", value,
                   flag->name.c_str(), want.c_str());
      return 2;
    }
  }
  return std::nullopt;
}

/// A required flag was left out: exit 2 with the reason.
int usageError(const Cli& cli, const char* message) {
  std::fprintf(stderr, "%s (see %s --help)\n", message, cli.command.c_str());
  return 2;
}

// ------------------------------------------------------------------ inputs ---

/// A malformed netlist, sequence, fault list or campaign is an invalid
/// invocation (exit 2, like a bad flag value), not a simulation failure.
struct InputError : Error {
  using Error::Error;
};

/// Runs `load`, reporting a library Error from it as an InputError.
template <class Load> auto readInput(Load&& load) -> decltype(load()) {
  try {
    return load();
  } catch (const Error& e) {
    throw InputError(e.what());
  }
}

const char* kDemoNetlist = R"(| demo: nMOS inverter chain with a pass gate
input in clk
d n1 Vdd n1
n in n1 Gnd
n clk n1 n2
d out Vdd out
n n2 out Gnd
)";

const char* kDemoSequence = R"(outputs out
pattern init
  set Vdd=1 Gnd=0 in=0 clk=1
pattern p1
  set in=1
pattern p2
  set clk=0
  set in=0
pattern p3
  set clk=1
)";

const char* kDemoFaults = R"(all-node-stuck
all-transistor-stuck
)";

struct Circuit {
  Network net;
  TestSequence seq;
};

/// --sim | --bench | --demo plus --seq: the circuit and test sequence that
/// fault grading and seu both start from.
struct CircuitFlags {
  std::optional<std::string> sim, bench, seq;
  bool demo = false;

  std::vector<Flag> flags() {
    return {
        stringFlag("--sim", sim, "FILE",
                   "switch-level netlist (src/netlist/sim_format.hpp)"),
        stringFlag("--bench", bench, "FILE",
                   "ISCAS .bench gate netlist, expanded to CMOS"),
        switchFlag("--demo", demo,
                   "built-in demo circuit and inputs (ignores the files)"),
        stringFlag("--seq", seq, "FILE",
                   "test sequence (src/patterns/sequence_io.hpp)"),
    };
  }

  /// Why the selection is incomplete, or nullptr.
  const char* missing() const {
    if (demo) return nullptr;
    if (!sim && !bench) {
      return "one of --sim FILE, --bench FILE or --demo is required";
    }
    if (!seq) return "--seq FILE is required";
    return nullptr;
  }

  /// Loads the selected circuit and sequence (throws InputError).
  Circuit load() const {
    return readInput([&] {
      Circuit c;
      c.net = demo  ? parseSimNetlist(kDemoNetlist)
              : sim ? loadSimFile(*sim)
                    : expandToCmos(loadBenchFile(*bench)).net;
      c.seq = demo ? parseSequence(c.net, kDemoSequence)
                   : loadSequenceFile(c.net, *seq);
      return c;
    });
  }
};

/// The daemon sizing knobs shared by serve and loadgen's --inproc daemon.
std::vector<Flag> daemonFlags(serve::ServerOptions& opts) {
  return {
      countFlag("--pool", opts.poolEngines, kMaxThreads,
                "persistent engine slots (default 4)"),
      countFlag("--workers", opts.workers, kMaxThreads,
                "job worker threads (default 2, clamped to --pool)"),
      countFlag("--queue", opts.queueBound, kMaxQueue,
                "queued-job bound before backpressure (default 64)"),
      byteSizeFlag("--checkpoint-budget", opts.checkpointBudgetBytes,
                   "shared checkpoint-store memory budget (0 = unbounded)"),
  };
}

// ---------------------------------------------------------- fault grading ---

int runGrading(const Cli& cli) {
  CircuitFlags in;
  std::optional<std::string> faultFile, csvFile;
  bool noDrop = false, compare = false, quiet = false;
  EngineOptions opts;  // backend/policy/jobs defaults are the library's

  const FlagTable table{
      "(--sim FILE | --bench FILE | --demo)\n"
      "       --seq FILE --faults FILE [flags]",
      concat(in.flags(), {
          stringFlag("--faults", faultFile, "FILE",
                     "fault list (src/faults/fault_spec.hpp)"),
          choiceFlag("--backend", opts.backend, parseBackend,
                     "serial|concurrent",
                     "simulation backend (default concurrent)"),
          countFlag("--jobs", opts.jobs, kMaxThreads,
                    "parallel workers (concurrent backend only; default 1)"),
          countFlag("--batch-faults", opts.batchFaults, kMaxU32,
                    "sharded fault-batch size (default: auto)"),
          byteSizeFlag("--checkpoint-budget", opts.checkpointBudgetBytes,
                       "good-machine trace budget (default 0 = unbounded)"),
          choiceFlag("--schedule", opts.schedule, sched::parseSchedulePolicy,
                     "contiguous|history",
                     "sharded batch layout (default contiguous)"),
          stringFlag("--history-file", opts.historyFile, "PATH",
                     "detection-history sidecar for --schedule history"),
          choiceFlag("--policy", opts.policy, parseDetectionPolicy,
                     "any|definite", "detection criterion (default definite)"),
          switchFlag("--no-drop", noDrop, "keep simulating detected faults"),
          stringFlag("--csv", csvFile, "FILE", "write the per-pattern series"),
          switchFlag("--compare", compare,
                     "cross-check the other backend (exit 1 on mismatch)"),
          switchFlag("--quiet", quiet, "print only the summary lines"),
      }),
      "SIZE is bytes or a k/m/g suffix; with --jobs > 1 the trace spills to "
      "disk past\n--checkpoint-budget. --policy definite is the default "
      "because a tester cannot\ntell an X from a driven value; --policy any is "
      "the paper's literal \"any\ndifference\". --schedule history co-batches "
      "hard-to-detect faults from the\n--history-file record, refreshed after "
      "every sharded run. Schedules never\nchange results.\n"
      "\n"
      "subcommands (each lists its flags with --help):\n"
      "  fuzz    seeded random workloads cross-checked serial vs concurrent "
      "vs sharded;\n"
      "          divergences are shrunk to minimized seed reproducers\n"
      "  bench   reproducible benchmark runs (warmup + reps + median/stddev), "
      "writing\n"
      "          schema-versioned BENCH_<scenario>.json files with --json\n"
      "  serve   engine-pool daemon speaking newline-delimited JSON over a "
      "Unix\n"
      "          socket (submit/status/result/cancel/stats/shutdown; "
      "docs/SERVICE.md)\n"
      "  loadgen zipf-skewed mixed-tenant replay against a daemon, verifying "
      "every\n"
      "          response against a direct engine run (--json: "
      "BENCH_serve_mixed.json)\n"
      "  seu     transient-fault grading: bit-flips at chosen instants, "
      "classified\n"
      "          detected/silent/latent by replaying checkpointed good-machine "
      "tails\n"
      "Exit codes: 0 ok, 1 simulation failure or mismatch, 2 bad invocation "
      "or input.\n"};
  if (const auto exit = parseFlags(cli, table)) return *exit;
  if (const char* why = in.missing()) return usageError(cli, why);
  if (!in.demo && !faultFile) {
    return usageError(cli, "--faults FILE is required");
  }

  const Circuit circuit = in.load();
  const Network& net = circuit.net;
  const TestSequence& seq = circuit.seq;
  const FaultList faults = readInput([&] {
    return in.demo ? parseFaultSpec(net, kDemoFaults)
                   : loadFaultSpecFile(net, *faultFile);
  });
  if (!quiet) {
    std::printf("network: %u transistors (%u fault devices), %u nodes "
                "(%u inputs)\n",
                net.numTransistors(), net.numFaultDevices(), net.numNodes(),
                net.numInputs());
    std::printf("sequence: %u patterns, %zu output(s); faults: %u\n",
                seq.size(), seq.outputs().size(), faults.size());
  }

  opts.dropDetected = !noDrop;
  Engine engine(net, faults, opts);
  const bool sharded = std::string(engine.backendName()) == "sharded";
  if (!quiet) {
    std::printf("backend: %s", engine.backendName());
    // Report the effective shard count (clamped to the fault count).
    if (sharded) std::printf(" (%u jobs)", std::min(opts.jobs, faults.size()));
    std::printf("\n");
  }
  const FaultSimResult res = engine.run(seq);

  if (!quiet) {
    std::printf("\n%-8s %-10s %-12s %-8s\n", "pattern", "detected",
                "cumulative", "alive");
    for (const SeriesRow& row : downsample(res, 20)) {
      std::printf("%-8u %-10s %-12u %-8u\n", row.pattern, "",
                  row.cumulativeDetected, row.alive);
    }
  }
  std::printf("\ncoverage: %u / %u (%.2f%%), potential (X) detections: %llu\n",
              res.numDetected, res.numFaults, 100.0 * res.coverage(),
              (unsigned long long)res.potentialDetections);
  // Sharded runs overlap batch work on the wall clock; report the two
  // timing fields separately so neither masquerades as the other.
  if (sharded) {
    std::printf("time: %.4f s wall (%.4f s engine CPU), work: %llu node "
                "evaluations\n",
                res.totalSeconds, res.totalCpuSeconds,
                (unsigned long long)res.totalNodeEvals);
  } else {
    std::printf("time: %.4f s, work: %llu node evaluations\n",
                res.totalSeconds, (unsigned long long)res.totalNodeEvals);
  }

  if (!quiet) {
    std::printf("\nundetected faults:\n");
    unsigned shown = 0;
    for (std::uint32_t i = 0; i < faults.size(); ++i) {
      if (res.detectedAtPattern[i] < 0) {
        std::printf("  %s\n", faults[i].name.c_str());
        if (++shown >= 25) {
          std::printf("  ... (%u total)\n", res.numFaults - res.numDetected);
          break;
        }
      }
    }
    if (shown == 0) std::printf("  (none)\n");
  }

  if (csvFile) {
    writeCsv(res, *csvFile);
    std::printf("per-pattern series written to %s\n", csvFile->c_str());
  }

  if (compare) {
    // Cross-check against the other backend through the same interface.
    EngineOptions other = opts;
    other.backend = opts.backend == Backend::Serial ? Backend::Concurrent
                                                    : Backend::Serial;
    other.jobs = 1;
    Engine reference(net, faults, other);
    const FaultSimResult rres = reference.run(seq);
    std::printf("\n%s reference: %u detected, %.4f s\n",
                reference.backendName(), rres.numDetected, rres.totalSeconds);
    const GoodRunResult good = engine.runGood(seq);
    const SerialEstimate est =
        estimateSerial(res.detectedAtPattern, seq.size(),
                       good.secondsPerPattern(), good.nodeEvalsPerPattern());
    std::printf("paper-method serial estimate: %.4f s\n", est.seconds);
    bool match = rres.numDetected == res.numDetected;
    for (std::uint32_t i = 0; match && i < faults.size(); ++i) {
      match = rres.detectedAtPattern[i] == res.detectedAtPattern[i];
    }
    std::printf("backend detection agreement: %s\n",
                match ? "EXACT" : "MISMATCH");
    if (!match) return 1;
  }
  return 0;
}

// ------------------------------------------------------------------- fuzz ---

int runFuzz(const Cli& cli) {
  std::uint64_t firstSeed = 1;
  std::uint32_t numSeeds = 25;
  std::optional<std::uint32_t> nodes, inputs, faults, patterns, chaos;
  std::optional<DetectionPolicy> policy;
  bool noDrop = false, quiet = false;

  const FlagTable table{
      "[flags]",
      {
          countFlag("--seeds", numSeeds, kMaxU32, "campaign size (default 25)"),
          u64Flag("--seed", firstSeed, "S", "first seed (default 1)"),
          countFlag("--nodes", nodes, kMaxU32,
                    "pin the storage-node count (default: per seed)"),
          countFlag("--inputs", inputs, kMaxU32,
                    "pin the input count (default: per seed)"),
          countFlag("--faults", faults, kMaxU32,
                    "pin the fault count (default: per seed)"),
          countFlag("--patterns", patterns, kMaxU32,
                    "pin the pattern count (default: per seed)"),
          choiceFlag("--policy", policy, parseDetectionPolicy, "any|definite",
                     "pin the detection policy (default: swept per seed)"),
          switchFlag("--no-drop", noDrop,
                     "never drop detected faults (default: swept per seed)"),
          countFlag("--chaos", chaos, kMaxU32,
                    "drop every Nth concurrent trigger (oracle self-test)"),
          switchFlag("--quiet", quiet, "print only divergences and the summary"),
      },
      "Each divergence prints a minimized reproducer and the command that "
      "replays it\nfrom its seed alone. Exit 1 on any divergence. The summary "
      "also counts the\nseeds whose serial reference detected a fault with "
      "drop on (only those\nexercise fault dropping).\n"};
  if (const auto exit = parseFlags(cli, table)) return *exit;

  std::uint32_t failures = 0;
  std::uint64_t totalRuns = 0;
  std::uint32_t droppedSeeds = 0;  // seeds that detected with drop on
  // Iterate by offset so a huge --seed cannot wrap the end bound into a
  // zero-iteration campaign that falsely exits 0.
  for (std::uint32_t k = 0; k < numSeeds; ++k) {
    const std::uint64_t seed = firstSeed + k;
    GenOptions gen = GenOptions::randomized(seed);
    if (nodes) gen.numNodes = *nodes;
    if (inputs) gen.numInputs = *inputs;
    if (faults) gen.numFaults = *faults;
    if (patterns) gen.numPatterns = *patterns;

    OracleOptions oracle;
    // Sweep detection policy and drop mode across the campaign unless the
    // caller pinned them; the variation stream is disjoint from the
    // generator's so pinning one knob never changes the circuits.
    Rng vary(seed ^ 0xd1b54a32d192ed03ULL);
    oracle.policy = policy.value_or(vary.chance(0.5)
                                        ? DetectionPolicy::DefiniteOnly
                                        : DetectionPolicy::AnyDifference);
    oracle.dropDetected = noDrop ? false : vary.chance(0.75);
    if (chaos) oracle.debugLoseTriggerEvery = *chaos;

    const GeneratedWorkload w = generateWorkload(gen);
    DiffOracle diff(oracle);
    const OracleReport rep = diff.check(w);
    totalRuns += rep.checkRuns;
    if (rep.dropDetected && rep.referenceDetected > 0) ++droppedSeeds;
    if (!rep.ok) {
      ++failures;
      // The reproduce command must carry every knob that shaped this run:
      // pinned generator parameters, the policy/drop pair actually used,
      // and the chaos injector if active.
      std::string repro =
          format("%s fuzz --seed %llu --seeds 1", cli.argv0,
                 static_cast<unsigned long long>(seed));
      if (nodes) repro += format(" --nodes %u", *nodes);
      if (inputs) repro += format(" --inputs %u", *inputs);
      if (faults) repro += format(" --faults %u", *faults);
      if (patterns) repro += format(" --patterns %u", *patterns);
      repro += format(" --policy %s", detectionPolicyName(oracle.policy));
      if (!oracle.dropDetected) repro += " --no-drop";
      if (chaos) repro += format(" --chaos %u", *chaos);
      std::printf("%s\n%s  reproduce: %s\n", describeWorkload(w).c_str(),
                  rep.summary().c_str(), repro.c_str());
    } else if (!quiet && (k + 1) % 10 == 0) {
      std::printf("... %u/%u seeds done, %u divergence(s)\n", k + 1, numSeeds,
                  failures);
    }
  }
  std::printf(
      "fuzz: %u seed(s), %u divergence(s), %llu comparison run(s), %u reached "
      "detection with drop on\n",
      numSeeds, failures, static_cast<unsigned long long>(totalRuns),
      droppedSeeds);
  return failures == 0 ? 0 : 1;
}

// ------------------------------------------------------------------ bench ---

int runBench(const Cli& cli) {
  perf::BenchConfig config;
  perf::CheckOptions checkOpts;
  std::string outDir = ".";
  bool json = false, list = false, quiet = false, check = false;

  const FlagTable table{
      "[flags]",
      {
          switchFlag("--json", json, "write BENCH_<scenario>.json files"),
          stringFlag("--out", outDir, "DIR", "output directory (default .)"),
          stringFlag("--scenario", config.only, "NAME",
                     "run one scenario (repeatable; default: all)"),
          countFlag("--reps", config.reps, kMaxU32,
                    "measured repetitions (default 5)"),
          u64Flag("--warmup", config.warmup, "N",
                  "unmeasured warmup runs (default 1)"),
          switchFlag("--smoke", config.smoke,
                     "1 rep, no warmup (CI harness check)"),
          byteSizeFlag("--checkpoint-budget", config.checkpointBudget,
                       "override scenario trace budgets (0 = unbounded)"),
          switchFlag("--check", check,
                     "gate results against baseline BENCH_*.json files"),
          stringFlag("--baseline", checkOpts.baselineDir, "DIR",
                     "baseline directory for --check (default .)"),
          doubleFlag("--tolerance", checkOpts.tolerancePct, "P",
                     "wall-clock regression tolerance, percent (default 15)"),
          switchFlag("--list", list, "list scenarios and exit"),
          switchFlag("--quiet", quiet, "suppress the per-row table"),
      },
      "Rows with equal policy/drop settings must produce equal result\n"
      "checksums across backends; a mismatch fails the run (exit 1). --check "
      "fails\n(exit 1) on any checksum/nodeEvals drift or a wall-clock "
      "regression beyond\n--tolerance, which must be finite and >= 0 (raise "
      "it on noisy runners; the\nexact checks stay strict). A --checkpoint-"
      "budget below a trace's size forces\nthe spill/window path.\n"};
  if (const auto exit = parseFlags(cli, table)) return *exit;
  // A mistyped scenario name is a usage error (exit 2), and the message
  // must carry the valid names so the fix is one copy-paste away.
  for (const std::string& name : config.only) {
    if (!perf::isScenario(name)) {
      std::fprintf(stderr, "error: unknown scenario '%s'\nvalid scenarios:",
                   name.c_str());
      for (const std::string& s : perf::scenarioNames()) {
        std::fprintf(stderr, " %s", s.c_str());
      }
      std::fprintf(stderr, "\n");
      return 2;
    }
  }

  perf::BenchRunner runner(config);
  if (list) {
    for (const std::string& name : runner.selectedScenarios()) {
      const perf::Workload w = perf::buildScenarioWorkload(name);
      std::printf("%-14s %s\n", name.c_str(), w.description.c_str());
    }
    return 0;
  }

  if (!quiet) {
    std::printf("%-14s %-11s %-8s %-5s %-5s %12s %10s  %s\n", "scenario",
                "backend", "policy", "drop", "reps", "median(ms)",
                "stddev(ms)", "checksum");
  }
  const auto onRow = [&](const perf::ScenarioResult& sr,
                         const perf::BenchRow& row) {
    if (quiet) return;
    std::printf("%-14s %-11s %-8s %-5s %-5u %12.3f %10.3f  0x%016llx\n",
                sr.scenario.c_str(), row.backend.c_str(), row.policy.c_str(),
                row.dropDetected ? "yes" : "no", row.reps, row.medianMs,
                row.stddevMs, static_cast<unsigned long long>(row.checksum));
  };
  const std::vector<perf::ScenarioResult> results = runner.runAll(onRow);

  // Cross-backend bit-identity: rows that differ only in backend/jobs must
  // produce the same result checksum (the harness-level restatement of the
  // differential oracle's guarantee).
  bool identical = true;
  for (const perf::ScenarioResult& sr : results) {
    for (std::size_t a = 0; a < sr.rows.size(); ++a) {
      for (std::size_t b = a + 1; b < sr.rows.size(); ++b) {
        const perf::BenchRow& ra = sr.rows[a];
        const perf::BenchRow& rb = sr.rows[b];
        if (ra.policy == rb.policy && ra.dropDetected == rb.dropDetected &&
            ra.checksum != rb.checksum) {
          std::fprintf(stderr,
                       "checksum mismatch in %s: %s=0x%016llx vs %s=0x%016llx\n",
                       sr.scenario.c_str(), ra.backend.c_str(),
                       static_cast<unsigned long long>(ra.checksum),
                       rb.backend.c_str(),
                       static_cast<unsigned long long>(rb.checksum));
          identical = false;
        }
      }
    }
  }

  if (json) {
    for (const perf::ScenarioResult& sr : results) {
      const std::string path = perf::writeBenchFile(sr, outDir);
      if (!quiet) std::printf("wrote %s\n", path.c_str());
    }
  }
  if (!identical) {
    std::fprintf(stderr, "bench: cross-backend results NOT bit-identical\n");
    return 1;
  }
  if (check) {
    // An unfiltered run covers the whole registry, so every baseline file
    // must correspond to a live scenario (stale files fail the gate).
    checkOpts.expectComplete = config.only.empty();
    const perf::CheckReport report =
        perf::checkAgainstBaselines(results, checkOpts);
    for (const perf::CheckIssue& issue : report.issues) {
      const std::string where =
          issue.row.empty() ? issue.scenario
                            : issue.scenario + " [" + issue.row + "]";
      std::fprintf(stderr, "bench --check: %s: %s\n", where.c_str(),
                   issue.detail.c_str());
    }
    if (!report.ok()) {
      std::fprintf(stderr,
                   "bench --check: FAILED against baselines in '%s' "
                   "(%zu issue(s), %u row(s) checked, tolerance %.0f%%)\n",
                   checkOpts.baselineDir.c_str(), report.issues.size(),
                   report.rowsChecked, checkOpts.tolerancePct);
      return 1;
    }
    std::printf("bench --check: OK — %u row(s) within %.0f%% of baselines "
                "in '%s', checksums and work counters exact\n",
                report.rowsChecked, checkOpts.tolerancePct,
                checkOpts.baselineDir.c_str());
  }
  return 0;
}

// ------------------------------------------------------------------ serve ---

int runServe(const Cli& cli) {
  serve::ServerOptions opts;
  std::string socketPath;
  bool quiet = false;

  const FlagTable table{
      "--socket PATH [flags]",
      concat(concat({stringFlag("--socket", socketPath, "PATH",
                                "Unix-domain socket to listen on (required)")},
                    daemonFlags(opts)),
             {
                 countFlag("--store-entries", opts.storeEntries, kMaxQueue,
                           "cached good-machine recordings, LRU (default 64)"),
                 switchFlag("--quiet", quiet,
                            "no start-up or shutdown summary"),
             }),
      "Runs until a client sends {\"verb\":\"shutdown\"}. Protocol: one JSON\n"
      "request per line, one JSON response per line (docs/SERVICE.md).\n"};
  if (const auto exit = parseFlags(cli, table)) return *exit;
  if (socketPath.empty()) {
    return usageError(cli, "serve: --socket PATH is required");
  }

  serve::Server server(opts);
  server.start();
  serve::SocketServer socket(server, socketPath);
  if (!quiet) {
    std::printf("serving on %s (pool %u, workers %u, queue %zu, "
                "checkpoint budget %zu bytes)\n",
                socketPath.c_str(), opts.poolEngines, opts.workers,
                opts.queueBound, opts.checkpointBudgetBytes);
    std::fflush(stdout);
  }
  socket.waitShutdown();  // a client's shutdown verb ends the accept loop
  server.stop();          // wakes blocked result waiters, joins workers
  socket.stop();          // closes remaining connections, joins their threads
  if (!quiet) {
    const serve::ServerStats stats = server.stats();
    std::printf("shutdown after %.1f s: %llu completed, %llu failed, %llu "
                "cancelled; store hits %llu, recordings %llu\n",
                stats.uptimeSeconds,
                static_cast<unsigned long long>(stats.completed),
                static_cast<unsigned long long>(stats.failed),
                static_cast<unsigned long long>(stats.cancelled),
                static_cast<unsigned long long>(stats.storeHits),
                static_cast<unsigned long long>(stats.storeRecordings));
  }
  return 0;
}

// ---------------------------------------------------------------- loadgen ---

int runLoadgen(const Cli& cli) {
  serve::LoadGenOptions opts;
  bool noVerify = false;

  const FlagTable table{
      "(--socket PATH | --inproc) [flags]",
      concat(
          {
              stringFlag("--socket", opts.socketPath, "PATH",
                         "daemon socket to replay against"),
              switchFlag("--inproc", opts.inproc,
                         "start an in-process daemon on a private socket"),
              countFlag("--seeds", opts.circuits, kMaxU32,
                        "distinct circuits M (default 5)"),
              countFlag("--sequences", opts.sequencesPerCircuit, kMaxU32,
                        "test sequences K per circuit (default 2)"),
              countFlag("--requests", opts.requests, kMaxU32,
                        "requests N to replay (default 50)"),
              u64Flag("--seed", opts.baseSeed, "S",
                      "base workload seed (default 1)"),
              doubleFlag("--zipf", opts.zipfExponent, "E",
                         "repeat-skew exponent (default 1.1; 0 = uniform)"),
              countFlag("--concurrency", opts.concurrency, kMaxThreads,
                        "client connections (default 4)"),
              countFlag("--jobs", opts.jobs, kMaxThreads,
                        "per-request parallelism (default 2)"),
              switchFlag("--no-verify", noVerify,
                         "skip the direct-engine checksum oracle"),
              u64Flag("--expect-store-hits", opts.expectStoreHits, "N",
                      "fail unless the daemon reports >= N store hits"),
              switchFlag("--json", opts.emitJson,
                         "write BENCH_serve_mixed.json"),
              stringFlag("--out", opts.outDir, "DIR",
                         "output directory for --json (default .)"),
              switchFlag("--shutdown", opts.shutdownAfter,
                         "send shutdown to the daemon when done"),
          },
          concat(daemonFlags(opts.inprocServer),
                 {switchFlag("--quiet", opts.quiet, "no summary output")})),
      "--pool, --workers, --queue and --checkpoint-budget size the --inproc "
      "daemon.\nReplays M*K distinct workloads over N zipf-skewed requests "
      "and verifies\nevery response checksum against a direct Engine run "
      "(exit 1 on any\nmismatch).\n"};
  if (const auto exit = parseFlags(cli, table)) return *exit;
  if (opts.socketPath.empty() && !opts.inproc) {
    return usageError(cli, "loadgen: --socket PATH or --inproc is required");
  }
  opts.verify = !noVerify;

  const serve::LoadGenReport report = serve::runLoadGen(opts);
  if (!opts.quiet) {
    std::printf("loadgen: %u request(s) ok, %u failed over %u distinct "
                "workload(s)\n",
                report.requests, report.failures, report.distinctWorkloads);
    std::printf("         %.1f req/s; latency p50/p95/p99 = "
                "%.2f/%.2f/%.2f ms\n",
                report.requestsPerSec, report.p50Ms, report.p95Ms,
                report.p99Ms);
    std::printf("         engine reuses %llu; store hits %llu, recordings "
                "%llu; checksums %s\n",
                static_cast<unsigned long long>(report.engineReuses),
                static_cast<unsigned long long>(report.storeHits),
                static_cast<unsigned long long>(report.storeRecordings),
                opts.verify ? "verified bit-identical" : "not verified");
    if (!report.benchPath.empty()) {
      std::printf("wrote %s\n", report.benchPath.c_str());
    }
  }
  return 0;
}

// -------------------------------------------------------------------- seu ---

int runSeu(const Cli& cli) {
  CircuitFlags in;
  std::optional<std::string> injectFile;
  std::optional<std::uint32_t> genCount;
  std::uint64_t seed = 1;
  std::uint32_t instants = 0;
  bool naive = false, verify = false, quiet = false;
  seu::CampaignOptions opts;

  const FlagTable table{
      "(--sim FILE | --bench FILE | --demo) --seq FILE\n"
      "       (--inject FILE | --gen N) [flags]",
      concat(in.flags(), {
          stringFlag("--inject", injectFile, "FILE",
                     "campaign spec: flip <node> @ <pattern> [pulse <d>]"),
          countFlag("--gen", genCount, kMaxU32,
                    "generate N seeded injections instead"),
          u64Flag("--seed", seed, "S", "generation seed (default 1)"),
          u64Flag("--instants", instants, "K",
                  "cluster --gen onto <= K instants (default 0 = off)"),
          countFlag("--jobs", opts.jobs, kMaxThreads,
                    "worker threads over injection groups (default 1)"),
          choiceFlag("--policy", opts.policy, parseDetectionPolicy,
                     "any|definite", "detection criterion (default definite)"),
          switchFlag("--naive", naive,
                     "from-scratch baseline, no checkpoint replay"),
          switchFlag("--verify", verify,
                     "run both modes; exit 1 unless bit-identical"),
          byteSizeFlag("--checkpoint-budget", opts.checkpointBudgetBytes,
                       "good-machine trace budget (0 = unbounded)"),
          switchFlag("--quiet", quiet, "print only the summary lines"),
      }),
      "Grades each transient as detected (output mismatch), latent (state\n"
      "still differs at end of sequence) or silent (reconverged). The good\n"
      "machine is recorded once; injections grouped by instant replay only\n"
      "the tail after their strike, and clustering (--instants) shares those\n"
      "tails. Deterministic for fixed inputs across --jobs.\n"};
  if (const auto exit = parseFlags(cli, table)) return *exit;
  if (const char* why = in.missing()) return usageError(cli, why);
  if (injectFile.has_value() == genCount.has_value()) {
    return usageError(cli,
                      "seu: exactly one of --inject FILE or --gen N is required");
  }

  const Circuit circuit = in.load();
  const Network& net = circuit.net;
  const TestSequence& seq = circuit.seq;
  const TransientList campaign = readInput([&] {
    if (injectFile) return loadTransientSpecFile(net, *injectFile);
    SeuGenOptions g;
    g.seed = seed;
    g.numInjections = *genCount;
    g.numPatterns = seq.size();
    g.maxInstants = instants;
    return generateSeuCampaign(net, g);
  });

  if (!quiet) {
    std::printf("network: %u transistors, %u nodes (%u inputs); sequence: %u "
                "patterns\n",
                net.numTransistors(), net.numNodes(), net.numInputs(),
                seq.size());
    std::printf("campaign: %zu injection(s)%s\n", campaign.size(),
                genCount ? format(" (generated, seed %llu)",
                                  static_cast<unsigned long long>(seed))
                               .c_str()
                         : "");
  }

  opts.naive = naive;
  const seu::CampaignResult res = runSeuCampaign(net, seq, campaign, opts);

  if (verify) {
    seu::CampaignOptions other = opts;
    other.naive = !naive;
    const seu::CampaignResult ref = runSeuCampaign(net, seq, campaign, other);
    if (ref.checksum() != res.checksum()) {
      std::fprintf(stderr,
                   "seu --verify: MISMATCH — %s=0x%016llx vs %s=0x%016llx\n",
                   naive ? "naive" : "replay",
                   static_cast<unsigned long long>(res.checksum()),
                   naive ? "replay" : "naive",
                   static_cast<unsigned long long>(ref.checksum()));
      return 1;
    }
    if (!quiet) {
      std::printf("verify: replay and naive campaigns bit-identical\n");
    }
  }

  if (!quiet) {
    std::printf("\n%-28s %-9s %s\n", "injection", "outcome", "detected at");
    for (const seu::InjectionResult& r : res.injections) {
      if (r.detectedAtPattern >= 0) {
        std::printf("%-28s %-9s pattern %d\n", r.fault.name.c_str(),
                    seu::outcomeName(r.outcome), r.detectedAtPattern);
      } else {
        std::printf("%-28s %-9s -\n", r.fault.name.c_str(),
                    seu::outcomeName(r.outcome));
      }
    }
  }
  std::printf("\nseu: %zu injection(s): %u detected, %u silent, %u latent "
              "(%u group(s), %s)\n",
              res.injections.size(), res.numDetected, res.numSilent,
              res.numLatent, res.numGroups,
              naive ? "naive" : "checkpoint replay");
  std::printf("time: %.4f s, work: %llu faulty node evaluations, checksum "
              "0x%016llx\n",
              res.totalSeconds,
              static_cast<unsigned long long>(res.totalNodeEvals),
              static_cast<unsigned long long>(res.checksum()));
  return 0;
}

struct Subcommand {
  const char* name;
  int (*run)(const Cli&);
};

constexpr Subcommand kSubcommands[] = {
    {"fuzz", runFuzz},       {"bench", runBench}, {"serve", runServe},
    {"loadgen", runLoadgen}, {"seu", runSeu},
};

}  // namespace

int main(int argc, char** argv) {
  // No subcommand (a flag or nothing first) is a fault-grading run; any
  // other first word must name a subcommand rather than be misparsed.
  int (*run)(const Cli&) = runGrading;
  int first = 1;
  if (argc > 1 && argv[1][0] != '-') {
    const auto sub = std::find_if(
        std::begin(kSubcommands), std::end(kSubcommands),
        [&](const Subcommand& s) { return argv[1] == std::string_view(s.name); });
    if (sub == std::end(kSubcommands)) {
      std::fprintf(stderr, "unknown subcommand '%s' (try %s --help)\n",
                   argv[1], argv[0]);
      return 2;
    }
    run = sub->run;
    first = 2;
  }
  const Cli cli{argv[0],
                first == 1 ? argv[0] : format("%s %s", argv[0], argv[1]),
                std::vector<const char*>(argv + first, argv + argc)};
  try {
    return run(cli);
  } catch (const InputError& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  } catch (const Error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
