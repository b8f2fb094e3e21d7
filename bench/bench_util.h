// Shared helpers for the experiment benches: table printing, a JSON results
// emitter (`--json <path>` captures the deterministic numbers for the perf
// trajectory across PRs), a shared `--flag value` parser, and a common
// main() that first emits the experiment's deterministic result table (the
// "paper row" regeneration) and then runs the google-benchmark wall-clock
// measurements.
#pragma once

#include <benchmark/benchmark.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "algorithms/kernels.h"
#include "common/error.h"
#include "compress/codec.h"
#include "telemetry/trace_sink.h"

namespace aad::bench {

/// Canonical request payload for the trace-replay benches: the kernel's
/// make_input seeded off the request index (workload::replay's MakeInput
/// signature).
inline Bytes request_input(std::uint32_t function, std::size_t blocks,
                           std::size_t index) {
  return algorithms::bank_input(function, blocks, 1000 + index);
}

/// Print a fixed-width table row.  Columns are pre-formatted strings.
inline void print_row(const std::vector<std::string>& cells,
                      const std::vector<int>& widths) {
  std::string line;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    char buf[128];
    std::snprintf(buf, sizeof buf, "%-*s", widths[i % widths.size()],
                  cells[i].c_str());
    line += buf;
  }
  std::puts(line.c_str());
}

inline void print_rule(const std::vector<int>& widths) {
  int total = 0;
  for (int w : widths) total += w;
  std::puts(std::string(static_cast<std::size_t>(total), '-').c_str());
}

inline std::string fmt(const char* format, double value) {
  char buf[64];
  std::snprintf(buf, sizeof buf, format, value);
  return buf;
}

inline std::string fmt_u(std::uint64_t value) {
  return std::to_string(value);
}

/// Machine-readable experiment results.  Benches record named metrics while
/// printing their tables; when the process was started with `--json <path>`
/// the registry is written as one flat JSON object, giving future PRs a
/// perf trajectory that scripts can diff.  Insertion order is preserved.
class JsonResults {
 public:
  void set(const std::string& key, double value) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.6g", value);
    upsert(key, buf);
  }
  void set(const std::string& key, std::uint64_t value) {
    upsert(key, std::to_string(value));
  }
  void set(const std::string& key, std::int64_t value) {
    upsert(key, std::to_string(value));
  }
  void set_string(const std::string& key, const std::string& value) {
    upsert(key, '"' + escaped(value) + '"');
  }

  bool empty() const noexcept { return entries_.empty(); }

  /// Write `{"key": value, ...}`; returns false on I/O failure.
  bool write(const char* path) const {
    std::FILE* f = std::fopen(path, "w");
    if (!f) return false;
    std::fputs("{\n", f);
    for (std::size_t i = 0; i < entries_.size(); ++i)
      std::fprintf(f, "  \"%s\": %s%s\n", escaped(entries_[i].first).c_str(),
                   entries_[i].second.c_str(),
                   i + 1 < entries_.size() ? "," : "");
    std::fputs("}\n", f);
    return std::fclose(f) == 0;
  }

 private:
  void upsert(const std::string& key, std::string value) {
    for (auto& [k, v] : entries_)
      if (k == key) {
        v = std::move(value);
        return;
      }
    entries_.emplace_back(key, std::move(value));
  }

  static std::string escaped(const std::string& s) {
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
      if (c == '"' || c == '\\') {
        out += '\\';
        out += c;
      } else if (static_cast<unsigned char>(c) < 0x20) {
        char buf[8];
        std::snprintf(buf, sizeof buf, "\\u%04x", c);
        out += buf;
      } else {
        out += c;
      }
    }
    return out;
  }

  std::vector<std::pair<std::string, std::string>> entries_;
};

/// The process-wide results registry benches record into.
inline JsonResults& json() {
  static JsonResults results;
  return results;
}

/// Shared command-line flags for the experiment benches.
///
/// The common main() strips every `--name value` / `--name=value` pair
/// whose name does not belong to google-benchmark (`--benchmark_*`,
/// `--help`, `--v`) before ::benchmark::Initialize sees the arguments, and
/// a bench's run_experiment() reads them with typed accessors and
/// defaults:
///
///   const long cards = aad::bench::flags().get_int("cards", 8);
///   const std::string policy = aad::bench::flags().get("policy", "all");
///
/// Unset flags fall back to the default, so a bare invocation regenerates
/// the documented tables; `--json <path>` rides the same mechanism.
class Flags {
 public:
  /// Strip our flags out of argv (in place); returns the new argc, or -1
  /// after printing a diagnostic when a flag is missing its value.
  int parse(int argc, char** argv) {
    int kept = 1;
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg.rfind("--", 0) != 0 || is_benchmark_flag(arg)) {
        argv[kept++] = argv[i];
        continue;
      }
      std::string name = arg.substr(2);
      std::string value;
      if (const auto eq = name.find('='); eq != std::string::npos) {
        value = name.substr(eq + 1);
        name = name.substr(0, eq);
      } else {
        // A following "--something" is the next flag, not this one's value.
        if (i + 1 >= argc || std::string(argv[i + 1]).rfind("--", 0) == 0) {
          std::fprintf(stderr, "--%s requires a value argument\n",
                       name.c_str());
          return -1;
        }
        value = argv[++i];
      }
      values_[name] = value;
    }
    return kept;
  }

  bool has(const std::string& name) const {
    consumed_.insert(name);
    return values_.contains(name);
  }

  std::string get(const std::string& name, const std::string& fallback) const {
    consumed_.insert(name);
    const auto it = values_.find(name);
    return it != values_.end() ? it->second : fallback;
  }

  long get_int(const std::string& name, long fallback) const {
    consumed_.insert(name);
    const auto it = values_.find(name);
    if (it == values_.end()) return fallback;
    char* end = nullptr;
    const long value = std::strtol(it->second.c_str(), &end, 10);
    if (end == it->second.c_str() || *end != '\0')
      die_bad_value(name, it->second, "an integer");
    return value;
  }

  double get_double(const std::string& name, double fallback) const {
    consumed_.insert(name);
    const auto it = values_.find(name);
    if (it == values_.end()) return fallback;
    char* end = nullptr;
    const double value = std::strtod(it->second.c_str(), &end);
    if (end == it->second.c_str() || *end != '\0')
      die_bad_value(name, it->second, "a number");
    return value;
  }

  /// Flags that were passed but never read by this bench — almost always a
  /// typo (`--client` for `--clients`).  The shared main() turns any
  /// leftovers into a hard error so misspellings cannot silently run the
  /// default tables under a mislabeled configuration.
  std::vector<std::string> unread() const {
    std::vector<std::string> out;
    for (const auto& [name, value] : values_)
      if (!consumed_.contains(name)) out.push_back(name);
    return out;
  }

 private:
  static bool is_benchmark_flag(const std::string& arg) {
    return arg.rfind("--benchmark", 0) == 0 || arg == "--help" ||
           arg.rfind("--v=", 0) == 0 || arg == "--v";
  }

  [[noreturn]] static void die_bad_value(const std::string& name,
                                         const std::string& value,
                                         const char* expected) {
    std::fprintf(stderr, "--%s expects %s, got \"%s\"\n", name.c_str(),
                 expected, value.c_str());
    std::exit(2);
  }

  std::map<std::string, std::string> values_;
  mutable std::set<std::string> consumed_;  ///< names the bench looked up
};

/// The process-wide flag registry, filled by the shared main().
inline Flags& flags() {
  static Flags instance;
  return instance;
}

/// The process-wide trace sink, or nullptr unless the bench was started
/// with `--trace <path>`.  Benches that build fleets/servers attach it
/// right after construction:
///
///   if (auto* sink = aad::bench::trace_sink())
///     fleet.attach_trace(*sink, "F1 cards=4");
///
/// and the shared main() writes the merged Chrome trace to the given path
/// after run_experiment() returns.  Without the flag this returns nullptr
/// and no telemetry track is ever attached, so the hot paths stay on their
/// zero-overhead branch and the gated baselines stay byte-identical.
inline telemetry::TraceSink* trace_sink() {
  static std::unique_ptr<telemetry::TraceSink> sink =
      flags().has("trace") ? std::make_unique<telemetry::TraceSink>()
                           : nullptr;
  return sink.get();
}

/// Shared `--codec=<name|auto>` flag: the codec a bench downloads with.
/// Returns nullopt when unset (each bench keeps its documented default);
/// "auto" maps to compress::CodecId::kAuto, which makes the MCU
/// trial-compress the candidates and pick per function at download time.
/// Unknown names are fatal, like any other malformed flag value.
inline std::optional<compress::CodecId> codec_flag() {
  const std::string name = flags().get("codec", "");
  if (name.empty()) return std::nullopt;
  try {
    return compress::codec_from_string(name);
  } catch (const Error&) {
    std::fprintf(stderr, "--codec expects a codec name or \"auto\", got \"%s\"\n",
                 name.c_str());
    std::exit(2);
  }
}

}  // namespace aad::bench

/// Each bench defines this: prints its experiment table(s) and records
/// machine-readable metrics via aad::bench::json().
void run_experiment();

int main(int argc, char** argv) {
  // Strip every bench flag (including `--json <path>`) before
  // google-benchmark sees the args.
  argc = aad::bench::flags().parse(argc, argv);
  if (argc < 0) return 2;

  const std::string json_path = aad::bench::flags().get("json", "");
  const std::string trace_path = aad::bench::flags().get("trace", "");
  run_experiment();
  // Surface typo'd flags BEFORE writing the artifact: a bench that ran
  // under a default configuration because `--client` was misspelled must
  // not leave a plausible-looking results file behind.
  bool unknown = false;
  for (const std::string& name : aad::bench::flags().unread()) {
    std::fprintf(stderr, "unknown flag --%s (this bench never read it)\n",
                 name.c_str());
    unknown = true;
  }
  if (unknown) return 2;
  if (!json_path.empty() && !aad::bench::json().write(json_path.c_str())) {
    std::fprintf(stderr, "failed to write JSON results to %s\n",
                 json_path.c_str());
    return 1;
  }
  if (!trace_path.empty()) {
    aad::telemetry::TraceSink* sink = aad::bench::trace_sink();
    if (!sink->write_chrome_trace(trace_path.c_str())) {
      std::fprintf(stderr, "failed to write Chrome trace to %s\n",
                   trace_path.c_str());
      return 1;
    }
    std::fprintf(stderr, "wrote %zu trace events to %s\n",
                 sink->event_count(), trace_path.c_str());
  }
  ::benchmark::Initialize(&argc, argv);
  ::benchmark::RunSpecifiedBenchmarks();
  return 0;
}
