// perfbench: the repository's end-to-end benchmark.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Repeats the workload (fresh fleet each time) until `--seconds` of
// repetitions have run, at least twice, and reports medians of the host
// times.  Simulated-time metrics come from the first repetition; every
// repetition must reproduce them and the output digest exactly.  With
// `--trace 1` one more, traced repetition and the single-layer probes give
// the per-layer metrics.  The last stdout line is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// The exit code is 0 only when every check passed.
#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <vector>

#include "harness.h"

namespace {

using namespace perfbench;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

[[noreturn]] void usage(const char* message) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1>\n",
               message);
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) usage("missing value");
    const std::string value = argv[++i];
    if (key == "--workload") a.workload = value;
    else if (key == "--seed") a.seed = std::stoull(value);
    else if (key == "--seconds") a.seconds = std::stod(value);
    else if (key == "--trace") a.trace = value == "1";
    else usage("unknown flag");
  }
  const auto& names = workload_names();
  if (std::find(names.begin(), names.end(), a.workload) == names.end())
    usage("unknown workload");
  return a;
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string number(double v) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

double ratio(double a, double b) { return b != 0 ? a / b : 0.0; }

}  // namespace

int main(int argc, char** argv) try {
  // Fixed thresholds turn off glibc's adaptive mmap threshold, so freed
  // large blocks go back to the system and peak_rss_mb tracks live memory
  // rather than the allocator's history.
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);
  mallopt(M_TRIM_THRESHOLD, 128 * 1024);
  const Args args = parse(argc, argv);
  const Prepared prepared = prepare(args.workload, args.seed);
  const Workload& w = prepared.workload;

  // --- untraced repetitions: the end-to-end numbers ------------------------
  std::vector<RepResult> reps;
  const auto start = std::chrono::steady_clock::now();
  do {
    Provisioned fleet = provision(w);
    reps.push_back(measure(fleet, prepared, nullptr));
  } while (reps.size() < 2 ||
           std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
                   .count() < args.seconds);

  std::vector<std::string> errors;
  for (const RepResult& r : reps)
    errors.insert(errors.end(), r.errors.begin(), r.errors.end());
  const SimMetrics& sim = reps.front().sim;
  for (const RepResult& r : reps)
    if (!(r.sim == sim))
      errors.push_back("repetitions of one seed disagree on sim-time results");

  std::vector<double> run_s, setup_s, construct_s, download_s, stats_s;
  std::uint64_t attempted = 0, failed = 0;
  double ok_frac = 1.0;
  for (const RepResult& r : reps) {
    run_s.push_back(r.run_s);
    setup_s.push_back(r.construct_s + r.download_s);
    construct_s.push_back(r.construct_s);
    download_s.push_back(r.download_s);
    stats_s.push_back(r.stats_s);
    attempted += r.sim.attempted;
    failed += r.sim.attempted - r.sim.verified;
    ok_frac = std::min(ok_frac, ratio(static_cast<double>(r.sim.verified),
                                      static_cast<double>(r.sim.attempted)));
  }
  const double run_median = median(run_s);

  std::vector<Metric> metrics;
  if (!args.trace) {
    metrics = {
        {"run_s", run_median, "s"},
        {"setup_s", median(setup_s), "s"},
        {"peak_rss_mb", peak_rss_mb(), "MB"},
        {"sim_rps", sim.rps, "1/s"},
        {"sim_p50_us", sim.p50_us, "us"},
        {"sim_p99_us", sim.p99_us, "us"},
        {"sim_p999_us", sim.p999_us, "us"},
        {"sim_slo_frac",
         ratio(static_cast<double>(sim.within_limit),
               static_cast<double>(sim.measured)),
         "frac"},
        {"ok_frac", ok_frac, "frac"},
    };
  } else {
    // --- one traced repetition plus the single-layer probes ----------------
    aad::telemetry::TraceSink sink;
    Provisioned fleet = provision(w);
    const RepResult traced = measure(fleet, prepared, &sink);
    errors.insert(errors.end(), traced.errors.begin(), traced.errors.end());
    if (!(traced.sim == sim))
      errors.push_back("tracing changed the simulation (digest or sim time)");
    attempted += traced.sim.attempted;
    failed += traced.sim.attempted - traced.sim.verified;
    const Probes probes = run_probes(prepared, sim.events);

    const RepResult& r = reps.front();
    const auto mcu = [&](const char* name) {
      const auto it = r.mcu.find(name);
      return static_cast<double>(it != r.mcu.end() ? it->second : 0);
    };
    const double hits = mcu("mcu.config_hits");
    const double misses = mcu("mcu.config_misses");
    const SpanTotals& sp = traced.spans;
    const double own_spans_ms = sp.pci_in_ms + sp.decode_ms + sp.load_ms +
                                sp.execute_ms + sp.pci_out_ms;
    const auto& st = r.stats;
    const double submitted = static_cast<double>(st.submitted);
    metrics = {
        {"algorithms.host_s", probes.software_s, "s"},
        {"algorithms.modexp.host_s", probes.modexp_software_s, "s"},
        {"algorithms.share", ratio(probes.software_s, run_median), "frac"},
        {"mcu.hit_rate", ratio(hits, hits + misses), "frac"},
        {"mcu.misses", misses, "count"},
        {"mcu.evictions", mcu("mcu.evictions"), "count"},
        {"mcu.frames_configured", mcu("mcu.frames_configured"), "count"},
        {"mcu.bytes_streamed", mcu("mcu.compressed_bytes_streamed"), "bytes"},
        {"mcu.load_host_us", probes.load_host_us, "us"},
        {"mcu.load_share", ratio(probes.load_host_us * 1e-6 * misses, run_median),
         "frac"},
        {"compress.decode_mb_per_s", probes.decode_mb_per_s, "MB/s"},
        {"netlist.invoke_host_us", probes.netlist_invoke_host_us, "us"},
        {"sim.events", static_cast<double>(sim.events), "count"},
        {"sim.host_ns_per_event",
         ratio(run_median * 1e9, static_cast<double>(sim.events)), "ns"},
        {"sim.scheduler_ns_per_event", probes.scheduler_ns_per_event, "ns"},
        {"core.stats_s", median(stats_s), "s"},
        {"pci.in_ms", sp.pci_in_ms, "ms"},
        {"mcu.decode_ms", sp.decode_ms, "ms"},
        {"mcu.load_ms", sp.load_ms, "ms"},
        {"fabric.execute_ms", sp.execute_ms, "ms"},
        {"pci.out_ms", sp.pci_out_ms, "ms"},
        {"fabric.utilization",
         ratio(sp.execute_ms, w.cards * st.makespan.milliseconds()), "frac"},
        {"core.queue_wait_ms", sim.latency_ms - own_spans_ms, "ms"},
        {"core.engine_wait_ms", st.total_engine_wait.milliseconds(), "ms"},
        {"core.fabric_wait_ms", st.total_fabric_wait.milliseconds(), "ms"},
        {"core.hidden_reconfig_ms", st.total_hidden_reconfig.milliseconds(),
         "ms"},
        {"core.affinity_routed_frac",
         ratio(static_cast<double>(st.affinity_routed), submitted), "frac"},
        {"core.fallback_frac",
         ratio(static_cast<double>(st.affinity_fallback), submitted), "frac"},
        {"core.deaths", static_cast<double>(st.deaths), "count"},
        {"core.redispatched", static_cast<double>(st.redispatched), "count"},
        {"core.crc_rejects", static_cast<double>(st.crc_rejects), "count"},
        {"core.refetches", static_cast<double>(st.refetches), "count"},
        {"core.failed", static_cast<double>(st.failed), "count"},
        {"core.drain_ms", sim.drain_ms, "ms"},
        {"core.samples", static_cast<double>(sim.measured), "count"},
        {"setup.construct_s", median(construct_s), "s"},
        {"setup.download_s", median(download_s), "s"},
        {"telemetry.trace_events", static_cast<double>(sp.events), "count"},
        {"telemetry.overhead_frac", ratio(traced.run_s, run_median) - 1.0,
         "frac"},
        {"workload.gen_s", prepared.gen_s, "s"},
    };
  }

  std::printf("workload %s seed %llu: %zu repetitions, %llu requests each, "
              "%u cards, latency limit %.0f us\n",
              w.name.c_str(), static_cast<unsigned long long>(args.seed),
              reps.size(), static_cast<unsigned long long>(sim.attempted),
              w.cards, w.limit.microseconds());
  for (const std::string& e : errors) std::printf("CHECK FAILED: %s\n", e.c_str());
  std::string json = "{\"correct\": ";
  json += errors.empty() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    std::printf("  %-28s %16s %s\n", m.name.c_str(), number(m.value).c_str(),
                m.unit.c_str());
    if (i > 0) json += ", ";
    json += "\"" + m.name + "\": {\"value\": " + number(m.value) +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return errors.empty() ? 0 : 1;
} catch (const std::exception& e) {
  std::fprintf(stderr, "perfbench: %s\n", e.what());
  return 1;
}
