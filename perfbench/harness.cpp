// perfbench_harness: one benchmark run of the mrlr library, driven only
// through its public headers. run.py builds this binary, passes it one
// workload's parameters (from perfbench/design.json) and turns the JSON
// line it prints into the benchmark's result.
//
//   perfbench_harness batch  --algo A --seed S --jobs J ...
//   perfbench_harness serve  --mix A:W,... --rate R --jobs J ...
//   perfbench_harness daemon --max-running N
//
// run.py's harness_args() lists every flag each mode reads.
//
// `batch` runs a fixed number of identical jobs, each from the instance
// file on disk to the rendered result line (read, spec build, run_job,
// validate, render), after one untimed warm-up job. With --trace 1 every
// other job runs with obs::Telemetry on and contributes the per-layer
// numbers; the untraced jobs of the same run give the tracing overhead.
//
// `serve` starts `daemon` as a separate process and feeds it an
// open-loop, fixed-seed Poisson schedule of pre-built specs over at most
// --conns concurrent connections. Latency runs from each job's due time
// to its decoded JobResult, so a stalled daemon also charges the jobs
// queued behind the stall.
//
// Every job is checked: the validator verdict, no paper "fail" line, and
// its determinism_hash against a reference (the pinned hash when run.py
// has one for this seed, else a serial run_job of the same spec). Any
// mismatch is counted failed and named in "failures".
//
// Output: one JSON object on stdout with per-job samples, per-run
// values, the noise record and the failures; all times in seconds.

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "mrlr/graph/generators.hpp"
#include "mrlr/graph/io.hpp"
#include "mrlr/graph/stats.hpp"
#include "mrlr/jobs/job_result.hpp"
#include "mrlr/jobs/job_spec.hpp"
#include "mrlr/jobs/report.hpp"
#include "mrlr/jobs/worker.hpp"
#include "mrlr/obs/telemetry.hpp"
#include "mrlr/serve/admission.hpp"
#include "mrlr/serve/client.hpp"
#include "mrlr/serve/server.hpp"
#include "mrlr/setcover/generators.hpp"
#include "mrlr/setcover/io.hpp"

namespace {

using Clock = std::chrono::steady_clock;
using mrlr::jobs::JobResult;
using mrlr::jobs::JobSpec;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// User+system CPU seconds of this process plus its reaped children
/// (fork shards are reaped when their job ends).
double cpu_seconds() {
  double total = 0.0;
  for (const int who : {RUSAGE_SELF, RUSAGE_CHILDREN}) {
    rusage ru{};
    ::getrusage(who, &ru);
    total += static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
             1e-6 * static_cast<double>(ru.ru_utime.tv_usec +
                                        ru.ru_stime.tv_usec);
  }
  return total;
}

/// Largest peak RSS of this process or any reaped descendant, in MB.
double peak_rss_mb() {
  long kb = 0;
  for (const int who : {RUSAGE_SELF, RUSAGE_CHILDREN}) {
    rusage ru{};
    ::getrusage(who, &ru);
    kb = std::max(kb, ru.ru_maxrss);
  }
  return static_cast<double>(kb) / 1024.0;
}

/// Largest peak RSS, in kB, of this process since its exec (VmHWM) or of
/// any reaped descendant. RUSAGE_SELF would not do for an exec'd child:
/// Linux folds the parent's RSS at fork time into it at exec.
long peak_rss_since_exec_kb() {
  std::ifstream in("/proc/self/status");
  long kb = 0;
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("VmHWM:", 0) == 0) kb = std::stol(line.substr(6));
  }
  rusage ru{};
  ::getrusage(RUSAGE_CHILDREN, &ru);
  return std::max(kb, ru.ru_maxrss);
}

// ------------------------------------------------------ noise record --

/// Aggregate CPU counters from the first line of /proc/stat.
struct CpuTicks {
  std::uint64_t steal = 0;
  std::uint64_t total = 0;
};

CpuTicks read_cpu_ticks() {
  CpuTicks t;
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;
  for (int field = 0; field < 10 && in; ++field) {
    std::uint64_t v = 0;
    if (!(in >> v)) break;
    // guest and guest_nice (fields 8, 9) are already inside user/nice.
    if (field < 8) t.total += v;
    if (field == 7) t.steal = v;
  }
  return t;
}

double load_average_1m() {
  std::ifstream in("/proc/loadavg");
  double l = 0.0;
  in >> l;
  return l;
}

/// Host noise over the timed window: the share of CPU time the
/// hypervisor stole and the 1-minute load average at both ends.
struct NoiseWindow {
  CpuTicks ticks0 = read_cpu_ticks();
  double load0 = load_average_1m();

  std::map<std::string, double> finish() const {
    const CpuTicks t1 = read_cpu_ticks();
    const double dt = static_cast<double>(t1.total - ticks0.total);
    return {{"steal_share",
             dt > 0 ? static_cast<double>(t1.steal - ticks0.steal) / dt : 0},
            {"load_avg_start", load0},
            {"load_avg_end", load_average_1m()}};
  }
};

// ------------------------------------------------------------ output --

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') {
      out += '\\';
      out += ch;
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      out += ' ';
    } else {
      out += ch;
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string hex64(std::uint64_t v) {
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, v);
  return buf;
}

/// Everything one run measured; printed as a single JSON line.
struct Report {
  std::map<std::string, std::vector<double>> samples;  // per job
  std::map<std::string, double> values;                // per run
  std::map<std::string, double> noise;
  std::map<std::string, std::string> hashes;
  std::vector<std::string> failures;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void add(const std::string& name, double v) { samples[name].push_back(v); }

  void print() const {
    std::ostringstream os;
    os << "{\"attempted\":" << attempted << ",\"failed\":" << failed
       << ",\"samples\":{";
    const char* sep = "";
    for (const auto& [name, vs] : samples) {
      os << sep << json_string(name) << ":[";
      for (std::size_t i = 0; i < vs.size(); ++i) {
        os << (i ? "," : "") << json_number(vs[i]);
      }
      os << "]";
      sep = ",";
    }
    os << "}";
    auto print_map = [&os](const char* key, const auto& m, auto fmt) {
      os << ",\"" << key << "\":{";
      const char* s = "";
      for (const auto& [name, v] : m) {
        os << s << json_string(name) << ":" << fmt(v);
        s = ",";
      }
      os << "}";
    };
    print_map("values", values, json_number);
    print_map("noise", noise, json_number);
    print_map("hashes", hashes, json_string);
    os << ",\"failures\":[";
    for (std::size_t i = 0; i < failures.size(); ++i) {
      os << (i ? "," : "") << json_string(failures[i]);
    }
    os << "]}";
    std::printf("%s\n", os.str().c_str());
    std::fflush(stdout);
  }
};

// ------------------------------------------------------------- flags --

class Flags {
 public:
  Flags(int argc, char** argv) {
    for (int i = 2; i + 1 < argc; i += 2) {
      if (std::strncmp(argv[i], "--", 2) != 0) {
        throw std::invalid_argument(std::string("bad flag ") + argv[i]);
      }
      values_[argv[i] + 2] = argv[i + 1];
    }
    if (argc % 2 != 0) throw std::invalid_argument("flag without value");
  }
  std::string str(const std::string& k) const {
    const auto it = values_.find(k);
    if (it == values_.end()) throw std::invalid_argument("missing --" + k);
    return it->second;
  }
  std::string str(const std::string& k, const std::string& dflt) const {
    const auto it = values_.find(k);
    return it == values_.end() ? dflt : it->second;
  }
  std::uint64_t u64(const std::string& k) const {
    return std::stoull(str(k));
  }
  double f64(const std::string& k) const { return std::stod(str(k)); }

 private:
  std::map<std::string, std::string> values_;
};

// --------------------------------------------------------- instances --

/// The weighted G(n, m = n^{1+c}) graph every matching and MIS job runs.
void write_graph_instance(std::uint64_t n, double c, std::uint64_t seed,
                          const std::string& path) {
  mrlr::Rng rng(seed);
  const mrlr::graph::Graph g = mrlr::graph::gnm_density(n, c, rng);
  mrlr::graph::write_graph_file(
      g.with_weights(mrlr::graph::random_edge_weights(
          g, mrlr::graph::WeightDist::kUniform, rng)),
      path);
}

/// The many-sets system (m << n) the greedy set-cover jobs run.
void write_set_instance(std::uint64_t sets, std::uint64_t universe,
                        std::uint64_t set_size, std::uint64_t seed,
                        const std::string& path) {
  mrlr::Rng rng(seed);
  const auto sys = mrlr::setcover::many_sets(
      sets, universe, set_size, mrlr::graph::WeightDist::kUniform, rng);
  std::ofstream out(path);
  mrlr::setcover::write_set_system(sys, out);
  if (!out.flush()) throw std::runtime_error("cannot write " + path);
}

/// One batch job's parameters: a graph algorithm and its MrParams.
struct JobKind {
  std::string algo;
  mrlr::core::MrParams params;
};

/// Timings and sizes of one job from file to rendered line.
struct JobRun {
  JobResult result;
  JobSpec spec;  // kept for the Thm 5.6 projection
  double job_s = 0, cpu_s = 0, read_s = 0, spec_build_s = 0, run_job_s = 0;
  double read_bytes = 0;
  mrlr::obs::TelemetrySnapshot trace;  // run_job's spans, when traced
};

/// The measured path of a batch job, mirroring `mrlr_cli run`. When
/// `traced`, obs::Telemetry records run_job (and nothing else, so the
/// harness's own read and spec build stay timed by the harness alone).
JobRun run_file_job(const JobKind& kind, const std::string& path,
                    bool traced) {
  JobRun run;
  const double cpu0 = cpu_seconds();
  const Clock::time_point t0 = Clock::now();
  const mrlr::jobs::AlgorithmInfo* info = mrlr::jobs::find_algorithm(kind.algo);
  if (info == nullptr || info->instance != JobSpec::InstanceKind::kGraph) {
    throw std::invalid_argument("batch runs graph algorithms only, not " +
                                kind.algo);
  }
  std::string header;
  run.read_bytes = static_cast<double>(std::filesystem::file_size(path));
  {
    // The graph is freed before run_job; the spec holds its own copy.
    Clock::time_point t = Clock::now();
    const mrlr::graph::Graph g = mrlr::graph::read_graph_file(path);
    run.read_s = seconds_since(t);
    t = Clock::now();
    run.spec = mrlr::jobs::graph_job(kind.algo, g, kind.params);
    if (mrlr::jobs::prints_instance_header(kind.algo)) {
      const auto st = mrlr::graph::compute_stats(g);
      header = mrlr::jobs::render_instance_header(st.n, st.m,
                                                  st.density_exponent) +
               "\n";
    }
    run.spec_build_s = seconds_since(t);
  }
  mrlr::obs::Telemetry& tel = mrlr::obs::Telemetry::instance();
  if (traced) tel.enable();
  const Clock::time_point tj = Clock::now();
  run.result = mrlr::jobs::run_job(run.spec);
  run.run_job_s = seconds_since(tj);
  if (traced) {
    tel.disable();
    run.trace = tel.snapshot();
  }
  // Rendered as `mrlr_cli run` prints it; only the cost is kept.
  [[maybe_unused]] const std::string lines =
      header + mrlr::jobs::render_solution_line(run.result, {}) + "\n" +
      mrlr::jobs::render_cost_line(run.result.outcome) + "\n";
  run.job_s = seconds_since(t0);
  run.cpu_s = cpu_seconds() - cpu0;
  return run;
}

/// The correctness gate: returns an empty string when `r` is valid and
/// hashes to `want`, else a one-line description of what is wrong.
std::string check_result(const JobResult& r, std::uint64_t want) {
  if (!r.valid) return "invalid solution";
  if (r.outcome.failed) return "driver reported failure";
  if (r.outcome.space_violations != 0) return "space violation";
  const std::uint64_t got = mrlr::jobs::determinism_hash(r);
  if (got != want) return "hash " + hex64(got) + " != " + hex64(want);
  return {};
}

/// Reference hash of a spec: the pinned value when run.py passed one,
/// else a serial run_job of the same spec.
std::uint64_t reference_hash(const Flags& flags, const std::string& key,
                             JobSpec spec, Report& rep) {
  spec.params.num_shards = 1;
  spec.params.num_threads = 1;
  const std::uint64_t serial =
      mrlr::jobs::determinism_hash(mrlr::jobs::run_job(spec));
  rep.hashes[key] = hex64(serial);
  const std::string pinned = flags.str("pin-" + key, "");
  if (!pinned.empty()) {
    const std::uint64_t want = std::stoull(pinned, nullptr, 16);
    if (want != serial) {
      rep.failures.push_back(key + ": serial hash " + hex64(serial) +
                             " != pinned " + pinned);
    }
    return want;
  }
  return serial;
}

/// 1 - measured words per machine over the Thm 5.6 projection that
/// serve admission uses.
double space_headroom(const JobResult& r, const JobSpec& spec) {
  return 1.0 - static_cast<double>(r.outcome.max_machine_words) /
                   static_cast<double>(
                       mrlr::serve::projected_machine_words(spec));
}

// ---------------------------------------------------- span self time --

/// Per-span self time: duration minus the direct children's durations,
/// children being later-starting spans of the same shard that end
/// inside it.
std::vector<double> self_times(const std::vector<mrlr::obs::SpanRecord>& spans) {
  std::vector<std::size_t> order(spans.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    const auto& x = spans[a];
    const auto& y = spans[b];
    if (x.shard != y.shard) return x.shard < y.shard;
    if (x.start_ns != y.start_ns) return x.start_ns < y.start_ns;
    return x.dur_ns > y.dur_ns;
  });
  std::vector<double> self(spans.size());
  std::vector<std::size_t> stack;
  for (const std::size_t i : order) {
    const auto& s = spans[i];
    while (!stack.empty()) {
      const auto& top = spans[stack.back()];
      if (top.shard == s.shard &&
          s.start_ns + s.dur_ns <= top.start_ns + top.dur_ns) {
        break;
      }
      stack.pop_back();
    }
    if (!stack.empty()) self[stack.back()] -= 1e-9 * double(s.dur_ns);
    self[i] += 1e-9 * double(s.dur_ns);
    stack.push_back(i);
  }
  return self;
}

/// Folds one traced job's telemetry into per-layer samples.
void add_trace_samples(const JobRun& run, Report& rep) {
  using mrlr::obs::Phase;
  const mrlr::obs::TelemetrySnapshot& snap = run.trace;
  const std::vector<double> self = self_times(snap.spans);
  std::map<Phase, double> total;      // every shard
  std::map<Phase, double> self0;      // coordinator only
  std::map<std::string, double> label_self;
  double rounds0 = 0;  // coordinator spans not nested in another: rounds
  std::uint64_t covered_until = 0;
  std::vector<std::size_t> by_start(snap.spans.size());
  for (std::size_t i = 0; i < by_start.size(); ++i) by_start[i] = i;
  std::sort(by_start.begin(), by_start.end(), [&](auto a, auto b) {
    return snap.spans[a].start_ns < snap.spans[b].start_ns;
  });
  for (const std::size_t i : by_start) {
    const auto& s = snap.spans[i];
    total[s.phase] += 1e-9 * double(s.dur_ns);
    if (s.shard != 0) continue;
    self0[s.phase] += self[i];
    if ((s.phase == Phase::kCallback || s.phase == Phase::kCentral) &&
        !s.label.empty()) {
      label_self["core." + s.label + "_s"] += self[i];
    }
    if (s.start_ns >= covered_until) {
      rounds0 += 1e-9 * double(s.dur_ns);
      covered_until = s.start_ns + s.dur_ns;
    }
  }
  auto count = [&](const char* name) {
    const auto it = snap.counters.find(name);
    return it == snap.counters.end() ? 0.0 : double(it->second);
  };
  const auto& out = run.result.outcome;
  const double comm_bytes = 8.0 * double(out.total_communication);
  rep.add("mrc.callback_s", self0[Phase::kCallback]);
  rep.add("mrc.arena_merge_s", total[Phase::kArenaMerge]);
  rep.add("mrc.central_s", total[Phase::kCentral]);
  rep.add("exec.shard_serialize_s", total[Phase::kShardSerialize]);
  rep.add("exec.shard_transport_s", total[Phase::kShardTransport]);
  rep.add("exec.worker_wait_s", total[Phase::kWorkerWait]);
  rep.add("exec.wire_bytes", count("exec.wire_bytes_out"));
  rep.add("exec.state_bytes", count("exec.state_bytes_shipped"));
  rep.add("exec.wire_amplification",
          comm_bytes > 0 ? count("exec.wire_bytes_out") / comm_bytes : 0);
  rep.add("mrc.comm_words", double(out.total_communication));
  rep.add("mrc.max_machine_words", double(out.max_machine_words));
  for (const auto& [label, s] : label_self) rep.add(label, s);
  // Layer self times along the coordinator's blocking path; they sum to
  // job_s. io: the instance file read; core: the drivers' round
  // callbacks; mrc: engine bookkeeping and the arena merge; exec: the
  // coordinator waiting on shards; jobs: everything outside the rounds
  // (spec build and decode, driver code between rounds, validation,
  // render).
  rep.add("self.io_s", run.read_s);
  rep.add("self.core_s", self0[Phase::kCallback] + self0[Phase::kCentral]);
  rep.add("self.mrc_s", self0[Phase::kRound] + self0[Phase::kArenaMerge]);
  rep.add("self.exec_s", self0[Phase::kWorkerWait]);
  rep.add("self.jobs_s", run.job_s - run.read_s - rounds0);
}

/// How many of the --setup-reps set-up repetitions run after the timed
/// window rather than before it. The host's speed drifts over seconds,
/// so repetitions taken back to back would all sample one moment of it;
/// splitting them samples two moments about a run apart.
std::uint64_t setup_reps_after(const Flags& flags) {
  return flags.u64("setup-reps") / 2;
}

// ------------------------------------------------------------- batch --

int run_batch(const Flags& flags) {
  Report rep;
  const std::uint64_t seed = flags.u64("seed");
  const std::string dir = flags.str("workdir");
  const bool trace = flags.u64("trace") != 0;
  JobKind kind;
  kind.algo = flags.str("algo");
  kind.params.mu = flags.f64("mu");
  kind.params.seed = seed;
  kind.params.num_shards = flags.u64("shards");
  const std::string path = dir + "/instance.mgb";

  // Set-up: instance generation and file write; every repetition writes
  // the same bytes.
  auto set_up = [&] {
    const Clock::time_point t = Clock::now();
    write_graph_instance(flags.u64("n"), flags.f64("c"), seed, path);
    rep.add("setup_s", seconds_since(t));
  };
  const std::uint64_t reps_after = setup_reps_after(flags);
  for (std::uint64_t i = reps_after; i < flags.u64("setup-reps"); ++i) {
    set_up();
  }

  // Warm-up (untimed): fills the page cache and the allocator, and gives
  // the spec the serial reference is computed from.
  const JobRun warm = run_file_job(kind, path, false);
  const std::uint64_t want =
      reference_hash(flags, kind.algo, warm.spec, rep);
  auto gate = [&](const JobRun& run, std::uint64_t job) {
    ++rep.attempted;
    const std::string why = check_result(run.result, want);
    if (!why.empty()) {
      ++rep.failed;
      rep.failures.push_back(kind.algo + " job " + std::to_string(job) +
                             ": " + why);
    }
  };
  gate(warm, 0);  // gated, not timed

  const std::uint64_t jobs = flags.u64("jobs");
  NoiseWindow noise;
  for (std::uint64_t j = 1; j <= jobs; ++j) {
    // Traced runs alternate: odd jobs untraced, even jobs traced.
    const bool traced = trace && j % 2 == 0;
    const JobRun run = run_file_job(kind, path, traced);
    gate(run, j);
    const std::string suffix = traced ? "_traced" : "";
    rep.add("job_s" + suffix, run.job_s);
    rep.add("cpu_s" + suffix, run.cpu_s);
    rep.add("rounds", double(run.result.outcome.rounds));
    rep.add("space_headroom", space_headroom(run.result, run.spec));
    if (!trace) continue;
    rep.add("graph.read_s", run.read_s);
    rep.add("graph.bytes", run.read_bytes);
    rep.add("jobs.spec_build_s", run.spec_build_s);
    rep.add("jobs.spec_bytes", double(run.spec.instance.size()));
    rep.add("jobs.run_job_s", run.run_job_s);
    if (traced) add_trace_samples(run, rep);
  }
  rep.noise = noise.finish();
  for (std::uint64_t i = 0; i < reps_after; ++i) set_up();
  rep.values["peak_rss_mb"] = peak_rss_mb();
  rep.print();
  return 0;
}

// ------------------------------------------------------------- serve --

/// Reads utime+stime+cutime+cstime of `pid` (it and its reaped
/// children) from /proc, in seconds.
double process_tree_cpu_seconds(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string stat((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  // Fields after the parenthesised command name; utime is field 14.
  std::istringstream rest(stat.substr(stat.rfind(')') + 2));
  std::string field;
  double ticks = 0;
  for (int i = 3; i <= 17 && rest >> field; ++i) {
    if (i >= 14) ticks += std::stod(field);
  }
  return ticks / static_cast<double>(::sysconf(_SC_CLK_TCK));
}

/// The daemon in its own process (this binary's `daemon` mode). Shuts it
/// down and reaps it on destruction. The daemon prints its port on start
/// and its peak RSS (its own or a job's) once it has drained.
class DaemonProcess {
 public:
  DaemonProcess(const std::string& self, std::uint64_t max_running) {
    int fds[2];
    if (::pipe(fds) != 0) throw std::runtime_error("pipe failed");
    pid_ = ::fork();
    if (pid_ < 0) throw std::runtime_error("fork failed");
    if (pid_ == 0) {
      ::dup2(fds[1], STDOUT_FILENO);
      ::close(fds[0]);
      ::close(fds[1]);
      const std::string mr = std::to_string(max_running);
      ::execl(self.c_str(), self.c_str(), "daemon", "--max-running",
              mr.c_str(), static_cast<char*>(nullptr));
      ::_exit(127);
    }
    ::close(fds[1]);
    out_fd_ = fds[0];
    const std::string line = read_line();
    if (line.rfind("port ", 0) != 0) {
      stop();
      throw std::runtime_error("daemon did not report its port");
    }
    endpoint_ = {"127.0.0.1",
                 static_cast<std::uint16_t>(std::stoul(line.substr(5)))};
  }
  ~DaemonProcess() {
    try {
      stop();
    } catch (...) {
      // Best effort: the kill below still ends the process.
    }
  }
  DaemonProcess(const DaemonProcess&) = delete;
  DaemonProcess& operator=(const DaemonProcess&) = delete;

  const mrlr::exec::Endpoint& endpoint() const { return endpoint_; }
  pid_t pid() const { return pid_; }

  /// Drains and reaps the daemon. Returns its reported peak RSS in MB, or
  /// a negative value when it had to be killed and reported none.
  double stop() {
    if (pid_ <= 0) return -1;
    const pid_t pid = pid_;
    pid_ = -1;
    bool drained = false;
    if (endpoint_.port != 0) {
      try {
        mrlr::serve::ServeClient(endpoint_).shutdown();
        drained = true;
      } catch (...) {
        ::kill(pid, SIGKILL);
      }
    } else {
      ::kill(pid, SIGKILL);
    }
    int status = 0;
    ::waitpid(pid, &status, 0);
    // A killed daemon may leave job processes holding the pipe open.
    const std::string line = drained ? read_line() : "";
    ::close(out_fd_);
    out_fd_ = -1;
    if (line.rfind("peak_rss_kb ", 0) != 0) return -1;
    return std::stod(line.substr(12)) / 1024.0;
  }

 private:
  std::string read_line() {
    std::string line;
    char ch = 0;
    while (::read(out_fd_, &ch, 1) == 1 && ch != '\n') line += ch;
    return line;
  }

  pid_t pid_ = -1;
  int out_fd_ = -1;
  mrlr::exec::Endpoint endpoint_;
};

int run_daemon(const Flags& flags) {
  ::signal(SIGPIPE, SIG_IGN);
  mrlr::serve::ServeOptions opts;
  opts.max_running = flags.u64("max-running");
  mrlr::serve::ServeDaemon daemon("127.0.0.1", 0, std::move(opts));
  std::printf("port %u\n", static_cast<unsigned>(daemon.port()));
  std::fflush(stdout);
  daemon.run();  // returns once every job process is reaped
  std::printf("peak_rss_kb %ld\n", peak_rss_since_exec_kb());
  return 0;
}

/// What one open-loop job saw, from its due time to its checked result.
struct ServeOutcome {
  bool done = false;  // completed and passed the correctness gate
  std::string error;
  double lateness = 0, latency = 0, connect = 0, admit = 0, wait = 0;
  double queue_wait = 0, run = 0, rounds = 0, headroom = 0;
};

/// Sends `spec` on a fresh connection once `due` arrives and waits for
/// its result. Latency counts from `due`, so a late send is charged.
ServeOutcome submit_when_due(const mrlr::exec::Endpoint& ep,
                             const JobSpec& spec, Clock::time_point due,
                             std::uint64_t want) {
  ServeOutcome o;
  std::this_thread::sleep_until(due);
  o.lateness = seconds_since(due);
  try {
    Clock::time_point t = Clock::now();
    mrlr::serve::ServeClient client(ep);
    o.connect = seconds_since(t);
    t = Clock::now();
    const auto admission = client.submit(spec);
    o.admit = seconds_since(t);
    if (!admission.accepted) {
      o.error = "rejected: " + std::string(mrlr::serve::reject_reason_name(
                                   admission.reason));
      return o;
    }
    t = Clock::now();
    const auto reply = client.wait_result();
    o.wait = seconds_since(t);
    if (!reply.ok) {
      o.error = "failed: " + reply.error;
      return o;
    }
    const JobResult r = mrlr::serve::ServeClient::decode_result(reply);
    o.latency = seconds_since(due);
    o.queue_wait = 1e-9 * double(reply.queue_wait_ns);
    o.run = 1e-9 * double(reply.run_ns);
    o.rounds = double(r.outcome.rounds);
    o.headroom = space_headroom(r, spec);
    o.error = check_result(r, want);
    o.done = o.error.empty();
  } catch (const std::exception& e) {
    o.error = std::string("transport: ") + e.what();
  }
  return o;
}

int run_serve(const Flags& flags, const std::string& self) {
  ::signal(SIGPIPE, SIG_IGN);
  Report rep;
  const std::uint64_t seed = flags.u64("seed");
  const std::string dir = flags.str("workdir");
  const std::string graph_path = dir + "/serve.mgb";
  const std::string sets_path = dir + "/serve.sets";

  // The job mix: algorithm names and their whole-number shares. Each gets
  // one spec, built in set-up.
  std::vector<std::string> names;
  std::vector<std::uint64_t> shares;
  {
    std::istringstream mix(flags.str("mix"));
    std::string item;
    while (std::getline(mix, item, ',')) {
      const auto colon = item.find(':');
      names.push_back(item.substr(0, colon));
      shares.push_back(std::stoull(item.substr(colon + 1)));
    }
  }
  // Set-up: instance generation and file write, instance read, spec
  // build and daemon start. Returns the started daemon.
  std::vector<JobSpec> specs(names.size());
  auto set_up = [&] {
    const Clock::time_point t = Clock::now();
    write_graph_instance(flags.u64("n"), flags.f64("c"), seed, graph_path);
    write_set_instance(flags.u64("sets"), flags.u64("universe"),
                       flags.u64("set-size"), seed, sets_path);
    const mrlr::graph::Graph g = mrlr::graph::read_graph_file(graph_path);
    const Clock::time_point tr = Clock::now();
    std::ifstream in(sets_path);
    const auto sys = mrlr::setcover::read_set_system(in);
    rep.add("setcover.read_s", seconds_since(tr));
    rep.add("setcover.incidences", double(sys.total_incidences()));
    for (std::size_t k = 0; k < names.size(); ++k) {
      mrlr::core::MrParams p;
      p.seed = seed;
      if (names[k] == "set-cover-greedy") {
        p.mu = flags.f64("sets-mu");
        specs[k] = mrlr::jobs::set_system_job(names[k], sys, p);
        specs[k].extras["eps"] = {mrlr::core::pack_double(flags.f64("eps"))};
      } else {
        p.mu = flags.f64("mu");
        specs[k] = mrlr::jobs::graph_job(names[k], g, p);
      }
    }
    auto daemon =
        std::make_unique<DaemonProcess>(self, flags.u64("max-running"));
    rep.add("setup_s", seconds_since(t));
    return daemon;
  };
  const std::uint64_t reps_after = setup_reps_after(flags);
  std::unique_ptr<DaemonProcess> daemon;
  for (std::uint64_t i = reps_after; i < flags.u64("setup-reps"); ++i) {
    daemon.reset();  // the previous repetition's daemon, outside timing
    daemon = set_up();
  }

  // Standalone references, and the spec decode each job costs the daemon.
  std::vector<std::uint64_t> want(names.size());
  for (std::size_t k = 0; k < names.size(); ++k) {
    want[k] = reference_hash(flags, names[k], specs[k], rep);
    const auto bytes = mrlr::jobs::encode_job_spec(specs[k]);
    const Clock::time_point t = Clock::now();
    const JobSpec decoded = mrlr::jobs::decode_job_spec(bytes);
    const double decode_s = seconds_since(t);
    if (flags.u64("trace") != 0) rep.add("jobs.spec_decode_s", decode_s);
    if (decoded.instance != specs[k].instance) {
      rep.failures.push_back(names[k] + ": spec does not round-trip");
    }
  }

  // The fixed schedule: Poisson arrivals from the seed, and the kinds in
  // exact proportion to their shares, in an order shuffled by the seed, so
  // that every run has the same mix.
  const std::uint64_t jobs = flags.u64("jobs");
  std::mt19937_64 gen(seed ^ 0x5E12'7E0B'E4C4ull);
  std::exponential_distribution<double> gap(flags.f64("rate"));
  std::vector<std::size_t> cycle;
  for (std::size_t k = 0; k < names.size(); ++k) {
    cycle.insert(cycle.end(), shares[k], k);
  }
  std::vector<double> due_offset(jobs);
  std::vector<std::size_t> job_kind(jobs);
  double at = 0;
  for (std::uint64_t i = 0; i < jobs; ++i) {
    due_offset[i] = at;
    job_kind[i] = cycle[i % cycle.size()];
    at += gap(gen);
  }
  std::shuffle(job_kind.begin(), job_kind.end(), gen);

  std::vector<ServeOutcome> outcomes(jobs);
  std::atomic<std::uint64_t> next{0};
  const Clock::time_point start =
      Clock::now() + std::chrono::milliseconds(50);
  const mrlr::exec::Endpoint ep = daemon->endpoint();
  auto sender = [&] {
    for (std::uint64_t i = next.fetch_add(1); i < jobs; i = next.fetch_add(1)) {
      const auto due = start + std::chrono::duration_cast<Clock::duration>(
                                   std::chrono::duration<double>(due_offset[i]));
      outcomes[i] = submit_when_due(ep, specs[job_kind[i]], due,
                                    want[job_kind[i]]);
    }
  };

  const double cpu0 = process_tree_cpu_seconds(daemon->pid());
  NoiseWindow noise;
  {
    std::vector<std::thread> threads;
    for (std::uint64_t c = 0; c < flags.u64("conns"); ++c) {
      threads.emplace_back(sender);
    }
    for (auto& th : threads) th.join();
  }
  rep.noise = noise.finish();
  const auto stats = mrlr::serve::ServeClient(ep).stats();
  const double cpu = process_tree_cpu_seconds(daemon->pid()) - cpu0;
  const double daemon_peak_rss_mb = daemon->stop();
  if (daemon_peak_rss_mb < 0) {
    throw std::runtime_error("daemon did not report its peak RSS");
  }
  // Each daemon is shut down as the statement ends, outside its timing.
  for (std::uint64_t i = 0; i < reps_after; ++i) set_up();

  double completed = 0;
  for (std::uint64_t i = 0; i < jobs; ++i) {
    const ServeOutcome& o = outcomes[i];
    ++rep.attempted;
    rep.add("lateness_s", o.lateness);
    if (!o.done) {
      ++rep.failed;
      rep.failures.push_back(names[job_kind[i]] + " job " +
                             std::to_string(i) + ": " + o.error);
      continue;
    }
    ++completed;
    rep.add("latency_s", o.latency);
    rep.add("serve.latency_s." + names[job_kind[i]], o.latency);
    rep.add("rounds", o.rounds);
    rep.add("space_headroom", o.headroom);
    rep.add("serve.connect_s", o.connect);
    rep.add("serve.admit_s", o.admit);
    rep.add("serve.result_wait_s", o.wait);
    rep.add("serve.queue_wait_s", o.queue_wait);
    rep.add("serve.job_run_s", o.run);
  }
  rep.values["cpu_s"] = completed > 0 ? cpu / completed : 0;
  rep.values["serve.jobs_rejected"] = double(stats.jobs_rejected);
  rep.values["serve.jobs_failed"] = double(stats.jobs_failed);
  rep.values["peak_rss_mb"] = daemon_peak_rss_mb;
  rep.print();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: %s batch|serve|daemon --flag value ...\n",
                 argv[0]);
    return 2;
  }
  try {
    const Flags flags(argc, argv);
    const std::string mode = argv[1];
    if (mode == "batch") return run_batch(flags);
    if (mode == "serve") {
      return run_serve(flags, std::filesystem::canonical("/proc/self/exe"));
    }
    if (mode == "daemon") return run_daemon(flags);
    std::fprintf(stderr, "unknown mode %s\n", mode.c_str());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_harness: %s\n", e.what());
    return 1;
  }
}
