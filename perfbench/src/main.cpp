// request_path: wall-clock cost of InfoGram requests over the one endpoint.
//
//   request_path --workload <info_hot|info_cold|job_mix> --seed <n>
//                --seconds <s> --trace <0|1> --work-dir <dir>
//                [--spans-out <file>]
//
// Two client threads drive InfoGramClient -> net::Network ->
// InfoGramService in a closed loop (each waits for its reply, as grid
// brokers and portals do) against the deployment in deployment.hpp.
//
// --trace 0 measures the end-to-end metrics: throughput, round-trip
// latency, memory and set-up time. --trace 1 measures the per-layer
// ledger: half the time untraced (the reference for the tracing overhead
// and the counters read from the program), half traced, replaying every
// request through each layer's public entry point (ledger.hpp). A workload
// whose stream has no jobs then runs a short job probe, so the gram layer
// is timed on every workload.
//
// Every run checks its outputs: a seeded sample of info responses against
// the in-process InfoGramService::execute result, every job through
// GRAM_WAIT to DONE, and a cost probe showing that simulated command
// costs advance the virtual clock instead of the wall clock. The last
// line of stdout is one JSON object; any failed check makes it
// "correct": false and the exit code non-zero.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <numeric>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/fault.hpp"
#include "common/strings.hpp"
#include "deployment.hpp"
#include "ledger.hpp"
#include "obs/telemetry.hpp"
#include "workload.hpp"

namespace perfbench {
namespace {

using ig::core::InfoGramClient;
using ig::core::InfoGramResponse;

/// Set-ups per --trace 0 run; setup_s is their median. All run before any
/// job: on job_mix a set-up after the stream's leaked job threads takes
/// twice as long.
constexpr int kSetups = 25;
/// Throughput and latency are taken per wall-clock slice of this length
/// and reported as medians over the kQuietShare of the phase's full slices
/// with the least CPU steal (see SliceSummary).
constexpr std::int64_t kSliceNs = 500000000;
constexpr double kQuietShare = 0.25;
/// Untimed load before measuring: the first second runs ~25% off steady state.
constexpr double kWarmupSeconds = 1.0;
/// Output-check samples kept per client and phase.
constexpr std::size_t kMaxSamples = 256;
/// Fresh connections timed for security.handshake_ns.
constexpr int kHandshakes = 16;
/// Every job leaks two never-joined threads (README.md, "Known defect");
/// stop well before the process's mapping limit turns that into an abort.
constexpr std::uint64_t kJobGuard = 12000;
/// Simulated cost the probe adds to every command execution.
constexpr ig::Duration kProbeCost = ig::ms(200);

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir;
  std::string spans_out;
};

bool parse_args(int argc, char** argv, Args& args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string key = argv[i];
    std::string value = argv[i + 1];
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      args.trace = value == "1";
    } else if (key == "--work-dir") {
      args.work_dir = value;
    } else if (key == "--spans-out") {
      args.spans_out = value;
    } else {
      return false;
    }
  }
  return (argc % 2) == 1 && !args.workload.empty() && !args.work_dir.empty() &&
         args.seconds > 0.0 && args.seconds <= 60.0;
}

/// A field of /proc/self/status in kB ("VmHWM", "VmSize"); 0 if absent.
long proc_status_kb(const std::string& field) {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(field + ":", 0) == 0) return std::strtol(line.c_str() + field.size() + 1, nullptr, 10);
  }
  return 0;
}

/// Steal and total ticks of the machine's CPUs ("cpu" line of /proc/stat).
struct CpuTicks {
  std::uint64_t steal = 0;
  std::uint64_t total = 0;
};

CpuTicks cpu_ticks() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;
  CpuTicks t;
  // user nice system idle iowait irq softirq steal; guest time is already
  // inside user.
  for (int field = 0; field < 8; ++field) {
    std::uint64_t v = 0;
    if (!(in >> v)) break;
    t.total += v;
    if (field == 7) t.steal = v;
  }
  return t;
}

/// The q-quantile (nearest rank) of `values`, which it sorts.
double percentile(std::vector<std::int64_t>& values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  std::size_t rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(values.size())));
  return static_cast<double>(values[std::min(values.size() - 1, rank == 0 ? 0 : rank - 1)]);
}

double median_of(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  std::size_t n = values.size();
  return n == 0 ? 0.0 : n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2.0;
}

/// What the wire response said, kept for the output check.
struct Sample {
  const Op* op = nullptr;
  bool schema = false;
  std::string served_format;
  std::vector<std::string> keywords;
  std::vector<std::set<std::string>> attributes;
};

/// The format the body is actually in (the client decoded it per the
/// response's format header, so this is what that header declared).
std::string sniff_format(const std::string& payload) {
  if (payload.rfind("dn:", 0) == 0) return "ldif";
  if (payload.rfind("<infogram", 0) == 0) return "xml";
  if (payload.rfind("<dsml:", 0) == 0) return "dsml";
  return "?";
}

Sample make_sample(const Op& op, const InfoGramResponse& response) {
  Sample s;
  s.op = &op;
  s.schema = response.schema.has_value();
  s.served_format = sniff_format(response.payload);
  for (const auto& record : response.records) {
    s.keywords.push_back(record.keyword);
    std::set<std::string> names;
    for (const auto& a : record.attributes) names.insert(a.name);
    s.attributes.push_back(std::move(names));
  }
  return s;
}

/// Round-trip latency of one client in one wall-clock slice of a phase.
struct SliceStats {
  std::uint32_t slice = 0;
  std::size_t count = 0;
  double p50_us = 0.0;
  double p99_us = 0.0;
};

/// Counters of one client thread in one phase.
struct LoopStats {
  /// Latencies of the current slice only: the benchmark's own memory must not
  /// grow with throughput, or peak_rss_mb would measure it.
  std::vector<std::int64_t> pending_ns;
  std::uint32_t pending_slice = 0;
  std::vector<SliceStats> slices;
  std::vector<std::int64_t> turnaround_ns;
  std::int64_t phase_start_ns = 0;
  std::uint64_t roundtrips = 0;
  std::uint64_t failed = 0;  ///< failed round trips, shed ones included
  std::uint64_t shed = 0;
  std::uint64_t failed_checks = 0;
  std::uint64_t info_requests = 0;
  std::uint64_t jobs_done = 0;
  std::vector<Sample> samples;
  std::string first_error;

  void fail(const std::string& what) {
    if (first_error.empty()) first_error = what;
  }
  void record(std::int64_t latency_ns, std::int64_t end_ns) {
    auto slice = static_cast<std::uint32_t>((end_ns - phase_start_ns) / kSliceNs);
    if (slice != pending_slice) close_slice();
    pending_slice = slice;
    pending_ns.push_back(latency_ns);
  }
  void close_slice() {
    if (pending_ns.empty()) return;
    const std::size_t count = pending_ns.size();
    const double p99 = percentile(pending_ns, 0.99) / 1e3;
    slices.push_back({pending_slice, count, percentile(pending_ns, 0.50) / 1e3, p99});
    pending_ns.clear();
  }
  /// Median over this client's slices of the slice p50.
  double p50_us() const {
    std::vector<double> p50;
    for (const SliceStats& s : slices) p50.push_back(s.p50_us);
    return median_of(p50);
  }
  void merge(const LoopStats& o) {
    slices.insert(slices.end(), o.slices.begin(), o.slices.end());
    turnaround_ns.insert(turnaround_ns.end(), o.turnaround_ns.begin(), o.turnaround_ns.end());
    roundtrips += o.roundtrips;
    failed += o.failed;
    shed += o.shed;
    failed_checks += o.failed_checks;
    info_requests += o.info_requests;
    jobs_done += o.jobs_done;
    samples.insert(samples.end(), o.samples.begin(), o.samples.end());
    if (first_error.empty()) first_error = o.first_error;
  }
};

/// The measured deployment, its clients and (traced runs) the replicas.
struct Bench {
  Workload workload;
  std::unique_ptr<Deployment> wire;
  std::vector<std::unique_ptr<InfoGramClient>> clients;
  std::vector<std::unique_ptr<Deployment>> replicas;
  ReplayTargets targets;
  std::atomic<std::uint64_t> jobs_submitted{0};
  std::atomic<bool> guard_hit{false};
  std::uint64_t trace_buffers = 0;  ///< TraceBuffers made so far: keeps trace ids unique
};

/// One closed-loop client thread for one phase.
class ClientLoop {
 public:
  ClientLoop(Bench& bench, std::size_t client, const std::vector<Op>& ring, LoopStats& stats,
             TraceBuffer* traces)
      : bench_(bench), client_(*bench.clients[client]), ring_(ring), stats_(stats),
        traces_(traces) {}

  /// Run ops from the start of `ring` until `stop` (or `max_ops`).
  void run(const std::atomic<bool>& stop, std::size_t max_ops = SIZE_MAX) {
    for (std::size_t i = 0; i < max_ops && !stop.load(std::memory_order_relaxed); ++i) {
      step(ring_[i % ring_.size()]);
    }
  }

  void step(const Op& op) {
    bench_.wire->clock.advance(bench_.workload.clock_step);
    if (op.kind == OpKind::kJob) {
      job_cycle(op);
    } else {
      info(op);
    }
  }

 private:
  /// One timed round trip; returns whether `call` succeeded.
  template <typename Call>
  bool roundtrip(Call&& call, std::int64_t& start, std::int64_t& end) {
    start = now_ns();
    bool ok = call();
    end = now_ns();
    ++stats_.roundtrips;
    stats_.record(end - start, end);
    return ok;
  }

  void failed(const ig::Error& error) {
    ++stats_.failed;
    if (error.to_string().find("admission queue full") != std::string::npos) ++stats_.shed;
    stats_.fail(error.to_string());
  }

  void info(const Op& op) {
    ig::TimePoint sent_at = bench_.wire->clock.now();
    ig::Result<InfoGramResponse> response = ig::Error(ig::ErrorCode::kInternal, "unsent");
    std::int64_t start = 0, end = 0;
    roundtrip([&] { return (response = client_.request(op.xrsl)).ok(); }, start, end);
    ++stats_.info_requests;
    if (!response.ok()) return failed(response.error());
    if (op.checked && stats_.samples.size() < kMaxSamples) {
      stats_.samples.push_back(make_sample(op, *response));
    }
    if (traces_ != nullptr) {
      std::uint64_t trace = traces_->root(Layer::kRequest, start, end);
      if (!replay_xrsl(*traces_, trace, op, *response, sent_at, bench_.targets)) {
        ++stats_.failed_checks;
        stats_.fail("replay failed for " + op.xrsl);
      }
    }
  }

  void job_cycle(const Op& op) {
    if (bench_.jobs_submitted.fetch_add(traces_ != nullptr ? 2 : 1) >= kJobGuard) {
      bench_.guard_hit.store(true);
      return;
    }
    ig::TimePoint sent_at = bench_.wire->clock.now();
    ig::Result<InfoGramResponse> submitted = ig::Error(ig::ErrorCode::kInternal, "unsent");
    std::int64_t submit_start = 0, start = 0, end = 0;
    roundtrip([&] { return (submitted = client_.request(op.xrsl)).ok(); }, submit_start, end);
    if (op.request.is_info()) ++stats_.info_requests;
    if (!submitted.ok()) return failed(submitted.error());
    if (!submitted->job_contact) {
      ++stats_.failed_checks;
      return stats_.fail("submit returned no contact: " + op.xrsl);
    }
    const std::string contact = *submitted->job_contact;
    if (op.request.is_info() && (submitted->records.size() != 1 ||
                                 submitted->records.front().keyword != "Memory" ||
                                 sniff_format(submitted->payload) != "ldif")) {
      ++stats_.failed_checks;
      stats_.fail("combined submit did not return one LDIF Memory record");
    }
    if (traces_ != nullptr) {
      std::uint64_t trace = traces_->root(Layer::kRequest, submit_start, end);
      if (!replay_xrsl(*traces_, trace, op, *submitted, sent_at, bench_.targets)) {
        ++stats_.failed_checks;
        stats_.fail("replay failed for " + op.xrsl);
      }
    }

    ig::Result<ig::gram::GramClient::RemoteStatus> status =
        ig::Error(ig::ErrorCode::kInternal, "unsent");
    bench_.wire->clock.advance(bench_.workload.clock_step);
    roundtrip([&] { return (status = client_.job_status(contact)).ok(); }, start, end);
    if (!status.ok()) return failed(status.error());
    traced_gram("GRAM_STATUS", contact, start, end);

    std::int64_t done_at = 0;
    for (int attempt = 0; attempt < 100; ++attempt) {
      bench_.wire->clock.advance(bench_.workload.clock_step);
      roundtrip([&] { return (status = client_.wait(contact, ig::seconds(30))).ok(); }, start,
                end);
      if (!status.ok()) return failed(status.error());
      traced_gram("GRAM_WAIT", contact, start, end);
      if (ig::exec::is_terminal(status->state)) {
        done_at = end;
        break;
      }
    }
    if (done_at == 0 || status->state != ig::exec::JobState::kDone || status->exit_code != 0) {
      ++stats_.failed_checks;
      return stats_.fail("job " + contact + " did not reach DONE through GRAM_WAIT");
    }
    ++stats_.jobs_done;
    stats_.turnaround_ns.push_back(done_at - submit_start);
  }

  void traced_gram(const std::string& verb, const std::string& contact, std::int64_t start,
                   std::int64_t end) {
    if (traces_ == nullptr) return;
    std::uint64_t trace = traces_->root(Layer::kRequest, start, end);
    if (!replay_gram(*traces_, trace, verb, contact, bench_.targets)) {
      ++stats_.failed_checks;
      stats_.fail("replay failed for " + verb);
    }
  }

  Bench& bench_;
  InfoGramClient& client_;
  const std::vector<Op>& ring_;
  LoopStats& stats_;
  TraceBuffer* traces_;
};

/// What one phase measured, plus the program's own counters over it.
struct Phase {
  LoopStats stats;
  double wall_seconds = 0.0;
  std::vector<Span> spans;
  ig::net::TrafficStats traffic;
  std::uint64_t fast_hits = 0;
  std::uint64_t executions = 0;
  std::size_t pool_highwater = 0;
  std::uint64_t pool_shed = 0;
  long vm_growth_kb = 0;
  std::int64_t virtual_us = 0;
  /// Share of the machine's CPU time stolen by other guests of its host.
  double steal_share = 0.0;
  /// The same per wall-clock slice.
  std::vector<double> slice_steal;
};

/// Run every client over its stream ring for `seconds` of wall time or,
/// with `probe`, once over its job-probe ring.
Phase run_phase(Bench& bench, double seconds, bool traced, bool probe = false) {
  Phase phase;
  Deployment& d = *bench.wire;
  ig::ThreadPool& pool = *d.service->pool();
  ig::obs::Counter& fast_hits = d.telemetry->metrics().counter(ig::obs::metric::kInfoCacheFastHits);
  ig::net::TrafficStats traffic_before = d.network.total_stats();
  std::uint64_t hits_before = fast_hits.value();
  std::uint64_t executions_before = d.registry->executions();
  std::uint64_t shed_before = pool.snapshot_and_reset_window().shed;
  long vm_before = proc_status_kb("VmSize");
  ig::TimePoint virtual_before = d.clock.now();
  CpuTicks ticks_before = cpu_ticks();

  const std::size_t n = bench.clients.size();
  std::vector<LoopStats> stats(n);
  std::vector<std::unique_ptr<TraceBuffer>> traces;
  for (std::size_t c = 0; c < n; ++c) {
    traces.push_back(traced ? std::make_unique<TraceBuffer>(bench.trace_buffers++) : nullptr);
    stats[c].pending_ns.reserve(1 << 16);
  }
  std::atomic<bool> stop{false};
  std::int64_t start = now_ns();
  for (LoopStats& s : stats) s.phase_start_ns = start;
  {
    std::vector<std::jthread> threads;
    for (std::size_t c = 0; c < n; ++c) {
      threads.emplace_back([&, c] {
        const std::vector<Op>& ring =
            probe ? bench.workload.job_probe[c] : bench.workload.streams[c];
        ClientLoop(bench, c, ring, stats[c], traces[c].get())
            .run(stop, probe ? ring.size() : SIZE_MAX);
      });
    }
    if (probe) seconds = 0.0;  // the threads stop at the end of their ring
    auto deadline = std::chrono::steady_clock::now() +
                    std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                        std::chrono::duration<double>(seconds));
    CpuTicks slice_ticks = ticks_before;
    auto sample_steal = [&] {
      if (now_ns() - start < static_cast<std::int64_t>(phase.slice_steal.size() + 1) * kSliceNs) {
        return;
      }
      CpuTicks t = cpu_ticks();
      phase.slice_steal.push_back(t.total > slice_ticks.total
                                      ? static_cast<double>(t.steal - slice_ticks.steal) /
                                            static_cast<double>(t.total - slice_ticks.total)
                                      : 0.0);
      slice_ticks = t;
    };
    while (std::chrono::steady_clock::now() < deadline && !bench.guard_hit.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
      sample_steal();
    }
    sample_steal();
    if (!probe) stop.store(true);
  }
  phase.wall_seconds = static_cast<double>(now_ns() - start) / 1e9;
  CpuTicks ticks_after = cpu_ticks();
  if (ticks_after.total > ticks_before.total) {
    phase.steal_share = static_cast<double>(ticks_after.steal - ticks_before.steal) /
                        static_cast<double>(ticks_after.total - ticks_before.total);
  }
  for (std::size_t c = 0; c < n; ++c) {
    stats[c].close_slice();
    phase.stats.merge(stats[c]);
    if (traces[c] != nullptr) {
      auto& spans = traces[c]->spans();
      phase.spans.insert(phase.spans.end(), spans.begin(), spans.end());
    }
  }
  ig::net::TrafficStats traffic_after = d.network.total_stats();
  phase.traffic.requests = traffic_after.requests - traffic_before.requests;
  phase.traffic.bytes_sent = traffic_after.bytes_sent - traffic_before.bytes_sent;
  phase.traffic.bytes_received = traffic_after.bytes_received - traffic_before.bytes_received;
  phase.traffic.virtual_time = traffic_after.virtual_time - traffic_before.virtual_time;
  phase.fast_hits = fast_hits.value() - hits_before;
  phase.executions = d.registry->executions() - executions_before;
  ig::ThreadPool::Stats pool_after = pool.stats();
  phase.pool_highwater = pool_after.window_highwater;
  phase.pool_shed = pool_after.shed - shed_before;
  phase.vm_growth_kb = proc_status_kb("VmSize") - vm_before;
  phase.virtual_us = (d.clock.now() - virtual_before).count();
  return phase;
}

/// Send one request per keyword through the clients (connecting and
/// authenticating them on first use) so every provider publishes once.
bool warm_providers(Bench& bench) {
  const auto& keywords = bench.wire->monitor->keywords();
  for (std::size_t i = 0; i < keywords.size(); ++i) {
    InfoGramClient& client = *bench.clients[i % bench.clients.size()];
    auto r = client.request("&(info=" + keywords[i] + ")");
    if (!r.ok()) {
      std::fprintf(stderr, "warm-up query %s failed: %s\n", keywords[i].c_str(),
                   r.error().to_string().c_str());
      return false;
    }
  }
  return true;
}

DeploymentOptions deployment_options(const Args& args, const std::string& name, bool telemetry) {
  DeploymentOptions options;
  options.seed = args.seed;
  options.telemetry = telemetry;
  if (args.workload == "job_mix") {
    options.checkpoint_log = (std::filesystem::path(args.work_dir) / (name + ".log")).string();
  }
  return options;
}

/// The timed set-up: CA and credentials, service construction and start,
/// connect plus handshake, and warm-up until every provider published.
bool set_up(Bench& bench, const Args& args, int index) {
  bench.wire = std::make_unique<Deployment>(
      deployment_options(args, "wire" + std::to_string(index), true));
  for (std::size_t c = 0; c < bench.workload.clients; ++c) {
    bench.clients.push_back(bench.wire->client());
  }
  return warm_providers(bench);
}

/// Traced runs: the replicas and the handshake timings.
bool set_up_ledger(Bench& bench, const Args& args, std::vector<Span>& spans) {
  const char* names[] = {"execute", "info", "async", "bare_execute", "bare_async"};
  for (const char* name : names) {
    const bool telemetry = std::string(name).rfind("bare", 0) != 0;
    bench.replicas.push_back(
        std::make_unique<Deployment>(deployment_options(args, name, telemetry)));
    Deployment& replica = *bench.replicas.back();
    for (const std::string& keyword : replica.monitor->keywords()) {
      auto request = ig::rsl::XrslRequest::parse("&(info=" + keyword + ")");
      if (!request.ok() || !replica.service->execute(*request, kSubject, kLocalUser).ok()) {
        std::fprintf(stderr, "replica %s warm-up of %s failed\n", name, keyword.c_str());
        return false;
      }
    }
  }
  bench.targets.wire = bench.wire.get();
  bench.targets.execute = bench.replicas[0].get();
  bench.targets.info = bench.replicas[1].get();
  bench.targets.async = bench.replicas[2].get();
  bench.targets.bare_execute = bench.replicas[3].get();
  bench.targets.bare_async = bench.replicas[4].get();
  bench.targets.audited = args.workload == "job_mix";

  TraceBuffer buffer(bench.trace_buffers++);
  Deployment& d = *bench.wire;
  for (int i = 0; i < kHandshakes; ++i) {
    auto conn = d.network.connect(d.service->address());
    if (!conn.ok()) return false;
    std::int64_t start = now_ns();
    auto auth = ig::security::authenticate(**conn, d.user, d.trust, d.clock);
    std::int64_t end = now_ns();
    if (!auth.ok()) return false;
    std::uint64_t trace = buffer.root(Layer::kConnect, start, end);
    Span& span = buffer.child(trace, Layer::kHandshake, start, end);
    span.self_ns = 0;  // not part of any request's ledger
  }
  spans = buffer.spans();
  return true;
}

/// Compare each sampled wire response with execute() of the same request.
std::uint64_t check_samples(Bench& bench, const std::vector<Sample>& samples, std::string& error) {
  std::uint64_t mismatches = 0;
  auto mismatch = [&](const Sample& s, const std::string& what) {
    ++mismatches;
    if (error.empty()) error = "output check: " + what + " for " + s.op->xrsl;
  };
  for (const Sample& s : samples) {
    const ig::rsl::XrslRequest& request = s.op->request;
    auto expected = bench.wire->service->execute(request, kSubject, kLocalUser);
    if (!expected.ok()) {
      mismatch(s, "execute failed: " + expected.error().to_string());
      continue;
    }
    if (request.wants_schema) {
      if (!s.schema || !expected->schema) mismatch(s, "schema missing");
      continue;
    }
    if (s.served_format != ig::rsl::to_string(request.format)) {
      mismatch(s, "served format " + s.served_format);
    }
    if (s.keywords.size() != expected->record_count()) {
      mismatch(s, "record count");
      continue;
    }
    for (std::size_t i = 0; i < s.keywords.size(); ++i) {
      const ig::format::InfoRecord* record = expected->record(i);
      std::set<std::string> names;
      for (const auto& a : record->attributes) names.insert(a.name);
      if (record->keyword != s.keywords[i]) mismatch(s, "keyword " + s.keywords[i]);
      if (names != s.attributes[i]) mismatch(s, "attribute set of " + s.keywords[i]);
    }
  }
  return mismatches;
}

/// Show that simulated command costs never reach the wall clock: replay
/// one client's ring with every command execution costing kProbeCost more
/// simulated time, then the same ops at normal cost. If any cost were
/// slept, the inflated pass would take at least the added simulated time.
bool cost_probe(Bench& bench, std::string& report) {
  Deployment& d = *bench.wire;
  const std::vector<Op>& ring = bench.workload.streams[0];
  LoopStats inflated, normal;
  inflated.phase_start_ns = now_ns();
  ClientLoop inflated_loop(bench, 0, ring, inflated, nullptr);

  ig::FaultPlan plan;
  ig::FaultSpec spec;
  spec.kind = ig::FaultKind::kLatency;
  spec.latency = kProbeCost;
  plan.add(ig::fault_point::kExecRun, spec);
  d.registry->set_fault_injector(std::make_shared<ig::FaultInjector>(plan));
  std::uint64_t executions_before = d.registry->executions();
  std::int64_t start = now_ns();
  std::size_t ops = 0;
  while ((d.registry->executions() - executions_before < 16 || ops < 256) && ops < 20000 &&
         !bench.guard_hit.load()) {
    inflated_loop.step(ring[ops++ % ring.size()]);
  }
  std::int64_t inflated_ns = now_ns() - start;
  std::uint64_t executions = d.registry->executions() - executions_before;
  d.registry->set_fault_injector(nullptr);

  normal.phase_start_ns = now_ns();
  ClientLoop normal_loop(bench, 0, ring, normal, nullptr);
  start = now_ns();
  for (std::size_t i = 0; i < ops; ++i) normal_loop.step(ring[i % ring.size()]);
  std::int64_t normal_ns = now_ns() - start;
  inflated.close_slice();
  normal.close_slice();

  const double added_ns = static_cast<double>(executions) * static_cast<double>(kProbeCost.count()) * 1e3;
  const bool pass = inflated.failed + normal.failed + inflated.failed_checks +
                            normal.failed_checks ==
                        0 &&
                    executions >= 16 &&
                    static_cast<double>(inflated_ns - normal_ns) < 0.25 * added_ns;
  report = ig::strings::format(
      "%zu ops, %llu command runs +%lld ms simulated each: wall %.3f ms (normal %.3f ms), "
      "p50 %.2f us (normal %.2f us)",
      ops, static_cast<unsigned long long>(executions),
      static_cast<long long>(kProbeCost.count() / 1000), static_cast<double>(inflated_ns) / 1e6,
      static_cast<double>(normal_ns) / 1e6, inflated.p50_us(), normal.p50_us());
  return pass;
}

/// Per-layer metrics of the ledger table, in output order.
struct LayerMetric {
  const char* name;
  const char* unit;
  Layer layer;
  bool allocs;  ///< median allocs instead of median ns
};

const std::vector<LayerMetric>& layer_metrics() {
  static const std::vector<LayerMetric> kMetrics = {
      {"net.frame_ns", "ns", Layer::kNetFrame, false},
      {"common.pool_hop_ns", "ns", Layer::kPoolHop, false},
      {"rsl.parse_ns", "ns", Layer::kRslParse, false},
      {"rsl.parse_allocs", "count", Layer::kRslParse, true},
      {"security.authorize_ns", "ns", Layer::kAuthorize, false},
      {"security.handshake_ns", "ns", Layer::kHandshake, false},
      {"info.query_ns", "ns", Layer::kInfoQuery, false},
      {"info.query_allocs", "count", Layer::kInfoQuery, true},
      {"format.render_ns.ldif", "ns", Layer::kRenderLdif, false},
      {"format.render_ns.xml", "ns", Layer::kRenderXml, false},
      {"format.render_ns.dsml", "ns", Layer::kRenderDsml, false},
      {"format.render_allocs.ldif", "count", Layer::kRenderLdif, true},
      {"format.render_allocs.xml", "count", Layer::kRenderXml, true},
      {"format.render_allocs.dsml", "count", Layer::kRenderDsml, true},
      {"format.decode_ns.ldif", "ns", Layer::kDecodeLdif, false},
      {"format.decode_ns.xml", "ns", Layer::kDecodeXml, false},
      {"format.decode_ns.dsml", "ns", Layer::kDecodeDsml, false},
      {"format.decode_allocs.ldif", "count", Layer::kDecodeLdif, true},
      {"format.decode_allocs.xml", "count", Layer::kDecodeXml, true},
      {"format.decode_allocs.dsml", "count", Layer::kDecodeDsml, true},
      {"core.execute_ns", "ns", Layer::kCoreExecute, false},
      {"core.execute_allocs", "count", Layer::kCoreExecute, true},
      {"obs.floor_ns", "ns", Layer::kObsFloor, false},
      {"gram.submit_ns", "ns", Layer::kGramSubmit, false},
      {"logging.append_ns", "ns", Layer::kLoggingAppend, false},
  };
  return kMetrics;
}

/// Layers whose spans every traced run of `workload` must contain. Every
/// workload meets a TTL expiry, so every one runs the full info path; the
/// gram layers come from the job probe where the stream has no jobs.
std::vector<Layer> required_layers(const std::string& workload) {
  std::vector<Layer> layers = {
      Layer::kHandshake,  Layer::kNetFrame,   Layer::kRslParse,   Layer::kAuthorize,
      Layer::kInfoQuery,  Layer::kLoggingAppend, Layer::kCoreExecute, Layer::kPoolHop,
      Layer::kObsFloor,   Layer::kGramSubmit, Layer::kGramStatus, Layer::kGramWait,
      Layer::kRenderLdif, Layer::kDecodeLdif, Layer::kDecodeXml,  Layer::kDecodeDsml};
  if (workload == "info_hot") {
    layers.push_back(Layer::kInfoSnapshot);
  } else {
    // info_hot renders XML and DSML only on its rare snapshot misses.
    layers.insert(layers.end(), {Layer::kRenderXml, Layer::kRenderDsml});
  }
  if (workload == "info_cold") {
    layers.insert(layers.end(), {Layer::kRenderSchema, Layer::kDecodeSchema});
  }
  return layers;
}

class Report {
 public:
  void metric(const std::string& name, double value, const std::string& unit, bool json) {
    std::printf("metric %-28s %16.6f %s\n", name.c_str(), value, unit.c_str());
    if (json) json_.push_back({name, value, unit});
  }
  void model(const std::string& name, double value, const std::string& unit, bool json) {
    std::printf("model  %-28s %16.6f %s  (model result: simulated time, not wall clock)\n",
                name.c_str(), value, unit.c_str());
    if (json) json_.push_back({name, value, unit});
  }
  void check(const std::string& name, bool pass, const std::string& detail) {
    std::printf("check  %-28s %s  %s\n", name.c_str(), pass ? "pass" : "FAIL", detail.c_str());
    correct_ = correct_ && pass;
  }
  bool correct() const { return correct_; }

  void print_json(std::uint64_t attempted, std::uint64_t failed) const {
    std::string out = ig::strings::format(
        "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
        correct_ ? "true" : "false", static_cast<unsigned long long>(attempted),
        static_cast<unsigned long long>(failed));
    for (std::size_t i = 0; i < json_.size(); ++i) {
      out += ig::strings::format("%s\"%s\": {\"value\": %.12g, \"unit\": \"%s\"}",
                                 i == 0 ? "" : ", ", json_[i].name.c_str(), json_[i].value,
                                 json_[i].unit.c_str());
    }
    out += "}}";
    std::printf("%s\n", out.c_str());
  }

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> json_;
  bool correct_ = true;
};

/// Throughput and latency of a phase: medians over the quietest quarter of
/// its full wall-clock slices, those with the least CPU steal (for the
/// latencies, over every client's share of those slices). Other guests of
/// the machine steal CPU in bursts, and a burst inflates the tail of every
/// request it meets; the benchmark measures the program, not its neighbours.
struct SliceSummary {
  double ops_per_s = 0.0;
  double p50_us = 0.0;
  double p99_us = 0.0;
  std::size_t slices = 0;  ///< slices the medians are taken over
  std::size_t full = 0;    ///< full slices in the phase
  std::size_t samples = 0;
  std::string counts;  ///< round trips per kept slice
};

SliceSummary summarize_slices(const Phase& phase) {
  // A phase shorter than one slice counts its one partial slice.
  const auto full = static_cast<std::uint32_t>(phase.wall_seconds * 1e9 / kSliceNs);
  const double slice_seconds = full == 0 ? phase.wall_seconds : kSliceNs / 1e9;
  auto steal = [&](std::uint32_t slice) {
    return slice < phase.slice_steal.size() ? phase.slice_steal[slice] : 0.0;
  };
  std::vector<std::uint32_t> order(full);
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(),
                   [&](std::uint32_t a, std::uint32_t b) { return steal(a) < steal(b); });
  order.resize(std::max<std::size_t>(
      1, static_cast<std::size_t>(std::ceil(kQuietShare * static_cast<double>(full)))));
  const std::set<std::uint32_t> kept(order.begin(), order.end());

  std::map<std::uint32_t, std::size_t> per_slice;
  std::vector<double> p50, p99;
  SliceSummary out;
  out.full = full;
  for (const SliceStats& sl : phase.stats.slices) {
    if (full > 0 && kept.count(sl.slice) == 0) continue;
    per_slice[sl.slice] += sl.count;
    p50.push_back(sl.p50_us);
    p99.push_back(sl.p99_us);
    out.samples += sl.count;
  }
  std::vector<double> ops;
  for (const auto& [slice, count] : per_slice) {
    ops.push_back(static_cast<double>(count) / slice_seconds);
    out.counts += ' ';
    out.counts += std::to_string(count);
  }
  out.ops_per_s = median_of(ops);
  out.p50_us = median_of(p50);
  out.p99_us = median_of(p99);
  out.slices = per_slice.size();
  return out;
}

/// Metrics every run derives from one untraced phase.
void report_phase(Report& report, const Phase& phase, bool json_e2e, bool json_layer) {
  const LoopStats& s = phase.stats;
  const double roundtrips = static_cast<double>(std::max<std::uint64_t>(1, s.roundtrips));
  const SliceSummary sum = summarize_slices(phase);
  report.metric("ops_per_s", sum.ops_per_s, "1/s", json_e2e);
  report.metric("latency_p50_us", sum.p50_us, "us", json_e2e);
  report.metric("latency_p99_us", sum.p99_us, "us", json_e2e);
  std::printf("info   medians over the %zu of %zu full 0.5 s slices with the least CPU steal "
              "(latencies per client and slice), %zu latency samples; round trips per kept "
              "slice:%s\n",
              sum.slices, sum.full, sum.samples, sum.counts.c_str());
  std::string steal;
  for (double x : phase.slice_steal) steal += ig::strings::format(" %.1f", x * 100.0);
  std::printf("info   CPU steal during the phase: %.1f%% of the machine's CPU time; per slice:%s\n",
              phase.steal_share * 100.0, steal.c_str());
  std::printf("info   round trips %llu, shed %llu, failed %llu, failed checks %llu\n",
              static_cast<unsigned long long>(s.roundtrips),
              static_cast<unsigned long long>(s.shed), static_cast<unsigned long long>(s.failed),
              static_cast<unsigned long long>(s.failed_checks));
  const double info = static_cast<double>(std::max<std::uint64_t>(1, s.info_requests));
  report.metric("net.wire_bytes_per_op",
                static_cast<double>(phase.traffic.bytes_sent + phase.traffic.bytes_received) /
                    roundtrips,
                "B", json_layer);
  report.model("net.model_us_per_op",
               static_cast<double>(phase.traffic.virtual_time.count()) / roundtrips, "model_us",
               json_layer);
  report.model("sim.virtual_us_per_op", static_cast<double>(phase.virtual_us) / roundtrips,
               "model_us", false);
  report.metric("common.pool_highwater", static_cast<double>(phase.pool_highwater), "count",
                json_layer);
  report.metric("common.pool_shed", static_cast<double>(phase.pool_shed), "count", json_layer);
  report.metric("info.snapshot_hit_ratio", static_cast<double>(phase.fast_hits) / info, "ratio",
                json_layer);
  // Each job runs one command (/bin/echo); the rest are provider refreshes.
  const double refreshes =
      static_cast<double>(phase.executions) - static_cast<double>(s.jobs_done);
  report.metric("info.refreshes_per_op", std::max(0.0, refreshes) / info, "ratio", json_layer);
}

/// Job metrics of an untraced phase that ran jobs.
void report_jobs(Report& report, const Phase& phase, bool json) {
  const LoopStats& s = phase.stats;
  std::printf("info   jobs completed %llu, turnaround over %zu samples\n",
              static_cast<unsigned long long>(s.jobs_done), s.turnaround_ns.size());
  std::vector<std::int64_t> turnaround = s.turnaround_ns;
  report.metric("job_turnaround_p50_us", percentile(turnaround, 0.50) / 1e3, "us", json);
  // Each completed job leaves two never-joined threads behind (README.md,
  // "Known defect"); this is their address space.
  report.metric("gram.vm_kb_per_job",
                s.jobs_done == 0 ? 0.0
                                 : static_cast<double>(phase.vm_growth_kb) /
                                       static_cast<double>(s.jobs_done),
                "kB", json);
}

int run(const Args& args) {
  Bench bench;
  bench.workload = make_workload(args.workload, args.seed);
  if (bench.workload.name.empty()) {
    std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
    return 2;
  }
  std::filesystem::create_directories(args.work_dir);
  const Workload& w = bench.workload;
  std::printf("workload %s seed %llu trace %d seconds %.3g\n", w.name.c_str(),
              static_cast<unsigned long long>(args.seed), args.trace ? 1 : 0, args.seconds);
  std::printf("info   clients %zu (closed loop), clock step %lld us per request, mix: %s\n",
              w.clients, static_cast<long long>(w.clock_step.count()), w.mix.c_str());
  std::printf("info   stream digest %016llx (%zu ops per client ring)\n",
              static_cast<unsigned long long>(w.digest), w.streams.front().size());

  Report report;
  std::vector<double> setup_seconds;
  const int setups = args.trace ? 1 : kSetups;
  for (int i = 0; i < setups; ++i) {
    // The previous set-up's teardown is not part of this one.
    bench.clients.clear();
    bench.wire.reset();
    std::int64_t start = now_ns();
    if (!set_up(bench, args, i)) return 3;
    setup_seconds.push_back(static_cast<double>(now_ns() - start) / 1e9);
  }
  std::vector<Span> spans;
  if (args.trace && !set_up_ledger(bench, args, spans)) {
    std::fprintf(stderr, "ledger set-up failed\n");
    return 3;
  }

  Phase warm = run_phase(bench, kWarmupSeconds, false);
  report.check("warmup", warm.stats.failed + warm.stats.failed_checks == 0,
               warm.stats.first_error);
  LoopStats all;
  std::uint64_t attempted = 0;
  if (!args.trace) {
    Phase phase = run_phase(bench, args.seconds, false);
    report_phase(report, phase, true, false);
    if (!phase.stats.turnaround_ns.empty()) report_jobs(report, phase, false);
    attempted = phase.stats.roundtrips;
    all.merge(phase.stats);
  } else {
    Phase untraced = run_phase(bench, args.seconds / 2, false);
    report_phase(report, untraced, false, true);
    Phase traced = run_phase(bench, args.seconds / 2, true);
    std::vector<const Phase*> phases = {&untraced, &traced};
    // A workload without jobs runs its job probe after the stream: once
    // untraced for the job metrics, once traced for gram.submit.
    Phase probe, probe_traced;
    if (!w.job_probe.empty()) {
      probe = run_phase(bench, 0.0, false, true);
      probe_traced = run_phase(bench, 0.0, true, true);
      phases.insert(phases.end(), {&probe, &probe_traced});
      std::printf("info   job metrics and gram.submit_ns from the %zu-job probe after the stream\n",
                  probe.stats.jobs_done);
    }
    report_jobs(report, w.job_probe.empty() ? untraced : probe, true);
    for (const Phase* phase : phases) {
      attempted += phase->stats.roundtrips;
      all.merge(phase->stats);
    }
    spans.insert(spans.end(), traced.spans.begin(), traced.spans.end());

    // The stream's ledger; the probe's spans fill in the layers only the
    // probe runs and are not mixed into the stream's figures.
    LedgerSummary ledger = summarize(spans);
    LedgerSummary probe_ledger = summarize(probe_traced.spans);
    auto layer_value = [&](Layer layer, bool allocs) {
      for (const LedgerSummary* l : {&ledger, &probe_ledger}) {
        const auto& source = allocs ? l->median_allocs : l->median_ns;
        if (auto it = source.find(layer); it != source.end()) return it->second;
      }
      return 0.0;
    };
    for (const LayerMetric& m : layer_metrics()) {
      report.metric(m.name, layer_value(m.layer, m.allocs), m.unit, true);
    }
    report.metric("bench.unattributed_share", ledger.unattributed_share, "ratio", true);
    // The traced phase's round-trip latencies are its `request` root spans.
    const double untraced_p50 = summarize_slices(untraced).p50_us;
    report.metric("bench.trace_overhead_ratio",
                  untraced_p50 > 0.0 ? summarize_slices(traced).p50_us / untraced_p50 : 0.0,
                  "ratio", true);
    std::printf("info   traced round trips %llu, spans %zu (+%zu probe)\n",
                static_cast<unsigned long long>(traced.stats.roundtrips), spans.size(),
                probe_traced.spans.size());
    for (const LedgerSummary* l : {&ledger, &probe_ledger}) {
      for (const auto& [layer, n] : l->samples) {
        std::printf("span   %-22s %s samples %8zu  median %12.1f ns\n", layer_name(layer),
                    l == &ledger ? "stream" : "probe ", n, l->median_ns.at(layer));
      }
    }
    report.check("ledger.nesting", ledger.nested && probe_ledger.nested,
                 ledger.nesting_error + probe_ledger.nesting_error);
    std::string missing;
    for (Layer layer : required_layers(w.name)) {
      if (ledger.samples.count(layer) == 0 && probe_ledger.samples.count(layer) == 0) {
        missing += std::string(" ") + layer_name(layer);
      }
    }
    report.check("ledger.layers", missing.empty(),
                 missing.empty() ? "every layer of the workload timed" : "not timed:" + missing);
    spans.insert(spans.end(), probe_traced.spans.begin(), probe_traced.spans.end());
    if (!args.spans_out.empty() && !write_spans(args.spans_out, spans)) {
      report.check("ledger.write", false, "cannot write " + args.spans_out);
    }
  }

  std::string error;
  std::uint64_t mismatches = check_samples(bench, all.samples, error);
  report.check("output.samples", mismatches == 0,
               ig::strings::format("%zu responses compared with execute()", all.samples.size()) +
                   (error.empty() ? "" : "; " + error));
  report.check("output.requests", all.failed + all.failed_checks == 0,
               all.first_error.empty() ? "every round trip succeeded, every job DONE"
                                       : all.first_error);
  const std::uint64_t failed = all.failed + all.failed_checks + mismatches;
  report.metric("error_ratio",
                static_cast<double>(failed) / static_cast<double>(std::max<std::uint64_t>(1, attempted)),
                "ratio", args.trace);
  std::string probe;
  report.check("wall_clock_not_slept", cost_probe(bench, probe), probe);
  report.check("job_guard", !bench.guard_hit.load(),
               ig::strings::format("%llu jobs submitted in this process (guard %llu)",
                                   static_cast<unsigned long long>(bench.jobs_submitted.load()),
                                   static_cast<unsigned long long>(kJobGuard)));

  if (!args.trace) {
    report.metric("peak_rss_mb", static_cast<double>(proc_status_kb("VmHWM")) / 1024.0, "MB",
                  true);
    report.metric("setup_s", median_of(setup_seconds), "s", true);
    std::string all_setups;
    for (double t : setup_seconds) all_setups += ig::strings::format(" %.2f", t * 1e3);
    std::printf("info   set-up times (ms):%s\n", all_setups.c_str());
  }
  bench.clients.clear();
  bench.replicas.clear();
  bench.wire.reset();
  std::error_code ignored;
  for (const auto& entry : std::filesystem::directory_iterator(args.work_dir, ignored)) {
    if (entry.path().extension() == ".log") std::filesystem::remove(entry.path(), ignored);
  }
  report.print_json(attempted, failed);
  return report.correct() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: request_path --workload <info_hot|info_cold|job_mix> --seed <n> "
                 "--seconds <s> --trace <0|1> --work-dir <dir> [--spans-out <file>]\n");
    return 2;
  }
  std::setvbuf(stdout, nullptr, _IOLBF, 0);
  return perfbench::run(args);
}
