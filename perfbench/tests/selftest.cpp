// Self-checks of the benchmark's own machinery: the ledger arithmetic and
// the seeded request generator. Exits non-zero on the first failed check.
//
//   ctest --test-dir <build>      (or run perfbench_selftest directly)
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "ledger.hpp"
#include "workload.hpp"

namespace {

int failures = 0;

void check(bool ok, const std::string& what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what.c_str());
    ++failures;
  }
}

bool near(double a, double b) { return std::fabs(a - b) < 1e-9; }

using perfbench::Layer;
using perfbench::Span;
using perfbench::TraceBuffer;

/// Self times that cover part of the root leave the rest unattributed;
/// medians are taken per layer over each span's value.
void ledger_sums_self_times() {
  TraceBuffer buffer(0);
  std::uint64_t a = buffer.root(Layer::kRequest, 0, 1000);
  buffer.child(a, Layer::kRslParse, 1000, 1300);
  Span& hop = buffer.child(a, Layer::kPoolHop, 1300, 1500);
  hop.value_ns = 150;  // a difference metric: value differs from duration
  hop.self_ns = 150;
  std::uint64_t b = buffer.root(Layer::kRequest, 2000, 3000);
  buffer.child(b, Layer::kRslParse, 3000, 3500);
  // A connection root's children add no request ledger time.
  std::uint64_t c = buffer.root(Layer::kConnect, 4000, 5000);
  buffer.child(c, Layer::kHandshake, 4000, 5000).self_ns = 0;

  perfbench::LedgerSummary s = perfbench::summarize(buffer.spans());
  check(s.nested, "well-formed spans nest: " + s.nesting_error);
  check(near(s.median_ns.at(Layer::kRslParse), 400.0), "rsl.parse median of 300 and 500");
  check(near(s.median_ns.at(Layer::kPoolHop), 150.0), "pool hop reports its value, not duration");
  check(s.samples.at(Layer::kRslParse) == 2, "two rsl.parse samples");
  check(s.samples.at(Layer::kHandshake) == 1, "handshake counted under its connect root");
  // Roots: 2000 ns; self: 300 + 150 + 500 = 950.
  check(near(s.unattributed_share, 1.0 - 950.0 / 2000.0), "unattributed share");
}

/// A span whose trace has no root, or whose parent is not the root, is a
/// ledger fault.
void ledger_flags_orphans() {
  TraceBuffer buffer(0);
  std::uint64_t a = buffer.root(Layer::kRequest, 0, 1000);
  buffer.child(a, Layer::kRslParse, 0, 100);
  std::vector<Span> spans = buffer.spans();
  Span orphan = spans.back();
  orphan.trace = a + 1;  // no such root
  spans.push_back(orphan);
  check(!perfbench::summarize(spans).nested, "span without a root is flagged");

  spans = buffer.spans();
  spans.back().parent = 7;  // not the root span
  check(!perfbench::summarize(spans).nested, "span under a non-root parent is flagged");

  spans = buffer.spans();
  spans.back().start_ns = -5;  // starts before its root
  check(!perfbench::summarize(spans).nested, "span starting before its root is flagged");
}

/// One seed gives one stream; another seed another; every workload has the
/// shape its description promises.
void generator_is_seeded() {
  for (const char* name : {"info_hot", "info_cold", "job_mix"}) {
    perfbench::Workload w1 = perfbench::make_workload(name, 7);
    perfbench::Workload w2 = perfbench::make_workload(name, 7);
    perfbench::Workload w3 = perfbench::make_workload(name, 8);
    check(w1.name == name, std::string(name) + " is known");
    check(w1.digest == w2.digest, std::string(name) + ": same seed, same digest");
    check(w1.digest != w3.digest, std::string(name) + ": other seed, other digest");
    check(w1.streams.size() == w1.clients, std::string(name) + ": one ring per client");
    bool same = w1.streams.size() == w2.streams.size();
    std::size_t jobs = 0, eligible = 0, ops = 0;
    for (std::size_t c = 0; same && c < w1.streams.size(); ++c) {
      for (std::size_t i = 0; i < w1.streams[c].size(); ++i) {
        const perfbench::Op& op = w1.streams[c][i];
        same = same && op.xrsl == w2.streams[c][i].xrsl;
        jobs += op.kind == perfbench::OpKind::kJob ? 1 : 0;
        eligible += perfbench::snapshot_eligible(op.request) ? 1 : 0;
        ++ops;
      }
    }
    check(same, std::string(name) + ": same seed, same requests");
    const std::string n = name;
    if (n == "info_hot") {
      check(eligible == ops, "info_hot: every request can be served from the snapshot");
    } else {
      check(eligible == 0 || n == "job_mix", n + ": no request can use the snapshot");
    }
    check((jobs > 0) == (n == "job_mix"), n + ": only job_mix streams carry jobs");
    check(w1.job_probe.empty() == (n == "job_mix"), n + ": job probe only without stream jobs");
  }
  check(perfbench::make_workload("bogus", 1).name.empty(), "unknown workload is refused");
}

}  // namespace

int main() {
  ledger_sums_self_times();
  ledger_flags_orphans();
  generator_is_seeded();
  if (failures == 0) std::printf("perfbench selftest: all checks passed\n");
  return failures == 0 ? 0 : 1;
}
