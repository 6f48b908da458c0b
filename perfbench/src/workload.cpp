#include "workload.hpp"

#include <cstdio>
#include <cstdlib>

#include "common/rng.hpp"

namespace perfbench {

namespace {

using ig::rsl::OutputFormat;
using ig::rsl::ResponseMode;

/// Ops per client ring. Large enough that the rings cover every keyword,
/// format and tag combination many times; small enough to stay cache-warm.
constexpr std::size_t kRingSize = 4096;
/// One request in kCheckEvery is an output-check sample.
constexpr std::uint64_t kCheckEvery = 16;
/// Job-probe cycles per client (workloads without jobs).
constexpr std::size_t kProbeJobs = 16;

/// Keywords whose value is constant within TTL under a binary degradation
/// model: the only ones the snapshot path can serve.
const std::vector<std::string> kHotKeywords = {"Date", "CPU", "list", "Uptime", "Hostname"};
/// Every keyword of Configuration::extended().
const std::vector<std::string> kAllKeywords = {"Date",    "Memory", "CPU",    "CPULoad", "list",
                                               "Disk",    "Network", "Uptime", "Hostname"};

const char* format_name(OutputFormat format) {
  switch (format) {
    case OutputFormat::kXml:
      return "xml";
    case OutputFormat::kDsml:
      return "dsml";
    case OutputFormat::kLdif:
      break;
  }
  return "ldif";
}

/// LDIF, XML and DSML at 8:1:1.
OutputFormat hot_format(ig::Rng& rng) {
  std::int64_t r = rng.uniform_int(0, 9);
  return r < 8 ? OutputFormat::kLdif : r == 8 ? OutputFormat::kXml : OutputFormat::kDsml;
}

std::string hot_query(ig::Rng& rng) {
  const std::string& keyword =
      kHotKeywords[static_cast<std::size_t>(rng.uniform_int(0, kHotKeywords.size() - 1))];
  return "&(info=" + keyword + ")(response=cached)(format=" + format_name(hot_format(rng)) +
         ")";
}

std::string cold_query(ig::Rng& rng) {
  if (rng.uniform_int(0, 49) == 0) return "&(info=schema)";
  // Four distinct keywords: a partial Fisher-Yates shuffle.
  std::vector<std::string> keys = kAllKeywords;
  for (std::size_t i = 0; i < 4; ++i) {
    std::size_t j = static_cast<std::size_t>(rng.uniform_int(i, keys.size() - 1));
    std::swap(keys[i], keys[j]);
  }
  keys.resize(4);
  std::string text = "&";
  for (const std::string& key : keys) text += "(info=" + key + ")";
  if (rng.uniform_int(0, 3) == 0) text += "(response=immediate)";
  if (rng.uniform_int(0, 3) == 0) {
    text += "(quality=" + std::to_string(rng.uniform_int(50, 90)) + ")";
  }
  if (rng.uniform_int(0, 4) == 0) text += "(performance=" + keys[0] + ")";
  if (rng.uniform_int(0, 3) == 0) {
    text += "(filter=\"" + keys[1] + ":*\")(filter=\"" + keys[2] + ":*\")";
  }
  static const OutputFormat kFormats[] = {OutputFormat::kLdif, OutputFormat::kXml,
                                          OutputFormat::kDsml};
  text += std::string("(format=") + format_name(kFormats[rng.uniform_int(0, 2)]) + ")";
  return text;
}

std::string job_submit(ig::Rng& rng, std::size_t client, std::size_t index) {
  std::string text = "&(executable=/bin/echo)(arguments=c" + std::to_string(client) + "-j" +
                     std::to_string(index) + ")";
  // Half the cycles are the paper's combined request: a job and an info
  // query in one round trip.
  if (rng.uniform_int(0, 1) == 0) text += "(info=Memory)";
  return text;
}

std::uint64_t fnv1a(std::uint64_t hash, const std::string& bytes) {
  for (unsigned char c : bytes) {
    hash ^= c;
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

/// Parse `op.xrsl` into `op.request` and fold the op into `digest`.
Op make_op(Op op, std::uint64_t& digest) {
  auto parsed = ig::rsl::XrslRequest::parse(op.xrsl);
  if (!parsed.ok()) {
    std::fprintf(stderr, "generator produced invalid xRSL %s: %s\n", op.xrsl.c_str(),
                 parsed.error().to_string().c_str());
    std::abort();
  }
  op.request = std::move(parsed.value());
  digest = fnv1a(digest, std::string(op.kind == OpKind::kJob ? "J" : "I") + op.xrsl +
                             (op.checked ? "+" : "-"));
  return op;
}

}  // namespace

bool snapshot_eligible(const ig::rsl::XrslRequest& request) {
  return !request.is_job() && request.is_info() && !request.wants_schema &&
         request.performance_keys.empty() && request.info_keys.size() == 1 &&
         request.response == ResponseMode::kCached && !request.quality_threshold &&
         request.filters.empty();
}

Workload make_workload(const std::string& name, std::uint64_t seed) {
  Workload w;
  // One job cycle every kJobEvery job_mix ops, at a seeded offset, so
  // every seed carries the same job share. Sized so one run stays far
  // below the process's thread-stack ceiling; see README.md ("Known
  // defect").
  constexpr std::int64_t kJobEvery = 300;
  if (name == "info_hot") {
    w.clock_step = ig::us(50);
    w.mix = "single-keyword cached info on Date/CPU/list/Uptime/Hostname, ldif:xml:dsml 8:1:1";
  } else if (name == "info_cold") {
    w.clock_step = ig::us(200);
    w.mix =
        "4-of-9 keyword fan-out; 1/4 immediate, 1/4 quality, 1/5 performance, 1/4 filters, "
        "1/50 schema; ldif:xml:dsml 1:1:1";
  } else if (name == "job_mix") {
    w.clock_step = ig::us(100);
    w.mix = "hot-style info with 1 job cycle per " + std::to_string(kJobEvery) +
            " ops (submit, status, wait); half the submits carry (info=Memory)";
  } else {
    return w;
  }
  w.name = name;
  std::uint64_t digest = 0xcbf29ce484222325ULL;
  for (std::size_t client = 0; client < w.clients; ++client) {
    ig::Rng rng(seed * 0x9e3779b97f4a7c15ULL + 0x632be59bd9b4e019ULL * (client + 1));
    const std::int64_t job_offset = rng.uniform_int(0, kJobEvery - 1);
    std::vector<Op> ring;
    ring.reserve(kRingSize);
    for (std::size_t i = 0; i < kRingSize; ++i) {
      Op op;
      if (name == "info_hot") {
        op.xrsl = hot_query(rng);
      } else if (name == "info_cold") {
        op.xrsl = cold_query(rng);
      } else if (static_cast<std::int64_t>(i) % kJobEvery == job_offset) {
        op.kind = OpKind::kJob;
        op.xrsl = job_submit(rng, client, i);
      } else {
        op.xrsl = hot_query(rng);
      }
      op.checked = rng.uniform_int(1, kCheckEvery) == 1;
      ring.push_back(make_op(std::move(op), digest));
    }
    w.streams.push_back(std::move(ring));
    if (name != "job_mix") {
      std::vector<Op> probe;
      for (std::size_t i = 0; i < kProbeJobs; ++i) {
        Op op;
        op.kind = OpKind::kJob;
        op.xrsl = job_submit(rng, client, kRingSize + i);
        probe.push_back(make_op(std::move(op), digest));
      }
      w.job_probe.push_back(std::move(probe));
    }
  }
  w.digest = digest;
  return w;
}

}  // namespace perfbench
