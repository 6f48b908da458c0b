// Seeded request streams for the three workloads.
//
// Each client gets a fixed ring of pre-generated operations, cycled for
// as long as the run lasts. The ring depends only on (workload, seed,
// client), so two runs with one seed send the same requests; the digest
// printed by request_path covers every byte of every ring. The service sees
// only the generated xRSL text.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/clock.hpp"
#include "rsl/xrsl.hpp"

namespace perfbench {

enum class OpKind {
  kInfo,  ///< one XRSL info query
  kJob,   ///< one job cycle: XRSL submit, GRAM_STATUS, GRAM_WAIT until terminal
};

struct Op {
  OpKind kind = OpKind::kInfo;
  std::string xrsl;
  /// The same text parsed once at generation, for checks and the replay.
  ig::rsl::XrslRequest request;
  /// Seeded output-check sample: the response is compared with the
  /// in-process execute() result after the timed phase.
  bool checked = false;
};

struct Workload {
  std::string name;
  std::size_t clients = 2;
  /// Virtual time the benchmark adds to the deployment clock before every
  /// request (TTL expiry, degradation and certificates follow it).
  ig::Duration clock_step{0};
  /// Short description of the request mix, printed with the results.
  std::string mix;
  std::vector<std::vector<Op>> streams;  ///< one ring per client
  /// Workloads without jobs: job cycles per client, run once after the
  /// traced stream so the gram metrics are measured on every workload.
  std::vector<std::vector<Op>> job_probe;
  std::uint64_t digest = 0;  ///< FNV-1a over every ring and the job probe
};

/// Generate `name` (info_hot, info_cold or job_mix) for `seed`; empty
/// `name` in the result when unknown.
Workload make_workload(const std::string& name, std::uint64_t seed);

/// True when execute() would answer `request` from the provider snapshot
/// (the zero-lock path) if the snapshot is fresh and no audit log is
/// attached — the gate in InfoGramService::execute, restated.
bool snapshot_eligible(const ig::rsl::XrslRequest& request);

}  // namespace perfbench
