// The deployment under test: one InfoGram node as a site would run it.
//
//   * providers from core::Configuration::extended() (Table 1 plus Disk,
//     Network, Uptime and Hostname, with their degradation models) over
//     the simulated host, executed by exec::ForkBackend;
//   * telemetry at its shipped defaults (metrics on every request, 1-in-64
//     head sampling, tail sampling, the profiler);
//   * a 2-worker request pool with the default admission queue depth;
//   * a VirtualClock, advanced by the benchmark per request and by simulated
//     command costs, so no code on the measured path sleeps on the wall;
//   * optionally a logging::FileSink checkpoint log (restart recovery
//     needs one; it also makes info queries take the audited full path).
#pragma once

#include <memory>
#include <string>

#include "core/infogram_client.hpp"
#include "core/infogram_service.hpp"
#include "exec/fork_backend.hpp"
#include "logging/log.hpp"

namespace perfbench {

inline constexpr const char* kHost = "perf.sim";
inline constexpr const char* kSubject = "/O=Grid/CN=bench";
inline constexpr const char* kLocalUser = "bench";

struct DeploymentOptions {
  std::uint64_t seed = 1;
  /// False builds the otherwise identical telemetry-free stack the
  /// obs.floor_ns comparison needs.
  bool telemetry = true;
  /// Non-empty: attach a FileSink checkpoint log at this path.
  std::string checkpoint_log;
};

struct Deployment {
  explicit Deployment(const DeploymentOptions& options);
  ~Deployment();

  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;

  /// Move this deployment's clock forward to `t` if it is behind.
  void advance_to(ig::TimePoint t);

  /// A new client of this deployment's endpoint (connects lazily).
  std::unique_ptr<ig::core::InfoGramClient> client();

  // Declaration order is destruction order in reverse: the service (and
  // its pool and job managers) goes first, the clock last.
  ig::VirtualClock clock{ig::seconds(1000)};
  ig::net::Network network;
  std::unique_ptr<ig::security::CertificateAuthority> ca;
  ig::security::TrustStore trust;
  ig::security::GridMap gridmap;
  ig::security::AuthorizationPolicy policy{ig::security::Decision::kAllow};
  ig::security::Credential user;
  ig::security::Credential host_credential;
  std::shared_ptr<ig::logging::Logger> logger;
  std::shared_ptr<ig::exec::SimSystem> system;
  std::shared_ptr<ig::exec::CommandRegistry> registry;
  std::shared_ptr<ig::info::SystemMonitor> monitor;
  std::shared_ptr<ig::exec::ForkBackend> backend;
  std::shared_ptr<ig::obs::Telemetry> telemetry;
  std::unique_ptr<ig::core::InfoGramService> service;
};

}  // namespace perfbench
