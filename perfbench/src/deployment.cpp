#include "deployment.hpp"

#include <cstdio>
#include <cstdlib>

#include "core/config.hpp"

namespace perfbench {

namespace {

void die(const char* what, const std::string& detail) {
  std::fprintf(stderr, "deployment: %s: %s\n", what, detail.c_str());
  std::exit(2);
}

}  // namespace

Deployment::Deployment(const DeploymentOptions& options) {
  using namespace ig;  // NOLINT
  ca = std::make_unique<security::CertificateAuthority>("/O=Grid/CN=Perf CA",
                                                        seconds(365LL * 86400), clock,
                                                        options.seed);
  trust.add_root(ca->root_certificate());
  user = ca->issue(kSubject, security::CertType::kUser, seconds(30LL * 86400));
  host_credential = ca->issue(std::string("/O=Grid/CN=host/") + kHost,
                              security::CertType::kHost, seconds(365LL * 86400));
  gridmap.add(kSubject, kLocalUser);
  logger = std::make_shared<logging::Logger>(clock);
  if (!options.checkpoint_log.empty()) {
    logger->add_sink(std::make_shared<logging::FileSink>(options.checkpoint_log));
  }
  system = std::make_shared<exec::SimSystem>(clock, options.seed ^ 0xabcULL, kHost);
  registry = exec::CommandRegistry::standard(clock, system, options.seed ^ 0xdefULL);
  monitor = std::make_shared<info::SystemMonitor>(clock, kHost);
  if (Status s = core::Configuration::extended().apply(*monitor, registry); !s.ok()) {
    die("extended configuration", s.to_string());
  }
  backend = std::make_shared<exec::ForkBackend>(registry, clock);
  core::InfoGramConfig config;
  config.host = kHost;
  config.worker_threads = 2;
  if (options.telemetry) {
    telemetry = std::make_shared<obs::Telemetry>(clock, kHost);
    config.telemetry = telemetry;
  }
  service = std::make_unique<core::InfoGramService>(monitor, backend, host_credential, &trust,
                                                    &gridmap, &policy, &clock, logger, config);
  if (Status s = service->start(network); !s.ok()) die("service start", s.to_string());
}

Deployment::~Deployment() {
  if (service != nullptr) service->stop();
}

void Deployment::advance_to(ig::TimePoint t) {
  ig::TimePoint now = clock.now();
  if (t > now) clock.advance(t - now);
}

std::unique_ptr<ig::core::InfoGramClient> Deployment::client() {
  return std::make_unique<ig::core::InfoGramClient>(network, service->address(), user, trust,
                                                    clock);
}

}  // namespace perfbench
