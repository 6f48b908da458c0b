// The traced run's ledger: spans recorded from outside the program.
//
// For each wire request the benchmark records one root span `request` around
// the real InfoGramClient round trip, then replays the same request
// through each layer's public entry point, one child span per call. All
// spans of a request share its trace id and have the root as parent; they
// stay in memory and are written out when the run ends.
//
// Stateful calls are replayed on replicas of the deployment, one replica
// per call site, each advanced to the virtual time the wire request was
// sent at. Every replica sees the wire deployment's requests at the same
// virtual times, so each replayed call meets the cache state (fresh or
// TTL-expired) that the wire request met; replaying two calls on one stack
// would let the first call's refresh make the second call cheap.
//
// Self time. Some replayed calls contain another layer's call:
// InfoGramService::execute contains authorize, the monitor query, the
// log append and the GRAM submit; the telemetry floor contains the part of
// the telemetry that runs inside execute(). The self time of such a span is
// its duration minus the separately timed inner calls, so the self times
// of one request add up without double counting.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/infogram_client.hpp"
#include "deployment.hpp"
#include "workload.hpp"

namespace perfbench {

enum class Layer : std::uint8_t {
  kRequest,        ///< root: one wire round trip
  kConnect,        ///< root: one fresh connection (handshake timing)
  kHandshake,      ///< security::authenticate
  kNetFrame,       ///< request serialize + parse, response wire_size
  kRslParse,       ///< rsl::XrslRequest::parse_all
  kAuthorize,      ///< AuthorizationPolicy::authorize
  kInfoSnapshot,   ///< SystemMonitor::query_cached_fast
  kInfoQuery,      ///< SystemMonitor::query
  kLoggingAppend,  ///< Logger::log into the FileSink
  kCoreExecute,    ///< InfoGramService::execute, info requests
  kPoolHop,        ///< submit_async(...).get() minus execute(), no telemetry
  kObsFloor,       ///< submit_async(...).get() with minus without telemetry
  kGramSubmit,     ///< InfoGramService::execute, job requests
  kGramStatus,     ///< InfoGramService::job_info
  kGramWait,       ///< InfoGramService::wait
  kRenderLdif,
  kRenderXml,
  kRenderDsml,
  kRenderSchema,
  kDecodeLdif,
  kDecodeXml,
  kDecodeDsml,
  kDecodeSchema,
};

const char* layer_name(Layer layer);

struct Span {
  std::uint64_t trace = 0;
  std::uint32_t id = 0;
  std::uint32_t parent = 0;  ///< 0 for roots
  Layer layer = Layer::kRequest;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t allocs = -1;  ///< operator-new calls on the calling thread; -1 = not counted
  /// Contribution to the request's ledger sum (see the header comment).
  std::int64_t self_ns = 0;
  /// The per-layer metric sample: the duration, or for kPoolHop and
  /// kObsFloor the difference the metric is defined as.
  std::int64_t value_ns = 0;
};

/// Nanoseconds on the steady clock since the process's first call.
std::int64_t now_ns();

/// Spans of one client thread. Trace ids are unique across buffers with
/// distinct `buffer` numbers.
class TraceBuffer {
 public:
  explicit TraceBuffer(std::uint64_t buffer) : buffer_(buffer) {}

  /// Record a root span; returns its trace id.
  std::uint64_t root(Layer layer, std::int64_t start_ns, std::int64_t end_ns);
  /// Record a child of `trace`'s root. The reference is valid until the
  /// next span is recorded.
  Span& child(std::uint64_t trace, Layer layer, std::int64_t start_ns, std::int64_t end_ns);

  std::vector<Span>& spans() { return spans_; }

 private:
  std::uint64_t buffer_;
  std::uint64_t next_trace_ = 0;
  std::uint32_t next_span_ = 0;
  std::vector<Span> spans_;
};

/// The replicas stateful calls are replayed on (see the header comment).
struct ReplayTargets {
  Deployment* wire = nullptr;          ///< the measured deployment (read-only GRAM calls)
  Deployment* execute = nullptr;       ///< InfoGramService::execute
  Deployment* info = nullptr;          ///< SystemMonitor calls and Logger::log
  Deployment* async = nullptr;         ///< submit_async
  Deployment* bare_execute = nullptr;  ///< execute() without telemetry
  Deployment* bare_async = nullptr;    ///< submit_async() without telemetry
  bool audited = false;                ///< deployments carry a checkpoint log
};

/// Replay one XRSL request after its wire round trip. `sent_at` is the
/// wire deployment's virtual time when it was sent; `response` what the
/// client decoded. Returns false if a replayed call failed.
bool replay_xrsl(TraceBuffer& buffer, std::uint64_t trace, const Op& op,
                 const ig::core::InfoGramResponse& response, ig::TimePoint sent_at,
                 ReplayTargets& targets);

/// Replay one GRAM_STATUS or GRAM_WAIT request for `contact`.
bool replay_gram(TraceBuffer& buffer, std::uint64_t trace, const std::string& verb,
                 const std::string& contact, ReplayTargets& targets);

struct LedgerSummary {
  bool nested = true;  ///< every child span's parent is its trace's root
  std::string nesting_error;
  /// Per-layer medians: value_ns by layer, and allocs where counted.
  std::map<Layer, double> median_ns;
  std::map<Layer, double> median_allocs;
  std::map<Layer, std::size_t> samples;
  /// 1 - (sum of child self times / sum of `request` root durations).
  double unattributed_share = 0.0;
};

LedgerSummary summarize(const std::vector<Span>& spans);

/// One line per span: trace, span, parent, layer, start_ns, end_ns,
/// allocs, self_ns, value_ns (tab-separated, with a header line).
bool write_spans(const std::string& path, const std::vector<Span>& spans);

}  // namespace perfbench
