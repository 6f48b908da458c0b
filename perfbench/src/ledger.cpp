#include "ledger.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <unordered_map>

#include "common/strings.hpp"
#include "format/dsml.hpp"
#include "format/ldif.hpp"
#include "format/schema.hpp"
#include "format/xml.hpp"
#include "net/message.hpp"
#include "obs/profile.hpp"

namespace perfbench {

namespace {

using ig::obs::AllocScope;
using ig::rsl::OutputFormat;

/// Keeps a computed value observable so the timed call is not elided.
template <typename T>
void keep(const T& value) {
  asm volatile("" : : "r"(&value) : "memory");
}

Layer render_layer(OutputFormat format) {
  switch (format) {
    case OutputFormat::kXml:
      return Layer::kRenderXml;
    case OutputFormat::kDsml:
      return Layer::kRenderDsml;
    case OutputFormat::kLdif:
      break;
  }
  return Layer::kRenderLdif;
}

Layer decode_layer(OutputFormat format) {
  switch (format) {
    case OutputFormat::kXml:
      return Layer::kDecodeXml;
    case OutputFormat::kDsml:
      return Layer::kDecodeDsml;
    case OutputFormat::kLdif:
      break;
  }
  return Layer::kDecodeLdif;
}

/// Wall time of `fn`, untraced.
template <typename Fn>
std::int64_t wall_ns(Fn&& fn) {
  std::int64_t start = now_ns();
  fn();
  return now_ns() - start;
}

/// Times `fn` as one child span of `trace`, counting the calling thread's
/// allocations. The span's value and self time default to its duration.
template <typename Fn>
Span& timed(TraceBuffer& buffer, std::uint64_t trace, Layer layer, Fn&& fn) {
  AllocScope scope;
  std::int64_t start = now_ns();
  fn();
  std::int64_t end = now_ns();
  std::int64_t allocs = static_cast<std::int64_t>(scope.allocs());
  Span& span = buffer.child(trace, layer, start, end);
  span.allocs = allocs;
  return span;
}

/// IGP framing as the wire path does it: the client serializes the
/// request, the endpoint parses the framed bytes, and the network sizes
/// (but does not serialize) the response.
void replay_frame(TraceBuffer& buffer, std::uint64_t trace, const ig::net::Message& request,
                  const ig::net::Message& response) {
  timed(buffer, trace, Layer::kNetFrame, [&] {
    std::string wire = request.serialize();
    auto parsed = ig::net::Message::parse(wire);
    std::size_t size = response.wire_size();
    keep(parsed);
    keep(size);
  });
}

/// The response frame handle_xrsl() builds for `response`.
ig::net::Message xrsl_response_frame(const ig::core::InfoGramResponse& response,
                                     OutputFormat format) {
  ig::net::Message frame = ig::net::Message::ok(response.payload);
  if (!response.job_contacts.empty()) {
    frame.with("contact", response.job_contacts.front());
    frame.with("contacts", ig::strings::join(response.job_contacts, ","));
  }
  if (response.schema) {
    frame.with("type", "schema");
  } else if (!response.records.empty()) {
    frame.with("type", "records");
    frame.with("format", std::string(ig::rsl::to_string(format)));
    frame.with("count", std::to_string(response.records.size()));
  }
  return frame;
}

}  // namespace

const char* layer_name(Layer layer) {
  switch (layer) {
    case Layer::kRequest: return "request";
    case Layer::kConnect: return "connect";
    case Layer::kHandshake: return "security.handshake";
    case Layer::kNetFrame: return "net.frame";
    case Layer::kRslParse: return "rsl.parse";
    case Layer::kAuthorize: return "security.authorize";
    case Layer::kInfoSnapshot: return "info.snapshot";
    case Layer::kInfoQuery: return "info.query";
    case Layer::kLoggingAppend: return "logging.append";
    case Layer::kCoreExecute: return "core.execute";
    case Layer::kPoolHop: return "common.pool_hop";
    case Layer::kObsFloor: return "obs.floor";
    case Layer::kGramSubmit: return "gram.submit";
    case Layer::kGramStatus: return "gram.status";
    case Layer::kGramWait: return "gram.wait";
    case Layer::kRenderLdif: return "format.render.ldif";
    case Layer::kRenderXml: return "format.render.xml";
    case Layer::kRenderDsml: return "format.render.dsml";
    case Layer::kRenderSchema: return "format.render.schema";
    case Layer::kDecodeLdif: return "format.decode.ldif";
    case Layer::kDecodeXml: return "format.decode.xml";
    case Layer::kDecodeDsml: return "format.decode.dsml";
    case Layer::kDecodeSchema: return "format.decode.schema";
  }
  return "?";
}

std::int64_t now_ns() {
  static const auto epoch = std::chrono::steady_clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - epoch)
      .count();
}

std::uint64_t TraceBuffer::root(Layer layer, std::int64_t start_ns, std::int64_t end_ns) {
  std::uint64_t trace = (buffer_ << 40) | ++next_trace_;
  next_span_ = 1;
  Span span;
  span.trace = trace;
  span.id = next_span_;
  span.layer = layer;
  span.start_ns = start_ns;
  span.end_ns = end_ns;
  span.value_ns = end_ns - start_ns;
  spans_.push_back(span);
  return trace;
}

Span& TraceBuffer::child(std::uint64_t trace, Layer layer, std::int64_t start_ns,
                         std::int64_t end_ns) {
  Span span;
  span.trace = trace;
  span.id = ++next_span_;
  span.parent = 1;
  span.layer = layer;
  span.start_ns = start_ns;
  span.end_ns = end_ns;
  span.self_ns = end_ns - start_ns;
  span.value_ns = end_ns - start_ns;
  spans_.push_back(span);
  return spans_.back();
}

bool replay_xrsl(TraceBuffer& buffer, std::uint64_t trace, const Op& op,
                 const ig::core::InfoGramResponse& response, ig::TimePoint sent_at,
                 ReplayTargets& targets) {
  const ig::rsl::XrslRequest& request = op.request;
  bool ok = true;

  replay_frame(buffer, trace, ig::net::Message("XRSL", op.xrsl),
               xrsl_response_frame(response, request.format));
  timed(buffer, trace, Layer::kRslParse, [&] {
    auto parsed = ig::rsl::XrslRequest::parse_all(op.xrsl);
    ok = ok && parsed.ok();
    keep(parsed);
  });
  Deployment& wire = *targets.wire;
  const char* action = request.is_job() ? "submit" : "query";
  std::int64_t authorize_ns = timed(buffer, trace, Layer::kAuthorize, [&] {
                                auto status = wire.policy.authorize(kSubject, kHost, action,
                                                                    wire.clock.now());
                                ok = ok && status.ok();
                              }).value_ns;

  Deployment& exec = *targets.execute;
  exec.advance_to(sent_at);
  ig::Result<ig::core::InfoGramResult> result =
      ig::Error(ig::ErrorCode::kInternal, "not executed");
  auto execute = [&] { result = exec.service->execute(request, kSubject, kLocalUser); };

  if (request.is_job()) {
    // The whole execute() is the GRAM submit (a combined request's info
    // half rides inside it); the authorize it contains is timed above.
    Span& submit = timed(buffer, trace, Layer::kGramSubmit, execute);
    submit.self_ns -= authorize_ns;
    ok = ok && result.ok() && result->job_contact.has_value();
    if (ok) {
      // Finish the replica's job so it does not outlive the request.
      auto done = exec.service->wait(*result->job_contact, ig::seconds(30));
      ok = done.ok() && done->status.state == ig::exec::JobState::kDone;
    }
  } else {
    // The monitor calls execute() makes, on the info replica.
    Deployment& info = *targets.info;
    info.advance_to(sent_at);
    std::int64_t inner_ns = 0;
    int authorizations = 1;
    bool served = false;
    if (!targets.audited && snapshot_eligible(request)) {
      ig::info::CacheSnapshotPtr hit;
      inner_ns += timed(buffer, trace, Layer::kInfoSnapshot, [&] {
                    hit = info.monitor->query_cached_fast(request.info_keys.front(),
                                                          info.clock.now());
                  }).value_ns;
      served = hit != nullptr;
      // A miss falls through to the full path, which authorizes again.
      if (!served) ++authorizations;
    }
    if (!served) {
      if (!request.info_keys.empty() || request.wants_schema ||
          !request.performance_keys.empty()) {
        inner_ns += timed(buffer, trace, Layer::kInfoQuery, [&] {
                      if (request.wants_schema) keep(info.monitor->schema());
                      if (!request.info_keys.empty()) {
                        auto records = info.monitor->query(
                            request.info_keys, request.response, request.quality_threshold,
                            request.filters, nullptr, info.service->pool(),
                            ig::info::GetOptions{request.timeout, request.action});
                        ok = ok && records.ok();
                      }
                      if (!request.performance_keys.empty()) {
                        auto perf = info.monitor->performance_record(request.performance_keys);
                        ok = ok && perf.ok();
                      }
                    }).value_ns;
      }
      // The full path logs every query: into the FileSink when audited,
      // into a sink-less logger (sequence numbering only) otherwise.
      std::string keys = ig::strings::join(request.info_keys, ",");
      inner_ns += timed(buffer, trace, Layer::kLoggingAppend, [&] {
                    info.logger->log(ig::logging::EventType::kInfoQuery, kSubject, kLocalUser,
                                     0, keys);
                  }).value_ns;
    }

    // execute() and submit_async().get(), each with and without telemetry,
    // each on its own replica. Alternate which of a pair runs first so
    // neither side always meets the warmer CPU caches.
    Deployment& bare_execute = *targets.bare_execute;
    Deployment& async = *targets.async;
    Deployment& bare_async = *targets.bare_async;
    for (Deployment* d : {&bare_execute, &async, &bare_async}) d->advance_to(sent_at);
    auto async_call = [&](Deployment& d) {
      auto r = d.service->submit_async(request, kSubject, kLocalUser).get();
      ok = ok && r.ok();
    };
    auto bare_call = [&] {
      auto r = bare_execute.service->execute(request, kSubject, kLocalUser);
      ok = ok && r.ok();
    };
    const bool bare_first = (trace & 1) != 0;
    std::int64_t bare_execute_ns = 0;
    if (bare_first) bare_execute_ns = wall_ns(bare_call);
    Span& core = timed(buffer, trace, Layer::kCoreExecute, execute);
    if (!bare_first) bare_execute_ns = wall_ns(bare_call);
    const std::int64_t execute_ns = core.value_ns;
    core.self_ns -= inner_ns + authorizations * authorize_ns;
    ok = ok && result.ok();

    std::int64_t bare_async_ns = 0;
    if (bare_first) bare_async_ns = wall_ns([&] { async_call(bare_async); });
    Span& floor = timed(buffer, trace, Layer::kObsFloor, [&] { async_call(async); });
    if (!bare_first) bare_async_ns = wall_ns([&] { async_call(bare_async); });
    // Telemetry floor: the request with telemetry minus without, on the
    // async path (the request envelope's metrics and sampling decision,
    // plus the monitor's own instruments). The part inside execute() is
    // already in core.execute, so only the envelope adds self time.
    floor.value_ns -= bare_async_ns;
    floor.self_ns = floor.value_ns - (execute_ns - bare_execute_ns);
    // Pool hop: submit_async().get() minus execute(), both telemetry-free.
    Span& hop = buffer.child(trace, Layer::kPoolHop, floor.start_ns, floor.end_ns);
    hop.value_ns = bare_async_ns - bare_execute_ns;
    hop.self_ns = hop.value_ns;
  }

  // Rendering as handle_xrsl() does it: the schema renders as XML, a
  // snapshot hit reuses its pre-rendered bytes, records render in the
  // requested format.
  if (result.ok()) {
    const ig::core::InfoGramResult& r = result.value();
    if (r.schema) {
      timed(buffer, trace, Layer::kRenderSchema, [&] { keep(r.schema->to_xml()); });
    } else if (r.cached == nullptr && !r.records.empty()) {
      timed(buffer, trace, render_layer(r.format), [&] {
        switch (r.format) {
          case OutputFormat::kXml:
            keep(ig::format::to_xml(r.records));
            break;
          case OutputFormat::kDsml:
            keep(ig::format::to_dsml(r.records));
            break;
          case OutputFormat::kLdif:
            keep(ig::format::to_ldif(r.records));
            break;
        }
      });
    }
  }
  // Client-side decode of the wire response body.
  if (response.schema) {
    timed(buffer, trace, Layer::kDecodeSchema, [&] {
      auto schema = ig::format::ServiceSchema::parse_xml(response.payload);
      ok = ok && schema.ok();
    });
  } else if (!response.records.empty()) {
    timed(buffer, trace, decode_layer(request.format), [&] {
      bool decoded = false;
      switch (request.format) {
        case OutputFormat::kXml:
          decoded = ig::format::parse_xml(response.payload).ok();
          break;
        case OutputFormat::kDsml:
          decoded = ig::format::parse_dsml(response.payload).ok();
          break;
        case OutputFormat::kLdif:
          decoded = ig::format::parse_ldif(response.payload).ok();
          break;
      }
      ok = ok && decoded;
    });
  }
  return ok;
}

bool replay_gram(TraceBuffer& buffer, std::uint64_t trace, const std::string& verb,
                 const std::string& contact, ReplayTargets& targets) {
  ig::net::Message request(verb);
  request.with("contact", contact);
  const bool wait = verb == "GRAM_WAIT";
  if (wait) request.with("timeout_ms", "30000");
  ig::core::InfoGramService& service = *targets.wire->service;
  auto info = service.job_info(contact);
  if (!info.ok()) return false;
  ig::net::Message response = ig::net::Message::ok();
  response.with("state", std::string(ig::exec::to_string(info->status.state)));
  response.with("exit_code", std::to_string(info->status.exit_code));
  response.with("restarts", std::to_string(info->restarts));
  response.with("timeout_fired", info->timeout_fired ? "1" : "0");
  replay_frame(buffer, trace, request, response);
  bool ok = true;
  timed(buffer, trace, wait ? Layer::kGramWait : Layer::kGramStatus, [&] {
    auto r = wait ? service.wait(contact, ig::seconds(30)) : service.job_info(contact);
    ok = r.ok();
  });
  return ok;
}

namespace {

double median(std::vector<double>& values) {
  if (values.empty()) return 0.0;
  std::size_t mid = values.size() / 2;
  std::nth_element(values.begin(), values.begin() + static_cast<std::ptrdiff_t>(mid),
                   values.end());
  double upper = values[mid];
  if (values.size() % 2 == 1) return upper;
  double lower = *std::max_element(values.begin(), values.begin() + static_cast<std::ptrdiff_t>(mid));
  return (lower + upper) / 2.0;
}

}  // namespace

LedgerSummary summarize(const std::vector<Span>& spans) {
  LedgerSummary summary;
  std::unordered_map<std::uint64_t, const Span*> roots;
  for (const Span& span : spans) {
    if (span.parent == 0) roots[span.trace] = &span;
  }
  std::map<Layer, std::vector<double>> values;
  std::map<Layer, std::vector<double>> allocs;
  double root_total = 0.0;
  double self_total = 0.0;
  for (const Span& span : spans) {
    if (span.parent == 0) {
      if (span.layer == Layer::kRequest) {
        root_total += static_cast<double>(span.end_ns - span.start_ns);
      }
      continue;
    }
    auto root = roots.find(span.trace);
    if (span.parent != 1 || root == roots.end() || root->second->start_ns > span.start_ns) {
      if (summary.nested) {
        summary.nested = false;
        summary.nesting_error = std::string(layer_name(span.layer)) + " span " +
                                std::to_string(span.id) + " of trace " +
                                std::to_string(span.trace) + " is not under its root";
      }
      continue;
    }
    values[span.layer].push_back(static_cast<double>(span.value_ns));
    if (span.allocs >= 0) allocs[span.layer].push_back(static_cast<double>(span.allocs));
    if (root->second->layer == Layer::kRequest) self_total += static_cast<double>(span.self_ns);
  }
  for (auto& [layer, v] : values) {
    summary.samples[layer] = v.size();
    summary.median_ns[layer] = median(v);
  }
  for (auto& [layer, v] : allocs) summary.median_allocs[layer] = median(v);
  summary.unattributed_share = root_total > 0.0 ? 1.0 - self_total / root_total : 0.0;
  return summary;
}

bool write_spans(const std::string& path, const std::vector<Span>& spans) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::fprintf(out, "trace\tspan\tparent\tname\tstart_ns\tend_ns\tallocs\tself_ns\tvalue_ns\n");
  for (const Span& s : spans) {
    std::fprintf(out, "%llu\t%u\t%u\t%s\t%lld\t%lld\t%lld\t%lld\t%lld\n",
                 static_cast<unsigned long long>(s.trace), s.id, s.parent, layer_name(s.layer),
                 static_cast<long long>(s.start_ns), static_cast<long long>(s.end_ns),
                 static_cast<long long>(s.allocs), static_cast<long long>(s.self_ns),
                 static_cast<long long>(s.value_ns));
  }
  return std::fclose(out) == 0;
}

}  // namespace perfbench
