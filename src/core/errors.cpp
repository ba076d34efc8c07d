#include "core/errors.hpp"

#include <new>

#include "graph/dimacs.hpp"
#include "sim/transient.hpp"
#include "util/cancel.hpp"

namespace aflow::core {

ErrorInfo classify_error(const std::exception& e) {
  if (const auto* serve = dynamic_cast<const ServeRequestError*>(&e))
    return serve->info();

  ErrorInfo info;
  info.message = e.what();

  if (const auto* cancelled = dynamic_cast<const util::CancelledError*>(&e)) {
    info.code = cancelled->reason() == util::CancelReason::kDeadline
                    ? "deadline_exceeded"
                    : "cancelled";
    info.retryable = true;
    return info;
  }
  if (const auto* div = dynamic_cast<const sim::DivergenceError*>(&e)) {
    info.code = "divergence";
    info.retryable = true;
    const sim::DivergenceError::Diagnosis& d = div->diagnosis();
    if (!d.probe_label.empty())
      info.str_fields.emplace_back("probe", d.probe_label);
    info.num_fields.emplace_back("probe_index",
                                 static_cast<double>(d.probe_index));
    info.num_fields.emplace_back("node", static_cast<double>(d.node));
    info.num_fields.emplace_back("step", static_cast<double>(d.step));
    info.num_fields.emplace_back("time", d.time);
    info.num_fields.emplace_back("dt", d.dt);
    info.num_fields.emplace_back("value", d.value);
    info.num_fields.emplace_back("growth_per_step", d.growth_per_step);
    return info;
  }
  if (dynamic_cast<const sim::ConvergenceError*>(&e)) {
    info.code = "convergence";
    info.retryable = true;
    return info;
  }
  if (dynamic_cast<const std::bad_alloc*>(&e)) {
    info.code = "resource_exhausted";
    info.retryable = true;
    if (info.message.empty()) info.message = "allocation failed";
    return info;
  }
  // A malformed DIMACS file is a wrong request input, like a bad flag.
  if (dynamic_cast<const std::invalid_argument*>(&e) ||
      dynamic_cast<const graph::DimacsError*>(&e)) {
    info.code = "invalid_argument";
    info.retryable = false;
    return info;
  }
  if (info.message.rfind("injected fault", 0) == 0) {
    info.code = "fault_injected";
    info.retryable = true;
    return info;
  }
  info.code = "internal";
  info.retryable = false;
  return info;
}

void write_error_info(util::JsonWriter& j, const ErrorInfo& info) {
  j.key("error_info").begin_object();
  j.field("code", info.code);
  j.field("retryable", info.retryable);
  j.field("message", info.message);
  for (const auto& [k, v] : info.str_fields) j.field(k, v);
  for (const auto& [k, v] : info.num_fields) j.field(k, v);
  j.end_object();
}

} // namespace aflow::core
