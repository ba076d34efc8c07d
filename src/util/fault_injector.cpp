#include "util/fault_injector.hpp"

#include <chrono>
#include <new>
#include <optional>
#include <stdexcept>
#include <thread>

#include "util/args.hpp"

namespace aflow::util {

namespace {

bool fireable_from_fire(FaultInjector::Action a) {
  return a == FaultInjector::Action::kThrow ||
         a == FaultInjector::Action::kBadAlloc ||
         a == FaultInjector::Action::kDelay;
}

long long parse_ll(const std::string& s, const std::string& what) {
  if (const std::optional<long long> v = parse_number<long long>(s)) return *v;
  throw std::invalid_argument("FaultInjector: bad " + what + " '" + s + "'");
}

} // namespace

FaultInjector& FaultInjector::instance() {
  static FaultInjector injector;
  return injector;
}

void FaultInjector::arm(const std::string& spec) {
  armed_.store(false, std::memory_order_relaxed);
  rules_.clear();
  for (const std::string& part : split(spec, ';')) {
    if (part.empty()) continue;
    const std::vector<std::string> fields = split(part, ':');
    if (fields.size() < 2)
      throw std::invalid_argument(
          "FaultInjector: fault spec needs site:action, got '" + part + "'");
    auto rule = std::make_unique<Rule>();
    rule->site = fields[0];
    const std::string& action = fields[1];
    if (action == "throw") rule->action = Action::kThrow;
    else if (action == "badalloc") rule->action = Action::kBadAlloc;
    else if (action == "delay") rule->action = Action::kDelay;
    else if (action == "diverge") rule->action = Action::kDiverge;
    else if (action == "short") rule->action = Action::kShort;
    else
      throw std::invalid_argument("FaultInjector: unknown action '" + action +
                                  "' in '" + part + "'");
    for (size_t i = 2; i < fields.size(); ++i) {
      const std::string& f = fields[i];
      if (f.rfind("after=", 0) == 0)
        rule->after = parse_ll(f.substr(6), "after");
      else if (f.rfind("count=", 0) == 0)
        rule->count = parse_ll(f.substr(6), "count");
      else if (rule->action == Action::kDelay && i == 2)
        rule->param = parse_ll(f, "delay ms");
      else
        throw std::invalid_argument("FaultInjector: unknown field '" + f +
                                    "' in '" + part + "'");
    }
    rules_.push_back(std::move(rule));
  }
  armed_.store(!rules_.empty(), std::memory_order_relaxed);
}

void FaultInjector::fire(const std::string& site, const CancelToken* cancel) {
  if (!armed()) return;
  for (const auto& rule : rules_) {
    if (rule->site != site || !fireable_from_fire(rule->action)) continue;
    const long long arrival = rule->arrivals.fetch_add(1);
    if (arrival < rule->after) continue;
    if (rule->count > 0 && rule->fired.load() >= rule->count) continue;
    rule->fired.fetch_add(1);
    switch (rule->action) {
      case Action::kThrow:
        throw std::runtime_error("injected fault at " + site);
      case Action::kBadAlloc:
        throw std::bad_alloc();
      case Action::kDelay: {
        // Sliced sleep so an injected stall stays cancellable and a
        // deadline still bounds the request.
        long long remaining = rule->param;
        while (remaining > 0) {
          if (cancel) cancel->check();
          const long long slice = remaining < 10 ? remaining : 10;
          std::this_thread::sleep_for(std::chrono::milliseconds(slice));
          remaining -= slice;
        }
        if (cancel) cancel->check();
        break;
      }
      default: break;
    }
  }
}

bool FaultInjector::take(const std::string& site, Action action) {
  if (!armed()) return false;
  for (const auto& rule : rules_) {
    if (rule->site != site || rule->action != action) continue;
    const long long arrival = rule->arrivals.fetch_add(1);
    if (arrival < rule->after) continue;
    if (rule->count > 0 && rule->fired.load() >= rule->count) continue;
    rule->fired.fetch_add(1);
    return true;
  }
  return false;
}

long long FaultInjector::arrivals(const std::string& site) const {
  long long total = 0;
  for (const auto& rule : rules_)
    if (rule->site == site) total += rule->arrivals.load();
  return total;
}

long long FaultInjector::fired(const std::string& site) const {
  long long total = 0;
  for (const auto& rule : rules_)
    if (rule->site == site) total += rule->fired.load();
  return total;
}

} // namespace aflow::util
