#include "util/trace.hpp"

#include <algorithm>
#include <cstdio>
#include <stdexcept>

namespace dicer::trace {

namespace {

/// Deterministic double formatting: shortest %.12g rendering. Twelve
/// significant digits cover every quantity we trace (times are multiples
/// of the 10 ms quantum, IPCs/bandwidths are smooth model outputs) and the
/// rendering depends only on the value, never on locale or run order.
std::string fmt_double(double x) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.12g", x);
  return buf;
}

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string value_to_json(const Field::Value& v) {
  if (const bool* b = std::get_if<bool>(&v)) return *b ? "true" : "false";
  if (const std::int64_t* i = std::get_if<std::int64_t>(&v)) {
    return std::to_string(*i);
  }
  if (const std::uint64_t* u = std::get_if<std::uint64_t>(&v)) {
    return std::to_string(*u);
  }
  if (const double* d = std::get_if<double>(&v)) return fmt_double(*d);
  const std::string& s = std::get<std::string>(v);
  return '"' + json_escape(s) + '"';
}

}  // namespace

const char* kind_name(Kind kind) noexcept {
  switch (kind) {
    case Kind::kSetup: return "setup";
    case Kind::kPeriod: return "period";
    case Kind::kAllocation: return "allocation";
    case Kind::kSamplingStart: return "sampling_start";
    case Kind::kSamplingStep: return "sampling_step";
    case Kind::kSamplingDone: return "sampling_done";
    case Kind::kDonation: return "donation";
    case Kind::kPhaseReset: return "phase_reset";
    case Kind::kPerfReset: return "perf_reset";
    case Kind::kResetValidate: return "reset_validate";
    case Kind::kRunBegin: return "run_begin";
    case Kind::kRunEnd: return "run_end";
    case Kind::kPlacement: return "placement";
    case Kind::kMigration: return "migration";
    case Kind::kFleetEpoch: return "fleet_epoch";
    case Kind::kMonitorPoll: return "monitor_poll";
    case Kind::kQuantum: return "quantum";
    case Kind::kTimer: return "timer";
    case Kind::kCount: break;
  }
  return "?";
}

const Field* find_field(const Event& event, std::string_view key) noexcept {
  for (const auto& f : event.fields) {
    if (f.key == key) return &f;
  }
  return nullptr;
}

double field_double(const Event& event, std::string_view key,
                    double def) noexcept {
  const Field* f = find_field(event, key);
  if (!f) return def;
  if (const double* d = std::get_if<double>(&f->value)) return *d;
  if (const std::uint64_t* u = std::get_if<std::uint64_t>(&f->value)) {
    return static_cast<double>(*u);
  }
  if (const std::int64_t* i = std::get_if<std::int64_t>(&f->value)) {
    return static_cast<double>(*i);
  }
  return def;
}

std::uint64_t field_uint(const Event& event, std::string_view key,
                         std::uint64_t def) noexcept {
  const Field* f = find_field(event, key);
  if (!f) return def;
  if (const std::uint64_t* u = std::get_if<std::uint64_t>(&f->value)) {
    return *u;
  }
  if (const std::int64_t* i = std::get_if<std::int64_t>(&f->value)) {
    return *i >= 0 ? static_cast<std::uint64_t>(*i) : def;
  }
  return def;
}

bool field_bool(const Event& event, std::string_view key, bool def) noexcept {
  const Field* f = find_field(event, key);
  if (!f) return def;
  if (const bool* b = std::get_if<bool>(&f->value)) return *b;
  return def;
}

std::string field_string(const Event& event, std::string_view key,
                         std::string def) {
  const Field* f = find_field(event, key);
  if (!f) return def;
  if (const std::string* s = std::get_if<std::string>(&f->value)) return *s;
  return def;
}

std::string to_jsonl(const Event& event) {
  std::string out = "{\"t\":" + fmt_double(event.t_sec) + ",\"kind\":\"" +
                    kind_name(event.kind) + '"';
  for (const auto& f : event.fields) {
    out += ",\"" + json_escape(f.key) + "\":" + value_to_json(f.value);
  }
  out += '}';
  return out;
}

JsonlSink::JsonlSink(const std::string& path) : out_(path, std::ios::trunc) {
  if (!out_) throw std::runtime_error("JsonlSink: cannot open " + path);
}

void JsonlSink::write(const Event& event) { out_ << to_jsonl(event) << '\n'; }

void JsonlSink::flush() { out_.flush(); }

Tracer& Tracer::global() {
  static Tracer tracer;
  return tracer;
}

void Tracer::refresh_locked() {
  auto counting = std::make_unique<CountingSinks>();
  bool records = false;
  for (const auto& s : sinks_) {
    if (s->records()) {
      records = true;
    } else {
      counting->push_back(s);
    }
  }
  const CountingSinks* current = counting_.load(std::memory_order_relaxed);
  if (current ? *current != *counting : !counting->empty()) {
    counting_.store(counting.get(), std::memory_order_release);
    counting_lists_.push_back(std::move(counting));
  }
  recording_.store(records ? kinds_ : 0, std::memory_order_relaxed);
  active_.store(sinks_.empty() ? 0 : kinds_, std::memory_order_relaxed);
}

void Tracer::set_kinds(KindMask mask) {
  std::lock_guard<std::mutex> lock(mu_);
  kinds_ = mask & kAllKinds;
  refresh_locked();
}

KindMask Tracer::kinds() const {
  std::lock_guard<std::mutex> lock(mu_);
  return kinds_;
}

void Tracer::add_sink(std::shared_ptr<Sink> sink) {
  if (!sink) return;
  std::lock_guard<std::mutex> lock(mu_);
  sinks_.push_back(std::move(sink));
  refresh_locked();
}

void Tracer::remove_sink(const std::shared_ptr<Sink>& sink) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = std::find(sinks_.begin(), sinks_.end(), sink);
  if (it == sinks_.end()) return;
  (*it)->flush();
  sinks_.erase(it);
  refresh_locked();
}

void Tracer::clear_sinks() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& s : sinks_) s->flush();
  sinks_.clear();
  refresh_locked();
}

void Tracer::flush() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& s : sinks_) s->flush();
}

void Tracer::emit_active(Kind kind, double t_sec, void* build,
                         BuildFn build_fn) {
  if ((recording_.load(std::memory_order_relaxed) & mask_of(kind)) == 0) {
    const CountingSinks* sinks = counting_.load(std::memory_order_acquire);
    if (!sinks) return;
    counted_.fetch_add(1, std::memory_order_relaxed);
    for (const auto& s : *sinks) s->count(kind);
    return;
  }
  const Event event{kind, t_sec, build_fn(build)};
  std::lock_guard<std::mutex> lock(mu_);
  if ((kinds_ & mask_of(kind)) == 0) return;
  built_.fetch_add(1, std::memory_order_relaxed);
  counted_.fetch_add(1, std::memory_order_relaxed);
  for (auto& s : sinks_) s->write(event);
}

}  // namespace dicer::trace
