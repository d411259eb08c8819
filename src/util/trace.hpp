// dicer::trace — structured controller/machine telemetry.
//
// DICER's behaviour is a *timeline*: period measurements, way donations,
// samplings, phase/perf resets, rollbacks. DICER_LOG=debug shows that
// timeline as unstructured stderr text; this subsystem records it as typed
// events delivered to pluggable sinks (JSONL, in-memory), so benches
// can replay the paper's Fig 5-style narratives and tests can assert the
// controller's exact decision sequence.
//
// Design constraints:
//  * Near-zero cost when disabled: a Tracer with no sinks (the default)
//    drops an event after one relaxed atomic load. Every emission site
//    passes its fields as a builder,
//    `tr.emit(kind, t, [&] { return std::vector<Field>{...}; })`, which
//    runs only when a recording sink wants the kind.
//  * Cheap to count: a count-only sink (records() false — the telemetry
//    TraceCounterSink) needs nothing but the kind. While no recording
//    sink is attached, emit() hands it the kind lock-free: no builder
//    call, no allocation, no mutex.
//  * Thread-safe: recorded events reach the sinks behind one mutex, so a
//    sink always sees whole events in a single call (the parallel policy
//    sweep emits from many workers into one file).
//  * Deterministic: events carry only simulated time and counters — never
//    wall-clock time or addresses — so a traced run serialises to byte-
//    identical output across repetitions. (Timer events, which do carry
//    wall time, are excluded from the default kind mask.)
//
// Components resolve a null Tracer* to the process-global tracer
// (`trace::resolve`), which has no sinks until a bench installs one via
// --trace / DICER_TRACE.
#pragma once

#include <atomic>
#include <cstdint>
#include <fstream>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <type_traits>
#include <variant>
#include <vector>

namespace dicer::trace {

/// Every event type the system emits. Keep kind_name() in sync.
enum class Kind : unsigned {
  kSetup = 0,       ///< policy setup: initial allocation
  kPeriod,          ///< controller period snapshot (measurements + verdicts)
  kAllocation,      ///< HP way-count change actually applied
  kSamplingStart,   ///< Listing 1: CT-T reclassification, sampling plan
  kSamplingStep,    ///< one settle interval measured
  kSamplingDone,    ///< plan exhausted, optimum enforced
  kDonation,        ///< stable period donated one HP way to the BEs
  kPhaseReset,      ///< Eq. 2 fired
  kPerfReset,       ///< degraded IPC fired
  kResetValidate,   ///< Listing 3 validation outcome (incl. rollbacks)
  kRunBegin,        ///< harness consolidation started
  kRunEnd,          ///< harness consolidation finished (results)
  kPlacement,       ///< fleet tenant placement decision (incl. rejections)
  kMigration,       ///< fleet BE migration off an SLO-violating machine
  kFleetEpoch,      ///< fleet per-epoch aggregate metrics
  kMonitorPoll,     ///< rdt::Monitor poll_all snapshot (verbose)
  kQuantum,         ///< sim::Machine quantum counters (verbose)
  kTimer,           ///< scoped wall-clock timer (verbose, nondeterministic)
  kCount
};

const char* kind_name(Kind kind) noexcept;

using KindMask = std::uint32_t;

constexpr KindMask mask_of(Kind kind) noexcept {
  return KindMask{1} << static_cast<unsigned>(kind);
}

constexpr KindMask kAllKinds =
    (KindMask{1} << static_cast<unsigned>(Kind::kCount)) - 1;

/// Default mask: every controller-level event; the per-quantum machine
/// counters, monitor polls and wall-clock timers are opt-in (they are
/// high-volume and — for timers — nondeterministic).
constexpr KindMask kDefaultKinds =
    kAllKinds & ~(mask_of(Kind::kQuantum) | mask_of(Kind::kMonitorPoll) |
                  mask_of(Kind::kTimer));

/// One typed key/value pair. Constructors cover the integer widths the
/// call sites use so `{"hp_ways", hp_ways_}` just works.
struct Field {
  using Value =
      std::variant<bool, std::int64_t, std::uint64_t, double, std::string>;

  std::string key;
  Value value;

  Field(std::string k, bool v) : key(std::move(k)), value(v) {}
  Field(std::string k, int v)
      : key(std::move(k)), value(static_cast<std::int64_t>(v)) {}
  Field(std::string k, long v)
      : key(std::move(k)), value(static_cast<std::int64_t>(v)) {}
  Field(std::string k, long long v)
      : key(std::move(k)), value(static_cast<std::int64_t>(v)) {}
  Field(std::string k, unsigned v)
      : key(std::move(k)), value(static_cast<std::uint64_t>(v)) {}
  Field(std::string k, unsigned long v)
      : key(std::move(k)), value(static_cast<std::uint64_t>(v)) {}
  Field(std::string k, unsigned long long v)
      : key(std::move(k)), value(static_cast<std::uint64_t>(v)) {}
  Field(std::string k, double v) : key(std::move(k)), value(v) {}
  Field(std::string k, const char* v)
      : key(std::move(k)), value(std::string(v)) {}
  Field(std::string k, std::string v) : key(std::move(k)), value(std::move(v)) {}
};

struct Event {
  Kind kind = Kind::kSetup;
  double t_sec = 0.0;  ///< simulated time (0 for timeless events)
  std::vector<Field> fields;
};

/// Field lookup helpers (first match wins; defaults on absence/type
/// mismatch). Numeric getters convert between the numeric alternatives.
const Field* find_field(const Event& event, std::string_view key) noexcept;
double field_double(const Event& event, std::string_view key,
                    double def = 0.0) noexcept;
std::uint64_t field_uint(const Event& event, std::string_view key,
                         std::uint64_t def = 0) noexcept;
bool field_bool(const Event& event, std::string_view key,
                bool def = false) noexcept;
std::string field_string(const Event& event, std::string_view key,
                         std::string def = "");

/// One event as a single JSON object, fixed key order
/// ({"t":..,"kind":..,<fields in emission order>}), no trailing newline.
std::string to_jsonl(const Event& event);

/// Sink interface. write() is always called under the owning Tracer's
/// mutex — implementations need no locking of their own and always see
/// whole events, in emission order.
class Sink {
 public:
  virtual ~Sink() = default;
  virtual void write(const Event& event) = 0;
  virtual void flush() {}
  /// False for a count-only sink, one that reads nothing but the kind.
  /// While no recording sink is attached, the tracer calls count()
  /// instead of building the event and calling write().
  virtual bool records() const noexcept { return true; }
  /// One event of `kind` was emitted. Called only on count-only sinks,
  /// from any thread and without the tracer's mutex, so it must be
  /// thread-safe on its own.
  virtual void count(Kind /*kind*/) noexcept {}
};

/// JSON-lines file sink. Throws std::runtime_error if the file cannot be
/// opened (truncates any existing file).
class JsonlSink final : public Sink {
 public:
  explicit JsonlSink(const std::string& path);
  void write(const Event& event) override;
  void flush() override;

 private:
  std::ofstream out_;
};

/// In-memory sink for tests and the timeline bench. Reading while another
/// thread still emits is the caller's race to avoid (detach the sink
/// first).
class MemorySink final : public Sink {
 public:
  void write(const Event& event) override { events_.push_back(event); }
  const std::vector<Event>& events() const noexcept { return events_; }
  std::vector<Event> take() { return std::move(events_); }

 private:
  std::vector<Event> events_;
};

/// The event router. enabled(kind) is true only when at least one sink
/// is attached AND the kind is in the mask, folded into one atomic word
/// so disabled tracing costs a single relaxed load.
class Tracer {
 public:
  Tracer() = default;
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Process-wide default tracer (no sinks until someone adds one).
  static Tracer& global();

  bool enabled(Kind kind) const noexcept {
    return (active_.load(std::memory_order_relaxed) & mask_of(kind)) != 0;
  }
  bool enabled() const noexcept {
    return active_.load(std::memory_order_relaxed) != 0;
  }

  /// Which kinds reach the sinks (default kDefaultKinds).
  void set_kinds(KindMask mask);
  KindMask kinds() const;

  void add_sink(std::shared_ptr<Sink> sink);
  /// Detach (and flush) one sink; no-op if it is not attached.
  void remove_sink(const std::shared_ptr<Sink>& sink);
  void clear_sinks();
  void flush();

  /// Emit one event of `kind` (thread-safe). `build` returns its
  /// std::vector<Field>; it runs at most once, and only if a recording
  /// sink takes the kind — the event then reaches every sink under the
  /// mutex. Otherwise the count-only sinks are just told the kind.
  /// Events whose kind is filtered out cost one relaxed load.
  template <class Build>
  void emit(Kind kind, double t_sec, Build&& build) {
    if ((active_.load(std::memory_order_relaxed) & mask_of(kind)) == 0) {
      return;
    }
    using B = std::remove_reference_t<Build>;
    emit_active(kind, t_sec,
                const_cast<void*>(static_cast<const void*>(&build)),
                [](void* b) { return (*static_cast<B*>(b))(); });
  }

  /// Events that reached the sinks, built or only counted, since the
  /// tracer was made. Both are deterministic for a deterministic run.
  std::uint64_t events_counted() const noexcept {
    return counted_.load(std::memory_order_relaxed);
  }
  /// Events whose fields were built, because a recording sink took them.
  std::uint64_t events_built() const noexcept {
    return built_.load(std::memory_order_relaxed);
  }

 private:
  /// The count-only sinks, as the count path reads them without the mutex.
  using CountingSinks = std::vector<std::shared_ptr<Sink>>;

  using BuildFn = std::vector<Field> (*)(void* build);

  /// The rest of emit(), out of line, so an emission site inlines only
  /// the load and the branch.
  void emit_active(Kind kind, double t_sec, void* build, BuildFn build_fn);
  void refresh_locked();

  mutable std::mutex mu_;
  std::vector<std::shared_ptr<Sink>> sinks_;
  KindMask kinds_ = kDefaultKinds;
  std::atomic<KindMask> active_{0};  ///< kinds_ while any sink is attached
  /// kinds_ while a recording sink is attached.
  std::atomic<KindMask> recording_{0};
  /// The current count-only list. Every list published is kept, with its
  /// sinks, until the tracer dies, so a count that raced a detach
  /// never reads a freed list or sink.
  std::atomic<const CountingSinks*> counting_{nullptr};
  std::vector<std::unique_ptr<const CountingSinks>> counting_lists_;
  std::atomic<std::uint64_t> counted_{0};
  std::atomic<std::uint64_t> built_{0};
};

/// Components hold a Tracer* that is null by default; null means "the
/// process-global tracer".
inline Tracer& resolve(Tracer* tracer) noexcept {
  return tracer ? *tracer : Tracer::global();
}

}  // namespace dicer::trace
