// The observability flags of every bench and example front-end:
//   --log-level L  debug|info|warn|error|off (DICER_LOG; the flag wins)
//   --trace PATH   trace events to PATH as JSON lines for the whole run
//                  (DICER_TRACE; the flag wins)
//   --profile      print the scoped-timer profile to stderr on exit
#pragma once

#include <cstdlib>
#include <iostream>
#include <memory>
#include <string>

#include "util/cli.hpp"
#include "util/log.hpp"
#include "util/timer.hpp"
#include "util/trace.hpp"

namespace dicer::util {

/// Applies --log-level and attaches the --trace sink to the global tracer;
/// on destruction, detaches (flushes) it and prints the --profile table.
struct ObservabilityFlags {
  bool profile = false;
  std::shared_ptr<trace::Sink> trace_sink;  ///< set iff --trace/DICER_TRACE
  std::string trace_path;

  explicit ObservabilityFlags(const CliArgs& args) {
    profile = args.get_bool("profile", false);
    if (const auto level = args.get("log-level")) {
      set_log_threshold(parse_log_level(*level));
    }
    trace_path = args.get_or("trace", "");
    if (trace_path.empty()) {
      if (const char* env = std::getenv("DICER_TRACE")) trace_path = env;
    }
    if (!trace_path.empty()) {
      trace_sink = std::make_shared<trace::JsonlSink>(trace_path);
      trace::Tracer::global().add_sink(trace_sink);
    }
  }

  ObservabilityFlags(const ObservabilityFlags&) = delete;
  ObservabilityFlags& operator=(const ObservabilityFlags&) = delete;

  ~ObservabilityFlags() {
    if (trace_sink) {
      trace::Tracer::global().remove_sink(trace_sink);  // flushes
      std::cerr << "trace: " << trace_path << "\n";
    }
    if (profile) {
      const std::string table = trace::TimerRegistry::global().format();
      if (!table.empty()) std::cerr << "\n" << table;
    }
  }
};

}  // namespace dicer::util
