// The four benchmark workloads. Each fills `result`: with options.trace off
// the end-to-end metrics, with it on the per-layer metrics from a traced
// replay recorded into `trace`. Correctness checks report through
// Result::fail and count into Result::failed.
#pragma once

#include "common.hpp"

namespace perfbench {

void run_campaign_survival(const Options& options, Result& result, Trace& trace);
void run_campaign_sim(const Options& options, Result& result, Trace& trace);
void run_engine_b2h18(const Options& options, Result& result, Trace& trace);
void run_serve_faultstream(const Options& options, Result& result, Trace& trace);

}  // namespace perfbench
