// Campaign report emission: one campaign, three renderings.
//
//  * JSON ("ftdb-campaign-v1") — the machine-readable artifact: the spec
//    echoed back, every scenario's raw accumulators plus derived rates and
//    Wilson intervals, and the per-fault-count survival curves. Validated by
//    the CI smoke job with the in-tree json_parse.
//  * CSV — one row per scenario for spreadsheet/pandas consumption.
//  * Markdown — an analysis::Table with the headline columns, including the
//    analytic-vs-empirical survival comparison from ft/spares.hpp.
//
// All three are pure functions of CampaignResult, which the runner produces
// deterministically — so reports are byte-identical across thread counts,
// checkpoint/resume boundaries and elastic workers.
#pragma once

#include <string>

#include "campaign/runner.hpp"

namespace ftdb::campaign {

std::string campaign_report_json(const CampaignResult& result);

std::string campaign_report_csv(const CampaignResult& result);

std::string campaign_report_markdown(const CampaignResult& result);

/// Validates a report document: parses it with json_parse and checks the
/// schema stamp and per-scenario shape. Throws std::runtime_error with a
/// description when invalid; returns the number of scenarios otherwise.
std::size_t validate_campaign_report(const std::string& json_text);

}  // namespace ftdb::campaign
