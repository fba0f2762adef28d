// Live partial results and the final merge for elastic campaigns.
//
// `merge_elastic` is the end-of-campaign read: it requires every cell's
// blocks to be durable in some directory and produces the CampaignResult a
// serial run_campaign of the same spec would — byte-identical reports,
// including across lease reclaims, crashed workers and static shards run in
// separate directories, because blocks are counter-based deterministic and
// merges fold them in block order.
//
// `partial_elastic_report_json` can be taken at ANY moment of a live
// campaign: it emits a valid "ftdb-campaign-v1" document over whatever
// blocks are durable right now, stamped "partial": true plus a coverage
// block (overall and per-cell completed/total trials). Scenario objects for
// completed cells are byte-identical to the ones the final report will
// carry; incomplete cells carry their raw accumulators over the completed
// prefix (Wilson intervals and rates therefore cover completed trials);
// untouched cells appear with zero trials.
#pragma once

#include <string>
#include <vector>

#include "campaign/elastic/elastic.hpp"
#include "campaign/runner.hpp"

namespace ftdb::campaign::elastic {

/// Merges the elastic directories of one campaign (one, or say one per
/// static shard; see load_elastic_progress) into the campaign result. Throws
/// std::runtime_error naming the first cell no directory completes.
CampaignResult merge_elastic(const ScenarioSpec& spec, const std::vector<std::string>& dirs);

/// Point-in-time partial report over the durable blocks of a (possibly
/// still running) elastic campaign spread over `dirs`. Always valid; never
/// throws merely because the campaign is incomplete.
std::string partial_elastic_report_json(const ScenarioSpec& spec,
                                        const std::vector<std::string>& dirs);

}  // namespace ftdb::campaign::elastic
