/**
 * @file
 * The benchmark's metric catalog: every end-to-end and per-layer
 * metric with its unit and direction, and for each per-layer metric
 * the end-to-end metric it should move, the workloads it moves on and
 * the workloads that bypass it. BENCHMARK.json lists the same names
 * and units; the self-test holds the two in step.
 */

#pragma once

#include <map>
#include <string>
#include <vector>

namespace perfbench {

/** One metric of the catalog. */
struct MetricDef
{
    std::string name;
    std::string unit;
    /** "higher" or "lower". */
    std::string better;
    /** End-to-end metric (with a bound) rather than per-layer. */
    bool endToEnd = false;
    /** End-to-end only: tolerated worsening, share of the median. */
    double bound = 0;
    /** Per-layer only: end-to-end metric an improvement should move. */
    std::string moves;
    /** Per-layer only: workloads it moves on / workloads bypassing it. */
    std::string on;
    std::string bypassed;
};

/** The workloads, in BENCHMARK.json order. */
const std::vector<std::string> &workloadNames();

/** Every metric, end-to-end first. */
const std::vector<MetricDef> &catalog();

/** Kernel labels flattened into runtime.<kernel>.* metrics. */
const std::vector<std::string> &runtimeKernels();

/** True when name matches [A-Za-z0-9_.-]+, starts with a letter or
 *  digit and is at most 64 characters. */
bool validMetricName(const std::string &name);

/** The catalog as JSON: workloads, end_to_end and per_layer metric
 *  lists (per-layer entries with moves/on/bypassed). */
std::string catalogJson();

/**
 * The JSON result line: `correct`, `attempted`, `failed` and the
 * metrics of one kind (end-to-end or per-layer) with their units.
 * Every catalog metric of that kind must be present in `values`.
 */
std::string resultLine(bool correct, uint64_t attempted, uint64_t failed,
                       bool per_layer,
                       const std::map<std::string, double> &values);

} // namespace perfbench
