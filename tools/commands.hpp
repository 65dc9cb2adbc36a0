/**
 * @file
 * The options each igcn subcommand reads, shared by the CLI and its
 * tests.
 */

#pragma once

#include <map>
#include <string>
#include <vector>

namespace igcn::cli {

/**
 * The --keys subcommand `cmd` reads, or nullptr for an unknown
 * command. main() rejects every other key before the command runs,
 * so a misspelt or retired option is a usage error rather than a
 * run with that option silently ignored. A key a command reads only
 * in some modes (serve's --scale without --dataset) is still
 * accepted.
 */
inline const std::vector<std::string> *
commandOptions(const std::string &cmd)
{
    static const std::map<std::string, std::vector<std::string>>
        kOptions = {
            {"generate", {"type", "nodes", "seed", "avg-degree", "out"}},
            {"info", {"in"}},
            {"islandize",
             {"in", "cmax", "decay", "th0", "parallel", "render"}},
            {"reorder", {"in", "algo", "out"}},
            {"simulate",
             {"dataset", "scale", "in", "features", "classes",
              "density", "model", "net", "platform"}},
            {"serve",
             {"trace", "dataset", "scale", "in", "nodes", "seed",
              "features", "hidden", "classes", "feature-density",
              "sparse-x", "requests", "updates", "remove-frac",
              "pattern", "zipf-alpha", "tenants", "deadline-us",
              "strict-frac", "batch-cap", "cmax", "qps-budget",
              "queue-cap", "staleness", "trace-out", "metrics-out"}},
        };
    const auto it = kOptions.find(cmd);
    return it == kOptions.end() ? nullptr : &it->second;
}

} // namespace igcn::cli
