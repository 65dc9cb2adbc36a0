/**
 * @file
 * Unit tests for the CLI option parser (tools/args.hpp).
 *
 * Regression focus: a trailing `--key` with no value, or a valueless
 * `--key` followed by another flag, used to be recorded as the string
 * "1" — so `igcn generate --nodes` silently built a 1-node graph and
 * `--render --foo` wrote a plot to a file named "1". Valueless flags
 * are now presence-only: has() sees them, but asking one for a value
 * throws, and stray positional tokens are reported as parse errors.
 *
 * Unknown keys used to be silently ignored too: `igcn serve --trace
 * --batch-cp 8` ran with the default cap and exited 0. Each
 * subcommand now lists the keys it reads (tools/commands.hpp), and
 * main() rejects any other key with a usage error.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "graph/generators.hpp"
#include "tools/args.hpp"
#include "tools/cli_io.hpp"
#include "tools/commands.hpp"

namespace {

using igcn::cli::Args;

/** Build Args as the CLI does, from "igcn <cmd> tokens...". */
Args
parse(std::vector<std::string> tokens)
{
    std::vector<std::string> storage;
    storage.emplace_back("igcn");
    storage.emplace_back("cmd");
    for (auto &t : tokens)
        storage.push_back(std::move(t));
    std::vector<char *> argv;
    for (auto &s : storage)
        argv.push_back(s.data());
    return Args(static_cast<int>(argv.size()), argv.data());
}

TEST(CliArgs, KeyValuePairs)
{
    Args a = parse({"--nodes", "500", "--out", "g.txt"});
    EXPECT_TRUE(a.errors().empty());
    EXPECT_EQ(a.getInt("nodes", 0), 500);
    EXPECT_EQ(a.get("out"), "g.txt");
    EXPECT_EQ(a.get("missing", "fb"), "fb");
    EXPECT_EQ(a.getInt("missing", 7), 7);
}

TEST(CliArgs, EqualsSyntax)
{
    Args a = parse({"--nodes=500", "--decay=0.25"});
    EXPECT_TRUE(a.errors().empty());
    EXPECT_EQ(a.getInt("nodes", 0), 500);
    EXPECT_DOUBLE_EQ(a.getDouble("decay", 0.0), 0.25);
}

TEST(CliArgs, TrailingValuelessFlagIsPresenceNotValue)
{
    Args a = parse({"--parallel"});
    EXPECT_TRUE(a.errors().empty());
    EXPECT_TRUE(a.has("parallel"));
    // Asking a presence flag for a value must fail loudly, not yield
    // the old silent "1".
    EXPECT_THROW(a.get("parallel"), std::runtime_error);
    EXPECT_THROW(a.getInt("parallel", 0), std::runtime_error);
    EXPECT_THROW(a.getDouble("parallel", 0.0), std::runtime_error);
}

TEST(CliArgs, ValuelessFlagMidLineIsDiagnosed)
{
    // `--nodes --out f` used to run with nodes == 1 silently.
    Args a = parse({"--nodes", "--out", "f"});
    EXPECT_TRUE(a.has("nodes"));
    EXPECT_EQ(a.get("out"), "f");
    EXPECT_THROW(a.getInt("nodes", 1000), std::runtime_error);
}

TEST(CliArgs, StrayPositionalTokensAreErrors)
{
    Args a = parse({"garbage", "--nodes", "5", "more-garbage"});
    ASSERT_EQ(a.errors().size(), 2u);
    EXPECT_NE(a.errors()[0].find("garbage"), std::string::npos);
    EXPECT_NE(a.errors()[1].find("more-garbage"), std::string::npos);
    // Well-formed options still parse alongside the errors.
    EXPECT_EQ(a.getInt("nodes", 0), 5);
}

TEST(CliArgs, NegativeNumbersAreValuesNotFlags)
{
    Args a = parse({"--th0", "-5", "--decay", "-0.5"});
    EXPECT_TRUE(a.errors().empty());
    EXPECT_EQ(a.getInt("th0", 0), -5);
    EXPECT_DOUBLE_EQ(a.getDouble("decay", 0.0), -0.5);
}

TEST(CliArgs, MalformedNumbersThrowWithKeyName)
{
    Args a = parse({"--nodes", "12abc", "--decay", "x"});
    try {
        a.getInt("nodes", 0);
        FAIL() << "expected std::runtime_error";
    } catch (const std::runtime_error &e) {
        EXPECT_NE(std::string(e.what()).find("--nodes"),
                  std::string::npos);
    }
    EXPECT_THROW(a.getDouble("decay", 0.0), std::runtime_error);
}

TEST(CliArgs, EmptyDoubleDashIsAnError)
{
    Args a = parse({"--"});
    ASSERT_EQ(a.errors().size(), 1u);
}

TEST(CliArgs, ExplicitEmptyValueIsAValueNotAPresenceFlag)
{
    Args a = parse({"--out="});
    EXPECT_TRUE(a.errors().empty());
    EXPECT_EQ(a.get("out", "fb"), "");
}

TEST(CliArgs, LastOccurrenceWins)
{
    Args a = parse({"--seed", "1", "--seed", "2"});
    EXPECT_EQ(a.getInt("seed", 0), 2);
}

// --- the --in graph-loading path every file-taking subcommand uses --
// main() catches these exceptions, prints them, and exits nonzero, so
// each throw below is a nonzero CLI exit with the tested message.

TEST(CliLoadGraphArg, MissingInFlagIsDiagnosed)
{
    Args a = parse({});
    try {
        igcn::cli::loadGraphArg(a);
        FAIL() << "expected std::runtime_error";
    } catch (const std::runtime_error &e) {
        EXPECT_NE(std::string(e.what()).find("--in"),
                  std::string::npos);
    }
}

TEST(CliLoadGraphArg, ValuelessInFlagIsDiagnosed)
{
    Args a = parse({"--in"});
    EXPECT_THROW(igcn::cli::loadGraphArg(a), std::runtime_error);
}

TEST(CliLoadGraphArg, NonexistentFileNamesPathAndReason)
{
    // `igcn info --in missing.txt` and `igcn simulate --in ...` used
    // to fail with a bare "cannot open" and no reason; the message
    // must now carry the path and the OS error text.
    Args a = parse({"--in", "/nonexistent/igcn-cli.txt"});
    try {
        igcn::cli::loadGraphArg(a);
        FAIL() << "expected std::runtime_error";
    } catch (const std::runtime_error &e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("/nonexistent/igcn-cli.txt"),
                  std::string::npos);
        EXPECT_NE(msg.find("cannot open"), std::string::npos);
        // strerror(ENOENT) text, the "why".
        EXPECT_NE(msg.find("No such file"), std::string::npos);
    }
}

TEST(CliLoadGraphArg, LoadsAValidFile)
{
    const std::string path =
        std::string(::testing::TempDir()) + "igcn_cli_io_ok.txt";
    igcn::CsrGraph g = igcn::pathGraph(5);
    igcn::saveEdgeList(g, path);
    Args a = parse({"--in", path});
    EXPECT_EQ(igcn::cli::loadGraphArg(a), g);
    std::remove(path.c_str());
}

TEST(CliArgs, UnknownKeysAreThoseOutsideTheKnownList)
{
    Args a = parse({"--nodes", "5", "--parallel", "--nodse=7"});
    EXPECT_EQ(a.unknownKeys({"nodes", "parallel"}),
              (std::vector<std::string>{"nodse"}));
    EXPECT_TRUE(a.unknownKeys({"nodes", "parallel", "nodse"}).empty());
    EXPECT_TRUE(parse({}).unknownKeys({}).empty());
}

TEST(CliCommandOptions, ServeRejectsMisspeltAndRetiredOptions)
{
    const std::vector<std::string> *serve =
        igcn::cli::commandOptions("serve");
    ASSERT_NE(serve, nullptr);
    // A typo of --batch-cap, and the flags of the removed
    // aggregation cache and straggler wait.
    Args a = parse({"--trace", "--batch-cp", "8", "--agg-cache",
                    "--agg-cache-mb", "16", "--max-wait-us", "200"});
    EXPECT_EQ(a.unknownKeys(*serve),
              (std::vector<std::string>{"agg-cache", "agg-cache-mb",
                                        "batch-cp", "max-wait-us"}));
    Args ok = parse({"--trace", "--batch-cap", "8", "--dataset",
                     "cora", "--zipf-alpha", "1.1", "--trace-out",
                     "t.json", "--metrics-out", "m.prom"});
    EXPECT_TRUE(ok.unknownKeys(*serve).empty());
}

TEST(CliCommandOptions, EveryCommandHasATableAndUnknownCommandsNone)
{
    for (const char *cmd : {"generate", "info", "islandize", "reorder",
                            "simulate", "serve"})
        EXPECT_NE(igcn::cli::commandOptions(cmd), nullptr) << cmd;
    EXPECT_EQ(igcn::cli::commandOptions("serv"), nullptr);
    // Options are per command: --trace belongs to serve only.
    EXPECT_EQ(parse({"--trace"}).unknownKeys(
                  *igcn::cli::commandOptions("simulate")),
              (std::vector<std::string>{"trace"}));
}

} // namespace
