/**
 * @file
 * Simulation substrate tests: event ordering, DRAM bandwidth
 * accounting, stats registry.
 */

#include <gtest/gtest.h>

#include "sim/dram.hpp"
#include "sim/engine.hpp"
#include "sim/stats.hpp"

namespace igcn {
namespace {

TEST(SimEngine, EventsRunInTimeOrder)
{
    SimEngine engine;
    std::vector<int> order;
    engine.schedule(30, [&] { order.push_back(3); });
    engine.schedule(10, [&] { order.push_back(1); });
    engine.schedule(20, [&] { order.push_back(2); });
    Cycles end = engine.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(end, 30u);
}

TEST(SimEngine, TiesRunInScheduleOrder)
{
    SimEngine engine;
    std::vector<int> order;
    engine.schedule(5, [&] { order.push_back(1); });
    engine.schedule(5, [&] { order.push_back(2); });
    engine.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(SimEngine, HandlersCanScheduleMore)
{
    SimEngine engine;
    int fired = 0;
    engine.schedule(1, [&] {
        fired++;
        engine.schedule(1, [&] { fired++; });
    });
    Cycles end = engine.run();
    EXPECT_EQ(fired, 2);
    EXPECT_EQ(end, 2u);
}

TEST(Dram, BandwidthAccounting)
{
    DramConfig cfg;
    cfg.bandwidthGBps = 33.0; // 100 bytes/cycle at 330 MHz
    cfg.coreClockMHz = 330.0;
    cfg.streamEfficiency = 1.0;
    cfg.requestLatency = 0;
    DramModel dram(cfg);
    EXPECT_NEAR(dram.bytesPerCycle(), 100.0, 1e-9);

    Cycles done = dram.access(0, 1000, AccessPattern::Streaming);
    EXPECT_EQ(done, 10u);
    EXPECT_EQ(dram.totalBytes(), 1000u);
    EXPECT_EQ(dram.busyCycles(), 10u);
}

TEST(Dram, ChannelSerializesRequests)
{
    DramConfig cfg;
    cfg.bandwidthGBps = 33.0;
    cfg.coreClockMHz = 330.0;
    cfg.streamEfficiency = 1.0;
    cfg.requestLatency = 0;
    DramModel dram(cfg);
    dram.access(0, 1000, AccessPattern::Streaming);   // busy to 10
    Cycles done = dram.access(5, 1000, AccessPattern::Streaming);
    EXPECT_EQ(done, 20u); // queued behind the first request
}

TEST(Dram, SmallRandomRequestsSlower)
{
    // Short random touches pay the row-activation penalty; the
    // penalty amortizes away for multi-KiB bursts.
    DramModel stream_chan, random_chan;
    Cycles stream = 0, random = 0;
    for (int i = 0; i < 100; ++i) {
        stream = stream_chan.access(0, 256, AccessPattern::Streaming);
        random = random_chan.access(0, 256, AccessPattern::Random);
    }
    EXPECT_GT(random, stream);
    EXPECT_EQ(stream_chan.streamedBytes(), 25600u);
    EXPECT_EQ(random_chan.randomBytes(), 25600u);

    // Large random bursts approach streaming efficiency.
    DramModel big_random, big_stream;
    Cycles rb = big_random.access(0, 1 << 20, AccessPattern::Random);
    Cycles sb = big_stream.access(0, 1 << 20, AccessPattern::Streaming);
    EXPECT_LT(static_cast<double>(rb),
              static_cast<double>(sb) * 1.05);
}

TEST(Stats, RegistryBasics)
{
    StatsRegistry stats;
    stats.add("a", 1.5);
    stats.add("a", 2.5);
    stats.set("b", 7.0);
    EXPECT_DOUBLE_EQ(stats.get("a"), 4.0);
    EXPECT_DOUBLE_EQ(stats.get("b"), 7.0);
    EXPECT_DOUBLE_EQ(stats.get("missing"), 0.0);
    EXPECT_TRUE(stats.has("a"));
    EXPECT_FALSE(stats.has("missing"));
    EXPECT_NE(stats.toString().find("a 4"), std::string::npos);
}

} // namespace
} // namespace igcn
