#include "core/locator.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

namespace igcn {

namespace {

/** Mutable state of one islandization run. */
struct LocatorState
{
    const CsrGraph &g;
    const LocatorConfig &cfg;
    IslandizationResult out;

    /** Round id in which a node was globally visited (0 = never). */
    std::vector<uint32_t> visitedGlobalRound;
    /** Task id that locally visited a node (0 = never). */
    std::vector<uint64_t> visitedLocalTask;
    uint64_t taskCounter = 0;

    explicit LocatorState(const CsrGraph &graph, const LocatorConfig &c)
        : g(graph), cfg(c)
    {
        const NodeId n = g.numNodes();
        out.role.assign(n, NodeRole::Unclassified);
        out.islandOf.assign(n, IslandizationResult::kNoIsland);
        out.hubRound.assign(n, 0);
        visitedGlobalRound.assign(n, 0);
        visitedLocalTask.assign(n, 0);
    }
};

/** In-flight state of one TP-BFS engine: the task it is running. */
struct BfsEngine
{
    bool busy = false;
    NodeId hub0 = 0;
    /** Visited nodes in BFS order; the query pointer walks it. */
    std::vector<NodeId> vLocal;
    std::vector<NodeId> hLocal;
    size_t query = 0;
    uint64_t taskId = 0;
    EdgeId edgesScanned = 0;
};

/** Account one finished task: outcome counters, scans and trace. */
void
recordTask(LocatorState &st, NodeId hub, TaskOutcome outcome,
           EdgeId scanned, uint32_t round)
{
    LocatorStats &s = st.out.stats;
    s.edgesScanned += scanned;
    switch (outcome) {
    case TaskOutcome::IslandFound:
        s.islandsFound++;
        break;
    case TaskOutcome::DroppedStartVisited:
        s.tasksDroppedStartVisited++;
        break;
    case TaskOutcome::DroppedCollision:
        s.tasksDroppedCollision++;
        s.edgesScannedWasted += scanned;
        break;
    case TaskOutcome::DroppedOversize:
        s.tasksDroppedOversize++;
        s.edgesScannedWasted += scanned;
        break;
    case TaskOutcome::InterHub:
        s.tasksInterHub++;
        break;
    }
    if (st.cfg.recordTrace) {
        TaskTrace trace;
        trace.round = static_cast<uint16_t>(round);
        trace.outcome = outcome;
        trace.edgesScanned = static_cast<uint32_t>(scanned);
        trace.hubDegree = st.g.degree(hub);
        st.out.taskTrace.push_back(trace);
    }
}

/**
 * Pop task (hub, a0) onto engine `e` (Algorithm 4's start checks,
 * made when an engine takes the task off the queue, as in the
 * hardware). An a0 that is itself a hub is an inter-hub connection;
 * an a0 already claimed drops at start. Returns whether the engine
 * started the BFS.
 */
bool
startTask(LocatorState &st, BfsEngine &e, NodeId hub, NodeId a0,
          NodeId th, uint32_t round)
{
    auto &out = st.out;
    out.stats.tasksGenerated++;
    if (st.g.degree(a0) >= th) {
        out.interHubEdges.emplace_back(std::min(hub, a0),
                                       std::max(hub, a0));
        recordTask(st, hub, TaskOutcome::InterHub, 0, round);
        return false;
    }
    if (out.role[a0] == NodeRole::IslandNode ||
        st.visitedGlobalRound[a0] == round) {
        recordTask(st, hub, TaskOutcome::DroppedStartVisited, 0, round);
        return false;
    }
    e.busy = true;
    e.hub0 = hub;
    // An island holds at most maxIslandSize nodes (+1 for the push
    // that triggers break condition B); reserving once removes the
    // realloc-and-copy churn of growth inside the scan loop.
    e.vLocal.clear();
    e.vLocal.reserve(static_cast<size_t>(st.cfg.maxIslandSize) + 1);
    e.vLocal.push_back(a0);
    e.hLocal.clear();
    e.hLocal.reserve(8);
    e.hLocal.push_back(hub);
    e.query = 0;
    e.edgesScanned = 0;
    e.taskId = ++st.taskCounter;
    st.visitedLocalTask[a0] = e.taskId;
    st.visitedGlobalRound[a0] = round;
    return true;
}

/** Record the island an engine completed (break condition C). */
void
finishIsland(LocatorState &st, BfsEngine &e, uint32_t round)
{
    auto &out = st.out;
    std::sort(e.hLocal.begin(), e.hLocal.end());
    e.hLocal.erase(std::unique(e.hLocal.begin(), e.hLocal.end()),
                   e.hLocal.end());
    Island island;
    island.nodes = std::move(e.vLocal);
    island.hubs = std::move(e.hLocal);
    island.round = static_cast<int>(round);
    island.edgesScanned = e.edgesScanned;
    const auto island_id = static_cast<uint32_t>(out.islands.size());
    for (NodeId v : island.nodes) {
        out.role[v] = NodeRole::IslandNode;
        out.islandOf[v] = island_id;
    }
    out.islands.push_back(std::move(island));
    recordTask(st, e.hub0, TaskOutcome::IslandFound, e.edgesScanned,
               round);
    e.busy = false;
}

/**
 * Advance one engine by one node expansion (the adjacency list of
 * the node under the query pointer). Step granularity is what makes
 * engine interleaving visible in the parallel-engine mode; tpBfs()
 * steps one engine to completion.
 */
void
stepEngine(LocatorState &st, BfsEngine &e, NodeId th, uint32_t round)
{
    const NodeId node = e.vLocal[e.query];
    st.out.stats.adjListFetches++;
    for (NodeId n : st.g.neighbors(node)) {
        e.edgesScanned++;
        if (st.g.degree(n) >= th) {
            // Hub (this round's threshold, or an earlier round's
            // higher one): border node, never traversed through.
            e.hLocal.push_back(n);
        } else if (st.visitedLocalTask[n] == e.taskId) {
            // Already explored by this task: skip.
        } else if (st.visitedGlobalRound[n] == round) {
            // Break condition A: claimed by another task this round.
            // A concurrent engine's claim is still in flight, so the
            // paper rolls this task's marks back. In the sequential
            // loop the claiming region is finished, so the marks are
            // kept (as in break condition B) and sibling tasks drop
            // at start instead of rescanning.
            if (st.cfg.parallelEngines)
                for (NodeId v : e.vLocal)
                    st.visitedGlobalRound[v] = 0;
            recordTask(st, e.hub0, TaskOutcome::DroppedCollision,
                       e.edgesScanned, round);
            e.busy = false;
            return;
        } else {
            e.vLocal.push_back(n);
            st.visitedLocalTask[n] = e.taskId;
            st.visitedGlobalRound[n] = round;
            if (e.vLocal.size() > st.cfg.maxIslandSize) {
                // Break condition B: too large to be an island at
                // this threshold. Marks are kept so sibling tasks
                // don't rescan the region this round; the nodes stay
                // unclassified and are retried next round at a lower
                // threshold.
                recordTask(st, e.hub0, TaskOutcome::DroppedOversize,
                           e.edgesScanned, round);
                e.busy = false;
                return;
            }
        }
    }
    // Break condition C: the query pointer caught up with the visit
    // count -> island found.
    if (++e.query == e.vLocal.size())
        finishIsland(st, e, round);
}

/**
 * Sequential TP-BFS (Algorithm 4): run the round's tasks one at a
 * time in generation order, each to completion, recording it before
 * the next starts. This is one valid interleaving of the hardware's
 * engines, and the default mode.
 */
void
tpBfs(LocatorState &st, const std::vector<Edge> &tasks, NodeId th,
      uint32_t round)
{
    BfsEngine e;
    for (const auto &[hub, a0] : tasks)
        if (startTask(st, e, hub, a0, th, round))
            while (e.busy)
                stepEngine(st, e, th, round);
}

/**
 * Run the round's task queue on P2 concurrent engines, round-robin:
 * each iteration every engine either starts a task or expands one
 * node. This is the hardware's actual execution model; the set of
 * islands found can differ from the sequential interleaving (both
 * satisfy the coverage postconditions).
 */
void
runParallelTpBfs(LocatorState &st, const std::vector<Edge> &tasks,
                 NodeId th, uint32_t round)
{
    std::vector<BfsEngine> engines(std::max(1, st.cfg.p2));
    size_t next = 0;
    bool any_busy = true;
    while (any_busy || next < tasks.size()) {
        any_busy = false;
        for (BfsEngine &e : engines) {
            // Pop tasks until one is viable.
            while (!e.busy && next < tasks.size()) {
                const auto [hub, a0] = tasks[next++];
                startTask(st, e, hub, a0, th, round);
            }
            if (e.busy) {
                stepEngine(st, e, th, round);
                any_busy = any_busy || e.busy;
            }
        }
    }
}

} // namespace

IslandizationResult
islandize(const CsrGraph &g, const LocatorConfig &cfg)
{
    if (cfg.maxIslandSize < 1)
        throw std::invalid_argument("maxIslandSize must be >= 1");
    if (cfg.decay <= 0.0 || cfg.decay >= 1.0)
        throw std::invalid_argument("decay must be in (0, 1)");

    LocatorState st(g, cfg);
    auto &out = st.out;
    const NodeId n = g.numNodes();

    NodeId th = cfg.initialThreshold;
    if (th == 0)
        th = std::max<NodeId>(2, g.maxDegree() / 2);

    // Node Degree Buffer contents: nodes not yet classified. Rebuilt
    // (compacted) each round, mirroring the loop-back FIFOs.
    std::vector<NodeId> node_list(n);
    for (NodeId v = 0; v < n; ++v)
        node_list[v] = v;

    uint32_t round = 0;
    bool last_round_done = false;

    while (!node_list.empty() && !last_round_done) {
        round++;
        if (th <= 1)
            last_round_done = true;
        out.thresholds.push_back(th);
        RoundInfo round_info;
        round_info.threshold = th;
        round_info.nodesChecked = node_list.size();
        const uint64_t edges_before = out.stats.edgesScanned;
        const uint64_t islands_before = out.stats.islandsFound;

        // --- Th1: detect_hub (Algorithm 2) -------------------------
        // node_list holds only unclassified nodes (compacted at the
        // end of every round).
        out.stats.hubDetectChecks += node_list.size();
        std::vector<NodeId> hub_buffer;
        for (NodeId v : node_list) {
            if (g.degree(v) >= th) {
                out.role[v] = NodeRole::Hub;
                out.hubRound[v] = static_cast<uint16_t>(round);
                hub_buffer.push_back(v);
            }
        }

        // --- Th2 + Th3: task_assign (Alg. 3) + TP-BFS (Alg. 4) ----
        // Tasks in hub order, then neighbor order.
        std::vector<Edge> tasks;
        for (NodeId hub : hub_buffer) {
            out.stats.adjListFetches++;
            for (NodeId a0 : g.neighbors(hub))
                tasks.emplace_back(hub, a0);
        }
        if (cfg.parallelEngines)
            runParallelTpBfs(st, tasks, th, round);
        else
            tpBfs(st, tasks, th, round);

        // --- End-of-round threshold decay (Algorithm 1 line 10) ----
        auto next = static_cast<NodeId>(th * cfg.decay);
        th = (next >= th) ? th - 1 : next;
        if (th < 1)
            th = 1;

        // Compact away this round's hubs and island nodes so the
        // emptiness check below reflects the true N.
        std::erase_if(node_list, [&](NodeId v) {
            return out.role[v] != NodeRole::Unclassified;
        });

        round_info.hubsDetected = hub_buffer.size();
        round_info.edgesScanned = out.stats.edgesScanned - edges_before;
        round_info.islandsFound =
            out.stats.islandsFound - islands_before;
        out.rounds.push_back(round_info);
    }

    // Degree-0 nodes are never anyone's neighbor and never reach the
    // hub threshold: close them out as singleton islands.
    if (!node_list.empty()) {
        round++;
        out.thresholds.push_back(0);
        RoundInfo cleanup;
        cleanup.threshold = 0;
        cleanup.nodesChecked = node_list.size();
        cleanup.islandsFound = node_list.size();
        out.rounds.push_back(cleanup);
        for (NodeId v : node_list) {
            assert(g.degree(v) == 0);
            Island island;
            island.nodes = {v};
            island.round = static_cast<int>(round);
            out.role[v] = NodeRole::IslandNode;
            out.islandOf[v] = static_cast<uint32_t>(out.islands.size());
            out.islands.push_back(std::move(island));
            out.stats.islandsFound++;
        }
    }

    // Each hub-hub edge was recorded from both ends (and again in
    // later rounds); keep one copy and give the spare capacity back.
    auto &ih = out.interHubEdges;
    std::sort(ih.begin(), ih.end());
    ih.erase(std::unique(ih.begin(), ih.end()), ih.end());
    ih.shrink_to_fit();
    out.numRounds = static_cast<int>(round);
    return out;
}

} // namespace igcn
