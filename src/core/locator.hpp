/**
 * @file
 * The Island Locator: Algorithms 1-4 of the I-GCN paper.
 *
 * Functional (architecture-independent) implementation of runtime
 * islandization. The locator proceeds in rounds; each round detects
 * hubs with the current degree threshold (Algorithm 2), turns each
 * detected hub's neighbors into BFS start tasks (Algorithm 3), and
 * runs Threshold-based Parallel BFS from those starting points
 * (Algorithm 4) with the paper's three task-break conditions:
 *
 *  (A) the BFS reaches a node already claimed by another task in
 *      this round (global-visited collision) -> drop task; marks are
 *      rolled back when the claimer is still in flight (parallel
 *      engines) and kept when it has finished (sequential loop);
 *  (B) the local visited count exceeds cmax -> drop task, keep marks;
 *  (C) query pointer catches up with the visit counter -> island found.
 *
 * The default mode runs TP-BFS as one sequential loop: the round's
 * tasks are generated in hub order, then neighbor order, and each
 * runs to completion and is recorded before the next starts. That
 * is one valid interleaving of the paper's P2 concurrent engines:
 * within a round hub-ness is decided purely by the (fixed)
 * threshold, so task interleaving only affects *which* task claims
 * a region, not whether it is an island. The locator does not use
 * the thread pool, so the partition, every statistic and the task
 * trace are the same at every IGCN_THREADS. The cycle-level
 * accelerator models consume these stats, so modeled latency/energy
 * never depends on the thread count either; the engines' parallelism
 * is modeled in cycles (accel/locator_pipeline), not executed.
 */

#pragma once

#include "core/island.hpp"

namespace igcn {

/** Tunable parameters of the Island Locator (Algorithm 1 inputs). */
struct LocatorConfig
{
    /** Initial hub threshold TH0. 0 selects max(2, maxDegree/2). */
    NodeId initialThreshold = 0;
    /** Multiplicative threshold decay per round (Decay function). */
    double decay = 0.6;
    /** Maximum number of nodes an island may contain (cmax). */
    NodeId maxIslandSize = 64;
    /** Hub-detector parallel lanes P1 (timing model only). */
    int p1 = 64;
    /** Number of TP-BFS engines P2 (timing model only). */
    int p2 = 64;
    /** Adjacency entries an engine consumes per cycle (timing model
     *  only): lists arrive as 128-bit bursts of four 32-bit ids. */
    int bfsScanWidth = 4;
    /**
     * Execute TP-BFS with P2 engine states advancing in round-robin
     * interleaving, one node expansion per step, as the hardware does
     * (Algorithm 1's Th3 across P2 engines). Break condition A then
     * hits engines still in flight, and the colliding task's marks
     * are rolled back as in the paper. This is a different
     * interleaving from the default sequential loop, so islands,
     * statistics and trace differ; both modes satisfy the same
     * postconditions and both record one trace entry per task.
     */
    bool parallelEngines = false;
    /**
     * Record a per-task trace (round, outcome, edges scanned) into
     * IslandizationResult::taskTrace, consumed by the cycle-level
     * locator pipeline model. Off by default: traces are large on
     * Reddit-scale graphs.
     */
    bool recordTrace = false;
};

/**
 * Run islandization over an undirected graph.
 *
 * Postconditions (checked by the test suite):
 *  - every node is classified as Hub or IslandNode;
 *  - islands have between 1 and cmax member nodes;
 *  - every edge is covered exactly once: island-island edges inside
 *    one island, island-hub edges in that island's hub list, hub-hub
 *    edges in interHubEdges.
 */
IslandizationResult islandize(const CsrGraph &g,
                              const LocatorConfig &cfg = {});

} // namespace igcn
