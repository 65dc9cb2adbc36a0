/**
 * @file
 * 64-bit FNV-1a digest of a whole serving replay, shared by the
 * serving test binaries to pin reference replays as constants.
 *
 * The digest covers every field of every result in report order
 * (inference results with their logit bits, update applications
 * with their repair statistics, rejections), then the stats summary
 * and the per-tenant rejection table. Any change to batch
 * composition, dispatch or completion times, epochs, result order
 * or telemetry moves it.
 */

#pragma once

#include <cstring>
#include <string>

#include "serve/server.hpp"

namespace igcn::serve {

inline uint64_t
replayDigest(const ReplayReport &rep, const ServerStats &stats)
{
    uint64_t h = 14695981039346656037ull;
    auto mix = [&h](uint64_t v) {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xffu;
            h *= 1099511628211ull;
        }
    };
    auto mixText = [&mix](const std::string &s) {
        mix(s.size());
        for (char c : s)
            mix(static_cast<unsigned char>(c));
    };

    mix(rep.inference.size());
    for (const InferenceResult &r : rep.inference) {
        for (uint64_t v :
             {r.id, uint64_t{r.node}, uint64_t{r.tenant}, r.epoch,
              uint64_t{r.epochsBehind}, r.deadlineUs,
              static_cast<uint64_t>(r.freshness), r.arrivalUs,
              r.startUs, r.doneUs, uint64_t{r.batchSize}})
            mix(v);
        mix(r.logits.size());
        for (float x : r.logits) {
            uint32_t bits;
            std::memcpy(&bits, &x, sizeof bits);
            mix(bits);
        }
    }
    mix(rep.updates.size());
    for (const UpdateResult &u : rep.updates) {
        const IncrementalStats &s = u.stats;
        for (uint64_t v :
             {u.id, u.epoch, uint64_t{u.coalesced},
              uint64_t{u.edgesApplied}, uint64_t{u.edgesRemoved},
              uint64_t{u.edgesSkippedInvalid},
              uint64_t{u.edgesSkippedNoop}, u.arrivalUs, u.startUs,
              u.doneUs, s.edgesAbsorbed, s.edgesInterHub,
              s.islandsDissolved, s.hubsDemoted,
              s.edgesRemovedInterHub, s.nodesReclassified,
              s.edgesScanned})
            mix(v);
    }
    mix(rep.rejections.size());
    for (const Rejection &r : rep.rejections)
        for (uint64_t v :
             {r.id, uint64_t{r.tenant}, static_cast<uint64_t>(r.kind),
              static_cast<uint64_t>(r.error), r.atUs})
            mix(v);
    mixText(stats.summary());
    mixText(stats.rejectionTable());
    return h;
}

} // namespace igcn::serve
