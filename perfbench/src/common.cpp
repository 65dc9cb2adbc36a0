#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <thread>

#include "obs/export.hpp"
#include "obs/trace.hpp"

namespace perfbench {

double
nowS()
{
    static const auto origin = std::chrono::steady_clock::now();
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - origin)
        .count();
}

double
quantile(std::vector<double> xs, double q)
{
    if (xs.empty())
        return 0.0;
    std::sort(xs.begin(), xs.end());
    const double pos = q * static_cast<double>(xs.size() - 1);
    const auto lo = static_cast<size_t>(pos);
    const size_t hi = std::min(lo + 1, xs.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return xs[lo] + (xs[hi] - xs[lo]) * frac;
}

double
median(std::vector<double> xs)
{
    return quantile(std::move(xs), 0.5);
}

Spans::Scope::Scope(Spans *s, const char *name, uint64_t id,
                    uint32_t lane)
    : spans(s), idx(-1), t0(nowS())
{
    if (!spans)
        return;
    Rec r;
    r.name = name;
    r.t0 = t0;
    r.parent = spans->stack.empty() ? -1 : spans->stack.back();
    r.id = id;
    r.lane = lane;
    idx = static_cast<int>(spans->recs.size());
    spans->recs.push_back(std::move(r));
    spans->stack.push_back(idx);
}

Spans::Scope::~Scope()
{
    if (!spans)
        return;
    spans->recs[static_cast<size_t>(idx)].t1 = nowS();
    spans->stack.pop_back();
}

Spans::Sum
Spans::sum(const std::string &name) const
{
    std::vector<double> child(recs.size(), 0.0);
    for (const Rec &r : recs)
        if (r.parent >= 0)
            child[static_cast<size_t>(r.parent)] += r.t1 - r.t0;
    Sum s;
    for (size_t i = 0; i < recs.size(); ++i) {
        if (recs[i].name != name)
            continue;
        const double d = recs[i].t1 - recs[i].t0;
        s.total += d;
        s.self += d - child[i];
        s.count++;
    }
    return s;
}

bool
Spans::writePerfetto(const std::string &path) const
{
    igcn::obs::TraceRecorder rec(true);
    const auto us = [](double s) {
        return static_cast<uint64_t>(s * 1e6);
    };
    for (size_t i = 0; i < recs.size(); ++i) {
        const Rec &r = recs[i];
        const uint64_t t0 = us(r.t0);
        const uint64_t t1 = std::max(t0, us(r.t1));
        rec.complete(r.lane, r.name, "perfbench", t0, t1 - t0,
                     {{"span", i + 1},
                      {"parent", static_cast<uint64_t>(r.parent + 1)},
                      {"id", r.id}});
    }
    return igcn::obs::writePerfettoTrace(rec, path);
}

void
Digest::add(const void *p, size_t n)
{
    const auto *b = static_cast<const unsigned char *>(p);
    for (size_t i = 0; i < n; ++i) {
        h ^= b[i];
        h *= 1099511628211ull;
    }
}

std::string
Digest::hex() const
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
}

HostSpeed
probeHostSpeed()
{
    HostSpeed s;
    double t0 = nowS();
    uint64_t x = 1;
    for (int i = 0; i < 20'000'000; ++i)
        x = x * 6364136223846793005ull + 1442695040888963407ull;
    s.aluMs = (nowS() - t0) * 1e3;
    const std::vector<uint64_t> buf(size_t{2} << 20, x | 1);
    t0 = nowS();
    uint64_t sum = 0;
    for (int pass = 0; pass < 4; ++pass)
        for (uint64_t v : buf)
            sum += v;
    s.memMs = (nowS() - t0) * 1e3;
    volatile uint64_t sink = sum;
    (void)sink;
    return s;
}

std::pair<uint64_t, uint64_t>
procStatTicks()
{
    std::ifstream in("/proc/stat");
    std::string line;
    if (!std::getline(in, line) || line.rfind("cpu ", 0) != 0)
        return {0, 0};
    std::istringstream ss(line.substr(4));
    // user nice system idle iowait irq softirq steal guest guest_nice;
    // guest time is already inside user, so stop at steal.
    uint64_t v = 0, total = 0, steal = 0;
    for (int i = 0; i < 8 && (ss >> v); ++i) {
        total += v;
        if (i == 7)
            steal = v;
    }
    return {steal, total};
}

HostNoise
probeHost()
{
    HostNoise h;
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line))
        if (line.rfind("model name", 0) == 0) {
            const size_t c = line.find(':');
            h.cpuModel = c == std::string::npos ? line : line.substr(c + 2);
            break;
        }
    if (h.cpuModel.empty())
        h.cpuModel = "unknown";
    h.nproc = std::thread::hardware_concurrency();
    const char *t = std::getenv("IGCN_THREADS");
    h.igcnThreads = t ? t : "unset";
    return h;
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

bool
Checks::expect(bool ok, const char *what, uint64_t op)
{
    checksRun++;
    if (!ok) {
        checksFailed++;
        failedOps.insert(op);
        if (messages.size() < 8)
            messages.push_back(std::string(what) + " (op " +
                               std::to_string(op) + ")");
    }
    return ok;
}

uint64_t
mix64(uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

} // namespace perfbench
