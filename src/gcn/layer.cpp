#include "gcn/layer.hpp"

#include <cmath>
#include <stdexcept>

#include "gcn/reference.hpp"
#include "runtime/thread_pool.hpp"

namespace igcn {

std::vector<float>
degreeScaling(const CsrGraph &g)
{
    std::vector<float> s(g.numNodes());
    for (NodeId v = 0; v < g.numNodes(); ++v)
        s[v] = 1.0f / std::sqrt(static_cast<float>(g.degree(v)) + 1.0f);
    return s;
}

void
scaleRows(DenseMatrix &m, const std::vector<float> &s)
{
    KernelRegion region("scale_rows");
    globalPool().parallelFor(0, m.rows(),
                             [&](int, size_t r0, size_t r1) {
        for (size_t r = r0; r < r1; ++r) {
            float *row = m.row(r);
            for (size_t c = 0; c < m.cols(); ++c)
                row[c] *= s[r];
        }
    }, /*min_per_worker=*/256);
}

CsrMatrix
normalizedAdjacency(const CsrGraph &g)
{
    return normalizedAdjacencyScaled(g, degreeScaling(g));
}

CsrMatrix
normalizedAdjacencyScaled(const CsrGraph &g, const std::vector<float> &s)
{
    CsrMatrix m;
    refreshNormalizedAdjacency(m, g, s);
    return m;
}

void
refreshNormalizedAdjacency(CsrMatrix &m, const CsrGraph &g,
                           const std::vector<float> &s)
{
    m.numRows = g.numNodes();
    m.numCols = g.numNodes();
    m.rowPtr.assign(g.numNodes() + 1, 0);
    m.colIdx.clear();
    m.values.clear();
    for (NodeId u = 0; u < g.numNodes(); ++u) {
        bool self_inserted = false;
        for (NodeId v : g.neighbors(u)) {
            if (!self_inserted && v >= u) {
                m.colIdx.push_back(u);
                m.values.push_back(s[u] * s[u]);
                self_inserted = true;
                if (v == u)
                    continue; // graph already had the self loop
            }
            m.colIdx.push_back(v);
            m.values.push_back(s[u] * s[v]);
        }
        if (!self_inserted) {
            m.colIdx.push_back(u);
            m.values.push_back(s[u] * s[u]);
        }
        m.rowPtr[u + 1] = m.colIdx.size();
    }
    m.invalidateCsc();
}

DenseMatrix
forwardChain(const CsrMatrix &a_hat, DenseMatrix xw0,
             const std::vector<DenseMatrix> &weights)
{
    DenseMatrix current = spmmPullRowWise(a_hat, xw0);
    for (size_t l = 1; l < weights.size(); ++l) {
        reluInPlace(current);
        DenseMatrix xw = gemm(current, weights[l]);
        current = spmmPullRowWise(a_hat, xw);
    }
    return current;
}

DenseMatrix
subgraphForward(const CsrGraph &sub, const std::vector<float> &scale,
                const Features &x,
                const std::vector<DenseMatrix> &weights)
{
    if (weights.empty())
        throw std::invalid_argument("no layers");
    CsrMatrix a_hat = normalizedAdjacencyScaled(sub, scale);
    return forwardChain(a_hat, combineFeatures(x, weights[0]), weights);
}

CsrMatrix
binaryAdjacencyWithSelfLoops(const CsrGraph &g)
{
    CsrMatrix m;
    m.numRows = g.numNodes();
    m.numCols = g.numNodes();
    m.rowPtr.assign(g.numNodes() + 1, 0);
    for (NodeId u = 0; u < g.numNodes(); ++u) {
        bool self_inserted = false;
        for (NodeId v : g.neighbors(u)) {
            if (!self_inserted && v >= u) {
                m.colIdx.push_back(u);
                self_inserted = true;
                if (v == u)
                    continue;
            }
            m.colIdx.push_back(v);
        }
        if (!self_inserted)
            m.colIdx.push_back(u);
        m.rowPtr[u + 1] = m.colIdx.size();
    }
    m.values.assign(m.colIdx.size(), 1.0f);
    return m;
}

void
reluInPlace(DenseMatrix &m)
{
    auto &data = m.data();
    KernelRegion region("relu");
    globalPool().parallelFor(0, data.size(),
                             [&](int, size_t lo, size_t hi) {
        for (size_t i = lo; i < hi; ++i)
            if (data[i] < 0.0f)
                data[i] = 0.0f;
    }, /*min_per_worker=*/65536);
}

} // namespace igcn
