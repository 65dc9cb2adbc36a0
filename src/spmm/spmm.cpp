#include "spmm/spmm.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "runtime/thread_pool.hpp"

namespace igcn {

namespace {

void
checkShapes(const CsrMatrix &a, const DenseMatrix &b)
{
    if (a.numCols != b.rows())
        throw std::invalid_argument("SpMM shape mismatch");
}

/**
 * Race-free row gather C += M * B over a compressed row index
 * (ptr, idx, val) — either a matrix's own CSR arrays or its CSC
 * adjunct (which gathers the transpose). Output rows are sharded
 * across workers, so every row of C is written by exactly one worker
 * with no speculation buffers; channels are tiled so each
 * irregularly-fetched B row contributes one kChannelTile-float slice
 * per pass. Per output element the entries accumulate in index order
 * regardless of the split or tiling, so the result is bit-identical
 * at any thread count. The pool region runs under the caller's
 * KernelRegion label.
 */
void
gatherTiled(const std::vector<EdgeId> &ptr,
            const std::vector<NodeId> &idx,
            const std::vector<float> &val, const DenseMatrix &b,
            DenseMatrix &c)
{
    const size_t channels = b.cols();
    constexpr size_t kChannelTile = 64;
    globalPool().parallelFor(0, c.rows(),
                             [&](int, size_t r0, size_t r1) {
        for (size_t ch0 = 0; ch0 < channels; ch0 += kChannelTile) {
            const size_t ch1 = std::min(channels, ch0 + kChannelTile);
            for (size_t i = r0; i < r1; ++i) {
                float *crow = c.row(i);
                for (EdgeId e = ptr[i]; e < ptr[i + 1]; ++e) {
                    const float v = val[e];
                    const float *brow = b.row(idx[e]);
                    for (size_t ch = ch0; ch < ch1; ++ch)
                        crow[ch] += v * brow[ch];
                }
            }
        }
    }, /*min_per_worker=*/16);
}

/**
 * PULL-Row-Wise body shared by spmmPullRowWise and sparseTimesDense;
 * `label` names the KernelRegion the gather runs under.
 */
DenseMatrix
pullRowWise(const CsrMatrix &a, const DenseMatrix &b,
            SpmmCounters *counters, const char *label)
{
    const size_t channels = b.cols();
    DenseMatrix c(a.numRows, channels);
    KernelRegion region(label);

    // Rows of C are independent: shard the row range across workers
    // (gatherTiled), channel-tiled so far more distinct B rows stay
    // resident in L1/L2 across the edges of a row block. Per output
    // element the edge accumulation order is unchanged, so the result
    // is bit-identical at any thread count.
    gatherTiled(a.rowPtr, a.colIdx, a.values, b, c);

    // Counters model the dataflow's access profile (Table 1), which
    // software tiling does not change: each non-zero of A is one A
    // read, pulls one full B row irregularly, and every output
    // element is written streamed once.
    if (counters) {
        SpmmCounters cnt;
        cnt.aReads = a.nnz();
        cnt.bIrregularReads = a.nnz() * channels;
        cnt.macOps = a.nnz() * channels;
        cnt.cStreamedWrites =
            static_cast<uint64_t>(a.numRows) * channels;
        *counters += cnt;
    }
    return c;
}

} // namespace

DenseMatrix
spmmPullRowWise(const CsrMatrix &a, const DenseMatrix &b,
                SpmmCounters *counters)
{
    checkShapes(a, b);
    return pullRowWise(a, b, counters, "spmm_pull_row_wise");
}

DenseMatrix
spmmPullInnerProduct(const CsrMatrix &a, const DenseMatrix &b,
                     SpmmCounters *counters)
{
    checkShapes(a, b);
    const size_t channels = b.cols();
    DenseMatrix c(a.numRows, channels);
    KernelRegion region("spmm_pull_inner_product");

    // Every output element is an independent inner product: shard the
    // row range across workers. Each element accumulates its row's
    // edges in ascending order regardless of the split, so the result
    // is bit-identical at any thread count.
    globalPool().parallelFor(0, a.numRows,
                             [&](int, size_t r0, size_t r1) {
        for (size_t i = r0; i < r1; ++i) {
            for (size_t ch = 0; ch < channels; ++ch) {
                float acc = 0.0f;
                for (EdgeId e = a.rowPtr[i]; e < a.rowPtr[i + 1]; ++e)
                    acc += a.values[e] * b.at(a.colIdx[e], ch);
                c.at(i, ch) = acc;
            }
        }
    }, /*min_per_worker=*/16);

    // Dataflow profile (Table 1): the per-channel loop re-reads each
    // non-zero of A every channel and pulls single B-column elements
    // irregularly; outputs are produced streamed one element at a
    // time. Arithmetic, so exact at every thread count.
    if (counters) {
        SpmmCounters cnt;
        cnt.aReads = a.nnz() * channels;
        cnt.bIrregularReads = a.nnz() * channels;
        cnt.macOps = a.nnz() * channels;
        cnt.cStreamedWrites =
            static_cast<uint64_t>(a.numRows) * channels;
        *counters += cnt;
    }
    return c;
}

DenseMatrix
spmmPushColumnWise(const CsrMatrix &a, const DenseMatrix &b,
                   SpmmCounters *counters)
{
    checkShapes(a, b);
    const size_t channels = b.cols();
    DenseMatrix c(a.numRows, channels);
    KernelRegion region("spmm_push_column_wise");

    // Outer loop over channels: each pass broadcasts one feature
    // channel of every node to its neighbors. We iterate the non-zeros
    // of A by row here, but A(i, k) consumes B(k, ch) and produces
    // C(i, ch); per channel, B is read streamed and C is written into
    // a column buffer (streamed if it fits on chip). Channels are
    // independent — workers own disjoint channel ranges, i.e. disjoint
    // columns of C, so each element keeps its sequential edge
    // accumulation order and the result is bit-identical at any
    // thread count.
    globalPool().parallelFor(0, channels,
                             [&](int, size_t ch0, size_t ch1) {
        for (size_t ch = ch0; ch < ch1; ++ch) {
            for (NodeId i = 0; i < a.numRows; ++i) {
                for (EdgeId e = a.rowPtr[i]; e < a.rowPtr[i + 1]; ++e)
                    c.at(i, ch) += a.values[e] * b.at(a.colIdx[e], ch);
            }
        }
    });

    // Per channel: every non-zero of A is re-read, consumes one
    // streamed element of B's channel column and read-modify-writes
    // one C element selected by the non-zero's row id.
    if (counters) {
        SpmmCounters cnt;
        cnt.aReads = a.nnz() * channels;
        cnt.bStreamedReads = a.nnz() * channels;
        cnt.macOps = a.nnz() * channels;
        cnt.cIrregularWrites = a.nnz() * channels;
        *counters += cnt;
    }
    return c;
}

DenseMatrix
spmmPushOuterProduct(const CsrMatrix &a, const DenseMatrix &b,
                     SpmmCounters *counters)
{
    checkShapes(a, b);
    const size_t channels = b.cols();
    DenseMatrix c(a.numRows, channels);
    KernelRegion region("spmm_push_outer_product");

    // The push outer-product dataflow processes non-zeros of A by
    // column k — node k broadcasts its whole feature row B(k,:) into
    // C(i,:) for every A(i,k) != 0 — and that scatter races under
    // column sharding. Executed as a gather instead, each output row
    // i pulls exactly its own non-zeros A(i,k) in ascending-k order
    // (CSR neighbor lists are sorted), which is the same per-element
    // accumulation order the column sweep produces: workers own
    // disjoint rows of C, no per-worker speculation buffers and no
    // per-call CSC rebuild, and the result is bit-identical to the
    // sequential column-order scatter at any thread count. The
    // counters below still model the logical push dataflow.
    gatherTiled(a.rowPtr, a.colIdx, a.values, b, c);

    // Per column: one streamed read of the full B row (empty columns
    // included, as the hardware prefetches the broadcast row before
    // consulting the column's non-zeros); per non-zero: one A read
    // and a full-row irregular read-modify-write of Xo.
    if (counters) {
        SpmmCounters cnt;
        cnt.bStreamedReads =
            static_cast<uint64_t>(a.numCols) * channels;
        cnt.aReads = a.nnz();
        cnt.macOps = a.nnz() * channels;
        cnt.cIrregularWrites = a.nnz() * channels;
        *counters += cnt;
    }
    return c;
}

CsrMatrix
csrGather(const CsrMatrix &x, std::span<const NodeId> rows)
{
    for (NodeId r : rows)
        if (r >= x.numRows)
            throw std::out_of_range("csrGather: row " +
                                    std::to_string(r) + " >= numRows " +
                                    std::to_string(x.numRows));

    CsrMatrix out;
    out.numRows = static_cast<NodeId>(rows.size());
    out.numCols = x.numCols;
    out.rowPtr.assign(rows.size() + 1, 0);
    for (size_t i = 0; i < rows.size(); ++i)
        out.rowPtr[i + 1] = out.rowPtr[i] + x.rowNnz(rows[i]);
    out.colIdx.resize(out.rowPtr.back());
    out.values.resize(out.rowPtr.back());

    // Each output row copies exactly one source row into its own
    // prefix-summed slot: disjoint writes, so the parallel copy is
    // race-free and trivially bit-identical at any thread count.
    KernelRegion region("csr_gather");
    globalPool().parallelFor(0, rows.size(),
                             [&](int, size_t i0, size_t i1) {
        for (size_t i = i0; i < i1; ++i) {
            const EdgeId src = x.rowPtr[rows[i]];
            const EdgeId n = out.rowPtr[i + 1] - out.rowPtr[i];
            std::copy_n(x.colIdx.data() + src, n,
                        out.colIdx.data() + out.rowPtr[i]);
            std::copy_n(x.values.data() + src, n,
                        out.values.data() + out.rowPtr[i]);
        }
    }, /*min_per_worker=*/64);
    return out;
}

DenseMatrix
sparseTimesDense(const CsrMatrix &x, const DenseMatrix &w,
                 SpmmCounters *counters)
{
    if (x.numCols != w.rows())
        throw std::invalid_argument("sparseTimesDense shape mismatch");
    return pullRowWise(x, w, counters, "sparse_times_dense");
}

DenseMatrix
sparseTransposeTimesDense(const CsrMatrix &x, const DenseMatrix &b)
{
    if (x.numRows != b.rows())
        throw std::invalid_argument(
            "shape mismatch in sparseTransposeTimesDense");

    // C(j, :) = sum over entries X(r, j) of X(r, j) * B(r, :): a
    // scatter in row order, but a race-free gather over the cached
    // CSC adjunct — column j of X lists exactly the entries of
    // output row j, in ascending r order (the sequential scatter's
    // order), so workers own disjoint output rows.
    const CscIndex &csc = x.csc();
    DenseMatrix c(x.numCols, b.cols());
    KernelRegion region("sparse_transpose_times_dense");
    gatherTiled(csc.colPtr, csc.rowOf, csc.valOf, b, c);
    return c;
}

CsrMatrix
denseToCsrFeatures(const DenseMatrix &m)
{
    CsrMatrix out;
    out.numRows = static_cast<NodeId>(m.rows());
    out.numCols = static_cast<NodeId>(m.cols());
    out.rowPtr.assign(m.rows() + 1, 0);
    const size_t nnz = m.countNonZeros();
    out.colIdx.reserve(nnz);
    out.values.reserve(nnz);
    for (size_t r = 0; r < m.rows(); ++r) {
        for (size_t c = 0; c < m.cols(); ++c) {
            if (m.at(r, c) != 0.0f) {
                out.colIdx.push_back(static_cast<NodeId>(c));
                out.values.push_back(m.at(r, c));
            }
        }
        out.rowPtr[r + 1] = out.colIdx.size();
    }
    return out;
}

DenseMatrix
csrFeaturesToDense(const CsrMatrix &x)
{
    DenseMatrix d(x.numRows, x.numCols);
    for (NodeId r = 0; r < x.numRows; ++r)
        for (EdgeId e = x.rowPtr[r]; e < x.rowPtr[r + 1]; ++e)
            d.at(r, x.colIdx[e]) = x.values[e];
    return d;
}

} // namespace igcn
