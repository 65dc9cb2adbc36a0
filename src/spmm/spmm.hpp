/**
 * @file
 * Sparse-dense matrix multiplication in the four dataflows the paper
 * analyzes (Figure 2): PULL-Row-Wise, PULL-Inner-Product,
 * PUSH-Column-Wise and PUSH-Outer-Product.
 *
 * All four compute the same product Xo = A * B; they differ in loop
 * order and therefore in which operand is reused and which is accessed
 * irregularly. Each kernel reports access counters that the Table 1
 * benchmark turns into the paper's qualitative comparison.
 */

#pragma once

#include <cstdint>
#include <span>

#include "graph/csr.hpp"
#include "graph/csr_matrix.hpp"
#include "spmm/dense.hpp"

namespace igcn {

/**
 * Access counters for one SpMM execution. "Irregular" accesses are
 * those whose address depends on a non-zero's coordinate (the ones
 * that defeat caches); "streamed" accesses are sequential.
 */
struct SpmmCounters
{
    uint64_t macOps = 0;           ///< multiply-accumulate operations
    uint64_t aReads = 0;           ///< non-zeros of A touched
    uint64_t bStreamedReads = 0;   ///< sequential element reads of B
    uint64_t bIrregularReads = 0;  ///< indexed element reads of B
    uint64_t cStreamedWrites = 0;  ///< sequential element writes of Xo
    uint64_t cIrregularWrites = 0; ///< indexed read-modify-writes of Xo

    SpmmCounters &
    operator+=(const SpmmCounters &o)
    {
        macOps += o.macOps;
        aReads += o.aReads;
        bStreamedReads += o.bStreamedReads;
        bIrregularReads += o.bIrregularReads;
        cStreamedWrites += o.cStreamedWrites;
        cIrregularWrites += o.cIrregularWrites;
        return *this;
    }
};

/**
 * PULL-Row-Wise (Figure 2-b1): rows of Xo produced in order; for each
 * non-zero A(i,k), the entire row B(k,:) is fetched and accumulated.
 */
DenseMatrix spmmPullRowWise(const CsrMatrix &a, const DenseMatrix &b,
                            SpmmCounters *counters = nullptr);

/**
 * PULL-Inner-Product (Figure 2-b2): output elements produced one
 * channel at a time; B is fetched column-by-column.
 */
DenseMatrix spmmPullInnerProduct(const CsrMatrix &a, const DenseMatrix &b,
                                 SpmmCounters *counters = nullptr);

/**
 * PUSH-Column-Wise (Figure 2-c1): outer loop over channels; each
 * node broadcasts its channel-k feature to its neighbors; Xo is
 * updated column by column.
 */
DenseMatrix spmmPushColumnWise(const CsrMatrix &a, const DenseMatrix &b,
                               SpmmCounters *counters = nullptr);

/**
 * PUSH-Outer-Product (Figure 2-c2): non-zeros of A processed by
 * column; each node's full feature row is broadcast to its neighbors
 * and Xo rows are updated irregularly.
 */
DenseMatrix spmmPushOuterProduct(const CsrMatrix &a, const DenseMatrix &b,
                                 SpmmCounters *counters = nullptr);

/**
 * Row-extraction kernel for CSR feature matrices: output row i is a
 * structural copy of x's row rows[i] (duplicates allowed, any order).
 * This is the serving engine's per-target-set gather — the sparse
 * analogue of the dense row-copy loop that builds a micro-batch's
 * x_local. Offsets are prefix-summed sequentially, then rows are
 * copied in parallel on the runtime pool; workers own disjoint output
 * rows, so the result is bit-identical at any IGCN_THREADS.
 * @throws std::out_of_range when a requested row id >= x.numRows.
 */
CsrMatrix csrGather(const CsrMatrix &x, std::span<const NodeId> rows);

/**
 * C = X * W for CSR features X (rows x k) and dense W (k x n): the
 * sparse first-layer combination kernel. It is spmmPullRowWise —
 * the same row gather and the same Table-1 counters (aReads = nnz,
 * bIrregularReads = macOps = nnz * n, cStreamedWrites = rows * n) —
 * under its own KernelRegion label, "sparse_times_dense", so layer-0
 * time stays apart from aggregation time in the runtime profile.
 * Per output element the stored entries accumulate in ascending
 * column order — exactly the order dense gemm accumulates its
 * non-zero a(i,k) terms — so on a densified copy of X the result is
 * bit-identical to gemm, at any IGCN_THREADS.
 */
DenseMatrix sparseTimesDense(const CsrMatrix &x, const DenseMatrix &w,
                             SpmmCounters *counters = nullptr);

/**
 * C = X^T * B for CSR X (rows x k) and dense B (rows x n): the
 * backward-pass weight-gradient kernel for sparse features. A
 * race-free gather over X's cached CSC adjunct: workers own disjoint
 * output rows (columns of X) and each output element accumulates its
 * column's entries in ascending row order — the sequential scatter's
 * order — so the result is bit-identical to the sequential kernel at
 * any thread count. The adjunct is built once per matrix and reused
 * by every later call (every training epoch passes the same X).
 */
DenseMatrix sparseTransposeTimesDense(const CsrMatrix &x,
                                      const DenseMatrix &b);

/** Convert a dense matrix into CSR form (exact, drops zeros). */
CsrMatrix denseToCsrFeatures(const DenseMatrix &m);

/**
 * Densify a CSR matrix, for verification on small inputs. Each
 * stored entry is copied to its cell; the strictly ascending columns
 * of a valid CsrMatrix give every cell at most one entry.
 */
DenseMatrix csrFeaturesToDense(const CsrMatrix &x);

} // namespace igcn
