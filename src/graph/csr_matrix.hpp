/**
 * @file
 * Compressed Sparse Row matrix of floats.
 *
 * I-GCN's GraphCONV A_hat * (X * W) has two sparse operands, and both
 * are stored in this one type: the normalised adjacency A_hat, and
 * feature matrices X of ~0.01 density (NELL), where dense storage
 * would waste ~100x memory and first-layer FLOPs. The layout is
 * CsrGraph's rowPtr/colIdx plus a parallel values array, living in
 * the graph layer so datasets can build it and every consumer
 * (training, serving, accel models) shares one storage type. Kernels
 * over it (spmm*, csrGather, sparseTimesDense) live in src/spmm/,
 * which also owns the dense<->sparse conversions — this header has
 * no dependency on DenseMatrix.
 */

#pragma once

#include <span>
#include <vector>

#include "graph/csr.hpp"

namespace igcn {

/** One row of a CsrMatrix: parallel column/value spans. */
struct CsrRow
{
    std::span<const NodeId> cols; ///< strictly ascending column ids
    std::span<const float> vals;  ///< value per column entry
};

/**
 * Column-major (CSC) adjunct of a CsrMatrix: the same entries grouped
 * by column, i.e. the transpose view. colPtr[k]..colPtr[k+1] spans
 * column k; within a column, entries are in ascending row order (the
 * CSR rows are swept ascending at build time), so a gather over the
 * CSC replays the row-ascending accumulation order of a column-order
 * scatter exactly.
 */
struct CscIndex
{
    std::vector<EdgeId> colPtr; ///< size numCols + 1
    std::vector<NodeId> rowOf;  ///< row id per entry
    std::vector<float> valOf;   ///< value per entry
};

/**
 * CSR float matrix. Each row's columns are strictly ascending and in
 * range. Explicitly stored zeros are permitted (a stored 0.0f is a
 * structural entry, not an error) so adopting arrays never silently
 * changes sparsity structure.
 *
 * Builders (fromGraph, makeFeatures, denseToCsrFeatures, csrGather,
 * the adjacency builders of gcn/layer.hpp) fill the public arrays
 * directly and are responsible for the invariants; arrays from
 * untrusted or derived sources go through fromArrays, which validates
 * in O(nnz). The cached CSC adjunct follows the LazyAdjunct rules of
 * CsrGraph::inEdges(): derived state, never identity.
 */
struct CsrMatrix
{
    NodeId numRows = 0;
    NodeId numCols = 0;
    std::vector<EdgeId> rowPtr{0}; ///< size numRows + 1
    std::vector<NodeId> colIdx;    ///< size nnz, ascending per row
    std::vector<float> values;     ///< size nnz, parallel to colIdx

    /**
     * Adopt prebuilt arrays with O(nnz) validation: rowPtr starts at
     * 0, is monotone, has size num_rows + 1, and ends at
     * col_idx.size(); values parallels col_idx; every row's columns
     * are strictly ascending and < num_cols.
     * @throws std::invalid_argument on any violation.
     */
    [[nodiscard]] static CsrMatrix fromArrays(NodeId num_rows,
                                  NodeId num_cols,
                                  std::vector<EdgeId> row_ptr,
                                  std::vector<NodeId> col_idx,
                                  std::vector<float> vals);

    /** Unweighted adjacency (all values 1) from a graph. */
    [[nodiscard]] static CsrMatrix fromGraph(const CsrGraph &g);

    /** Stored entry count (including explicit zeros). */
    EdgeId nnz() const { return static_cast<EdgeId>(colIdx.size()); }

    /** Stored entries per row. */
    NodeId
    rowNnz(NodeId r) const
    {
        return static_cast<NodeId>(rowPtr[r + 1] - rowPtr[r]);
    }

    /** Row r as parallel column/value spans. */
    CsrRow
    row(NodeId r) const
    {
        return {{colIdx.data() + rowPtr[r], colIdx.data() + rowPtr[r + 1]},
                {values.data() + rowPtr[r], values.data() + rowPtr[r + 1]}};
    }

    /** nnz / (rows * cols); 0 for a degenerate empty matrix. */
    double density() const;

    /** Heap bytes of the three CSR arrays (the memory scoreboard). */
    size_t storageBytes() const;

    /**
     * The cached CSC adjunct, built lazily on first use (thread-safe
     * one-time construction; concurrent first callers all see the
     * same object). X^T-side products gather through it instead of
     * rebuilding a transpose per call. Mutating rowPtr / colIdx /
     * values after the cache was built requires invalidateCsc();
     * see LazyAdjunct for the copy/move/equality rules.
     */
    const CscIndex &csc() const;

    /** Drop the cached CSC (call after mutating the entries). */
    void invalidateCsc() const { cscCache.invalidate(); }

    /** Equality over dimensions and arrays; the CSC cache is ignored. */
    bool operator==(const CsrMatrix &other) const = default;

  private:
    LazyAdjunct<CscIndex> cscCache;
};

/**
 * The feature-matrix name of CsrMatrix, from when X and A_hat had
 * separate types. Kept only because the repo benchmark's frozen
 * sources (perfbench/) still spell it; new code uses CsrMatrix.
 */
using CsrFeatures = CsrMatrix;

} // namespace igcn
