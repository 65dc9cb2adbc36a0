/**
 * @file
 * Reference (golden) GCN forward pass on the CPU.
 *
 * Two mathematically identical paths are provided: the textbook
 * weighted path (explicit A_hat) and the factored path (row scaling +
 * binary aggregation) that I-GCN's hardware uses. The test suite
 * checks both against each other and against the Island Consumer.
 */

#pragma once

#include <span>

#include "gcn/layer.hpp"
#include "gcn/models.hpp"
#include "graph/rng.hpp"
#include "spmm/spmm.hpp"

namespace igcn {

/**
 * Input features: dense or CSR (NELL's X is far too sparse for
 * dense). Only combineFeatures and gatherRows look at the storage
 * choice; the layers past X * W0 see dense activations either way.
 */
struct Features
{
    bool sparse = false;
    DenseMatrix dense;
    CsrMatrix csr;

    size_t rows() const { return sparse ? csr.numRows : dense.rows(); }
    size_t cols() const { return sparse ? csr.numCols : dense.cols(); }
    EdgeId nnz() const;

    /** Heap bytes of the active representation. */
    size_t storageBytes() const;
};

/**
 * The layer-0 combination X * W for either storage of X: gemm on
 * dense, sparseTimesDense on CSR. Both accumulate each output
 * element's non-zero terms in ascending column order, so the two
 * storages of the same logical X give byte-equal products at any
 * IGCN_THREADS.
 */
DenseMatrix combineFeatures(const Features &x, const DenseMatrix &w);

/**
 * Rows `rows` of x (duplicates allowed, any order) in x's storage:
 * a dense row copy, or csrGather, which moves O(gathered nnz) and
 * never densifies.
 * @throws std::out_of_range on a CSR row id >= x.rows().
 */
Features gatherRows(const Features &x, std::span<const NodeId> rows);

/** Deterministic random features with a given density. */
Features makeFeatures(NodeId num_nodes, int num_features, double density,
                      Rng &rng, bool force_sparse = false);

/** Deterministic random weight matrices for every layer of a model. */
std::vector<DenseMatrix> makeWeights(const ModelConfig &cfg, Rng &rng);

/**
 * Golden forward pass: X(l+1) = relu(A_hat X(l) W(l)), no activation
 * after the last layer. Combination-first order (A (X W)).
 */
DenseMatrix referenceForward(const CsrGraph &g, const Features &x,
                             const std::vector<DenseMatrix> &weights);

/**
 * Factored forward pass used by the accelerator: per layer,
 * Y = S (X W); Z = (A + I) Y with binary accumulation; out = S Z.
 */
DenseMatrix factoredForward(const CsrGraph &g, const Features &x,
                            const std::vector<DenseMatrix> &weights);

} // namespace igcn
