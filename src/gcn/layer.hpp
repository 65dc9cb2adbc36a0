/**
 * @file
 * GraphCONV layer building blocks.
 *
 * The layer-wise propagation is X(l+1) = sigma(A_hat X(l) W(l)) with
 * A_hat = D^-1/2 (A + I) D^-1/2 (Kipf & Welling). I-GCN's redundancy
 * removal needs *unweighted* accumulation, so we use the standard
 * factorization A_hat = S (A + I) S with S = diag(1/sqrt(deg+1)):
 * scale rows of XW by S, aggregate over the *binary* adjacency
 * (including self loops), and scale rows by S again. This is exactly
 * equal to the normalized product and lets pre-aggregated sums be
 * reused across shared neighbors.
 */

#pragma once

#include "graph/csr.hpp"
#include "spmm/spmm.hpp"

namespace igcn {

struct Features; // gcn/reference.hpp

/** S = diag(1/sqrt(degree + 1)), the symmetric-normalization scaler. */
std::vector<float> degreeScaling(const CsrGraph &g);

/** Row-scale in place: m.row(v) *= s[v]. */
void scaleRows(DenseMatrix &m, const std::vector<float> &s);

/**
 * Normalized adjacency A_hat = D^-1/2 (A + I) D^-1/2 as an explicit
 * weighted CSR matrix (reference path).
 */
CsrMatrix normalizedAdjacency(const CsrGraph &g);

/**
 * A_hat of g with caller-supplied scaling: entry (u, v) = s[u]*s[v],
 * self loop s[u]^2 inserted at its sorted position. Equal to
 * normalizedAdjacency when s = degreeScaling(g). The serving engine
 * passes *full-graph* scaling for an extracted receptive subgraph, so
 * fringe truncation never changes a node's normalization.
 */
CsrMatrix normalizedAdjacencyScaled(const CsrGraph &g,
                                    const std::vector<float> &s);

/**
 * Rebuild a_hat from (g, s) in place, reusing its storage across
 * epochs and dropping its cached CSC adjunct (mutating the entry
 * arrays of a CsrMatrix requires invalidateCsc; this is the one
 * mutation path the online update applier uses). Each row's columns
 * stay strictly ascending: the self loop goes in at its sorted
 * position, merged with an explicit (u, u) edge when g has one.
 */
void refreshNormalizedAdjacency(CsrMatrix &a_hat, const CsrGraph &g,
                                const std::vector<float> &s);

/**
 * The layer chain past layer 0's combination, shared by every
 * A_hat-explicit forward pass that serves logits: aggregate xw0 over
 * a_hat, then ReLU/gemm/aggregate through the remaining layers (no
 * activation after the last). The same operation sequence as
 * referenceForward's loop, so on the same a_hat and xw0 the result is
 * bit-identical to it.
 */
DenseMatrix forwardChain(const CsrMatrix &a_hat, DenseMatrix xw0,
                         const std::vector<DenseMatrix> &weights);

/**
 * Batched-subgraph forward entry point: the referenceForward layer
 * chain (A_hat X W with combination-first order and inter-layer
 * ReLU) over an extracted L-hop subgraph. `scale` and `x` are the
 * full-graph degree scaling and input features gathered to the
 * subgraph's local ids (gatherRows). Kernels, loop orders, and
 * per-row accumulation order are identical to the whole-graph pass,
 * so rows of nodes whose L-hop neighborhood is inside the subgraph —
 * in particular every extraction target — are bit-identical to
 * referenceForward on the whole graph. Layer 0 runs combineFeatures,
 * so dense and CSR storage of the same x give byte-equal output.
 */
DenseMatrix subgraphForward(const CsrGraph &sub,
                            const std::vector<float> &scale,
                            const Features &x,
                            const std::vector<DenseMatrix> &weights);

/**
 * Binary adjacency with self loops, A + I (factored path): the A_hat
 * build of normalizedAdjacencyScaled at unit scaling, so both share
 * one self-loop placement loop.
 */
CsrMatrix binaryAdjacencyWithSelfLoops(const CsrGraph &g);

/** Element-wise ReLU in place. */
void reluInPlace(DenseMatrix &m);

} // namespace igcn
