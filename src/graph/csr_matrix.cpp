#include "graph/csr_matrix.hpp"

#include <stdexcept>
#include <string>

namespace igcn {

CsrMatrix
CsrMatrix::fromArrays(NodeId num_rows,
                        NodeId num_cols,
                        std::vector<EdgeId> row_ptr,
                        std::vector<NodeId> col_idx,
                        std::vector<float> vals)
{
    if (row_ptr.size() != static_cast<size_t>(num_rows) + 1)
        throw std::invalid_argument(
            "CsrMatrix::fromArrays: row_ptr size " +
            std::to_string(row_ptr.size()) + " != num_rows + 1 = " +
            std::to_string(static_cast<size_t>(num_rows) + 1));
    if (row_ptr.front() != 0)
        throw std::invalid_argument(
            "CsrMatrix::fromArrays: row_ptr[0] != 0");
    if (row_ptr.back() != col_idx.size())
        throw std::invalid_argument(
            "CsrMatrix::fromArrays: row_ptr back " +
            std::to_string(row_ptr.back()) + " != entry count " +
            std::to_string(col_idx.size()));
    if (vals.size() != col_idx.size())
        throw std::invalid_argument(
            "CsrMatrix::fromArrays: values size " +
            std::to_string(vals.size()) + " != col_idx size " +
            std::to_string(col_idx.size()));
    for (NodeId r = 0; r < num_rows; ++r) {
        if (row_ptr[r] > row_ptr[r + 1])
            throw std::invalid_argument(
                "CsrMatrix::fromArrays: row_ptr not monotone at row " +
                std::to_string(r));
        for (EdgeId e = row_ptr[r]; e < row_ptr[r + 1]; ++e) {
            if (col_idx[e] >= num_cols)
                throw std::invalid_argument(
                    "CsrMatrix::fromArrays: column " +
                    std::to_string(col_idx[e]) + " out of range in row " +
                    std::to_string(r));
            if (e > row_ptr[r] && col_idx[e - 1] >= col_idx[e])
                throw std::invalid_argument(
                    "CsrMatrix::fromArrays: columns not strictly "
                    "ascending in row " +
                    std::to_string(r));
        }
    }

    CsrMatrix f;
    f.numRows = num_rows;
    f.numCols = num_cols;
    f.rowPtr = std::move(row_ptr);
    f.colIdx = std::move(col_idx);
    f.values = std::move(vals);
    return f;
}

CsrMatrix
CsrMatrix::fromGraph(const CsrGraph &g)
{
    CsrMatrix m;
    m.numRows = g.numNodes();
    m.numCols = g.numNodes();
    m.rowPtr = g.rows();
    m.colIdx = g.cols();
    m.values.assign(m.colIdx.size(), 1.0f);
    return m;
}

double
CsrMatrix::density() const
{
    const double cells =
        static_cast<double>(numRows) * static_cast<double>(numCols);
    return cells > 0.0 ? static_cast<double>(nnz()) / cells : 0.0;
}

size_t
CsrMatrix::storageBytes() const
{
    return rowPtr.size() * sizeof(EdgeId) +
           colIdx.size() * sizeof(NodeId) +
           values.size() * sizeof(float);
}

const CscIndex &
CsrMatrix::csc() const
{
    return cscCache.get([this] {
        CscIndex idx;
        transposeCsrIndex(numCols, rowPtr, colIdx, idx.colPtr,
                          idx.rowOf, &values, &idx.valOf);
        return idx;
    });
}

} // namespace igcn
