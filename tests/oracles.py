"""Plain-Python scalar references for the vectorised kernels.

Each reference takes the arithmetic one rounded fp64 operation at a time, in
the order the kernels document, so a kernel must match it bit for bit (up
to the sign of an exact zero).
"""


def forward_solve(col_ptr, row_idx, values, w):
    """Solve L y = w for L in CSC form, diagonal first in every column.

    Unknown j takes its updates l_jk * y_k in ascending source column k,
    then is divided by l_jj.
    """
    n = len(w)
    sources = [[] for _ in range(n)]   # (k, l_jk) for every target row j
    for k in range(n):
        for p in range(col_ptr[k] + 1, col_ptr[k + 1]):
            sources[int(row_idx[p])].append((k, float(values[p])))
    y = [0.0] * n
    for j in range(n):
        acc = float(w[j])
        for k, l_jk in sources[j]:
            acc -= l_jk * y[k]
        y[j] = acc / float(values[col_ptr[j]])
    return y


def backward_solve(col_ptr, row_idx, values, w):
    """Solve L^T y = w for L in CSC form, diagonal first in every column.

    Unknown j takes its updates l_ij * y_i in descending source row i, then
    is divided by l_jj.
    """
    n = len(w)
    y = [0.0] * n
    for j in range(n - 1, -1, -1):
        acc = float(w[j])
        for p in range(col_ptr[j + 1] - 1, col_ptr[j], -1):
            acc -= float(values[p]) * y[int(row_idx[p])]
        y[j] = acc / float(values[col_ptr[j]])
    return y
