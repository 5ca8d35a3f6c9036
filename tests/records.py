"""Conversion between scipy sparse matrices and the propagator's CSR
record, for tests that build an operator or read one's entries."""

import numpy as np
import scipy.sparse as sp

from rydsim.propagate import CSR


def to_record(m) -> CSR:
    """The CSR record of a square scipy sparse or dense real matrix."""
    m = sp.csr_matrix(m)
    return CSR(m.indptr.astype(np.int32), m.indices.astype(np.int32),
               m.data.astype(np.float64))


def to_scipy(a: CSR) -> sp.csr_matrix:
    """The scipy CSR matrix holding a record's arrays."""
    n = len(a.indptr) - 1
    return sp.csr_matrix((a.data, a.indices, a.indptr), shape=(n, n))
