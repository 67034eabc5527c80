"""The one Kronecker product behind the gamma matrices and the Spin+(1,3) operators.

It has a module of its own, apart from :mod:`cliffrep.algebra`, so that
``matrep`` and ``rep`` load no multivector code, and apart from
:mod:`cliffrep.gamma` and :mod:`cliffrep.lorentz`, so that each of those
commands loads only its own builder.
"""


def _kron(a, b):
    """np.kron of two square numpy matrices as one broadcast product, bit for bit."""
    size = len(a) * len(b)
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(size, size)
