import string

import numpy as np

ACCEPTANCE_LINES = []


def record_acceptance(line):
    ACCEPTANCE_LINES.append(line)
    print(line)


def pytest_terminal_summary(terminalreporter):
    if not ACCEPTANCE_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for line in ACCEPTANCE_LINES:
        terminalreporter.write_line(line)


def dense_apply(kmat, g):
    """(Kg)(x_1..x_d) = sum_z kmat[x_1..x_d, z] g(x_2..x_d, z), from the table."""
    letters = string.ascii_lowercase[:g.ndim]
    return np.einsum(f"{letters}z,{letters[1:]}z->{letters}", kmat, g)


class DenseOperator:
    """A kernel table of shape (n,)*d + (n,) as an operator that spectral_radius
    takes: the reference that the assembled forms are checked against."""

    def __init__(self, grid, kmat, delta=0.0):
        self.grid, self.kmat, self.delta = grid, kmat, delta

    def apply(self, g):
        return dense_apply(self.kmat, np.asarray(g, dtype=float))
