"""Shared fixtures: a small synthetic pair with truly negative contact orders.

The divisor class is -2H, so every effective curve meets the boundary
negatively.  One curve-degree of invariant data is enough to light up the
divisor-exponent machinery (both extraction routes must report 2H·y) while
keeping everything small enough to compute in milliseconds.
"""

from fractions import Fraction

import pytest

from mirrorpair import load_geometry

SYNTHETIC_NEGATIVE = """
[algebra.ambient]
name = syn_amb
basis = one H H2
degrees = 0 1 2
unit = one
point = H2
products =
    H H H2 1

[algebra.divisor]
name = syn_div
basis = one pt
degrees = 0 1
unit = one
point = pt

[restriction]
map =
    one one 1
    H pt -2

[pair]
name = synthetic_negative
divisor_class = -2*H
picard = H
m_vector = -2
novikov = y
j_source = invariant_table
tau_d_source = table
invariants =
    x_point 1 0 pt 1
    d_point 1 0 pt 1

[truncation]
order = 4
"""

# Same pair, but insisting the divisor exponent vanishes.  The relative
# I-function then has to push a point-supported coefficient through the
# divisor class, which cannot work; used to exercise the cancellation guard.
SYNTHETIC_NEGATIVE_ZERO_TAU = SYNTHETIC_NEGATIVE.replace(
    "tau_d_source = table",
    "tau_d_source = zero\ntau_d_reason = elliptic_curve",
).replace("    d_point 1 0 pt 1\n", "")


@pytest.fixture(scope="session")
def synthetic_negative():
    return load_geometry(SYNTHETIC_NEGATIVE)


@pytest.fixture(scope="session")
def p2():
    from mirrorpair import builtin_geometry

    return builtin_geometry("p2_cubic")


@pytest.fixture(scope="session")
def p3():
    from mirrorpair import builtin_geometry

    return builtin_geometry("p3_quartic")


@pytest.fixture(scope="session")
def blp3():
    from mirrorpair import builtin_geometry

    return builtin_geometry("blp3_k3")


def dense_product(a, b):
    """The coefficients of a·b by a literal triple loop over the dense table."""
    alg = a.algebra
    n = alg.dim
    out = [Fraction(0)] * n
    for i in range(n):
        for j in range(n):
            for k in range(n):
                out[k] += a.coeffs[i] * b.coeffs[j] * alg.table[i][j][k]
    return tuple(out)
