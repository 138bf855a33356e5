"""Exact hook-content arithmetic for plethysms of SL(2)/GL(2) representations.

The central object is the polynomial P^d_lambda(q), the quotient of the
content product by the hook product of a Young diagram: two plethysms
S_lambda(S_delta(C^2)) and S_mu(S_epsilon(C^2)) are isomorphic as
SL(2)-modules exactly when their P polynomials agree, and as
GL(2)-modules when additionally |delta|*|lambda| = |epsilon|*|mu|.
Everything is computed with exact integer arithmetic.
"""

__version__ = "0.1.0"
