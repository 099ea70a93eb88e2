"""Write tests/kpair_references.txt, the references of test_besselk_pair_matches_mpmath.

One line per order and argument that the test compares the K pair with:
order, Re arg, Im arg as exact rationals, then Re and Im of mpmath's besselk
K_order(arg) at 120 significant digits.  Run from the repository root:

    PYTHONPATH=src python tests/make_kpair_references.py

It takes about a minute on a 2-core machine, 46 s of it for the integer
orders; the tests read those from the file and compute the others again.
"""

import mpmath

from test_operators import KPAIR_ARGUMENTS, KPAIR_ORDERS, K_REFERENCES, reference_k, reference_key

DIGITS = 120


def main():
    lines = [f"# order, Re arg, Im arg, Re and Im of mpmath's besselk K_order(arg) to {DIGITS} digits"]
    for order in KPAIR_ORDERS:
        for arg in KPAIR_ARGUMENTS:
            k = reference_k(order, arg)
            parts = (mpmath.nstr(x, DIGITS) for x in (k.real, k.imag))
            lines.append(" ".join((*reference_key(order, arg), *parts)))
    K_REFERENCES.write_text("\n".join(lines) + "\n")


if __name__ == "__main__":
    main()
