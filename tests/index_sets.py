"""The recurring index sets of the tests, as text inputs.

Standard library only (it imports nothing), so that scripts such as
``output_digest.py`` can read them without pytest; ``conftest`` imports
them from here.
"""

# Filiform algebra in dimension 4: two triples, no aligned pairs.
FILIFORM4 = "n=4; (1,2,3) (1,3,4)"
# Heisenberg algebra in dimension 5: two triples meeting only in the center.
HEISENBERG5 = "n=5; (1,2,5) (3,4,5)"
# Six triples in dimension 7 with a single quadruple of multiplicity two.
ONE_QUAD_MULT2 = "n=7; (1,2,4) (1,3,5) (1,5,6) (2,4,6) (2,5,7) (3,4,7)"
# Seven triples in dimension 7 with a single quadruple of multiplicity three.
ONE_QUAD_MULT3 = "n=7; (1,2,4) (1,3,5) (1,4,6) (1,6,7) (2,3,6) (2,5,7) (3,4,7)"
# Nine triples in dimension 7: multiplicities 2 and 3 with one common triple.
MULT2_PLUS_MULT3 = ("n=7; (1,2,3) (1,3,4) (1,4,5) (1,5,6) (1,6,7) "
                    "(2,3,5) (2,4,6) (2,5,7) (3,4,7)")
# Eight triples in dimension 8: two quadruples of multiplicity two.
TWO_QUADS_MULT2 = "n=8; (1,3,4) (1,4,6) (1,6,7) (1,7,8) (2,3,6) (2,4,7) (2,6,8) (3,5,8)"
# Nine triples in dimension 8 whose single w-vector misses half the kernel.
ONE_QUAD_NON_SPANNING = ("n=8; (1,2,4) (1,3,5) (1,4,6) (1,5,7) (1,7,8) "
                         "(2,3,6) (2,4,7) (2,6,8) (3,5,8)")

# Thirteen triples in dimension 6 with a seven-dimensional kernel: a
# cross section in 7 parameters cut out by 13 irredundant inequalities.
DIM7 = ("n=6; (1,2,3) (1,2,4) (1,2,6) (1,3,4) (1,4,5) (1,5,6) (2,3,6) "
        "(2,4,5) (2,5,6) (3,4,5) (3,4,6) (3,5,6) (4,5,6)")
