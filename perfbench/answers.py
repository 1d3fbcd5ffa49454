"""Hand-written inputs and answers for the perfbench workloads.

Nothing here is read back from the engine.  The generator sets restate
the bundled catalog and the three p = 2 groups of the lattice ladder;
the answers come from group theory, with the derivation next to each
number.  Values that have no independent derivation are not listed:
the runner checks those only for exact repeat across passes and runs.

Every answer is invariant under relabelling the permutation points,
which is how a workload seed varies the inputs.
"""

# -- catalog entries --------------------------------------------------------
#
# name -> (points, generator cycles (1-based), prime, expected record).
# The expected records restate the catalog's own: |G|, |S|, saturation,
# |Z(F)| and |foc(F)|.

CATALOG = {
    "sigma3-cubed-paired": (
        9,
        [[[1, 2, 3]], [[4, 5, 6]], [[7, 8, 9]], [[1, 2], [4, 5]], [[1, 2], [7, 8]]],
        3,
        {"order": 108, "sylow_order": 27, "saturated": True, "center": 1, "focal": 27},
    ),
    "sigma3-cubed-full": (
        9,
        [[[1, 2, 3]], [[4, 5, 6]], [[7, 8, 9]], [[1, 2]], [[4, 5]], [[7, 8]]],
        3,
        {"order": 216, "sylow_order": 27, "saturated": True, "center": 1, "focal": 27},
    ),
    "sigma3": (
        3,
        [[[1, 2, 3]], [[1, 2]]],
        3,
        {"order": 6, "sylow_order": 3, "saturated": True, "center": 1, "focal": 3},
    ),
    "sigma3-squared": (
        6,
        [[[1, 2, 3]], [[1, 2]], [[4, 5, 6]], [[4, 5]]],
        3,
        {"order": 36, "sylow_order": 9, "saturated": True, "center": 1, "focal": 9},
    ),
    "dihedral18": (
        9,
        [[[1, 2, 3, 4, 5, 6, 7, 8, 9]], [[2, 9], [3, 8], [4, 7], [5, 6]]],
        3,
        {"order": 18, "sylow_order": 9, "saturated": True, "center": 1, "focal": 9},
    ),
    "dihedral18-sigma3": (
        12,
        [
            [[1, 2, 3, 4, 5, 6, 7, 8, 9]],
            [[2, 9], [3, 8], [4, 7], [5, 6]],
            [[10, 11, 12]],
            [[10, 11]],
        ],
        3,
        {"order": 108, "sylow_order": 27, "saturated": True, "center": 1, "focal": 27},
    ),
    "inner-c2": (
        2,
        [[[1, 2]]],
        2,
        {"order": 2, "sylow_order": 2, "saturated": True, "center": 2, "focal": 1},
    ),
    "inner-c2c2": (
        4,
        [[[1, 2]], [[3, 4]]],
        2,
        {"order": 4, "sylow_order": 4, "saturated": True, "center": 4, "focal": 1},
    ),
    "inner-c2c2c2": (
        6,
        [[[1, 2]], [[3, 4]], [[5, 6]]],
        2,
        {"order": 8, "sylow_order": 8, "saturated": True, "center": 8, "focal": 1},
    ),
    "inner-c3c3": (
        6,
        [[[1, 2, 3]], [[4, 5, 6]]],
        3,
        {"order": 9, "sylow_order": 9, "saturated": True, "center": 9, "focal": 1},
    ),
    "inner-c3c3c3": (
        9,
        [[[1, 2, 3]], [[4, 5, 6]], [[7, 8, 9]]],
        3,
        {"order": 27, "sylow_order": 27, "saturated": True, "center": 27, "focal": 1},
    ),
    "inner-d8": (
        4,
        [[[1, 2, 3, 4]], [[1, 3]]],
        2,
        {"order": 8, "sylow_order": 8, "saturated": True, "center": 2, "focal": 2},
    ),
    "inner-c2c4": (
        6,
        [[[1, 2]], [[3, 4, 5, 6]]],
        2,
        {"order": 8, "sylow_order": 8, "saturated": True, "center": 8, "focal": 1},
    ),
    "inner-d8-c2": (
        6,
        [[[1, 2, 3, 4]], [[1, 3]], [[5, 6]]],
        2,
        {"order": 16, "sylow_order": 16, "saturated": True, "center": 4, "focal": 2},
    ),
    "sym4": (
        4,
        [[[1, 2]], [[1, 2, 3, 4]]],
        2,
        {"order": 24, "sylow_order": 8, "saturated": True, "center": 1, "focal": 4},
    ),
    "alt4": (
        4,
        [[[1, 2, 3]], [[1, 2], [3, 4]]],
        2,
        {"order": 12, "sylow_order": 4, "saturated": True, "center": 1, "focal": 4},
    ),
    "sym4-c2": (
        6,
        [[[1, 2]], [[1, 2, 3, 4]], [[5, 6]]],
        2,
        {"order": 48, "sylow_order": 16, "saturated": True, "center": 2, "focal": 4},
    ),
}

# Number of indecomposable parts.  By Krull-Remak-Schmidt the count is an
# invariant: one per cyclic factor of an abelian inner system, one per
# simple-enough factor of a product (S3 at p = 3, S4 and D8 at p = 2 and
# the C9 dihedral system are indecomposable), one for the twisted triple.
PARTS = {
    "sigma3-cubed-paired": 1,
    "sigma3-cubed-full": 3,
    "sigma3": 1,
    "sigma3-squared": 2,
    "dihedral18": 1,
    "dihedral18-sigma3": 2,
    "inner-c2": 1,
    "inner-c2c2": 2,
    "inner-c2c2c2": 3,
    "inner-c3c3": 2,
    "inner-c3c3c3": 3,
    "inner-d8": 1,
    "inner-c2c4": 2,
    "inner-d8-c2": 2,
    "sym4": 1,
    "alt4": 1,
    "sym4-c2": 2,
}

# Factorization counts of the systems with several factorizations:
# |Aut(S)| over the stabilizer of one decomposition.
#   C2^2: |GL(2,2)| / 2 = 3        C2 x C4: 8 / 2 = 4
#   C3^2: |GL(2,3)| / 8 = 6        C2^3: |GL(3,2)| / 6 = 28
#   C3^3: |GL(3,3)| / 48 = 234
FACTORIZATION_COUNTS = {
    "inner-c2c2": 3,
    "inner-c2c4": 4,
    "inner-c3c3": 6,
    "inner-c2c2c2": 28,
    "inner-c3c3c3": 234,
}

# Entries that get `factorize --exhaustive` and a `krs` in catalog-reports.
# inner-c3c3c3 is left to the c3-exhaustive workload.
KRS_ENTRIES = ["inner-c2c2", "inner-c2c4", "inner-c3c3", "inner-c2c2c2"]

# Realizing groups for the p = 2 transfer; the normal closures of the
# parts factor G, so their orders multiply to |G|.
GOLDSCHMIDT = ["inner-c2c2", "inner-d8-c2", "sym4-c2"]

# -- c3-exhaustive: the inner system of C3^3 -------------------------------
#
# Every automorphism of an abelian group preserves its inner fusion and is
# normal, so both automorphism counts are |GL(3,3)| = 26 * 24 * 18.
# Omega is generated by the coordinate swap (1 4)(2 5)(3 6).  Its
# eigenspaces have dimensions 2 (+1) and 1 (-1), so the equivariant
# automorphisms form GL(2,3) x GL(1,3) (48 * 2 = 96), and an invariant
# factorization is the -1 line plus a splitting of the +1 plane into two
# lines: 4 * 3 / 2 = 6.

C3_CUBED = (9, [[[1, 2, 3]], [[4, 5, 6]], [[7, 8, 9]]], 3)
C3_SWAP = [[1, 4], [2, 5], [3, 6]]
C3_ANSWERS = {
    "order": 27,
    "subgroups": 28,          # sum of Gaussian binomials [3,k]_3 = 1+13+13+1
    "factorizations": 234,
    "fusion_automorphisms": 11232,
    "normal_automorphisms": 11232,
    "part_order": 3,
    "omega_order": 2,
    "factorizations_omega": 6,
    "normal_automorphisms_omega": 96,
}
C3_KRS_PAIRS = 5  # non-equivariant certificates per pass; one more under Omega

# -- p2-lattice: three groups at p = 2 -------------------------------------
#
# D8 = <(1 2 3 4), (1 3)>, S4 = <(1 2), (1 2 3 4)>, C2 = <(1 2)>, each copy
# on its own points.  Z and foc multiply over direct factors:
#   D8 x D8 (inner): Z = Z(D8)^2 = 4, foc = [S,S] = 2 * 2 = 4, 2 parts.
#   S4 x S4 on its Sylow D8 x D8: Z = 1, foc = (S cap [G,G])^2 = V4^2 = 16.
#   C2^5 (inner): 374 = sum of [5,k]_2 subgroups, one identity map each,
#   Z = 32, foc = 1, 5 parts.
# The D8 x D8 lattice (389 subgroups) and its tables (2145 inner, 4385
# from S4 x S4 morphisms) have no derivation here and are checked for
# repeat only.

P2_GROUPS = {
    "d8xd8": {
        "points": 8,
        "generators": [[[1, 2, 3, 4]], [[1, 3]], [[5, 6, 7, 8]], [[5, 7]]],
        "answers": {"order": 64, "sylow_order": 64, "center": 4, "focal": 4, "parts": 2},
    },
    "sym4xsym4": {
        "points": 8,
        "generators": [[[1, 2]], [[1, 2, 3, 4]], [[5, 6]], [[5, 6, 7, 8]]],
        "answers": {"order": 576, "sylow_order": 64, "center": 1, "focal": 16},
    },
    "c2^5": {
        "points": 10,
        "generators": [[[1, 2]], [[3, 4]], [[5, 6]], [[7, 8]], [[9, 10]]],
        "answers": {
            "order": 32,
            "sylow_order": 32,
            "subgroups": 374,
            "morphisms": 374,
            "center": 32,
            "focal": 1,
            "parts": 5,
        },
    },
}
