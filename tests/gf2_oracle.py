"""Row-wise elimination over GF(2): the slow, independent oracle for the
column reduction in liestrata.linalg.

The rows of a dense 0/1 matrix are packed into integers, bit ``c`` of a row
holding column ``c``, and eliminated column by column.  Membership in the
column space is read off ranks alone: v lies in Col(Y) exactly when
appending v as a last column leaves the rank unchanged.  So is the
canonical coset transversal, through the leading coordinates of Col(Y).
"""


def gf2_from_dense(rows):
    """The rows of a dense matrix, reduced mod 2 and packed as integers."""
    return [sum((int(x) & 1) << c for c, x in enumerate(row)) for row in rows]


def eliminate(words, width):
    """Reduced row echelon form of packed rows; (nonzero rows, pivots)."""
    words = list(words)
    pivots = []
    r = 0
    for c in range(width):
        pivot = next((i for i in range(r, len(words)) if (words[i] >> c) & 1),
                     None)
        if pivot is None:
            continue
        words[r], words[pivot] = words[pivot], words[r]
        for i in range(len(words)):
            if i != r and (words[i] >> c) & 1:
                words[i] ^= words[r]
        pivots.append(c)
        r += 1
        if r == len(words):
            break
    return words[:r], pivots


def rank(rows, ncols):
    """Rank over GF(2) of an integer matrix given by its rows."""
    return len(eliminate(gf2_from_dense(rows), ncols)[1])


def column_space_contains(rows, ncols, v):
    """Whether the Z2 vector v (one entry per row) lies in Col(rows mod 2)."""
    augmented = [list(row) + [x] for row, x in zip(rows, v)]
    return rank(augmented, ncols + 1) == rank(rows, ncols)


def coset_transversal(rows, ncols):
    """The vectors supported off the leading coordinates of Col(rows mod 2).

    Coordinate r leads (is the lowest nonzero coordinate of some column
    space member) exactly when row r is not in the span of the rows above
    it; the vectors are listed by the binary number their free entries spell,
    the first free coordinate being the lowest bit.
    """
    m = len(rows)
    free = [r for r in range(m)
            if rank(rows[:r + 1], ncols) == rank(rows[:r], ncols)]
    return tuple(tuple(int(r in free and (mask >> free.index(r)) & 1)
                       for r in range(m))
                 for mask in range(1 << len(free)))
