"""q-rook numbers as an oracle for the engine rows that shares no code with
the engine (Garsia and Remmel, JCTA 1986; Varvak, JCTA 2005).

Expanding the n factors X + c(i) s D of an OPERATORS row gives 2^n words in
X and D.  For one word, the board is every cell (D at i, X at j) with
i < j.  The normal form of the word has coefficient r_k(q) at
X^(#X-k) D^(#D-k), where r_k sums, over placements of k non-attacking rooks
on the board, q to the number of cells that hold no rook and lie neither
right of a rook in its row nor below one in its column.  The counting here
uses only qarith; twist, c and side are read from OPERATORS.
"""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from qweyl.families import OPERATORS, operator_row
from qweyl.opalg import TWIST_ONE, TWIST_Q, normal_order
from qweyl.qarith import QSCALAR_ONE, QSCALAR_Q, QSCALAR_ZERO


def placements(rows, cols, board):
    """Every set of non-attacking rooks on board (a set of (row, col)
    cells), as a tuple of cells, rows taken in ascending order."""
    if not rows:
        yield ()
        return
    row, rest = rows[0], rows[1:]
    yield from placements(rest, cols, board)
    for col in cols:
        if (row, col) in board:
            for tail in placements(rest, cols - {col}, board):
                yield ((row, col),) + tail


def rook_numbers(word, twist):
    """{k: r_k} for a word over "XD", with twist in place of q."""
    ds = [i for i, letter in enumerate(word) if letter == "D"]
    xs = [j for j, letter in enumerate(word) if letter == "X"]
    board = {(i, j) for i in ds for j in xs if i < j}
    numbers = {}
    for rooks in placements(ds, frozenset(xs), board):
        right = {(i, j) for i, c in rooks for j in xs if j > c}
        below = {(i, j) for r, j in rooks for i in ds if i > r}
        free = len(board - set(rooks) - right - below)
        numbers[len(rooks)] = numbers.get(len(rooks), QSCALAR_ZERO) + twist ** free
    return numbers


def rook_row(kind, n):
    """Term map {(X power, D power, s power): coefficient} of operator n of
    an OPERATORS kind, summed over the words of its expanded product."""
    twist, c, left = OPERATORS[kind]
    # the letter at position p comes from factor p+1, or n-p when factors
    # join on the left
    factor = [n - p if left else p + 1 for p in range(n)]
    terms = {}
    for word in itertools.product("XD", repeat=n):
        weight = QSCALAR_ONE
        for p, letter in enumerate(word):
            if letter == "D":
                weight = weight * c(factor[p])
        nd = word.count("D")
        for k, r in rook_numbers(word, twist).items():
            key = (n - nd - k, nd - k, nd)
            terms[key] = terms.get(key, QSCALAR_ZERO) + weight * r
    return {key: v for key, v in terms.items() if not v.is_zero()}


@pytest.mark.parametrize("kind", sorted(OPERATORS))
def test_rook_rows_equal_engine_rows(kind):
    for n in range(9):
        assert rook_row(kind, n) == dict(operator_row(kind, n).terms), (kind, n)


@given(st.text("XD", max_size=10), st.sampled_from([TWIST_Q, TWIST_ONE]))
@settings(max_examples=300, derandomize=True, deadline=None)
def test_random_words_at_both_twists(word, twist):
    nx, nd = word.count("X"), word.count("D")
    expected = {(nx - k, nd - k, 0): r for k, r in rook_numbers(word, twist).items()}
    assert expected == dict(normal_order(word, twist).terms)


def test_hand_counts():
    # D X X = q^2 X^2 D + (1+q) X, and D X D X = q^3 X^2 D^2 + (2q+q^2) X D + 1
    q = QSCALAR_Q
    assert rook_numbers("DXX", q) == {0: q ** 2, 1: 1 + q}
    assert rook_numbers("DXDX", q) == {0: q ** 3, 1: 2 * q + q ** 2, 2: QSCALAR_ONE}
