"""The jump engine draws claims on demand, in pieces of rows.

``_Blocks`` draws a block's gaps at each refill but its claims in pieces
of 8, 8, 16, 32 and 64 rows, as the lanes reach them.  That keeps every
stream bit for bit only because numpy's samplers consume the stream one
sample after another: a draw of n values in pieces gives the values, and
leaves the stream where, one draw of n would.  ``DistSpec.sample``
fills a given array, and ``_Blocks`` draws each piece into the rows of
one buffer after the gaps, over the piece before; the exponential fills
with ``standard_exponential`` and scales by 1/rate, which numpy's
``exponential`` does too.  These tests pin both premises, so that a
numpy upgrade that breaks either fails here, and check that ``_Blocks``
reads the rows of the eager ``(128, lanes)`` draw.

``walk`` sums a sub-block's rounds one row at a time, which makes the
additions of ``np.add.accumulate(axis=0)`` in the same order; that
premise is pinned here too.  The walk tests take each walk's size from
``_sizes``, the sizing rule of ``_Blocks`` restated.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ruin2d.models import deterministic_dist, exponential_dist
from ruin2d.montecarlo import _BLOCK, _BUF_ROWS, _PIECE, _SUB_BLOCK, _Blocks, _chunk_rng

PIECES = (8, 8, 16, 32, 64)
DISTS = {"exponential": exponential_dist(2.0), "deterministic": deterministic_dist(1.0)}


def _draw(d, rng, n):
    out = np.empty(n)
    d.sample(rng, out)
    return out


def _bits(x):
    return x.view(np.uint64)


def test_pieces_fill_one_block():
    assert sum(PIECES) == _BLOCK
    assert _BUF_ROWS == _BLOCK + max(PIECES)


@pytest.mark.parametrize("dist", sorted(DISTS))
@pytest.mark.parametrize("lanes", [1, 7, 4096])
def test_pieces_equal_one_draw(dist, lanes):
    d = DISTS[dist]
    eager, lazy = _chunk_rng(3, 5), _chunk_rng(3, 5)
    whole = _draw(d, eager, _BLOCK * lanes)
    parts = np.concatenate([_draw(d, lazy, rows * lanes) for rows in PIECES])
    assert np.array_equal(parts, whole)
    assert np.array_equal(lazy.random(4), eager.random(4))


@pytest.mark.parametrize("rate", [0.5, 1.0, 2.0, 4 / 3])
@pytest.mark.parametrize("n", [1, 7, 128 * 4096])
def test_in_place_exponential_is_numpys_exponential(rate, n):
    # the floats and the stream position of rng.exponential(1 / rate, n)
    ref, got = _chunk_rng(3, 5), _chunk_rng(3, 5)
    want = ref.exponential(1.0 / rate, n)
    assert np.array_equal(_bits(_draw(exponential_dist(rate), got, n)), _bits(want))
    assert np.array_equal(_bits(got.random(4)), _bits(ref.random(4)))


@pytest.mark.parametrize("dist", sorted(DISTS))
@pytest.mark.parametrize("lanes", [1, 7, 4096])
def test_pieces_over_one_buffer_equal_one_draw(dist, lanes):
    # gaps into the first _BLOCK rows, then each piece into the rows after
    # them, over the piece before, as _Blocks draws them
    d = DISTS[dist]
    eager, lazy = _chunk_rng(3, 5), _chunk_rng(3, 5)
    whole = _draw(d, eager, 2 * _BLOCK * lanes).reshape(2 * _BLOCK, lanes)
    buf = np.full(_BUF_ROWS * lanes, np.nan)
    gaps = buf[:_BLOCK * lanes].reshape(_BLOCK, lanes)
    d.sample(lazy, gaps)
    parts = [gaps.copy()]
    for rows in PIECES:
        piece = buf[_BLOCK * lanes:(_BLOCK + rows) * lanes].reshape(rows, lanes)
        d.sample(lazy, piece)
        parts.append(piece.copy())
    assert np.array_equal(_bits(np.concatenate(parts)), _bits(whole))
    assert np.array_equal(_bits(gaps), _bits(whole[:_BLOCK]))  # the pieces left the gaps
    assert np.array_equal(lazy.random(4), eager.random(4))


def _row_sums(x):
    """Running sums over the rows of x, one row at a time, as ``walk``
    takes them."""
    out = x.copy()
    for r in range(1, out.shape[0]):
        np.add(out[r - 1], out[r], out=out[r])
    return out


@settings(max_examples=60, deadline=None)
@given(st.data(), st.integers(1, 64), st.sampled_from(["exponential", "mixed"]),
       st.integers(0, 2**32 - 1))
def test_row_sums_equal_accumulate(data, rows, kind, seed):
    lanes = data.draw(st.integers(1, 16384 // rows), label="lanes")
    rng = np.random.default_rng(seed)
    if kind == "exponential":
        x = rng.exponential(0.5, (rows, lanes))
    else:  # both signs, magnitudes 2**-60 to 2**60
        x = rng.choice([-1.0, 1.0], (rows, lanes)) * np.ldexp(
            rng.random((rows, lanes)), rng.integers(-60, 61, (rows, lanes)))
    x[0] += rng.uniform(1.0, 1e3, lanes)  # a walk starts from t, s > 0
    assert np.array_equal(_row_sums(x), np.add.accumulate(x, axis=0))


def _eager_blocks(seed, chunk, widths):
    """(gaps, claims) of each refill as one (128, lanes) draw apiece, of
    Exp(1.5) gaps and Exp(2) claims."""
    rng = _chunk_rng(seed, chunk)
    out = []
    for nl in widths:
        gaps = rng.exponential(1.0 / 1.5, (_BLOCK, nl))
        out.append((gaps, rng.exponential(1.0 / 2.0, (_BLOCK, nl))))
    return out


def _blocks(seed, chunk, lanes):
    """_Blocks of Exp(1.5) gaps and Exp(2) claims, over a buffer for lanes
    lanes that holds NaN to start with."""
    return _Blocks(_chunk_rng(seed, chunk), exponential_dist(1.5), exponential_dist(2.0),
                   np.full(_BUF_ROWS * lanes, np.nan))


def _sizes(lanes, bw, nl, start, rounds):
    """The rounds of each walk of nl slots over rounds start to start +
    rounds of a block of bw lanes, in a buffer for a chunk of lanes
    lanes, by the sizing rule: at most _SUB_BLOCK values, and at most a
    quarter of the values free for a step's arrays, those after the
    claim piece or, if more, the gap rows before it, up to the piece's
    end."""
    sizes, r = [], start
    while r < start + rounds:
        first = 0 if r < _PIECE else 1 << (r.bit_length() - 1)  # the piece's first round
        piece = max(first, _PIECE)
        free = max(_BUF_ROWS * lanes - (_BLOCK + piece) * bw, first * bw)
        sizes.append(min(max(1, min(_SUB_BLOCK, free // 4) // nl), first + piece - r,
                         start + rounds - r))
        r += sizes[-1]
    return sizes


def _walk(blocks, nl, rounds):
    """Walk `rounds` rounds for nl lanes, each walk from t = s = 0: the
    (T, S) of every walk, and the number of rounds in each."""
    walks, sizes = [], []
    while sum(sizes) < rounds:
        T, S = blocks.walk(np.zeros(nl), np.zeros(nl), rounds - sum(sizes))
        walks.append((T.copy(), S.copy()))  # the next walk may overwrite them
        sizes.append(T.shape[0])
    return walks, sizes


def _same_rows(walks, gaps, claims):
    """Each walk's sums equal the running sums of its eager rows."""
    r = 0
    for T, S in walks:
        n = T.shape[0]
        assert np.array_equal(T, np.add.accumulate(gaps[r:r + n], axis=0))
        assert np.array_equal(S, np.add.accumulate(claims[r:r + n], axis=0))
        r += n
    assert r == gaps.shape[0]


def test_walk_reads_the_eager_rows_in_the_first_piece():
    nl = 8192
    (gaps, claims), = _eager_blocks(7, 0, [nl])
    blocks = _blocks(7, 0, nl)
    t, s = np.zeros(nl), np.zeros(nl)
    r = 0
    for size in _sizes(nl, nl, nl, 0, 5):
        T, S = blocks.walk(t, s, 5 - r)
        assert T.shape == (size, nl)  # several rounds at full width
        for i in range(size):
            t, s = t + gaps[r], s + claims[r]
            assert np.array_equal(T[i], t) and np.array_equal(S[i], s)
            r += 1
    assert r == 5
    # only the first claim piece was drawn
    assert blocks.end == PIECES[0]


def test_walk_sums_rows_as_one_round_at_a_time_would():
    nl = 3
    (gaps, claims), = _eager_blocks(7, 1, [nl])
    blocks = _blocks(7, 1, nl)
    t, s = np.full(nl, 0.1), np.full(nl, 0.2)
    T, S = blocks.walk(t, s, _BLOCK)
    assert T.shape == (PIECES[0], nl)
    for r in range(PIECES[0]):
        t, s = t + gaps[r], s + claims[r]
        assert np.array_equal(T[r], t) and np.array_equal(S[r], s)


def test_walk_crosses_two_refills_on_the_eager_rows():
    # 8192 lanes for a block, then 4096, which drop half-way through the
    # block to three (lanes 1, 20 and 500 of the 4096); then a block of three
    keep = np.isin(np.arange(4096), [1, 20, 500])
    eager = _eager_blocks(11, 4, [8192, 4096, 3])
    blocks = _blocks(11, 4, 8192)

    walks, sizes = _walk(blocks, 8192, _BLOCK)
    assert sizes == _sizes(8192, 8192, 8192, 0, _BLOCK)
    _same_rows(walks, *eager[0])

    # several rounds per walk, then the three lanes read their own columns
    # in one walk up to the end of the last piece
    gaps, claims = eager[1]
    walks, sizes = _walk(blocks, 4096, 64)
    assert sizes == _sizes(8192, 4096, 4096, 0, 64)
    _same_rows(walks, gaps[:64], claims[:64])
    blocks.keep(keep)
    walks, sizes = _walk(blocks, 3, 64)
    assert sizes == _sizes(8192, 4096, 3, 64, 64) == [64]
    _same_rows(walks, gaps[64:, keep], claims[64:, keep])

    # a refill for the three lanes: one walk per claim piece
    walks, sizes = _walk(blocks, 3, _BLOCK)
    assert sizes == _sizes(8192, 3, 3, 0, _BLOCK) == list(PIECES)
    _same_rows(walks, *eager[2])
