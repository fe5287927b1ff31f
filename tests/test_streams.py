import numpy as np
import pytest

from cvarsearch.streams import as_seed_sequence, generator, substream

SeedSequence = np.random.SeedSequence

ENTROPIES = [0, 7, 2**32, 2**64 + 5, 2**128 - 1, 2**160 + 3, None]
PATHS = [(), (0,), (1, 2), (1, 5, 0, 7), (2**32, 3), (0, 2**64 + 1, 9)]


def assert_same_stream(got, want):
    np.testing.assert_array_equal(got.pool, want.pool)
    np.testing.assert_array_equal(
        generator(got).standard_normal(5),
        np.random.Generator(np.random.SFC64(want)).standard_normal(5),
    )


@pytest.mark.parametrize("entropy", ENTROPIES, ids=lambda e: "os" if e is None else hex(e))
@pytest.mark.parametrize("path", PATHS, ids=str)
def test_equals_numpy_spawn_key(entropy, path):
    # None draws fresh OS entropy; the reference reuses the root's
    root = SeedSequence(entropy)
    want = SeedSequence(entropy=root.entropy, spawn_key=path)
    assert_same_stream(substream(root, *path), want)
    for cut in range(len(path) + 1):
        assert_same_stream(substream(substream(root, *path[:cut]), *path[cut:]), want)
    nested = root
    for k in path:
        nested = substream(nested, k)
    assert_same_stream(nested, want)


@pytest.mark.parametrize("path", PATHS, ids=str)
def test_user_sequence_with_its_own_key(path):
    for root in (SeedSequence(99, spawn_key=(3, 4)), SeedSequence([5, 2**40], spawn_key=(2,))):
        want = SeedSequence(entropy=root.entropy, spawn_key=root.spawn_key + path)
        assert_same_stream(substream(root, *path), want)


@pytest.mark.parametrize("path", PATHS, ids=str)
def test_substream_is_numpy_construction(path):
    # the child carries the root's entropy and the extended key path
    for root in (SeedSequence(2**70 + 1), SeedSequence([5, 2**40], spawn_key=(3, 4))):
        child = substream(root, *path)
        assert child.entropy == root.entropy
        assert child.spawn_key == root.spawn_key + path


def test_negative_key_rejected():
    with pytest.raises(ValueError):
        SeedSequence(entropy=5, spawn_key=(1, -1))
    with pytest.raises(ValueError):
        substream(SeedSequence(5), 1, -1)
    with pytest.raises(ValueError):
        substream(substream(SeedSequence(5), 1), -1)


def test_float_seed_and_key_rejected():
    # a float is refused, never truncated to its integer part
    with pytest.raises(TypeError):
        as_seed_sequence(2.7)
    with pytest.raises(TypeError):
        substream(SeedSequence(5), 1, 1.5)


def test_numpy_integer_seed_and_key_accepted():
    assert as_seed_sequence(np.int64(2)).entropy == 2
    assert_same_stream(substream(SeedSequence(5), np.int64(1), np.uint32(4)),
                       substream(SeedSequence(5), 1, 4))


def test_generator_is_sfc64():
    assert type(generator(SeedSequence(5)).bit_generator) is np.random.SFC64


@pytest.mark.parametrize("k", [0, 1, 37])
def test_chunk_streams_have_distinct_states(k):
    # every stream starts from its own well-mixed state.  SFC64's state is
    # three mixed 64-bit words and a counter that seeding sets alike in
    # every stream.  Across the 64 chunk streams of one evaluation, keys
    # (1, k, c), no mixed word repeats, and neighbouring chunks, whose keys
    # differ only in c, differ in about half of their 192 mixed bits
    root = SeedSequence(2024)
    words = np.array([generator(substream(root, 1, k, c)).bit_generator.state["state"]["state"]
                      for c in range(64)], dtype=np.uint64)[:, :3]
    assert len(np.unique(words)) == words.size
    flips = np.unpackbits((words[1:] ^ words[:-1]).view(np.uint8), axis=1).sum(axis=1)
    assert flips.min() >= 64 and flips.max() <= 128, flips
